from itertools import product

import pytest
from hypothesis import given, strategies as st

from taumonoid.identities import long_identity
from taumonoid.words import (EMPTY, MAX_WORD_LENGTH, WordSyntaxError, content,
                             islands, is_two_island_limited, parse_word,
                             print_word)

from oracles import simple_and_multiple


def w(text):
    return parse_word(text)


class TestParsePrint:
    def test_basic_marked_word(self):
        assert w("bta+b+") == (("b", False), ("t", False), ("a", True), ("b", True))

    def test_exponent_with_caret(self):
        assert w("x^2 t") == (("x", False), ("x", False), ("t", False))

    def test_bare_digit_exponent(self):
        assert w("ab2a5ba3") == w("abbaaaaabaaa")

    def test_zero_exponent_rejected(self):
        with pytest.raises(WordSyntaxError):
            w("y^0")
        with pytest.raises(WordSyntaxError):
            w("a0")

    def test_error_carries_position(self):
        with pytest.raises(WordSyntaxError) as e:
            w("ab?c")
        assert e.value.position == 2

    def test_empty_word(self):
        assert w("1") == EMPTY
        assert print_word(EMPTY) == "1"

    def test_multi_char_bases_are_spaced(self):
        word = w("x y1 y1 x")
        assert [b for b, _ in word] == ["x", "y1", "y1", "x"]
        assert print_word(word) == "x y1 y1 x"

    @pytest.mark.parametrize("text,position", [
        ("x 1", 2), ("1 x", 0), ("x  2a", 3), ("y1 1^2", 3), ("x +1", 2),
        ("x _a", 2)])
    def test_spaced_base_starts_with_a_letter(self, text, position):
        # as in the compact format, where 1x is refused at the 1
        with pytest.raises(WordSyntaxError) as e:
            w(text)
        assert e.value.position == position

    def test_plus_and_exponent_in_token(self):
        assert w("a+^3") == (("a", True),) * 3

    @pytest.mark.parametrize("text,position", [
        ("x^99999999999", 0), ("ab3x99999999999", 3), ("x^5000x^5001", 6),
        ("y1^99999999999 x", 0), ("x y1^5000 y1^5001", 10)])
    def test_length_cap(self, text, position):
        with pytest.raises(WordSyntaxError) as e:
            w(text)
        assert e.value.position == position
        assert str(MAX_WORD_LENGTH) in str(e.value)

    def test_length_cap_before_int_conversion(self):
        # 5000 digits exceed the interpreter's int-from-string limit
        for text in ("x" + "9" * 5000, "y1^" + "9" * 5000 + " x"):
            with pytest.raises(WordSyntaxError, match="longer than"):
                w(text)

    def test_length_cap_is_inclusive(self):
        assert len(w(f"x^{MAX_WORD_LENGTH}")) == MAX_WORD_LENGTH
        assert len(w(f"x^000{MAX_WORD_LENGTH}")) == MAX_WORD_LENGTH
        assert len(w(f"y1^{MAX_WORD_LENGTH - 1} x")) == MAX_WORD_LENGTH

    @given(st.lists(st.tuples(st.sampled_from("abct"), st.booleans()), max_size=12))
    def test_round_trip(self, letters):
        word = tuple(letters)
        assert parse_word(print_word(word)) == word

    @given(st.lists(st.tuples(st.sampled_from("abxt"), st.booleans(),
                              st.integers(1, 12), st.booleans()),
                    min_size=2, max_size=6))
    def test_compact_and_spaced_read_the_same_letters(self, letters):
        # bare-digit or ^k exponents in the compact format, ^k in the
        # spaced one; two letters or more, so the spaced text has a space
        word = tuple(l for b, p, k, _ in letters for l in [(b, p)] * k)
        compact = "".join(b + "+" * p + ("" if k == 1 else f"^{k}" if caret
                                         else str(k))
                          for b, p, k, caret in letters)
        spaced = " ".join(b + "+" * p + ("" if k == 1 else f"^{k}")
                          for b, p, k, _ in letters)
        assert parse_word(compact) == parse_word(spaced) == word

    @given(st.lists(st.sampled_from(["a", "b+", "x^3", "t+^2"]), max_size=3),
           st.sampled_from(["?", "_", "$", "a^", "a^0", "a^00", "b+^",
                            "b^x", "x+^+", "t+^0"]))
    def test_a_malformed_token_fails_at_the_same_place_in_both(self, before,
                                                              bad):
        # a valid letter follows, so the spaced text has a space
        tokens = before + [bad, "b"]
        errors = []
        for sep in ("", " "):
            with pytest.raises(WordSyntaxError) as e:
                parse_word(sep.join(tokens))
            start = len(sep.join(before + [""])) if before else 0
            errors.append((e.value.position - start, e.value.message))
        assert errors[0] == errors[1]

    def test_round_trip_with_longer_bases(self):
        # ab and y1 alone would read as a b and y in the compact format; a
        # round trip on every word makes printing one-to-one
        letters = [(b, p) for b in ("a", "b", "ab", "y1") for p in (False, True)]
        for n in range(5):
            for word in product(letters, repeat=n):
                text = print_word(word)
                assert parse_word(text) == word, text
                if all(len(b) == 1 for b, _ in word):
                    assert text == ("".join(b + "+" * p for b, p in word)
                                    or "1")
        assert print_word((("ab", False),)) == "1 ab"
        assert print_word((("y1", True),)) == "1 y1+"


class TestContent:
    def test_examples(self):
        assert content(w("abtasb")) == {"a", "b", "t", "s"}
        assert content(EMPTY) == frozenset()
        assert content(w("bta+b+")) == {"a", "b", "t"}

    @given(st.lists(st.tuples(st.sampled_from("abc"), st.booleans()), max_size=8),
           st.lists(st.tuples(st.sampled_from("abc"), st.booleans()), max_size=8))
    def test_content_of_concatenation(self, u, v):
        assert content(tuple(u) + tuple(v)) == content(tuple(u)) | content(tuple(v))


class TestSimpleMultiple:
    def test_examples(self):
        assert simple_and_multiple(w("xtyxsy")) == ({"t", "s"}, {"x", "y"})
        assert simple_and_multiple(w("x")) == ({"x"}, set())

    def test_long_identity_instance(self):
        u4 = long_identity(4).lhs
        simple, multiple = simple_and_multiple(u4)
        assert simple == set()
        assert multiple == {"x", "y1", "y2", "y3", "y4"}

    def test_rejects_marked_words(self):
        with pytest.raises(ValueError):
            simple_and_multiple(w("bta+b+"))

    @given(st.lists(st.sampled_from("abcd"), max_size=10))
    def test_partition(self, bases):
        word = tuple((b, False) for b in bases)
        simple, multiple = simple_and_multiple(word)
        assert simple | multiple == content(word)
        assert simple & multiple == set()


class TestIslands:
    def test_worked_island_counts(self):
        word = w("ab2a5ba3")
        assert islands(word, "a") == 3
        assert islands(word, "b") == 2

    def test_empty(self):
        assert islands(EMPTY, "a") == 0

    def test_marked_letters_join_runs(self):
        assert islands(w("aa+"), "a") == 1
        assert islands(w("bta+b+"), "b") == 2

    def test_two_island_limited(self):
        assert is_two_island_limited(w("asbtb^5a^7"))
        assert not is_two_island_limited(w("ab2a5ba3"))
        assert is_two_island_limited(w("bta+b+"))

    @given(st.lists(st.tuples(st.sampled_from("ab"), st.booleans()), max_size=10))
    def test_island_bounds(self, letters):
        word = tuple(letters)
        for base in "ab":
            count = islands(word, base)
            occurrences = sum(1 for b, _ in word if b == base)
            assert count <= occurrences
            assert (count == 0) == (base not in content(word))
