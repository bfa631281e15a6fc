"""The library names the benchmark's tracer wraps still exist.

``perfbench/spans.py`` rebinds library functions by their dotted paths, so
a rename in the library breaks the traced benchmark runs; the other tests
here never load the tracer.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_paths():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.SPANNED + spans.LEAVES


@pytest.mark.parametrize("mod,path,name", traced_paths())
def test_traced_path_resolves(mod, path, name):
    owner = importlib.import_module(f"taumonoid.{mod}")
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner), name
