"""The benchmark tracer's wrap sites resolve against the library.

``bench/tracer.py`` wraps chdisc functions by module attribute; a name that
leaves its module breaks the traced benchmark.  This checks every site
without running the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _wrap_sites():
    spec = importlib.util.spec_from_file_location("_bench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.WRAP_SITES


@pytest.mark.parametrize("module, attr", [site[:2] for site in _wrap_sites()])
def test_tracer_wrap_site_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))
