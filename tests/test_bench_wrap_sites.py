"""The benchmark tracer's wrap sites resolve against the library.

``bench/tracer.py`` wraps chdisc functions by module attribute; a name that
leaves its module breaks the traced benchmark.  This checks every site
without running the benchmark.
"""

import importlib

import pytest

from conftest import tracer_wrap_sites


@pytest.mark.parametrize("module, attr", [site[:2] for site in tracer_wrap_sites()])
def test_tracer_wrap_site_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))
