"""Every name a module exports must exist, so a deleted helper cannot stay
behind in an export list, and every name the benchmark's tracer wraps must
exist too."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import wncs

MODULES = ["wncs"] + [f"wncs.{info.name}" for info in pkgutil.iter_modules(wncs.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_star_import_resolves_every_export(module):
    namespace = {}
    exec(f"from {module} import *", namespace)  # AttributeError on a stale name
    assert set(importlib.import_module(module).__all__) <= namespace.keys()


def test_traced_names_exist():
    # The benchmark's tracer indexes owner.__dict__[attr] for each target and
    # its runner reads wncs.USING_NUMBA; renaming one breaks only the
    # benchmark, which these tests do not collect.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for owner, attr, _name, _hook in tracing._targets():
        assert attr in owner.__dict__, f"{owner.__name__}.{attr}"
    assert hasattr(wncs, "USING_NUMBA")
