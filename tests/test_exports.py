"""Every name a module exports must exist, so a deleted helper cannot stay
behind in an export list, and every name the benchmark's tracer wraps must
exist too, with each parameter its hooks read still at its position."""

import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import wncs

MODULES = ["wncs"] + [f"wncs.{info.name}" for info in pkgutil.iter_modules(wncs.__path__)]

# Parameters the tracer's hooks read through Call.arg(index, name), by the
# wrapped attribute: a hook reads the index when the argument is passed by
# position, so a reordered signature would count the wrong argument.
HOOK_PARAMS = {
    "pi_step": {1: "state"},
    "discretize_series": {0: "kind", 1: "tau", 2: "sample_time"},
    "filter_sequence": {1: "inputs"},
    "fit_arx": {0: "series", 1: "na", 2: "nb", 3: "nk"},
    "write_csv": {1: "path"},
    "write_metrics_csv": {1: "path"},
}


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
    hooked = set()
    for owner, attr, _name, hook in tracing._targets():
        assert attr in owner.__dict__, f"{owner.__name__}.{attr}"
        if hook is None or attr not in HOOK_PARAMS:
            continue
        hooked.add(attr)
        params = list(inspect.signature(owner.__dict__[attr]).parameters)
        for index, name in HOOK_PARAMS[attr].items():
            assert params[index] == name, f"{owner.__name__}.{attr}: {params}"
    assert hooked == HOOK_PARAMS.keys()
    assert hasattr(wncs, "USING_NUMBA")
