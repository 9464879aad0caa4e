"""Every name a module exports must exist, so a deleted helper cannot stay
behind in an export list, and every name the benchmark's tracer wraps must
exist too, with each parameter its hooks read still at its position. Every
defaulted parameter of a public function must have a caller that sets it."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import wncs

ROOT = Path(__file__).resolve().parent.parent
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


def _traced_targets():
    """perfbench/tracing.py's (owner, attribute, span name, hook) list."""
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing._targets()


def test_traced_names_exist():
    # The benchmark's tracer indexes owner.__dict__[attr] for each target and
    # its runner reads wncs.USING_NUMBA; renaming one breaks only the
    # benchmark, which these tests do not collect.
    hooked = set()
    for owner, attr, _name, hook in _traced_targets():
        assert attr in owner.__dict__, f"{owner.__name__}.{attr}"
        if hook is None or attr not in HOOK_PARAMS:
            continue
        hooked.add(attr)
        params = list(inspect.signature(owner.__dict__[attr]).parameters)
        for index, name in HOOK_PARAMS[attr].items():
            assert params[index] == name, f"{owner.__name__}.{attr}: {params}"
    assert hooked == HOOK_PARAMS.keys()
    assert hasattr(wncs, "USING_NUMBA")


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _public_defaults(tree):
    """(qualified name, callee name, [(position, name)]) per public function.

    Module-level functions and the methods of public module-level classes,
    public by name (__init__ is public when its class is). A method is
    called by its own name and __init__ by its class name; positions leave
    self out, and a keyword-only parameter has position None.
    """
    found = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            found.append((node.name, node.name, 0, node))
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    callee = node.name if item.name == "__init__" else item.name
                    found.append((f"{node.name}.{item.name}", callee, 1, item))
    for qualname, callee, offset, fn in found:
        if fn.name.startswith("_") and fn.name != "__init__":
            continue
        args = fn.args
        positional = args.posonlyargs + args.args
        defaulted = [
            (i - offset, arg.arg)
            for i, arg in enumerate(positional)
            if i >= len(positional) - len(args.defaults)
        ]
        defaulted += [
            (None, arg.arg) for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default
        ]
        if defaulted:
            yield qualname, callee, defaulted


def _calls(tree):
    """(callee name, number of positional arguments, keywords) per call."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name is None:
            continue
        if any(isinstance(arg, ast.Starred) for arg in node.args) or any(
            kw.arg is None for kw in node.keywords
        ):
            yield name, float("inf"), set()
        else:
            yield name, len(node.args), {kw.arg for kw in node.keywords}


def test_every_default_has_a_caller_that_sets_it():
    # A defaulted parameter that no call in the package, the benchmark or
    # the acceptance tests ever sets has one value: it is a constant with
    # the code that serves other values still attached. What the benchmark
    # wraps is exempt, with every method of a class it wraps, since the
    # benchmark's tracer pins those signatures by name.
    sources = sorted((ROOT / "src" / "wncs").glob("*.py"))
    callers = sources + sorted((ROOT / "perfbench").glob("*.py"))
    callers.append(ROOT / "tests" / "test_acceptance.py")
    passed = {}
    for path in callers:
        for name, n_positional, keywords in _calls(_parse(path)):
            passed.setdefault(name, []).append((n_positional, keywords))

    traced = _traced_targets()
    exempt_classes = {owner.__name__ for owner, *_ in traced if isinstance(owner, type)}
    exempt_functions = {attr for owner, attr, *_ in traced if not isinstance(owner, type)}
    unset = []
    for path in sources:
        for qualname, callee, defaulted in _public_defaults(_parse(path)):
            if qualname.split(".")[0] in exempt_classes or qualname in exempt_functions:
                continue
            for index, param in defaulted:
                if not any(
                    param in keywords or (index is not None and index < n_positional)
                    for n_positional, keywords in passed.get(callee, [])
                ):
                    unset.append(f"{path.stem}.{qualname}({param})")
    assert not unset, f"defaulted parameters no caller sets: {unset}"
