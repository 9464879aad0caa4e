"""Every name a module exports must exist, so a deleted helper cannot stay
behind in an export list."""

import importlib
import pkgutil

import pytest

import wncs

MODULES = ["wncs"] + [f"wncs.{info.name}" for info in pkgutil.iter_modules(wncs.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_star_import_resolves_every_export(module):
    namespace = {}
    exec(f"from {module} import *", namespace)  # AttributeError on a stale name
    assert set(importlib.import_module(module).__all__) <= namespace.keys()
