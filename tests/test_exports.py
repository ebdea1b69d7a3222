"""Every name a module exports through ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import spinphoton

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(spinphoton.__path__, "spinphoton.")
) + ["spinphoton"]


def test_the_walk_finds_every_module_that_exports():
    exporting = {
        name for name in MODULES if hasattr(importlib.import_module(name), "__all__")
    }
    assert exporting >= {
        "spinphoton.cavity",
        "spinphoton.optics",
        "spinphoton.protocols",
        "spinphoton.measurement",
        "spinphoton.circuits",
        "spinphoton.dsl",
        "spinphoton.dsl.ast",
        "spinphoton.dsl.compiler",
        "spinphoton.dsl.parser",
        "spinphoton.dsl.printer",
    }


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names what the module lacks: {missing}"
