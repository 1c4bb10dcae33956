"""Each module's `__all__` matches what the module defines."""

import importlib
import inspect
import pkgutil

import pytest

import sdpverify

MODULES = sorted(m.name for m in pkgutil.iter_modules(sdpverify.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_exactly_the_public_definitions(name):
    """Every exported name exists, and every public function and class the
    module defines itself is exported, so a deletion leaves no stale entry
    and no helper goes public by accident."""
    mod = importlib.import_module(f"sdpverify.{name}")
    exported = set(mod.__all__)
    assert len(exported) == len(mod.__all__), "duplicate names in __all__"
    assert sorted(n for n in exported if not hasattr(mod, n)) == []
    defined = {
        n for n, obj in vars(mod).items()
        if not n.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == mod.__name__
    }
    assert sorted(defined - exported) == []
