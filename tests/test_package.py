"""Every name the package and its modules list in ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import voxsel

MODULES = ["voxsel", *(f"voxsel.{info.name}" for info in pkgutil.iter_modules(voxsel.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
