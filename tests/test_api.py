"""The export lists: each name they list exists, none is listed twice,
and the package re-exports every name as the object of its home module."""

import importlib
import pkgutil

import pytest

import conic_purge

# every module of the package that declares an export list; importing
# __main__ would run the command line
EXPORTING = [module for module in [conic_purge] + [
    importlib.import_module(f"conic_purge.{info.name}")
    for info in pkgutil.iter_modules(conic_purge.__path__)
    if info.name != "__main__"] if hasattr(module, "__all__")]


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_listed_names_exist(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] \
        == []


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_no_name_listed_twice(module):
    names = list(module.__all__)
    assert sorted({name for name in names if names.count(name) > 1}) == []


@pytest.mark.parametrize("name", conic_purge.__all__)
def test_reexport_is_the_home_object(name):
    obj = getattr(conic_purge, name)
    home = importlib.import_module(obj.__module__)
    assert home.__name__.startswith("conic_purge.")
    assert getattr(home, name) is obj
