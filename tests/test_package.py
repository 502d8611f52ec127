import inspect
import sys
import types

import pytest

import entwit

SUBMODULES = (
    "operators", "sampling", "witness", "extension", "choi", "catalog", "mdiew",
    "serialization", "cli",
)


def test_public_names_are_their_defining_modules_objects():
    for name in entwit.__all__:
        obj = getattr(entwit, name)
        assert inspect.isfunction(obj) or inspect.isclass(obj), name
        assert obj.__module__.startswith("entwit."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_dir_covers_all():
    assert set(entwit.__all__) <= set(dir(entwit))
    assert set(SUBMODULES) <= set(dir(entwit))


def test_star_import_binds_all():
    namespace = {}
    exec("from entwit import *", namespace)
    assert all(namespace[name] is getattr(entwit, name) for name in entwit.__all__)


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodules_resolve_by_attribute(name):
    module = getattr(entwit, name)
    assert isinstance(module, types.ModuleType)
    assert module is sys.modules[f"entwit.{name}"]


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        entwit.no_such_name
    assert not hasattr(entwit, "no_such_name")
