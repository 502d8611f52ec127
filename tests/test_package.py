import ast
import copy
import inspect
import pickle
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import entwit
from entwit.operators import _Frozen

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


@pytest.mark.parametrize("layer", sorted(entwit._EXPORTS))
def test_export_table_lists_what_each_layer_defines(layer):
    # the lazy table must name exactly the functions and classes that the
    # layer's own __all__ lists and defines there, in sorted order
    module = getattr(entwit, layer)
    defined = [
        name for name in module.__all__
        if (inspect.isfunction(getattr(module, name)) or inspect.isclass(getattr(module, name)))
        and getattr(module, name).__module__ == module.__name__
    ]
    assert entwit._EXPORTS[layer] == tuple(sorted(defined))


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


def test_oracles_draw_for_themselves():
    # the oracles pin the library's values, so a draw shared with the library
    # would agree with it whatever the draw computes
    tree = ast.parse(Path(__file__).with_name("oracle_utils.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.module != "entwit.sampling"
            if node.module == "entwit":
                names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, (ast.Name, ast.Attribute)):
            names.add(getattr(node, "id", None) or node.attr)
    banned = {"entwit.sampling", "sampling", "_effects", "_unitaries"}
    assert names.isdisjoint(banned | set(entwit._EXPORTS["sampling"]))


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        entwit.no_such_name
    assert not hasattr(entwit, "no_such_name")



def _held_arrays(obj):
    """(owner type name, array) for each array a value type holds, in a slot
    or in a tuple in a slot, found through records and nested value types."""
    if isinstance(obj, _Frozen):
        for name in type(obj).__slots__:
            value = getattr(obj, name)
            for item in value if isinstance(value, tuple) else (value,):
                if isinstance(item, np.ndarray):
                    yield type(obj).__name__, item
            yield from _held_arrays(value)
    elif isinstance(obj, tuple):
        for item in obj:
            yield from _held_arrays(item)


def test_value_types_and_records_are_immutable_and_picklable():
    swap = entwit.swap_witness()
    layout = entwit.SystemLayout((2, 2), 1)
    assert layout == entwit.SystemLayout([2, 2], 1) != entwit.SystemLayout((2, 2), 0)
    assert hash(layout) == hash(entwit.SystemLayout([2, 2], 1))
    certificate = entwit.certify_witness(swap, restarts=2)
    scenario = entwit.MdiewScenario.ideal(swap)
    instances = [
        layout,
        swap,
        certificate.min_product.best_vector,
        scenario.basis_left,
        scenario,
        entwit.ExtensionSpec(entwit.random_psd(2, seed=0), entwit.random_psd(2, seed=1)),
        entwit.AbParams(),
        certificate,
        certificate.min_product,
        entwit.collect_zero_set(swap, target_count=2, seed=0),
        entwit.has_spanning_property(swap, certificate),
        entwit.AuditFailure(0, 0.0, 0.0, "reason"),
        entwit.separable_nonnegativity_audit(scenario, trials=2, seed=0),
        entwit.nontrivial_extension_exhibit(),
    ]
    owners = set()
    for obj in instances:
        fields = getattr(obj, "_fields", None) or type(obj).__slots__
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
        for copied in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
            assert type(copied) is type(obj)
            assert repr(copied) == repr(obj)
            for owner, arr in _held_arrays(copied):
                assert not arr.flags.writeable, (type(obj).__name__, owner)
                owners.add(owner)
    assert {"HermitianOperator", "ProductVector", "StateBasis", "MdiewScenario",
            "AbParams"} <= owners
