import ast
import copy
import inspect
import json
import pickle
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import entwit
from entwit.operators import _Frozen
from entwit.sampling import random_psd
from entwit.serialization import operator_to_dict

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
    # the lazy table is the one list of public functions and classes: its
    # entry names, in sorted order, every function or class without a
    # leading underscore that the layer defines, and the layer's __all__
    # reads it
    module = getattr(entwit, layer)
    defined = [
        name for name, obj in vars(module).items()
        if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    ]
    assert entwit._EXPORTS[layer] == tuple(sorted(defined))
    assert module.__all__[: len(defined)] == list(entwit._EXPORTS[layer])


# The entwit layers each lookup loads, from a fresh interpreter: a name loads
# its layer and that layer's imports, and ``import entwit`` loads none.
LOADS = {
    None: set(),
    "certify_witness": {"operators", "sampling", "witness"},
    "MdiewScenario": {"mdiew", "operators", "sampling"},
    "dumps_canonical": {"operators", "serialization"},
    "swap_witness": {"catalog", "choi", "operators", "sampling", "witness"},
}


@pytest.mark.parametrize("name", LOADS, ids=str)
def test_a_lookup_loads_only_its_layer_and_that_layers_imports(name):
    lookup = "" if name is None else f"entwit.{name}; "
    code = (
        f"import sys, entwit; {lookup}"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('entwit.'))))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout.split()
    assert out == [f"entwit.{layer}" for layer in sorted(LOADS[name])]


# Each command kind the benchmark and CI run, as ``main`` takes it; {caps} is a
# cap file.  Every kind runs the code paths its bigger runs do, at a small size.
COMMAND_KINDS = {
    "certify": ["certify", "swap", "--restarts", "4"],
    "extend-random-caps": ["extend", "swap", "--random-caps", "2", "2", "--restarts", "4"],
    "extend-caps": ["extend", "swap", "--caps", "{caps}", "--restarts", "4"],
    **{f"audit-{mode}": ["mdiew", "audit", "swap", "--trials", "5", "--povm-mode", mode]
       for mode in ("ideal", "misaligned", "arbitrary")},
    "audit-embedded": ["mdiew", "audit", "swap", "--trials", "2", "--embed-dims", "16", "16"],
    "decompose": ["mdiew", "decompose", "choi"],
    "choi-demo": ["choi-demo"],
}


@pytest.mark.parametrize("kind", COMMAND_KINDS)
def test_no_command_imports_numpy_ma(tmp_path, kind):
    # np.median of a float array imports numpy.ma, about 13 ms of start-up
    # that a short command would pay on every run
    caps = tmp_path / "caps.json"
    caps.write_text(json.dumps(dict.fromkeys(("cap_left", "cap_right"),
                                             operator_to_dict(random_psd(2, 0)))))
    argv = [a.format(caps=caps) for a in COMMAND_KINDS[kind]]
    code = (
        "import contextlib, io, sys, entwit.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    code = entwit.cli.main(sys.argv[1:])\n"
        "print(code, 'numpy.ma' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                         check=True).stdout
    assert out == "0 False\n"


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
    """(owner type name, array) for each array a value type or a record holds,
    in a slot or field or in a tuple there, found through nested ones."""
    if isinstance(obj, _Frozen):
        values = [getattr(obj, name) for name in type(obj).__slots__]
    elif isinstance(obj, tuple) and hasattr(obj, "_fields"):  # a record
        values = list(obj)
    else:
        for item in obj if isinstance(obj, tuple) else ():
            yield from _held_arrays(item)
        return
    for value in values:
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, np.ndarray):
                yield type(obj).__name__, item
        yield from _held_arrays(value)


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
        for copied in (obj, pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
            assert type(copied) is type(obj)
            assert repr(copied) == repr(obj)
            for owner, arr in _held_arrays(copied):
                assert not arr.flags.writeable, (type(obj).__name__, owner)
                owners.add(owner)
    assert {"HermitianOperator", "StateBasis", "MdiewScenario", "AbParams",
            "SeeSawReport", "ZeroSet", "ExhibitReport"} <= owners
