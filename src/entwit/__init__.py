"""Construction, extension, and numerical certification of entanglement
witnesses, plus their measurement-device-independent deployment.

The package is organized around a few small layers:

operators      layouts, Hermitian operators, product vectors, partial
               transpose / trace, spectra
sampling       seeded random states and caps; the audit's effect and
               unitary kernels
witness        see-saw minimization over product states and certification
extension      tensoring witnesses with positive caps; zero-set lifting
choi           the worked indecomposable example and its extension exhibit
catalog        bundled witnesses and a detected PPT state
mdiew          tomographic decomposition and the nonnegativity audit
serialization  canonical JSON for operators and reports
cli            the ``entwit`` command

``import entwit`` loads none of them: a layer is imported the first time one
of its names is looked up (PEP 562), so a CLI command pays only for the
layers it runs.
"""

from importlib import import_module

# The public names, by the layer that defines them.
_EXPORTS = {
    "catalog": ("choi_detected_ppt_state", "swap_witness"),
    "choi": (
        "AbParams", "ExhibitReport", "choi_witness", "closed_form_values",
        "detection_values", "nontrivial_extension_exhibit", "rho_abb",
        "rho_abb_matrix",
    ),
    "extension": (
        "ExtensionSpec", "extend_state", "extend_witness", "extended_zero_set",
    ),
    "mdiew": (
        "AuditFailure", "AuditReport", "MdiewScenario", "StateBasis",
        "ideal_projector", "mdiew_value", "separable_nonnegativity_audit",
        "tomographic_basis",
    ),
    "operators": (
        "HermitianOperator", "LayoutError", "NumericalError", "ProductVector",
        "SystemLayout", "basis_vector", "eigh", "is_psd", "kron",
        "maximally_entangled_vector", "partial_trace", "partial_transpose",
        "projector", "single_system",
    ),
    "sampling": ("random_density", "random_psd", "rng_from"),
    "serialization": (
        "SerializationError", "dump_operator", "dumps_canonical", "load_operator",
        "matrix_from_json", "matrix_to_json", "operator_from_dict",
        "operator_to_dict", "to_jsonable",
    ),
    "witness": (
        "SeeSawReport", "SpanningReport", "WitnessCertificate", "ZeroSet",
        "certify_indecomposable", "certify_witness", "collect_zero_set",
        "expectation", "has_spanning_property", "min_product_expectation",
        "nd_spanning", "span_rank",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
