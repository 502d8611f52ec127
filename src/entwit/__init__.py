"""Construction, extension, and numerical certification of entanglement
witnesses, plus their measurement-device-independent deployment.

The package is organized around a few small layers:

operators      layouts, Hermitian operators, product vectors, partial
               transpose / trace, spectra
sampling       seeded random states, caps, POVM elements, unitaries
witness        see-saw minimization over product states and certification
extension      tensoring witnesses with positive caps; zero-set lifting
choi           the worked indecomposable example and its extension exhibit
catalog        bundled witnesses and a detected PPT state
mdiew          tomographic decomposition and the nonnegativity audit
serialization  canonical JSON for operators and reports
"""

from .catalog import catalogued_witnesses, choi_detected_ppt_state, swap_witness
from .choi import (
    AbParams,
    ExhibitReport,
    choi_witness,
    closed_form_values,
    detection_values,
    nontrivial_extension_exhibit,
    rho_abb,
    rho_abb_matrix,
    shift_operator,
)
from .extension import (
    ExtensionSpec,
    extend_state,
    extend_witness,
    extended_zero_set,
    gamma_of_extension_check,
)
from .mdiew import (
    AuditFailure,
    AuditReport,
    MdiewScenario,
    StateBasis,
    decompose_witness,
    ideal_projector,
    joint_probability,
    mdiew_value,
    reconstruction_residual,
    separable_nonnegativity_audit,
    tomographic_basis,
)
from .operators import (
    HermitianOperator,
    LayoutError,
    NumericalError,
    ProductVector,
    SeparableEnsemble,
    SystemLayout,
    basis_vector,
    eigh,
    is_psd,
    kron,
    maximally_entangled_vector,
    partial_trace,
    partial_transpose,
    projector,
    single_system,
)
from .sampling import (
    random_density,
    random_povm_first_element,
    random_product_vector,
    random_psd,
    random_separable,
    random_unitary,
    rng_from,
)
from .serialization import (
    SerializationError,
    dump_operator,
    dumps_canonical,
    load_operator,
    matrix_from_json,
    matrix_to_json,
    operator_from_dict,
    operator_to_dict,
    to_jsonable,
)
from .witness import (
    SeeSawReport,
    SpanningReport,
    WitnessCertificate,
    ZeroSet,
    certify_indecomposable,
    certify_witness,
    collect_zero_set,
    expectation,
    has_spanning_property,
    min_product_expectation,
    nd_spanning,
    span_rank,
)

__all__ = [
    "AbParams",
    "AuditFailure",
    "AuditReport",
    "ExhibitReport",
    "ExtensionSpec",
    "HermitianOperator",
    "LayoutError",
    "MdiewScenario",
    "NumericalError",
    "ProductVector",
    "SeeSawReport",
    "SeparableEnsemble",
    "SerializationError",
    "SpanningReport",
    "StateBasis",
    "SystemLayout",
    "WitnessCertificate",
    "ZeroSet",
    "basis_vector",
    "catalogued_witnesses",
    "certify_indecomposable",
    "certify_witness",
    "choi_detected_ppt_state",
    "choi_witness",
    "closed_form_values",
    "collect_zero_set",
    "decompose_witness",
    "detection_values",
    "dump_operator",
    "dumps_canonical",
    "eigh",
    "expectation",
    "extend_state",
    "extend_witness",
    "extended_zero_set",
    "gamma_of_extension_check",
    "has_spanning_property",
    "ideal_projector",
    "is_psd",
    "joint_probability",
    "kron",
    "load_operator",
    "matrix_from_json",
    "matrix_to_json",
    "maximally_entangled_vector",
    "mdiew_value",
    "min_product_expectation",
    "nd_spanning",
    "nontrivial_extension_exhibit",
    "operator_from_dict",
    "operator_to_dict",
    "partial_trace",
    "partial_transpose",
    "projector",
    "random_density",
    "random_povm_first_element",
    "random_product_vector",
    "random_psd",
    "random_separable",
    "random_unitary",
    "reconstruction_residual",
    "rho_abb",
    "rho_abb_matrix",
    "rng_from",
    "separable_nonnegativity_audit",
    "shift_operator",
    "single_system",
    "span_rank",
    "swap_witness",
    "to_jsonable",
    "tomographic_basis",
]

__version__ = "0.1.0"
