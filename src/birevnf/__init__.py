"""Exact symbolic engine for bireversible vector fields.

Computes generator sets for the modules of reversible-equivariant
polynomial mappings under semidirect products of a continuous closure
group with two commuting reversing involutions, certifies them against a
brute-force degree-slice oracle, and assembles the truncated formal normal
forms.
"""

from .continuous import (
    LinearPart,
    SymmetryContext,
    catalog,
    check_involution_pair,
    classify_type,
    closure_data,
    enumerate_involution_pairs,
    linear_part_for_case,
)
from .errors import (
    CertificationFailure,
    ConditionViolated,
    ConfigError,
    DimensionError,
    EngineError,
    IncompatibleMatrix,
    ResourceLimit,
    SignInconsistency,
    UncertifiedInput,
    UnsupportedCase,
)
from .group import (
    GroupContext,
    SignedElement,
    anticommute_check,
    membership,
)
from .normalform import NormalForm, assemble, emit
from .oracle import (
    DegreeSlice,
    module_slice,
    slice_space,
    spans_equal,
)
from .poly import (
    GaussianRational,
    PolyMap,
    Polynomial,
    parse_polymap,
    parse_polynomial,
    render_polymap,
    render_polynomial,
)
from .symmetry_ops import (
    GeneratorSet,
    Rung,
    extend_hilbert_basis,
    generators_over_extension,
    pipeline,
    project_generators,
    reynolds_R,
    reynolds_S,
    transfer_T,
)

__version__ = "0.1.0"
