"""Multibrot sets over complex, hyperbolic, bicomplex and tricomplex numbers."""

__version__ = "0.1.0"

from .hypercomplex import (
    Bicomplex,
    Hyperbolic,
    IdempotentPair,
    Tricomplex,
    UnitIndex,
    from_idempotent,
    hyp_T,
    hyp_diamond,
    in_discus,
    norm3,
    tc_mul,
    tc_pow,
    to_idempotent,
    unit_product,
)
from .roots import (
    CubicCoeffs,
    MANDELBRIC_REAL_BOUND,
    RootSet,
    cubic_discriminant,
    cubic_roots,
    depressed_reduce,
    escape_bound,
    mandelbric_attracting_root,
)
from .dynamics import (
    EscapeResult,
    IterationParams,
    iterate_complex,
    iterate_hyperbolic,
    iterate_tricomplex,
    member_hyperbric_analytic,
    member_multibrot,
    member_perplexbric_analytic,
    real_axis_extent,
)
from .slices import (
    ConjugacyMap,
    PRINCIPAL_SLICES,
    SliceSpec,
    VoxelGrid,
    classify_principal,
    conjugacy_catalog,
    embed_slice_point,
    enumerate_slices,
    sample_slice,
    verify_conjugacy,
)

__all__ = [
    "Bicomplex", "ConjugacyMap", "CubicCoeffs", "EscapeResult",
    "Hyperbolic", "IdempotentPair", "IterationParams",
    "MANDELBRIC_REAL_BOUND", "PRINCIPAL_SLICES", "RootSet", "SliceSpec",
    "Tricomplex", "UnitIndex", "VoxelGrid", "classify_principal",
    "conjugacy_catalog", "cubic_discriminant", "cubic_roots",
    "depressed_reduce", "embed_slice_point", "enumerate_slices",
    "escape_bound", "from_idempotent", "hyp_T", "hyp_diamond",
    "in_discus", "iterate_complex", "iterate_hyperbolic",
    "iterate_tricomplex", "mandelbric_attracting_root",
    "member_hyperbric_analytic", "member_multibrot",
    "member_perplexbric_analytic", "norm3", "real_axis_extent",
    "sample_slice", "tc_mul", "tc_pow", "to_idempotent",
    "unit_product", "verify_conjugacy",
]
