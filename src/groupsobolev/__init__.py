"""Fourier analysis of vector-valued functions on compact groups.

Provides concrete compact groups with truncated duals and exact Haar
quadrature, the Fourier transform and synthesis of functions valued in
C^m, weighted spectral Sobolev norms, and a verification harness for the
associated embedding inequalities.
"""

__version__ = "0.1.0"

from .groups import (
    DualWindow,
    GroupSpec,
    OrthogonalityReport,
    QuadratureRule,
    irrep_matrix,
    make_group,
    matrix_coefficient,
    orthogonality_selftest,
    su2_element_matrix,
    wigner_d_matrix,
)
from .transform import (
    FourierCoefficients,
    VectorFunction,
    coefficients_from_json,
    coefficients_to_json,
    e_norm,
    forward_transform,
    load_coefficients,
    node_samples,
    random_band_limited,
    s_p_norm,
    save_coefficients,
    synthesize,
)
from .sobolev import (
    ConstantEstimate,
    SobolevParams,
    WeightSequence,
    canonical_weights,
    circle_weights,
    embedding_constant_C,
    exponents,
    h_s_norm,
    l_p_norm,
    lebesgue_norm,
    lq_bound_constant,
    probed_sup,
    su2_weights,
    weights_from_table,
    zero_weights,
)
from .verify import (
    DEFAULT_CONFIG,
    InequalityRecord,
    RecordTable,
    RunConfig,
    VerificationReport,
    check_block_comparison,
    check_continuity_modulus,
    check_hausdorff_young,
    check_l2_embedding,
    check_lq_embedding,
    check_monotone_embedding,
    check_sup_embedding,
    check_vector_norm_comparison,
    run_suite,
)

__all__ = [name for name in dir() if not name.startswith("_")]
