"""Kernels of multiplication-projection operators on the unit circle.

Exact rational-function computation of kernels, factorizations and
structural identities for operators of the form a P+ + b P- and
P+ a + P- b, cross-checked against a truncated-matrix numerical oracle.
"""

from .errors import (
    CertificateFailed,
    DegenerateInput,
    DegenerateSymbol,
    DegreeOverflow,
    DomainMismatch,
    MalformedConfig,
    NotInHardySpace,
    NotInKernel,
    NotInner,
    OracleIndeterminate,
    PairedKError,
    PartitionOfUnityFails,
    PoleOnCircle,
    SymbolNotBounded,
    TrivialKernel,
    UnknownProperty,
    WindowOverflow,
    ZeroDenominator,
    ZeroFunction,
    ZeroOrPoleOnCircle,
)
from .factorization import (
    InnerOuterPair,
    WHFactorization,
    blaschke,
    inner_outer,
    wiener_hopf,
    winding_index,
)
from .kernels import (
    KernelBasis,
    OracleResult,
    PairedElement,
    SymbolPair,
    j_map,
    kernel_oracle,
    kernels_equal_S,
    linearly_independent,
    member_S,
    member_Sigma,
    model_space_basis,
    nontrivial_S,
    nontrivial_Sigma,
    paired_kernel,
    principal_angle,
    sigma_inclusion,
    symbols_from_function,
    toeplitz_kernel,
    transposed_kernel,
)
from .laurent import LaurentPoly
from .operators import (
    Adjoint,
    Commutator,
    Compose,
    DualToeplitz,
    Hankel,
    HankelTilde,
    Mult,
    Paired,
    ProjMinus,
    ProjPlus,
    RankResult,
    Scale,
    Sum,
    Toeplitz,
    Transposed,
    TruncationMatrix,
    adjoint_residual,
    apply_exact,
    ast_from_json,
    ast_to_json,
    bandwidth,
    build,
    identity,
    numerical_rank,
    operator_norm,
    truncate,
)
from .properties import (
    PropertyReport,
    RunConfig,
    SuiteReport,
    registered_ids,
    run_property,
    run_suite,
)
from .rational import (
    RationalSymbol,
    SpaceTag,
    circle_conjugate,
    fourier_coefficient,
    inner_product,
    membership,
    probe_points,
    rf_normalize,
    riesz_project,
)
from .roots import Root, RootSet, poly_roots
from .sampling import SamplerProfile, sample_symbol, trial_rng

__version__ = "0.1.0"
