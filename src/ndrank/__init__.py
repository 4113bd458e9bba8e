"""Nondecreasing-rank toolchain for matrices and tensors over product posets."""

__version__ = "0.1.0"

from .errors import (
    CycleError,
    DegenerateCone,
    HypothesisViolated,
    NDRankError,
    NonFiniteInput,
    NonNegativityViolated,
    NonPositiveEntry,
    NotSimplicial,
    ParseError,
    ShapeMismatch,
    TooLarge,
    UncertifiedSolution,
    UnknownLabel,
    UnsupportedLossRank,
)
from .poset import (
    Poset,
    chain,
    collider_to_top,
    connected_upsets,
    count_antichains,
    from_relation,
    has_collider,
    is_simplicial,
    linear_extensions,
    format_poset_text,
    parse_poset_text,
    product,
    read_poset,
    trivial,
    write_poset,
)
from .tensor import (
    apply_kronecker,
    mobius_inverse_matrix,
    mobius_matrix,
    outer,
    read_tensor,
    tensor_from_json,
    tensor_to_json,
    write_tensor,
)
from .cone import (
    MembershipCertificate,
    ProbabilityEstimate,
    Violation,
    canonical_inequalities,
    default_tol,
    double_description,
    finite_rank_hrep,
    finite_rank_vrep,
    is_monotone,
    membership_finite_rank,
    format_normal,
    order_cone_vrep,
    sample_finite_rank_probability,
)
from .isotonic import pava_chain, project
from .factor import FitConfig, FitReport, NDFactorization, hals, init_als_project
from .rank import (
    RankBounds,
    Rank2Result,
    TriFactorCheck,
    rank1_exponential,
    rank1_gaussian,
    rank1_multinomial,
    rank1_poisson,
    rank2_matrix_exact,
    rank_bounds,
    tri_factorization_verify,
)
from . import datasets

# the rank submodule stays out of the star export: ``from ndrank import *``
# would otherwise put a module where a script's ``rank = 2`` was
__all__ = [name for name in dir() if not name.startswith("_") and name != "rank"]
