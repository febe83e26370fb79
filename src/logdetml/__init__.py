"""Mahalanobis metric and kernel learning from pairwise constraints.

Learns a positive definite matrix W (equivalently, a kernel function) that
pulls constrained-similar pairs below a distance threshold and pushes
constrained-dissimilar pairs above one, staying close to a baseline metric
under the LogDet divergence.  Training runs as cyclic Bregman projections
with closed-form rank-one updates, in input space or entirely in kernel
space, with out-of-sample extension and an identity-plus-low-rank mode for
high-dimensional or large-n data.
"""

from .constraints import (
    Constraint,
    ConstraintSet,
    Thresholds,
    compute_thresholds,
    generate_from_labels,
    generate_pairs_random,
)
from .errors import InvalidArgumentError, NumericalError
from .learned_kernel import (
    LearnedKernelModel,
    compute_M,
    from_kernel_fit,
    learned_distance,
    learned_inner_product,
)
from .linalg import KernelSpec, gram, logdet_divergence, pair_distance_kernel
from .lowrank import Basis, fit_low_rank, reconstruct, select_basis_feature, select_basis_kernel
from .solver import (
    KernelModel,
    LinearModel,
    SolverConfig,
    fit_kernel,
    fit_linear,
    fit_linear_with_prior,
)

__all__ = [
    "Basis",
    "Constraint",
    "ConstraintSet",
    "InvalidArgumentError",
    "KernelModel",
    "KernelSpec",
    "LearnedKernelModel",
    "LinearModel",
    "NumericalError",
    "SolverConfig",
    "Thresholds",
    "compute_M",
    "compute_thresholds",
    "fit_kernel",
    "fit_linear",
    "fit_linear_with_prior",
    "fit_low_rank",
    "from_kernel_fit",
    "generate_from_labels",
    "generate_pairs_random",
    "gram",
    "learned_distance",
    "learned_inner_product",
    "logdet_divergence",
    "pair_distance_kernel",
    "reconstruct",
    "select_basis_feature",
    "select_basis_kernel",
]

__version__ = "0.1.0"
