"""Mahalanobis metric and kernel learning from pairwise constraints.

Learns a positive definite matrix W (equivalently, a kernel function) that
pulls constrained-similar pairs below a distance threshold and pushes
constrained-dissimilar pairs above one, staying close to a baseline metric
under the LogDet divergence.  Training runs as cyclic Bregman projections
with closed-form rank-one updates, in input space or entirely in kernel
space, with out-of-sample extension and an identity-plus-low-rank mode for
high-dimensional or large-n data.
"""

__version__ = "0.1.0"
