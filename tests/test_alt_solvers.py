import numpy as np
import pytest

from logdetml.alt_solvers import (
    constraint_excess,
    constraints_to_general,
    vn_dual_gradient,
    vn_dual_objective,
)
from logdetml.constraints import DISSIMILAR, SIMILAR, Constraint, ConstraintSet, Thresholds
from logdetml.linalg import KernelSpec, gram


def test_vn_dual_gradient_matches_central_differences():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((3, 7))
    K0 = gram(X, KernelSpec.gaussian(1.5))
    cs = ConstraintSet([Constraint(0, 1, SIMILAR), Constraint(2, 5, DISSIMILAR),
                        Constraint(3, 6, SIMILAR)], Thresholds(0.4, 1.2))
    cons = constraints_to_general(cs, 7)
    lam = np.array([0.3, 0.7, 0.2])
    h = 1e-6
    fd = np.empty(3)
    for t in range(3):
        e = np.zeros(3)
        e[t] = h
        fd[t] = (vn_dual_objective(K0, cons, lam + e) - vn_dual_objective(K0, cons, lam - e)) / (2 * h)
    grad = vn_dual_gradient(K0, cons, lam)
    assert np.max(np.abs(grad - fd)) <= 1e-6 * np.max(np.abs(grad))


def test_constraint_excess_is_signed_distance_past_the_threshold():
    K = np.diag([1.0, 2.0, 3.0, 4.0])
    cs = ConstraintSet([Constraint(0, 1, SIMILAR), Constraint(2, 3, DISSIMILAR)],
                       Thresholds(2.5, 8.0))
    excess = constraint_excess(K, constraints_to_general(cs, 4))
    # d(0, 1) = 3 against u = 2.5; d(2, 3) = 7 against l = 8
    assert excess == pytest.approx([0.5, 1.0], abs=1e-15)
