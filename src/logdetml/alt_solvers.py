"""Kernelized solvers for two further matrix losses.

Both solve, in kernel space, a metric-learning program with general linear
constraints tr(W X C_i X^T) <= b_i:

* von Neumann divergence D_vN(W, I): minimized through its dual
  F(lambda) = tr(exp(-C(lambda) K0)) + sum_i lambda_i b_i over lambda >= 0,
  with C(lambda) = sum_i lambda_i C_i.  The primal kernel is recovered as
  K = K0^(1/2) exp(-K0^(1/2) C(lambda) K0^(1/2)) K0^(1/2).

* squared Frobenius distance to eta*I: reduces to
  min tr(K0 S K0 S)  s.t.  tr(eta C_i K0 + C_i K0 S K0) <= b_i,
  S >= -eta K0^(-1), solved by projected subgradient steps with a spectral
  projection onto the shifted-PSD cone.  The learned metric is
  W = eta I + X S X^T.

Every trace of a matrix exponential goes through the symmetric similarity
B = K0^(1/2) C K0^(1/2): tr(exp(-C K0)) = tr(exp(-B)).

These solvers use dense eigendecompositions per iteration and target small
and medium problems; the large-scale path is the LogDet solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import SIMILAR, ConstraintSet
from .errors import InfeasibleError, InvalidArgumentError, NumericalError
from .linalg import inv_sqrt, sqrt_psd, symmetrize

DIVERGENCE_STREAK = 20


@dataclass(frozen=True)
class GeneralConstraint:
    """One linear constraint tr(W X C X^T) <= b on the learned metric."""

    C: np.ndarray
    b: float


def constraints_to_general(cs: ConstraintSet, n: int) -> list[GeneralConstraint]:
    """Translate pairwise distance constraints into the generic trace form.

    A similar pair (i, j) with threshold t gives C = (e_i - e_j)(e_i - e_j)^T
    and b = t; a dissimilar pair flips the sign of both.
    """
    cs.validate_indices(n)
    xi0 = cs.initial_slacks()
    out = []
    for c, con in enumerate(cs.constraints):
        C = np.zeros((n, n))
        C[con.i, con.i] = C[con.j, con.j] = 1.0
        C[con.i, con.j] = C[con.j, con.i] = -1.0
        if con.kind == SIMILAR:
            out.append(GeneralConstraint(C, float(xi0[c])))
        else:
            out.append(GeneralConstraint(-C, -float(xi0[c])))
    return out


def constraint_excess(K: np.ndarray, cons: list[GeneralConstraint]) -> np.ndarray:
    """tr(C_i K) - b_i for each constraint, with K = X^T W X the learned
    kernel: positive where K violates the constraint."""
    return np.array([float(np.sum(con.C * K)) - con.b for con in cons])


def _weighted_sum(cons: list[GeneralConstraint], lam: np.ndarray, n: int) -> np.ndarray:
    C = np.zeros((n, n))
    for li, con in zip(lam, cons):
        if li != 0.0:
            C += li * con.C
    return C


def vn_dual_objective(K0: np.ndarray, cons: list[GeneralConstraint], lam) -> float:
    """Dual objective tr(exp(-C(lambda) K0)) + b(lambda)."""
    K0 = np.asarray(K0, dtype=float)
    lam = np.asarray(lam, dtype=float)
    n = K0.shape[0]
    S = sqrt_psd(K0)
    B = symmetrize(S @ _weighted_sum(cons, lam, n) @ S)
    w = np.linalg.eigvalsh(B)
    bterm = float(sum(li * con.b for li, con in zip(lam, cons)))
    return float(np.sum(np.exp(-w))) + bterm


def vn_dual_gradient(K0: np.ndarray, cons: list[GeneralConstraint], lam) -> np.ndarray:
    """Gradient of the dual objective.

    Component i is b_i - tr(exp(-B) B_i) with B_i = K0^(1/2) C_i K0^(1/2);
    the trace term enters negatively (d/dt tr(exp(A + tB)) = tr(exp(A) B)
    applied at A = -B(lambda)), which the finite-difference check in the test
    suite pins down.
    """
    K0 = np.asarray(K0, dtype=float)
    lam = np.asarray(lam, dtype=float)
    n = K0.shape[0]
    S = sqrt_psd(K0)
    B = symmetrize(S @ _weighted_sum(cons, lam, n) @ S)
    w, V = np.linalg.eigh(B)
    E = (V * np.exp(-w)) @ V.T
    grad = np.empty(len(cons))
    for t, con in enumerate(cons):
        Bi = S @ con.C @ S
        grad[t] = con.b - float(np.sum(E * Bi))
    return grad


def fit_vn_kernel(K0: np.ndarray, cons: list[GeneralConstraint],
                  max_iters: int = 500, step0: float = 1.0, tol: float = 1e-10):
    """Minimize the von Neumann dual by projected gradient descent with a
    backtracking line search (halving from step0, accepting on decrease).

    Returns (lambda, K) with K = K0^(1/2) exp(-B(lambda)) K0^(1/2), which is
    symmetric positive definite by construction.
    """
    K0 = symmetrize(np.asarray(K0, dtype=float))
    n = K0.shape[0]
    m = len(cons)
    if m == 0:
        return np.zeros(0), K0.copy()
    S = sqrt_psd(K0)
    Bis = [symmetrize(S @ con.C @ S) for con in cons]
    bs = np.array([con.b for con in cons])

    def objective(lam):
        B = np.zeros((n, n))
        for li, Bi in zip(lam, Bis):
            B += li * Bi
        w = np.linalg.eigvalsh(symmetrize(B))
        return float(np.sum(np.exp(-w))) + float(lam @ bs)

    def gradient(lam):
        B = np.zeros((n, n))
        for li, Bi in zip(lam, Bis):
            B += li * Bi
        w, V = np.linalg.eigh(symmetrize(B))
        E = (V * np.exp(-w)) @ V.T
        return bs - np.array([np.sum(E * Bi) for Bi in Bis])

    lam = np.zeros(m)
    f = objective(lam)
    worse_streak = 0
    for _ in range(max_iters):
        g = gradient(lam)
        step = step0
        accepted = None
        for _ in range(60):
            cand = np.maximum(0.0, lam - step * g)
            fc = objective(cand)
            if fc < f - 1e-14 * abs(f):
                accepted = (cand, fc)
                break
            step *= 0.5
        if accepted is None:
            break  # stationary within line-search resolution
        cand, fc = accepted
        worse_streak = worse_streak + 1 if fc > f else 0
        if worse_streak >= DIVERGENCE_STREAK:
            raise NumericalError(
                f"dual objective increased {DIVERGENCE_STREAK} accepted steps in a row "
                f"(last values {f:.6g} -> {fc:.6g})"
            )
        moved = np.max(np.abs(cand - lam))
        lam, f = cand, fc
        if moved <= tol * (1.0 + np.max(np.abs(lam))):
            break
    B = np.zeros((n, n))
    for li, Bi in zip(lam, Bis):
        B += li * Bi
    w, V = np.linalg.eigh(symmetrize(B))
    K = symmetrize(S @ ((V * np.exp(-w)) @ V.T) @ S)
    return lam, K


def project_shifted_psd(S: np.ndarray, sqrtK0: np.ndarray, inv_sqrtK0: np.ndarray,
                        eta: float) -> np.ndarray:
    """Spectral projection onto {S : S >= -eta K0^(-1)}.

    Clamps the eigenvalues of K0^(1/2) S K0^(1/2) + eta I at zero; feasible
    inputs are returned unchanged.
    """
    T = symmetrize(sqrtK0 @ S @ sqrtK0) + eta * np.eye(S.shape[0])
    w, V = np.linalg.eigh(T)
    if w[0] >= 0:
        return S
    Tc = (V * np.clip(w, 0.0, None)) @ V.T
    return symmetrize(inv_sqrtK0 @ (Tc - eta * np.eye(S.shape[0])) @ inv_sqrtK0)


def fit_frob_kernel(K0: np.ndarray, cons: list[GeneralConstraint], eta: float = 1.0,
                    max_iters: int = 5000, feas_tol: float = 1e-8,
                    stall_rounds: int = 1000) -> np.ndarray:
    """Squared-Frobenius kernelized program via projected subgradient.

    While any constraint is violated, steps along the violated constraint's
    subgradient K0 C_i K0 (sized to land on its hyperplane); otherwise takes
    an exact line-search step along the objective gradient 2 K0 S K0.  Every
    step is followed by the spectral projection onto {S >= -eta K0^(-1)}.
    Returns the best feasible iterate.  If the violation stops improving for
    ``stall_rounds`` iterations without ever reaching feasibility, the
    instance is reported infeasible.
    """
    K0 = symmetrize(np.asarray(K0, dtype=float))
    if eta < 0:
        raise InvalidArgumentError("eta must be nonnegative")
    n = K0.shape[0]
    sqrtK0 = sqrt_psd(K0)
    inv_sqrtK0 = inv_sqrt(K0, jitter=0.0)
    S = np.zeros((n, n))
    if not cons:
        return S
    offsets = np.array([eta * float(np.sum(con.C * K0)) for con in cons])
    bs = np.array([con.b for con in cons])

    def violations(S):
        P = K0 @ S @ K0
        vals = np.array([float(np.sum(con.C * P)) for con in cons])
        return vals + offsets - bs

    def objective(S):
        return float(np.sum((K0 @ S @ K0) * S))

    best_S = None
    best_obj = np.inf
    best_violation = np.inf
    stall = 0
    for _ in range(max_iters):
        v = violations(S)
        worst = float(np.max(v))
        if worst <= best_violation - 1e-12:
            best_violation = worst
            stall = 0
        else:
            stall += 1
        if worst > feas_tol:
            if stall > stall_rounds and best_S is None:
                raise InfeasibleError(
                    f"constraint violation stopped improving at {best_violation:.3g}"
                )
            i = int(np.argmax(v))
            G = symmetrize(K0 @ cons[i].C @ K0)
            gnorm2 = float(np.sum(G * G))
            if gnorm2 <= 0:
                raise InfeasibleError(f"constraint {i} has zero gradient but is violated")
            S = S - (v[i] / gnorm2) * G
        else:
            obj = objective(S)
            if obj < best_obj:
                best_obj, best_S = obj, S.copy()
            G = 2.0 * symmetrize(K0 @ S @ K0)
            Q = K0 @ G @ K0
            denom = float(np.sum(Q * G))
            if denom <= 1e-300:
                break  # gradient vanished: unconstrained optimum reached
            t = float(np.sum(Q * S)) / denom
            if abs(t) * np.max(np.abs(G)) <= 1e-15 * (1.0 + np.max(np.abs(S))):
                break
            S = S - t * G
        S = project_shifted_psd(S, sqrtK0, inv_sqrtK0, eta)
    v = violations(S)
    if np.max(v) <= feas_tol and objective(S) < best_obj:
        best_obj, best_S = objective(S), S.copy()
    if best_S is None:
        raise InfeasibleError("no feasible iterate found")
    return best_S
