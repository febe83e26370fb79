"""Versioned plain-text model persistence.

One canonical serialization: fixed key order, floats as %.17g decimal
literals (lossless for float64), matrices row-major.  Files written from
the same model are byte-identical, which makes reproducibility checks a
straight byte comparison.

Stored and derived matrices (format version 2):

* stored: ``W`` (linear), ``X`` (training points), ``M`` (kernel mixing
  matrix), ``F`` and ``B`` (low-rank core and basis);
* derived: the input Gram matrix ``K0`` is a pure function of the stored
  points and the kernel, so it is written only when it cannot be rebuilt --
  no stored points, or a ``precomputed`` kernel.  Otherwise ``load_model``
  leaves it unbuilt: ``ModelFile.K0`` is rebuilt on first read
  (``learned_kernel.RebuiltK0``), bit for bit as training built it, and
  ``to_learned_kernel`` builds it only for as long as it takes to form a
  coefficient basis's k x k factor.  (The dense kernel-kind ``M`` is still
  n x n; a coefficient-basis ``iplr`` file is O(n (d + k)).)

Version 1 files, which always carry ``K0``, still load; their ``K0`` block
is used as written.  Saving a loaded model always writes version 2.  Both
versions carry an ``identity_coeff`` line, always ``1`` for a LogDet model;
``load_model`` rejects any other value.

``load_model`` holds ``ModelFile.X`` column-major (Fortran order), the
layout training holds it in (``datasets.load_points_csv``): BLAS sums the
kernel products in a layout-dependent order, so a model served from its
file gives the bits of the same model served in memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constraints import Constraint, Thresholds
from .errors import InvalidArgumentError
from .learned_kernel import LearnedKernelModel, RebuiltK0, rebuildable
from .linalg import KernelSpec
from .lowrank import COEFFICIENT, EXPLICIT, Basis, expand

VERSION = 2
READABLE_VERSIONS = (1, 2)

KINDS = ("linear", "kernel", "iplr")


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


@dataclass
class ModelFile:
    """Everything needed to rebuild a queryable model from disk."""

    kind: str
    kernel_spec: KernelSpec | None
    thresholds: Thresholds | None
    gamma: float
    seed: int
    converged: bool
    sweeps_used: int
    # payload (presence depends on kind)
    W: np.ndarray | None = None
    X: np.ndarray | None = None
    K0: np.ndarray | None = RebuiltK0()
    M: np.ndarray | None = None
    constraints: list[Constraint] = field(default_factory=list)
    lam: np.ndarray | None = None
    xi: np.ndarray | None = None
    basis_mode: str | None = None
    basis_matrix: np.ndarray | None = None
    F: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidArgumentError(f"unknown model kind: {self.kind!r}")

    # -- query surface ----------------------------------------------------
    def to_learned_kernel(self) -> LearnedKernelModel:
        """Rebuild the out-of-sample model (kernel and iplr kinds).

        A ``kernel`` model's learned Gram K on the training points is not
        formed here (two n^3 products); ``LearnedKernelModel.learned_K``
        derives it when a training-index query first needs it.  An unbuilt
        K0 is handed on unbuilt, for the model to rebuild if a query needs
        it.
        """
        if self.kind == "kernel":
            return LearnedKernelModel(
                kernel_spec=self.kernel_spec,
                X=self.X,
                K0=self._K0,
                M=self.M,
            )
        if self.kind == "iplr" and self.basis_mode == COEFFICIENT:
            return expand(self._basis(), self.F, self._K0, X=self.X, kernel_spec=self.kernel_spec)
        raise InvalidArgumentError(f"model kind {self.kind!r} has no kernel form")

    def to_mahalanobis(self) -> np.ndarray:
        """The d x d metric matrix (linear kind, or explicit-basis iplr)."""
        if self.kind == "linear":
            return self.W
        if self.kind == "iplr" and self.basis_mode == EXPLICIT:
            return expand(self._basis(), self.F)
        raise InvalidArgumentError(f"model kind {self.kind!r} has no explicit metric")

    def _basis(self) -> Basis:
        return Basis(self.basis_mode, self.basis_matrix, self.basis_matrix.shape[1])


def _write_matrix(lines: list[str], name: str, A: np.ndarray) -> None:
    A = np.atleast_2d(np.asarray(A, dtype=float))
    lines.append(f"matrix {name} {A.shape[0]} {A.shape[1]}")
    for row in A:
        lines.append(" ".join(_fmt(v) for v in row))


def save_model(path, mf: ModelFile) -> None:
    lines = [f"version {VERSION}", f"kind {mf.kind}"]
    if mf.kernel_spec is None:
        lines.append("kernel none")
    elif mf.kernel_spec.kind == "gaussian":
        lines.append(f"kernel gaussian {_fmt(mf.kernel_spec.sigma)}")
    else:
        lines.append(f"kernel {mf.kernel_spec.kind}")
    lines.append(f"gamma {_fmt(mf.gamma)}")
    lines.append(f"seed {mf.seed}")
    lines.append(f"converged {int(mf.converged)}")
    lines.append(f"sweeps {mf.sweeps_used}")
    # earlier trainers recorded a diagonal shift of K0 here; K0 is now
    # pseudo-inverted, so every model writes 0
    lines.append("jitter 0")
    lines.append("identity_coeff 1")
    if mf.thresholds is None:
        lines.append("thresholds none")
    else:
        lines.append(f"thresholds {_fmt(mf.thresholds.u)} {_fmt(mf.thresholds.l)}")
    if mf.constraints:
        lines.append(f"constraints {len(mf.constraints)}")
        for t, con in enumerate(mf.constraints):
            lam = 0.0 if mf.lam is None else mf.lam[t]
            xi = 0.0 if mf.xi is None else mf.xi[t]
            lines.append(f"{con.kind} {con.i} {con.j} {_fmt(lam)} {_fmt(xi)}")
    else:
        lines.append("constraints 0")
    if mf.basis_mode is not None:
        lines.append(f"basis {mf.basis_mode} {mf.basis_matrix.shape[1]}")
    skip_K0 = rebuildable(mf.X, mf.kernel_spec)
    for name in ("W", "X", "K0", "M", "F"):
        A = None if name == "K0" and skip_K0 else getattr(mf, name)
        if A is not None:
            _write_matrix(lines, name, A)
    if mf.basis_matrix is not None:
        _write_matrix(lines, "B", mf.basis_matrix)
    lines.append("end")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path) -> ModelFile:
    """Read a version 1 or 2 model file.

    Malformed content raises ``InvalidArgumentError`` naming the file and
    the 1-based line.  A missing ``K0`` is left to be rebuilt from the
    stored points and kernel on first use (see the module docstring).
    """
    try:
        with open(path) as fh:
            lines = [ln.rstrip("\n") for ln in fh]
    except UnicodeDecodeError as exc:
        raise InvalidArgumentError(f"{path}: not a text model file") from exc
    pos = 0

    def fail(message: str):
        raise InvalidArgumentError(f"{path}: line {pos}: {message}")

    def take() -> str:
        nonlocal pos
        if pos >= len(lines):
            raise InvalidArgumentError(f"{path}: truncated model file")
        line = lines[pos]
        pos += 1
        return line

    def expect(key: str) -> list[str]:
        parts = take().split()
        if not parts or parts[0] != key:
            fail(f"expected '{key}' entry, got {parts[:1]}")
        if len(parts) < 2:
            fail(f"'{key}' entry is missing a value")
        return parts[1:]

    def number(token: str, cast=float):
        try:
            return cast(token)
        except ValueError:
            fail(f"expected {'an integer' if cast is int else 'a number'}, got {token!r}")

    def build(factory, *args):
        try:
            return factory(*args)
        except InvalidArgumentError as exc:
            fail(str(exc))

    version = number(expect("version")[0], int)
    if version not in READABLE_VERSIONS:
        fail(f"unsupported model version {version}")
    kind = expect("kind")[0]
    if kind not in KINDS:
        fail(f"unknown model kind: {kind!r}")
    kparts = expect("kernel")
    if kparts[0] == "none":
        spec = None
    elif kparts[0] == "gaussian" and len(kparts) == 2:
        spec = build(KernelSpec.gaussian, number(kparts[1]))
    else:
        spec = build(KernelSpec, kparts[0])
    gamma = number(expect("gamma")[0])
    seed = number(expect("seed")[0], int)
    conv = bool(number(expect("converged")[0], int))
    sweeps = number(expect("sweeps")[0], int)
    number(expect("jitter")[0])  # parsed so a malformed entry is rejected; unused
    if number(expect("identity_coeff")[0]) != 1.0:
        fail("identity_coeff must be 1")
    tparts = expect("thresholds")
    if tparts[0] == "none":
        thresholds = None
    elif len(tparts) == 2:
        thresholds = build(Thresholds, number(tparts[0]), number(tparts[1]))
    else:
        fail("'thresholds' entry needs u and l")
    m = number(expect("constraints")[0], int)
    cons, lam, xi = [], [], []
    for _ in range(m):
        parts = take().split()
        if len(parts) != 5:
            fail("a constraint line needs: kind i j lambda xi")
        cons.append(build(Constraint, number(parts[1], int), number(parts[2], int), parts[0]))
        lam.append(number(parts[3]))
        xi.append(number(parts[4]))

    basis_mode, basis_k = None, None
    matrices: dict[str, np.ndarray] = {}
    while True:
        line = take()
        if line == "end":
            break
        parts = line.split()
        if parts[:1] == ["basis"] and len(parts) == 3:
            basis_mode, basis_k = parts[1], number(parts[2], int)
            continue
        if parts[:1] != ["matrix"] or len(parts) != 4:
            fail(f"unexpected line {line!r}")
        name, rows, cols = parts[1], number(parts[2], int), number(parts[3], int)
        if rows < 0 or cols < 0:
            fail(f"matrix {name} has a negative size")
        data = np.empty((rows, cols))
        for r in range(rows):
            vals = take().split()
            if len(vals) != cols:
                fail(f"matrix {name} row {r} has wrong width")
            try:
                data[r] = [float(v) for v in vals]
            except ValueError:
                fail(f"matrix {name} row {r} has a non-numeric entry")
        matrices[name] = data

    X = matrices.get("X")
    if X is not None:
        X = np.asfortranarray(X)  # training's layout (see the module docstring)
    K0 = matrices.get("K0")
    if K0 is None and rebuildable(X, spec) and X.shape[1] < 1:
        fail("matrix X holds no points to rebuild K0 from")
    if K0 is None and not rebuildable(X, spec) and (kind == "kernel" or basis_mode == COEFFICIENT):
        fail(f"{kind} model has no K0 block and no points and kernel to rebuild it from")
    d, n = X.shape if X is not None else (None, None if K0 is None else K0.shape[0])
    W, M, B, F = (matrices.get(name) for name in "WMBF")
    if kind == "linear" and (W is None or W.shape[0] != W.shape[1]):
        fail("a linear model needs a square matrix W")
    if kind == "kernel" and (M is None or M.shape != (n, n)):
        fail(f"a kernel model needs a {n} x {n} matrix M for its {n} points")
    if kind == "iplr":
        if basis_mode not in (EXPLICIT, COEFFICIENT):
            fail(f"an iplr model needs a 'basis {EXPLICIT}|{COEFFICIENT} k' line")
        rows = n if basis_mode == COEFFICIENT else d
        if B is None or B.shape[1] != basis_k or rows not in (None, B.shape[0]):
            fail(f"an iplr model needs a matrix B with {rows or 'd'} rows and {basis_k} columns")
        if F is None or F.shape != (basis_k, basis_k):
            fail(f"an iplr model needs a {basis_k} x {basis_k} matrix F")

    return ModelFile(
        kind=kind,
        kernel_spec=spec,
        thresholds=thresholds,
        gamma=gamma,
        seed=seed,
        converged=conv,
        sweeps_used=sweeps,
        W=W,
        X=X,
        K0=K0,
        M=M,
        constraints=cons,
        lam=np.array(lam) if cons else None,
        xi=np.array(xi) if cons else None,
        basis_mode=basis_mode,
        basis_matrix=B,
        F=F,
    )
