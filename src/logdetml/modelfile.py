"""Versioned plain-text model persistence.

One canonical serialization: fixed key order, floats as %.17g decimal
literals (lossless for float64), matrices row-major, written a block of rows
per % and parsed with one ``np.loadtxt`` per matrix, byte for byte and bit
for bit as one value at a time.  Files written from the same model are
byte-identical, which makes reproducibility checks a straight byte comparison.

Format version 3:

* header: what the fit was (kind, kernel, gamma, seed, thresholds,
  constraints with their duals) and what ``train`` logs about how it ended:
  ``converged``, ``sweeps``, ``stop_reason`` (``rule`` or ``cap``, implied
  by ``converged``) and, when known, the last sweep's ``distance_change``,
  ``max_violation`` and ``dropped_rank`` (dense kernel) or ``dropped``
  (basis; its k is on the ``basis`` line);
* symmetric blocks: ``W`` (linear), ``K0``, ``M`` (kernel mixing matrix),
  ``F`` (low-rank core) and ``T`` are exactly symmetric by construction and
  written once, as ``symmetric NAME n`` and row i holding entries i..n-1;
  ``load_model`` mirrors them.  ``save_model`` refuses one that is not
  exactly symmetric;
* full blocks (``matrix NAME rows cols``): ``X`` (training points) and ``B``
  (the basis, U or J);
* T = (J^T K0 J)^(-1/2), the k x k factor of a coefficient basis J, is
  stored beside J, so serving builds no Gram;
* the input Gram ``K0`` is a pure function of the stored points and the
  kernel, so it is written only when it cannot be rebuilt -- no stored
  points, or a ``precomputed`` kernel.  Otherwise ``load_model`` leaves it
  unbuilt: ``ModelFile.K0`` is rebuilt on first read
  (``learned_kernel.RebuiltK0``), bit for bit as training built it, which
  only training-index queries do.

Versions 1 and 2 still load.  They write every matrix in full, record a
``jitter`` line in place of the fit facts, and store no T: a coefficient
basis's T is derived once, when the ``ModelFile`` is made, from K0 built only
for as long as that takes.  Version 1 files always carry ``K0``, used as
written.  Saving a loaded model always writes version 3.  Every version
carries an ``identity_coeff`` line, always ``1`` for a LogDet model;
``load_model`` rejects any other value.

``load_model`` holds ``ModelFile.X`` column-major (Fortran order), the
layout training holds it in (``datasets.load_points_csv``): BLAS sums the
kernel products in a layout-dependent order, so a model served from its
file gives the bits of the same model served in memory.
"""

from __future__ import annotations

import contextlib
import warnings
from dataclasses import dataclass, field

import numpy as np

from .constraints import Constraint, Thresholds
from .errors import InvalidArgumentError
from .learned_kernel import LearnedKernelModel, RebuiltK0, rebuildable, training_gram
from .linalg import KernelSpec
from .lowrank import COEFFICIENT, EXPLICIT, Basis, coefficient_T, expand

VERSION = 3
READABLE_VERSIONS = (1, 2, 3)

KINDS = ("linear", "kernel", "iplr")
BLOCK_VALUES = 8192  # matrix entries written per % formatting (bounds its temporaries)
SYMMETRIC = ("W", "K0", "M", "F", "T")  # written as their upper triangle
# what train logs about a fit, written after 'stop_reason' when known (version 3)
FACTS = (("distance_change", float), ("max_violation", float), ("dropped_rank", int),
         ("dropped", int))


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
    T: np.ndarray | None = None  # coefficient basis: (J^T K0 J)^(-1/2)
    # what train logged about the fit; None when unknown (a version 1 or 2 file)
    distance_change: float | None = None
    max_violation: float | None = None
    dropped_rank: int | None = None
    dropped: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidArgumentError(f"unknown model kind: {self.kind!r}")
        if self.basis_mode == COEFFICIENT and self.T is None:
            # a version 1 or 2 file: derive T once, from a K0 kept only for that
            K0 = self._K0 if self._K0 is not None else training_gram(self.X, self.kernel_spec)
            self.T = coefficient_T(self.basis_matrix, self.basis_matrix.T @ K0)

    @property
    def stop_reason(self) -> str:
        """``rule`` when the stopping rule ended the fit, ``cap`` when the sweep cap did."""
        return "rule" if self.converged else "cap"

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
        return Basis(self.basis_mode, self.basis_matrix, self.basis_matrix.shape[1], T=self.T)


def _write_matrix(write, name: str, A: np.ndarray) -> None:
    write(f"matrix {name} {A.shape[0]} {A.shape[1]}\n")
    row, step = " ".join(["%.17g"] * A.shape[1]), max(1, BLOCK_VALUES // max(A.shape[1], 1))
    for block in (A[a:a + step] for a in range(0, A.shape[0], step)):
        write("\n".join([row] * len(block)) % tuple(block.ravel().tolist()) + "\n")


def _write_symmetric(write, name: str, A: np.ndarray) -> None:
    """Row i of A's upper triangle, entries i..n-1, on line i of the block."""
    n = A.shape[0]
    write(f"symmetric {name} {n}\n")
    full = " ".join(["%.17g"] * n)  # row i's format is its tail from entry i on
    a = 0
    while a < n:
        b = min(n, a + max(1, BLOCK_VALUES // (n - a)))
        values = np.concatenate([A[i, i:] for i in range(a, b)]).tolist()
        write("\n".join([full[6 * i:] for i in range(a, b)]) % tuple(values) + "\n")
        a = b


def save_model(path, mf: ModelFile) -> None:
    """Write ``mf`` as a version 3 file.  Every symmetric block is checked
    before the file is opened, so a refused save leaves nothing at ``path``;
    each block is then written as soon as it is formatted."""
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
    lines.append(f"stop_reason {mf.stop_reason}")
    for key, cast in FACTS:
        value = getattr(mf, key)
        if value is not None:
            lines.append(f"{key} {_fmt(value) if cast is float else int(value)}")
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
    K0 = None if rebuildable(mf.X, mf.kernel_spec) else mf.K0
    matrices = {"W": mf.W, "X": mf.X, "K0": K0, "M": mf.M, "F": mf.F, "T": mf.T,
                "B": mf.basis_matrix}
    blocks = {name: np.atleast_2d(np.asarray(A, dtype=float))
              for name, A in matrices.items() if A is not None}
    for name, A in blocks.items():
        # bit patterns, so that -0.0 and 0.0 differ: the file keeps one of each pair
        if name in SYMMETRIC and (A.shape[0] != A.shape[1] or
                                  not np.array_equal(A.view(np.int64), A.T.view(np.int64))):
            raise InvalidArgumentError(f"matrix {name} is not exactly symmetric")
    with open(path, "w", newline="\n") as fh:
        fh.writelines(line + "\n" for line in lines)
        for name, A in blocks.items():
            (_write_symmetric if name in SYMMETRIC else _write_matrix)(fh.write, name, A)
        fh.write("end\n")


def load_model(path) -> ModelFile:
    """Read a version 1, 2 or 3 model file.

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
    facts = {}
    if version < 3:
        number(expect("jitter")[0])  # parsed so a malformed entry is rejected; unused
    else:
        if expect("stop_reason")[0] != ("rule" if conv else "cap"):
            fail(f"stop_reason disagrees with converged {int(conv)}")
        for key, cast in FACTS:
            if lines[pos:pos + 1] and lines[pos].startswith(f"{key} "):
                facts[key] = number(expect(key)[0], cast)
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
        if parts[:1] == ["matrix"] and len(parts) == 4:
            name, rows, cols = parts[1], number(parts[2], int), number(parts[3], int)
        elif parts[:1] == ["symmetric"] and len(parts) == 3:
            name, rows = parts[1], number(parts[2], int)
            cols = rows
        else:
            fail(f"unexpected line {line!r}")
        if rows < 0 or cols < 0:
            fail(f"{parts[0]} {name} has a negative size")
        block = lines[pos:pos + rows]
        data = None
        with warnings.catch_warnings(), contextlib.suppress(ValueError, Warning):
            warnings.simplefilter("error")  # loadtxt only warns on a block with no data
            if parts[0] == "matrix" and rows and cols:
                data = np.loadtxt(block, dtype=float, comments=None, ndmin=2)
            elif parts[0] == "symmetric" and rows and \
                    [len(row.split()) for row in block] == list(range(rows, 0, -1)):
                # the triangle's rows joined into one, parsed in one call and mirrored
                data = _mirror(np.loadtxt([" ".join(block)], dtype=float, comments=None,
                                          ndmin=1), rows)
        if data is not None and data.shape == (rows, cols):
            pos += rows
        else:  # row by row, to name the row that failed
            data = np.empty((rows, cols))
            for r in range(rows):
                width = cols if parts[0] == "matrix" else rows - r
                vals = take().split()
                if len(vals) != width:
                    fail(f"{parts[0]} {name} row {r} has wrong width")
                try:
                    data[r, cols - width:] = [float(v) for v in vals]
                except ValueError:
                    fail(f"{parts[0]} {name} row {r} has a non-numeric entry")
            if parts[0] == "symmetric":
                data = _mirror(data[np.triu_indices(rows)], rows)
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
    W, M, B, F, T = (matrices.get(name) for name in "WMBFT")
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
        if basis_mode == COEFFICIENT and version >= 3 and (T is None or T.shape != F.shape):
            fail(f"a coefficient-basis model needs a {basis_k} x {basis_k} matrix T")

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
        T=T,
        **facts,
    )


def _mirror(upper: np.ndarray, n: int) -> np.ndarray:
    """The symmetric n x n matrix whose upper triangle, row by row, is ``upper``."""
    if upper.size != n * (n + 1) // 2:
        raise ValueError(f"{upper.size} entries for an {n} x {n} triangle")
    A = np.empty((n, n))
    a = 0
    for i in range(n):
        A[i, i:] = A[i:, i] = upper[a:a + n - i]
        a += n - i
    return A
