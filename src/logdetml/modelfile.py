"""Versioned plain-text model persistence.

One canonical serialization: fixed key order, floats as %.17g decimal
literals (lossless for float64), matrices row-major, written a block of rows
per % and parsed with one ``np.loadtxt`` per matrix, byte for byte and bit
for bit as one value at a time.  Files written from the same model are
byte-identical, which makes reproducibility checks a straight byte comparison.

Format version 3, in file order:

* header: ``version``, ``kind``, ``kernel``, the ``SCALARS``,
  ``stop_reason`` (``rule`` or ``cap``, implied by ``converged``), the
  ``FACTS`` ``train`` logs about how the fit ended (each when known),
  ``identity_coeff``, ``thresholds``, ``constraints 0`` and, for a basis,
  ``basis MODE k``;
* the ``BLOCKS`` that are set, in table order.  A block's row i is written
  from column 0, as ``matrix NAME rows cols``, or from column i, as
  ``symmetric NAME n``: a symmetric block holds its upper triangle, and
  ``load_model`` mirrors it; ``save_model`` refuses one that is not exactly
  symmetric.

A file holds only what serving reads, whatever its kind:

* linear: W;
* kernel: X, every training point; S, the support C that M is on, as the
  ascending indices of its points in X, written only when C is not all of
  them (a ``matrix S 1 |C|`` block, one row of integers); and M, |C| x |C|
  (n x n with no S);
* explicit basis: U (block ``B``) and F, for W = I + U (F - I) U^T;
* coefficient basis: X, J (block ``B``), T = (J^T K0 J)^(-1/2) and F,
  so serving builds no Gram.

No file holds the training constraints or their duals.  A ``precomputed``
kernel's points are its indices (``linalg.index_points``): its file holds
the kernel's table as it is, block ``K0``, in place of X, and
``load_model`` reads that block back as the table over ``index_points(n)``.  A
model serves every query, training indices included, from kernel
evaluations.  A file written before this rule may hold more: ``load_model``
checks its constraint lines and drops them, and ``ModelFile.__post_init__``
drops the blocks serving does not read.

Versions 1 and 2 still load.  They write every matrix in full, record a
``jitter`` line in place of the fit facts, and store no T: a coefficient
basis's T is derived once, when the ``ModelFile`` is made, from K0 built only
for as long as that takes (``training_gram``).  Version 1 files always carry
``K0``.  Saving a loaded model always writes version 3.  Every version
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
from dataclasses import dataclass

import numpy as np

from .constraints import Constraint, Thresholds
from .errors import InvalidArgumentError
from .learned_kernel import LearnedKernelModel
from .linalg import KernelSpec, gram, index_points
from .lowrank import COEFFICIENT, EXPLICIT, Basis, coefficient_T, expand

VERSION = 3
READABLE_VERSIONS = (1, 2, 3)

KINDS = ("linear", "kernel", "iplr")
BLOCK_VALUES = 8192  # matrix entries written per % formatting (bounds its temporaries)
# header entries after 'kernel': (key, ModelFile field, type); a bool is written 0 or 1
SCALARS = (("gamma", "gamma", float), ("seed", "seed", int), ("converged", "converged", bool),
           ("sweeps", "sweeps_used", int))
# what train logs about a fit, written after 'stop_reason' when known (version 3)
FACTS = (("distance_change", float), ("max_violation", float), ("dropped_rank", int),
         ("dropped", int))
# payload blocks: (name in the file, ModelFile field, written as its upper triangle)
BLOCKS = (("W", "W", True), ("X", "X", False), ("S", "support", False), ("K0", "K0", True),
          ("M", "M", True), ("F", "F", True), ("T", "T", True), ("B", "basis_matrix", False))


def training_gram(X: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """The input Gram K0 of stored training points, bit for bit as training
    built it.

    Training builds K0 from the column-major (Fortran-order) X that
    ``datasets.load_points_csv`` returns, and ``load_model`` reads X back
    in that layout.  BLAS sums ``X.T @ X`` in a layout-dependent order, so
    X in any other layout (points built in memory) is copied to Fortran
    order first.
    """
    return gram(np.asfortranarray(X), spec)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _entry(key: str, value, cast) -> str:
    return f"{key} {_fmt(value) if cast is float else int(value)}"


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
    support: np.ndarray | None = None  # kernel: the indices of X that M is on; None: all
    K0: np.ndarray | None = None  # an older file's Gram, read only to derive T
    M: np.ndarray | None = None
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
            K0 = self.K0 if self.K0 is not None else training_gram(self.X, self.kernel_spec)
            self.T = coefficient_T(self.basis_matrix, self.basis_matrix.T @ K0)
        self.K0 = None  # serving reads the points, not their Gram
        if self.basis_mode == EXPLICIT:
            self.X = None  # serving reads U and F, not the points

    @property
    def stop_reason(self) -> str:
        """``rule`` when the stopping rule ended the fit, ``cap`` when the sweep cap did."""
        return "rule" if self.converged else "cap"

    # -- query surface ----------------------------------------------------
    def to_learned_kernel(self) -> LearnedKernelModel:
        """Rebuild the out-of-sample model (kernel and iplr kinds); no Gram
        is built."""
        if self.kind == "kernel":
            X = self.X if self.support is None else np.asfortranarray(self.X[:, self.support])
            return LearnedKernelModel(self.kernel_spec, X, self.M)
        if self.kind == "iplr" and self.basis_mode == COEFFICIENT:
            return expand(self._basis(), self.F, self.X, self.kernel_spec)
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


def _write_block(write, name: str, A: np.ndarray, symmetric: bool) -> None:
    """Line i of the block holds row i of A from column i on for a symmetric
    block (its upper triangle), from column 0 on for a matrix; one % formats
    as many whole rows as fit in BLOCK_VALUES values, and at least one."""
    rows, cols = A.shape
    write(f"symmetric {name} {rows}\n" if symmetric else f"matrix {name} {rows} {cols}\n")
    first = range(rows) if symmetric else [0] * rows  # each row's first column
    full = " ".join(["%.17g"] * cols)  # a row's format is its tail from its first column on
    a = 0
    while a < rows:
        b = min(rows, a + max(1, BLOCK_VALUES // max(cols - first[a], 1)))
        values = np.concatenate([A[i, first[i]:] for i in range(a, b)]).tolist()
        write("\n".join([full[6 * first[i]:] for i in range(a, b)]) % tuple(values) + "\n")
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
    lines += [_entry(key, getattr(mf, name), cast) for key, name, cast in SCALARS]
    lines.append(f"stop_reason {mf.stop_reason}")
    lines += [_entry(key, getattr(mf, key), cast) for key, cast in FACTS
              if getattr(mf, key) is not None]
    lines.append("identity_coeff 1")
    if mf.thresholds is None:
        lines.append("thresholds none")
    else:
        lines.append(f"thresholds {_fmt(mf.thresholds.u)} {_fmt(mf.thresholds.l)}")
    lines.append("constraints 0")
    if mf.basis_mode is not None:
        lines.append(f"basis {mf.basis_mode} {mf.basis_matrix.shape[1]}")
    payload = {key: getattr(mf, key) for _, key, _ in BLOCKS}
    spec = mf.kernel_spec
    if spec is not None and spec.kind == "precomputed":
        # the points are indices: the file holds their Gram, for all of them the
        # kernel's table as it is held (``gram``)
        payload["X"], payload["K0"] = None, gram(mf.X, spec)
    blocks = [(name, np.atleast_2d(np.asarray(payload[key], dtype=float)), symmetric)
              for name, key, symmetric in BLOCKS if payload[key] is not None]
    for name, A, symmetric in blocks:
        # bit patterns, so that -0.0 and 0.0 differ: the file keeps one of each pair
        if symmetric and (A.shape[0] != A.shape[1] or
                          not np.array_equal(A.view(np.int64), A.T.view(np.int64))):
            raise InvalidArgumentError(f"matrix {name} is not exactly symmetric")
    with open(path, "w", newline="\n") as fh:
        fh.writelines(line + "\n" for line in lines)
        for name, A, symmetric in blocks:
            _write_block(fh.write, name, A, symmetric)
        fh.write("end\n")


def load_model(path) -> ModelFile:
    """Read a version 1, 2 or 3 model file.

    Malformed content raises ``InvalidArgumentError`` naming the file and
    the 1-based line.
    """
    try:
        with open(path) as fh:
            lines = [ln.rstrip("\n") for ln in fh]
    except UnicodeDecodeError as exc:
        raise InvalidArgumentError(f"{path}: not a text model file") from exc
    pos = 0

    def fail(message: str, line: int | None = None):
        raise InvalidArgumentError(f"{path}: line {pos if line is None else line}: {message}")

    def take() -> str:
        nonlocal pos
        if pos >= len(lines):
            pos = len(lines) + 1
            fail("truncated model file")
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
        if cast is bool:
            return bool(number(token, int))
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
    scalars = {name: number(expect(key)[0], cast) for key, name, cast in SCALARS}
    facts = {}
    if version < 3:
        number(expect("jitter")[0])  # parsed so a malformed entry is rejected; unused
    else:
        if expect("stop_reason")[0] != ("rule" if scalars["converged"] else "cap"):
            fail(f"stop_reason disagrees with converged {int(scalars['converged'])}")
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
    for _ in range(number(expect("constraints")[0], int)):  # checked, then dropped
        parts = take().split()
        if len(parts) != 5:
            fail("a constraint line needs: kind i j lambda xi")
        build(Constraint, number(parts[1], int), number(parts[2], int), parts[0])
        number(parts[3]), number(parts[4])

    basis_mode, basis_k = None, None
    matrices: dict[str, np.ndarray] = {}
    support_line = None  # the 1-based line of the S block's row
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
        if name == "S":
            support_line = pos + 1
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

    payload = {key: matrices.get(name) for name, key, _ in BLOCKS}
    if payload["X"] is not None:  # training's layout (see the module docstring)
        payload["X"] = np.asfortranarray(payload["X"])
    if spec is not None and spec.kind == "precomputed":
        if payload["K0"] is None:
            fail(f"{kind} model has no K0 block to hold its precomputed kernel")
        spec = KernelSpec.precomputed(payload["K0"])
        payload["X"], payload["K0"] = index_points(len(spec.table)), None
    X = payload["X"]
    if (kind == "kernel" or basis_mode == COEFFICIENT) and (X is None or spec is None or
                                                            X.shape[1] < 1):
        fail(f"{kind} model has no points to serve from: no X block with a kernel, "
             "and no K0 block of a precomputed kernel")
    d, n = X.shape if X is not None else (None, None)
    W, M, B, F, T, S = (matrices.get(name) for name in "WMBFTS")
    if kind == "linear" and (W is None or W.shape[0] != W.shape[1]):
        fail("a linear model needs a square matrix W")
    payload["support"] = None
    if kind == "kernel" and S is not None:
        if S.shape[0] != 1 or S.shape[1] < 1:
            fail("matrix S must list the points of the support in one row", support_line - 1)
        C = S[0]
        if not np.all(C == np.trunc(C)):
            fail("matrix S has a non-integer entry", support_line)
        if C.min() < 0 or C.max() >= n:
            fail(f"matrix S names a point out of range for the {n} points", support_line)
        if np.any(C[1:] <= C[:-1]):
            fail("matrix S repeats an index or is out of order", support_line)
        payload["support"] = C.astype(np.intp)
    size = n if payload["support"] is None else payload["support"].size
    if kind == "kernel" and (M is None or M.shape != (size, size)):
        fail(f"a kernel model needs a {size} x {size} matrix M for the {size} points of its "
             "support")
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

    return ModelFile(kind=kind, kernel_spec=spec, thresholds=thresholds, basis_mode=basis_mode,
                     **scalars, **facts, **payload)


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
