"""CSV ingestion for point datasets and precomputed kernels.

No header inference: the first line is data, and the final column is
treated as labels only on request.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .errors import InvalidArgumentError
from .linalg import is_psd, symmetrize

# A kernel file's largest asymmetry |K - K^T|, relative to max(1, max |K|)
SYM_TOL = 1e-8


def load_points_csv(path, label_col: str | None = None):
    """Read a numeric CSV (one row per point) into a (d, n) matrix.

    Every value must parse as a finite float; NaN, infinities, non-numeric
    values, ragged rows and bytes that are not UTF-8 text raise
    ``InvalidArgumentError`` naming the file.

    ``label_col='last'`` peels the final column off as labels (strings kept
    as-is); returns ``(X, labels_or_None)``.
    """
    if label_col not in (None, "last"):
        raise InvalidArgumentError(f"label_col must be None or 'last', got {label_col!r}")
    rows = []
    labels = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                if not row:
                    continue
                if label_col == "last":
                    *feat, lab = row
                    labels.append(lab.strip())
                else:
                    feat = row
                try:
                    values = [float(v) for v in feat]
                except ValueError as exc:
                    raise InvalidArgumentError(f"{path}: non-numeric value on row {lineno}") from exc
                # float() accepts "nan" and "inf"; no solver can use them
                if not all(map(math.isfinite, values)):
                    raise InvalidArgumentError(f"{path}: non-finite value on row {lineno}")
                rows.append(values)
    except UnicodeDecodeError as exc:
        raise InvalidArgumentError(f"{path}: not a UTF-8 text file") from exc
    if not rows:
        raise InvalidArgumentError(f"{path}: no data rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise InvalidArgumentError(f"{path}: ragged rows (widths {sorted(widths)})")
    X = np.array(rows, dtype=float).T
    return X, (np.array(labels) if label_col == "last" else None)


def load_labels_file(path):
    """One label per line; blank lines ignored."""
    try:
        with open(path, encoding="utf-8") as fh:
            labels = [line.strip() for line in fh if line.strip()]
    except UnicodeDecodeError as exc:
        raise InvalidArgumentError(f"{path}: not a UTF-8 text file") from exc
    if not labels:
        raise InvalidArgumentError(f"{path}: no labels")
    return np.array(labels)


def load_kernel_csv(path):
    """Read an n x n precomputed kernel; must be symmetric within SYM_TOL
    (relative) and PSD within the package tolerance."""
    K, _ = load_points_csv(path)
    K = K.T  # rows were read as points; a kernel file is just the full matrix
    if K.shape[0] != K.shape[1]:
        raise InvalidArgumentError(f"{path}: kernel matrix is not square: {K.shape}")
    asym = float(np.max(np.abs(K - K.T)))
    scale = max(1.0, float(np.max(np.abs(K))))
    if asym > SYM_TOL * scale:
        raise InvalidArgumentError(f"{path}: kernel matrix is not symmetric (max gap {asym:.3g})")
    K = symmetrize(K)
    if not is_psd(K):
        raise InvalidArgumentError(f"{path}: kernel matrix is not positive semidefinite")
    return K
