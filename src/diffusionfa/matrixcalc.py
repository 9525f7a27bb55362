"""Symmetric-matrix calculus: vec, vech and duplication matrices with the
column-stacking index convention.

Conventions (0-based internally, 1-based in the formulas below):

* ``vec`` stacks columns, so entry (i, j) of a p x p matrix lands at
  position p*(j-1) + i of the vector.
* ``vech`` stacks the columns of the lower triangle (including the
  diagonal): (1,1),(2,1),...,(p,1),(2,2),(3,2),...,(p,p).
* The duplication matrix D_p is the unique p^2 x p(p+1)/2 matrix of zeros
  and ones with ``vec(A) == D_p @ vech(A)`` for every symmetric A; its
  Moore-Penrose left inverse is ``pinv(D) = inv(D.T @ D) @ D.T`` and
  satisfies ``pinv(D) @ vec(A) == vech(A)``.

All functions are pure and operate on / return plain ndarrays; they are
safe to call concurrently.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def require_symmetric(a, rtol=1e-10, name="matrix"):
    """Validate that ``a`` is square and symmetric within tolerance.

    Asymmetry up to ``rtol * (1 + max|a_ij|)`` is repaired by averaging
    with the transpose (realised covariances accumulate rounding); larger
    asymmetry raises ``ValueError``.

    Returns the (symmetrized) array as float64.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    gap = np.max(np.abs(a - a.T)) if a.size else 0.0
    scale = 1.0 + (np.max(np.abs(a)) if a.size else 0.0)
    if gap > rtol * scale:
        raise ValueError(
            f"{name} is not symmetric: max|a_ij - a_ji| = {gap:.3e} "
            f"exceeds tolerance {rtol * scale:.3e}"
        )
    return (a + a.T) / 2.0


def vec(a):
    """Column-stack a matrix into a 1-d vector."""
    return np.asarray(a, dtype=float).flatten(order="F")


def unvec(v, rows, cols=None):
    """Inverse of :func:`vec` for a ``rows x cols`` matrix."""
    v = np.asarray(v, dtype=float)
    if cols is None:
        cols = v.size // rows
    return v.reshape((rows, cols), order="F")


@lru_cache(maxsize=None)
def vech_indices(p):
    """Cached read-only (rows, cols) of the lower triangle in vech order."""
    cols, rows = np.triu_indices(p)  # upper triangle row-major == lower col-major
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def vech(a, check=True):
    """Half-vectorize a symmetric matrix (lower triangle, column-stacked).

    With ``check=True`` the input is validated/symmetrized via
    :func:`require_symmetric`.
    """
    a = require_symmetric(a) if check else np.asarray(a, dtype=float)
    rows, cols = vech_indices(a.shape[0])
    return a[rows, cols]


def unvech(v):
    """Rebuild the symmetric matrix whose vech is ``v``."""
    v = np.asarray(v, dtype=float)
    p = int(round((np.sqrt(8 * v.size + 1) - 1) / 2))
    if p * (p + 1) // 2 != v.size:
        raise ValueError(f"length {v.size} is not a triangular number")
    a = np.zeros((p, p))
    rows, cols = vech_indices(p)
    a[rows, cols] = v
    a[cols, rows] = v
    return a


@lru_cache(maxsize=None)
def duplication(p):
    """The p^2 x p(p+1)/2 duplication matrix D_p (dense, cached, read-only)."""
    if p < 1:
        raise ValueError("dimension must be >= 1")
    rows, cols = vech_indices(p)
    d = np.zeros((p * p, rows.size))
    # vech position m of (i, j), i >= j, feeds vec positions p*j + i and p*i + j
    d[[p * cols + rows, p * rows + cols], np.arange(rows.size)] = 1.0
    d.setflags(write=False)
    return d


@lru_cache(maxsize=None)
def duplication_pinv(p):
    """Moore-Penrose left inverse inv(D.T D) @ D.T of D_p (cached, read-only):
    D.T D is diagonal with D's column sums (1 or 2), so rows of D.T / sums."""
    d = duplication(p)
    pinv = d.T / d.sum(axis=0)[:, None]
    pinv.setflags(write=False)
    return pinv
