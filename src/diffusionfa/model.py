"""Latent-factor covariance structure for a p-dimensional diffusion.

The observed process decomposes as X = Lambda f + e with loading matrix
Lambda = (I_k, A)^T, factor covariance Sigma_ff (k x k, per unit time) and
independent unique variances sigma_i^2.  The implied increment covariance is

    Sigma(theta) = Lambda Sigma_ff Lambda^T + Diag(sigma_1^2, ..., sigma_p^2)

with the free parameters packed as theta = (vec A, vech Sigma_ff,
sigma_1^2, ..., sigma_p^2) of length q = (p-k)k + k(k+1)/2 + p.  Every
first derivative of Sigma is rank 2,

    dSigma/dtheta_i = w_i (u_i v_i^T + v_i u_i^T),

and :func:`sigma_derivative_factors`, whose constant columns are built once
per (p, k), is the one description of them: the Jacobian Delta of vech
Sigma(theta) and the Hessian of the contrast are both built from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .matrixcalc import (
    require_symmetric,
    unvec,
    unvech,
    vec,
    vech,
    vech_indices,
)


class UntestableError(ValueError):
    """The factor count has more parameters than moments, or df < 1."""


class StartError(ValueError):
    """A fit's start is unusable: it has another length than the box, lies
    outside the box, gives a Sigma(theta) that is not positive definite, or
    a contrast that is not finite."""


class WeightMatrixError(ValueError):
    """The vech-scale weight matrix is not positive definite.

    Signals an invalid parameter point (e.g. a unique variance driven to
    zero), not numerical noise; callers may backtrack instead of
    regularizing.
    """


@dataclass(frozen=True)
class ModelSpec:
    """Dimensions and sampling scheme of a factor-model estimation problem.

    Attributes
    ----------
    p : observed dimension
    k : number of common factors, 1 <= k < p
    n : number of increments on the observation grid
    h : grid step, so T = n*h; ergodic (T -> infinity) and non-ergodic
        (T fixed) sampling share every estimator formula
    """

    p: int
    k: int
    n: int = 0
    h: float = 0.0

    def __post_init__(self):
        if self.p < 2:
            raise ValueError("p must be >= 2")
        if not 1 <= self.k < self.p:
            raise ValueError(f"k must satisfy 1 <= k < p, got k={self.k}, p={self.p}")

    @property
    def q(self):
        """Number of free parameters, (p-k)k + k(k+1)/2 + p."""
        p, k = self.p, self.k
        return (p - k) * k + k * (k + 1) // 2 + p

    @property
    def pbar(self):
        return self.p * (self.p + 1) // 2

    @property
    def df(self):
        """Residual degrees of freedom p(p+1)/2 - q of the fitted structure."""
        return self.pbar - self.q

    @property
    def testable(self):
        """Whether the chi-squared test of this count has df >= 1."""
        return self.df >= 1

    @property
    def T(self):
        return self.n * self.h


@dataclass(frozen=True)
class ParamVector:
    """Free parameters of the factor structure.

    a : (p-k) x k free block of the loading matrix
    sigma_ff : k x k symmetric factor covariance (symmetrized on input; PSD
        is *not* enforced -- fits report an eigenvalue diagnostic instead)
    sigma_ee : length-p unique variances.  Only shapes are checked: a fit
        over a box that admits the boundary may return non-positive entries
        (Heywood case), which ``FitResult.min_unique_variance`` reports.
    """

    a: np.ndarray
    sigma_ff: np.ndarray
    sigma_ee: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.array(self.a, dtype=float))
        sff = require_symmetric(self.sigma_ff, name="sigma_ff")
        see = np.array(self.sigma_ee, dtype=float).ravel()
        k = sff.shape[0]
        if a.size == 0:
            a = a.reshape((0, k))
        if a.shape[1] != k:
            raise ValueError(f"a has {a.shape[1]} columns but sigma_ff is {k}x{k}")
        p = a.shape[0] + k
        if see.size != p:
            raise ValueError(f"sigma_ee has length {see.size}, expected p={p}")
        for name, val in (("a", a), ("sigma_ff", sff), ("sigma_ee", see)):
            val.setflags(write=False)
            object.__setattr__(self, name, val)

    @property
    def k(self):
        return self.sigma_ff.shape[0]

    @property
    def p(self):
        return self.a.shape[0] + self.k


def pack(params):
    """Pack a ParamVector into the canonical vector (vec A, vech Sff, sigma^2)."""
    return np.concatenate(
        [vec(params.a), vech(params.sigma_ff, check=False), params.sigma_ee]
    )


def unpack(v, spec):
    """Inverse of :func:`pack` for the dimensions in ``spec``."""
    v = np.asarray(v, dtype=float).ravel()
    p, k = spec.p, spec.k
    if v.size != spec.q:
        raise ValueError(f"parameter vector has length {v.size}, expected {spec.q}")
    n_a = (p - k) * k
    n_ff = k * (k + 1) // 2
    return ParamVector(a=unvec(v[:n_a], p - k, k), sigma_ff=unvech(v[n_a : n_a + n_ff]),
                       sigma_ee=v[n_a + n_ff :])


def loading_matrix(params):
    """Full p x k loading matrix (I_k stacked on the free block)."""
    return np.vstack([np.eye(params.k), params.a])


def sigma_of_theta(params):
    """Implied p x p increment covariance Lambda Sff Lambda^T + Diag(sigma^2)."""
    return sigma_from_blocks(loading_matrix(params), params.sigma_ff, params.sigma_ee)


def sigma_from_blocks(lam, sigma_ff, sigma_ee):
    """Sigma(theta) from the p x k loading matrix, Sigma_ff and the unique
    variances; :func:`sigma_of_theta` on arrays."""
    sigma = lam @ sigma_ff @ lam.T
    sigma = (sigma + sigma.T) / 2.0
    sigma.ravel()[:: sigma.shape[0] + 1] += sigma_ee
    return sigma


def weight_matrix(sigma):
    """vech-scale asymptotic covariance 2 pinv(D) (Sigma x Sigma) pinv(D)^T.

    Built from its entry formula: for vech positions (i,j) and (k,l) the
    entry is Sigma_ik Sigma_jl + Sigma_il Sigma_jk, which equals the
    Kronecker form bit for bit and is exactly symmetric.  Raises
    WeightMatrixError if ``sigma`` is not positive definite (which is
    equivalent to W not being positive definite).
    """
    sigma = require_symmetric(sigma, name="sigma")
    try:
        np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        raise WeightMatrixError(
            "covariance is not positive definite; weight matrix undefined"
        ) from None
    rows, cols = vech_indices(sigma.shape[0])
    return (sigma[np.ix_(rows, rows)] * sigma[np.ix_(cols, cols)]
            + sigma[np.ix_(rows, cols)] * sigma[np.ix_(cols, rows)])


@lru_cache(maxsize=None)
def _factor_template(p, k):
    """:func:`sigma_derivative_factors` with its Lambda columns zero; read-only."""
    rows, cols = vech_indices(k)
    eye = np.eye(p)
    u = np.hstack([np.tile(eye[:, k:], k), np.zeros((p, rows.size)), eye])
    v = np.hstack([np.zeros((p, (p - k) * k + rows.size)), eye])
    w = np.concatenate([np.ones((p - k) * k), np.where(rows == cols, 0.5, 1.0),
                        np.full(p, 0.5)])
    for m in (u, v, w):
        m.setflags(write=False)
    return u, v, w


def sigma_derivative_factors(lam, sigma_ff):
    """First derivatives of Sigma(theta) as rank-2 factors.

    Returns (u, v, w), u and v of shape (p, q) and w of length q, with
    dSigma/dtheta_i = w_i (u_i v_i^T + v_i u_i^T) for the columns u_i, v_i
    in :func:`pack` order:

    * A[r, s]: u = e_{k+r}, v = (Lambda Sigma_ff)[:, s], w = 1;
    * Sigma_ff[a, b]: u = lambda_a, v = lambda_b, w = 1/2 on the diagonal
      and 1 off it;
    * sigma_i^2: u = v = e_i, w = 1/2.

    Sigma is quadratic in A and linear in the rest, so these are exact.  u and
    v are fresh copies of a template built once per (p, k), with the Lambda
    columns filled; w is the template's, read-only.
    """
    p, k = lam.shape
    rows, cols = vech_indices(k)
    n_a = (p - k) * k
    u, v, w = _factor_template(p, k)
    u, v = u.copy(), v.copy()
    u[:, n_a:n_a + rows.size], v[:, n_a:n_a + rows.size] = lam[:, rows], lam[:, cols]
    v[:, :n_a] = np.repeat(lam @ sigma_ff, p - k, axis=1)
    return u, v, w


def gradient_from_blocks(g, lam, sigma_ff, rows, cols, weights):
    """Contract a p x p matrix g with every dSigma/dtheta_i: the chain rule
    sum_{r,c} g[r, c] dSigma[r, c]/dtheta_i from a derivative in Sigma to
    theta, in O(p^2 k).  ``rows``, ``cols`` are the vech positions of k and
    ``weights`` the chain-rule weights of vech Sigma_ff (1 on the diagonal,
    2 off it); only the symmetric part of g enters."""
    g = (g + g.T) / 2.0
    m = lam.T @ g @ lam
    return np.concatenate([
        (2.0 * (g @ lam @ sigma_ff)[lam.shape[1]:]).ravel(order="F"),
        weights * m[rows, cols],
        g.diagonal(),
    ])


def delta_jacobian(params):
    """Analytic Jacobian of vech Sigma(theta) in theta, shape (pbar, q)."""
    u, v, w = sigma_derivative_factors(loading_matrix(params), params.sigma_ff)
    rows, cols = vech_indices(params.p)
    return w * (u[rows] * v[cols] + v[rows] * u[cols])


def sigma_ff_min_eigenvalue(params):
    """Smallest eigenvalue of the factor covariance block.

    Negative values indicate a boundary (Heywood-style) solution; fits
    surface this as a diagnostic rather than constraining the search.
    """
    return float(np.linalg.eigvalsh(params.sigma_ff)[0])
