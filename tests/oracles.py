"""Reference implementations that the tests check the library against.

Each one computes a quantity of the pipeline a second, slower way: the
dense (q, p, p) stack of dSigma/dtheta with its chain rule and curvature
contractions, the Hessian of the contrast built from that stack, the rank-2
factors of dSigma/dtheta assembled column block by column block, the
projected gradient with its blocked entries zeroed, the exact Gaussian
transition of a linear OU system and the Gaussian quasi-likelihood, whose
optimum a long-path contrast fit must share.
"""

import numpy as np
from scipy.linalg import expm

from diffusionfa import WeightMatrixError
from diffusionfa.matrixcalc import vec, vech_indices
from diffusionfa.model import gradient_from_blocks, loading_matrix, sigma_of_theta


def sigma_gradient_stack(params):
    """Partial derivatives of Sigma(theta), stacked as a (q, p, p) array.

    Slice order matches :func:`pack`: the (p-k)k loading entries
    (column-major), then the k(k+1)/2 vech(Sigma_ff) coordinates, then the
    p unique variances.  Sigma is quadratic in A and linear in the rest, so
    every slice is exact.
    """
    p, k = params.p, params.k
    q = (p - k) * k + k * (k + 1) // 2 + p
    lam = loading_matrix(params)
    g = lam @ params.sigma_ff  # p x k; column s is d(Sigma)/dA_{rs} up to placement
    out = np.zeros((q, p, p))
    pos = 0
    for s in range(k):
        for r in range(p - k):
            m = k + r
            out[pos, m, :] += g[:, s]
            out[pos, :, m] += g[:, s]
            pos += 1
    rows, cols = vech_indices(k)
    for u, v in zip(rows, cols):
        lu, lv = lam[:, u], lam[:, v]
        if u == v:
            out[pos] = np.outer(lu, lu)
        else:
            out[pos] = np.outer(lu, lv) + np.outer(lv, lu)
        pos += 1
    for i in range(p):
        out[pos, i, i] = 1.0
        pos += 1
    return out


def sigma_derivative_factors(lam, sigma_ff):
    """(u, v, w) of :func:`model.sigma_derivative_factors`, every column
    block built afresh: e_{k+r} and (Lambda Sigma_ff)[:, s] for A[r, s],
    lambda_a and lambda_b for Sigma_ff[a, b], e_i twice for sigma_i^2."""
    p, k = lam.shape
    rows, cols = vech_indices(k)
    eye = np.eye(p)
    u = np.hstack([np.tile(eye[:, k:], k), lam[:, rows], eye])
    v = np.hstack([np.repeat(lam @ sigma_ff, p - k, axis=1), lam[:, cols], eye])
    w = np.concatenate([np.ones((p - k) * k), np.where(rows == cols, 0.5, 1.0),
                        np.full(p, 0.5)])
    return u, v, w


def projected_gradient(x, g, lo, hi):
    """g with the entries zeroed that push x further outside [lo, hi] from a
    bound it sits on."""
    pg = g.copy()
    pg[(x <= lo) & (g > 0)] = 0.0
    pg[(x >= hi) & (g < 0)] = 0.0
    return pg


def sigma_gradient_contract(params, g):
    """Contract a p x p matrix with every slice of :func:`sigma_gradient_stack`.

    Returns sum_{r,c} g[r, c] dSigma[r, c]/dtheta_i for each packed
    coordinate i, the chain rule from a derivative in Sigma to theta, in
    O(p^2 k) without forming the (q, p, p) stack.  The slices are symmetric,
    so only the symmetric part of ``g`` enters.
    """
    rows, cols = vech_indices(params.k)
    return gradient_from_blocks(g, loading_matrix(params), params.sigma_ff,
                                rows, cols, np.where(rows == cols, 1.0, 2.0))


def sigma_curvature_contract(params, g):
    """Contract a p x p matrix with the second derivatives of Sigma(theta).

    Returns the q x q matrix sum_{r,c} g[r, c] d2Sigma[r, c]/dtheta_i dtheta_j.
    Sigma is linear in vech(Sigma_ff) and the unique variances, so only two
    blocks are non-zero: A-A, which is 2 (Sigma_ff x g[k:, k:]) in vec(A)
    order, and A-vech(Sigma_ff), built from Lambda^T g.
    """
    g = (g + g.T) / 2.0
    p, k = params.p, params.k
    n_a = (p - k) * k
    rows, cols = vech_indices(k)
    n_q = n_a + rows.size + p
    out = np.zeros((n_q, n_q))
    out[:n_a, :n_a] = 2.0 * np.kron(params.sigma_ff, g[k:, k:])
    m = (loading_matrix(params).T @ g)[:, k:]
    for j, (u, v) in enumerate(zip(rows, cols)):
        block = np.zeros((p - k, k))
        block[:, u] += m[v]
        if u != v:
            block[:, v] += m[u]
        out[:n_a, n_a + j] = 2.0 * vec(block)
    out[n_a:n_a + rows.size, :n_a] = out[:n_a, n_a:n_a + rows.size].T
    return out


def contrast_hessian(rcov, params):
    """Exact Hessian of the contrast at params from the (q, p, p) stack.

    With E_i = dSigma/dtheta_i, B_i = S E_i, P = S q and C = P^2 - P,

        H_ij = tr(B_i B_j C) + tr(B_j B_i C) + tr(B_i P B_j P)
               + tr(G d2Sigma/dtheta_i dtheta_j),

    S and G formed as the fit forms them, from one Cholesky factor.
    """
    sigma = sigma_of_theta(params)
    chol_inv = np.linalg.inv(np.linalg.cholesky(sigma))
    s = chol_inv.T @ chol_inv
    sr = s @ (rcov.q - sigma)
    srs = sr @ s
    g = -(srs + sr @ srs)
    b = s @ sigma_gradient_stack(params)
    sq = s @ rcov.q
    n_q = b.shape[0]
    b_t = b.transpose(0, 2, 1).reshape(n_q, -1)
    bp = b @ sq
    # tr(X Y) = <vec X^T, vec Y>, one matrix product per term
    cross = b_t @ (b @ (sq @ sq - sq)).reshape(n_q, -1).T
    h = (cross + cross.T
         + bp.transpose(0, 2, 1).reshape(n_q, -1) @ bp.reshape(n_q, -1).T
         + sigma_curvature_contract(params, g))
    return (h + h.T) / 2.0


def _flow(a, v, h):
    """(e^{ah}, int_0^h e^{as} ds v) from e^{[[a, v], [0, 0]] h} (Van Loan 1978)."""
    d = a.shape[0]
    aug = np.zeros((d + 1, d + 1))
    aug[:d, :d] = a
    aug[:d, d] = v
    ea = expm(aug * h)
    return ea[:d, :d], ea[:d, d]


def exact_ou_transition(b, mu, s, h):
    """One-step exact transition of dX = -(B X - mu) dt + S dW over time h.

    Returns (phi, const, cov): X_h | X_0 = x is N(phi @ x + const, cov) with
    phi = e^{-Bh}, const = int_0^h e^{-Bs} ds mu (= (I - e^{-Bh}) B^{-1} mu
    for invertible B) and cov = int_0^h e^{-Bs} SS' e^{-B's} ds, whose vec
    is int_0^h e^{-(I x B + B x I) s} ds vec(SS').  Both come from
    :func:`_flow`: every exponent decays, so stiff B loses no digits, and
    singular B needs no inverse.
    """
    b = np.atleast_2d(np.asarray(b, dtype=float))
    d = b.shape[0]
    mu = np.asarray(mu, dtype=float).reshape(d)
    s = np.atleast_2d(np.asarray(s, dtype=float))
    phi, const = _flow(-b, mu, h)
    eye = np.eye(d)
    vec_cov = _flow(-(np.kron(eye, b) + np.kron(b, eye)),
                    (s @ s.T).ravel(order="F"), h)[1]
    cov = vec_cov.reshape((d, d), order="F")
    return phi, const, (cov + cov.T) / 2.0


def quasi_loglik_excess(rcov, params):
    """Excess of the Gaussian quasi-likelihood optimum over theta.

    Equals log det Sigma(theta) - log det Q + tr(Sigma(theta)^{-1} Q) - p;
    non-negative, and zero exactly when Sigma(theta) == Q.  Requires a
    positive-definite Q (n >= p and a nondegenerate path).
    """
    q = rcov.q
    p = q.shape[0]
    sign_q, logdet_q = np.linalg.slogdet(q)
    if sign_q <= 0:
        raise ValueError("realised covariance must be positive definite")
    sigma = sigma_of_theta(params)
    sign_s, logdet_s = np.linalg.slogdet(sigma)
    if sign_s <= 0:
        raise WeightMatrixError("model covariance is not positive definite")
    return float(logdet_s - logdet_q + np.trace(np.linalg.solve(sigma, q)) - p)
