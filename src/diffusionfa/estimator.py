"""Realised covariance and minimum-contrast estimation of the factor model.

The increment covariance is estimated by

    Q = (1/T) sum_i (X_{t_i} - X_{t_{i-1}})(X_{t_i} - X_{t_{i-1}})^T

and the parameters by minimizing the weighted quadratic form

    F(theta) = (vech Q - vech Sigma(theta))^T W(theta)^{-1} (vech Q - vech Sigma(theta))

over a box.  For W = 2 pinv(D) (Sigma x Sigma) pinv(D)^T the inverse is
W^{-1} = (1/2) D^T (S x S) D with S = Sigma^{-1}, so the contrast equals
Browne's (1974) discrepancy

    F(theta) = (1/2) tr[(S R)^2],    R = Q - Sigma(theta),

and its derivative in Sigma is G = -(S R S + S R S R S).  Both are computed
in closed form from one Cholesky factor of Sigma(theta) (by LAPACK, through
:func:`matrixcalc.inverse_cholesky`), on the packed parameter vector: a fit
builds its objective once, with the index maps of its spec, and forms
Lambda, Sigma_ff and Sigma of each point from that vector.  An evaluation
returns its point [Lambda, Sigma_ff, S, S R]; a search asks for F at each
trial and for the gradient, appending G, only at the trial it accepts,
and the minimisers carry that point to Newton's Hessian and the fit's
information.  The Hessian is built from the rank-2 factors of dSigma/dtheta
(:func:`model.sigma_derivative_factors`, whose constant columns are built
once per (p, k)), in O(p^2 q + p q^2) without a (q, p, p) stack.
sqrt(n) times the estimation error is asymptotically normal with covariance
I^{-1}, I = Delta^T W^{-1} Delta = T(S, S) / 2 in the Hessian's notation: the
objective forms I from the same factors, with no W, for a fit's standard
errors, and :func:`information` for a study's truth.

Two box-constrained minimizers share the objective and the end-of-fit
standard errors.  A fit without a supplied start (``init=None``) runs
projected Newton on the exact Hessian (Bertsekas 1982); a fit from a
supplied start runs projected BFGS to a relative projected-gradient tolerance.
:func:`hypothesis_test.test_k` decides which one a count gets: a start and
box are used only at their own count (the generating count of a study,
started at the truth), and every other count gets the default start in the
default box.
Both backtrack in :func:`_arc_search`, the one projected backtracking loop,
each with its own Armijo test, and reject a trial whose F is not finite.
The minimisers and the search are generators that yield requests and steps
and return a stop name: :func:`_drive` alone evaluates them, answers F = inf
where Sigma(theta) is not PD, owns both caps (``_MAX_ITER``, ``_MAX_EVALS``)
and decides ``converged`` by Newton's stationarity test at the stop.
A speed rewrite of these loops keeps every floating-point operation, operand
and order (``ndarray.dot`` for ``@``, in-place forms), never re-associating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .matrixcalc import eigh, inverse_cholesky, require_symmetric, unvech, vech_indices
from .model import (
    ModelSpec,
    ParamVector,
    StartError,
    UntestableError,
    WeightMatrixError,
    pack,
    sigma_derivative_factors,
    sigma_from_blocks,
    sigma_of_theta,
    unpack,
    weight_matrix,  # montecarlo builds the rcov SDs' W through this name
)

_ARMIJO_C1 = 1e-4
_MIN_STEP_FRACTION = 1e-13
_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny
_MIN_DECREASE = 4.0 * _EPS  # four ulps of 1
_ACTIVE_EPS = 1e-3
_EIG_FLOOR = 1e-10
_DECREMENT_TOL = 1e-10
# relative projected-gradient tolerance of the BFGS loop; the caps of _drive
_GRAD_TOL = 1e-8
_MAX_ITER = 2000
_MAX_EVALS = 12000


@dataclass(frozen=True)
class RealisedCov:
    """Realised covariance matrix with its sampling metadata; ``q`` must be
    finite, symmetric and PSD (smallest eigenvalue >= -1e-10 max|diag q|),
    ``n >= 1`` and ``h`` finite and positive."""

    q: np.ndarray
    n: int
    h: float

    def __post_init__(self):
        q = require_symmetric(self.q, name="realised covariance")
        if not np.all(np.isfinite(q)):
            raise ValueError("realised covariance has non-finite entries")
        min_eig = float(np.linalg.eigvalsh(q)[0])
        if min_eig < -1e-10 * np.max(np.abs(np.diag(q))):
            raise ValueError("realised covariance is not positive semidefinite: "
                             f"smallest eigenvalue {min_eig:.3e}")
        q.setflags(write=False)
        object.__setattr__(self, "q", q)
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not (np.isfinite(self.h) and self.h > 0):
            raise ValueError(f"h must be a finite positive step, got {self.h}")

    @property
    def p(self):
        return self.q.shape[0]

    @property
    def T(self):
        return self.n * self.h


@dataclass(frozen=True)
class FitResult:
    """Minimum-contrast fit with asymptotic standard errors.

    ``avar`` is the inverse of the objective's information T(S, S) / 2 at
    the estimate, ``se[i] = sqrt(avar[i, i] / n)``.  ``evaluations`` counts
    the contrast evaluations of ``fit``'s driver, the start and non-PD trials
    included.  ``sigma_ff_min_eig`` and ``min_unique_variance`` surface
    boundary (Heywood-style) solutions; they are diagnostics, not errors.
    """

    theta_hat: ParamVector
    contrast: float
    avar: np.ndarray
    se: np.ndarray
    converged: bool
    iterations: int
    evaluations: int
    gradient_norm: float
    n: int
    sigma_ff_min_eig: float
    min_unique_variance: float
    message: str = ""

    @property
    def theta(self):
        """The estimate as a packed vector."""
        return pack(self.theta_hat)


def realised_cov(path):
    """Sum of outer products of increments divided by the horizon T; the
    path must be finite on a uniform grid (each step within 1e-6 h of h)."""
    x = np.asarray(path.x, dtype=float)
    if x.shape[0] < 2:
        raise ValueError("need at least 2 observations to form increments")
    if not np.isfinite(x).all():
        bad = np.flatnonzero(~np.isfinite(x).all(axis=1))[0]
        raise ValueError(f"observation row {bad} (t={path.times[bad]!r}) is not finite")
    h = path.h
    steps = np.diff(path.times)
    bad = np.flatnonzero(~(np.abs(steps - h) < 1e-6 * h))
    if bad.size:
        raise ValueError(f"time grid is not uniform and increasing: step "
                         f"{bad[0] + 1} is {steps[bad[0]]!r}, h = {h!r}")
    dx = np.diff(x, axis=0)
    n = dx.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):  # RealisedCov judges q
        q = dx.T @ dx / (n * h)
    return RealisedCov(q=q, n=n, h=h)


def information(params):
    """Information Delta^T W^{-1} Delta at theta, :meth:`_Contrast.information`
    at Q = Sigma(theta); raises ValueError unless Sigma(theta) is PD."""
    objective = _Contrast(sigma_of_theta(params), ModelSpec(p=params.p, k=params.k))
    return objective.information(objective.value(pack(params))[1])


def contrast(rcov, params):
    """Weighted quadratic distance between vech(Q) and vech(Sigma(theta)).

    Non-negative, and zero exactly on the zero-residual manifold.  Raises
    WeightMatrixError when Sigma(theta) is not positive definite.
    """
    return _Contrast(rcov.q, ModelSpec(p=params.p, k=params.k)).value(pack(params))[0]


def contrast_grad(rcov, params):
    """Analytic gradient of :func:`contrast` in the packed parameters."""
    return _Contrast(rcov.q, ModelSpec(p=params.p, k=params.k)).evaluate(pack(params))[1]


def default_init(rcov, spec):
    """Heuristic starting point: zero loadings, factor variances from the
    top-left block of Q, unique variances at half the Q diagonal.

    Keeps Sigma(init) positive definite for any PSD Q with positive
    diagonal.
    """
    k = spec.k
    diag = np.diag(rcov.q)
    return ParamVector(
        a=np.zeros((spec.p - k, k)),
        sigma_ff=np.diag(diag[:k]),
        sigma_ee=0.5 * diag,
    )


def default_bounds(rcov, spec):
    """Data-scaled box: loadings in [-30, 30], factor covariances within
    four times the largest Q diagonal, unique variances in
    [1e-8, 2 max diag Q].

    The positivity floor guarantees Sigma(theta) stays positive definite
    everywhere in the box; searches over a box admitting non-positive
    unique variances (as in boundary-tolerant replication studies) must
    pass explicit bounds, e.g. via :func:`parameter_box`.
    """
    scale = float(np.max(np.diag(rcov.q)))
    if scale <= 0:
        raise ValueError("realised covariance has no positive diagonal entry")
    if 2.0 * scale <= 1e-8:
        raise ValueError(f"the largest variance of the data, {scale:g}, is at most half "
                         "the 1e-08 floor of the unique variances, so the default box "
                         "is empty; rescale the data")
    return parameter_box(
        spec,
        factor_cov=(-4.0 * scale, 4.0 * scale),
        unique_var=(1e-8, 2.0 * scale),
    )


def parameter_box(spec, loading=(-30.0, 30.0), factor_cov=(-30.0, 30.0),
                  unique_var=(-30.0, 30.0)):
    """Assemble a (q, 2) box from per-block (lower, upper) pairs.

    The default reproduces the flat [-30, 30] box on every coordinate.
    """
    p, k = spec.p, spec.k
    blocks = [
        np.tile(loading, ((p - k) * k, 1)),
        np.tile(factor_cov, (k * (k + 1) // 2, 1)),
        np.tile(unique_var, (p, 1)),
    ]
    box = np.vstack(blocks).astype(float)
    if np.any(box[:, 0] >= box[:, 1]):
        raise ValueError("each lower bound must be below its upper bound")
    return box


def check_start(params, box=None, name="start",
                fields="fields 'a', 'sigma_ff' and 'sigma_ee'"):
    """Raise StartError unless ``params`` can start a fit over the (q, 2)
    ``box``: packed, it has the box's length and lies inside (NaN never
    does), and it and Sigma(theta) are finite, the latter positive
    definite; without a box only the last two.  ``name`` and ``fields``
    name the point and what sets Sigma."""
    x = pack(params)
    if box is not None:
        if x.size != len(box):
            raise StartError(f"{name} has {x.size} coordinates, the box {len(box)}")
        outside = np.flatnonzero(~((x >= box[:, 0]) & (x <= box[:, 1])))
        if outside.size:
            i = outside[0]
            raise StartError(f"{name} theta:{i + 1}={x[i]:g} lies outside "
                             f"[{box[i, 0]:g}, {box[i, 1]:g}]")
    # checked here: inverse_cholesky calls diag(inf, 1) positive definite
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise StartError(f"{name} theta:{bad[0] + 1}={x[bad[0]]:g} is not finite")
    with np.errstate(over="ignore", invalid="ignore"):  # judged finite below
        sigma = sigma_of_theta(params)
    if not np.isfinite(sigma).all():
        raise StartError(f"{name} Sigma(theta) of {fields} is not finite")
    if inverse_cholesky(sigma) is None:
        raise StartError(f"{name} Sigma(theta) of {fields} is not positive definite")


@lru_cache(maxsize=None)
def _index_maps(p, k):
    """n_a and the read-only maps of :class:`_Contrast` at (p, k), Lambda's eye included."""
    n_a, (rows, cols) = (p - k) * k, vech_indices(k)
    ff_index = n_a + unvech(np.arange(rows.size)).astype(int)  # packed Sigma_ff entries
    # vech Sigma_ff: flat k x k positions, chain-rule weights (2 off the
    # diagonal); row A[r, s], column Sigma_ff[s, c] at [s, c, r] after broadcasting
    maps = (rows * k + cols, np.where(rows == cols, 1.0, 2.0), ff_index, np.eye(p, k),
            np.arange(n_a).reshape(k, 1, -1), ff_index[:, :, None])
    for m in maps:
        m.setflags(write=False)
    return (n_a, *maps[:4], maps[4:])


class _Contrast:
    """F = (1/2) tr[(S R)^2] of one (Q, spec) on packed vectors.

    Built once per fit, it holds the index maps of the spec and no point:
    it copies each point's loading matrix from a read-only template and
    gathers Sigma_ff from the packed vector, without a ParamVector.
    :meth:`value` forms F from S = Sigma(theta)^{-1} = L^{-T} L^{-1}, L the
    Cholesky factor of Sigma(theta), and R = q - Sigma(theta), and returns
    it with the point [Lambda, Sigma_ff, S, S R];
    :meth:`gradient` chains G = -(S R S + S R S R S) at a point to theta,
    block by block in O(p^2 k), and appends G to it.  :meth:`hessian` and
    :meth:`information` read only the point they are given; :func:`_drive`
    counts and budgets the evaluations and maps a non-PD Sigma(theta) to inf.
    """

    def __init__(self, q, spec):
        self.q, self.spec = q, spec
        (self.n_a, self.ff_flat, self.weights, self.ff_index, self.eye,
         self.a_ff) = _index_maps(spec.p, spec.k)

    def value(self, x):
        """F at x and its point [Lambda, Sigma_ff, S, S R]; raises
        WeightMatrixError when Sigma(theta) is not positive definite."""
        k, n_a = self.spec.k, self.n_a
        lam = self.eye.copy()
        lam[k:] = x[:n_a].reshape((self.spec.p - k, k), order="F")
        sigma_ff = x[self.ff_index]
        sigma = sigma_from_blocks(lam, sigma_ff, x[n_a + self.weights.size:])
        chol_inv = inverse_cholesky(sigma)
        if chol_inv is None:
            raise WeightMatrixError("model covariance is not positive definite")
        # ndarray.dot makes the BLAS call of @ without the ufunc dispatch
        s = chol_inv.T.dot(chol_inv)
        sr = s.dot(self.q - sigma)
        return 0.5 * float(np.add.reduce(sr * sr.T, axis=None)), [lam, sigma_ff, s, sr]

    def gradient(self, point):
        """The gradient of F at ``point`` of :meth:`value`, the chain rule
        sum_{r,c} G[r, c] dSigma[r, c]/dtheta_i; appends G to the point."""
        lam, sigma_ff, s, sr = point
        srs = sr.dot(s)
        g = -(srs + sr.dot(srs))
        g = (g + g.T) / 2.0  # exactly symmetric, for this sum and the Hessian
        point.append(g)
        p, k, n_a = self.spec.p, self.spec.k, self.n_a
        out = np.empty(self.spec.q)
        # vec of the (p - k) x k A block is the C order of its transpose
        np.multiply(2.0, g.dot(lam).dot(sigma_ff)[k:].T, out=out[:n_a].reshape(k, p - k))
        np.multiply(self.weights, lam.T.dot(g).dot(lam).take(self.ff_flat), out=out[n_a:-p])
        out[-p:] = g.diagonal()
        return out

    def evaluate(self, x):
        """F, its gradient and the point at x, one evaluation."""
        f, point = self.value(x)
        return f, self.gradient(point), point

    def _derivative_forms(self, point):
        """forms(M) = (U'MU, U'MV, V'MV) at ``point``."""
        u, v, w = sigma_derivative_factors(point[0], point[1])
        v *= w

        def forms(m):
            mu, mv = m.dot(u), m.dot(v)
            return u.T.dot(mu), u.T.dot(mv), v.T.dot(mv)

        return forms

    def hessian(self, point):
        """Exact Hessian of F at ``point`` of :meth:`gradient`,

            H = T(K, K) - T(S, G) - T(S, G)^T + tr(G d2Sigma/dtheta_i dtheta_j)

        with K = S q S and T(X, Y)_ij = tr(E_i X E_j Y), E_i = dSigma/dtheta_i.
        For the rank-2 factors E_i = u_i v_i^T + v_i u_i^T of
        :func:`model.sigma_derivative_factors` (w folded into v), T is four
        elementwise products of the q x q forms U'XU, U'XV, V'XV and those of
        Y, in O(p^2 q + p q^2).  The last term has two non-zero blocks:
        2 Sigma_ff x G[k:, k:] for A-A and 2 (G Lambda)[k+r, c] at
        (A[r, s], Sigma_ff[s, c]).
        """
        forms = self._derivative_forms(point)
        lam, sigma_ff, s, _, g = point
        k, n_a = self.spec.k, self.n_a

        def trace_products(xuu, xuv, xvv, yuu, yuv, yvv):
            t = xuv.T * yuv  # in place from here on: q x q temporaries cost
            t += xuv * yuv.T
            t += xvv * yuu.T
            t += xuu * yvv.T
            return t

        t = trace_products(*forms(s), *forms(g))
        k_forms = forms(s.dot(self.q).dot(s))
        h = trace_products(*k_forms, *k_forms)
        h -= t
        h -= t.T
        h[:n_a, :n_a] += 2.0 * (sigma_ff[:, None, :, None]
                                * g[None, k:, None, k:]).reshape(n_a, n_a)
        a_ff = 2.0 * g.dot(lam)[k:].T
        h[self.a_ff] += a_ff
        h[self.a_ff[::-1]] += a_ff
        return (h + h.T) / 2.0

    def information(self, point):
        """Delta^T W^{-1} Delta = T(S, S) / 2 at ``point``: W^{-1} = D^T (S x S) D / 2."""
        # T(S, S) = M + M^T, M the first and third products of trace_products
        suu, suv, svv = self._derivative_forms(point)(point[2])
        m = suv.T * suv + svv * suu.T
        return (m + m.T) / 2.0


def _pg_norm(x, g, lo, hi):
    """Max-norm of the projected gradient: g without the entries held at a bound."""
    pg = np.abs(g)
    if np.count_nonzero((x <= lo) | (x >= hi)):
        pg[((x <= lo) & (g > 0)) | ((x >= hi) & (g < 0))] = 0.0
    return float(np.maximum.reduce(pg, initial=0.0))


def _arc_search(x, d, lo, hi, alpha, accept):
    """Backtrack along the projection arc clip(x + alpha d), halving alpha
    until ``accept(alpha, step, f_try)``, step = x_try - x, holds with F finite
    (:func:`_drive` answers inf for a non-PD Sigma(theta)), asking ("f", x_try)
    at each trial and ("g", point) at the accepted one alone; return (x_try,
    f_try, g_try, point, step), or None when the trial does not move or alpha
    falls below _MIN_STEP_FRACTION."""
    while alpha >= _MIN_STEP_FRACTION:
        x_try = np.minimum(np.maximum(x + alpha * d, lo), hi)
        step = x_try - x
        if not np.count_nonzero(step):
            return None
        f_try, point = yield "f", x_try
        if math.isfinite(f_try) and accept(alpha, step, f_try):
            return x_try, f_try, (yield "g", point), point, step
        alpha *= 0.5
    return None


def _bfgs(x, f, g, point, lo, hi):
    """Projected BFGS with Armijo backtracking; the loop for supplied starts,
    a generator whose requests :func:`_drive` evaluates.  It returns its stop
    name, ``projected gradient within tolerance`` or ``line_search``."""
    identity = np.eye(x.size)
    h_inv, fresh = identity, True  # fresh: no curvature update since the identity
    pg_norm = _pg_norm(x, g, lo, hi)

    def sufficient(alpha, step, f_try):
        # Armijo, and a decrease resolvable in float64: ulp-sized "progress"
        # feeds rounding noise into the curvature updates
        return (f_try <= f + _ARMIJO_C1 * g.dot(step)
                and f - f_try >= _MIN_DECREASE * (1.0 + abs(f)))

    while True:
        if pg_norm <= _GRAD_TOL * (1.0 + abs(f)):
            return "projected gradient within tolerance"
        yield "step", None
        d = (-h_inv).dot(g)
        if d.dot(g) > -1e-14 * math.sqrt(d.dot(d)) * math.sqrt(g.dot(g)):
            h_inv, fresh = identity, True
            d = -g
        found = yield from _arc_search(x, d, lo, hi, 1.0, sufficient)
        if found is None and not fresh:
            # stale curvature produces unusable directions along the box;
            # restart from steepest descent before giving up
            h_inv, fresh = identity, True
            found = yield from _arc_search(x, -g, lo, hi, 1.0, sufficient)
        if found is None:
            return "line_search"

        y = found[2] - g
        x, f, g, point, step = found
        sy, yy = step.dot(y), y.dot(y)
        if sy > 1e-10 * math.sqrt(step.dot(step)) * math.sqrt(yy):
            if fresh:
                h_inv = (sy / yy) * identity
            rho = 1.0 / sy
            v = identity - rho * (step[:, None] * y)
            h_inv = v.dot(h_inv).dot(v.T) + rho * (step[:, None] * step)
            fresh = False
        pg_norm = _pg_norm(x, g, lo, hi)


def _newton_test(x, f, g, h, lo, hi):
    """Projected Newton's step and stationarity test at (x, f, g) with Hessian
    h: (stationary, active, d, decrement).  The active set holds the
    coordinates within eps of a bound that g pushes outward, eps =
    min(_ACTIVE_EPS (hi - lo), |x - clip(x - g)|); on the free set d solves
    |H| d = -g, |H| with the absolute eigenvalues of H floored at _EIG_FLOOR
    times the largest.  Stationary: the decrement g_F' |H_FF|^{-1} g_F is at
    most _DECREMENT_TOL (1 + |F|) and every active coordinate is on its bound."""
    r = x - np.minimum(np.maximum(x - g, lo), hi)
    eps = np.minimum(_ACTIVE_EPS * (hi - lo), math.sqrt(r.dot(r)))
    active = ((x <= lo + eps) & (g > 0)) | ((x >= hi - eps) & (g < 0))
    free = ~active
    lam, vecs = eigh(h[free][:, free])
    np.abs(lam, out=lam)
    np.maximum(lam, _EIG_FLOOR * max(float(lam.max(initial=0.0)), _TINY), out=lam)
    d = np.zeros_like(x)
    d[free] = d_free = (-vecs).dot(vecs.T.dot(g[free]) / lam)
    decrement = float((-g[free]).dot(d_free))
    stationary = bool(decrement <= _DECREMENT_TOL * (1.0 + abs(f))
                      and ((x[active] == lo[active]) | (x[active] == hi[active])).all())
    return stationary, active, d, decrement


def _projected_newton(x, f, g, point, lo, hi):
    """Projected Newton on the exact Hessian (Bertsekas 1982), a generator
    whose requests :func:`_drive` evaluates.  It returns ``decrement``, or
    ``decrement_at_bound`` with the active coordinates, where
    :func:`_newton_test` passes, and else steps along its d, an active
    coordinate taking a diagonally scaled gradient step.  The Armijo search
    along clip(x + alpha d) asks for a fraction of alpha times the decrement
    plus the first-order decrease of the active coordinates, from the damped
    step alpha = 1 / (1 + sqrt(decrement / (1 + |F|))), short from a rough
    start; a failed search returns ``line_search``."""

    def wanted(alpha, step, f_try):
        return f - f_try >= _ARMIJO_C1 * (alpha * decrement - g[active].dot(step[active]))

    while True:
        h = yield "h", point
        stationary, active, d, decrement = _newton_test(x, f, g, h, lo, hi)
        if stationary:
            coords = ", ".join(f"theta:{i + 1}" for i in np.flatnonzero(active))
            return f"decrement_at_bound ({coords})" if coords else "decrement"
        yield "step", None
        d[active] = -g[active] / np.maximum(np.abs(h.diagonal()[active]), _TINY)
        found = yield from _arc_search(
            x, d, lo, hi, 1.0 / (1.0 + math.sqrt(decrement / (1.0 + abs(f)))), wanted)
        if found is None:
            return "line_search"
        x, f, g, point, _ = found


def _drive(minimize, objective, x, lo, hi):
    """The one evaluator of a fit, owner of both caps and judge of convergence.
    It runs ``minimize(x, f, g, point, lo, hi)`` from x, answering ("f", x)
    with (F, point), inf for a non-PD Sigma(theta), and ("g", point) and
    ("h", point) with the gradient and Hessian, until it returns its stop, the
    step past _MAX_ITER (``max_iter``) or an F past _MAX_EVALS (``max_evals``).
    At the start or the last trial whose gradient was asked, ``converged`` is
    :func:`_newton_test`; returns ((x, f, g, point, converged, stop), steps, evals)."""
    f, point = objective.value(x)  # check_start saw this Sigma(theta) PD
    if not math.isfinite(f):
        raise StartError("start contrast is not finite")
    state = x, f, objective.gradient(point), point
    steps, evals, search, answer, h_at, h = 0, 1, minimize(*state, lo, hi), None, None, None
    try:
        while True:
            kind, arg = search.send(answer)
            if kind == "step":
                if steps >= _MAX_ITER:
                    stop = "max_iter"
                    break
                steps, answer = steps + 1, None
            elif kind == "f":
                if evals >= _MAX_EVALS:
                    stop = "max_evals"
                    break
                evals += 1
                try:
                    answer = objective.value(arg)
                except WeightMatrixError:
                    answer = math.inf, None
                trial = arg, answer[0]
            elif kind == "g":
                answer = objective.gradient(arg)
                state = *trial, answer, arg
            else:
                h_at, h = arg, objective.hessian(arg)
                answer = h
    except StopIteration as stopped:
        stop = stopped.value
    x, f, g, point = state
    h = h if h_at is point else objective.hessian(point)  # BFGS asks for none
    return (*state, _newton_test(x, f, g, h, lo, hi)[0], stop), steps, evals


def fit(rcov, spec, init=None, bounds=None):
    """Minimize the contrast over the box and report the fit.

    ``bounds`` is a (q, 2) array of [lower, upper] per packed coordinate;
    when omitted the data-scaled :func:`default_bounds` box is used.  A
    supplied ``init`` is refined by projected BFGS.  With ``init=None`` the
    fit starts from :func:`default_init` and runs projected Newton on the
    exact Hessian.  ``message`` names the stop, and ``converged`` is
    :func:`_drive`'s one test, Newton's stationarity test at that point.
    Raises UntestableError when the count has more parameters q than the
    p(p+1)/2 moments, and StartError when the start fails
    :func:`check_start` or its contrast is not finite.
    """
    if spec.df < 0:
        raise UntestableError(f"k={spec.k} at p={spec.p} has q={spec.q} "
                              f"parameters, more than the {spec.pbar} moments")
    if bounds is None:
        bounds = default_bounds(rcov, spec)
    bounds = np.asarray(bounds, dtype=float)
    if bounds.shape != (spec.q, 2):
        raise ValueError(f"bounds must have shape {(spec.q, 2)}, got {bounds.shape}")
    lo, hi = bounds[:, 0], bounds[:, 1]

    minimize = _projected_newton if init is None else _bfgs
    if init is None:
        # pull clipped coordinates slightly inside the box: a corner start
        # leaves the first steps nowhere to go
        margin = 0.01 * (hi - lo)
        init = unpack(np.clip(pack(default_init(rcov, spec)), lo + margin, hi - margin),
                      spec)
    check_start(init, bounds)

    objective = _Contrast(rcov.q, spec)
    # F or the information may overflow: the point maps to inf, the SEs are not finite
    with np.errstate(over="ignore", invalid="ignore"):
        (x, f, g, point, converged, message), iterations, evaluations = _drive(
            minimize, objective, pack(init), lo, hi)
        info = objective.information(point)
        try:
            avar = np.linalg.inv(info)
        except np.linalg.LinAlgError:
            avar = np.linalg.pinv(info)
            message += "; information matrix singular, pseudoinverse used"
        se = np.sqrt(np.clip(np.diag(avar), 0.0, None) / rcov.n)
    theta_hat = unpack(x, spec)

    return FitResult(
        theta_hat=theta_hat,
        contrast=f,
        avar=avar,
        se=se,
        converged=converged,
        iterations=iterations,
        evaluations=evaluations,
        gradient_norm=_pg_norm(x, g, lo, hi),
        n=rcov.n,
        sigma_ff_min_eig=float(np.linalg.eigvalsh(theta_hat.sigma_ff)[0]),
        min_unique_variance=float(np.min(theta_hat.sigma_ee)),
        message=message,
    )
