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
in closed form from one Cholesky factor of Sigma(theta), on the packed
parameter vector: a fit builds its objective once, with the index maps of
its spec, and forms Lambda, Sigma_ff and Sigma of each point from that
vector.  The objective keeps S and G of the last point it evaluated, so
Newton's Hessian at the point just accepted reuses that factorisation; the
Hessian is built from the rank-2 factors of dSigma/dtheta
(:func:`model.sigma_derivative_factors`, whose constant columns are built
once per (p, k)), in O(p^2 q + p q^2) without a (q, p, p) stack.
sqrt(n) times the estimation error is asymptotically normal with covariance
(Delta^T W^{-1} Delta)^{-1}; :func:`information` forms Delta^T W^{-1} Delta
with one solve, for the standard errors, the BFGS precision-floor test and
the theoretical standard deviations of a replication study.

Two box-constrained minimizers share the objective and the end-of-fit
standard errors.  A fit without a supplied start (``init=None``) runs
projected Newton on the exact Hessian (Bertsekas 1982) and converges when
the Newton decrement is below 1e-10 (1 + F).  A fit from a supplied start
runs projected BFGS to a relative projected-gradient tolerance.
:func:`hypothesis_test.test_k` decides which one a count gets: a start and
box are used only at their own count (the generating count of a study,
started at the truth), and every other count gets the default start in the
default box.
Both backtrack along the projection arc with an Armijo test; a trial point
where Sigma(theta) is not positive definite is treated as an infeasible
step and backtracked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matrixcalc import require_symmetric, unvech, vech_indices
from .model import (
    ModelSpec,
    ParamVector,
    StartError,
    UntestableError,
    WeightMatrixError,
    delta_jacobian,
    gradient_from_blocks,
    pack,
    sigma_derivative_factors,
    sigma_ff_min_eigenvalue,
    sigma_from_blocks,
    sigma_of_theta,
    unpack,
    weight_matrix,
)

_ARMIJO_C1 = 1e-4
_MIN_STEP_FRACTION = 1e-13
_MIN_DECREASE_ULPS = 4.0
_ACTIVE_EPS = 1e-3
_EIG_FLOOR = 1e-10
_DECREMENT_TOL = 1e-10
# relative projected-gradient tolerance of the BFGS loop; caps of both loops
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
        if not np.all(np.isfinite(self.q)):
            raise ValueError("realised covariance has non-finite entries")
        q = require_symmetric(self.q, name="realised covariance")
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

    ``avar`` is (Delta^T W^{-1} Delta)^{-1} evaluated at the estimate and
    ``se[i] = sqrt(avar[i, i] / n)``.  ``evaluations`` counts the contrast
    and gradient evaluations of the search, the start included.
    ``sigma_ff_min_eig`` and ``min_unique_variance`` surface boundary
    (Heywood-style) solutions; they are diagnostics, not errors.
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
    bad = np.flatnonzero(~np.all(np.isfinite(x), axis=1))
    if bad.size:
        raise ValueError(f"observation row {bad[0]} (t={path.times[bad[0]]!r}) "
                         "is not finite")
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
    return RealisedCov(q=(q + q.T) / 2.0, n=n, h=h)


def information(params):
    """Information Delta^T W^{-1} Delta at theta; raises WeightMatrixError
    when Sigma(theta) is not positive definite."""
    delta = delta_jacobian(params)
    return delta.T @ np.linalg.solve(weight_matrix(sigma_of_theta(params)), delta)


def contrast(rcov, params):
    """Weighted quadratic distance between vech(Q) and vech(Sigma(theta)).

    Non-negative, and zero exactly on the zero-residual manifold.  Raises
    WeightMatrixError when Sigma(theta) is not positive definite.
    """
    return _Contrast(rcov, ModelSpec(p=params.p, k=params.k)).evaluate(pack(params))[0]


def contrast_grad(rcov, params):
    """Analytic gradient of :func:`contrast` in the packed parameters."""
    return _Contrast(rcov, ModelSpec(p=params.p, k=params.k)).evaluate(pack(params))[1]


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
    does), and Sigma(theta) is positive definite; without a box only the
    latter.  ``name`` and ``fields`` name the point and what sets Sigma."""
    x = pack(params)
    if box is not None:
        if x.size != len(box):
            raise StartError(f"{name} has {x.size} coordinates, the box {len(box)}")
        outside = np.flatnonzero(~((x >= box[:, 0]) & (x <= box[:, 1])))
        if outside.size:
            i = outside[0]
            raise StartError(f"{name} theta:{i + 1}={x[i]:g} lies outside "
                             f"[{box[i, 0]:g}, {box[i, 1]:g}]")
    try:
        np.linalg.cholesky(sigma_of_theta(params))
    except np.linalg.LinAlgError:
        raise StartError(
            f"{name} Sigma(theta) of {fields} is not positive definite") from None


class _Contrast:
    """F = (1/2) tr[(S R)^2] of one (rcov, spec) on packed vectors.

    Built once per fit, it holds the index maps of the spec: it fills the
    loading matrix of each point in place and gathers Sigma_ff from the
    packed vector, without a ParamVector.  S = Sigma(theta)^{-1} is formed
    from one Cholesky factor L of Sigma(theta) as L^{-T} L^{-1}, and
    R = q - Sigma(theta); the gradient chains the Sigma derivative
    G = -(S R S + S R S R S) to theta.  Calling
    the object counts an evaluation (``evals``) and maps a point where
    Sigma(theta) is not positive definite, or F is not finite, to
    (inf, None).  S and G of the last point evaluated are kept, so
    :meth:`hessian` at the point a search has just accepted does not factor
    Sigma(theta) again.
    """

    def __init__(self, rcov, spec):
        p, k = spec.p, spec.k
        self.q = rcov.q
        self.spec = spec
        self.n_a = (p - k) * k
        self.rows, self.cols = vech_indices(k)
        self.weights = np.where(self.rows == self.cols, 1.0, 2.0)
        # packed position of each Sigma_ff entry
        self.ff_index = self.n_a + unvech(np.arange(self.rows.size)).astype(int)
        # row A[r, s], column Sigma_ff[s, c] at [s, c, r] after broadcasting
        self.a_ff = (np.arange(self.n_a).reshape(k, 1, -1), self.ff_index[:, :, None])
        self.lam = np.vstack([np.eye(k), np.zeros((p - k, k))])
        self.evals = 0
        self._last = None  # (x.tobytes(), S, G) of the last point evaluated

    def __call__(self, x):
        self.evals += 1
        try:
            f, grad = self.evaluate(x)
        except WeightMatrixError:
            return np.inf, None
        if not math.isfinite(f):
            return np.inf, None
        return f, grad

    def evaluate(self, x):
        """F and its gradient at x; raises WeightMatrixError when
        Sigma(theta) is not positive definite."""
        self._last = None
        k, n_a = self.spec.k, self.n_a
        self.lam[k:] = x[:n_a].reshape((self.spec.p - k, k), order="F")
        sigma_ff = x[self.ff_index]
        sigma = sigma_from_blocks(self.lam, sigma_ff, x[n_a + self.rows.size:])
        try:
            chol_inv = np.linalg.inv(np.linalg.cholesky(sigma))
        except np.linalg.LinAlgError:
            raise WeightMatrixError(
                "model covariance is not positive definite") from None
        s = chol_inv.T @ chol_inv
        sr = s @ (self.q - sigma)
        srs = sr @ s
        f = 0.5 * float((sr * sr.T).sum())
        g = -(srs + sr @ srs)
        self._last = (x.tobytes(), s, g)
        return f, gradient_from_blocks(g, self.lam, sigma_ff, self.rows, self.cols,
                                       self.weights)

    def hessian(self, x):
        """Exact Hessian of F at x,

            H = T(K, K) - T(S, G) - T(S, G)^T + tr(G d2Sigma/dtheta_i dtheta_j)

        with K = S q S and T(X, Y)_ij = tr(E_i X E_j Y), E_i = dSigma/dtheta_i.
        For the rank-2 factors E_i = u_i v_i^T + v_i u_i^T of
        :func:`model.sigma_derivative_factors` (w folded into v), T is four
        elementwise products of the q x q forms U'XU, U'XV, V'XV and those of
        Y, in O(p^2 q + p q^2).  The last term has two non-zero blocks:
        2 Sigma_ff x G[k:, k:] for A-A and 2 (G Lambda)[k+r, c] at
        (A[r, s], Sigma_ff[s, c]).  S and G are those of the last evaluation
        when it was at x.
        """
        if self._last is None or self._last[0] != x.tobytes():
            self.evaluate(x)
        _, s, g = self._last
        g = (g + g.T) / 2.0
        k, n_a = self.spec.k, self.n_a
        sigma_ff = x[self.ff_index]
        u, v, w = sigma_derivative_factors(self.lam, sigma_ff)
        v = v * w

        def forms(m):
            mu, mv = m @ u, m @ v
            return u.T @ mu, u.T @ mv, v.T @ mv

        def trace_products(xuu, xuv, xvv, yuu, yuv, yvv):
            t = xuv.T * yuv  # in place from here on: q x q temporaries cost
            t += xuv * yuv.T
            t += xvv * yuu.T
            t += xuu * yvv.T
            return t

        t = trace_products(*forms(s), *forms(g))
        k_forms = forms(s @ self.q @ s)
        h = trace_products(*k_forms, *k_forms)
        h -= t
        h -= t.T
        h[:n_a, :n_a] += 2.0 * (sigma_ff[:, None, :, None]
                                * g[None, k:, None, k:]).reshape(n_a, n_a)
        a_ff = 2.0 * (g @ self.lam)[k:].T
        h[self.a_ff] += a_ff
        h[self.a_ff[::-1]] += a_ff
        return (h + h.T) / 2.0


def _pg_norm(x, g, lo, hi):
    """Max-norm of the projected gradient: g without the entries held at a bound."""
    blocked = ((x <= lo) & (g > 0)) | ((x >= hi) & (g < 0))
    return float(np.abs(g).max(initial=0.0, where=~blocked))


def _bfgs(objective, x, f, g, lo, hi):
    """Projected BFGS with Armijo backtracking; the loop for supplied starts.

    Returns (x, f, g, iterations, converged, message).
    """
    identity = np.eye(objective.spec.q)
    h_inv, h_fresh, first_update = identity, True, True
    iterations, converged, message = 0, False, "max iterations reached"
    pg_norm = _pg_norm(x, g, lo, hi)

    min_decrease = _MIN_DECREASE_ULPS * np.finfo(float).eps

    def line_search(direction):
        # Armijo backtracking on the projected path; a step must decrease f
        # by an amount resolvable in float64, otherwise ulp-sized "progress"
        # feeds rounding noise into the curvature updates
        alpha = 1.0
        while alpha >= _MIN_STEP_FRACTION and objective.evals < _MAX_EVALS:
            x_try = np.minimum(np.maximum(x + alpha * direction, lo), hi)
            step = x_try - x
            if not step.any():
                return None
            f_try, g_try = objective(x_try)
            if (g_try is not None and f_try <= f + _ARMIJO_C1 * (g @ step)
                    and f - f_try >= min_decrease * (1.0 + abs(f))):
                return x_try, f_try, g_try
            alpha *= 0.5
        return None

    def at_precision_floor():
        # |grad| cannot fall below ~sqrt(2 lambda_max ulp(f)) in float64;
        # within a safety factor of that bound the point is converged to
        # machine resolution even though the nominal tolerance is unmet
        try:
            info = 2.0 * information(unpack(x, objective.spec))
            lam_max = float(np.linalg.eigvalsh(info)[-1])
        except WeightMatrixError:
            return False
        floor = np.sqrt(2.0 * max(lam_max, 1.0) * np.finfo(float).eps * (1.0 + abs(f)))
        return pg_norm <= 10.0 * floor

    while True:
        if pg_norm <= _GRAD_TOL * (1.0 + abs(f)):
            converged = True
            message = "projected gradient within tolerance"
            break
        if iterations >= _MAX_ITER:
            if at_precision_floor():
                converged = True
                message = "iteration cap at the floating-point floor"
            break
        if objective.evals >= _MAX_EVALS:
            if at_precision_floor():
                converged = True
                message = "evaluation budget reached at the floating-point floor"
            else:
                message = "evaluation budget exhausted"
            break
        iterations += 1
        d = -h_inv @ g
        if d @ g > -1e-14 * math.sqrt(d @ d) * math.sqrt(g @ g):
            h_inv, h_fresh, first_update = identity, True, True
            d = -g
        found = line_search(d)
        if found is None and not h_fresh:
            # stale curvature produces unusable directions along the box;
            # restart from steepest descent before giving up
            h_inv, h_fresh, first_update = identity, True, True
            found = line_search(-g)
        if found is None:
            # x, f and g are those the loop head found outside the tolerance
            if at_precision_floor():
                converged = True
                message = "descent exhausted at the floating-point floor"
            else:
                message = "line search failed to make progress"
            break

        x_new, f_new, g_new = found
        step = x_new - x
        y = g_new - g
        sy = step @ y
        if sy > 1e-10 * math.sqrt(step @ step) * math.sqrt(y @ y):
            if first_update:
                h_inv = (sy / (y @ y)) * identity
                first_update = False
            rho = 1.0 / sy
            v = identity - rho * (step[:, None] * y)
            h_inv = v @ h_inv @ v.T + rho * (step[:, None] * step)
            h_fresh = False
        x, f, g = x_new, f_new, g_new
        pg_norm = _pg_norm(x, g, lo, hi)
    return x, f, g, iterations, converged, message


def _projected_newton(objective, x, f, g, lo, hi):
    """Projected Newton on the exact Hessian (Bertsekas 1982).

    Coordinates within eps of a bound that the gradient pushes outward form
    the active set, eps = min(_ACTIVE_EPS (hi - lo), |x - clip(x - g)|).  On
    the free set the step solves |H| d = -g, where |H| takes the absolute
    eigenvalues of the Hessian floored at _EIG_FLOOR times the largest;
    active coordinates take a diagonally scaled gradient step.  An Armijo
    search along the projection arc x(alpha) = clip(x + alpha d) asks for a
    fraction of the decrease alpha (g_F' |H_FF|^{-1} g_F) plus the first-order
    decrease of the active coordinates.  It starts from the damped Newton
    step alpha = 1 / (1 + lambda), lambda^2 = g_F' |H_FF|^{-1} g_F / (1 + |F|),
    which keeps the first steps of a fit from a rough start short and tends
    to 1 as the fit converges.  The fit has converged when the Newton
    decrement g_F' |H_FF|^{-1} g_F is at most _DECREMENT_TOL (1 + |F|) and
    every active coordinate sits on its bound.

    Returns (x, f, g, iterations, converged, message); the message is
    ``decrement``, ``decrement_at_bound`` with the active coordinates,
    ``max_iter`` or ``line_search``.
    """
    iterations = 0
    while True:
        h = objective.hessian(x)
        r = x - np.minimum(np.maximum(x - g, lo), hi)
        eps = np.minimum(_ACTIVE_EPS * (hi - lo), math.sqrt(r @ r))
        active = ((x <= lo + eps) & (g > 0)) | ((x >= hi - eps) & (g < 0))
        free = ~active
        lam, vecs = np.linalg.eigh(h[free][:, free])
        lam = np.abs(lam)
        lam = np.maximum(lam, _EIG_FLOOR * max(float(np.max(lam, initial=0.0)),
                                               np.finfo(float).tiny))
        d = np.zeros_like(x)
        d[free] = -vecs @ ((vecs.T @ g[free]) / lam)
        decrement = float(-g[free] @ d[free])
        if (decrement <= _DECREMENT_TOL * (1.0 + abs(f))
                and np.all((x[active] == lo[active]) | (x[active] == hi[active]))):
            if np.any(active):
                coords = ", ".join(f"theta:{i + 1}" for i in np.flatnonzero(active))
                return x, f, g, iterations, True, f"decrement_at_bound ({coords})"
            return x, f, g, iterations, True, "decrement"
        if iterations >= _MAX_ITER:
            return x, f, g, iterations, False, "max_iter"
        iterations += 1
        d[active] = -g[active] / np.maximum(np.abs(np.diag(h))[active],
                                            np.finfo(float).tiny)
        alpha = 1.0 / (1.0 + np.sqrt(decrement / (1.0 + abs(f))))
        while True:
            if alpha < _MIN_STEP_FRACTION or objective.evals >= _MAX_EVALS:
                return x, f, g, iterations, False, "line_search"
            x_try = np.minimum(np.maximum(x + alpha * d, lo), hi)
            f_try, g_try = objective(x_try)
            wanted = alpha * decrement + g[active] @ (x[active] - x_try[active])
            if g_try is not None and f - f_try >= _ARMIJO_C1 * wanted:
                break
            alpha *= 0.5
        x, f, g = x_try, f_try, g_try


def fit(rcov, spec, init=None, bounds=None):
    """Minimize the contrast over the box and report the fit.

    ``bounds`` is a (q, 2) array of [lower, upper] per packed coordinate;
    when omitted the data-scaled :func:`default_bounds` box is used.  A
    supplied ``init`` is refined by projected BFGS.  With ``init=None`` the
    fit starts from :func:`default_init` and runs projected Newton on the
    exact Hessian.  A fit that exhausts its iteration or evaluation cap
    (``_MAX_ITER``, ``_MAX_EVALS``) or stalls before meeting its
    convergence test is returned with ``converged=False`` rather than
    raised.  Raises UntestableError when the count has more parameters q
    than the p(p+1)/2 moments, and StartError when the start fails
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

    if init is None:
        # pull clipped coordinates slightly inside the box: a corner start
        # leaves the first steps nowhere to go
        margin = 0.01 * (hi - lo)
        init = unpack(np.clip(pack(default_init(rcov, spec)), lo + margin, hi - margin),
                      spec)
        minimize = _projected_newton
    else:
        minimize = _bfgs
    check_start(init, bounds)

    x = pack(init)
    objective = _Contrast(rcov, spec)
    # F or the information may overflow: the point maps to inf, the SEs are not finite
    with np.errstate(over="ignore", invalid="ignore"):
        f, g = objective(x)
        if g is None:
            raise StartError("start contrast is not finite")
        x, f, g, iterations, converged, message = minimize(objective, x, f, g, lo, hi)
        pg_norm = _pg_norm(x, g, lo, hi)
        theta_hat = unpack(x, spec)
        try:
            info = information(theta_hat)
            try:
                avar = np.linalg.inv(info)
            except np.linalg.LinAlgError:
                avar = np.linalg.pinv(info)
                message += "; information matrix singular, pseudoinverse used"
            se = np.sqrt(np.clip(np.diag(avar), 0.0, None) / rcov.n)
        except WeightMatrixError:
            avar = np.full((spec.q, spec.q), np.nan)
            se = np.full(spec.q, np.nan)
            message += "; weight matrix not PD at the estimate"
            converged = False

    return FitResult(
        theta_hat=theta_hat,
        contrast=f,
        avar=avar,
        se=se,
        converged=converged,
        iterations=iterations,
        evaluations=objective.evals,
        gradient_norm=pg_norm,
        n=rcov.n,
        sigma_ff_min_eig=sigma_ff_min_eigenvalue(theta_hat),
        min_unique_variance=float(np.min(theta_hat.sigma_ee)),
        message=message,
    )
