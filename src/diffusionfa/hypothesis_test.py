"""Goodness-of-fit test for the factor count and sequential selection.

For a hypothesised count k*, the statistic is n times the minimized
contrast,

    T = n * F(Q, Sigma(theta_hat)),

which is asymptotically chi-squared with p(p+1)/2 - q_{k*} degrees of
freedom under the null; the level-alpha test rejects when T exceeds the
upper-alpha chi-squared point.  The selection procedure tests k = 1, 2,
... and stops at the first acceptance; if every testable k is rejected the
conclusion is that the data carry no factor structure.

Chi-squared tail probabilities and quantiles come from
``scipy.special.chdtrc`` / ``chdtri`` (Cephes), the routines behind
``scipy.stats.chi2``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from scipy.special import chdtrc, chdtri

from .estimator import FitResult, fit
from .model import ModelSpec, UntestableError


def chi2_sf(df, x):
    """Survival function of the chi-squared distribution with df degrees."""
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if x < 0:
        raise ValueError("argument must be non-negative")
    return float(chdtrc(df, x))


def chi2_quantile(df, alpha):
    """Upper alpha point: the x with chi2_sf(df, x) == alpha."""
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    return float(chdtri(df, alpha))


@dataclass(frozen=True)
class TestResult:
    """Outcome of the goodness-of-fit test at one hypothesised count."""

    k_star: int
    statistic: float
    df: int
    alpha: float
    critical: float
    p_value: float
    reject: bool
    fit: FitResult


@dataclass(frozen=True)
class SelectionResult:
    """Sequential selection outcome: the first accepted count, or None when
    every testable count was rejected (no factor structure)."""

    chosen_k: int | None
    trail: tuple


def test_k(rcov, spec, k_star, alpha=0.05, init=None, bounds=None):
    """Test the null that the factor count equals ``k_star``.

    This is the one place a count becomes a fit.  ``init`` and ``bounds``
    (a start and its box, e.g. the generating parameters of a study) are
    used only when ``init`` has ``k_star`` factors; every other count starts
    from the default start in the default box.  The statistic is exactly
    ``rcov.n`` times the minimized contrast of the k_star-factor fit and is
    calibrated against chi-squared with df = p(p+1)/2 - q_{k_star}, worked
    out from p and k_star.  Raises UntestableError when k_star is outside
    1 <= k_star < p or is not :attr:`ModelSpec.testable`.  A non-converged
    fit is propagated in the result with its flag, not raised.
    """
    k_star = int(k_star)
    if not 1 <= k_star < spec.p:
        raise UntestableError(f"k={k_star} is outside 1 <= k < p={spec.p}")
    sub_spec = replace(spec, k=k_star)
    df = sub_spec.df
    if not sub_spec.testable:
        raise UntestableError(
            f"k={k_star} leaves df={df} <= 0 (q={sub_spec.q}, moments={sub_spec.pbar})")
    if init is None or init.k != k_star:
        init = bounds = None
    result = fit(rcov, sub_spec, init=init, bounds=bounds)
    statistic = rcov.n * result.contrast
    critical = chi2_quantile(df, alpha)
    p_value = chi2_sf(df, statistic)
    return TestResult(
        k_star=k_star,
        statistic=float(statistic),
        df=df,
        alpha=float(alpha),
        critical=float(critical),
        p_value=float(p_value),
        reject=bool(statistic > critical),
        fit=result,
    )


def max_testable_k(p):
    """Largest k < p whose count is :attr:`ModelSpec.testable`; 0 if none."""
    return max((k for k in range(1, p) if ModelSpec(p=p, k=k).testable), default=0)


def select_k(rcov, spec, alpha=0.05):
    """Test k = 1, 2, ... in turn and stop at the first acceptance.

    Each count is fit from the default start in the default box (the
    parameter spaces differ across k, so no warm starts).  Fit failures at
    some k are recorded in the trail and the scan continues.  Exhausting
    every testable count means no factor structure: ``chosen_k`` is None.
    Raises UntestableError when no count is testable (p <= 3).
    """
    top = max_testable_k(spec.p)
    if not top:
        raise UntestableError(f"no factor count is testable at p={spec.p}")
    trail = []
    chosen = None
    for k in range(1, top + 1):
        result = test_k(rcov, spec, k, alpha=alpha)
        trail.append(result)
        if not result.reject:
            chosen = k
            break
    return SelectionResult(chosen_k=chosen, trail=tuple(trail))
