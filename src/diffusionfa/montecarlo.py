"""Monte Carlo replication engine: simulate, estimate and test repeatedly,
then aggregate into mean/SD tables with theoretical comparisons, rejection
counts, quartiles and figure data (histogram / QQ / ECDF columns).

Replication r draws its simulation seed deterministically from
``SeedSequence(seed_base, spawn_key=(r,))``, so runs are reproducible and
independent of execution order; serial and parallel runs produce identical
aggregates byte for byte.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtri

from .config import (ConfigError, _is_int, _is_number, _require, sim_config_from_json,
                     sim_config_to_json, spec_to_json, write_manifest)
from .estimator import box_violation, information, parameter_box, realised_cov
from .hypothesis_test import chi2_quantile, test_k
from .matrixcalc import vech, vech_indices
from .model import ModelSpec, pack, sigma_of_theta
from .sde import SimConfig, SimulationError, implied_params, simulate

_MANIFEST_SEED_LIMIT = 10000


@dataclass(frozen=True)
class Experiment:
    """A full replication study.

    ``sim`` is the per-replication template (its own seed is ignored);
    the generating parameters, :attr:`truth`, are implied by it (factor
    dispersion times its transpose, squared unique dispersions).  Each
    count in ``k_grid`` is fit and tested by
    :func:`hypothesis_test.test_k`: the fit at the generating count starts
    at the truth, and fits at other counts start from the default
    initializer.  ``bounds_blocks`` maps the block names ``loading`` /
    ``factor_cov`` / ``unique_var`` to the (lower, upper) pairs of the
    :func:`estimator.parameter_box` that the generating-count fit searches;
    a block left out, or ``None``, is the flat [-30, 30], and the truth
    must lie in the box.  Boundary-tolerant studies need a box admitting
    non-positive unique variances there, or the truncation inflates the
    test statistic.  Fits at other counts always use the
    data-scaled default box: their pseudo-optima live at the scale of the
    data, which a replication box like [-30, 30] cannot contain.
    ``keep_draws`` lists statistic keys (e.g. ``theta:1``, ``rcov:1,1``,
    ``tstat:2``) whose raw replication draws are retained for figure data;
    ``all`` retains everything.  Every field is checked on construction
    (see docs/file-formats.md); a bad one raises :class:`ConfigError`.
    """

    sim: SimConfig
    replications: int
    k_grid: tuple = (None,)
    alphas: tuple = (0.05,)
    keep_draws: tuple = ()
    outputs: tuple = ("rcov", "theta", "tstat")
    bounds_blocks: dict | None = None
    seed_base: int = 0

    def __post_init__(self):
        # every field is checked here, before any replication is simulated
        spec = self.spec
        for field in ("k_grid", "alphas", "keep_draws", "outputs"):
            value = getattr(self, field)
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{field} must be a list, got {value!r}")
            object.__setattr__(self, field, tuple(value))
        if not _is_int(self.replications) or self.replications < 1:
            raise ConfigError(
                f"replications must be >= 1 (an integer), got {self.replications!r}")
        if not _is_int(self.seed_base) or self.seed_base < 0:
            raise ConfigError(
                f"seed_base must be a non-negative integer, got {self.seed_base!r}")
        k_grid = tuple(spec.k if k is None else k for k in self.k_grid)
        for k in k_grid:
            if not (_is_int(k) and 1 <= k < spec.p and replace(spec, k=k).testable):
                raise ConfigError(
                    f"k_grid entry {k!r} is not an integer 1 <= k < p={spec.p} "
                    "leaving df >= 1")
        if len(set(k_grid)) < len(k_grid):
            raise ConfigError(f"k_grid {list(k_grid)} repeats a count")
        for a in self.alphas:
            if not (_is_number(a) and 0.0 < a < 1.0):
                raise ConfigError(f"alphas entry {a!r} is not a number in (0, 1)")
        blocks = {} if self.bounds_blocks is None else self.bounds_blocks
        if not (isinstance(blocks, dict)
                and set(blocks) <= {"loading", "factor_cov", "unique_var"}):
            raise ConfigError("bounds must map loading / factor_cov / unique_var "
                              f"to pairs, got {blocks!r}")
        for name, pair in blocks.items():
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                    and all(map(_is_number, pair)) and pair[0] < pair[1]):
                raise ConfigError(
                    f"bounds {name!r} must be numbers lower < upper, got {pair!r}")
        if spec.k in k_grid:
            # the generating-count fit starts at the truth inside this box
            violation = box_violation(pack(self.truth), parameter_box(spec, **blocks))
            if violation:
                raise ConfigError(f"truth {violation}, the study's bounds")
        # theta draws exist only when the generating count is fit
        fitted_q = spec.q if spec.k in k_grid else 0
        known = set(_moment_names(spec.p, fitted_q))
        known.update(["all"] + [f"tstat:{k}" for k in k_grid])
        for key in self.keep_draws:
            if not (isinstance(key, str) and key in known):
                raise ConfigError(
                    f"keep_draws entry {key!r} is neither 'all' nor a statistic "
                    "of this study")
        for name in self.outputs:
            if name not in ("rcov", "theta", "tstat"):
                raise ConfigError(
                    f"outputs entry {name!r} is not one of rcov, theta, tstat")
        object.__setattr__(self, "k_grid", tuple(int(k) for k in k_grid))
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        object.__setattr__(self, "bounds_blocks", {
            name: (float(lo), float(hi)) for name, (lo, hi) in blocks.items()})

    @property
    def spec(self):
        return self.sim.spec

    @property
    def truth(self):
        """Generating parameters, :func:`sde.implied_params` of ``sim``."""
        return implied_params(self.sim)


@dataclass(frozen=True)
class StatSummary:
    name: str
    sample_mean: float
    true_value: float
    sample_sd: float
    theoretical_sd: float


@dataclass(frozen=True)
class Aggregate:
    """Order-independent reduction of a replication study."""

    rcov_rows: tuple
    theta_rows: tuple
    tstat_rows: tuple
    rejections: dict  # (k, alpha) -> count over every replication
    included: dict  # k -> replications entering moment aggregates
    exclusions: dict  # k -> non-converged replications (moments only)
    quartiles: dict  # k -> (min, q1, median, q3, max) of the statistic
    df_by_k: dict
    draws: dict  # statistic key -> ndarray of retained raw draws
    replications: int
    seed_base: int
    seeds: tuple
    spec: ModelSpec
    truth_packed: np.ndarray


def replication_seed(seed_base, r):
    """64-bit simulation seed of replication r."""
    ss = np.random.SeedSequence(entropy=int(seed_base), spawn_key=(int(r),))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def theoretical_sd_table(truth, spec):
    """Asymptotic standard deviations at the truth for the given n.

    Rows are (name, true_value, theoretical_sd): sqrt(diag W / n) for each
    vech(Q) entry (i, j), where diag W is Sigma_ii Sigma_jj + Sigma_ij^2, then
    sqrt(diag (Delta^T W^{-1} Delta)^{-1} / n) for each packed parameter.
    """
    if spec.n < 1:
        raise ValueError("spec must carry the sample size n")
    sigma = sigma_of_theta(truth)
    rr, cc = vech_indices(spec.p)
    w_sd = np.sqrt((sigma[rr, rr] * sigma[cc, cc] + sigma[rr, cc] ** 2) / spec.n)
    t_sd = np.sqrt(np.diag(np.linalg.inv(information(truth))) / spec.n)
    theta0 = pack(truth)
    return [(name, float(true), float(sd)) for name, true, sd in zip(
        _moment_names(spec.p, theta0.size),
        np.concatenate([vech(sigma, check=False), theta0]),
        np.concatenate([w_sd, t_sd]))]


def _moment_names(p, q):
    """Statistic names of vech(Q) (lower triangle, 1-based) and of theta."""
    rr, cc = vech_indices(p)
    return ([f"rcov:{i + 1},{j + 1}" for i, j in zip(rr, cc)]
            + [f"theta:{j}" for j in range(1, q + 1)])


def _replicate(exp, r):
    """One replication: simulate, realised covariance, test every k."""
    seed = replication_seed(exp.seed_base, r)
    try:
        path = simulate(exp.sim.with_seed(seed))
    except SimulationError as exc:
        raise SimulationError(
            exc.step, f"replication {r} (seed {seed}): {exc}") from None
    rcov = realised_cov(path)
    truth = exp.truth
    box = parameter_box(exp.spec, **exp.bounds_blocks)
    record = {
        "seed": seed,
        "rcov_vech": vech(rcov.q, check=False),
        "stats": {},
        "theta": None,
        "theta_converged": False,
    }
    for k in exp.k_grid:
        tr = test_k(rcov, exp.spec, k, init=truth, bounds=box)
        record["stats"][k] = (tr.statistic, tr.fit.converged)
        if k == truth.k:
            record["theta"] = pack(tr.fit.theta_hat)
            record["theta_converged"] = tr.fit.converged
    return record


def run(exp, n_jobs=1):
    """Execute the experiment and reduce it to an :class:`Aggregate`.

    Every statistic (``rcov:i,j``, ``theta:j``, ``tstat:k``) maps to its
    moment draws, true value and theoretical SD, and one rule turns each
    into a table row.  Non-converged fits are left out of the theta and
    tstat moments and counted; rejections, quartiles and tstat draws use
    every replication.  With ``n_jobs > 1`` replications execute in
    separate processes; the reduction is identical to the serial one.
    """
    R = exp.replications
    if n_jobs > 1:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            chunk = max(1, R // (8 * n_jobs))
            records = list(pool.map(_replicate, [exp] * R, range(R),
                                    chunksize=chunk))
    else:
        records = [_replicate(exp, r) for r in range(R)]

    spec = exp.spec
    theta0 = pack(exp.truth)
    thetas = [rec["theta"] for rec in records if rec["theta_converged"]]
    columns = [*np.vstack([rec["rcov_vech"] for rec in records]).T,
               *np.reshape(thetas, (-1, theta0.size)).T]
    # name -> (moment draws, true value, theoretical SD); tstat moments use
    # converged fits only, while decisions, order statistics and draws use
    # every replication: the statistic is well defined either way
    stats = {name: (col, true, sd) for (name, true, sd), col
             in zip(theoretical_sd_table(exp.truth, spec), columns)}
    draw_sets = {name: col for name, (col, _, _) in stats.items()}
    rejections, included, exclusions, quartiles, df_by_k = {}, {}, {}, {}, {}
    for k in exp.k_grid:
        df = df_by_k[k] = replace(spec, k=k).df
        all_stats = np.array([rec["stats"][k][0] for rec in records])
        good = np.array([rec["stats"][k][1] for rec in records], dtype=bool)
        stats[f"tstat:{k}"] = (all_stats[good], float(df), float(np.sqrt(2.0 * df)))
        draw_sets[f"tstat:{k}"] = all_stats
        included[k] = int(np.sum(good))
        exclusions[k] = R - included[k]
        q1, q2, q3 = np.percentile(all_stats, [25, 50, 75])
        quartiles[k] = (float(np.min(all_stats)), float(q1), float(q2),
                        float(q3), float(np.max(all_stats)))
        for alpha in exp.alphas:
            rejections[(k, alpha)] = int(np.sum(all_stats > chi2_quantile(df, alpha)))

    rows = {"rcov": [], "theta": [], "tstat": []}
    for name, (col, true, sd) in stats.items():
        rows[name.split(":")[0]].append(StatSummary(
            name, float(np.mean(col)) if col.size else float("nan"), true,
            float(np.std(col, ddof=1)) if col.size > 1 else 0.0, sd))
    keep = set(exp.keep_draws)
    draws = {name: col for name, col in draw_sets.items()
             if col.size and ("all" in keep or name in keep)}

    return Aggregate(
        rcov_rows=tuple(rows["rcov"]),
        theta_rows=tuple(rows["theta"]),
        tstat_rows=tuple(rows["tstat"]),
        rejections=rejections,
        included=included,
        exclusions=exclusions,
        quartiles=quartiles,
        df_by_k=df_by_k,
        draws=draws,
        replications=R,
        seed_base=exp.seed_base,
        seeds=tuple(rec["seed"] for rec in records),
        spec=spec,
        truth_packed=theta0,
    )


def figure_data(agg, statistic):
    """Histogram / QQ / ECDF columns for one retained statistic.

    Returns (header, columns): sorted raw draws, draws standardized by the
    statistic's table row (true value and theoretical SD; df and sqrt(2 df)
    for test statistics), reference quantiles at the midpoint grid
    (standard normal for rcov and theta statistics, chi-squared for test
    statistics) and ECDF heights.
    """
    if statistic not in agg.draws:
        raise KeyError(
            f"draws for {statistic!r} were not retained; add it to keep_draws")
    draws = np.sort(agg.draws[statistic])
    R = draws.size
    if R == 0:
        raise ValueError(f"no draws retained for {statistic!r}")
    probs = (np.arange(1, R + 1) - 0.5) / R
    row = next(row for row in agg.rcov_rows + agg.theta_rows + agg.tstat_rows
               if row.name == statistic)
    standardized = (draws - row.true_value) / row.theoretical_sd
    if statistic.startswith("tstat:"):
        df = agg.df_by_k[int(statistic.split(":")[1])]
        ref = np.array([chi2_quantile(df, 1.0 - pr) for pr in probs])
    else:
        ref = ndtri(probs)
    ecdf = np.arange(1, R + 1) / R
    header = ["draw", "standardized", "reference_quantile", "ecdf"]
    return header, np.column_stack([draws, standardized, ref, ecdf])


def _format(value):
    return repr(float(value))


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_format(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def write_outputs(agg, outdir, exp):
    """Write the requested tables, figure data and the run manifest.

    Output is deterministic: identical aggregates produce byte-identical
    files.  Returns the list of paths written.
    """
    os.makedirs(outdir, exist_ok=True)
    written = []
    header = ["statistic", "sample_mean", "true", "sample_sd", "theoretical_sd"]

    for family, rows in (("rcov", agg.rcov_rows), ("theta", agg.theta_rows),
                         ("tstat", agg.tstat_rows)):
        if family in exp.outputs:
            path = os.path.join(outdir, f"table_{family}.csv")
            _write_csv(path, header, [(s.name, s.sample_mean, s.true_value,
                                       s.sample_sd, s.theoretical_sd) for s in rows])
            written.append(path)
    if "tstat" in exp.outputs:
        path = os.path.join(outdir, "quartiles_tstat.csv")
        _write_csv(path, ["k", "min", "q1", "median", "q3", "max"],
                   [(k,) + agg.quartiles[k] for k in sorted(agg.quartiles)])
        written.append(path)
        path = os.path.join(outdir, "rejections.csv")
        _write_csv(path, ["k", "alpha", "rejections", "included", "excluded"],
                   [(k, alpha, agg.rejections[(k, alpha)], agg.included[k],
                     agg.exclusions[k])
                    for (k, alpha) in sorted(agg.rejections)])
        written.append(path)

    for key in sorted(agg.draws):
        fig_header, cols = figure_data(agg, key)
        path = os.path.join(outdir, f"figure_{key.replace(':', '_').replace(',', '_')}.csv")
        _write_csv(path, fig_header, cols)
        written.append(path)

    path = write_manifest(os.path.join(outdir, "manifest.json"), {
        "replications": agg.replications,
        "seed_base": agg.seed_base,
        "seed_rule": "SeedSequence(seed_base, spawn_key=(r,)) -> uint64",
        "seeds": list(agg.seeds) if agg.replications <= _MANIFEST_SEED_LIMIT else [],
        "exclusions": {str(k): v for k, v in sorted(agg.exclusions.items())},
        "spec": spec_to_json(agg.spec),
        "truth": [float(v) for v in agg.truth_packed],
        "sim": sim_config_to_json(exp.sim),
        "k_grid": list(exp.k_grid),
        "alphas": list(exp.alphas),
    })
    written.append(path)
    return written


def experiment_from_json(doc):
    """Parse an experiment document (see docs/file-formats.md)."""
    sim = sim_config_from_json(_require(doc, "sim"), path="sim")
    return Experiment(
        sim=sim,
        replications=_require(doc, "replications"),
        k_grid=doc.get("k_grid", [sim.spec.k]),
        alphas=doc.get("alphas", [0.05]),
        keep_draws=doc.get("keep_draws", []),
        outputs=doc.get("outputs", ["rcov", "theta", "tstat"]),
        bounds_blocks=doc.get("bounds"),
        seed_base=doc.get("seed_base", 0),
    )
