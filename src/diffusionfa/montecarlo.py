"""Monte Carlo replication engine: simulate, estimate and test repeatedly,
then aggregate into mean/SD tables with theoretical comparisons, rejection
counts, quartiles and figure data (histogram / QQ / ECDF columns).

Replication r draws its simulation seed deterministically from
``SeedSequence(seed_base, spawn_key=(r,))``, so runs are reproducible and
independent of execution order; serial and parallel runs produce identical
aggregates byte for byte.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtri

from . import __version__
from .config import ConfigError, sim_config_to_json
from .estimator import information, parameter_box, realised_cov
from .hypothesis_test import chi2_quantile, test_k
from .matrixcalc import vech, vech_indices
from .model import ModelSpec, ParamVector, pack, sigma_of_theta
from .sde import SimConfig, implied_params, simulate

_MANIFEST_SEED_LIMIT = 10000


@dataclass(frozen=True)
class Experiment:
    """A full replication study.

    ``sim`` is the per-replication template (its own seed is ignored);
    ``truth`` is the generating parameter vector and must be consistent
    with the template (factor dispersion times its transpose, squared
    unique dispersions).  Each count in ``k_grid`` is fit and tested by
    :func:`hypothesis_test.test_k`: the fit at the generating count starts
    at the truth, and fits at other counts start from the default
    initializer.  ``bounds_blocks`` optionally maps the block names
    ``loading`` / ``factor_cov`` / ``unique_var`` to (lower, upper) pairs
    for the fit at the generating count -- boundary-tolerant studies need a
    box admitting non-positive unique variances there, or the truncation
    inflates the test statistic.  Fits at other counts always use the
    data-scaled default box: their pseudo-optima live at the scale of the
    data, which a replication box like [-30, 30] cannot contain.
    ``keep_draws`` lists statistic keys (e.g. ``theta:1``, ``rcov:1,1``,
    ``tstat:2``) whose raw replication draws are retained for figure data;
    ``all`` retains everything.
    """

    sim: SimConfig
    truth: ParamVector
    replications: int
    k_grid: tuple = (None,)
    alphas: tuple = (0.05,)
    keep_draws: tuple = ()
    outputs: tuple = ("rcov", "theta", "tstat")
    bounds_blocks: dict | None = None
    seed_base: int = 0

    def __post_init__(self):
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")
        k_grid = tuple(self.sim.spec.k if k is None else int(k) for k in self.k_grid)
        object.__setattr__(self, "k_grid", k_grid)
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        object.__setattr__(self, "keep_draws", tuple(self.keep_draws))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        implied = implied_params(self.sim)
        for mine, theirs, name in (
            (self.truth.a, implied.a, "loading block"),
            (self.truth.sigma_ff, implied.sigma_ff, "factor covariance"),
            (self.truth.sigma_ee, implied.sigma_ee, "unique variances"),
        ):
            if not np.allclose(mine, theirs, rtol=1e-10, atol=1e-12):
                raise ConfigError(
                    f"truth {name} is inconsistent with the simulation template")

    @property
    def spec(self):
        return self.sim.spec


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
    rows = []
    rr, cc = vech_indices(spec.p)
    sig_vech = vech(sigma, check=False)
    w_sd = np.sqrt((sigma[rr, rr] * sigma[cc, cc] + sigma[rr, cc] ** 2) / spec.n)
    for idx, (i, j) in enumerate(zip(rr, cc)):
        rows.append((f"rcov:{i + 1},{j + 1}", float(sig_vech[idx]), float(w_sd[idx])))
    avar = np.linalg.inv(information(truth))
    t_sd = np.sqrt(np.diag(avar) / spec.n)
    theta0 = pack(truth)
    for j in range(theta0.size):
        rows.append((f"theta:{j + 1}", float(theta0[j]), float(t_sd[j])))
    return rows


def _replicate(exp, r):
    """One replication: simulate, realised covariance, test every k."""
    seed = replication_seed(exp.seed_base, r)
    path = simulate(exp.sim.with_seed(seed))
    rcov = realised_cov(path)
    truth = exp.truth
    box = None
    if exp.bounds_blocks is not None:
        box = parameter_box(replace(exp.spec, k=truth.k), **exp.bounds_blocks)
    record = {
        "r": r,
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


def _replicate_star(args):
    return _replicate(*args)


def run(exp, n_jobs=1):
    """Execute the experiment and reduce it to an :class:`Aggregate`.

    Per-replication failures of the optimizer are excluded from moment
    aggregates and counted; configuration errors abort.  With ``n_jobs >
    1`` replications execute in separate processes; the reduction is
    identical to the serial one.
    """
    R = exp.replications
    if n_jobs > 1:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            chunk = max(1, R // (8 * n_jobs))
            records = list(pool.map(_replicate_star,
                                    ((exp, r) for r in range(R)),
                                    chunksize=chunk))
    else:
        records = [_replicate(exp, r) for r in range(R)]
    records.sort(key=lambda rec: rec["r"])

    spec = exp.spec
    truth = exp.truth
    theta0 = pack(truth)
    seeds = tuple(rec["seed"] for rec in records)

    theory = theoretical_sd_table(truth, spec)
    theory_by_name = {name: (true, sd) for name, true, sd in theory}

    rcov_draws = np.vstack([rec["rcov_vech"] for rec in records])
    rr, cc = vech_indices(spec.p)
    rcov_rows = []
    for idx, (i, j) in enumerate(zip(rr, cc)):
        name = f"rcov:{i + 1},{j + 1}"
        true, sd = theory_by_name[name]
        col = rcov_draws[:, idx]
        rcov_rows.append(StatSummary(name, float(np.mean(col)), true,
                                     float(np.std(col, ddof=1)) if R > 1 else 0.0,
                                     sd))

    theta_mask = np.array([rec["theta_converged"] for rec in records], dtype=bool)
    theta_draws = (np.vstack([rec["theta"] for rec, ok in zip(records, theta_mask)
                              if ok])
                   if np.any(theta_mask) else np.empty((0, theta0.size)))
    theta_rows = []
    for jdx in range(theta0.size):
        name = f"theta:{jdx + 1}"
        true, sd = theory_by_name[name]
        col = theta_draws[:, jdx]
        mean = float(np.mean(col)) if col.size else float("nan")
        ssd = float(np.std(col, ddof=1)) if col.size > 1 else 0.0
        theta_rows.append(StatSummary(name, mean, true, ssd, sd))

    tstat_rows = []
    rejections = {}
    included = {}
    exclusions = {}
    quartiles = {}
    df_by_k = {}
    tstat_draws_by_k = {}
    for k in exp.k_grid:
        df = replace(spec, k=k).df
        df_by_k[k] = df
        pairs = [rec["stats"][k] for rec in records]
        good = np.array([ok for _, ok in pairs], dtype=bool)
        all_stats = np.array([s for s, _ in pairs])
        conv_stats = all_stats[good]
        included[k] = int(np.sum(good))
        exclusions[k] = R - included[k]
        # the statistic is well defined whether or not the optimizer met its
        # gradient criterion, so decisions and order statistics use every
        # replication; only the moment columns restrict to converged fits
        tstat_draws_by_k[k] = all_stats
        name = f"tstat:{k}"
        mean = float(np.mean(conv_stats)) if conv_stats.size else float("nan")
        ssd = float(np.std(conv_stats, ddof=1)) if conv_stats.size > 1 else 0.0
        tstat_rows.append(StatSummary(name, mean, float(df), ssd,
                                      float(np.sqrt(2.0 * df))))
        q1, q2, q3 = np.percentile(all_stats, [25, 50, 75])
        quartiles[k] = (float(np.min(all_stats)), float(q1), float(q2),
                        float(q3), float(np.max(all_stats)))
        for alpha in exp.alphas:
            crit = chi2_quantile(df, alpha)
            rejections[(k, alpha)] = int(np.sum(all_stats > crit))

    draws = {}
    want_all = "all" in exp.keep_draws
    def _keep(key, values):
        if want_all or key in exp.keep_draws:
            draws[key] = np.asarray(values, dtype=float)

    for idx, (i, j) in enumerate(zip(rr, cc)):
        _keep(f"rcov:{i + 1},{j + 1}", rcov_draws[:, idx])
    for jdx in range(theta0.size):
        if theta_draws.size:
            _keep(f"theta:{jdx + 1}", theta_draws[:, jdx])
    for k in exp.k_grid:
        _keep(f"tstat:{k}", tstat_draws_by_k[k])

    return Aggregate(
        rcov_rows=tuple(rcov_rows),
        theta_rows=tuple(theta_rows),
        tstat_rows=tuple(tstat_rows),
        rejections=rejections,
        included=included,
        exclusions=exclusions,
        quartiles=quartiles,
        df_by_k=df_by_k,
        draws=draws,
        replications=R,
        seed_base=exp.seed_base,
        seeds=seeds,
        spec=spec,
        truth_packed=theta0,
    )


def figure_data(agg, statistic):
    """Histogram / QQ / ECDF columns for one retained statistic.

    Returns (header, columns): sorted raw draws, standardized draws
    (theoretical mean and SD), reference quantiles at the midpoint grid
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
    if statistic.startswith("tstat:"):
        k = int(statistic.split(":")[1])
        df = agg.df_by_k[k]
        standardized = (draws - df) / np.sqrt(2.0 * df)
        ref = np.array([chi2_quantile(df, 1.0 - pr) for pr in probs])
    else:
        rows = {row.name: row for row in agg.rcov_rows + agg.theta_rows}
        row = rows[statistic]
        standardized = (draws - row.true_value) / row.theoretical_sd
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


def write_outputs(agg, outdir, exp=None):
    """Write the requested tables, figure data and the run manifest.

    Output is deterministic: identical aggregates produce byte-identical
    files.  Returns the list of paths written.
    """
    os.makedirs(outdir, exist_ok=True)
    written = []
    outputs = exp.outputs if exp is not None else ("rcov", "theta", "tstat")
    header = ["statistic", "sample_mean", "true", "sample_sd", "theoretical_sd"]

    def stat_rows(rows):
        return [(s.name, s.sample_mean, s.true_value, s.sample_sd,
                 s.theoretical_sd) for s in rows]

    if "rcov" in outputs:
        path = os.path.join(outdir, "table_rcov.csv")
        _write_csv(path, header, stat_rows(agg.rcov_rows))
        written.append(path)
    if "theta" in outputs:
        path = os.path.join(outdir, "table_theta.csv")
        _write_csv(path, header, stat_rows(agg.theta_rows))
        written.append(path)
    if "tstat" in outputs:
        path = os.path.join(outdir, "table_tstat.csv")
        _write_csv(path, header, stat_rows(agg.tstat_rows))
        written.append(path)
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

    manifest = {
        "version": __version__,
        "replications": agg.replications,
        "seed_base": agg.seed_base,
        "seed_rule": "SeedSequence(seed_base, spawn_key=(r,)) -> uint64",
        "seeds": list(agg.seeds) if agg.replications <= _MANIFEST_SEED_LIMIT else [],
        "exclusions": {str(k): v for k, v in sorted(agg.exclusions.items())},
        "spec": {"p": agg.spec.p, "k": agg.spec.k, "regime": agg.spec.regime,
                 "n": agg.spec.n, "h": agg.spec.h},
        "truth": [float(v) for v in agg.truth_packed],
    }
    if exp is not None:
        manifest["sim"] = sim_config_to_json(exp.sim)
        manifest["k_grid"] = list(exp.k_grid)
        manifest["alphas"] = list(exp.alphas)
    path = os.path.join(outdir, "manifest.json")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(path)
    return written


def experiment_from_json(doc):
    """Parse an experiment document (see docs/file-formats.md)."""
    from .config import _require, sim_config_from_json, params_from_json

    sim = sim_config_from_json(_require(doc, "sim"), path="sim")
    truth = (params_from_json(doc["truth"], path="truth")
             if "truth" in doc else implied_params(sim))
    replications = _require(doc, "replications")
    if not isinstance(replications, int) or replications < 1:
        raise ConfigError("replications must be >= 1")
    bounds_blocks = doc.get("bounds")
    if bounds_blocks is not None:
        allowed = {"loading", "factor_cov", "unique_var"}
        extra = set(bounds_blocks) - allowed
        if extra:
            raise ConfigError(f"unknown bounds blocks {sorted(extra)}")
        bounds_blocks = {key: tuple(float(v) for v in val)
                         for key, val in bounds_blocks.items()}
    return Experiment(
        sim=sim,
        truth=truth,
        replications=replications,
        k_grid=tuple(doc.get("k_grid", [sim.spec.k])),
        alphas=tuple(doc.get("alphas", [0.05])),
        keep_draws=tuple(doc.get("keep_draws", [])),
        outputs=tuple(doc.get("outputs", ["rcov", "theta", "tstat"])),
        bounds_blocks=bounds_blocks,
        seed_base=int(doc.get("seed_base", 0)),
    )
