"""The benchmark's workloads, each driven through ``diffusionfa.cli.main``.

A workload is cut into units of work: a study runs as a sequence of
one-replication ``experiment`` calls, a CLI workload as a sequence of
panels (``simulate`` then ``test`` or ``select``).  Small units let the
median rate shrug off the seconds-long slowdowns of a shared VM.  The
number of units is sized from ``--seconds`` at the unit cost measured on
the seed code, so a run's inputs, and with them every statistic it reports,
depend only on the seed and the run length, never on how fast the program
happens to be.

Each workload also reads the program's outputs back: it counts the fits that
did not converge (never filtering them), collects the test statistics and
runs the output checks.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np


STRUCTURE_SEED = 0  # the generated systems of the CLI workloads


def moments(p, k):
    """p(p+1)/2 - q for a k-factor structure on p coordinates."""
    q = (p - k) * k + k * (k + 1) // 2 + p
    return p * (p + 1) // 2 - q


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def agrees(a, b, rel=1e-6):
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


class Check:
    """Named output checks; a failed one keeps its detail for the report."""

    def __init__(self):
        self.failed = []
        self.count = 0

    def __call__(self, name, ok, detail=""):
        self.count += 1
        if not ok:
            self.failed.append(f"{name}: {detail}")


class Study:
    """A bundled replication study, one replication per ``experiment`` call.

    Call c uses ``seed_base = seed * 1000 + c``, so calls and seeds never
    share a replication.
    """

    kind = "study"

    def __init__(self, name, config, unit_s):
        self.name, self.config, self.unit_s = name, config, unit_s

    def setup(self, seed, count, workdir):
        from diffusionfa import config, montecarlo

        doc = config.load_json(config.bundled_config_path(self.config))
        doc["replications"] = 1
        exp = montecarlo.experiment_from_json(doc)
        self.p, self.gen_k, self.k_grid = exp.spec.p, exp.truth.k, exp.k_grid
        self.units = []
        for c in range(count):
            out = os.path.join(workdir, f"rep{c}")
            self.units.append((f"c{c}", out, [
                ["experiment", "--config", self.config, "--override",
                 "replications=1", "--seed", str(seed * 1000 + c), "--out", out]]))
        return exp.sim, exp.truth

    def evaluate(self, runs, check):
        fits = failed = 0
        stats, ref = [], {}
        for (uid, out, _), run in zip(self.units, runs):
            check(f"{uid} exit code", run["codes"] == [0], f"exit {run['codes']}")
            if run["codes"] != [0]:
                fits += len(self.k_grid)
                failed += len(self.k_grid)
                continue
            rej = read_csv(os.path.join(out, "rejections.csv"))
            quart = {int(r["k"]): [float(r[c]) for c in
                                   ("min", "q1", "median", "q3", "max")]
                     for r in read_csv(os.path.join(out, "quartiles_tstat.csv"))}
            tstat = {r["statistic"]: r for r in
                     read_csv(os.path.join(out, "table_tstat.csv"))}
            for k in self.k_grid:
                row = next(r for r in rej if int(r["k"]) == k)
                fits += 1
                failed += int(row["excluded"])
                want = moments(self.p, k)
                got = float(tstat[f"tstat:{k}"]["true"])
                check(f"{uid} df k={k}", got == want, f"{got} != {want}")
            alt = [k for k in self.k_grid if k != self.gen_k]
            for k in alt or [self.gen_k]:
                stats.append(quart[k][2])
            for k in alt:
                check(f"{uid} k={k} statistics above k={self.gen_k}",
                      quart[k][0] > quart[self.gen_k][4],
                      f"min {quart[k][0]} <= max {quart[self.gen_k][4]}")
                row = next(r for r in rej if int(r["k"]) == k)
                check(f"{uid} every k={k} replication rejected",
                      int(row["rejections"]) == 1, "accepted")
            theta = [[float(r[c]) for c in ("sample_mean", "true", "sample_sd",
                                              "theoretical_sd")]
                     for r in read_csv(os.path.join(out, "table_theta.csv"))]
            gen = tstat[f"tstat:{self.gen_k}"]
            ref[uid] = {
                "statistics": quart[self.gen_k] + [float(gen["sample_mean"]),
                                                   float(gen["sample_sd"])],
                "theta": theta,
                "decisions": [[int(r["k"]), float(r["alpha"]), int(r["rejections"])]
                              for r in rej],
            }
            draws = os.path.join(out, f"figure_tstat_{self.gen_k}.csv")
            if os.path.exists(draws):
                ref[uid]["statistics"] += [float(r["draw"]) for r in read_csv(draws)]
        return fits, failed, stats, ref


def generated_system(p, k, n, h, rng):
    """Random linear-OU factor system and its generating parameters.

    Loadings in [-3, 3], factor dispersion diagonal in [2, 5] with a
    [-1, 1] lower triangle, unique dispersions in [1, 5].
    """
    a = rng.uniform(-3.0, 3.0, size=(p - k, k))
    s = (np.diag(rng.uniform(2.0, 5.0, size=k))
         + np.tril(rng.uniform(-1.0, 1.0, size=(k, k)), -1))
    disp = rng.uniform(1.0, 5.0, size=p)
    spec = {"p": p, "k": k, "regime": "non-ergodic", "n": n, "h": h}
    sim = {
        "spec": spec,
        "a": a.tolist(),
        "factor_drift": {"kind": "linear_ou",
                         "b": np.diag(rng.uniform(0.2, 0.6, size=k)).tolist(),
                         "mu": rng.uniform(1.0, 4.0, size=k).tolist()},
        "factor_dispersion": s.tolist(),
        "unique_drifts": [{"kind": "linear_ou", "b": float(b), "mu": 0.0}
                          for b in rng.uniform(2.0, 6.0, size=p)],
        "unique_dispersions": disp.tolist(),
        "f0": rng.uniform(1.0, 5.0, size=k).tolist(),
        "e0": [0.0] * p,
        "substeps": 1,
    }
    sff = s @ s.T
    cols, rows = np.triu_indices(k)
    truth = {"a": a.tolist(), "sigma_ff": sff[rows, cols].tolist(),
             "sigma_ee": (disp ** 2).tolist()}
    return sim, spec, truth


class Panels:
    """Generated panels, each simulated to CSV and then tested or selected.

    The system is drawn once from ``STRUCTURE_SEED``, as the bundled studies
    fix theirs; the workload seed drives the panel generator.
    ``test`` carries the generating parameters, so the fit starts at the
    truth; ``select`` gets the bare spec, so every count starts from
    ``default_init`` inside ``default_bounds``.
    """

    kind = "panels"

    def __init__(self, name, p, k, n, command, unit_s):
        self.name, self.p, self.gen_k, self.n = name, p, k, n
        self.command, self.unit_s = command, unit_s

    def setup(self, seed, count, workdir):
        from diffusionfa import config

        rng = np.random.default_rng(STRUCTURE_SEED)
        sim, spec, truth = generated_system(self.p, self.gen_k, self.n, 0.001, rng)
        self.truth = config.params_from_json(truth)
        model = dict(spec, **truth) if self.command == "test" else spec
        self.spec_path = os.path.join(workdir, "model.json")
        with open(self.spec_path, "w", encoding="utf-8") as fh:
            json.dump(model, fh)
        self.units = []
        for i in range(count):
            panel_seed = int(np.random.SeedSequence([seed, i]).generate_state(
                1, dtype=np.uint64)[0])
            cfg = os.path.join(workdir, f"system{i}.json")
            with open(cfg, "w", encoding="utf-8") as fh:
                json.dump(dict(sim, seed=panel_seed), fh)
            data = os.path.join(workdir, f"panel{i}.csv")
            out = os.path.join(workdir, f"{self.command}{i}.json")
            second = [self.command, "--data", data, "--spec", self.spec_path,
                      "--out", out]
            if self.command == "test":
                second += ["--k", str(self.gen_k)]
            self.units.append((f"panel{i}", (data, out), [
                ["simulate", "--config", cfg, "--out", data], second]))
        sim_config = config.sim_config_from_json(dict(sim, seed=0), path="")
        return sim_config, self.truth

    def evaluate(self, runs, check):
        from diffusionfa import contrast, path_from_csv, realised_cov

        fits = failed = 0
        stats, ref = [], {}
        for (uid, (data, out), _), run in zip(self.units, runs):
            ok = run["codes"][0] == 0 and run["codes"][1] in (0, 3)
            check(f"{uid} exit codes", ok, f"exit {run['codes']}")
            if not ok:
                fits += 1
                failed += 1
                continue
            with open(out, encoding="utf-8") as fh:
                doc = json.load(fh)
            trail = doc["trail"] if self.command == "select" else [doc]
            for t in trail:
                fits += 1
                failed += not t["fit"]["converged"]
                want = moments(self.p, t["k"])
                check(f"{uid} df k={t['k']}", t["df"] == want,
                      f"{t['df']} != {want}")
                if t["k"] != self.gen_k or self.command == "test":
                    stats.append(t["statistic"])
            if self.command == "test":
                with open(data, encoding="utf-8") as fh:
                    rcov = realised_cov(path_from_csv(fh))
                bound = rcov.n * contrast(rcov, self.truth)
                check(f"{uid} statistic at most n*contrast(truth)",
                      doc["statistic"] <= bound * (1.0 + 1e-9),
                      f"{doc['statistic']} > {bound}")
            gen = [t for t in trail if t["k"] == self.gen_k]
            ref[uid] = {
                "statistics": [t["statistic"] for t in gen],
                "decisions": [[t["k"], t["reject"]] for t in trail]
                + [doc.get("chosen_k")],
            }
        return fits, failed, stats, ref


# Why each workload: table6_alt_k spends most of a replication in the
# misspecified k=1 fits, so it moves with the optimiser (ROADMAP 3) and not
# with simulation; ergodic_sim spends most of one in the n=1e4 Euler loop and
# fits only at the truth, so it moves with simulate (ROADMAP 4) and not with
# the optimiser budget; at p=20 the materialised Kronecker weight dominates
# wide_p20_cli (ROADMAP 2), with CSV I/O, cli and config on the path;
# select_p8_cli is the only workload that runs select_k and the default-init
# path, non-converged fits included.
WORKLOADS = {w.name: w for w in (
    Study("table6_alt_k", "table6_nonergodic", unit_s=1.2),
    Study("ergodic_sim", "ergodic_scaled", unit_s=0.37),
    Panels("wide_p20_cli", p=20, k=3, n=2000, command="test", unit_s=10.0),
    Panels("select_p8_cli", p=8, k=2, n=2000, command="select", unit_s=1.9),
)}
