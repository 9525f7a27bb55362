"""In-process A/B timing of two diffusionfa source trees.

    python3 tools/abtime.py PARENT_SRC CHANGE_SRC [N]
    python3 tools/abtime.py PARENT_SRC CHANGE_SRC --layers

PARENT_SRC and CHANGE_SRC are ``src`` directories, each holding a
``diffusionfa`` package.  The tool copies the parent's package twice (A and
the control A') and the change's once (B) into a temporary directory under
distinct names, imports all three into this process and runs N rounds of
one-replication ``experiment`` calls of both bundled studies.  In each
round every copy runs the same seed, one call after the other, in an order
that rotates from round to round.  For each study it prints the median over
the rounds of the CPU-time ratio t_A / t_B (above 1: the change is
faster), its quartiles, and the same ratio t_A / t_A' of the two identical
copies, which shows what the method reads when nothing changed, then the
median minor page faults per call of A, B and A' (the ``ru_minflt`` delta
of this process around each call).  Then it times 30 rounds of a fresh
interpreter running ``import <copy>.cli`` for each copy, interleaved the
same way, and prints the same ratios of the child's CPU time and the
child's median minor page faults: the start-up cost every CLI process pays.

Timing the two trees in separate processes on a shared machine measures
the load of the moment as much as the code: on a shared 2-vCPU VM the same
code took 21-34 ms per call from one process to the next, while the ratio
of interleaved calls held within about half a percent.  N defaults to 150.

``--layers`` times six layers instead, with the same copies, rotation and
ratios.  ``simulate`` runs the system of each bundled study
(``table6_nonergodic`` at n = 1e3, ``ergodic_scaled`` at n = 1e4), one seed
per round, ``realised_cov`` runs on the n = 1e4 path, and
``theoretical_sd_table`` at each study's truth.  Then, on a simulated
``perfbench.workloads.generated_system`` panel (n = 2000, h = 0.001),
``fit`` from the default start (projected Newton) and ``fit_truth``,
``fit`` started at the system's truth (projected BFGS), and
``theoretical_sd_table`` at that truth, at (p, k) = (6, 2), (20, 3),
(40, 3) and (100, 3), with fewer rounds where a call is slow.  On the k = 3
panels ``fit_short`` is ``fit`` from the default start one factor short
(k = 2), a misspecified count that ``select`` fits before the generating
one.  Each timing is a batch of at least 50 ms of calls where a call is fast.  The parent's
package builds each input once (the config document, the path, the panel)
and every copy gets the same numbers, through public functions only.  Each
line ends with the largest relative difference between A's and B's results
(the path, Q, the estimate or the SD column), and a fit's line with
``counts same`` or its (iterations, evaluations, converged) in A and in B,
so a timing never hides a changed result.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from perfbench.workloads import generated_system  # noqa: E402

STUDIES = ("table6_nonergodic", "ergodic_scaled")
WARMUP = 3
IMPORT_ROUNDS = 30
# (p, k, rounds) of the layer rounds and the panel their inputs come from; at
# p = 100 a fit from the truth takes seconds and over a thousand iterations
LAYERS = ((6, 2, 40), (20, 3, 20), (40, 3, 8), (100, 3, 3))
PANEL_N, PANEL_H = 2000, 0.001
SYSTEM_ROUNDS = 40
MIN_BATCH_S = 0.05


def load(src, name, root):
    """Import the ``diffusionfa`` package under ``src`` as ``name``."""
    shutil.copytree(os.path.join(src, "diffusionfa"), os.path.join(root, name),
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"{name}.cli")


def call(cli, study, seed, out):
    """CPU seconds and minor page faults of one one-replication ``experiment`` call."""
    config = os.path.join(os.path.dirname(cli.__file__), "configs", f"{study}.json")
    argv = ["experiment", "--config", config, "--override", "replications=1",
            "--seed", str(seed), "--out", out]
    with contextlib.redirect_stdout(io.StringIO()):
        elapsed, faults, code = timed(lambda: cli.main(argv))
    if code != 0:
        raise SystemExit(f"{cli.__name__} {study} seed {seed} exited {code}")
    return elapsed, faults


def timed(fn, calls=1):
    """CPU seconds, minor page faults and last result of ``calls`` calls of ``fn()``."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.process_time()
    for _ in range(calls):
        result = fn()
    elapsed = time.process_time() - start
    return elapsed, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults, result


def layer_inputs(pkg, p, k):
    """Q, n, h and the truth's blocks of one simulated generated system."""
    sim, _, _ = generated_system(p, k, PANEL_N, PANEL_H, np.random.default_rng(p))
    config = pkg.config.sim_config_from_json(dict(sim, seed=p), path="")
    rcov, truth = pkg.realised_cov(pkg.simulate(config)), pkg.implied_params(config)
    return rcov.q, rcov.n, rcov.h, (truth.a, truth.sigma_ff, truth.sigma_ee)


def layer_calls(cli, p, k, inputs):
    """The timed layers of the package of ``cli`` on ``inputs``, each a
    call that returns the array compared across trees."""
    pkg = importlib.import_module(cli.__package__)
    q, n, h, blocks = inputs
    rcov, spec = pkg.RealisedCov(q=q, n=n, h=h), pkg.ModelSpec(p=p, k=k, n=n, h=h)
    truth = pkg.ParamVector(*blocks)
    calls = {"fit": lambda r: pkg.fit(rcov, spec),
             "fit_truth": lambda r: pkg.fit(rcov, spec, init=truth),
             "sd_table": lambda r: sd_column(pkg, truth, spec)}
    if k > 2:
        short = pkg.ModelSpec(p=p, k=k - 1, n=n, h=h)
        calls["fit_short"] = lambda r: pkg.fit(rcov, short)
    return calls


def system_calls(cli, study_doc, path):
    """``simulate`` of the study system ``study_doc`` at the round's seed,
    ``realised_cov`` of ``path`` (times, x) and ``theoretical_sd_table`` at
    the study's truth by the package of ``cli``."""
    pkg = importlib.import_module(cli.__package__)
    config = pkg.config.sim_config_from_json(study_doc["sim"])
    exp = pkg.montecarlo.experiment_from_json(study_doc)
    sample = pkg.SamplePath(*path)
    return {"simulate": lambda r: pkg.simulate(config.with_seed(r)).x,
            "realised_cov": lambda r: pkg.realised_cov(sample).q,
            "sd_table": lambda r: sd_column(pkg, exp.truth, exp.spec)}


def sd_column(pkg, truth, spec):
    """The theoretical SD column of ``theoretical_sd_table`` by ``pkg``."""
    return np.array([row[2] for row in pkg.theoretical_sd_table(truth, spec)])


def compared(result):
    """The array of ``result`` compared across trees and, for a fit, its
    (iterations, evaluations, converged); None for another layer."""
    if hasattr(result, "theta"):
        return result.theta, (result.iterations, result.evaluations, result.converged)
    return result, None


def largest_rel(a, b):
    """Largest relative elementwise difference of two arrays."""
    scale = np.maximum(np.abs(a), np.abs(b))
    return float(np.max(np.abs(a - b) / np.where(scale > 0, scale, 1.0), initial=0.0))


def time_layer(label, calls, layer, rounds):
    """Report interleaved rounds of ``calls[copy][layer](r)`` in round r."""
    # one untimed call per copy warms it and gives the compared results; a
    # fast call is timed in batches of at least MIN_BATCH_S
    warm = {key: timed(lambda: c[layer](0)) for key, c in calls.items()}
    batch = math.ceil(MIN_BATCH_S / max(min(w[0] for w in warm.values()), 1e-6))
    (a, counts_a), (b, counts_b) = compared(warm["A"][2]), compared(warm["B"][2])
    counts = (None if counts_a is None else "counts same" if counts_a == counts_b
              else f"counts {counts_a} -> {counts_b}")
    report(label, rounds, *interleave(
        calls, rounds, lambda c, r: timed(lambda: c[layer](r), batch)[:2]),
        diff=largest_rel(a, b), counts=counts)


def layers(copies):
    """Interleaved rounds of ``simulate``, ``realised_cov`` and
    ``theoretical_sd_table`` on the bundled studies, then of each panel
    layer at each size of ``LAYERS``."""
    parent = importlib.import_module(copies["A"].__package__)
    for study in STUDIES:
        doc = parent.config.load_json(
            os.path.join(os.path.dirname(parent.__file__), "configs", f"{study}.json"))
        path = parent.simulate(parent.config.sim_config_from_json(doc["sim"]))
        calls = {key: system_calls(cli, doc, (path.times, path.x))
                 for key, cli in copies.items()}
        n = doc["sim"]["spec"]["n"]
        time_layer(f"simulate n={n:g}", calls, "simulate", SYSTEM_ROUNDS)
        if study == "ergodic_scaled":
            time_layer(f"realised_cov n={n:g}", calls, "realised_cov", SYSTEM_ROUNDS)
        time_layer(f"sd_table {study.split('_')[0]}", calls, "sd_table", SYSTEM_ROUNDS)
    for p, k, rounds in LAYERS:
        inputs = layer_inputs(parent, p, k)
        calls = {key: layer_calls(cli, p, k, inputs) for key, cli in copies.items()}
        for layer in calls["A"]:
            fitted_k = k - 1 if layer == "fit_short" else k
            time_layer(f"{layer} p={p} k={fitted_k}", calls, layer, rounds)


def fresh_import(cli, root):
    """CPU seconds and minor page faults of a fresh interpreter importing
    ``cli`` from ``root``."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run([sys.executable, "-c", f"import {cli.__name__}"], check=True,
                   env={**os.environ, "PYTHONPATH": root})
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ((after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime),
            after.ru_minflt - before.ru_minflt)


def interleave(copies, rounds, measure):
    """Median [q1, q3] of t_A / t_B and of t_A / t_A' over ``rounds`` rounds
    of ``measure(copy, r)`` -> (t, faults), the copies taken in an order that
    rotates, and the median faults of each copy."""
    ratios, controls = [], []
    faults = {key: [] for key in copies}
    order = list(copies)
    for r in range(rounds):
        t = {}
        for key in order[r % 3:] + order[:r % 3]:
            t[key], minflt = measure(copies[key], r)
            faults[key].append(minflt)
        ratios.append(t["A"] / t["B"])
        controls.append(t["A"] / t["A'"])
    return (quartiles(ratios), quartiles(controls),
            {key: statistics.median(n) for key, n in faults.items()})


def report(label, rounds, ratios, controls, faults, diff=None, counts=None):
    (b1, b2, b3), (c1, c2, c3) = ratios, controls
    minflt = " / ".join(f"{faults[key]:g}" for key in ("A", "B", "A'"))
    print(f"{label:<20} {rounds:>6}  {b2:.3f} [{b1:.3f}, {b3:.3f}]"
          f"{'':<6} {c2:.3f} [{c1:.3f}, {c3:.3f}]{'':<7} {minflt}"
          + ("" if diff is None else f"  {diff:.1e}")
          + ("" if counts is None else f"  {counts}"), flush=True)


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv):
    by_layer = "--layers" in argv
    argv = [a for a in argv if a != "--layers"]
    if len(argv) not in (2, 3) or (by_layer and len(argv) == 3):
        raise SystemExit(__doc__)
    parent, change = (os.path.abspath(a) for a in argv[:2])
    rounds = int(argv[2]) if len(argv) == 3 else 150
    with tempfile.TemporaryDirectory(prefix="abtime-") as root:
        sys.path.insert(0, root)
        copies = {"A": load(parent, "dfa_a", root), "A'": load(parent, "dfa_a2", root),
                  "B": load(change, "dfa_b", root)}
        out = os.path.join(root, "out")
        print(f"{'layer' if by_layer else 'study':<20} {'rounds':>6}  "
              f"{'A/B median [q1, q3]':<26} {'A/A control median [q1, q3]':<33} "
              "minflt A / B / A'" + ("  max rel A-B  counts" if by_layer else ""))
        if by_layer:
            layers(copies)
            return
        for study in STUDIES:
            for seed in range(WARMUP):
                for cli in copies.values():
                    call(cli, study, seed, out)
            report(study, rounds, *interleave(
                copies, rounds, lambda cli, r: call(cli, study, WARMUP + r, out)))
        for cli in copies.values():
            fresh_import(cli, root)
        report("import cli", IMPORT_ROUNDS, *interleave(
            copies, IMPORT_ROUNDS, lambda cli, r: fresh_import(cli, root)))


if __name__ == "__main__":
    main(sys.argv[1:])
