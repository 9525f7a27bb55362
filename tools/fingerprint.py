"""Bit-for-bit fingerprint of the fits of one or two diffusionfa source trees.

    python3 tools/fingerprint.py SRC [SRC2]

SRC and SRC2 are ``src`` directories, each holding a ``diffusionfa``
package, imported side by side with ``tools/abtime.py``'s loader.  The tool
runs 144 fits per tree: every count of 40 replications of each bundled study
(``table6_nonergodic`` k = 1, 2 and ``ergodic_scaled`` k = 2, the generating
count from the truth in the study box, as ``experiment`` fits them) and the
12 ``select`` trails of the seed-0 ``select_p8_cli`` benchmark workload.  It
prints the SHA-256 over, fit after fit, the little-endian float64 bytes of
theta, SE, avar, F, |pg| and T, then ``iterations|evaluations|converged|message``
as text (``converged`` as ``True`` or ``False``).

With SRC2 it prints, per fit, the largest relative change of theta, F, T and
the SEs from SRC to SRC2 and any change of iterations, evaluations, converged
or message, then a summary line with the largest of each and each tree's
converged count, then both hashes.  With SRC alone the summary line holds
the fit and converged counts.
Equal hashes mean every fit is bit for bit the same.  BLAS threading can move the last bits of a fit, so pin it to one
thread (``OPENBLAS_NUM_THREADS=1``) for a hash to compare across runs.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import sys
import tempfile
from dataclasses import replace

import numpy as np

sys.path[:0] = [os.path.dirname(os.path.abspath(__file__)),
                os.path.dirname(os.path.dirname(os.path.abspath(__file__)))]

from abtime import largest_rel as rel, load  # noqa: E402
from perfbench.workloads import generated_system  # noqa: E402

STUDIES = ("table6_nonergodic", "ergodic_scaled")
REPLICATIONS = 40
PANELS = 12


def fits(pkg):
    """(label, TestResult) of the 144 fits, in a fixed order."""
    config, montecarlo = pkg.config, pkg.montecarlo
    for study in STUDIES:
        path = os.path.join(os.path.dirname(pkg.__file__), "configs", f"{study}.json")
        exp = montecarlo.experiment_from_json(config.load_json(path))
        box = pkg.parameter_box(exp.spec, **exp.bounds_blocks)
        for r in range(REPLICATIONS):
            seed = montecarlo.replication_seed(exp.seed_base, r)
            rcov = pkg.realised_cov(pkg.simulate(exp.sim.with_seed(seed)))
            for k in exp.k_grid:
                yield f"{study} r={r} k={k}", pkg.test_k(rcov, exp.spec, k,
                                                        init=exp.truth, bounds=box)
    sim, spec, _ = generated_system(8, 2, 2000, 0.001, np.random.default_rng(0))
    spec, _ = config.model_from_json(spec)
    for i in range(PANELS):
        seed = int(np.random.SeedSequence([0, i]).generate_state(1, dtype=np.uint64)[0])
        rcov = pkg.realised_cov(pkg.simulate(
            config.sim_config_from_json(dict(sim, seed=seed), path="")))
        for test in pkg.select_k(rcov, replace(spec, n=rcov.n, h=rcov.h)).trail:
            yield f"select_p8_cli panel={i} k={test.k_star}", test


def record(test):
    fit = test.fit
    floats = [np.ascontiguousarray(a, dtype="<f8") for a in
              (fit.theta, fit.se, fit.avar, [fit.contrast, fit.gradient_norm, test.statistic])]
    counts = (fit.iterations, fit.evaluations, fit.converged, fit.message)
    return floats, counts


def fingerprint(pkg):
    """SHA-256 of the fits and their records by label."""
    digest, records = hashlib.sha256(), {}
    for label, test in fits(pkg):
        floats, counts = records[label] = record(test)
        for a in floats:
            digest.update(a.tobytes())
        digest.update(("%d|%d|%s|%s" % counts).encode())
    return digest.hexdigest(), records


def converged(records):
    """``c/n converged`` over the records of one tree."""
    return f"{sum(counts[2] for _, counts in records.values())}/{len(records)} converged"


def compare(old, new):
    """Print per fit the largest relative theta/F/T and SE changes and any
    change of counts, converged or message, then a summary line."""
    moved = worst = worst_se = 0
    print(f"{'fit':<32} {'theta':>9} {'F':>9} {'T':>9} {'SE':>9}  "
          "counts, converged, message")
    for label, (floats, counts) in old.items():
        floats2, counts2 = new[label]
        theta, f, t = (rel(floats[0], floats2[0]), rel(floats[3][0], floats2[3][0]),
                       rel(floats[3][2], floats2[3][2]))
        se = rel(floats[1], floats2[1])
        changed = [f"{name} {a!r} -> {b!r}" for name, a, b in
                   zip(("iterations", "evaluations", "converged", "message"),
                       counts, counts2) if a != b]
        moved += bool(changed)
        worst = max(worst, theta, f, t)
        worst_se = max(worst_se, se)
        print(f"{label:<32} {theta:9.1e} {f:9.1e} {t:9.1e} {se:9.1e}  "
              f"{'; '.join(changed) or 'same'}")
    print(f"{len(old)} fits: largest relative theta/F/T change {worst:.1e}; "
          f"{moved} with a count, converged or message change; "
          f"largest relative SE change {worst_se:.1e}; "
          f"{converged(old)} -> {converged(new)}")


def main(argv):
    if len(argv) not in (1, 2):
        raise SystemExit(__doc__)
    with tempfile.TemporaryDirectory(prefix="fingerprint-") as root:
        sys.path.insert(0, root)
        results = []
        for i, src in enumerate(argv):
            load(os.path.abspath(src), f"dfa_fp{i}", root)
            results.append(fingerprint(importlib.import_module(f"dfa_fp{i}")))
    if len(results) == 2:
        compare(results[0][1], results[1][1])
    else:
        print(f"{len(results[0][1])} fits; {converged(results[0][1])}")
    for src, (digest, _) in zip(argv, results):
        print(f"{digest}  {src}")


if __name__ == "__main__":
    main(sys.argv[1:])
