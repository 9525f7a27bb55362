"""diffusionfa benchmark: one workload per process, driven through the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload, a table

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the last line of stdout is a JSON object carrying the
end-to-end metrics listed in BENCHMARK.json; with ``--trace 1`` it carries
the per-layer metrics of a traced run, which times the same units once
untraced and once with timing wrappers installed, then runs the layer
microbenchmarks.  A metric whose wrapper saw no call is ``null``
(unmeasured), never 0.  A full report, spans included, goes to
``.perfbench/`` in the checkout.

BENCHMARK.json gates the two bundled studies.  ``wide_p20_cli`` and
``select_p8_cli`` run by name only: at this run length their panel rate
spreads by 0.23-0.27 (IQR over median) across seeds, because a p=20 panel
takes 6-16 s and a p=8 selection 0.4-8 s depending on the panel.

End-to-end metrics (``--trace 0``):

* ``setup_s``: median wall time of a fresh interpreter importing the CLI,
  plus the median in-process set-up (config parsing, input generation,
  warm-up); each is repeated ``SETUP_REPEATS`` times.
* ``reps_per_s`` (``panels_per_s`` on the CLI workloads): median over units
  of units per second, scaled to the reference machine speed (below).
* ``fit_converged_frac``: fits that converged over fits attempted, read from
  the program's outputs (``rejections.csv`` exclusions, the test and select
  JSON); its complement ``fit_fail_frac`` is printed too.  Non-converged
  fits are counted, never dropped.
* ``alt_k_tstat_median``: median n*F at the counts other than the
  generating one; ``ergodic_sim`` and ``wide_p20_cli`` fit only the
  generating count, so there it is the median n*F at that count.
* ``peak_rss_mb``: ``getrusage`` maximum resident set of the process.

``attempted`` counts ``cli.main`` calls and ``failed`` those that raised or
exited with a code other than 0 or 3 (3 is a reported non-convergence).

Throughput is scaled to a reference machine speed.  Before each unit of
work, and once after the last, the run times a fixed calibration kernel
that does not touch the package (the small dense solves and Kronecker
products the fits are made of, on constant inputs).  On a shared VM the
speed of the whole machine drifts by up to 1.6x over seconds to minutes,
which moves every timing of a run together; ``reps_per_s`` is the median
per-unit rate times the run's median kernel time over ``CAL_REF_S``, the
kernel's median on the 2-vCPU Xeon VM where the benchmark was defined.  The
wall-clock rate is reported next to it as ``reps_per_s_wall``.

The outputs are checked on every run; a failed check is named on stdout,
``correct`` is false and the exit code is 1.  ``--record-reference`` stores
the default seed's generating-count statistics, theta table and decisions
in ``perfbench/reference.json``; later runs on the default seed must match
them to 1e-6 relative.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(HERE, "reference.json")
DEFAULT_SEED = 0
SETUP_REPEATS = 5
MIN_UNITS = 3
CAL_REF_S = 0.0125
REFERENCE_UNITS = 12

sys.path.insert(0, HERE)


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    if not os.path.isfile(os.path.join(SRC, "diffusionfa", "__init__.py")):
        die(f"no package source under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import diffusionfa

    if not os.path.abspath(diffusionfa.__file__).startswith(SRC + os.sep):
        die(f"imported diffusionfa from {diffusionfa.__file__}, not from {SRC}")


def import_seconds():
    """Wall time of a fresh interpreter that imports the CLI."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import diffusionfa.cli"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                   capture_output=True, timeout=120)
    return time.perf_counter() - t0


def warm_up(sim_config, truth):
    """Fault in lazy imports and BLAS/LAPACK state before the first timed call."""
    from diffusionfa import contrast_grad, realised_cov, simulate

    path = simulate(replace(sim_config, spec=replace(sim_config.spec, n=50)))
    contrast_grad(realised_cov(path), truth)


def setup(workload, seed, count, workdir):
    os.makedirs(workdir, exist_ok=True)
    sim_config, truth = workload.setup(seed, count, workdir)
    warm_up(sim_config, truth)
    return sim_config


def calibration_kernel():
    """A fixed timing kernel that is independent of the package.

    It does the two kinds of work the fits do, small dense solves driven from
    Python and Kronecker/Cholesky products of a 6x6 covariance, on constant
    inputs; the returned function times one pass in seconds.
    """
    import numpy as np
    from scipy.linalg import cho_factor, cho_solve

    a = np.eye(6) * 7.0 + 1.0
    m = np.ones((21, 36)) / 36.0
    v = np.linspace(-1.0, 1.0, 21)

    def run():
        t0 = time.perf_counter()
        for _ in range(500):
            b = np.linalg.solve(a, a[:, 0])
            float(b @ b)
        for _ in range(75):
            w = m @ np.kron(a, a) @ m.T + 50.0 * np.eye(21)
            np.einsum("i,ij->j", cho_solve(cho_factor(w, lower=True), v), w)
        return time.perf_counter() - t0

    return run


def written_bytes(argv):
    out = argv[argv.index("--out") + 1]
    if os.path.isdir(out):
        return sum(os.path.getsize(os.path.join(d, f))
                   for d, _, files in os.walk(out) for f in files)
    return sum(os.path.getsize(f) for f in (out, out + ".manifest.json")
               if os.path.exists(f))


def run_units(workload, tracer=None):
    """Run every unit serially; a command that raises is recorded, not fatal."""
    from diffusionfa import cli

    span = tracer.span if tracer else lambda *a, **k: contextlib.nullcontext()
    runs, commands, kernel = [], [], []
    calibrate = calibration_kernel()
    for uid, _, argvs in workload.units:
        codes = []
        kernel.append(calibrate())
        t0 = time.perf_counter()
        with span(uid, "unit" if workload.kind == "panels" else "study", unit=uid):
            for argv in argvs:
                sink = io.StringIO()
                with span(f"command:{argv[0]}", "command"), \
                        contextlib.redirect_stdout(sink), \
                        contextlib.redirect_stderr(sink):
                    try:
                        code = cli.main(argv)
                    except Exception:  # keep measuring; the failure is counted
                        code = "raised: " + traceback.format_exc(limit=3)
                codes.append(code)
                commands.append({"command": argv[0], "bytes": written_bytes(argv)})
        runs.append({"unit": uid, "seconds": time.perf_counter() - t0,
                     "codes": codes})
    kernel.append(calibrate())
    return runs, commands, kernel


def compare_reference(workload, ref, check):
    import numpy as np
    from workloads import agrees

    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            recorded = json.load(fh).get(workload.name, {})
    except FileNotFoundError:
        recorded = {}
    check("reference recorded", bool(recorded), f"none in {REFERENCE}")
    for uid in sorted(set(ref) & set(recorded)):
        mine, theirs = ref[uid], recorded[uid]
        for field in ("statistics", "theta"):
            a = np.ravel(np.asarray(mine.get(field, []), dtype=float))
            b = np.ravel(np.asarray(theirs.get(field, []), dtype=float))
            check(f"reference {uid} {field}",
                  a.shape == b.shape and all(map(agrees, a, b)),
                  f"{a[:6]} vs {b[:6]}")
        check(f"reference {uid} decisions", mine["decisions"] == theirs["decisions"],
              f"{mine['decisions']} vs {theirs['decisions']}")


def record_reference(workload, ref):
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        doc = {}
    doc[workload.name] = {uid: ref[uid] for uid in list(ref)[:REFERENCE_UNITS]}
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def end_to_end(workload, runs, kernel, evaluated, setup_s):
    fits, failed, stats, _ = evaluated
    wall = 1.0 / statistics.median(r["seconds"] for r in runs)
    rate = wall * statistics.median(kernel) / CAL_REF_S
    name = "reps_per_s" if workload.kind == "study" else "panels_per_s"
    fail = failed / fits if fits else 1.0
    return {
        "setup_s": (setup_s, "s"),
        name: (rate, "1/s"),
        f"{name}_wall": (wall, "1/s"),
        "calibration_ms": (statistics.median(kernel) * 1e3, "ms"),
        "fit_fail_frac": (fail, "ratio"),
        "fit_converged_frac": (1.0 - fail, "ratio"),
        "alt_k_tstat_median": (statistics.median(stats) if stats else None, "nF"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
    }


def traced(workload, seed, count, workdir, untraced_s):
    import micro
    import tracing

    sim_config = setup(workload, seed, count, os.path.join(workdir, "traced"))
    tracer = tracing.Tracer()
    tracing.install(tracer, workload.gen_k)
    try:
        runs, commands, _ = run_units(workload, tracer)
    finally:
        tracer.uninstall()
    traced_s = sum(r["seconds"] for r in runs)
    metrics = tracing.layer_metrics(tracer, commands)
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.overhead_share"] = ((traced_s - untraced_s) / untraced_s, "ratio")
    metrics.update(micro.run(seed, sim_config))
    return metrics, tracer


def run_workload(args, bench):
    from workloads import WORKLOADS, Check

    import_package()
    import sysinfo

    os.makedirs(OUT, exist_ok=True)
    workload = WORKLOADS[args.workload]
    before = sysinfo.cpu_times()
    share = args.seconds / 2 if args.trace else args.seconds
    count = max(MIN_UNITS if not args.trace else 2, round(share / workload.unit_s))
    workdir = os.path.join(OUT, f"work-{workload.name}-{os.getpid()}")
    try:
        if args.trace:
            setup_s = None
            setup(workload, args.seed, count, workdir)
        else:
            imports = [import_seconds() for _ in range(SETUP_REPEATS)]
            inproc = []
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                setup(workload, args.seed, count, workdir)
                inproc.append(time.perf_counter() - t0)
            setup_s = statistics.median(imports) + statistics.median(inproc)
        runs, commands, kernel = run_units(workload)
        check = Check()
        evaluated = workload.evaluate(runs, check)
        if args.record_reference:
            record_reference(workload, evaluated[3])
        elif args.seed == DEFAULT_SEED:
            compare_reference(workload, evaluated[3], check)
        report = {"workload": workload.name, "seed": args.seed, "units": count,
                  "runs": runs, "failed_checks": check.failed}
        if args.trace:
            metrics, tracer = traced(workload, args.seed, count, workdir,
                                     sum(r["seconds"] for r in runs))
            report["spans"] = tracer.to_json()
            report["missing_wrappers"] = tracer.missing
            names = [m["name"] for m in bench["per_layer"]]
        else:
            metrics = end_to_end(workload, runs, kernel, evaluated, setup_s)
            names = [m["name"] for m in bench["end_to_end"]]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics["run.steal_share"] = (sysinfo.steal_share(before, sysinfo.cpu_times()),
                                  "ratio")
    report["metadata"] = sysinfo.metadata(ROOT)
    metrics = {k: (None if v is None else float(v), u) for k, (v, u) in metrics.items()}
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    path = os.path.join(OUT, f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print(f"workload {workload.name}  seed {args.seed}  units {count}  "
          f"trace {args.trace}  report {os.path.relpath(path, ROOT)}")
    for key, (value, unit) in sorted(metrics.items()):
        shown = "unmeasured" if value is None else f"{value:.6g} {unit}"
        print(f"  {key:44s} {shown}")
    for key, value in report["metadata"].items():
        print(f"  meta {key}: {value}")
    print(f"checks: {check.count - len(check.failed)} passed, "
          f"{len(check.failed)} failed")
    for failure in check.failed:
        print(f"  FAILED {failure}")
    failed_ops = sum(1 for r in runs for c in r["codes"] if c not in (0, 3))
    result = {
        "correct": not check.failed,
        "attempted": sum(len(r["codes"]) for r in runs),
        "failed": failed_ops,
        "metrics": {name: {"value": metrics.get(name, (None, ""))[0],
                           "unit": metrics.get(name, (None, ""))[1]}
                    for name in names},
    }
    print(json.dumps(result))
    return 0 if not check.failed else 1


def run_all(args, bench):
    """Every workload of BENCHMARK.json, each in a process of its own."""
    results, status = {}, 0
    for w in bench["workloads"]:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        status = status or done.returncode
        lines = done.stdout.strip().splitlines()
        results[w["name"]] = json.loads(lines[-1]) if lines else None
    print(f"{'metric':28s}" + "".join(f"{w['name']:>16s}" for w in bench["workloads"]))
    names = sorted({m for r in results.values() if r for m in r["metrics"]})
    for name in names:
        row = []
        for w in bench["workloads"]:
            m = (results[w["name"]] or {}).get("metrics", {}).get(name)
            row.append("-" if m is None else "unmeasured" if m["value"] is None
                       else f"{m['value']:.5g} {m['unit']}")
        print(f"{name:28s}" + "".join(f"{v:>16s}" for v in row))
    print(json.dumps(results))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's default-seed reference")
    args = parser.parse_args(argv)
    if args.record_reference and args.seed != DEFAULT_SEED:
        die(f"the reference is recorded on the default seed {DEFAULT_SEED}")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        die(f"cannot read BENCHMARK.json: {exc}")
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if args.workload == "all":
        return run_all(args, bench)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        die(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    return run_workload(args, bench)


if __name__ == "__main__":
    sys.exit(main())
