"""Command-line front door.

Subcommands: ``simulate`` (integrate a configured system to a path file),
``rcov`` (realised covariance of a path file), ``fit`` / ``test`` /
``select`` (estimation and factor-count inference on a path or realised
covariance), and ``experiment`` (Monte Carlo study from a config file).

Exit codes are stable: 0 success, 2 configuration error (or a drift
explosion), 3 the fit did not converge, 4 the requested factor count is
untestable (more parameters than moments for ``fit``, no degree of freedom
for ``test`` and ``select``).  Every run writes a manifest JSON recording
the resolved configuration and seed next to its output; all randomness
flows from ``--seed`` or the config seed.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from functools import lru_cache

import numpy as np

from . import __version__
from .config import (
    ConfigError,
    _as_array,
    _as_float,
    _as_int,
    apply_overrides,
    bundled_config_path,
    load_json,
    model_from_json,
    sim_config_from_json,
    sim_config_to_json,
    spec_to_json,
    write_json,
    write_manifest,
)
from .estimator import RealisedCov, default_bounds, fit, realised_cov
from .hypothesis_test import UntestableError, select_k, test_k
from .model import StartError
from .montecarlo import experiment_from_json, run, write_outputs
from .sde import (
    SimulationError,
    path_from_binary,
    path_from_csv,
    path_to_binary,
    path_to_csv,
    simulate,
    write_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGED = 3
EXIT_UNTESTABLE = 4


def _load_config(args):
    path = args.config
    try:
        doc = load_json(path)
    except ConfigError:
        # allow bundled config names as a convenience
        doc = load_json(bundled_config_path(path))
    return apply_overrides(doc, args.override or [])


def _read_data(path):
    """Path CSV/binary or realised-covariance JSON -> RealisedCov.

    A file whose contents do not parse or fail validation is a
    configuration error that names the file.
    """
    doc = load_json(path) if path.endswith(".json") else None
    try:
        if doc is not None:
            return RealisedCov(q=_as_array(doc, "q"),
                               n=_as_int(doc, "n"), h=_as_float(doc, "h"))
        if path.endswith(".bin"):
            with open(path, "rb") as fh:
                return realised_cov(path_from_binary(fh))
        with open(path, "r", encoding="utf-8") as fh:
            return realised_cov(path_from_csv(fh))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _load_data_and_spec(args):
    """``--data`` as a RealisedCov and the ``--spec`` model with its ``n`` and
    ``h``; the data needs the spec's p and a positive variance for the
    default box to scale with.  :func:`estimator.fit` checks a start."""
    rcov = _read_data(args.data)
    spec, params = model_from_json(apply_overrides(load_json(args.spec),
                                                   args.override or []))
    if spec.p != rcov.p:
        raise ConfigError(
            f"data has p={rcov.p} coordinates but spec declares p={spec.p}")
    try:
        default_bounds(rcov, spec)
    except ValueError as exc:
        raise ConfigError(f"{args.data}: {exc}") from None
    return rcov, replace(spec, n=rcov.n, h=rcov.h), params


def _wrote(args, **fields):
    """Write the run manifest next to ``args.out`` (the subcommand, its
    ``fields`` and the output) and print the line naming both files."""
    manifest = write_manifest(args.out + ".manifest.json", {
        "subcommand": args.subcommand, **fields, "outputs": [args.out]})
    print(f"wrote {args.out} and {manifest}")


def cmd_simulate(args):
    doc = _load_config(args)
    if args.seed is not None:
        doc["seed"] = args.seed
    config = sim_config_from_json(doc, path="")
    path = simulate(config, keep_latent=args.keep_latent)
    if args.format == "bin":
        with open(args.out, "wb") as fh:
            path_to_binary(path, fh)
    else:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            path_to_csv(path, fh)
    print(f"simulated {path.n + 1} observations of a {path.p}-dimensional path "
          f"on [0, {path.times[-1]:g}] with h={path.h:g}")
    _wrote(args, config=sim_config_to_json(config), seed=config.seed)
    return EXIT_OK


def cmd_rcov(args):
    rcov = _read_data(args.data)
    write_json(args.out, {"q": rcov.q.tolist(), "n": rcov.n, "h": rcov.h})
    print(f"realised covariance from n={rcov.n} increments (T={rcov.T:g}):")
    print(np.array_str(rcov.q, precision=4))
    _wrote(args, data=args.data)
    return EXIT_OK


def _fit_report(result):
    lines = [
        f"converged: {result.converged} ({result.message}; "
        f"{result.iterations} iterations, {result.evaluations} evaluations, "
        f"|pg|={result.gradient_norm:.2e})",
        f"contrast: {result.contrast:.6e}   n*contrast: {result.n * result.contrast:.4f}",
        f"{'coord':>6} {'estimate':>12} {'se':>10}",
    ]
    for j, (est, se) in enumerate(zip(result.theta, result.se), start=1):
        lines.append(f"{j:>6} {est:>12.4f} {se:>10.4f}")
    if result.sigma_ff_min_eig < 0 or result.min_unique_variance <= 0:
        lines.append(
            f"boundary diagnostic: min eig(sigma_ff)={result.sigma_ff_min_eig:.3e}, "
            f"min unique variance={result.min_unique_variance:.3e}")
    return "\n".join(lines)


def _fit_json(result):
    return {
        "theta": [float(v) for v in result.theta],
        "se": [float(v) for v in result.se],
        "contrast": result.contrast,
        "converged": result.converged,
        "iterations": result.iterations,
        "evaluations": result.evaluations,
        "gradient_norm": result.gradient_norm,
        "message": result.message,
        "sigma_ff_min_eig": result.sigma_ff_min_eig,
        "min_unique_variance": result.min_unique_variance,
    }


def _write_report(out_path, doc, fmt, csv_rows):
    if fmt == "json":
        return write_json(out_path, doc)
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        write_csv(fh, csv_rows)


def cmd_fit(args):
    rcov, spec, init = _load_data_and_spec(args)
    result = fit(rcov, spec, init=init)
    doc = _fit_json(result)
    rows = [("coord", "estimate", "se")] + [
        (j + 1, est, se)
        for j, (est, se) in enumerate(zip(doc["theta"], doc["se"]))
    ]
    _write_report(args.out, doc, args.format, rows)
    print(_fit_report(result))
    _wrote(args, data=args.data, spec=spec_to_json(spec))
    return EXIT_OK if result.converged else EXIT_NONCONVERGED


def _test_json(tr):
    return {
        "k": tr.k_star,
        "statistic": tr.statistic,
        "df": tr.df,
        "alpha": tr.alpha,
        "critical": tr.critical,
        "p_value": tr.p_value,
        "reject": tr.reject,
        "fit": _fit_json(tr.fit),
    }


def cmd_test(args):
    rcov, spec, init = _load_data_and_spec(args)
    tr = test_k(rcov, spec, args.k, alpha=args.alpha, init=init)
    rows = [("k", "statistic", "df", "critical", "p_value", "reject"),
            (tr.k_star, tr.statistic, tr.df, tr.critical, tr.p_value, tr.reject)]
    _write_report(args.out, _test_json(tr), args.format, rows)
    decision = "reject" if tr.reject else "accept"
    print(f"H0: k={tr.k_star}  T={tr.statistic:.4f}  df={tr.df}  "
          f"critical={tr.critical:.4f}  p={tr.p_value:.4g}  -> {decision}")
    _wrote(args, data=args.data, k=args.k, alpha=args.alpha)
    return EXIT_OK if tr.fit.converged else EXIT_NONCONVERGED


def cmd_select(args):
    rcov, spec, _ = _load_data_and_spec(args)
    sel = select_k(rcov, spec, alpha=args.alpha)
    doc = {
        "chosen_k": sel.chosen_k,
        "trail": [_test_json(tr) for tr in sel.trail],
    }
    rows = [("k", "statistic", "df", "critical", "decision")] + [
        (t.k_star, t.statistic, t.df, t.critical,
         "reject" if t.reject else "accept")
        for t in sel.trail
    ]
    _write_report(args.out, doc, args.format, rows)
    print(f"{'k':>3} {'statistic':>14} {'df':>4} {'critical':>10} decision")
    for tr in sel.trail:
        print(f"{tr.k_star:>3} {tr.statistic:>14.4f} {tr.df:>4} "
              f"{tr.critical:>10.4f} {'reject' if tr.reject else 'accept'}")
    if sel.chosen_k is None:
        print("no factor structure: every testable count was rejected")
    else:
        print(f"selected k = {sel.chosen_k}")
    _wrote(args, data=args.data, alpha=args.alpha)
    return EXIT_OK


def cmd_experiment(args):
    doc = _load_config(args)
    if args.seed is not None:
        doc["seed_base"] = args.seed
    exp = experiment_from_json(doc)
    agg = run(exp, n_jobs=args.threads)
    written = write_outputs(agg, args.out, exp)
    print(f"ran {agg.replications} replications "
          f"(n={exp.spec.n}, h={exp.spec.h:g}, k_grid={list(exp.k_grid)})")
    for (k, alpha), count in sorted(agg.rejections.items()):
        print(f"  H0 k={k}: {count}/{agg.included[k]} rejections at alpha={alpha}"
              + (f" ({agg.exclusions[k]} excluded)" if agg.exclusions[k] else ""))
    print("wrote:")
    for path in written:
        print(f"  {path}")
    return EXIT_OK


def _flag_type(kind, name, accept, rule):
    """argparse type: ``kind(text)`` passing ``accept``; an error says the
    value must be ``name`` (when ``kind`` fails) or must ``rule``."""
    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be {name}, got {text!r}") from None
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must {rule}, got {text}")
        return value
    return parse


_level = _flag_type(float, "a number", lambda a: 0.0 < a < 1.0, "lie in (0, 1)")
_workers = _flag_type(int, "an integer", lambda w: w >= 1, "be >= 1")


@lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="diffusionfa",
        description=("Latent-factor models for diffusions observed at high "
                     "frequency: simulate, estimate, test."),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, config=False, data=False, spec=False):
        # each subcommand registers only the flags its handler reads
        if config:
            p.add_argument("--config", required=True,
                           help="JSON config file (or bundled config name)")
            p.add_argument("--seed", type=int, default=None,
                           help="override the config seed / seed_base")
        if data:
            p.add_argument("--data", required=True,
                           help="path CSV/binary or realised-covariance JSON")
        if spec:
            p.add_argument("--spec", required=True,
                           help="model JSON (p, k; optional parameters)")
        if config or spec:
            p.add_argument("--override", action="append", metavar="KEY=VALUE",
                           help="override a config field (repeatable, dotted paths)")
        p.add_argument("--out", required=True, help="output file or directory")

    p = sub.add_parser("simulate", help="integrate a configured system")
    common(p, config=True)
    p.add_argument("--format", choices=("csv", "bin"), default="csv")
    p.add_argument("--keep-latent", action="store_true",
                   help="retain the latent factor/unique paths in the output")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("rcov", help="realised covariance of a path file")
    common(p, data=True)
    p.set_defaults(func=cmd_rcov)

    p = sub.add_parser("fit", help="minimum-contrast fit")
    common(p, data=True, spec=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("test", help="goodness-of-fit test for a factor count")
    common(p, data=True, spec=True)
    p.add_argument("--k", type=int, required=True, help="hypothesised factor count")
    p.add_argument("--alpha", type=_level, default=0.05)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("select", help="sequential factor-count selection")
    common(p, data=True, spec=True)
    p.add_argument("--alpha", type=_level, default=0.05)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("experiment", help="Monte Carlo replication study")
    common(p, config=True)
    p.add_argument("--threads", type=_workers, default=1,
                   help="worker processes for replication studies")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UntestableError as exc:
        print(f"untestable k: {exc}", file=sys.stderr)
        return EXIT_UNTESTABLE
    except (ConfigError, StartError, FileNotFoundError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SimulationError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
