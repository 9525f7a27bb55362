"""JSON codecs for model, simulation and experiment configuration files.

One parser, one format: every document is a JSON object whose field names
match the dataclass attributes.  Matrices are nested lists in row-major
order; the factor covariance travels as its vech (lower triangle,
column-stacked).  Parse errors raise :class:`ConfigError` naming the
offending field so the CLI can surface actionable diagnostics.  Keys that
name no field (such as removed ones) are ignored.
"""

from __future__ import annotations

import json
from importlib import resources

import numpy as np

from .matrixcalc import unvech
from .model import ModelSpec, ParamVector
from .sde import DriftSpec, SimConfig


class ConfigError(ValueError):
    """A configuration document is missing a field or carries a bad value."""


def _require(doc, field, path=""):
    if field not in doc:
        where = f" in {path}" if path else ""
        raise ConfigError(f"missing field {field!r}{where}")
    return doc[field]


def _as_float(doc, field, path=""):
    value = _require(doc, field, path)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"field {field!r} must be a number, got {value!r}")
    return float(value)


def _as_int(doc, field, path=""):
    value = _require(doc, field, path)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"field {field!r} must be an integer, got {value!r}")
    return value


def spec_from_json(doc, path=""):
    try:
        return ModelSpec(
            p=_as_int(doc, "p", path),
            k=_as_int(doc, "k", path),
            n=_as_int(doc, "n", path),
            h=_as_float(doc, "h", path),
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from None


def spec_to_json(spec):
    return {"p": spec.p, "k": spec.k, "n": spec.n, "h": spec.h}


def params_from_json(doc, path=""):
    try:
        return ParamVector(
            a=np.asarray(_require(doc, "a", path), dtype=float),
            sigma_ff=unvech(np.asarray(_require(doc, "sigma_ff", path), dtype=float)),
            sigma_ee=np.asarray(_require(doc, "sigma_ee", path), dtype=float),
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from None


def model_from_json(doc):
    """Parse a model document; the parameter block is optional."""
    spec = spec_from_json(doc)
    params = None
    if "a" in doc or "sigma_ff" in doc or "sigma_ee" in doc:
        params = params_from_json(doc)
    return spec, params


def _drift_from_json(doc, path):
    kind = _require(doc, "kind", path)
    if kind != "linear_ou":
        raise ConfigError(
            f"drift kind {kind!r} at {path} is not loadable from JSON; "
            "custom drifts are library-only")
    return DriftSpec.linear_ou(_require(doc, "b", path), _require(doc, "mu", path))


def _drift_to_json(drift):
    if drift.kind != "linear_ou":
        raise ConfigError("custom drifts cannot be serialized to JSON")
    b = np.asarray(drift.b)
    mu = np.asarray(drift.mu)
    return {"kind": "linear_ou",
            "b": b.tolist() if b.ndim else float(b),
            "mu": mu.tolist() if mu.ndim else float(mu)}


def sim_config_from_json(doc, path="sim"):
    spec = spec_from_json(_require(doc, "spec", path), path=f"{path}.spec")
    drifts_doc = _require(doc, "unique_drifts", path)
    unique_drifts = tuple(
        _drift_from_json(d, f"{path}.unique_drifts[{i}]")
        for i, d in enumerate(drifts_doc)
    )
    try:
        return SimConfig(
            spec=spec,
            a=np.asarray(_require(doc, "a", path), dtype=float),
            factor_drift=_drift_from_json(_require(doc, "factor_drift", path),
                                          f"{path}.factor_drift"),
            factor_dispersion=np.asarray(
                _require(doc, "factor_dispersion", path), dtype=float),
            unique_drifts=unique_drifts,
            unique_dispersions=np.asarray(
                _require(doc, "unique_dispersions", path), dtype=float),
            f0=np.asarray(_require(doc, "f0", path), dtype=float),
            e0=np.asarray(_require(doc, "e0", path), dtype=float),
            seed=_as_int(doc, "seed", path) if "seed" in doc else 0,
            substeps=_as_int(doc, "substeps", path) if "substeps" in doc else 1,
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from None


def sim_config_to_json(config):
    return {
        "spec": spec_to_json(config.spec),
        "a": config.a.tolist(),
        "factor_drift": _drift_to_json(config.factor_drift),
        "factor_dispersion": config.factor_dispersion.tolist(),
        "unique_drifts": [_drift_to_json(d) for d in config.unique_drifts],
        "unique_dispersions": config.unique_dispersions.tolist(),
        "f0": config.f0.tolist(),
        "e0": config.e0.tolist(),
        "seed": config.seed,
        "substeps": config.substeps,
    }


def apply_overrides(doc, overrides):
    """Apply ``key=value`` strings to a config dict.

    Keys may be dotted to reach nested objects (``spec.n=100``); values are
    parsed as JSON when possible and fall back to strings.
    """
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        target = doc
        parts = key.split(".")
        for part in parts[:-1]:
            if part not in target or not isinstance(target[part], dict):
                raise ConfigError(f"override path {key!r} does not exist")
            target = target[part]
        target[parts[-1]] = value
    return doc


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: line {exc.lineno}: {exc.msg}") from None


def bundled_config_path(name):
    """Filesystem path of a packaged example config (with or without .json)."""
    if not name.endswith(".json"):
        name += ".json"
    ref = resources.files("diffusionfa").joinpath("configs", name)
    if not ref.is_file():
        raise ConfigError(f"no bundled config named {name!r}")
    return str(ref)
