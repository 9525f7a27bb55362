"""JSON codecs for model, simulation and experiment configuration files.

One parser, one format: every document is a JSON object whose field names
match the dataclass attributes.  Matrices are nested lists in row-major
order; the factor covariance travels as its vech (lower triangle,
column-stacked).  Parse errors raise :class:`ConfigError` naming the
offending field so the CLI can surface actionable diagnostics.  Keys that
name no field (such as removed ones) are ignored.
"""

from __future__ import annotations

import functools
import json
from importlib import resources

import numpy as np

from . import __version__
from .matrixcalc import unvech
from .model import ModelSpec, ParamVector
from .sde import DriftSpec, SimConfig


class ConfigError(ValueError):
    """A configuration document is missing a field or carries a bad value."""


def _is_int(value):
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _named_errors(parse):
    """Re-raise a model or simulation ValueError of ``parse`` as ConfigError."""
    @functools.wraps(parse)
    def wrapper(*args, **kwargs):
        try:
            return parse(*args, **kwargs)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    return wrapper


def _join(path, field):
    return f"{path}.{field}" if path else field


def _require(doc, field, path=""):
    if not isinstance(doc, dict):
        raise ConfigError(f"{path or 'the document'} must be a JSON object, got {doc!r}")
    if field not in doc:
        where = f" in {path}" if path else ""
        raise ConfigError(f"missing field {field!r}{where}")
    return doc[field]


def _as_float(doc, field, path=""):
    value = _require(doc, field, path)
    if not _is_number(value):
        raise ConfigError(f"field {field!r} must be a number, got {value!r}")
    return float(value)


def _as_int(doc, field, path=""):
    value = _require(doc, field, path)
    if not _is_int(value):
        raise ConfigError(f"field {field!r} must be an integer, got {value!r}")
    return value


def _as_array(doc, field, path=""):
    """A JSON number or rectangular nested list of numbers as a float array."""
    name = _join(path, field)
    level = [_require(doc, field, path)]
    while any(isinstance(v, list) for v in level):
        if len({len(v) if isinstance(v, list) else None for v in level}) > 1:
            raise ConfigError(f"field {name!r} is a ragged array")
        level = [leaf for v in level for leaf in v]
    bad = [json.dumps(v) for v in level if not _is_number(v)]
    if bad:
        raise ConfigError(f"field {name!r} must hold only numbers, got {bad[0]}")
    return np.array(doc[field], dtype=float)


def spec_from_json(doc, path=""):
    return ModelSpec(
        p=_as_int(doc, "p", path),
        k=_as_int(doc, "k", path),
        n=_as_int(doc, "n", path),
        h=_as_float(doc, "h", path),
    )


def spec_to_json(spec):
    return {"p": spec.p, "k": spec.k, "n": spec.n, "h": spec.h}


def params_from_json(doc, path=""):
    return ParamVector(
        a=_as_array(doc, "a", path),
        sigma_ff=unvech(_as_array(doc, "sigma_ff", path)),
        sigma_ee=_as_array(doc, "sigma_ee", path),
    )


@_named_errors
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
    return DriftSpec.linear_ou(_as_array(doc, "b", path), _as_array(doc, "mu", path))


def _drift_to_json(drift):
    if drift.kind != "linear_ou":
        raise ConfigError("custom drifts cannot be serialized to JSON")
    b = np.asarray(drift.b)
    mu = np.asarray(drift.mu)
    return {"kind": "linear_ou",
            "b": b.tolist() if b.ndim else float(b),
            "mu": mu.tolist() if mu.ndim else float(mu)}


@_named_errors
def sim_config_from_json(doc, path="sim"):
    drifts_doc = _require(doc, "unique_drifts", path)
    if not isinstance(drifts_doc, list):
        raise ConfigError(
            f"{_join(path, 'unique_drifts')} must be a list, got {drifts_doc!r}")
    return SimConfig(
        spec=spec_from_json(_require(doc, "spec", path), path=_join(path, "spec")),
        a=_as_array(doc, "a", path),
        factor_drift=_drift_from_json(_require(doc, "factor_drift", path),
                                      _join(path, "factor_drift")),
        factor_dispersion=_as_array(doc, "factor_dispersion", path),
        unique_drifts=tuple(
            _drift_from_json(d, f"{_join(path, 'unique_drifts')}[{i}]")
            for i, d in enumerate(drifts_doc)),
        unique_dispersions=_as_array(doc, "unique_dispersions", path),
        f0=_as_array(doc, "f0", path),
        e0=_as_array(doc, "e0", path),
        seed=_as_int(doc, "seed", path) if "seed" in doc else 0,
        substeps=_as_int(doc, "substeps", path) if "substeps" in doc else 1,
    )


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


def write_manifest(path, payload):
    """Write ``payload`` and the package version to ``path`` as a run manifest:
    JSON with a two-space indent, sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump({**payload, "version": __version__}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def bundled_config_path(name):
    """Filesystem path of a packaged example config (with or without .json)."""
    if not name.endswith(".json"):
        name += ".json"
    ref = resources.files("diffusionfa").joinpath("configs", name)
    if not ref.is_file():
        raise ConfigError(f"no bundled config named {name!r}")
    return str(ref)
