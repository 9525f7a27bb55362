import json

import numpy as np
import pytest

from diffusionfa.config import (
    ConfigError,
    apply_overrides,
    bundled_config_path,
    load_json,
    model_from_json,
    sim_config_from_json,
    sim_config_to_json,
)
from diffusionfa.matrixcalc import vech
from diffusionfa.model import pack
from diffusionfa.montecarlo import experiment_from_json

from conftest import THETA_TRUE, make_spec


def test_model_document_roundtrip(truth):
    spec = make_spec()
    doc = {"p": spec.p, "k": spec.k, "n": spec.n, "h": spec.h,
           "a": truth.a.tolist(), "sigma_ff": vech(truth.sigma_ff).tolist(),
           "sigma_ee": truth.sigma_ee.tolist()}
    spec2, params2 = model_from_json(doc)
    assert (spec2.p, spec2.k) == (spec.p, spec.k)
    assert np.array_equal(params2.a, truth.a)
    assert np.array_equal(params2.sigma_ff, truth.sigma_ff)
    assert np.array_equal(params2.sigma_ee, truth.sigma_ee)


def test_model_document_without_params():
    spec, params = model_from_json(
        {"p": 6, "k": 2, "n": 10, "h": 0.1})
    assert params is None
    assert spec.p == 6


def test_missing_field_names_field():
    with pytest.raises(ConfigError, match="'k'"):
        model_from_json({"p": 6, "n": 10, "h": 0.1})


def test_model_document_needs_no_n_or_h():
    # fit, test and select take n and h from the data
    spec, params = model_from_json({"p": 6, "k": 2})
    assert (spec.p, spec.k, params) == (6, 2, None)


def test_sim_config_roundtrip(sim_config):
    doc = sim_config_to_json(sim_config)
    back = sim_config_from_json(doc, path="")
    assert back.spec == sim_config.spec
    assert np.array_equal(back.a, sim_config.a)
    assert np.array_equal(back.factor_dispersion, sim_config.factor_dispersion)
    assert back.seed == sim_config.seed
    from diffusionfa import simulate

    assert np.array_equal(simulate(back).x, simulate(sim_config).x)


def test_sim_config_missing_nested_field(sim_config):
    doc = sim_config_to_json(sim_config)
    del doc["spec"]["h"]
    with pytest.raises(ConfigError, match="'h'"):
        sim_config_from_json(doc, path="sim")


def test_custom_drift_not_serializable(sim_config):
    doc = sim_config_to_json(sim_config)
    doc["unique_drifts"][0] = {"kind": "custom"}
    with pytest.raises(ConfigError, match="custom"):
        sim_config_from_json(doc, path="sim")


def test_apply_overrides_plain_and_nested(sim_config):
    doc = sim_config_to_json(sim_config)
    apply_overrides(doc, ["seed=42", "spec.n=123", "substeps=3"])
    assert doc["seed"] == 42
    assert doc["spec"]["n"] == 123
    assert doc["substeps"] == 3


def test_apply_overrides_bad_forms(sim_config):
    doc = sim_config_to_json(sim_config)
    with pytest.raises(ConfigError, match="key=value"):
        apply_overrides(doc, ["oops"])
    with pytest.raises(ConfigError, match="does not exist"):
        apply_overrides(doc, ["nope.deep=1"])


def test_bundled_configs_parse():
    for name in ("system_p6k2", "table6_nonergodic", "ergodic_scaled",
                 "model_p6k2.json"):
        path = bundled_config_path(name)
        doc = load_json(path)
        assert isinstance(doc, dict)
    with pytest.raises(ConfigError, match="bundled"):
        bundled_config_path("missing_config")


def test_experiment_from_bundled_table6():
    doc = load_json(bundled_config_path("table6_nonergodic"))
    exp = experiment_from_json(doc)
    assert exp.replications == 1000
    assert exp.k_grid == (1, 2)
    assert np.array_equal(
        np.concatenate([exp.truth.a.flatten(order="F"),
                        [13.0, 13.0, 26.0], exp.truth.sigma_ee]),
        THETA_TRUE)


def test_experiment_document_with_dropped_key_loads():
    # init_at_truth was removed; documents that still carry it load as before
    doc = load_json(bundled_config_path("table6_nonergodic"))
    doc["init_at_truth"] = False
    exp = experiment_from_json(doc)
    assert exp.k_grid == (1, 2)
    assert exp.bounds_blocks["unique_var"] == (-30.0, 30.0)
    assert not hasattr(exp, "init_at_truth")


def test_experiment_document_with_dropped_truth_key_loads(sim_config, truth):
    # truth is implied by the template; documents that still carry the
    # removed truth (or spec regime) key load, and the key is ignored
    sim_doc = sim_config_to_json(sim_config)
    sim_doc["spec"]["regime"] = "non-ergodic"
    doc = {
        "sim": sim_doc,
        "truth": {"a": [[0.0]], "sigma_ff": [13.0, 13.0, 25.0], "sigma_ee": []},
        "replications": 5,
    }
    exp = experiment_from_json(doc)
    assert exp.spec == sim_config.spec
    assert np.array_equal(pack(exp.truth), pack(truth))


def test_experiment_replication_count_validated(sim_config):
    doc = {"sim": sim_config_to_json(sim_config), "replications": 0}
    with pytest.raises(ConfigError, match="replications must be >= 1"):
        experiment_from_json(doc)


def test_invalid_json_reports_line(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  broken\n}\n")
    with pytest.raises(ConfigError, match="line"):
        load_json(str(bad))
