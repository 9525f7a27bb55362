import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from diffusionfa.cli import main
from diffusionfa.config import bundled_config_path, load_json, sim_config_to_json

from conftest import SIGMA_TRUE, make_sim_config


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.fixture()
def sim_doc(tmp_path):
    doc = sim_config_to_json(make_sim_config(n=300, seed=11))
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def model_doc(tmp_path):
    src = load_json(bundled_config_path("model_p6k2"))
    path = tmp_path / "model.json"
    path.write_text(json.dumps(src))
    return str(path)


@pytest.fixture()
def path_csv(tmp_path, sim_doc):
    out = str(tmp_path / "path.csv")
    assert main(["simulate", "--config", sim_doc, "--out", out]) == 0
    return out


def test_simulate_writes_expected_shape(tmp_path, sim_doc, capsys):
    out = str(tmp_path / "path.csv")
    code = main(["simulate", "--config", sim_doc, "--out", out])
    assert code == 0
    with open(out) as fh:
        lines = fh.read().strip().splitlines()
    assert len(lines) == 302  # header + n+1 rows
    assert lines[0] == "t,x1,x2,x3,x4,x5,x6"
    assert os.path.exists(out + ".manifest.json")


def test_simulate_seed_determinism(tmp_path, sim_doc):
    out1 = str(tmp_path / "a.csv")
    out2 = str(tmp_path / "b.csv")
    assert main(["simulate", "--config", sim_doc, "--out", out1, "--seed", "7"]) == 0
    assert main(["simulate", "--config", sim_doc, "--out", out2, "--seed", "7"]) == 0
    assert sha256(out1) == sha256(out2)


def test_simulate_missing_field_exits_2(tmp_path, capsys):
    doc = sim_config_to_json(make_sim_config(n=10, seed=1))
    del doc["spec"]["h"]
    cfg = tmp_path / "broken.json"
    cfg.write_text(json.dumps(doc))
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "'h'" in capsys.readouterr().err


def test_simulate_binary_format(tmp_path, sim_doc):
    out = str(tmp_path / "path.bin")
    assert main(["simulate", "--config", sim_doc, "--out", out,
                 "--format", "bin"]) == 0
    from diffusionfa import path_from_binary

    with open(out, "rb") as fh:
        path = path_from_binary(fh)
    assert path.x.shape == (301, 6)


def test_rcov_outputs_symmetric_psd(tmp_path, path_csv):
    out = str(tmp_path / "rcov.json")
    assert main(["rcov", "--data", path_csv, "--out", out]) == 0
    doc = json.loads(Path(out).read_text())
    q = np.asarray(doc["q"])
    assert q.shape == (6, 6)
    assert np.allclose(q, q.T)
    assert doc["n"] == 300
    assert np.linalg.eigvalsh(q)[0] >= -1e-10


@pytest.mark.parametrize("extra", [["--threads", "2"], ["--seed", "3"],
                                   ["--override", "n=5"], ["-v"]])
def test_rcov_rejects_flags_it_would_ignore(tmp_path, path_csv, extra, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rcov", "--data", path_csv, "--out", str(tmp_path / "r.json")] + extra)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_truncated_binary_exits_2(tmp_path, sim_doc, capsys):
    data = str(tmp_path / "path.bin")
    assert main(["simulate", "--config", sim_doc, "--out", data,
                 "--format", "bin"]) == 0
    with open(data, "r+b") as fh:
        fh.truncate(os.path.getsize(data) - 8)
    code = main(["rcov", "--data", data, "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert "truncated" in capsys.readouterr().err


@pytest.mark.parametrize("fault,needle", [("asymmetric", "not symmetric"),
                                          ("nan", "non-finite"),
                                          ("indefinite", "positive semidefinite")])
def test_malformed_rcov_json_exits_2(tmp_path, fault, needle, capsys):
    q = SIGMA_TRUE.copy()
    if fault == "asymmetric":
        q[0, 1] += 1.0
    elif fault == "nan":
        q[2, 3] = q[3, 2] = np.nan
    else:  # smallest eigenvalue -1
        q -= (np.linalg.eigvalsh(q)[0] + 1.0) * np.eye(6)
    data = str(tmp_path / "rcov.json")
    with open(data, "w") as fh:
        json.dump({"q": q.tolist(), "n": 1000, "h": 0.001}, fh)
    code = main(["rcov", "--data", data, "--out", str(tmp_path / "r.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert data in err and needle in err


def _rcov_json_with(tmp_path, field, value):
    doc = {"q": SIGMA_TRUE.tolist(), "n": 1000, "h": 0.001}
    doc[field] = value
    data = str(tmp_path / "rcov.json")
    with open(data, "w") as fh:
        json.dump(doc, fh)
    return data


@pytest.mark.parametrize("field,value,needle", [
    ("n", None, "field 'n' must be an integer"),
    ("n", "1000", "field 'n' must be an integer"),
    ("n", 1000.5, "field 'n' must be an integer"),
    ("h", None, "field 'h' must be a number"),
    ("h", "0.001", "field 'h' must be a number"),
    ("h", True, "field 'h' must be a number"),
    ("h", [0.001], "field 'h' must be a number")])
def test_rcov_json_non_numeric_field_exits_2(tmp_path, field, value, needle, capsys):
    data = _rcov_json_with(tmp_path, field, value)
    code = main(["rcov", "--data", data, "--out", str(tmp_path / "r.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert data in err and needle in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("field,value,needle", [
    ("h", -1.0, "h must be a finite positive step"),
    ("h", 0.0, "h must be a finite positive step"),
    ("n", 0, "n must be >= 1")])
def test_rcov_json_nonpositive_h_or_n_exits_2(tmp_path, field, value, needle, capsys):
    data = _rcov_json_with(tmp_path, field, value)
    code = main(["rcov", "--data", data, "--out", str(tmp_path / "r.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert data in err and needle in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("col,value,needle", [(2, "nan", "observation row 5"),
                                              (0, "0.0051", "step 5")])
def test_malformed_path_csv_exits_2(tmp_path, path_csv, col, value, needle,
                                    capsys):
    # row 5 of the h=0.001 grid: a NaN in x2, or t moved off the grid
    lines = Path(path_csv).read_text().splitlines()
    cells = lines[6].split(",")
    cells[col] = value
    lines[6] = ",".join(cells)
    with open(path_csv, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    code = main(["rcov", "--data", path_csv, "--out", str(tmp_path / "r.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert path_csv in err and needle in err


def test_fit_roundtrip_exit_codes(tmp_path, path_csv, model_doc, capsys):
    out = str(tmp_path / "fit.json")
    code = main(["fit", "--data", path_csv, "--spec", model_doc, "--out", out])
    assert code in (0, 3)
    doc = json.loads(Path(out).read_text())
    assert len(doc["theta"]) == 17
    assert len(doc["se"]) == 17
    assert isinstance(doc["converged"], bool)
    assert (code == 0) == doc["converged"]


def test_fit_accepts_rcov_json(tmp_path, path_csv, model_doc):
    rcov_path = str(tmp_path / "rcov.json")
    assert main(["rcov", "--data", path_csv, "--out", rcov_path]) == 0
    out = str(tmp_path / "fit.json")
    code = main(["fit", "--data", rcov_path, "--spec", model_doc, "--out", out])
    assert code in (0, 3)


def test_test_subcommand_decision(tmp_path, path_csv, model_doc, capsys):
    out = str(tmp_path / "test.json")
    code = main(["test", "--data", path_csv, "--spec", model_doc,
                 "--k", "2", "--out", out])
    assert code in (0, 3)
    doc = json.loads(Path(out).read_text())
    assert doc["df"] == 4
    assert doc["k"] == 2
    assert "reject" in doc
    assert "->" in capsys.readouterr().out


def test_untestable_k_exits_4(tmp_path, path_csv, model_doc, capsys):
    out = str(tmp_path / "test.json")
    code = main(["test", "--data", path_csv, "--spec", model_doc,
                 "--k", "3", "--out", out])
    assert code == 4
    assert "untestable" in capsys.readouterr().err


def test_select_reports_trail(tmp_path, model_doc, capsys):
    # large-n synthetic path so the decision is clean
    doc = sim_config_to_json(make_sim_config(n=20000, h=1e-4, seed=21))
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps(doc))
    data = str(tmp_path / "path.csv")
    assert main(["simulate", "--config", str(cfg), "--out", data]) == 0
    out = str(tmp_path / "select.json")
    code = main(["select", "--data", data, "--spec", model_doc, "--out", out])
    assert code == 0
    sel = json.loads(Path(out).read_text())
    assert sel["chosen_k"] == 2
    assert [t["k"] for t in sel["trail"]] == [1, 2]
    text = capsys.readouterr().out
    assert "selected k = 2" in text


def test_experiment_end_to_end(tmp_path, capsys):
    doc = load_json(bundled_config_path("table6_nonergodic"))
    doc["replications"] = 4
    doc["sim"]["spec"]["n"] = 200
    doc["k_grid"] = [2]
    doc["keep_draws"] = ["tstat:2"]
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(doc))
    out = str(tmp_path / "results")
    code = main(["experiment", "--config", str(cfg), "--out", out])
    assert code == 0
    files = sorted(os.listdir(out))
    assert "table_rcov.csv" in files
    assert "table_theta.csv" in files
    assert "table_tstat.csv" in files
    assert "manifest.json" in files
    assert any(f.startswith("figure_tstat") for f in files)


def test_experiment_override_recorded(tmp_path):
    doc = load_json(bundled_config_path("table6_nonergodic"))
    doc["sim"]["spec"]["n"] = 150
    doc["k_grid"] = [2]
    doc["keep_draws"] = []
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(doc))
    out = str(tmp_path / "results")
    code = main(["experiment", "--config", str(cfg), "--out", out,
                 "--override", "replications=10"])
    assert code == 0
    manifest = json.loads(Path(out, "manifest.json").read_text())
    assert manifest["replications"] == 10


def test_experiment_zero_replications_exits_2(tmp_path, capsys):
    doc = load_json(bundled_config_path("table6_nonergodic"))
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(doc))
    out = str(tmp_path / "results")
    code = main(["experiment", "--config", str(cfg), "--out", out,
                 "--override", "replications=0"])
    assert code == 2
    assert "replications must be >= 1" in capsys.readouterr().err


BAD_EXPERIMENT_FIELDS = [
    ("k_grid=[0]", "k_grid entry 0"),
    ("k_grid=[7]", "k_grid entry 7"),
    ('k_grid=["a"]', "k_grid entry 'a'"),
    ("k_grid=[true]", "k_grid entry True"),
    ("k_grid=[3]", "k_grid entry 3"),
    ("k_grid=[2, 2]", "k_grid [2, 2] repeats"),
    ("k_grid=2", "k_grid must be a list"),
    ("alphas=[2]", "alphas entry 2"),
    ('alphas=[0.05, "x"]', "alphas entry 'x'"),
    ("alphas=[0]", "alphas entry 0"),
    ("seed_base=-1", "seed_base must be a non-negative integer"),
    ("seed_base=1.5", "seed_base must be a non-negative integer"),
    ("replications=2.5", "replications must be >= 1"),
    ('replications="3"', "replications must be >= 1"),
    ('keep_draws=["theta:99"]', "keep_draws entry 'theta:99'"),
    ('keep_draws=["tstat:3"]', "keep_draws entry 'tstat:3'"),
    ('keep_draws=["rcov:1,2"]', "keep_draws entry 'rcov:1,2'"),
    ('k_grid=[1]', "keep_draws entry 'theta:1'"),
    ('bounds={"loading": [30, -30]}', "bounds 'loading' must be numbers lower < upper"),
    ('bounds={"loading": ["x", 30]}', "bounds 'loading' must be numbers lower < upper"),
    ('bounds={"spin": [0, 1]}', "bounds must map loading"),
    ("sim.spec.h=-0.01", "spec.h must be finite and > 0"),
    ("sim.substeps=2.5", "field 'substeps' must be an integer"),
    ("sim.factor_drift.b=0.5", "factor_drift.b has shape (), expected (2, 2)"),
    ("sim.factor_drift.mu=[2]", "factor_drift.mu has shape (1,), expected (2,)"),
    ('bounds={"loading": [0, 30]}', "truth theta:4=-3 lies outside [0, 30]"),
    ("sim.unique_dispersions=[0, 0, 0, 0, 0, 0]",
     "truth Sigma(theta) of sim.factor_dispersion and sim.unique_dispersions "
     "is not positive definite"),
]


@pytest.mark.parametrize("override,needle", BAD_EXPERIMENT_FIELDS,
                         ids=[override for override, _ in BAD_EXPERIMENT_FIELDS])
def test_experiment_bad_field_exits_2_before_simulating(tmp_path, monkeypatch,
                                                        override, needle, capsys):
    from diffusionfa import montecarlo

    def no_simulation(config):
        raise AssertionError("a replication ran before the fields were checked")

    monkeypatch.setattr(montecarlo, "simulate", no_simulation)
    code = main(["experiment", "--config", "table6_nonergodic",
                 "--out", str(tmp_path / "results"),
                 "--override", "replications=2", "--override", override])
    assert code == 2
    assert needle in capsys.readouterr().err


@pytest.mark.parametrize("k", ["0", "6", "-1"])
def test_test_k_outside_range_exits_4(tmp_path, path_csv, model_doc, k, capsys):
    code = main(["test", "--data", path_csv, "--spec", model_doc,
                 "--k", k, "--out", str(tmp_path / "test.json")])
    assert code == 4
    err = capsys.readouterr().err
    assert f"k={k}" in err and "p=6" in err


@pytest.mark.parametrize("subcommand", ["test", "select"])
@pytest.mark.parametrize("alpha", ["1.5", "0", "1", "-0.1", "nan"])
def test_alpha_outside_unit_interval_exits_2(tmp_path, path_csv, model_doc,
                                             subcommand, alpha, capsys):
    extra = ["--k", "2"] if subcommand == "test" else []
    with pytest.raises(SystemExit) as exc:
        main([subcommand, "--data", path_csv, "--spec", model_doc, "--alpha", alpha,
              "--out", str(tmp_path / "out.json")] + extra)
    assert exc.value.code == 2
    assert "--alpha" in capsys.readouterr().err


BAD_SIMULATION_INPUTS = [
    ("seed=-1", "seed must be >= 0"),
    ("seed=1.5", "field 'seed' must be an integer"),
    ("seed=true", "field 'seed' must be an integer"),
    ("substeps=2.5", "field 'substeps' must be an integer"),
    ('substeps="2"', "field 'substeps' must be an integer"),
    ("spec.n=0", "spec.n must be >= 1"),
    ("spec.h=-0.01", "spec.h must be finite and > 0"),
    ("spec.h=NaN", "spec.h must be finite and > 0"),
    ("factor_drift.b=[[0.5, 0.3]]", "factor_drift.b has shape (1, 2), expected (2, 2)"),
]


@pytest.mark.parametrize("override,needle", BAD_SIMULATION_INPUTS,
                         ids=[override for override, _ in BAD_SIMULATION_INPUTS])
def test_simulate_bad_input_exits_2(tmp_path, override, needle, capsys):
    code = main(["simulate", "--config", "system_p6k2", "--override", override,
                 "--out", str(tmp_path / "path.csv")])
    assert code == 2
    assert needle in capsys.readouterr().err


@pytest.mark.parametrize("field,value,needle", [
    ("b", [3.0, 3.0], "unique_drifts[0].b has shape (2,), expected a scalar"),
    ("mu", [[0.0]], "unique_drifts[0].mu has shape (1, 1), expected a scalar"),
], ids=["b", "mu"])
@pytest.mark.parametrize("command,config", [("experiment", "table6_nonergodic"),
                                            ("simulate", "system_p6k2")],
                         ids=["experiment", "simulate"])
def test_unique_drift_of_wrong_shape_exits_2(tmp_path, command, config, field,
                                             value, needle, capsys):
    doc = load_json(bundled_config_path(config))
    sim = doc["sim"] if command == "experiment" else doc
    sim["unique_drifts"][0][field] = value
    (tmp_path / "config.json").write_text(json.dumps(doc))
    code = main([command, "--config", str(tmp_path / "config.json"),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert needle in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_drift_explosion_exits_2_naming_step(tmp_path, capsys):
    # unique b = -1e4 grows e1 by a factor 11 per step until it overflows
    from diffusionfa.montecarlo import replication_seed

    sim = load_json(bundled_config_path("system_p6k2"))
    sim["unique_drifts"][0]["b"] = -1e4
    exp = load_json(bundled_config_path("table6_nonergodic"))
    exp["sim"]["unique_drifts"][0]["b"] = -1e4
    exp["replications"] = 2
    for name, doc in (("sim.json", sim), ("exp.json", exp)):
        (tmp_path / name).write_text(json.dumps(doc))
    code = main(["simulate", "--config", str(tmp_path / "sim.json"),
                 "--out", str(tmp_path / "path.csv")])
    assert code == 2
    assert "non-finite state at grid step 296" in capsys.readouterr().err
    code = main(["experiment", "--config", str(tmp_path / "exp.json"),
                 "--out", str(tmp_path / "results")])
    assert code == 2
    seed = replication_seed(exp["seed_base"], 0)
    err = capsys.readouterr().err
    assert f"replication 0 (seed {seed}): non-finite state at grid step" in err


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_experiment_threads_below_one_exits_2(tmp_path, threads, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "--config", "table6_nonergodic", "--threads", threads,
              "--override", "replications=1", "--out", str(tmp_path / "results")])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_cli_import_and_simulate_leave_scipy_stats_unloaded():
    # scipy.signal pulls in scipy.stats, which adds about 40 MB of resident
    # memory to every CLI process; neither may be loaded on this path, and
    # nor may scipy.linalg, which no pipeline code needs
    src_dir = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "import diffusionfa.cli\n"
        "from diffusionfa import simulate\n"
        "from diffusionfa.config import bundled_config_path, load_json, sim_config_from_json\n"
        "doc = load_json(bundled_config_path('table6_nonergodic'))['sim']\n"
        "simulate(sim_config_from_json(doc))\n"
        "print([m for m in ('scipy.signal', 'scipy.stats', 'scipy.linalg')\n"
        "       if m in sys.modules])\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


MODEL_DOC_DEFECTS = [
    (["k=1"], "'sigma_ee' give p=6, k=2 but spec declares p=6, k=1"),
    (["a=[[3, 1], [1, 5], [7, -4]]", "sigma_ee=[4, 16, 25, 1, 9]"],
     "'sigma_ee' give p=5, k=2 but spec declares p=6, k=2"),
    (["sigma_ee=[4, 16, -25, 1, 9, 4]"], "start theta:14=-25 lies outside"),
    (["sigma_ff=[13, 13, 1]"], "start Sigma(theta) of fields"),
    (["a=[[null, 1], [1, 5], [7, -4], [-3, 2]]"], "field 'a' must hold only numbers, got null"),
]


@pytest.mark.parametrize("overrides,needle,subcommand", [
    pytest.param(overrides, needle, subcommand, id=f"{name}-{subcommand}")
    for (overrides, needle), name in zip(MODEL_DOC_DEFECTS,
                                         ["k", "p", "box", "not_pd", "null"])
    # a start defect matters only where a start is used: select never does
    for subcommand in ["fit", "test", "select"]
    if not (subcommand == "select" and name in ("box", "not_pd"))])
def test_model_doc_inconsistent_with_itself_or_data_exits_2(
        tmp_path, path_csv, model_doc, subcommand, overrides, needle, capsys):
    extra = ["--k", "2"] if subcommand == "test" else []
    for item in overrides:
        extra += ["--override", item]
    code = main([subcommand, "--data", path_csv, "--spec", model_doc,
                 "--out", str(tmp_path / "out.json")] + extra)
    assert code == 2
    assert needle in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("override", ["sigma_ee=[4, 16, -25, 1, 9, 4]",
                                      "sigma_ff=[13, 13, 1]"], ids=["box", "not_pd"])
def test_select_ignores_the_start(tmp_path, path_csv, model_doc, override):
    # select fits every count from the default start, so a parameter block
    # that could not start a fit changes nothing
    doc = load_json(model_doc)
    for field in ("a", "sigma_ff", "sigma_ee"):
        del doc[field]
    (tmp_path / "bare_model.json").write_text(json.dumps(doc))
    bare = str(tmp_path / "bare.json")
    assert main(["select", "--data", path_csv, "--spec", str(tmp_path / "bare_model.json"),
                 "--out", bare]) == 0
    out = str(tmp_path / "select.json")
    assert main(["select", "--data", path_csv, "--spec", model_doc, "--out", out,
                 "--override", override]) == 0
    assert Path(out).read_text() == Path(bare).read_text()


def test_fit_takes_n_and_h_from_data(tmp_path, path_csv, model_doc):
    # the model document agrees with the data on n but not on h
    out = str(tmp_path / "fit.json")
    code = main(["fit", "--data", path_csv, "--spec", model_doc, "--out", out,
                 "--override", "n=300", "--override", "h=0.5"])
    assert code in (0, 3)
    spec = json.loads(Path(out + ".manifest.json").read_text())["spec"]
    assert spec == {"p": 6, "k": 2, "n": 300, "h": 0.001}


def _small_rcov_doc(tmp_path, q):
    data = str(tmp_path / "rcov.json")
    with open(data, "w") as fh:
        json.dump({"q": q, "n": 1000, "h": 0.001}, fh)
    spec = str(tmp_path / "model.json")
    with open(spec, "w") as fh:
        json.dump({"p": len(q), "k": 1, "n": 1000, "h": 0.001}, fh)
    return data, spec


def test_fit_with_more_parameters_than_moments_exits_4(tmp_path, capsys):
    data, spec = _small_rcov_doc(tmp_path, [[2.0, 1.0], [1.0, 3.0]])
    code = main(["fit", "--data", data, "--spec", spec,
                 "--out", str(tmp_path / "fit.json")])
    assert code == 4
    assert "k=1 at p=2 has q=4 parameters, more than the 3 moments" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("q", [[[2.0, 1.0], [1.0, 3.0]],
                               [[2.0, 1.0, 0.5], [1.0, 3.0, 1.0], [0.5, 1.0, 2.0]]],
                         ids=["p2", "p3"])
def test_select_with_no_testable_count_exits_4(tmp_path, q, capsys):
    data, spec = _small_rcov_doc(tmp_path, q)
    code = main(["select", "--data", data, "--spec", spec,
                 "--out", str(tmp_path / "select.json")])
    assert code == 4
    assert f"no factor count is testable at p={len(q)}" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["fit"], ["test", "--k", "1"], ["select"]],
                         ids=["fit", "test", "select"])
def test_zero_variance_coordinate_fits_without_traceback(tmp_path, command):
    # the default start puts a zero unique variance at the fourth coordinate
    q = [[2.0, 1.0, 0.5, 0.0], [1.0, 3.0, 1.0, 0.0], [0.5, 1.0, 2.0, 0.0],
         [0.0, 0.0, 0.0, 0.0]]
    data, spec = _small_rcov_doc(tmp_path, q)
    code = main(command + ["--data", data, "--spec", spec,
                           "--out", str(tmp_path / "out.json")])
    assert code in (0, 3)


@pytest.mark.parametrize("command", [["fit"], ["test", "--k", "1"], ["select"]],
                         ids=["fit", "test", "select"])
def test_all_zero_realised_covariance_exits_2(tmp_path, command, capsys):
    # a constant path: the data-scaled default box has no scale
    data, spec = _small_rcov_doc(tmp_path, [[0.0] * 4] * 4)
    code = main(command + ["--data", data, "--spec", spec,
                           "--out", str(tmp_path / "out.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert data in err and "no positive diagonal entry" in err


@pytest.mark.parametrize("command", [["fit"], ["test", "--k", "1"], ["select"]],
                         ids=["fit", "test", "select"])
def test_fit_block_reports_evaluations(tmp_path, command, capsys):
    data, spec = _small_rcov_doc(tmp_path, [[2.0, 1.0, 0.5, 0.2], [1.0, 3.0, 1.0, 0.4],
                                            [0.5, 1.0, 2.0, 0.3], [0.2, 0.4, 0.3, 1.0]])
    out = tmp_path / "out.json"
    assert main(command + ["--data", data, "--spec", spec, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    block = doc["trail"][0]["fit"] if "trail" in doc else doc.get("fit", doc)
    assert block["evaluations"] >= block["iterations"] + 1
    if command == ["fit"]:
        assert f"{block['evaluations']} evaluations" in capsys.readouterr().out


@pytest.mark.parametrize("argv,needle", [
    (["experiment", "--config", "table6_nonergodic", "--threads", "x"],
     "argument --threads: must be an integer, got 'x'"),
    (["select", "--data", "d.csv", "--spec", "m.json", "--alpha", "x"],
     "argument --alpha: must be a number, got 'x'"),
], ids=["threads", "alpha"])
def test_non_numeric_flag_names_expected_type(tmp_path, argv, needle, capsys):
    # argparse rejects the value before any file is read or worker started
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert needle in capsys.readouterr().err


def test_study_without_bounds_checks_the_truth_in_the_flat_box(tmp_path, monkeypatch,
                                                               capsys):
    # an absent bounds block is the flat [-30, 30] box, so A[3, 1] = 45
    # (theta:8) is outside it before any replication runs
    from diffusionfa import montecarlo

    def no_simulation(config):
        raise AssertionError("a replication ran before the truth was checked")

    monkeypatch.setattr(montecarlo, "simulate", no_simulation)
    code = main(["experiment", "--config", "ergodic_scaled", "--override", "replications=1",
                 "--override", "bounds=null",
                 "--override", "sim.a=[[3, 1], [1, 5], [7, -4], [-3, 45]]",
                 "--out", str(tmp_path / "results")])
    assert code == 2
    assert "truth theta:8=45 lies outside [-30, 30]" in capsys.readouterr().err


def _first_leaf(value, leaf):
    """``value`` with its first scalar replaced by ``leaf``."""
    if isinstance(value, list):
        return [_first_leaf(value[0], leaf)] + value[1:]
    return leaf


# (subcommand, field path in its document, the name an error gives it)
ARRAY_FIELDS = [
    ("simulate", ("a",), "a"),
    ("simulate", ("factor_dispersion",), "factor_dispersion"),
    ("simulate", ("unique_dispersions",), "unique_dispersions"),
    ("simulate", ("f0",), "f0"),
    ("simulate", ("e0",), "e0"),
    ("simulate", ("factor_drift", "b"), "factor_drift.b"),
    ("simulate", ("factor_drift", "mu"), "factor_drift.mu"),
    ("simulate", ("unique_drifts", 0, "b"), "unique_drifts[0].b"),
    ("simulate", ("unique_drifts", 0, "mu"), "unique_drifts[0].mu"),
    ("experiment", ("sim", "factor_drift", "b"), "sim.factor_drift.b"),
    ("fit", ("a",), "a"),
    ("fit", ("sigma_ff",), "sigma_ff"),
    ("fit", ("sigma_ee",), "sigma_ee"),
    ("rcov", ("q",), "q"),
]
ARRAY_DEFECTS = [
    ("null", lambda v: _first_leaf(v, None), "must hold only numbers, got null"),
    ("string", lambda v: _first_leaf(v, "1"), 'must hold only numbers, got "1"'),
    ("bool", lambda v: _first_leaf(v, True), "must hold only numbers, got true"),
    ("object", lambda v: _first_leaf(v, {}), "must hold only numbers, got {}"),
    ("ragged", lambda v: [[1.0, 2.0], [3.0]], "is a ragged array"),
]


@pytest.mark.parametrize("defect,spoil,needle", ARRAY_DEFECTS,
                         ids=[d[0] for d in ARRAY_DEFECTS])
@pytest.mark.parametrize("command,where,name", ARRAY_FIELDS,
                         ids=[f"{c}-{n}" for c, _, n in ARRAY_FIELDS])
def test_bad_numeric_array_exits_2_naming_field(tmp_path, command, where, name,
                                                defect, spoil, needle, capsys):
    source = {"simulate": "system_p6k2", "experiment": "table6_nonergodic",
              "fit": "model_p6k2"}.get(command)
    doc = (load_json(bundled_config_path(source)) if source
           else {"q": SIGMA_TRUE.tolist(), "n": 1000, "h": 0.001})
    parent = doc
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = spoil(parent[where[-1]])
    bad = str(tmp_path / "doc.json")
    with open(bad, "w") as fh:
        json.dump(doc, fh)
    out = str(tmp_path / "out")
    if command == "fit":
        data = str(tmp_path / "path.csv")
        assert main(["simulate", "--config", "system_p6k2", "--out", data]) == 0
        argv = ["fit", "--data", data, "--spec", bad]
    elif command == "rcov":
        argv = ["rcov", "--data", bad]
    elif command == "experiment":  # a study that wrongly runs stays small
        argv = ["experiment", "--config", bad, "--override", "replications=2"]
    else:
        argv = [command, "--config", bad]
    capsys.readouterr()
    assert main(argv + ["--out", out]) == 2
    assert f"field '{name}' {needle}" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("command,config,override,needle", [
    ("simulate", "system_p6k2", "spec=3", "spec must be a JSON object, got 3"),
    ("experiment", "table6_nonergodic", "sim=null", "sim must be a JSON object, got None"),
    ("experiment", "table6_nonergodic", "sim.unique_drifts={}",
     "sim.unique_drifts must be a list, got {}"),
    ("experiment", "table6_nonergodic", "sim.unique_drifts=[3]",
     "sim.unique_drifts[0] must be a JSON object, got 3"),
], ids=["spec=3", "sim=null", "unique_drifts={}", "unique_drifts=[3]"])
def test_document_part_that_is_not_an_object_exits_2(tmp_path, command, config,
                                                     override, needle, capsys):
    code = main([command, "--config", config, "--override", override,
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert needle in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_observation_exits_2_naming_step(tmp_path, capsys):
    # the factor state stays finite near mu = 1e308, but x = f Lambda' + e
    # overflows from grid step 271 on
    from diffusionfa.montecarlo import replication_seed

    code = main(["simulate", "--config", "system_p6k2",
                 "--override", "factor_drift.mu=[1e308, 4.0]",
                 "--out", str(tmp_path / "path.csv")])
    assert code == 2
    assert "non-finite observation at grid step 271" in capsys.readouterr().err
    code = main(["experiment", "--config", "table6_nonergodic",
                 "--override", "replications=1",
                 "--override", "sim.factor_drift.mu=[1e308, 4.0]",
                 "--out", str(tmp_path / "results")])
    assert code == 2
    seed = replication_seed(77, 0)
    assert (f"replication 0 (seed {seed}): non-finite observation at grid step"
            in capsys.readouterr().err)


@pytest.mark.parametrize("h,needle", [
    # the unstable Euler path stays finite, but dx'dx overflows
    ("1.5", "realised covariance has non-finite entries"),
    # Sigma of the first fit's start is positive definite, but F overflows
    ("1.0", "start contrast is not finite"),
], ids=["rcov", "contrast"])
def test_replication_that_overflows_exits_2_naming_seed(tmp_path, h, needle, capsys):
    from diffusionfa.montecarlo import replication_seed

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["experiment", "--config", "table6_nonergodic",
                     "--override", "replications=1", "--override", "sim.spec.n=200",
                     "--override", f"sim.spec.h={h}", "--out", str(tmp_path / "results")])
    # the overflow is judged and reported, so numpy's warnings stay quiet
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert code == 2
    seed = replication_seed(77, 0)
    assert f"replication 0 (seed {seed}): {needle}" in capsys.readouterr().err


def test_singular_truth_exits_2_without_the_generating_count(tmp_path, monkeypatch,
                                                             capsys):
    # no fit starts at the truth, but the theoretical SDs need Sigma(truth)
    from diffusionfa import montecarlo

    def no_simulation(config):
        raise AssertionError("a replication ran before the truth was checked")

    monkeypatch.setattr(montecarlo, "simulate", no_simulation)
    code = main(["experiment", "--config", "ergodic_scaled", "--override", "k_grid=[1]",
                 "--override", "keep_draws=[]",
                 "--override", "sim.unique_dispersions=[0, 0, 0, 0, 0, 0]",
                 "--out", str(tmp_path / "results")])
    assert code == 2
    assert ("truth Sigma(theta) of sim.factor_dispersion and sim.unique_dispersions"
            in capsys.readouterr().err)


@pytest.mark.parametrize("command", [["fit"], ["test", "--k", "2"], ["select"]],
                         ids=["fit", "test", "select"])
def test_report_subcommands_name_the_manifest(tmp_path, path_csv, model_doc, command,
                                             capsys):
    out = str(tmp_path / "out.json")
    assert main(command + ["--data", path_csv, "--spec", model_doc, "--out", out]) in (0, 3)
    assert capsys.readouterr().out.endswith(f"wrote {out} and {out}.manifest.json\n")


def test_cached_parser_carries_no_flag_into_the_next_call(tmp_path, monkeypatch):
    # build_parser() is built once per process; a flag one call sets must
    # not become the default of the next
    from diffusionfa import cli

    doc = load_json(bundled_config_path("table6_nonergodic"))
    doc.update(replications=2, seed_base=77)
    config = tmp_path / "study.json"
    config.write_text(json.dumps(doc))
    seen = []
    real_run = cli.run

    def spy(exp, n_jobs=1):
        seen.append((exp.replications, exp.seed_base, n_jobs))
        return real_run(exp)

    monkeypatch.setattr(cli, "run", spy)
    study = ["experiment", "--config", str(config)]
    assert main(study + ["--seed", "5", "--override", "replications=1",
                         "--threads", "2", "--out", str(tmp_path / "first")]) == 0
    assert main(study + ["--out", str(tmp_path / "second")]) == 0
    assert seen == [(1, 5, 2), (2, 77, 1)]
    manifest = json.loads(Path(tmp_path, "second", "manifest.json").read_text())
    assert (manifest["replications"], manifest["seed_base"]) == (2, 77)
    assert cli.build_parser() is cli.build_parser()


def test_docs_flag_table_matches_the_parser():
    from diffusionfa.cli import build_parser

    docs = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "docs", "file-formats.md")
    text = Path(docs).read_text(encoding="utf-8")
    table = text.split("## Command-line flags", 1)[1].split("\n\n")[2]
    documented = {}
    for line in table.splitlines()[2:]:
        name, flags = [cell.strip() for cell in line.strip("|").split("|", 1)]
        documented[name.strip("`")] = {f.split()[0] for f in flags.strip("`").split("`, `")}
    subparsers = next(a for a in build_parser()._actions if a.dest == "subcommand")
    registered = {name: {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
                  for name, sub in subparsers.choices.items()}
    assert documented == registered
