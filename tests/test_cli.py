import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

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


def test_binary_of_another_version_exits_2(tmp_path, sim_doc, capsys):
    data = str(tmp_path / "path.bin")
    assert main(["simulate", "--config", sim_doc, "--out", data,
                 "--format", "bin"]) == 0
    with open(data, "r+b") as fh:
        fh.seek(4)  # the uint32 version after the magic
        fh.write((2).to_bytes(4, "little"))
    code = main(["rcov", "--data", data, "--out", str(tmp_path / "r.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert data in err and "unsupported container version 2" in err


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


@pytest.mark.parametrize("line,col,value,needle", [
    (6, 2, "nan", "observation row 5"),
    (6, 0, "0.0051", "step 5"),
    (0, 0, "time", "first column must be t"),
], ids=["2-nan-observation row 5", "0-0.0051-step 5", "header-time"])
def test_malformed_path_csv_exits_2(tmp_path, path_csv, line, col, value, needle,
                                    capsys):
    # row 5 of the h=0.001 grid (line 6): a NaN in x2, or t moved off the
    # grid; or a header whose first column is not t
    lines = Path(path_csv).read_text().splitlines()
    cells = lines[line].split(",")
    cells[col] = value
    lines[line] = ",".join(cells)
    with open(path_csv, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    code = main(["rcov", "--data", path_csv, "--out", str(tmp_path / "r.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert path_csv in err and needle in err


@pytest.mark.parametrize("text,needle", [
    ("t,x1,x2\n0,1\n0.001,2\n0.002,3\n", "the rows have 2 columns, the header 3"),
    ("t,x1\n0,1,5\n0.001,2,6\n0.002,3,7\n", "the rows have 3 columns, the header 2"),
    ("t,x1,x2\n", "no rows after the header"),
], ids=["rows-narrower-than-header", "rows-wider-than-header", "header-only"])
def test_path_csv_rows_must_match_the_header(tmp_path, text, needle, capsys):
    # a cut or padded table would otherwise give a Q of another size, and a
    # header alone a numpy warning before the error
    data = tmp_path / "path.csv"
    data.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["rcov", "--data", str(data), "--out", str(tmp_path / "r.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert str(data) in err and needle in err
    assert not (tmp_path / "r.json").exists()


_BAD_HEADERS = {
    "t,a,b": "column 2 must be x1, got 'a'",
    "t,x1,q,x2": "column 3 must be x2 or f1, got 'q'",
    "t,x2,x1": "column 2 must be x1, got 'x2'",
    "t,x1,x1": "column 3 must be x2 or f1, got 'x1'",
    "t,xx,xy": "column 2 must be x1, got 'xx'",
    "t,x1,x2,f1": "column 5 must be f2 or e1, got the end of the header",
    "t,x1,x2,f1,e1": "column 6 must be e2, got the end of the header",
    "t,x1,x2,f1,e1,e2,x3": "column 7 must be nothing after e2, got 'x3'",
}


@pytest.mark.parametrize("header,needle", _BAD_HEADERS.items(), ids=list(_BAD_HEADERS))
def test_path_csv_header_must_follow_the_written_grammar(tmp_path, model_doc, header,
                                                         needle, capsys):
    # only t,x1..xp or t,x1..xp,f1..fk,e1..ep is read: a renamed, swapped,
    # duplicated or missing column is refused, never read as another one
    width = header.count(",")
    data = tmp_path / "path.csv"
    data.write_text(header + "\n" + "".join(
        ",".join([repr(0.001 * i)] + [repr(float((i * 7 + j) % 5)) for j in range(width)])
        + "\n" for i in range(20)))
    for argv in (["rcov"], ["fit", "--spec", model_doc],
                 ["test", "--spec", model_doc, "--k", "1"], ["select", "--spec", model_doc]):
        code = main([*argv, "--data", str(data), "--out", str(tmp_path / "out.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert str(data) in err and needle in err
        assert not (tmp_path / "out.json").exists()


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


@pytest.mark.parametrize("command, header, expected", [
    (["fit"], "coord,estimate,se",
     lambda doc: [(j, est, se) for j, (est, se)
                  in enumerate(zip(doc["theta"], doc["se"]), start=1)]),
    (["test", "--k", "2"], "k,statistic,df,critical,p_value,reject",
     lambda doc: [(doc["k"], doc["statistic"], doc["df"], doc["critical"],
                   doc["p_value"], doc["reject"])]),
    (["select"], "k,statistic,df,critical,decision",
     lambda doc: [(t["k"], t["statistic"], t["df"], t["critical"],
                   "reject" if t["reject"] else "accept") for t in doc["trail"]]),
], ids=["fit", "test", "select"])
def test_csv_report_carries_the_json_report_numbers(tmp_path, path_csv, model_doc,
                                                    command, header, expected):
    reports = {}
    for fmt in ("json", "csv"):
        out = tmp_path / f"report.{fmt}"
        code = main([command[0], "--data", path_csv, "--spec", model_doc, *command[1:],
                     "--format", fmt, "--out", str(out)])
        assert code in (0, 3)
        reports[fmt] = out.read_text()
    lines = reports["csv"].splitlines()
    assert lines[0] == header
    rows = [line.split(",") for line in lines[1:]]
    want = expected(json.loads(reports["json"]))
    assert len(want) >= 1 and [len(row) for row in rows] == [len(ref) for ref in want]
    for row, ref in zip(rows, want):
        for got, value in zip(row, ref):
            if isinstance(value, (bool, str)):
                assert got == str(value)
            else:  # floats in shortest round-trip form, so equal exactly
                assert float(got) == value


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
    # a value that is not JSON stays a string
    ("seed_base=abc", "seed_base must be a non-negative integer, got 'abc'"),
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
    ("substeps=0", "substeps must be >= 1, got 0"),
    ("factor_dispersion=[[1,0,0]]", "factor dispersion must have 2 rows, got (1, 3)"),
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


def run_fresh(code, *args):
    """The JSON last stdout line of ``code`` run by a fresh interpreter that
    imports this tree, with ``args`` as its argv."""
    src_dir = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_cli_import_simulate_rcov_fit_leave_scipy_and_the_pool_unloaded(tmp_path):
    # scipy.special is a heavy import for every process that loads it (it
    # pulls in numpy.testing, unittest and email); only the chi-squared and
    # normal quantiles need it, and only --threads > 1 needs the pool.
    # The bundled table6_nonergodic system goes through simulate -> rcov ->
    # fit on CSV data, and each step lists the scipy and pool modules loaded.
    code = """
import io, json, os, sys
from contextlib import redirect_stdout
seen = []
def loaded(step):
    seen.append([step, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
                              or m == "concurrent.futures.process")])
import diffusionfa
loaded("import diffusionfa")
import diffusionfa.cli
loaded("import diffusionfa.cli")
from diffusionfa.cli import main
from diffusionfa.config import bundled_config_path, load_json
tmp = sys.argv[1]
sim = os.path.join(tmp, "sim.json")
with open(sim, "w") as fh:
    json.dump(load_json(bundled_config_path("table6_nonergodic"))["sim"], fh)
path = os.path.join(tmp, "path.csv")
for argv in (["simulate", "--config", sim, "--out", path],
             ["rcov", "--data", path, "--out", os.path.join(tmp, "rcov.json")],
             ["fit", "--data", path, "--spec", bundled_config_path("model_p6k2"),
              "--out", os.path.join(tmp, "fit.json")]):
    with redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    loaded(argv[0])
print(json.dumps(seen))
"""
    seen = run_fresh(code, tmp_path)
    assert [step for step, _ in seen] == [
        "import diffusionfa", "import diffusionfa.cli", "simulate", "rcov", "fit"]
    assert seen == [[step, []] for step, _ in seen]


def test_test_and_experiment_load_scipy_special_at_their_first_quantile(tmp_path, path_csv):
    code = """
import io, json, os, sys
from contextlib import redirect_stdout
from diffusionfa.cli import main
from diffusionfa.config import bundled_config_path
from diffusionfa.hypothesis_test import chi2_quantile
path, tmp = sys.argv[1:]
seen = []
for argv in (["test", "--data", path, "--k", "2",
              "--spec", bundled_config_path("model_p6k2"),
              "--out", os.path.join(tmp, "test.json")],
             ["experiment", "--config", "table6_nonergodic",
              "--override", "replications=2", "--out", os.path.join(tmp, "study")]):
    with redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    seen.append("scipy.special" in sys.modules)
print(json.dumps([seen, chi2_quantile(4, 0.05)]))
"""
    seen, quantile = run_fresh(code, path_csv, tmp_path)
    assert seen == [True, True]
    assert quantile == pytest.approx(stats.chi2.isf(0.05, 4), rel=1e-12, abs=0)


MODEL_DOC_DEFECTS = [
    (["k=1"], "'sigma_ee' give p=6, k=2 but spec declares p=6, k=1"),
    (["a=[[3, 1], [1, 5], [7, -4]]", "sigma_ee=[4, 16, 25, 1, 9]"],
     "'sigma_ee' give p=5, k=2 but spec declares p=6, k=2"),
    (["sigma_ee=[4, 16, -25, 1, 9, 4]"], "start theta:14=-25 lies outside"),
    (["sigma_ff=[13, 13, 1]"], "start Sigma(theta) of fields"),
    (["a=[[null, 1], [1, 5], [7, -4], [-3, 2]]"], "field 'a' must hold only numbers, got null"),
    (["p=5", "k=1", "a=[[3], [1], [7], [-3]]", "sigma_ff=[13]", "sigma_ee=[4, 16, 25, 1, 9]"],
     "data has p=6 coordinates but spec declares p=5"),
]


@pytest.mark.parametrize("overrides,needle,subcommand", [
    pytest.param(overrides, needle, subcommand, id=f"{name}-{subcommand}")
    for (overrides, needle), name in zip(MODEL_DOC_DEFECTS,
                                         ["k", "p", "box", "not_pd", "null", "data_p"])
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
def test_data_below_the_unique_variance_floor_exits_2(tmp_path, command, capsys):
    # variances near 1e-9, as of log-returns with time in seconds: the default
    # box's unique-variance range [1e-8, 2 max diag] is empty
    q = (4e-9 / 3.0) * np.array([[2.0, 1.0, 0.5, 0.2], [1.0, 3.0, 1.0, 0.4],
                                 [0.5, 1.0, 2.0, 0.3], [0.2, 0.4, 0.3, 1.0]])
    data, spec = _small_rcov_doc(tmp_path, q.tolist())
    code = main(command + ["--data", data, "--spec", spec,
                           "--out", str(tmp_path / "out.json")])
    assert code == 2
    assert capsys.readouterr().err == (
        f"configuration error: {data}: the largest variance of the data, 4e-09, is at "
        "most half the 1e-08 floor of the unique variances, so the default box is "
        "empty; rescale the data\n")


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


_NOT_IDENTIFIED = ("truth of sim.a, sim.factor_dispersion and sim.unique_dispersions is not "
                   "identified: its information matrix ")


@pytest.mark.parametrize("config, overrides, message", [
    ("table6_nonergodic", ["sim.a=[[0,0],[0,0],[0,0],[0,0]]"],
     _NOT_IDENTIFIED + "has rank 15 of q=17"),
    ("table6_nonergodic", ["sim.a=[[1,1],[1,1],[1,1],[1,1]]"],
     _NOT_IDENTIFIED + "has rank 16 of q=17"),
    # a unique variance of 1e200 overflows W; one of 1e400 is infinite already,
    # which check_start refuses before the information is formed
    ("ergodic_scaled", ["k_grid=[1]", "keep_draws=[]",
                        "sim.unique_dispersions=[1e100, 1, 1, 1, 1, 1]"],
     _NOT_IDENTIFIED + "has rank 14 of q=17"),
    ("ergodic_scaled", ["k_grid=[1]", "keep_draws=[]",
                        "sim.unique_dispersions=[1e200, 1, 1, 1, 1, 1]"],
     "truth theta:12=inf is not finite"),
], ids=["zero", "collinear", "overflowing", "infinite"])
def test_non_identified_truth_exits_2_before_simulating(tmp_path, monkeypatch, capsys,
                                                       config, overrides, message):
    # Sigma(truth) is positive definite, but the theoretical SDs invert an
    # information matrix that is rank-deficient or not finite
    from diffusionfa import montecarlo

    def no_simulation(config):
        raise AssertionError("a replication ran before the truth was checked")

    monkeypatch.setattr(montecarlo, "simulate", no_simulation)
    argv = ["experiment", "--config", config, "--override", "replications=3"]
    for override in overrides:
        argv += ["--override", override]
    assert main(argv + ["--out", str(tmp_path / "results")]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"


@pytest.mark.parametrize("config", ["table6_nonergodic", "ergodic_scaled"])
@pytest.mark.parametrize("threads", [1, 2])
def test_experiment_forms_the_truth_information_once(tmp_path, monkeypatch, config,
                                                     threads):
    # the SD table is the one place a study inverts the truth's information,
    # and the one place it checks that the truth is identified
    from diffusionfa import montecarlo

    calls = []

    def counted(params, _real=montecarlo.information):
        calls.append(params)
        return _real(params)

    monkeypatch.setattr(montecarlo, "information", counted)
    assert main(["experiment", "--config", config, "--override", "replications=2",
                 "--threads", str(threads), "--out", str(tmp_path / "results")]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("config", ["table6_nonergodic", "ergodic_scaled"])
@pytest.mark.parametrize("threads", [1, 2])
def test_experiment_builds_the_weight_matrix_once(tmp_path, monkeypatch, config, threads):
    # W enters a study only through the truth's rcov SDs: no fit builds it.
    # Each build appends to a file, so the forked workers' builds count too
    from diffusionfa import estimator

    log = tmp_path / "builds"

    def counted(sigma, _real=estimator.weight_matrix):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write("W\n")
        return _real(sigma)

    monkeypatch.setattr(estimator, "weight_matrix", counted)
    assert main(["experiment", "--config", config, "--override", "replications=2",
                 "--threads", str(threads), "--out", str(tmp_path / "results")]) == 0
    assert log.read_text(encoding="utf-8") == "W\n"


def test_experiment_reruns_from_its_manifest(tmp_path):
    # manifest.json is the resolved config: fed back, it writes the same files
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["experiment", "--config", "table6_nonergodic",
                 "--override", "replications=3", "--override", 'keep_draws=["tstat:1"]',
                 "--override", 'bounds={"loading": [-10, 10]}', "--out", str(first)]) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    assert (manifest["keep_draws"], manifest["bounds"]) == (["tstat:1"],
                                                            {"loading": [-10.0, 10.0]})
    assert main(["experiment", "--config", str(first / "manifest.json"),
                 "--out", str(second)]) == 0
    names = sorted(os.listdir(first))
    assert "figure_tstat_1.csv" in names and sorted(os.listdir(second)) == names
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_a_manifest_override_of_spec_exits_2_naming_the_path(tmp_path, capsys):
    # the resolved spec is sim.spec alone: no ignored copy takes an override
    # that changes nothing
    out = tmp_path / "out"
    assert main(["experiment", "--config", "table6_nonergodic", "--override",
                 "replications=1", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert "spec" not in manifest and manifest["sim"]["spec"]["n"] == 1000
    capsys.readouterr()
    assert main(["experiment", "--config", str(out / "manifest.json"), "--override",
                 "spec.n=50", "--out", str(tmp_path / "again")]) == 2
    assert "override path 'spec.n' does not exist" in capsys.readouterr().err
    assert not (tmp_path / "again").exists()


@pytest.mark.parametrize("override,needle", [
    ("replicatons=1", "unknown field 'replicatons'; the closest known field is "
                      "'replications'"),
    ("alpha=[0.1]", "unknown field 'alpha'; the closest known field is 'alphas'"),
    ("sim.substep=4", "unknown field 'sim.substep'; the closest known field is "
                      "'sim.substeps'"),
    ("sim.spec.nn=4", "unknown field 'sim.spec.nn'; the closest known field is "
                      "'sim.spec.n'"),
    ("xyz=1", "unknown field 'xyz'; the known fields are 'sim', 'replications'")])
def test_experiment_key_typo_exits_2_naming_the_closest_key(tmp_path, override, needle,
                                                            capsys):
    # a misspelt key never falls back to its default
    out = tmp_path / "out"
    assert main(["experiment", "--config", "table6_nonergodic", "--override",
                 "replications=1", "--override", override, "--out", str(out)]) == 2
    assert needle in capsys.readouterr().err
    assert not out.exists()


def test_model_and_rcov_key_typos_exit_2_naming_the_closest_key(tmp_path, path_csv,
                                                                capsys):
    # without the check, sigma_f left the model with no parameter block, so
    # fit and test quietly started from the default start
    spec = tmp_path / "model.json"
    spec.write_text('{"p": 6, "k": 2, "sigma_f": [1, 0, 1]}')
    out = tmp_path / "out.json"
    for command in (["fit"], ["test", "--k", "2"], ["select"]):
        assert main([*command, "--data", path_csv, "--spec", str(spec),
                     "--out", str(out)]) == 2
        assert ("unknown field 'sigma_f'; the closest known field is 'sigma_ff'"
                in capsys.readouterr().err)
    rcov = tmp_path / "rcov.json"
    assert main(["rcov", "--data", path_csv, "--out", str(rcov)]) == 0
    rcov.write_text(rcov.read_text().replace('"h"', '"dt"'))
    assert main(["rcov", "--data", str(rcov), "--out", str(out)]) == 2
    assert (f"{rcov}: unknown field 'dt'; the known fields are 'q', 'n', 'h'"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("command", [["fit"], ["test", "--k", "2"], ["select"]],
                         ids=["fit", "test", "select"])
@pytest.mark.parametrize("doc, override, fault", [
    ('{"p": 6, "k": 2, "sigma_f": [1, 0, 1]}', [],
     "unknown field 'sigma_f'; the closest known field is 'sigma_ff'"),
    ('{"p": 6, "k": 2}', ["--override", "k=1.5"], "field 'k' must be an integer, got 1.5")],
    ids=["key", "value"])
def test_a_model_document_error_names_the_spec_file(tmp_path, path_csv, command, doc,
                                                    override, fault, capsys):
    # as the errors of a --data file name it, so do those of a --spec document
    spec = tmp_path / "model.json"
    spec.write_text(doc)
    out = tmp_path / "out.json"
    assert main([*command, "--data", path_csv, "--spec", str(spec), *override,
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"configuration error: {spec}: {fault}\n"
    assert not out.exists()


def test_documents_the_package_writes_load_with_the_keys_they_carry(tmp_path, path_csv,
                                                                   model_doc, capsys):
    # a report manifest's spec is a model document and a simulate manifest's
    # config a simulation config; a model document may carry n, h and the
    # retired regime, which are ignored
    out = str(tmp_path / "fit.json")
    assert main(["fit", "--data", path_csv, "--spec", model_doc, "--out", out,
                 "--override", 'regime="non-ergodic"']) in (0, 3)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(json.loads(Path(out + ".manifest.json").read_text())["spec"]))
    assert main(["select", "--data", path_csv, "--spec", str(spec), "--out", out]) == 0
    sim = tmp_path / "sim.json"
    sim.write_text(json.dumps(json.loads(Path(path_csv + ".manifest.json").read_text())
                              ["config"]))
    again = str(tmp_path / "again.csv")
    assert main(["simulate", "--config", str(sim), "--out", again]) == 0
    assert Path(again).read_bytes() == Path(path_csv).read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize("command", [
    ["simulate", "--config", "system_p6k2"], ["rcov", "--data", "DATA"],
    ["fit", "--data", "DATA", "--spec", "SPEC"],
    ["test", "--k", "2", "--data", "DATA", "--spec", "SPEC"],
    ["select", "--data", "DATA", "--spec", "SPEC"]],
    ids=["simulate", "rcov", "fit", "test", "select"])
def test_report_subcommands_name_the_manifest(tmp_path, path_csv, model_doc, command,
                                             capsys):
    # every subcommand that writes one file ends by naming it and its manifest
    out = str(tmp_path / "out")
    argv = [{"DATA": path_csv, "SPEC": model_doc}.get(a, a) for a in command]
    assert main(argv + ["--out", out]) in (0, 3)
    assert capsys.readouterr().out.endswith(f"wrote {out} and {out}.manifest.json\n")


@pytest.mark.parametrize("command", [["rcov"], ["fit", "--spec", "SPEC"]],
                         ids=["rcov", "fit"])
@pytest.mark.parametrize("cut", [1, 4, 30])
def test_path_csv_cut_inside_its_last_row_exits_2(tmp_path, path_csv, model_doc, command,
                                                  cut, capsys):
    # path_to_csv ends every row with a newline; a last row without one was cut
    text = Path(path_csv).read_text()
    Path(path_csv).write_text(text[:-cut])
    argv = [{"SPEC": model_doc}.get(a, a) for a in command]
    assert main(argv + ["--data", path_csv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert path_csv in err and "cut short" in err


def test_path_csv_cut_after_a_newline_is_a_shorter_panel(tmp_path, path_csv):
    lines = Path(path_csv).read_text().splitlines(keepends=True)
    Path(path_csv).write_text("".join(lines[:-1]))
    out = tmp_path / "r.json"
    assert main(["rcov", "--data", path_csv, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["n"] == len(lines) - 3


def test_names_a_benchmark_tracer_wraps_are_called_through_their_modules(tmp_path,
                                                                        monkeypatch):
    # a tracer that times these names where each module looks them up gets
    # no call, and an empty per-layer metric, from a name called another way
    from diffusionfa import cli, estimator, hypothesis_test, montecarlo

    wrapped = {montecarlo: ["simulate", "realised_cov", "theoretical_sd_table",
                            "_replicate"],
               hypothesis_test: ["fit"], estimator: ["weight_matrix"],
               cli: ["run", "write_outputs", "load_json"]}
    calls = {}
    for module, names in wrapped.items():
        for name in names:
            key = f"{module.__name__}.{name}"

            def counted(*args, _real=getattr(module, name), _key=key, **kwargs):
                calls[_key] = calls.get(_key, 0) + 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    for config in ("table6_nonergodic", "ergodic_scaled"):
        calls.clear()
        assert main(["experiment", "--config", config, "--override", "replications=1",
                     "--out", str(tmp_path / config)]) == 0
        assert sorted(calls) == sorted(f"{m.__name__}.{n}"
                                       for m, names in wrapped.items() for n in names)


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


def _without_parentheses(text):
    while True:
        stripped = re.sub(r"\([^()]*\)", "", text)
        if stripped == text:
            return text
        text = stripped


def test_docs_exit_codes_match_the_cli():
    # README's "Exit codes:" sentence and the "Exit codes" section of
    # docs/file-formats.md name each code outside their parentheses
    from diffusionfa import cli

    root = Path(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    readme = (root / "README.md").read_text(encoding="utf-8")
    docs = (root / "docs" / "file-formats.md").read_text(encoding="utf-8")
    sentence = _without_parentheses(readme.split("Exit codes:", 1)[1]).split(".", 1)[0]
    section = _without_parentheses(docs.split("## Exit codes", 1)[1].split("\n## ", 1)[0])
    codes = sorted(value for name, value in vars(cli).items() if name.startswith("EXIT_"))
    assert codes == sorted((cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NONCONVERGED,
                            cli.EXIT_UNTESTABLE)) == [0, 2, 3, 4]
    assert [int(c) for c in re.findall(r"\d+", sentence)] == codes
    assert [int(c) for c in re.findall(r"\d+", section)] == codes
