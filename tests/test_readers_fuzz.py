"""A fixed sample of mutated inputs: every reader ends in an exit code.

Each JSON document the CLI reads (a one-replication study, a system, a model
under ``fit``, ``test`` and ``select``, and a realised covariance) has one
path deleted or set to a wrong value, drawn from all such mutations, and
path panels in CSV and ``.bin`` are cut, byte-flipped or given a bad cell.
``cli.main`` must exit 0, 2, 3 or 4 on each, never raise; the suite's
warning filter also fails a ``RuntimeWarning`` on the way.  Each JSON
document also has one key renamed by a typo: the run must exit 2 naming the
key's path, or the document must parse to what the unmutated one does.  Path
CSVs, with and without latent columns, also have one column renamed, two
swapped, one duplicated or one dropped: ``rcov`` must exit 2 naming the file,
or the file must be what ``path_to_csv`` writes for what it reads.  The
sample is drawn from fixed seeds, so a failure names a mutation that
reproduces.
"""

import copy
import io
import json
import random

import pytest

from diffusionfa.cli import main
from diffusionfa.config import (bundled_config_path, load_json, model_from_json,
                                sim_config_from_json, sim_config_to_json)
from diffusionfa.model import pack
from diffusionfa.montecarlo import experiment_from_json
from diffusionfa.sde import path_from_csv, path_to_csv

VALUES = [None, "x", -1, 0, 1.5, True, [], {}, [1], 1e308, -1e308]
EXITS = (0, 2, 3, 4)


def paths(node, prefix=()):
    """Every path below a JSON node, as tuples of keys and indices."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


def mutations(doc, count, seed):
    """``count`` documents, each with one path deleted or set to a value."""
    every = [(path, value) for path in paths(doc) for value in ["delete"] + VALUES]
    for path, value in random.Random(seed).sample(every, count):
        mutated = copy.deepcopy(doc)
        parent = mutated
        for key in path[:-1]:
            parent = parent[key]
        if value == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        yield f"{'.'.join(map(str, path))}={value!r}", mutated


def exits(argv, capsys):
    """The exit code of one CLI run; an escaping exception fails the test."""
    code = main(argv)
    capsys.readouterr()
    return code


def run_each(cases, argv_for, capsys):
    bad = {}
    for name, argv in cases:
        code = exits(argv_for(argv), capsys)
        if code not in EXITS:
            bad[name] = code
    assert not bad


@pytest.fixture(scope="module")
def panels(tmp_path_factory):
    """A simulated system_p6k2 panel as CSV, CSV with the latent columns and
    .bin, its realised-covariance JSON, and the bundled model document."""
    root = tmp_path_factory.mktemp("panels")
    out = {}
    for fmt, flags in (("csv", []), ("latent.csv", ["--keep-latent"]), ("bin", [])):
        out[fmt] = str(root / f"path.{fmt}")
        assert main(["simulate", "--config", "system_p6k2", "--seed", "3",
                     "--format", fmt[-3:], "--out", out[fmt], *flags]) == 0
    out["rcov"] = str(root / "rcov.json")
    assert main(["rcov", "--data", out["csv"], "--out", out["rcov"]]) == 0
    out["model"] = bundled_config_path("model_p6k2")
    return out


def written(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("config, count, command", [
    ("table6_nonergodic", 60, ["experiment"]),
    ("system_p6k2", 80, ["simulate"]),
])
def test_mutated_config_documents_exit_cleanly(tmp_path, capsys, config, count,
                                               command):
    doc = load_json(bundled_config_path(config))
    if config == "table6_nonergodic":
        doc["replications"] = 1
    cases = [(name, written(tmp_path, f"doc{i}.json", mutated))
             for i, (name, mutated) in enumerate(mutations(doc, count, seed=len(config)))]
    out = str(tmp_path / "out")
    run_each(cases, lambda path: command + ["--config", path, "--out", out], capsys)


@pytest.mark.parametrize("command", [["fit"], ["test", "--k", "2"], ["select"]])
def test_mutated_model_documents_exit_cleanly(tmp_path, capsys, panels, command):
    doc = load_json(panels["model"])
    cases = [(name, written(tmp_path, f"model{i}.json", mutated))
             for i, (name, mutated) in enumerate(mutations(doc, 40, seed=len(command)))]
    out = str(tmp_path / "out.json")
    run_each(cases, lambda spec: command + ["--data", panels["rcov"], "--spec", spec,
                                            "--out", out], capsys)


def test_mutated_rcov_documents_exit_cleanly(tmp_path, capsys, panels):
    doc = load_json(panels["rcov"])
    cases = [(name, written(tmp_path, f"rcov{i}.json", mutated))
             for i, (name, mutated) in enumerate(mutations(doc, 40, seed=7))]
    out = str(tmp_path / "out.json")
    for command in (["rcov"], ["fit", "--spec", panels["model"]]):
        run_each(cases, lambda data: command + ["--data", data, "--out", out], capsys)


def cut_flipped_and_bad(data, fmt, seed):
    """Byte-level mutations of a panel: cuts, flips and, for CSV, bad cells."""
    rng = random.Random(seed)
    for at in sorted(rng.sample(range(1, len(data)), 6)):
        yield f"cut at byte {at}", data[:at]
    for at in sorted(rng.sample(range(len(data)), 6)):
        yield f"flip byte {at}", data[:at] + bytes([data[at] ^ 0xFF]) + data[at + 1:]
    if fmt == "csv":
        lines = data.split(b"\n")
        for cell in (b"x", b"nan", b"inf", b"", b"1e999"):
            row = rng.randrange(1, len(lines) - 1)
            cells = lines[row].split(b",")
            cells[rng.randrange(len(cells))] = cell
            yield (f"cell {cell!r} in row {row}",
                   b"\n".join(lines[:row] + [b",".join(cells)] + lines[row + 1:]))


@pytest.mark.parametrize("fmt", ["csv", "bin"])
def test_mutated_panels_exit_cleanly(tmp_path, capsys, panels, fmt):
    with open(panels[fmt], "rb") as fh:
        data = fh.read()
    cases = []
    for i, (name, mutated) in enumerate(cut_flipped_and_bad(data, fmt, seed=len(fmt))):
        path = tmp_path / f"panel{i}.{fmt}"
        path.write_bytes(mutated)
        cases.append((name, str(path)))
    out = str(tmp_path / "out.json")
    for command in (["rcov"], ["fit", "--spec", panels["model"]]):
        run_each(cases, lambda data: command + ["--data", data, "--out", out], capsys)


def renamed_keys(doc, count, seed):
    """``count`` documents, each with one key renamed by a typo (a character
    dropped, two swapped, or the key upper-cased), and the renamed key's path
    as the readers print it."""
    rng = random.Random(seed)
    every = []
    for path in paths(doc):
        key = path[-1]
        if not isinstance(key, str):
            continue
        typos = {key.upper()}
        if len(key) > 1:
            at = rng.randrange(len(key) - 1)
            typos |= {key[:at] + key[at + 1:], key[:at] + key[at + 1] + key[at] + key[at + 2:]}
        every += [(path, typo) for typo in sorted(typos - {key})]
    for path, typo in rng.sample(every, min(count, len(every))):
        mutated = copy.deepcopy(doc)
        parent = mutated
        for key in path[:-1]:
            parent = parent[key]
        parent[typo] = parent.pop(path[-1])
        shown = "".join(f"[{key}]" if isinstance(key, int) else f".{key}"
                        for key in path[:-1] + (typo,))
        yield shown.lstrip("."), mutated


def meaning(kind, doc):
    """What a reader makes of ``doc``, in comparable form."""
    if kind == "study":
        exp = experiment_from_json(doc)
        return (sim_config_to_json(exp.sim), exp.replications, exp.k_grid, exp.alphas,
                exp.keep_draws, exp.bounds_blocks, exp.seed_base)
    if kind == "system":
        return sim_config_to_json(sim_config_from_json(doc, path=""))
    if kind == "model":
        spec, params = model_from_json(doc)
        return spec, None if params is None else pack(params).tolist()
    return doc["q"], doc["n"], doc["h"]


def run_renamed(kind, doc, count, seed, tmp_path, argv_for, capsys):
    """Run ``argv_for(path)`` on each renamed-key mutation of ``doc``, written
    to a file; each must exit 2 naming the renamed key (by its path, or inside
    the ``bounds`` block it was refused with) or mean what ``doc`` means."""
    bad = {}
    for i, (shown, mutated) in enumerate(renamed_keys(doc, count, seed)):
        code = main(argv_for(written(tmp_path, f"renamed{i}.json", mutated)))
        err = capsys.readouterr().err
        if code == 2 and (repr(shown) in err or repr(shown.rpartition(".")[2]) in err):
            continue
        if code == 2 or meaning(kind, mutated) != meaning(kind, doc):
            bad[shown] = (code, err)
    assert not bad


@pytest.mark.parametrize("config, kind, command", [
    ("table6_nonergodic", "study", ["experiment"]),
    ("system_p6k2", "system", ["simulate"]),
])
def test_config_documents_with_a_renamed_key_exit_2_naming_it(tmp_path, capsys, config,
                                                               kind, command):
    doc = load_json(bundled_config_path(config))
    if kind == "study":
        doc["replications"] = 1
    out = str(tmp_path / "out")
    run_renamed(kind, doc, 60, len(config), tmp_path,
                lambda path: command + ["--config", path, "--out", out], capsys)


@pytest.mark.parametrize("command", [["fit"], ["test", "--k", "2"], ["select"]])
def test_model_documents_with_a_renamed_key_exit_2_naming_it(tmp_path, capsys, panels,
                                                              command):
    out = str(tmp_path / "out.json")
    run_renamed("model", load_json(panels["model"]), 20, len(command), tmp_path,
                lambda spec: command + ["--data", panels["rcov"], "--spec", spec,
                                        "--out", out], capsys)


def test_rcov_documents_with_a_renamed_key_exit_2_naming_it(tmp_path, capsys, panels):
    out = str(tmp_path / "out.json")
    for command in (["rcov"], ["fit", "--spec", panels["model"]]):
        run_renamed("rcov", load_json(panels["rcov"]), 10, 7, tmp_path,
                    lambda data: command + ["--data", data, "--out", out], capsys)


def header_mutations(text, count, seed):
    """``count`` panels of each kind: one column renamed (to another column's
    name or one outside the grammar), two swapped, one duplicated next to
    itself or one dropped, the last three with their data."""
    columns = list(zip(*(line.split(",") for line in text.splitlines())))
    header = [c[0] for c in columns]
    names = header + ["x0", "x99", "f0", "e99", "y1", "X1", ""]
    pairs = [(i, j) for i in range(len(columns)) for j in range(i + 1, len(columns))]
    kinds = {
        "rename": [(i, name) for i in range(len(columns)) for name in names
                   if name != header[i]],
        "swap": pairs,
        "duplicate": [(i,) for i in range(len(columns))],
        "drop": [(i,) for i in range(len(columns))],
    }
    rng = random.Random(seed)
    for kind, every in kinds.items():
        for args in rng.sample(every, min(count, len(every))):
            mutated = list(columns)
            if kind == "rename":
                mutated[args[0]] = (args[1],) + columns[args[0]][1:]
            elif kind == "swap":
                mutated[args[0]], mutated[args[1]] = columns[args[1]], columns[args[0]]
            elif kind == "duplicate":
                mutated.insert(args[0], columns[args[0]])
            else:
                del mutated[args[0]]
            yield (f"{kind} {', '.join(map(repr, args))}",
                   "".join(",".join(row) + "\n" for row in zip(*mutated)))


@pytest.mark.parametrize("fmt", ["csv", "latent.csv"])
def test_path_csv_header_mutations_exit_2_naming_the_file_or_read_back(tmp_path, capsys,
                                                                       panels, fmt):
    with open(panels[fmt], encoding="utf-8") as fh:
        text = fh.read()
    bad = {}
    for i, (name, mutated) in enumerate(header_mutations(text, 12, seed=len(fmt))):
        data = tmp_path / f"panel{i}.csv"
        data.write_text(mutated)
        code = main(["rcov", "--data", str(data), "--out", str(tmp_path / "out.json")])
        err = capsys.readouterr().err
        if code == 2 and str(data) in err:
            continue
        written = io.StringIO()
        if code == 0:
            with open(data, encoding="utf-8") as fh:
                path_to_csv(path_from_csv(fh), written)
        if written.getvalue() != mutated:
            bad[name] = (code, err)
    assert not bad
