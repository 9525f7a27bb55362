"""A fixed sample of mutated inputs: every reader ends in an exit code.

Each JSON document the CLI reads (a one-replication study, a system, a model
under ``fit``, ``test`` and ``select``, and a realised covariance) has one
path deleted or set to a wrong value, drawn from all such mutations, and
path panels in CSV and ``.bin`` are cut, byte-flipped or given a bad cell.
``cli.main`` must exit 0, 2, 3 or 4 on each, never raise; the suite's
warning filter also fails a ``RuntimeWarning`` on the way.  The sample is
drawn from fixed seeds, so a failure names a mutation that reproduces.
"""

import copy
import json
import random

import pytest

from diffusionfa.cli import main
from diffusionfa.config import bundled_config_path, load_json

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
    """A simulated system_p6k2 panel as CSV and .bin, its realised-covariance
    JSON, and the bundled model document."""
    root = tmp_path_factory.mktemp("panels")
    out = {}
    for fmt in ("csv", "bin"):
        out[fmt] = str(root / f"path.{fmt}")
        assert main(["simulate", "--config", "system_p6k2", "--seed", "3",
                     "--format", fmt, "--out", out[fmt]]) == 0
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
