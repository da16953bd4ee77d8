"""Seeded mutation fuzzing of every file the CLI reads.

Each input kind (data CSV, manifest, draw file, ``--config`` file and
``--truth`` file) is damaged many times over, a byte at a time and, for the
JSON files, a key or value at a time, and each damaged copy is run through
``cli.main`` in-process.  Whatever the damage, the CLI must exit with a
documented code, print no traceback, and print exactly one ``error:`` line
when it fails, which names the draw file when that is the damaged input.
The generator is seeded, so a failure reproduces.
"""

import json
import random
import traceback

import pytest

from landmix import cli

BYTE_MUTATIONS = 120
# bytes that steer a parser: digits, signs, separators, quotes, line ends
_SPECIAL = b"0123456789-+.,eE\"'=\n\r\t []{}:\x00\xff"


def byte_mutation(data: bytes, rng: random.Random) -> tuple[str, bytes]:
    """One flip, deletion or insertion of a byte, and its description."""
    at = rng.randrange(len(data))
    new = bytes([rng.choice(_SPECIAL) if rng.random() < 0.5 else rng.randrange(256)])
    op = rng.choice(("flip", "delete", "insert"))
    if op == "flip":
        return f"flip {at} to {new!r}", data[:at] + new + data[at + 1:]
    if op == "delete":
        return f"delete {at}", data[:at] + data[at + 1:]
    return f"insert {new!r} at {at}", data[:at] + new + data[at:]


def json_mutations(obj: dict):
    """(description, text) for each swap of one value for a string, null, a
    bool, a list or an integer past Python's 4300-digit int-string limit, each
    dropped key and each renamed key, and two documents that are not objects."""
    for key in obj:
        for value in ("x", None, True, [1, 2]):
            yield f"{key} = {value!r}", json.dumps({**obj, key: value})
        huge = json.dumps({**obj, key: "<huge>"}).replace('"<huge>"', "9" * 5001)
        yield f"{key} = a 5001-digit integer", huge
        yield f"drop {key}", json.dumps({k: v for k, v in obj.items() if k != key})
        renamed = {(k + "_" if k == key else k): v for k, v in obj.items()}
        yield f"rename {key}", json.dumps(renamed)
    yield "a list", json.dumps([obj])
    yield "null", "null"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A 3x5 total panel, a tiny fit of it, and a config and truth file."""
    root = tmp_path_factory.mktemp("fuzz")
    sim, fit = root / "sim", root / "fit"
    assert cli.main(["simulate", "--model", "total", "--countries", "3", "--years", "5",
                     "--seed", "1", "--out", str(sim)]) == 0
    assert cli.main(["fit", "--model", "total", "--data", str(sim / "data.csv"),
                     "--chains", "2", "--iters", "20", "--burnin", "5", "--thin", "1",
                     "--out", str(fit)]) == 0
    config = root / "fit.cfg"
    config.write_text(f"model = total\ndata = {sim / 'data.csv'}\nchains = 2\n"
                      "iters = 20\nburnin = 5\nthin = 1\nseed = 1\n")
    truth = root / "truth.json"
    truth.write_text(json.dumps(cli._DEFAULT_TRUTH["total"]))
    return sim, fit, config, truth


def check_run(argv, capsys, names=None) -> str | None:
    """None when ``cli.main(argv)`` fails closed, with an error line that
    names the file ``names`` when one is given, else what went wrong."""
    try:
        code = cli.main([str(a) for a in argv])
    except Exception:  # an exception that escapes main is the finding
        capsys.readouterr()
        return traceback.format_exc(limit=-1).strip().splitlines()[-1]
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    if code not in (0, 2, 3, 4):
        return f"exit {code}"
    if "Traceback" in err:
        return "traceback printed"
    if len(errors) != (code != 0):
        return f"exit {code} with {len(errors)} error lines"
    if errors and names and str(names) not in errors[0]:
        return f"the error line does not name {names}: {errors[0]}"
    return None


def test_damaged_inputs_fail_closed(inputs, tmp_path, capsys):
    sim, fit, config, truth = inputs
    rng = random.Random(20261018)
    work = tmp_path / "work"
    work.mkdir()
    for name in ("manifest.json", "draws_chain0.npz", "draws_chain1.npz"):
        (work / name).write_bytes((fit / name).read_bytes())
    out = tmp_path / "out"
    tiny_fit = ["--chains", "2", "--iters", "20", "--burnin", "5", "--thin", "1"]
    cases = {
        # input kind: (original, file the damage goes to, the runs that read it)
        "data": (sim / "data.csv", tmp_path / "data.csv", [
            ["fit", "--model", "total", "--data", tmp_path / "data.csv", *tiny_fit,
             "--out", out],
        ]),
        "manifest": (fit / "manifest.json", work / "manifest.json", [
            ["summarize", "--fit", work],
        ]),
        "draws": (fit / "draws_chain0.npz", work / "draws_chain0.npz", [
            ["summarize", "--fit", work],
            ["export", "--figure", "2", "--fit", work, "--out", tmp_path / "fig2.csv"],
        ]),
        "config": (config, tmp_path / "fit.cfg", [
            ["fit", "--config", tmp_path / "fit.cfg", "--out", out],
        ]),
        "truth": (truth, tmp_path / "truth.json", [
            ["simulate", "--model", "total", "--countries", "3", "--years", "5",
             "--truth", tmp_path / "truth.json", "--out", out],
        ]),
    }
    failures = []

    def run_all(kind, what, damaged):
        original, path, runs = cases[kind]
        path.write_bytes(damaged)
        for argv in runs:
            problem = check_run(argv, capsys, path if kind == "draws" else None)
            if problem:
                failures.append(f"{kind} ({what}) {argv[0]}: {problem}")
        path.write_bytes(original.read_bytes())

    for kind, (original, _, _) in cases.items():
        data = original.read_bytes()
        for _ in range(BYTE_MUTATIONS):
            run_all(kind, *byte_mutation(data, rng))
    # a damaged manifest is also refit from; its byte damage could ask for
    # hundreds of chains, so only the key and value damage is
    refit = ["fit", "--from-manifest", work / "manifest.json", "--out", out]
    cases["manifest"][2].append(refit)
    for kind in ("manifest", "truth"):
        original = json.loads(cases[kind][0].read_text())
        for what, text in json_mutations(original):
            run_all(kind, what, text.encode())
    assert failures == []
