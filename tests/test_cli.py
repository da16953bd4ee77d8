import csv
import io
import json
import math
import shutil
import time
import warnings
import zipfile

import numpy as np
import pytest

from landmix import cli, oracle
from landmix.cli import _write_draws, main, read_draws
from landmix.data import load_landings
from landmix.errors import DataFormatError
from landmix.model import JOINT_PARAM_NAMES, TOTAL_PARAM_NAMES
from landmix.sampler import ChainConfig, ChainDraws


def run(*argv):
    return main([str(a) for a in argv])


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def export_chain(fit, k, out):
    assert run("export", "--chain", k, "--fit", fit, "--out", out) == 0
    return out


def draw_members(path):
    """A draw file's names and draws arrays."""
    with np.load(path) as npz:
        return npz["names"], npz["draws"]


def npy_bytes(array, shape=None) -> bytes:
    """``array`` in numpy's .npy format; a given ``shape`` goes in the header
    in place of the array's own."""
    buf = io.BytesIO()
    if shape is None:
        np.save(buf, array)
    else:
        header = {"descr": np.lib.format.dtype_to_descr(array.dtype),
                  "fortran_order": False, "shape": shape}
        np.lib.format.write_array_header_1_0(buf, header)
        buf.write(array.tobytes())
    return buf.getvalue()


def zip_bytes(**members) -> bytes:
    """An uncompressed zip of one ``<name>.npy`` member per keyword: an array
    in the .npy format, or the bytes given."""
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as archive:
        for name, member in members.items():
            archive.writestr(f"{name}.npy",
                             member if isinstance(member, bytes) else npy_bytes(member))
    return buf.getvalue()


def with_cell(draws, row, value):
    """A copy of ``draws`` with ``value`` in column 2 of ``row``."""
    draws = draws.copy()
    draws[row, 2] = value
    return draws


def flip_second_draw_bit(data, draws):
    """The file with one bit of the second draw's first value flipped."""
    at = data.index(draws.tobytes()) + 8 * draws.shape[1]
    return data[:at] + bytes([data[at] ^ 1]) + data[at + 1:]


# each damage to a draw file: (the damaged bytes, made from the file's bytes
# and its names and draws arrays; what the error line says)
NPZ_DAMAGE = {
    "truncated": (lambda data, names, draws: data[:len(data) // 2],
                  "not a readable draw file"),
    "csv_bytes": (lambda data, names, draws: b"beta0,sigma\r\n1.0,0.5\r\n",
                  "File is not a zip file"),
    "npy_bytes": (lambda data, names, draws: npy_bytes(draws), "File is not a zip file"),
    "missing_member": (lambda data, names, draws: zip_bytes(draws=draws),
                       "members ['draws.npy'] are not"),
    "extra_member": (lambda data, names, draws: zip_bytes(names=names, draws=draws,
                                                          acceptance=np.ones(1)),
                     "members ['names.npy', 'draws.npy', 'acceptance.npy'] are not"),
    "pickled_member": (lambda data, names, draws: zip_bytes(names=names,
                                                            draws=draws.astype(object)),
                       "Object arrays cannot be loaded"),
    "member_not_npy": (lambda data, names, draws: zip_bytes(names=b"beta0,sigma", draws=draws),
                       "not a readable draw file"),
    "names_not_text": (lambda data, names, draws: zip_bytes(names=np.arange(len(names)),
                                                            draws=draws),
                       "names int64(16,) and draws float64("),
    "float32_draws": (lambda data, names, draws: zip_bytes(names=names,
                                                           draws=draws.astype(np.float32)),
                      "draws float32("),
    "wrong_width": (lambda data, names, draws: zip_bytes(names=names, draws=draws[:, :-1]),
                    ", 15): not 1-D text and a float64 column each"),
    "zero_rows": (lambda data, names, draws: zip_bytes(names=names, draws=draws[:0]),
                  "no draws"),
    "nan_cell": (lambda data, names, draws: zip_bytes(names=names,
                                                      draws=with_cell(draws, 3, np.nan)),
                 "draw 3: a value is not finite"),
    "inf_cell": (lambda data, names, draws: zip_bytes(names=names,
                                                      draws=with_cell(draws, 0, -np.inf)),
                 "draw 0: a value is not finite"),
    "header_claims_more_rows": (
        lambda data, names, draws: zip_bytes(
            names=names, draws=npy_bytes(draws, (len(draws) + 1, draws.shape[1]))),
        "EOF"),
    "header_claims_fewer_rows": (
        lambda data, names, draws: zip_bytes(
            names=names, draws=npy_bytes(draws, (len(draws) - 1, draws.shape[1]))),
        "draws.npy holds bytes past its array"),
    "nested_zip": (lambda data, names, draws: zip_bytes(names=data, draws=draws),
                   "the magic string is not correct"),
    "flipped_draw_bit": (lambda data, names, draws: flip_second_draw_bit(data, draws),
                         "Bad CRC-32"),
}


@pytest.fixture(scope="module")
def total_fixture(tmp_path_factory):
    """A small simulated total-model panel plus a finished fit."""
    root = tmp_path_factory.mktemp("total")
    sim = root / "sim"
    assert run("simulate", "--model", "total", "--countries", "6",
               "--years", "12", "--seed", "3", "--out", sim) == 0
    fit = root / "fit"
    assert run("fit", "--model", "total", "--data", sim / "data.csv",
               "--chains", "2", "--iters", "1500", "--burnin", "500",
               "--thin", "2", "--seed", "1", "--out", fit) == 0
    return sim, fit


@pytest.fixture(scope="module")
def joint_fixture(tmp_path_factory):
    root = tmp_path_factory.mktemp("joint")
    sim = root / "sim"
    assert run("simulate", "--model", "joint", "--countries", "6",
               "--years", "12", "--seed", "4", "--out", sim) == 0
    fit = root / "fit"
    assert run("fit", "--model", "joint", "--data", sim / "data.csv",
               "--chains", "2", "--iters", "1200", "--burnin", "400",
               "--thin", "2", "--seed", "2", "--out", fit) == 0
    return sim, fit


class TestSimulate:
    def test_same_seed_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("simulate", "--model", "total", "--countries", "3",
                       "--years", "5", "--seed", "11", "--out", out) == 0
        assert (a / "data.csv").read_bytes() == (b / "data.csv").read_bytes()

    def test_truth_sidecar_has_params_and_effects(self, total_fixture):
        sim, _ = total_fixture
        truth = json.loads((sim / "truth.json").read_text())
        assert set(truth["params"]) == set(TOTAL_PARAM_NAMES)
        assert len(truth["effects"]) == 6
        first = next(iter(truth["effects"].values()))
        assert set(first) == {"b0", "b1"}

    def test_truth_override_file(self, tmp_path):
        tf = tmp_path / "truth.json"
        tf.write_text(json.dumps({"beta0": 2.5}))
        out = tmp_path / "sim"
        assert run("simulate", "--model", "total", "--countries", "2", "--years", "4",
                   "--truth", tf, "--out", out) == 0
        truth = json.loads((out / "truth.json").read_text())
        assert truth["params"]["beta0"] == 2.5

    def test_partial_joint_truth_keeps_the_other_defaults(self, tmp_path):
        tf = tmp_path / "truth.json"
        tf.write_text(json.dumps({"rho0": -0.3, "sigma": 2}))
        out = tmp_path / "sim"
        assert run("simulate", "--model", "joint", "--countries", "2", "--years", "4",
                   "--truth", tf, "--out", out) == 0
        params = json.loads((out / "truth.json").read_text())["params"]
        assert params == {**cli._DEFAULT_TRUTH["joint"], "rho0": -0.3, "sigma": 2}


class TestFit:
    def test_outputs_and_summary_rows(self, total_fixture):
        _, fit = total_fixture
        for name in ("draws_chain0.npz", "draws_chain1.npz", "summary.txt",
                     "summary.csv", "convergence.csv", "manifest.json"):
            assert (fit / name).exists()
        rows = read_csv(fit / "summary.csv")
        assert [r[0] for r in rows[1:]] == list(TOTAL_PARAM_NAMES)

    def test_joint_summary_lists_nine_params_in_order(self, joint_fixture):
        _, fit = joint_fixture
        rows = read_csv(fit / "summary.csv")
        assert [r[0] for r in rows[1:]] == list(JOINT_PARAM_NAMES)

    def test_manifest_rerun_byte_identical(self, total_fixture, tmp_path):
        _, fit = total_fixture
        rerun = tmp_path / "rerun"
        assert run("fit", "--from-manifest", fit / "manifest.json", "--out", rerun) == 0
        for k in (0, 1):
            assert (rerun / f"draws_chain{k}.npz").read_bytes() == \
                (fit / f"draws_chain{k}.npz").read_bytes()

    def test_parallel_chains_byte_identical(self, total_fixture, tmp_path):
        _, fit = total_fixture
        rerun = tmp_path / "par"
        assert run("fit", "--from-manifest", fit / "manifest.json",
                   "--parallel", "2", "--out", rerun) == 0
        assert (rerun / "draws_chain0.npz").read_bytes() == \
            (fit / "draws_chain0.npz").read_bytes()

    def test_joint_rerun_and_parallel_byte_identical(self, joint_fixture, tmp_path):
        _, fit = joint_fixture
        for flags in ((), ("--parallel", "2")):
            rerun = tmp_path / f"rerun{len(flags)}"
            assert run("fit", "--from-manifest", fit / "manifest.json", *flags,
                       "--out", rerun) == 0
            for k in (0, 1):
                assert (rerun / f"draws_chain{k}.npz").read_bytes() == \
                    (fit / f"draws_chain{k}.npz").read_bytes()

    def test_old_manifest_with_step_size_reruns(self, joint_fixture, tmp_path):
        _, fit = joint_fixture
        manifest = json.loads((fit / "manifest.json").read_text())
        assert "step_size" not in manifest
        manifest["step_size"] = 0.5  # written by versions with a tuned random walk
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        assert run("fit", "--from-manifest", tmp_path / "manifest.json",
                   "--out", tmp_path / "rerun") == 0
        assert (tmp_path / "rerun" / "draws_chain0.npz").read_bytes() == \
            (fit / "draws_chain0.npz").read_bytes()

    def test_step_size_option_removed(self, total_fixture, tmp_path):
        sim, _ = total_fixture
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"model = total\ndata = {sim / 'data.csv'}\nstep_size = 0.5\n")
        assert run("fit", "--config", cfg, "--out", tmp_path / "a") == 2
        with pytest.raises(SystemExit) as exc:
            run("fit", "--model", "total", "--data", sim / "data.csv",
                "--step-size", "0.5", "--out", tmp_path / "b")
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["simulate", "export"])
    def test_span_start_option_removed(self, total_fixture, tmp_path, command):
        sim, _ = total_fixture
        argv = {
            "simulate": ["simulate", "--model", "total"],
            "export": ["export", "--figure", "1", "--data", sim / "data.csv"],
        }[command]
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--span-start", "1994", "--out", tmp_path / "out")
        assert exc.value.code == 2

    def test_simulated_years_past_2014_fit(self, tmp_path):
        sim = tmp_path / "sim"
        assert run("simulate", "--model", "total", "--countries", "3", "--years", "60",
                   "--seed", "1", "--out", sim) == 0
        assert "2029," in (sim / "data.csv").read_text()
        assert run("fit", "--model", "total", "--data", sim / "data.csv", "--chains", "1",
                   "--iters", "60", "--burnin", "10", "--thin", "1",
                   "--out", tmp_path / "fit") == 0

    def test_unset_chain_settings_take_chainconfig_defaults(self, total_fixture, tmp_path,
                                                            monkeypatch):
        class Captured(Exception):
            pass

        def capture(model, data, config, parallel):
            raise Captured(config)

        monkeypatch.setattr(cli, "run_chains", capture)
        sim, _ = total_fixture
        with pytest.raises(Captured) as exc:
            run("fit", "--model", "total", "--data", sim / "data.csv",
                "--out", tmp_path / "fit")
        assert exc.value.args[0] == ChainConfig()

    def test_config_file_takes_flag_names(self, total_fixture, tmp_path, capsys):
        sim, _ = total_fixture
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"model = total\ndata = {sim / 'data.csv'}\niterations = 200\n")
        assert run("fit", "--config", cfg, "--out", tmp_path / "a") == 2
        assert "unknown config key 'iterations'" in capsys.readouterr().err

    def test_one_country_joint_fit_is_numeric_failure(self, tmp_path, capsys):
        data = tmp_path / "one.csv"
        rows = ["country,year,sector,tonnes"]
        for year in range(1970, 1980):
            rows.append(f"Only,{year},industrial,{100 + year - 1970}")
            rows.append(f"Only,{year},artisanal,{50 + 2 * (year - 1970)}")
        data.write_text("\n".join(rows) + "\n")
        assert run("fit", "--model", "joint", "--data", data, "--chains", "1",
                   "--iters", "50", "--burnin", "10", "--thin", "1",
                   "--out", tmp_path / "fit") == 4
        assert "at least 2 countries" in capsys.readouterr().err

    def test_joint_fit_with_one_sector_runs(self, tmp_path):
        data = tmp_path / "ind.csv"
        rows = ["country,year,sector,tonnes"]
        for year in range(1970, 1980):
            rows.append(f"A,{year},industrial,{100 + year - 1970}")
            rows.append(f"B,{year},industrial,{80 + 3 * (year - 1970) % 7}")
        data.write_text("\n".join(rows) + "\n")
        assert run("fit", "--model", "joint", "--data", data, "--chains", "1",
                   "--iters", "200", "--burnin", "50", "--thin", "1",
                   "--out", tmp_path / "fit") == 0

    def test_config_file_flags_win(self, total_fixture, tmp_path):
        sim, _ = total_fixture
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"model = total\ndata = {sim / 'data.csv'}\n"
            "iters = 200\nburnin = 100\nthin = 1\nchains = 2\nseed = 5\n"
        )
        out = tmp_path / "out"
        assert run("fit", "--config", cfg, "--seed", "9", "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 9
        assert manifest["iterations"] == 200

    def test_recovery_ci_covers_beta0_truth(self, total_fixture):
        sim, fit = total_fixture
        truth = json.loads((sim / "truth.json").read_text())["params"]["beta0"]
        rows = {r[0]: r for r in read_csv(fit / "summary.csv")[1:]}
        lo, hi = float(rows["beta0"][3]), float(rows["beta0"][4])
        assert lo < truth < hi


class TestExitCodes:
    def test_config_error(self, tmp_path):
        assert run("fit", "--model", "total", "--out", tmp_path / "x") == 2

    def test_missing_data_file(self, tmp_path):
        assert run("fit", "--model", "total", "--data", tmp_path / "nope.csv",
                   "--out", tmp_path / "x") == 3

    def test_malformed_data(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("country,year,sector,tonnes\nSpain,notayear,industrial,5\n")
        assert run("fit", "--model", "total", "--data", bad,
                   "--out", tmp_path / "x") == 3

    def test_year_too_large_for_an_index(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("country,year,sector,tonnes\nSpain,1990,total,5\n"
                       f"Spain,{'9' * 24},total,5\n")
        assert run("fit", "--model", "total", "--data", bad,
                   "--out", tmp_path / "x") == 3
        err = capsys.readouterr().err
        assert "line 3" in err and "Traceback" not in err

    def test_checksum_mismatch(self, total_fixture, tmp_path):
        sim, fit = total_fixture
        manifest = json.loads((fit / "manifest.json").read_text())
        manifest["data_sha256"] = "0" * 64
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps(manifest))
        assert run("fit", "--from-manifest", mpath, "--out", tmp_path / "x") == 3

    @pytest.mark.parametrize("failure", ["missing_data_file", "checksum_mismatch",
                                         "empty_checksum"])
    def test_failed_fit_leaves_no_output_dir(self, total_fixture, tmp_path, failure):
        _, fit = total_fixture
        if failure == "missing_data_file":
            args = ["--model", "total", "--data", tmp_path / "nope.csv"]
        else:
            sha = "" if failure == "empty_checksum" else "0" * 64
            args = ["--from-manifest", self.manifest_with(fit, "data_sha256", sha, tmp_path)]
        assert run("fit", *args, "--out", tmp_path / "out" / "fit") == 3
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("path", ["out_is_a_file", "manifest_is_a_directory"])
    def test_unusable_path(self, total_fixture, tmp_path, capsys, path):
        sim, _ = total_fixture
        if path == "out_is_a_file":
            (tmp_path / "x").touch()
            argv = ["fit", "--model", "total", "--data", sim / "data.csv", "--chains", "1",
                    "--iters", "20", "--burnin", "5", "--thin", "1", "--out", tmp_path / "x"]
        else:
            (tmp_path / "manifest.json").mkdir()
            argv = ["summarize", "--fit", tmp_path]
        assert run(*argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("command", ["fit", "sbc"])
    def test_unusable_out_fails_before_sampling(self, total_fixture, tmp_path, capsys,
                                                monkeypatch, command):
        def never(*args, **kwargs):
            raise AssertionError("sampled before checking --out")

        monkeypatch.setattr(cli, "run_chains", never)
        monkeypatch.setattr(cli, "sbc_run", never)
        sim, _ = total_fixture
        (tmp_path / "afile").touch()
        if command == "fit":
            argv = ["fit", "--model", "total", "--data", sim / "data.csv",
                    "--out", tmp_path / "afile"]
        else:
            argv = ["sbc", "--replicates", "1", "--out", tmp_path / "afile" / "sbc"]
        assert run(*argv) == 3
        assert "afile is not a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("model, text, named", [
        ("total", '[1, 2]', "not a JSON object"),
        ("total", '"sigma"', "not a JSON object"),
        ("total", '{"sigmaa": 3}', "'sigmaa'"),
        ("total", '{"rho0": 0.5}', "'rho0'"),  # a key of the other model
        ("joint", '{"beta0": 8.0}', "'beta0'"),
        ("total", '{"sigma": "abc"}', "'sigma'"),
        ("total", '{"sigma": null}', "'sigma'"),
        ("total", '{"sigma": true}', "'sigma'"),
        ("total", '{"beta0": [1]}', "'beta0'"),
        ("total", '{"sigma": NaN}', "'sigma'"),
        ("total", '{"sigma1": 1e999}', "'sigma1'"),
        ("total", '{"beta0": 1' + "0" * 400 + "}", "'beta0'"),
        ("total", '{"sigma0": 0}', "'sigma0'"),
        ("joint", '{"sigma1_A": -0.1}', "'sigma1_A'"),
        ("joint", '{"rho0": 1.0}', "'rho0'"),
        ("joint", '{"rho1": -1}', "'rho1'"),
    ])
    def test_bad_truth_file(self, tmp_path, capsys, model, text, named):
        tf = tmp_path / "truth.json"
        tf.write_text(text)
        assert run("simulate", "--model", model, "--countries", "3", "--years", "4",
                   "--truth", tf, "--out", tmp_path / "sim") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and named in err
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("command", [
        ["simulate", "--model", "total", "--countries", "3", "--years", "4"],
        ["sbc", "--replicates", "1"],
    ])
    def test_negative_seed(self, tmp_path, capsys, command):
        assert run(*command, "--seed", "-1", "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "seed" in err and "-1" in err
        assert not (tmp_path / "out").exists()

    def test_truth_beyond_float_range(self, tmp_path, capsys):
        # log tonnes near 1000 overflow exp: refused before --out, with no warning
        tf = tmp_path / "truth.json"
        tf.write_text('{"beta0": 1000}')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("simulate", "--model", "total", "--countries", "3", "--years", "5",
                       "--truth", tf, "--out", tmp_path / "sim") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "float range" in err
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("model, text, key", [
        ("total", '{"sigma1": 1e308}', "sigma1"),
        ("joint", '{"sigma0_I": 1e300}', "sigma0_I"),
        ("total", '{"sigma": 709.79}', "sigma"),
    ])
    def test_truth_sd_beyond_float_range(self, tmp_path, capsys, model, text, key):
        # an sd of log tonnes past log(float max) overflows the simulation itself
        tf = tmp_path / "truth.json"
        tf.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("simulate", "--model", model, "--countries", "3", "--years", "5",
                       "--truth", tf, "--out", tmp_path / "sim") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tf}: truth key '{key}'") and err.count("\n") == 1
        assert "float range" in err
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("text", [
        '{"sigma": 1' + "0" * 5000 + "}",  # past Python's 4300-digit int-string limit
        '{"sigma": ',
        "[" * 100_000,
    ], ids=["5001_digit_integer", "truncated", "nested_too_deep"])
    @pytest.mark.parametrize("kind", ["truth", "manifest"])
    def test_json_that_does_not_parse(self, tmp_path, capsys, kind, text):
        path = tmp_path / f"{kind}.json"
        path.write_text(text)
        argv = {
            "truth": ["simulate", "--model", "total", "--truth", path],
            "manifest": ["fit", "--from-manifest", path],
        }[kind]
        assert run(*argv, "--out", tmp_path / "out") == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_parallel_below_one(self, total_fixture, tmp_path, capsys, value):
        sim, _ = total_fixture
        assert run("fit", "--model", "total", "--data", sim / "data.csv", "--chains", "2",
                   "--iters", "20", "--burnin", "5", "--thin", "1", "--parallel", value,
                   "--out", tmp_path / "x") == 2
        assert "parallel" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @staticmethod
    def not_utf8(path):
        # a byte-order mark of UTF-16: bytes 0xff 0xfe never occur in UTF-8
        path.write_bytes(b"\xff\xfe" + path.read_bytes())

    @pytest.mark.parametrize("kind, code", [
        ("data", 3), ("figure1_data", 3), ("manifest", 3), ("truth", 3), ("config", 2),
    ])
    def test_input_not_utf8(self, total_fixture, tmp_path, capsys, kind, code):
        sim, fit = total_fixture
        for name in ("data.csv", "truth.json"):
            shutil.copy(sim / name, tmp_path / name)
        shutil.copy(fit / "manifest.json", tmp_path / "manifest.json")
        config = tmp_path / "fit.cfg"
        config.write_text(f"model = total\ndata = {tmp_path / 'data.csv'}\n")
        damaged, argv = {
            "data": ("data.csv", ["fit", "--model", "total", "--data", tmp_path / "data.csv"]),
            "figure1_data": ("data.csv", ["export", "--figure", "1",
                                          "--data", tmp_path / "data.csv"]),
            "manifest": ("manifest.json", ["fit", "--from-manifest", tmp_path / "manifest.json"]),
            "truth": ("truth.json", ["simulate", "--model", "total",
                                     "--truth", tmp_path / "truth.json"]),
            "config": ("fit.cfg", ["fit", "--config", config]),
        }[kind]
        self.not_utf8(tmp_path / damaged)
        assert run(*argv, "--out", tmp_path / "out") == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{damaged}: not UTF-8 text" in err

    @pytest.mark.parametrize("command", ["fit", "figure1"])
    def test_empty_country_exits_3(self, tmp_path, capsys, command):
        data = tmp_path / "data.csv"
        data.write_text("country,year,sector,tonnes\nSpain,1970,total,10\n ,1971,total,5\n")
        argv = {
            "fit": ["fit", "--model", "total", "--data", data],
            "figure1": ["export", "--figure", "1", "--data", data],
        }[command]
        assert run(*argv, "--out", tmp_path / "out") == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "line 3: empty country" in err
        assert not (tmp_path / "out").exists()

    @staticmethod
    def manifest_without(fit, key, tmp_path):
        manifest = json.loads((fit / "manifest.json").read_text())
        del manifest[key]
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        return tmp_path / "manifest.json"

    def test_fit_from_manifest_missing_key(self, total_fixture, tmp_path, capsys):
        _, fit = total_fixture
        mpath = self.manifest_without(fit, "chains", tmp_path)
        assert run("fit", "--from-manifest", mpath, "--out", tmp_path / "x") == 2
        assert "'chains'" in capsys.readouterr().err

    def test_summarize_manifest_missing_key(self, total_fixture, tmp_path, capsys):
        _, fit = total_fixture
        self.manifest_without(fit, "chains", tmp_path)
        assert run("summarize", "--fit", tmp_path) == 2
        assert "'chains'" in capsys.readouterr().err

    @staticmethod
    def manifest_with(fit, key, value, tmp_path):
        manifest = json.loads((fit / "manifest.json").read_text())
        manifest[key] = value
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        return tmp_path / "manifest.json"

    @pytest.mark.parametrize("key, value", [
        ("chains", "2"), ("chains", 0), ("chains", True), ("model", "bogus"),
    ])
    def test_summarize_manifest_bad_value(self, total_fixture, tmp_path, capsys, key, value):
        _, fit = total_fixture
        self.manifest_with(fit, key, value, tmp_path)
        assert run("summarize", "--fit", tmp_path) == 2
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("chains", "2"), ("model", "bogus"), ("iterations", 1.5), ("seed", None), ("data", 3),
        ("data_sha256", [1, 2]),
    ])
    def test_fit_from_manifest_bad_value(self, total_fixture, tmp_path, capsys, key, value):
        _, fit = total_fixture
        mpath = self.manifest_with(fit, key, value, tmp_path)
        assert run("fit", "--from-manifest", mpath, "--out", tmp_path / "x") == 2
        assert repr(key) in capsys.readouterr().err

    @staticmethod
    def header_only(text):
        return text.splitlines(keepends=True)[0]

    @staticmethod
    def non_numeric_on_line_3(text):
        lines = text.splitlines(keepends=True)
        lines[2] = "oops," + lines[2].split(",", 1)[1]
        return "".join(lines)

    @staticmethod
    def short_row_on_line_4(text):
        lines = text.splitlines(keepends=True)
        lines[3] = lines[3].rsplit(",", 1)[0] + "\n"
        return "".join(lines)

    @staticmethod
    def blank_line_3_then_short_row_on_line_5(text):
        # blank lines are skipped but still counted as physical lines
        lines = text.splitlines(keepends=True)
        lines.insert(2, "\n")
        lines[4] = lines[4].rsplit(",", 1)[0] + "\n"
        return "".join(lines)

    @staticmethod
    def header_lacks_a_name(text):
        # every row is one value too wide, so the first draw is blamed
        header, body = text.split("\n", 1)
        return header.rsplit(",", 1)[0] + "\n" + body

    @staticmethod
    def long_row_on_line_2(text):
        lines = text.splitlines(keepends=True)
        lines[1] = lines[1].rstrip("\n") + ",1.5\n"
        return "".join(lines)

    @staticmethod
    def empty_cell_on_line_3(text):
        lines = text.splitlines(keepends=True)
        lines[2] = "," + lines[2].split(",", 1)[1]
        return "".join(lines)

    @staticmethod
    def cell_on_line(lineno, cell):
        """A damage that makes ``cell`` the first value on line ``lineno``."""
        def damage(text):
            lines = text.splitlines(keepends=True)
            lines[lineno - 1] = cell + "," + lines[lineno - 1].split(",", 1)[1]
            return "".join(lines)
        return staticmethod(damage)

    nan_on_line_3 = cell_on_line(3, "nan")
    inf_on_line_4 = cell_on_line(4, "-inf")
    overflow_on_line_2 = cell_on_line(2, "1e999")

    @pytest.mark.parametrize("damage, line", [
        ("header_only", 1), ("non_numeric_on_line_3", 3), ("short_row_on_line_4", 4),
        ("long_row_on_line_2", 2), ("empty_cell_on_line_3", 3),
        ("blank_line_3_then_short_row_on_line_5", 5), ("header_lacks_a_name", 2),
        ("nan_on_line_3", 3), ("inf_on_line_4", 4), ("overflow_on_line_2", 2),
    ])
    def test_damaged_draw_file(self, total_fixture, tmp_path, capsys, damage, line):
        # a CSV draw file is the format before 0.2.0: beside intact .npz files
        # and whatever its damage, it is refused unread, so no line is blamed
        _, fit = total_fixture
        for name in ("manifest.json", "draws_chain0.npz", "draws_chain1.npz"):
            shutil.copy(fit / name, tmp_path / name)
        text = export_chain(fit, 1, tmp_path / "chain1.csv").read_text()
        (tmp_path / "draws_chain1.csv").write_text(getattr(self, damage)(text))
        assert run("summarize", "--fit", tmp_path) == 3
        err = capsys.readouterr().err
        assert "draws_chain1.csv: draws in the CSV format of landmix before 0.2.0" in err
        assert f"draws_chain1.csv:{line}:" not in err

    @pytest.mark.parametrize("damage", NPZ_DAMAGE)
    def test_damaged_npz_draw_file(self, total_fixture, tmp_path, capsys, damage):
        _, fit = total_fixture
        for name in ("manifest.json", "draws_chain0.npz"):
            shutil.copy(fit / name, tmp_path / name)
        make, message = NPZ_DAMAGE[damage]
        original = fit / "draws_chain1.npz"
        path = tmp_path / "draws_chain1.npz"
        path.write_bytes(make(original.read_bytes(), *draw_members(original)))
        out = tmp_path / "out.csv"
        for argv in (["summarize", "--fit", tmp_path],
                     ["export", "--figure", "2", "--fit", tmp_path, "--out", out],
                     ["export", "--chain", "1", "--fit", tmp_path, "--out", out]):
            assert run(*argv) == 3
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: ") and message in err, err
            assert "Traceback" not in err and not out.exists()

    def test_old_csv_fit_dir_exits_3(self, total_fixture, tmp_path, capsys):
        # an intact fit directory of landmix 0.1.0: a manifest and CSV draw files
        _, fit = total_fixture
        shutil.copy(fit / "manifest.json", tmp_path / "manifest.json")
        for k in (0, 1):
            export_chain(fit, k, tmp_path / f"draws_chain{k}.csv")
        out = tmp_path / "out.csv"
        for argv, k in ((["summarize", "--fit", tmp_path], 0),
                        (["export", "--figure", "2", "--fit", tmp_path, "--out", out], 0),
                        (["export", "--chain", "1", "--fit", tmp_path, "--out", out], 1)):
            assert run(*argv) == 3
            err = capsys.readouterr().err
            assert err == (f"error: {tmp_path / f'draws_chain{k}.csv'}: draws in the CSV format "
                           "of landmix before 0.2.0\n")
            assert not out.exists()

    def test_fit_into_an_old_csv_fit_dir_exits_3(self, total_fixture, tmp_path, capsys,
                                                  monkeypatch):
        # the fresh fit would sit beside a draw file that summarize refuses
        def never(*args, **kwargs):
            raise AssertionError("sampled into an --out holding old draw files")

        monkeypatch.setattr(cli, "run_chains", never)
        sim, _ = total_fixture
        out = tmp_path / "old_fit"
        out.mkdir()
        (out / "draws_chain0.csv").write_text("beta0\n1.0\n")
        assert run("fit", "--model", "total", "--data", sim / "data.csv", "--out", out) == 3
        assert capsys.readouterr().err == (f"error: {out / 'draws_chain0.csv'}: draws in the "
                                           "CSV format of landmix before 0.2.0\n")
        assert [p.name for p in out.iterdir()] == ["draws_chain0.csv"]
        assert (out / "draws_chain0.csv").read_text() == "beta0\n1.0\n"

    @pytest.mark.parametrize("command", ["summarize", "figure2", "figure3"])
    @pytest.mark.parametrize("damage", ["beta0_renamed", "manifest_says_joint"])
    def test_draw_header_lacks_a_model_parameter(self, total_fixture, tmp_path, capsys,
                                                 command, damage):
        _, fit = total_fixture
        manifest = json.loads((fit / "manifest.json").read_text())
        for k in (0, 1):
            names, draws = draw_members(fit / f"draws_chain{k}.npz")
            if damage == "beta0_renamed":
                names = np.where(names == "beta0", "beta_0", names)
            np.savez(tmp_path / f"draws_chain{k}.npz", names=names, draws=draws)
        if damage == "manifest_says_joint":
            manifest["model"] = "joint"
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        missing = "beta0" if damage == "beta0_renamed" else JOINT_PARAM_NAMES[0]
        out = tmp_path / "out.csv"
        argv = {
            "summarize": ["summarize", "--fit", tmp_path],
            "figure2": ["export", "--figure", "2", "--fit", tmp_path, "--out", out],
            "figure3": ["export", "--figure", "3", "--fit", tmp_path, "--out", out],
        }[command]
        assert run(*argv) == 3
        err = capsys.readouterr().err
        assert "draws_chain0.npz" in err and repr(missing) in err
        assert not out.exists()

    def test_header_only_draw_file_does_not_warn(self, total_fixture, tmp_path):
        # the names and no draws: an error, not a numpy warning
        _, fit = total_fixture
        names, draws = draw_members(fit / "draws_chain0.npz")
        path = tmp_path / "draws_chain0.npz"
        np.savez(path, names=names, draws=draws[:0])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DataFormatError, match="draws_chain0.npz: no draws"):
                read_draws(path)
        assert caught == []

    def test_degenerate_data_numeric_exit(self, tmp_path):
        # a single observation leaves the variance update with zero degrees
        # of freedom, which is reported as a numerical failure
        tiny = tmp_path / "tiny.csv"
        tiny.write_text("country,year,sector,tonnes\nA,1970,total,1000\n")
        assert run("fit", "--model", "total", "--data", tiny, "--chains", "1",
                   "--iters", "50", "--burnin", "10", "--thin", "1",
                   "--out", tmp_path / "x") == 4

    def test_joint_fit_of_total_rows_only_is_a_data_error(self, tmp_path, capsys):
        data = tmp_path / "totals.csv"
        data.write_text("country,year,sector,tonnes\nA,1970,total,10\nA,1971,total,12\n"
                        "B,1970,total,7\nB,1971,total,9\n")
        assert run("fit", "--model", "joint", "--data", data, "--chains", "1",
                   "--iters", "20", "--burnin", "5", "--thin", "1",
                   "--out", tmp_path / "x") == 3
        err = capsys.readouterr().err
        assert f"{data}: no industrial or artisanal rows" in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()

    def test_no_mass_below_the_sd_bound_numeric_exit(self, tmp_path, capsys):
        # log tonnes swinging by ±690 give a residual sd about 70 times the
        # bound of 10: the truncated variance conditional has no mass left
        data = tmp_path / "wild.csv"
        rows = [f"{c},{1970 + t},total,{'1e-300' if t % 2 else '1e300'}"
                for c in "AB" for t in range(20)]
        data.write_text("country,year,sector,tonnes\n" + "\n".join(rows) + "\n")
        assert run("fit", "--model", "total", "--data", data, "--chains", "1",
                   "--iters", "20", "--burnin", "5", "--thin", "1",
                   "--out", tmp_path / "x") == 4
        assert "no mass below the sd bound" in capsys.readouterr().err


class TestDrawFiles:
    NAMES = TOTAL_PARAM_NAMES + ("b0[a,b]", 'b0["q"]')
    VALUES = np.array([-0.0, 5e-324, 1e16, 1 / 3, 1.5e-300])

    def test_writer_matches_csv_module_and_reads_back_bit_identical(self, tmp_path):
        # the .npz holds the matrix as sampled, and export --chain writes the
        # csv module's bytes of it
        matrix = np.column_stack([self.VALUES, -self.VALUES[::-1]] * 3)
        _write_draws(tmp_path / "draws_chain0.npz", ChainDraws(self.NAMES, matrix, {}, 0))
        (tmp_path / "manifest.json").write_text(json.dumps({"model": "total", "chains": 1}))
        reference = tmp_path / "reference.csv"
        with open(reference, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.NAMES)
            for row in matrix:
                writer.writerow([repr(float(v)) for v in row])
        out = export_chain(tmp_path, 0, tmp_path / "chain0.csv")
        assert out.read_bytes() == reference.read_bytes()
        back = read_draws(tmp_path / "draws_chain0.npz")
        assert back.names == self.NAMES
        assert back.matrix.dtype == np.float64
        assert back.matrix.tobytes() == matrix.tobytes()

    def test_export_chain_writes_crlf_lines(self, total_fixture, tmp_path):
        _, fit = total_fixture
        lines = export_chain(fit, 1, tmp_path / "chain1.csv").read_bytes().split(b"\r\n")
        names, draws = draw_members(fit / "draws_chain1.npz")
        assert lines[-1] == b"" and len(lines) == 2 + len(draws)
        assert not any(b"\r" in line or b"\n" in line for line in lines)
        assert lines[0].decode().split(",") == names.tolist()
        back = np.array([[float(x) for x in line.split(b",")] for line in lines[1:-1]])
        assert back.tobytes() == draws.tobytes()

    def test_rewrite_later_is_byte_identical(self, tmp_path, monkeypatch):
        # a zip member records a modification time; the draw files hold none
        chain = ChainDraws(self.NAMES, np.ones((3, len(self.NAMES))), {}, 0)
        _write_draws(tmp_path / "a.npz", chain)
        later = time.time() + 3600
        monkeypatch.setattr(time, "time", lambda: later)
        _write_draws(tmp_path / "b.npz", chain)
        assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()

    def test_country_label_with_comma_end_to_end(self, total_fixture, tmp_path):
        sim, _ = total_fixture
        rows = read_csv(sim / "data.csv")
        first = rows[1][0]
        for row in rows[1:]:
            row[0] = "Spain, North" if row[0] == first else row[0]
        data = tmp_path / "data.csv"
        with open(data, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        fit = tmp_path / "fit"
        assert run("fit", "--model", "total", "--data", data, "--chains", "2",
                   "--iters", "300", "--burnin", "100", "--thin", "1", "--out", fit) == 0
        chain_csv = export_chain(fit, 0, tmp_path / "chain0.csv")
        assert b',"b0[Spain, North]",' in chain_csv.read_bytes().split(b"\r\n")[0]
        assert read_csv(chain_csv)[0][4] == "b0[Spain, North]"
        assert read_draws(fit / "draws_chain0.npz").names[4] == "b0[Spain, North]"
        assert run("summarize", "--fit", fit) == 0
        out = tmp_path / "fig2.csv"
        assert run("export", "--figure", "2", "--fit", fit, "--out", out) == 0
        exported = read_csv(out)
        assert [r[:2] for r in exported[1:] if r[0] == "Spain, North"] == [
            ["Spain, North", "b0"], ["Spain, North", "b1"]]
        assert len(exported) == 1 + 2 * 6


class TestExport:
    def test_figure1_roundtrips(self, total_fixture, tmp_path):
        sim, _ = total_fixture
        out = tmp_path / "fig1.csv"
        assert run("export", "--figure", "1", "--data", sim / "data.csv",
                   "--out", out) == 0
        rows = read_csv(out)
        assert rows[0] == ["country", "year", "log_tonnes", "sector"]
        source = load_landings(sim / "data.csv", "total")
        by_key = {
            (source.labels[c], 1970 + int(t)): y
            for c, t, y in zip(source.country, source.t, source.y)
        }
        for country, year, logt, sector in rows[1:]:
            assert sector == "total"
            assert float(logt) == pytest.approx(by_key[(country, int(year))], rel=1e-12)

    def test_figure2_schema(self, total_fixture, tmp_path):
        _, fit = total_fixture
        out = tmp_path / "fig2.csv"
        assert run("export", "--figure", "2", "--fit", fit, "--out", out) == 0
        rows = read_csv(out)
        assert rows[0] == ["country", "effect", "q0.025", "mean", "q0.975"]
        assert len(rows) == 1 + 6 * 2  # one row per country per effect
        for row in rows[1:]:
            assert row[1] in ("b0", "b1")
            assert float(row[2]) <= float(row[3]) <= float(row[4])

    def test_figure3_dual_sector_only(self, tmp_path):
        data = tmp_path / "mix.csv"
        rows = ["country,year,sector,tonnes"]
        for year in range(1970, 1980):
            rows.append(f"Both,{year},industrial,{100 + year - 1970}")
            rows.append(f"Both,{year},artisanal,{50 + year - 1970}")
            rows.append(f"IndOnly,{year},industrial,{80 + year - 1970}")
        data.write_text("\n".join(rows) + "\n")
        fit = tmp_path / "fit"
        assert run("fit", "--model", "joint", "--data", data, "--chains", "1",
                   "--iters", "300", "--burnin", "100", "--thin", "1",
                   "--out", fit) == 0
        out = tmp_path / "fig3.csv"
        assert run("export", "--figure", "3", "--fit", fit, "--out", out) == 0
        rows = read_csv(out)
        assert rows[0] == ["country", "effect", "industrial_mean", "artisanal_mean"]
        assert {r[0] for r in rows[1:]} == {"Both"}
        assert [r[1] for r in rows[1:]] == ["intercept", "slope"]

    def test_figure3_checks_data_checksum(self, joint_fixture, tmp_path):
        sim, fit = joint_fixture
        data = tmp_path / "data.csv"
        shutil.copy(sim / "data.csv", data)
        manifest = json.loads((fit / "manifest.json").read_text())
        manifest["data"] = str(data)
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        for k in (0, 1):
            shutil.copy(fit / f"draws_chain{k}.npz", tmp_path / f"draws_chain{k}.npz")
        out = tmp_path / "fig3.csv"
        assert run("export", "--figure", "3", "--fit", tmp_path, "--out", out) == 0
        with open(data, "a") as fh:
            fh.write("Extra,1970,industrial,5\n")
        assert run("export", "--figure", "3", "--fit", tmp_path, "--out", out) == 3

    def test_figure3_from_total_fit_rejected(self, total_fixture, tmp_path):
        _, fit = total_fixture
        assert run("export", "--figure", "3", "--fit", fit,
                   "--out", tmp_path / "fig3.csv") == 2

    @pytest.mark.parametrize("flags", [("--chain", "2"), ("--chain", "-1"), ("--chain", "0")])
    def test_chain_outside_the_fit_or_without_fit_exits_2(self, total_fixture, tmp_path,
                                                          capsys, flags):
        _, fit = total_fixture
        out = tmp_path / "chain.csv"
        fit_flags = ("--fit", fit) if flags[1] != "0" else ()
        assert run("export", *flags, *fit_flags, "--out", out) == 2
        assert "--chain" in capsys.readouterr().err and not out.exists()

    def test_chain_reads_only_its_own_draw_file(self, total_fixture, tmp_path, capsys):
        _, fit = total_fixture
        for name in ("manifest.json", "draws_chain0.npz"):
            shutil.copy(fit / name, tmp_path / name)
        damaged = tmp_path / "draws_chain1.npz"
        damaged.write_bytes((fit / "draws_chain1.npz").read_bytes()[:100])
        want = export_chain(fit, 0, tmp_path / "want.csv").read_bytes()
        assert export_chain(tmp_path, 0, tmp_path / "got.csv").read_bytes() == want
        out = tmp_path / "chain.csv"
        assert run("export", "--chain", "1", "--fit", tmp_path, "--out", out) == 3
        assert capsys.readouterr().err.startswith(f"error: {damaged}: not a readable draw file")
        assert run("export", "--chain", "2", "--fit", tmp_path, "--out", out) == 2
        assert "--chain 2" in capsys.readouterr().err and not out.exists()

    def test_chain_and_figure_exclude_each_other(self, total_fixture, tmp_path):
        _, fit = total_fixture
        with pytest.raises(SystemExit) as exc:
            run("export", "--chain", "0", "--figure", "2", "--fit", fit,
                "--out", tmp_path / "out.csv")
        assert exc.value.code == 2


class TestSbcAndSummarize:
    def test_sbc_writes_report(self, tmp_path, capsys):
        # at these settings about a tenth of replicates miss the R-hat gate,
        # and one miss in four fails the run: the exit code must follow
        # summary.json, whichever way this draw stream falls
        out = tmp_path / "sbc"
        code = run("sbc", "--replicates", "4", "--countries", "3", "--years", "6",
                   "--iters", "400", "--burnin", "150", "--seed", "0", "--out", out)
        printed = capsys.readouterr().out
        for name in ("beta0", "sigma", "sigma0", "sigma1"):
            assert f"{name}: p = " in printed
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["pvalues"]) == {"beta0", "sigma", "sigma0", "sigma1"}
        assert summary["replicates"] == 4
        assert code == (4 if summary["failed"] else 0)
        rows = read_csv(out / "ranks.csv")
        assert rows[0] == ["parameter", "replicate", "rank"]
        assert len(rows) - 1 == 4 * (summary["replicates"] - summary["excluded"])

    def test_ranks_name_their_replicate_after_an_exclusion(self, tmp_path, monkeypatch):
        # replicate 1 of 4 misses the R-hat gate: the rows after it must still
        # name the replicate whose SeedSequence spawn_key reruns them
        calls = []

        def rhat(seqs):
            calls.append(None)
            return 2.0 if (len(calls) - 1) // 4 == 1 else 1.0  # four parameters a replicate

        monkeypatch.setattr(oracle, "_safe_rhat", rhat)
        out = tmp_path / "sbc"
        code = run("sbc", "--replicates", "4", "--countries", "3", "--years", "6",
                   "--iters", "200", "--burnin", "100", "--seed", "0", "--out", out)
        assert code == 4  # one exclusion in four fails the run, after ranks.csv is written
        assert len(calls) == 16
        rows = read_csv(out / "ranks.csv")[1:]
        for name in ("beta0", "sigma", "sigma0", "sigma1"):
            assert [int(r[1]) for r in rows if r[0] == name] == [0, 2, 3]

    @pytest.mark.parametrize("replicates", ["0", "-3"])
    def test_sbc_needs_a_replicate(self, tmp_path, capsys, replicates):
        assert run("sbc", "--replicates", replicates, "--out", tmp_path / "sbc") == 2
        assert "replicate" in capsys.readouterr().err

    def test_sbc_needs_two_chains(self, tmp_path, capsys):
        assert run("sbc", "--replicates", "3", "--chains", "1", "--iters", "60",
                   "--burnin", "30", "--countries", "3", "--years", "6",
                   "--out", tmp_path / "sbc") == 2
        assert "at least 2 chains" in capsys.readouterr().err
        assert not (tmp_path / "sbc").exists()

    def test_sbc_needs_two_countries(self, tmp_path, capsys):
        assert run("sbc", "--replicates", "3", "--countries", "1", "--years", "6",
                   "--out", tmp_path / "sbc") == 2
        assert "at least 2 countries, got 1" in capsys.readouterr().err
        assert not (tmp_path / "sbc").exists()

    def test_sbc_needs_rank_draws_distinct_draws(self, tmp_path, capsys):
        # 2 chains x 10 retained draws < the 49 draws each truth is ranked among
        assert run("sbc", "--replicates", "2", "--iters", "20", "--burnin", "10",
                   "--out", tmp_path / "sbc") == 2
        err = capsys.readouterr().err
        assert "49" in err and "20" in err
        assert not (tmp_path / "sbc").exists()

    def test_sbc_writes_strict_json_when_every_replicate_excluded(self, tmp_path,
                                                                  monkeypatch):
        # a gate below 1 excludes every replicate, leaving NaN p-values
        monkeypatch.setattr(oracle, "RHAT_GATE", 0.5)
        out = tmp_path / "sbc"
        assert run("sbc", "--replicates", "2", "--countries", "3", "--years", "6",
                   "--iters", "60", "--burnin", "30", "--out", out) == 4

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
        assert summary["pvalues"] == dict.fromkeys(("beta0", "sigma", "sigma0", "sigma1"))
        assert summary["failed"] is True

    def test_summarize_reprints_fit(self, total_fixture, capsys):
        _, fit = total_fixture
        assert run("summarize", "--fit", fit) == 0
        printed = capsys.readouterr().out
        assert "parameter" in printed
        assert "beta0" in printed and "split_rhat" in printed


class TestConvergenceWarnings:
    def fit(self, sim_dir, out, iters, burnin):
        return run("fit", "--model", "total", "--data", sim_dir / "data.csv", "--chains", "2",
                   "--iters", iters, "--burnin", burnin, "--thin", "1", "--seed", "1",
                   "--out", out)

    def test_flagged_parameters_warn_on_stderr(self, total_fixture, tmp_path, capsys):
        sim, _ = total_fixture
        fit = tmp_path / "fit"
        assert self.fit(sim, fit, 60, 30) == 0  # 2 x 30 draws: every ESS is below the flag
        out, err = capsys.readouterr()
        assert out == (fit / "summary.txt").read_text()
        rows = read_csv(fit / "convergence.csv")[1:]
        expected = [f"warning: {name}: split R-hat {float(rhat):.4f}, ESS {float(ess):.1f}"
                    for name, rhat, ess, flagged in rows if flagged == "true"]
        assert err.splitlines() == expected and len(expected) == len(TOTAL_PARAM_NAMES)
        assert all(float(ess) < 400 for _, _, ess, _ in rows)
        assert run("summarize", "--fit", fit) == 0
        assert capsys.readouterr().err == err

    def test_unflagged_fit_writes_nothing_to_stderr(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        assert run("simulate", "--model", "total", "--countries", "12", "--years", "45",
                   "--seed", "3", "--out", sim) == 0
        fit = tmp_path / "fit"
        assert self.fit(sim, fit, 1500, 500) == 0
        assert [row[3] for row in read_csv(fit / "convergence.csv")[1:]] == ["false"] * 4
        assert capsys.readouterr().err == ""
        assert run("summarize", "--fit", fit) == 0
        assert capsys.readouterr().err == ""
