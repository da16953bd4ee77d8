"""Command-line interface: fit, simulate, export, sbc, summarize.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure.  Every fit writes a reproducibility manifest; re-running
``fit --from-manifest`` reproduces byte-identical draw files.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import zipfile
from pathlib import Path

import numpy as np

from . import __version__
from .data import _parse_rows, load_landings, simulate_dataset, write_landings
from .diagnostics import (
    compute_convergence,
    pool_chains,
    render_summary_table,
    summarize,
    summary_csv_rows,
)
from .errors import ConfigError, DataFormatError, DegenerateDataError, LandmixError, utf8_text
from .model import MODELS, model_spec, model_streams, params_from_dict, params_to_dict
from .oracle import SBCConfig, sbc_run
from .sampler import ChainConfig, ChainDraws, run_chains

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

_KINDS = " or ".join(map(repr, MODELS))

# the largest log tonnage whose tonnage is a finite float
_LOG_FLOAT_MAX = math.log(sys.float_info.max)

_DEFAULT_TRUTH = {
    "total": {"beta0": 8.0, "sigma": 0.5, "sigma0": 4.0, "sigma1": 0.05},
    "joint": {
        "beta0_I": 8.5,
        "beta0_A": 5.5,
        "sigma": 0.55,
        "sigma0_I": 2.5,
        "sigma0_A": 4.0,
        "sigma1_I": 0.05,
        "sigma1_A": 0.05,
        "rho0": 0.7,
        "rho1": 0.9,
    },
}


def _checked_sha256(path: Path, expected: str | None) -> str:
    """The data file's checksum, which must equal ``expected`` when one is
    given: an empty string is a checksum that matches no file."""
    if not path.exists():
        raise DataFormatError(f"data file not found: {path}")
    sha = hashlib.sha256(path.read_bytes()).hexdigest()
    if expected is not None and expected != sha:
        raise DataFormatError(f"{path}: data checksum does not match manifest")
    return sha


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _check_out_dir(out: Path) -> None:
    """Fail before any sampling when ``out`` cannot become a directory: it,
    or its nearest existing ancestor, must be one."""
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise NotADirectoryError(f"--out {out}: {existing} is not a directory")


def _write_draws(path: Path, draws: ChainDraws) -> None:
    """One chain's draw file: an uncompressed .npz of ``names`` and ``draws``."""
    np.savez(path, names=np.array(draws.names, dtype=str), draws=draws.matrix)


def read_draws(path, chain_index: int = 0) -> ChainDraws:
    """Read one chain's draw file; a damaged file raises DataFormatError
    naming it."""
    try:  # damaged bytes raise any of a dozen types in zipfile and numpy
        with zipfile.ZipFile(path) as archive:
            if sorted(archive.namelist()) != ["draws.npy", "names.npy"]:
                raise ValueError(f"members {archive.namelist()} are not names.npy and draws.npy")
            arrays = []
            for member in ("names.npy", "draws.npy"):
                with archive.open(member) as fh:  # its CRC-32 is checked at its end
                    arrays.append(np.lib.format.read_array(fh, allow_pickle=False))
                    if fh.read(1):
                        raise ValueError(f"{member} holds bytes past its array")
            names, matrix = arrays
    except Exception as exc:
        raise DataFormatError(f"{path}: not a readable draw file "
                              f"({type(exc).__name__}: {exc})") from None
    if (names.ndim != 1 or names.dtype.kind != "U" or matrix.dtype != np.float64
            or matrix.shape[1:] != names.shape):  # draws is 2-D, with a column a name
        raise DataFormatError(f"{path}: names {names.dtype}{names.shape} and draws {matrix.dtype}"
                              f"{matrix.shape}: not 1-D text and a float64 column each")
    if not matrix.shape[0]:
        raise DataFormatError(f"{path}: no draws")
    bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if bad.size:
        raise DataFormatError(f"{path}: draw {bad[0]}: a value is not finite")
    return ChainDraws(tuple(names.tolist()), matrix, {}, chain_index)


# the ChainConfig fields a fit sets; ChainConfig holds their defaults
_CHAIN_KEYS = ("chains", "iterations", "burnin", "thin", "seed")
# each fit setting and its type, by its manifest name
_FIT_SETTINGS = {"model": str, "data": str, **dict.fromkeys(_CHAIN_KEYS, int)}
# a config file names each setting by its flag
_CONFIG_KEYS = {"iters" if key == "iterations" else key: key for key in _FIT_SETTINGS}

_MANIFEST_TYPES = {**_FIT_SETTINGS, "data_sha256": str}


def _read_json(path: Path):
    """A manifest's or ``--truth`` file's JSON value; text that is not JSON
    raises DataFormatError naming the file."""
    with utf8_text(path):
        text = path.read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # a JSONDecodeError, an integer past the int-string limit, or nesting too deep
        raise DataFormatError(f"{path}: {exc}") from None


def _read_manifest(path: Path, required: tuple[str, ...]) -> dict:
    manifest = _read_json(path)
    if not isinstance(manifest, dict):
        raise ConfigError(f"{path}: manifest is not a JSON object")
    missing = [key for key in required if key not in manifest]
    if missing:
        raise ConfigError(f"{path}: manifest lacks {', '.join(map(repr, missing))}")
    for key, kind in _MANIFEST_TYPES.items():
        value = manifest.get(key)
        # every key present is typed, required or not; bool is an int
        # subclass, but true/false is no count
        if key in manifest and (not isinstance(value, kind) or isinstance(value, bool)):
            raise ConfigError(f"{path}: manifest key {key!r} must be {kind.__name__}")
    if "model" in required and manifest["model"] not in MODELS:
        raise ConfigError(f"{path}: manifest key 'model' must be {_KINDS}")
    if "chains" in required and manifest["chains"] < 1:
        raise ConfigError(f"{path}: manifest key 'chains' must be at least 1")
    return manifest


def _refuse_old_draws(path: Path) -> None:
    """Never read, nor write beside, a draw file of the old format."""
    if path.exists():
        raise DataFormatError(f"{path}: draws in the CSV format of landmix before 0.2.0")


def _read_chain(fit_dir: Path, model: str, k: int) -> ChainDraws:
    """Chain ``k`` of a fit of ``model``; its names must hold every parameter."""
    path = fit_dir / f"draws_chain{k}.npz"
    _refuse_old_draws(path.with_suffix(".csv"))
    chain = read_draws(path, k)
    missing = [name for name in model_spec(model).param_names if name not in chain.names]
    if missing:
        raise DataFormatError(f"{path}: names lack parameter {missing[0]!r}")
    return chain


def _read_fit_dir(fit_dir: Path, required: tuple[str, ...] = ("model", "chains")):
    """A fit directory's manifest and chains."""
    manifest = _read_manifest(fit_dir / "manifest.json", required)
    return manifest, [_read_chain(fit_dir, manifest["model"], k) for k in range(manifest["chains"])]


def _config_file_values(path: Path) -> dict[str, str]:
    out = {}
    with utf8_text(path, ConfigError):
        text = path.read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def _resolve_fit_settings(args) -> dict:
    """The fit settings the manifest, then the config file, then the flags
    give; a chain setting none of them gives takes ChainConfig's default."""
    settings = {}
    if args.from_manifest:
        manifest = _read_manifest(Path(args.from_manifest), tuple(_FIT_SETTINGS))
        settings = {key: manifest.get(key) for key in _MANIFEST_TYPES}
    if args.config:
        for name, raw in _config_file_values(Path(args.config)).items():
            key = _CONFIG_KEYS.get(name)
            if key is None:
                raise ConfigError(f"unknown config key {name!r}")
            try:
                settings[key] = _FIT_SETTINGS[key](raw)
            except ValueError as exc:
                raise ConfigError(f"config key {name!r}: {exc}") from exc
    for key in _FIT_SETTINGS:
        flag = getattr(args, key)
        if flag is not None:
            settings[key] = flag
    if settings.get("model") not in MODELS:
        raise ConfigError(f"--model must be {_KINDS}")
    if not settings.get("data"):
        raise ConfigError("no data path given (flag, config file, or manifest)")
    return settings


def _report(model: str, chains: list[ChainDraws]):
    """The summary table, the summary and, for 2 or more chains, the
    convergence report of a fit's model parameters; each flagged parameter
    is also warned about on stderr."""
    order = model_spec(model).param_names
    summary = summarize({name: np.concatenate([ch.draws[name] for ch in chains]) for name in order})
    report = compute_convergence(chains, order) if len(chains) >= 2 else None
    for name, entry in (report or {}).items():
        if entry.flagged:
            print(f"warning: {name}: split R-hat {entry.rhat:.4f}, ESS {entry.ess:.1f}",
                  file=sys.stderr)
    return render_summary_table(summary, model), summary, report


def cmd_fit(args) -> int:
    settings = _resolve_fit_settings(args)
    model, data_path = settings["model"], Path(settings["data"])
    sha = _checked_sha256(data_path, settings.get("data_sha256"))
    data = load_landings(data_path, model)
    config = ChainConfig(**{key: settings[key] for key in _CHAIN_KEYS if key in settings})
    out_dir = Path(args.out)
    _check_out_dir(out_dir)
    for old in sorted(out_dir.glob("draws_chain*.csv")):  # summarize would refuse the fit
        _refuse_old_draws(old)
    chains = run_chains(model, data, config, parallel=args.parallel)
    out_dir.mkdir(parents=True, exist_ok=True)
    for ch in chains:
        _write_draws(out_dir / f"draws_chain{ch.chain_index}.npz", ch)
    table, summary, report = _report(model, chains)
    (out_dir / "summary.txt").write_text(table + "\n", encoding="utf-8")
    with open(out_dir / "summary.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(summary_csv_rows(summary, model))
    if report is not None:
        with open(out_dir / "convergence.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["parameter", "split_rhat", "ess", "flagged"])
            for name, entry in report.items():
                writer.writerow([name, repr(entry.rhat), repr(entry.ess), str(entry.flagged).lower()])
    manifest = {
        "command": "fit",
        "version": __version__,
        "model": model,
        "data": str(data_path),
        "data_sha256": sha,
        **{key: getattr(config, key) for key in _CHAIN_KEYS},
    }
    _write_json(out_dir / "manifest.json", manifest)
    print(table)
    return EXIT_OK


def _read_truth(path: Path, model_kind: str) -> dict:
    """A ``--truth`` file's values: a JSON object of the model's parameters,
    each a finite number, a correlation inside (-1, 1) and an sd positive and
    below log(float max), past which the simulated landings would overflow."""
    values = _read_json(path)
    if not isinstance(values, dict):
        raise ConfigError(f"{path}: truth file is not a JSON object")
    names = model_spec(model_kind).param_names
    for key, x in values.items():
        if key not in names:
            raise ConfigError(f"{path}: truth key {key!r} is not a {model_kind}-model parameter")
        try:
            finite = not isinstance(x, bool) and math.isfinite(x)
        except (TypeError, OverflowError):
            finite = False
        if not finite:
            raise ConfigError(f"{path}: truth key {key!r} must be a finite number")
        if key.startswith("sigma") and x <= 0 or key.startswith("rho") and abs(x) >= 1:
            raise ConfigError(f"{path}: truth key {key!r} = {x} is out of range")
        if key.startswith("sigma") and x >= _LOG_FLOAT_MAX:
            raise ConfigError(
                f"{path}: truth key {key!r} = {x} puts simulated landings beyond the float "
                f"range (an sd of log tonnes must stay below {_LOG_FLOAT_MAX:.2f})"
            )
    return values


def cmd_simulate(args) -> int:
    truth_values = dict(_DEFAULT_TRUTH[args.model])
    if args.truth:
        truth_values.update(_read_truth(Path(args.truth), args.model))
    params = params_from_dict(args.model, truth_values)
    data, effects = simulate_dataset(
        args.model, params, args.countries, args.years, seed=args.seed
    )
    if np.max(data.y) > _LOG_FLOAT_MAX:
        raise ConfigError(
            "the truth puts simulated landings beyond the float range "
            f"(log tonnes above {_LOG_FLOAT_MAX:.2f})"
        )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_landings(data, out_dir / "data.csv")
    truth = {
        "model": args.model,
        "params": params_to_dict(params),
        "effects": {
            label: {tag: float(column[i]) for tag, column in effects.items()}
            for i, label in enumerate(data.labels)
        },
    }
    _write_json(out_dir / "truth.json", truth)
    _write_json(
        out_dir / "manifest.json",
        {
            "command": "simulate",
            "version": __version__,
            "model": args.model,
            "countries": args.countries,
            "years": args.years,
            "seed": args.seed,
            "truth": truth["params"],
        },
    )
    print(f"wrote {out_dir / 'data.csv'}")
    return EXIT_OK


def _export_figure1(args) -> list[list]:
    if not args.data:
        raise ConfigError("--figure 1 requires --data")
    with utf8_text(args.data), open(args.data, newline="", encoding="utf-8") as fh:
        rows, _ = _parse_rows(fh)
    out = [["country", "year", "log_tonnes", "sector"]]
    for country, year, sector, tonnes in rows:
        out.append([country, year, repr(math.log(tonnes)), sector.value])
    return out


def _export_figure2(fit_dir: Path) -> list[list]:
    manifest, chains = _read_fit_dir(fit_dir)
    if manifest["model"] != "total":
        raise ConfigError("--figure 2 requires a total-model fit")
    pooled = pool_chains(chains)
    summary = summarize(pooled)
    out = [["country", "effect", "q0.025", "mean", "q0.975"]]
    labels = [n[3:-1] for n in pooled if n.startswith("b0[")]
    for effect in ("b0", "b1"):
        for label in labels:
            s = summary[f"{effect}[{label}]"]
            out.append([label, effect, repr(s.q025), repr(s.mean), repr(s.q975)])
    return out


def _export_figure3(fit_dir: Path) -> list[list]:
    manifest, chains = _read_fit_dir(fit_dir, ("model", "chains", "data", "data_sha256"))
    if manifest["model"] != "joint":
        raise ConfigError("--figure 3 requires a joint-model fit")
    data_path = Path(manifest["data"])
    _checked_sha256(data_path, manifest["data_sha256"])
    data = load_landings(data_path, "joint")
    dual = [data.labels[c] for c in np.flatnonzero(model_streams("joint", data).n.all(axis=0))]
    pooled = pool_chains(chains)
    out = [["country", "effect", "industrial_mean", "artisanal_mean"]]
    for effect in ("intercept", "slope"):
        tag = "b0" if effect == "intercept" else "b1"
        for label in dual:
            mi = float(np.mean(pooled[f"{tag}_I[{label}]"]))
            ma = float(np.mean(pooled[f"{tag}_A[{label}]"]))
            out.append([label, effect, repr(mi), repr(ma)])
    return out


def _export_chain(fit_dir: Path, k: int) -> list[list]:
    """Chain ``k``'s names, then a row of ``repr`` floats per retained draw;
    no other chain's file is read."""
    manifest = _read_manifest(fit_dir / "manifest.json", ("model", "chains"))
    if not 0 <= k < manifest["chains"]:
        raise ConfigError(f"--chain {k}: the fit has chains 0 to {manifest['chains'] - 1}")
    chain = _read_chain(fit_dir, manifest["model"], k)
    return [list(chain.names), *(map(repr, row) for row in chain.matrix.tolist())]


def cmd_export(args) -> int:
    if args.figure == 1:
        rows = _export_figure1(args)
    elif not args.fit:
        raise ConfigError("--figure 2, --figure 3 and --chain require --fit")
    elif args.chain is not None:
        rows = _export_chain(Path(args.fit), args.chain)
    else:
        rows = (_export_figure2 if args.figure == 2 else _export_figure3)(Path(args.fit))
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_sbc(args) -> int:
    skip = ("obs_variance",) if args.skip_variance_update else ()
    chain = ChainConfig(
        iterations=args.iters,
        burnin=args.burnin,
        thin=1,
        chains=args.chains,
        skip_updates=skip,
    )
    config = SBCConfig(n_countries=args.countries, horizon=args.years, chain=chain)
    out_dir = Path(args.out)
    _check_out_dir(out_dir)
    result = sbc_run("total", config, args.replicates, args.seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "ranks.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["parameter", "replicate", "rank"])
        for name, ranks in result.ranks.items():
            for rep, rank in zip(result.kept, ranks):
                writer.writerow([name, int(rep), int(rank)])
    _write_json(
        out_dir / "summary.json",
        {
            # NaN (every replicate excluded) is written as null: strict JSON
            "pvalues": {p: None if math.isnan(v) else v for p, v in result.pvalues.items()},
            "replicates": result.replicates,
            "excluded": result.excluded,
            "rank_max": result.rank_max,
            "failed": result.failed,
        },
    )
    for name, p in result.pvalues.items():
        print(f"{name}: p = {p:.4f}")
    if result.failed:
        raise DegenerateDataError(
            f"{result.excluded}/{result.replicates} replicates excluded by the R-hat gate"
        )
    return EXIT_OK


def cmd_summarize(args) -> int:
    manifest, chains = _read_fit_dir(Path(args.fit))
    table, _, report = _report(manifest["model"], chains)
    print(table)
    if report is not None:
        print()
        print(f"{'parameter':<12}{'split_rhat':>12}{'ess':>10}")
        for name, entry in report.items():
            print(f"{name:<12}{entry.rhat:>12.4f}{entry.ess:>10.1f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="landmix",
        description="Bayesian longitudinal mixed models for landings panels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a model and write draws + summaries")
    fit.add_argument("--model", choices=list(MODELS))
    fit.add_argument("--data")
    fit.add_argument("--chains", type=int)
    fit.add_argument("--iters", dest="iterations", type=int)
    fit.add_argument("--burnin", type=int)
    fit.add_argument("--thin", type=int)
    fit.add_argument("--seed", type=int)
    fit.add_argument("--config", help="key=value config file (flags win)")
    fit.add_argument("--from-manifest", help="rerun a previous fit from its manifest")
    fit.add_argument("--parallel", type=int, default=1)
    fit.add_argument("--out", required=True)
    fit.set_defaults(func=cmd_fit)

    sim = sub.add_parser("simulate", help="simulate a synthetic landings panel")
    sim.add_argument("--model", choices=list(MODELS), required=True)
    sim.add_argument("--countries", type=int, default=12)
    sim.add_argument("--years", type=int, default=45)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--truth", help="JSON file of true parameter values")
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=cmd_simulate)

    exp = sub.add_parser("export", help="export figure data or one chain's draws as CSV")
    what = exp.add_mutually_exclusive_group(required=True)
    what.add_argument("--figure", type=int, choices=[1, 2, 3])
    what.add_argument("--chain", type=int, help="a chain's draws, as CSV")
    exp.add_argument("--data", help="landings CSV (figure 1)")
    exp.add_argument("--fit", help="fit output directory (figures 2-3, --chain)")
    exp.add_argument("--out", required=True)
    exp.set_defaults(func=cmd_export)

    sbc = sub.add_parser("sbc", help="simulation-based calibration of the sampler")
    sbc.add_argument("--replicates", type=int, default=200)
    sbc.add_argument("--countries", type=int, default=4)
    sbc.add_argument("--years", type=int, default=10)
    sbc.add_argument("--iters", type=int, default=2500)
    sbc.add_argument("--burnin", type=int, default=1000)
    sbc.add_argument("--chains", type=int, default=2)
    sbc.add_argument("--seed", type=int, default=0)
    sbc.add_argument("--skip-variance-update", action="store_true")
    sbc.add_argument("--out", required=True)
    sbc.set_defaults(func=cmd_sbc)

    summ = sub.add_parser("summarize", help="re-render summaries from a fit directory")
    summ.add_argument("--fit", required=True)
    summ.set_defaults(func=cmd_summarize)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (LandmixError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
