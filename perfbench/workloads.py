"""Workloads of the landmix benchmark: inputs, timed cycles and output checks.

Every workload is a loop of cycles.  A fit cycle is ``landmix fit`` followed
by ``landmix summarize`` on a panel simulated for that cycle; an SBC cycle is
one ``sbc_run`` followed by its negative control.  Cycle ``k`` of a run with
workload seed ``s`` draws its panel and its chain (or SBC) seed from
``(s, k)``, so the same seed gives the same inputs and the same outputs, and
one run pools many panels and chain seeds.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import shutil
import statistics
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

import landmix.cli as cli
import landmix.oracle as oracle
from landmix.data import simulate_dataset, write_landings
from landmix.diagnostics import compute_convergence
from landmix.model import JOINT_PARAM_NAMES, TOTAL_PARAM_NAMES, JointParams, PriorSpec, TotalParams
from landmix.oracle import SBCConfig
from landmix.sampler import ChainConfig

# The reference truths of the acceptance suite (tests/test_acceptance.py).
REFERENCE_TOTAL_TRUTH = TotalParams(beta0=8.098, sigma=0.541, sigma0=4.234, sigma1=0.054)
REFERENCE_JOINT_TRUTH = JointParams(
    beta0_ind=8.731,
    beta0_art=5.651,
    sigma=0.565,
    sigma0_ind=2.648,
    sigma0_art=3.823,
    sigma1_ind=0.051,
    sigma1_art=0.052,
    rho0=0.673,
    rho1=0.900,
)
PARAM_NAMES = {"total": TOTAL_PARAM_NAMES, "joint": JOINT_PARAM_NAMES}
TRUTH = {"total": REFERENCE_TOTAL_TRUTH, "joint": REFERENCE_JOINT_TRUTH}

# Tolerances of acceptance criteria 3, 4 and 6.
SIGMA_TOL = 0.05
RHO1_TOL = 0.15
SBC_P = 0.01


def derive_seed(seed: int, k: int, stream: int = 0) -> int:
    return int(np.random.SeedSequence([seed, k, stream]).generate_state(1)[0])


# -- the run_chains boundary ---------------------------------------------------


@dataclass
class ChainCall:
    seconds: float
    config: ChainConfig
    chains: list

    @property
    def sweeps(self) -> int:
        return self.config.chains * self.config.iterations

    @property
    def retained(self) -> int:
        return sum(ch.n_draws for ch in self.chains)


class ChainTimer:
    """Times every ``run_chains`` call made by ``landmix.cli`` and
    ``landmix.oracle`` and keeps its chains.  This is the one hook present in
    untraced runs: two clock reads per fit, which give the sampling seconds
    behind ``sweeps_per_s`` and ``sampler.min_ess_per_s``."""

    def __init__(self) -> None:
        self.calls: list[ChainCall] = []
        self._originals = [(m, m.run_chains) for m in (cli, oracle)]
        for module, fn in self._originals:
            module.run_chains = self._wrap(fn)

    def _wrap(self, fn):
        @functools.wraps(fn)
        def run_chains(model_kind, data, config, *args, **kwargs):
            start = perf_counter()
            chains = fn(model_kind, data, config, *args, **kwargs)
            self.calls.append(ChainCall(perf_counter() - start, config, chains))
            return chains

        return run_chains

    def take(self) -> list[ChainCall]:
        calls, self.calls = self.calls, []
        return calls

    def close(self) -> None:
        for module, fn in self._originals:
            module.run_chains = fn


class SamplingPool:
    """Sampling rates, and optionally ESS, over many ``run_chains`` calls.

    Rates are medians over calls, like every time in the benchmark.  ESS per
    sweep is pooled (summed ESS over summed sweeps), which is steadier than
    any one call's estimate."""

    def __init__(self, names, with_ess: bool) -> None:
        self.names = tuple(names)
        self.with_ess = with_ess
        self.rates: list[float] = []
        self.ess_rates: list[float] = []
        self.ess = dict.fromkeys(self.names, 0.0)
        self.ess_sweeps = 0

    def add(self, call: ChainCall) -> None:
        rate = call.sweeps / call.seconds
        self.rates.append(rate)
        if self.with_ess and not call.config.skip_updates:  # the SBC control has no valid ESS
            conv = compute_convergence(call.chains, self.names)
            for name in self.names:
                self.ess[name] += conv[name].ess
            self.ess_sweeps += call.sweeps
            self.ess_rates.append(rate)

    def sweeps_per_s(self) -> float:
        return statistics.median(self.rates) if self.rates else 0.0

    def min_ess_per_s(self) -> float:
        if not self.ess_sweeps:
            return 0.0
        return min(self.ess.values()) / self.ess_sweeps * statistics.median(self.ess_rates)


# -- checks ----------------------------------------------------------------------


@dataclass
class Outcome:
    """The checks of one cycle.

    ``hard`` lists violated invariants (the run is then incorrect) and
    ``failed`` counts the operations behind them.  ``checks``/``misses``
    count statistical tolerances, which a correct sampler misses at a known
    small rate."""

    attempted: int
    failed: int = 0
    hard: list[str] = field(default_factory=list)
    checks: int = 0
    misses: list[str] = field(default_factory=list)


def check_draws(call: ChainCall, names, out: Outcome) -> None:
    """Retained draws: the configured count, finite, inside the prior support."""
    bound = PriorSpec().sd_bound
    for ch in call.chains:
        if ch.n_draws != call.config.n_retained:
            out.hard.append(f"chain {ch.chain_index}: {ch.n_draws} draws, "
                            f"expected {call.config.n_retained}")
        for name, x in ch.draws.items():
            if not np.all(np.isfinite(x)):
                out.hard.append(f"chain {ch.chain_index}: non-finite draws of {name}")
        for name in names:
            x = ch.draws[name]
            if name.startswith("sigma") and not np.all((x > 0) & (x < bound)):
                out.hard.append(f"chain {ch.chain_index}: {name} outside (0, {bound})")
            if name.startswith("rho") and not np.all(np.abs(x) < 1):
                out.hard.append(f"chain {ch.chain_index}: {name} outside (-1, 1)")


@dataclass
class Cycle:
    wall_s: float
    fit_s: list[float]  # one entry per fit: the fit command, or one SBC refit
    calls: list[ChainCall]
    outcome: Outcome
    counts: dict


# -- fit workloads -----------------------------------------------------------------


@dataclass(frozen=True)
class FitWorkload:
    name: str
    model: str
    countries: int
    years: int
    iters: int
    burnin: int
    chains: int = 2

    def smoke(self) -> "FitWorkload":
        return replace(self, iters=200, burnin=100)

    def prepare(self, seed: int, k: int, workdir: Path) -> Path:
        data, _ = simulate_dataset(self.model, TRUTH[self.model], self.countries, self.years,
                                   seed=derive_seed(seed, k))
        path = workdir / f"data{k}.csv"
        write_landings(data, path)
        return path

    def probe_args(self, seed: int, csv_path: Path) -> list[str]:
        return [self.model, str(csv_path)]

    def cycle(self, seed: int, k: int, csv_path: Path, out_dir: Path,
              timer: ChainTimer, span=contextlib.nullcontext) -> Cycle:
        """``landmix fit`` then ``landmix summarize``, in this process."""
        args = [
            "fit", "--model", self.model, "--data", str(csv_path),
            "--chains", str(self.chains), "--iters", str(self.iters),
            "--burnin", str(self.burnin), "--thin", "1",
            "--seed", str(derive_seed(seed, k, 1)), "--parallel", "1", "--out", str(out_dir),
        ]
        fit_out, summarize_out = io.StringIO(), io.StringIO()
        with span():
            start = perf_counter()
            with contextlib.redirect_stdout(fit_out):
                rc_fit = cli.main(args)
            mid = perf_counter()
            with contextlib.redirect_stdout(summarize_out):
                rc_summarize = cli.main(["summarize", "--fit", str(out_dir)])
            end = perf_counter()
        calls = timer.take()
        outcome = self.check(out_dir, calls, rc_fit, rc_summarize,
                             fit_out.getvalue(), summarize_out.getvalue())
        draws = sorted(out_dir.glob("draws_chain*"))
        digest = hashlib.sha256()
        for path in draws:
            digest.update(path.read_bytes())
        counts = {
            "data.rows": count_rows(csv_path),
            "cli.draw_bytes": sum(p.stat().st_size for p in draws),
            "cli.draws_sha256": digest.hexdigest(),
            "sampler.retained_draws": sum(c.retained for c in calls),
        }
        shutil.rmtree(out_dir, ignore_errors=True)
        return Cycle(end - start, [mid - start], calls, outcome, counts)

    def check(self, out_dir, calls, rc_fit, rc_summarize, fit_stdout, summarize_stdout):
        out = Outcome(attempted=1)
        if rc_fit != 0 or rc_summarize != 0:
            out.hard.append(f"exit codes fit={rc_fit} summarize={rc_summarize}")
            out.failed = 1
            return out
        names = PARAM_NAMES[self.model]
        if len(calls) != 1:
            out.hard.append(f"{len(calls)} run_chains calls in one fit")
        for call in calls:
            check_draws(call, names, out)
        with open(out_dir / "summary.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if [r[0] for r in rows[1:]] != list(names):
            out.hard.append("summary.csv rows are not in parameter-table order")
        # summarize re-reads the draw files: its table must equal the fit's
        if not summarize_stdout.startswith(fit_stdout.rstrip("\n")):
            out.hard.append("the summarize table differs from the fit table")
        if out.hard:
            out.failed = 1
            return out
        stats = {r[0]: (float(r[1]), float(r[3])) for r in rows[1:]}
        truth = TRUTH[self.model]
        out.checks = 1
        if abs(stats["sigma"][0] - truth.sigma) >= SIGMA_TOL:
            out.misses.append(f"sigma mean {stats['sigma'][0]:.4f}, truth {truth.sigma}")
        if self.model == "joint":
            mean, q025 = stats["rho1"]
            if abs(mean - truth.rho1) > RHO1_TOL or q025 <= 0:
                out.misses.append(f"rho1 mean {mean:.4f}, q025 {q025:.4f}, truth {truth.rho1}")
        return out


def count_rows(csv_path: Path) -> int:
    with open(csv_path, newline="", encoding="utf-8") as fh:
        return sum(1 for row in csv.reader(fh) if row) - 1


# -- the SBC workload -------------------------------------------------------------


@dataclass(frozen=True)
class SbcWorkload:
    name: str
    countries: int
    years: int
    iters: int
    burnin: int
    replicates: int
    chains: int = 2
    model: str = "total"

    def smoke(self) -> "SbcWorkload":
        return replace(self, replicates=6)

    def prepare(self, seed: int, k: int, workdir: Path) -> None:
        return None  # sbc_run simulates its own panels

    def probe_args(self, seed: int, _inputs) -> list[str]:
        return ["sbc", str(self.countries), str(self.years), str(seed)]

    def configs(self) -> tuple[SBCConfig, SBCConfig]:
        """Acceptance criterion 6's settings, and its negative control."""
        chain = ChainConfig(iterations=self.iters, burnin=self.burnin, thin=1,
                            chains=self.chains, seed=0)
        control = replace(chain, skip_updates=("obs_variance",))
        return (SBCConfig(self.countries, self.years, chain),
                SBCConfig(self.countries, self.years, control))

    def cycle(self, seed: int, k: int, _inputs, _out_dir, timer: ChainTimer,
              span=contextlib.nullcontext) -> Cycle:
        calibrated_cfg, control_cfg = self.configs()
        sbc_seed = derive_seed(seed, k)
        with span():
            start = perf_counter()
            calibrated = oracle.sbc_run("total", calibrated_cfg, self.replicates, sbc_seed)
            control = oracle.sbc_run("total", control_cfg, self.replicates, sbc_seed)
            end = perf_counter()
        calls = timer.take()
        counts = {
            "data.rows": self.countries * self.years,
            "oracle.excluded": calibrated.excluded + control.excluded,
            "oracle.rank_sum": int(sum(int(r.sum()) for res in (calibrated, control)
                                       for r in res.ranks.values())),
            "sampler.retained_draws": sum(c.retained for c in calls),
        }
        return Cycle(end - start, [c.seconds for c in calls], calls,
                     self.check(calibrated, control, calls), counts)

    def check(self, calibrated, control, calls) -> Outcome:
        """The control must be caught.  Calibrated replicates excluded by the
        R-hat gate are failed operations; calibration is a tolerance."""
        out = Outcome(attempted=2 * self.replicates, failed=calibrated.excluded)
        if len(calls) != 2 * self.replicates:
            out.hard.append(f"{len(calls)} refits for {2 * self.replicates} replicates")
        for call in calls:
            if not call.config.skip_updates:
                check_draws(call, TOTAL_PARAM_NAMES, out)
        p = control.pvalues["sigma"]
        if not p < SBC_P:
            out.hard.append(f"negative control not detected: sigma p = {p:.3g}")
        out.checks = 1
        low = {k: round(v, 4) for k, v in calibrated.pvalues.items() if not v > SBC_P}
        if calibrated.failed or low:
            out.misses.append(f"calibrated SBC: failed={calibrated.failed}, "
                              f"excluded={calibrated.excluded}, p <= {SBC_P}: {low}")
        return out


WORKLOADS = {
    w.name: w
    for w in (
        FitWorkload("fit-total-200x45", "total", 200, 45, iters=1000, burnin=500),
        FitWorkload("fit-joint-30x45", "joint", 30, 45, iters=3000, burnin=1000),
        SbcWorkload("sbc-total-4x10", 4, 10, iters=2500, burnin=1000, replicates=10),
    )
}
