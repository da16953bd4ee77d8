"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line on the terminal (bypassing
capture) in addition to its assertions, so a full run gives a one-line
verdict per criterion.
"""

import csv
import json
import math
import time

import numpy as np
import pytest

from landmix.cli import main as cli_main
from landmix.data import simulate_dataset
from landmix.diagnostics import compute_convergence, pool_chains, summarize
from landmix.model import (
    JOINT_PARAM_NAMES,
    JointParams,
    ModelState,
    PriorSpec,
    TOTAL_PARAM_NAMES,
    TotalEffects,
    TotalParams,
)
from landmix.oracle import (
    GridSpec,
    SBCConfig,
    conjugate_posterior_beta0,
    grid_log_posterior,
    sbc_run,
)
from landmix.sampler import ChainConfig, run_chain, run_chains

from conftest import make_total_dataset, total_state

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


def verdict(capsys, number: int, label: str, ok: bool) -> None:
    with capsys.disabled():
        print(f"\nacceptance {number} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({label}) failed"


def test_criterion_1_conjugate_oracle(capsys):
    start = time.time()
    data = make_total_dataset(
        [(0, 0, 9.1), (0, 1, 9.6), (1, 0, 7.2), (1, 2, 7.9)], 2
    )
    init = total_state(0.0, 0.7, 1.5, 0.1, [0.4, -0.6], [0.03, -0.01])
    mean, sd = conjugate_posterior_beta0(data, init.effects, sigma=0.7)

    n = 10000
    cfg = ChainConfig(
        iterations=n,
        burnin=0,
        thin=1,
        chains=1,
        seed=77,
        skip_updates=("random_effects", "obs_variance", "re_sds"),
    )
    draws = run_chain("total", data, cfg, init_state=init).draws["beta0"]
    se_mean = sd / math.sqrt(n)
    se_sd = sd / math.sqrt(2 * n)
    ok = (
        abs(float(np.mean(draws)) - mean) <= 3 * se_mean
        and abs(float(np.std(draws, ddof=1)) - sd) <= 3 * se_sd
        and time.time() - start < 10
    )
    verdict(capsys, 1, "conjugate oracle equivalence", ok)


def test_criterion_2_grid_oracle(capsys):
    start = time.time()
    priors = PriorSpec(intercept_sd=1.0, sd_bound=1.5)
    data = make_total_dataset([(0, 0, 2.6), (0, 1, 4.2), (1, 0, -1.4)], 2, horizon=3)
    fixed = total_state(0.0, 1.0, 1.0, 0.05, [0.0, 0.0], [0.0, 0.0])
    # sd axes start slightly above zero: posterior mass below the cut is
    # negligible here, and it keeps the sigma0 -> 0 density spike (which a
    # lattice containing b0 = 0 would overweight) out of the quadrature
    spec = GridSpec(
        {
            "beta0": (-3.0, 4.0, 24),
            "sigma": (0.2, 1.5, 20),
            "sigma0": (0.15, 1.5, 24),
            "b0[0]": (-5.0, 5.0, 28),
            "b0[1]": (-5.0, 5.0, 28),
        }
    )
    grid = grid_log_posterior("total", data, spec, fixed, priors)

    cfg = ChainConfig(
        iterations=120000,
        burnin=20000,
        thin=1,
        chains=2,
        seed=9,
        priors=priors,
        skip_updates=("re_slopes", "re_sd1"),
    )
    chains = run_chains("total", data, cfg, parallel=2, init_state=fixed)
    pooled = pool_chains(chains)
    ok = time.time() - start < 120
    for name in ("beta0", "sigma", "sigma0"):
        sampler_mean = float(np.mean(pooled[name]))
        grid_mean = grid.mean(name)
        ok = ok and abs(sampler_mean - grid_mean) <= 0.02 * abs(grid_mean)
    verdict(capsys, 2, "grid oracle equivalence", ok)


@pytest.fixture(scope="module")
def total_recovery_fits():
    fits = []
    cfg = ChainConfig(iterations=4000, burnin=1500, thin=1, chains=2, seed=0)
    for rep in range(20):
        data, _ = simulate_dataset("total", REFERENCE_TOTAL_TRUTH, 12, 45, seed=rep)
        from dataclasses import replace

        chains = run_chains("total", data, replace(cfg, seed=1000 + rep), parallel=2)
        fits.append(summarize(pool_chains(chains)))
    return fits


def test_criterion_3_total_recovery(capsys, total_recovery_fits):
    truth = {"beta0": 8.098, "sigma": 0.541, "sigma1": 0.054}
    covered = {name: 0 for name in truth}
    sigma_close = True
    for summary in total_recovery_fits:
        for name, value in truth.items():
            if summary[name].q025 <= value <= summary[name].q975:
                covered[name] += 1
        sigma_close = sigma_close and abs(summary["sigma"].mean - 0.541) < 0.05
    ok = sigma_close and all(v >= 18 for v in covered.values())
    verdict(capsys, 3, "total-model recovery at realistic scale", ok)


@pytest.fixture(scope="module")
def joint_recovery_fits():
    fits = []
    cfg = ChainConfig(iterations=2500, burnin=1000, thin=1, chains=1, seed=0)
    for rep in range(20):
        data, _ = simulate_dataset("joint", REFERENCE_JOINT_TRUTH, 30, 45, seed=500 + rep)
        from dataclasses import replace

        draws = run_chain("joint", data, replace(cfg, seed=2000 + rep))
        fits.append(summarize(draws.draws))
    return fits


def test_criterion_4_joint_correlation_recovery(capsys, joint_recovery_fits):
    hits = 0
    for summary in joint_recovery_fits:
        s = summary["rho1"]
        if abs(s.mean - 0.900) <= 0.15 and s.q025 > 0:
            hits += 1
    verdict(capsys, 4, "joint-model correlation recovery", hits >= 18)


def test_criterion_5_convergence_health(capsys):
    ok = True
    data_t, _ = simulate_dataset("total", REFERENCE_TOTAL_TRUTH, 12, 45, seed=321)
    cfg_t = ChainConfig(iterations=20000, burnin=10000, thin=5, chains=4, seed=11)
    conv = compute_convergence(
        run_chains("total", data_t, cfg_t, parallel=4), TOTAL_PARAM_NAMES
    )
    ok = ok and all(e.rhat < 1.01 and e.ess > 400 for e in conv.values())

    data_j, _ = simulate_dataset("joint", REFERENCE_JOINT_TRUTH, 30, 45, seed=321)
    cfg_j = ChainConfig(iterations=12000, burnin=4000, thin=2, chains=4, seed=12)
    conv_j = compute_convergence(
        run_chains("joint", data_j, cfg_j, parallel=4), JOINT_PARAM_NAMES
    )
    ok = ok and all(e.rhat < 1.01 and e.ess > 400 for e in conv_j.values())
    verdict(capsys, 5, "convergence health", ok)


def test_criterion_6_simulation_based_calibration(capsys):
    chain = ChainConfig(iterations=2500, burnin=1000, thin=1, chains=2, seed=0)
    cfg = SBCConfig(n_countries=4, horizon=10, chain=chain)
    res = sbc_run("total", cfg, replicates=200, seed=2026)
    ok = not res.failed and all(res.pvalues[p] > 0.01 for p in res.pvalues)

    broken_chain = ChainConfig(
        iterations=2500, burnin=1000, thin=1, chains=2, seed=0,
        skip_updates=("obs_variance",),
    )
    broken = sbc_run(
        "total", SBCConfig(n_countries=4, horizon=10, chain=broken_chain),
        replicates=200, seed=2026,
    )
    ok = ok and broken.pvalues["sigma"] < 0.01
    verdict(capsys, 6, "simulation-based calibration", ok)


def test_criterion_7_manifest_determinism(capsys, tmp_path):
    sim = tmp_path / "sim"
    assert cli_main(["simulate", "--model", "total", "--countries", "6",
                     "--years", "12", "--seed", "6", "--out", str(sim)]) == 0
    fit = tmp_path / "fit"
    assert cli_main(["fit", "--model", "total", "--data", str(sim / "data.csv"),
                     "--chains", "2", "--iters", "1200", "--burnin", "400",
                     "--thin", "2", "--seed", "8", "--out", str(fit)]) == 0
    rerun = tmp_path / "rerun"
    assert cli_main(["fit", "--from-manifest", str(fit / "manifest.json"),
                     "--out", str(rerun)]) == 0
    ok = all(
        (rerun / f"draws_chain{k}.npz").read_bytes()
        == (fit / f"draws_chain{k}.npz").read_bytes()
        for k in range(2)
    )
    verdict(capsys, 7, "manifest rerun byte-identical", ok)


def test_criterion_8_exports_and_tables(capsys, tmp_path):
    ok = True
    # total fit: figure 2 has C countries x 2 effects; summary rows in the standard order
    sim = tmp_path / "sim"
    cli_main(["simulate", "--model", "total", "--countries", "5", "--years", "10",
              "--seed", "3", "--out", str(sim)])
    fit = tmp_path / "fit_total"
    cli_main(["fit", "--model", "total", "--data", str(sim / "data.csv"),
              "--chains", "2", "--iters", "800", "--burnin", "300", "--thin", "1",
              "--out", str(fit)])
    with open(fit / "summary.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    ok = ok and [r[0] for r in rows[1:]] == list(TOTAL_PARAM_NAMES)
    fig2 = tmp_path / "fig2.csv"
    cli_main(["export", "--figure", "2", "--fit", str(fit), "--out", str(fig2)])
    with open(fig2, newline="") as fh:
        rows = list(csv.reader(fh))
    ok = ok and len(rows) == 1 + 5 * 2
    ok = ok and rows[0] == ["country", "effect", "q0.025", "mean", "q0.975"]

    # joint fit with one single-sector country: figure 3 lists only dual-sector
    data = tmp_path / "mix.csv"
    lines = ["country,year,sector,tonnes"]
    for year in range(1970, 1982):
        lines.append(f"Dual1,{year},industrial,{120 + year - 1970}")
        lines.append(f"Dual1,{year},artisanal,{60 + year - 1970}")
        lines.append(f"Dual2,{year},industrial,{150 + year - 1970}")
        lines.append(f"Dual2,{year},artisanal,{90 + year - 1970}")
        lines.append(f"Solo,{year},industrial,{70 + year - 1970}")
    data.write_text("\n".join(lines) + "\n")
    fit_j = tmp_path / "fit_joint"
    cli_main(["fit", "--model", "joint", "--data", str(data), "--chains", "1",
              "--iters", "500", "--burnin", "200", "--thin", "1",
              "--out", str(fit_j)])
    with open(fit_j / "summary.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    ok = ok and [r[0] for r in rows[1:]] == list(JOINT_PARAM_NAMES)
    fig3 = tmp_path / "fig3.csv"
    cli_main(["export", "--figure", "3", "--fit", str(fit_j), "--out", str(fig3)])
    with open(fig3, newline="") as fh:
        rows = list(csv.reader(fh))
    ok = ok and {r[0] for r in rows[1:]} == {"Dual1", "Dual2"}
    verdict(capsys, 8, "figure/table export contracts", ok)
