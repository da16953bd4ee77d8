"""Independent reference computations used to validate the sampler.

Three routes: exact conjugate posteriors, brute-force grid quadrature of
the unnormalized posterior on tiny total-model instances, and a
simulation-based calibration (SBC) harness that exercises the full
prior-to-posterior pipeline.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.stats import chisquare

from .data import simulate_dataset
from .diagnostics import _tau_and_ess, split_rhat
from .errors import ConfigError, DegenerateDataError
from .model import (
    LOG_2PI,
    Dataset,
    ModelState,
    PriorSpec,
    Sector,
    TotalEffects,
    TotalParams,
)
from .sampler import ChainConfig, run_chains

GRID_GUARD = 10_000_000

_EFFECT_AXIS = re.compile(r"^b([01])\[(\d+)\]$")


def conjugate_posterior_beta0(
    data: Dataset,
    effects: TotalEffects,
    sigma: float,
    priors: PriorSpec = PriorSpec(),
) -> tuple[float, float]:
    """Exact normal posterior (mean, sd) of the fixed intercept with all
    variance components and random effects held fixed."""
    c, t, y = data.arrays(Sector.TOTAL)
    resid = y - effects.b0[c] - effects.b1[c] * t
    prec = 1.0 / priors.intercept_sd**2 + len(y) / sigma**2
    mean = float(np.sum(resid)) / sigma**2 / prec
    return mean, math.sqrt(1.0 / prec)


@dataclass(frozen=True)
class GridSpec:
    """Per-parameter (lower, upper, points) lattice description."""

    axes: dict[str, tuple[float, float, int]]

    def __post_init__(self) -> None:
        total = 1
        for name, (lo, hi, n) in self.axes.items():
            if not (lo < hi) or n < 2:
                raise ConfigError(f"bad axis {name!r}: ({lo}, {hi}, {n})")
            total *= n
        if total > GRID_GUARD:
            raise ConfigError(f"grid size {total} exceeds guard {GRID_GUARD}")

    @property
    def size(self) -> int:
        out = 1
        for _, _, n in self.axes.values():
            out *= n
        return out


@dataclass
class GridResult:
    axes: dict[str, np.ndarray]
    marginals: dict[str, np.ndarray]
    log_norm: float

    def mean(self, name: str) -> float:
        return float(np.sum(self.axes[name] * self.marginals[name]))

    def quantile(self, name: str, p: float) -> float:
        cdf = np.cumsum(self.marginals[name])
        return float(np.interp(p, cdf, self.axes[name]))


def grid_log_posterior(
    model_kind: str,
    data: Dataset,
    spec: GridSpec,
    fixed: ModelState,
    priors: PriorSpec = PriorSpec(),
) -> GridResult:
    """Evaluate the unnormalized log posterior on the lattice, normalize by
    log-sum-exp, and return the marginal distribution of every free axis.

    Only the total model is supported; the joint model is validated by
    recovery tests instead.  Free axes may be any of beta0, sigma, sigma0,
    sigma1 and per-country effects ``b0[i]`` / ``b1[i]``; everything else
    is fixed at the values in ``fixed``.
    """
    if model_kind != "total":
        raise ConfigError("grid oracle supports the total model only")
    params = fixed.params
    if not isinstance(params, TotalParams):
        raise ConfigError("fixed state must carry total-model parameters")
    names = list(spec.axes)
    ndim = len(names)
    axis_vals: dict[str, np.ndarray] = {}
    grids: dict[str, np.ndarray] = {}
    for k, name in enumerate(names):
        lo, hi, n = spec.axes[name]
        if name in ("sigma", "sigma0", "sigma1") and not (0 <= lo and hi <= priors.sd_bound):
            raise ConfigError(f"axis {name!r} bounds outside prior support")
        if name in ("sigma", "sigma0", "sigma1"):
            # cell midpoints: keeps the axis strictly inside (0, bound)
            h = (hi - lo) / n
            vals = lo + h * (np.arange(n) + 0.5)
        else:
            vals = np.linspace(lo, hi, n)
        axis_vals[name] = vals
        shape = [1] * ndim
        shape[k] = n
        grids[name] = vals.reshape(shape)

    C = data.n_countries

    def value(name, default):
        return grids.get(name, default)

    beta0 = value("beta0", params.beta0)
    sigma = value("sigma", params.sigma)
    sigma0 = value("sigma0", params.sigma0)
    sigma1 = value("sigma1", params.sigma1)
    b0 = [value(f"b0[{i}]", float(fixed.effects.b0[i])) for i in range(C)]
    b1 = [value(f"b1[{i}]", float(fixed.effects.b1[i])) for i in range(C)]

    lp = np.zeros([spec.axes[n][2] for n in names])
    # prior
    lp = lp - 0.5 * LOG_2PI - math.log(priors.intercept_sd) - 0.5 * (beta0 / priors.intercept_sd) ** 2
    lp = lp - 3.0 * math.log(priors.sd_bound)
    # likelihood
    log_sigma = np.log(sigma)
    inv2s2 = 0.5 / (sigma * sigma)
    c, t, y = data.arrays(Sector.TOTAL)
    if y.size != data.n_obs:
        raise ConfigError("grid oracle expects total-sector observations")
    for ci, ti, yi in zip(c.tolist(), t.tolist(), y.tolist()):
        resid = yi - (beta0 + b0[ci] + b1[ci] * ti)
        lp = lp - 0.5 * LOG_2PI - log_sigma - resid * resid * inv2s2
    # random-effects density
    log_s0 = np.log(sigma0)
    log_s1 = np.log(sigma1)
    for i in range(C):
        lp = lp - 0.5 * LOG_2PI - log_s0 - 0.5 * (b0[i] / sigma0) ** 2
        lp = lp - 0.5 * LOG_2PI - log_s1 - 0.5 * (b1[i] / sigma1) ** 2

    lmax = float(np.max(lp))
    w = np.exp(lp - lmax)
    z = float(np.sum(w))
    w /= z
    log_norm = lmax + math.log(z)

    marginals = {}
    for k, name in enumerate(names):
        other = tuple(j for j in range(ndim) if j != k)
        marginals[name] = np.sum(w, axis=other) if other else w.copy()
    return GridResult(axis_vals, marginals, log_norm)


# -- simulation-based calibration ---------------------------------------------


@dataclass(frozen=True)
class SBCConfig:
    n_countries: int = 4
    horizon: int = 10
    chain: ChainConfig = field(
        default_factory=lambda: ChainConfig(
            iterations=2500, burnin=1000, thin=1, chains=2, seed=0
        )
    )
    rank_draws: int = 49
    rank_bins: int = 10
    rhat_gate: float = 1.05
    max_exclude_frac: float = 0.05

    def __post_init__(self) -> None:
        if (self.rank_draws + 1) % self.rank_bins != 0:
            raise ConfigError("rank_draws + 1 must be divisible by rank_bins")


@dataclass
class SBCResult:
    ranks: dict[str, np.ndarray]
    pvalues: dict[str, float]
    replicates: int
    excluded: int
    rank_max: int
    failed: bool


_SBC_PARAMS = ("beta0", "sigma", "sigma0", "sigma1")


def _safe_rhat(seqs) -> float:
    try:
        return split_rhat(seqs)
    except DegenerateDataError:
        return 1.0  # constant across chains: no evidence of non-convergence


def _thin_to(pooled: np.ndarray, k: int) -> np.ndarray:
    try:
        tau, _ = _tau_and_ess([pooled])
    except DegenerateDataError:
        tau = 1.0
    stride = max(1, int(math.ceil(tau)))
    thinned = pooled[::stride]
    if len(thinned) < k:
        thinned = pooled
    idx = np.linspace(0, len(thinned) - 1, k).round().astype(int)
    return thinned[idx]


def sbc_run(
    model_kind: str,
    config: SBCConfig,
    replicates: int,
    seed: int,
) -> SBCResult:
    """Prior-draw / simulate / refit / rank calibration loop.

    Per replicate: parameters are drawn from their priors, a panel is
    simulated, the sampler refits it, and the rank of each true value
    among ``rank_draws`` near-independent retained draws is recorded.
    Replicates whose worst split R-hat exceeds the gate are excluded; a
    run excluding more than ``max_exclude_frac`` is marked failed.
    """
    if model_kind != "total":
        raise ConfigError("SBC harness supports the total model only")
    if replicates < 1:
        raise ConfigError(f"SBC needs at least 1 replicate, got {replicates}")
    priors = config.chain.priors
    ranks: dict[str, list[int]] = {p: [] for p in _SBC_PARAMS}
    excluded = 0
    for r in range(replicates):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(r,)))
        truth = TotalParams(
            beta0=float(rng.normal(0.0, priors.intercept_sd)),
            sigma=float(rng.uniform(0.0, priors.sd_bound)),
            sigma0=float(rng.uniform(0.0, priors.sd_bound)),
            sigma1=float(rng.uniform(0.0, priors.sd_bound)),
        )
        data, _ = simulate_dataset(
            "total", truth, config.n_countries, config.horizon, seed=rng
        )
        chain_cfg = replace(config.chain, seed=int(rng.integers(2**62)))
        chains = run_chains("total", data, chain_cfg)
        worst = max(
            _safe_rhat([ch.draws[p] for ch in chains]) for p in _SBC_PARAMS
        )
        if worst > config.rhat_gate:
            excluded += 1
            continue
        truth_map = {
            "beta0": truth.beta0,
            "sigma": truth.sigma,
            "sigma0": truth.sigma0,
            "sigma1": truth.sigma1,
        }
        for p in _SBC_PARAMS:
            pooled = np.concatenate([ch.draws[p] for ch in chains])
            sel = _thin_to(pooled, config.rank_draws)
            ranks[p].append(int(np.sum(sel < truth_map[p])))

    pvalues = {}
    n_bins = config.rank_bins
    per_bin = (config.rank_draws + 1) // n_bins
    rank_arrays = {p: np.asarray(v, dtype=int) for p, v in ranks.items()}
    for p, arr in rank_arrays.items():
        counts = np.bincount(arr // per_bin, minlength=n_bins)
        pvalues[p] = float(chisquare(counts).pvalue) if arr.size else float("nan")
    failed = excluded > config.max_exclude_frac * replicates
    return SBCResult(
        rank_arrays,
        pvalues,
        replicates,
        excluded,
        config.rank_draws,
        failed,
    )
