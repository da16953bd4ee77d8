"""Independent reference computations used to validate the sampler.

Three routes: exact conjugate posteriors, brute-force grid quadrature of
the unnormalized posterior of either model over a few free axes, and a
simulation-based calibration (SBC) harness that exercises the full
prior-to-posterior pipeline.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace

import numpy as np

from .data import simulate_dataset
from .diagnostics import _tau_and_ess, split_rhat
from .errors import ConfigError, DegenerateDataError
from .model import (
    TOTAL_PARAM_NAMES,
    Dataset,
    ModelState,
    PriorSpec,
    TotalEffects,
    TotalParams,
    effects_to_dict,
    log_density,
    model_spec,
    model_streams,
    params_from_dict,
    params_to_dict,
)
from .sampler import ChainConfig, run_chains

GRID_GUARD = 10_000_000

_EFFECT_AXIS = re.compile(r"(b[01](?:_[IA])?)\[(\d+)\]")


def conjugate_posterior_beta0(
    data: Dataset,
    effects: TotalEffects,
    sigma: float,
    priors: PriorSpec = PriorSpec(),
) -> tuple[float, float]:
    """Exact normal posterior (mean, sd) of the fixed intercept with all
    variance components and random effects held fixed."""
    model_streams("total", data)  # its sector check; the rows are read raw below
    c, t, y = data.country, data.t, data.y
    resid = y - effects.b0[c] - effects.b1[c] * t
    prec = 1.0 / priors.intercept_sd**2 + len(y) / sigma**2
    mean = float(np.sum(resid)) / sigma**2 / prec
    return mean, math.sqrt(1.0 / prec)


@dataclass(frozen=True)
class GridSpec:
    """Per-parameter (lower, upper, points) lattice description."""

    axes: dict[str, tuple[float, float, int]]

    def __post_init__(self) -> None:
        if not self.axes:
            raise ConfigError("grid needs at least one axis")
        for name, (lo, hi, n) in self.axes.items():
            if not (lo < hi) or n < 2:
                raise ConfigError(f"bad axis {name!r}: ({lo}, {hi}, {n})")
        if self.size > GRID_GUARD:
            raise ConfigError(f"grid size {self.size} exceeds guard {GRID_GUARD}")

    @property
    def size(self) -> int:
        return math.prod(n for _, _, n in self.axes.values())


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

    Free axes may be any parameter of the model (``TOTAL_PARAM_NAMES`` or
    ``JOINT_PARAM_NAMES``) and per-country effects such as ``b0[i]`` or
    ``b1_A[i]``; everything else is fixed at the values in ``fixed``.  Sd
    and correlation axes take cell midpoints, which keeps them strictly
    inside their prior's support; every other axis includes both ends.
    """
    model = model_spec(model_kind)
    if not isinstance(fixed.params, model.params):
        raise ConfigError(f"fixed state must carry {model_kind}-model parameters")
    params = params_to_dict(fixed.params)
    effects = {tag: list(column) for tag, column in effects_to_dict(fixed.effects).items()}
    names = list(spec.axes)
    axis_vals: dict[str, np.ndarray] = {}
    for k, name in enumerate(names):
        lo, hi, n = spec.axes[name]
        effect = _EFFECT_AXIS.fullmatch(name)
        if effect and effect[1] in effects and int(effect[2]) < data.n_countries:
            column, key = effects[effect[1]], int(effect[2])
            vals = np.linspace(lo, hi, n)
        elif name in params:
            column, key = params, name
            support = priors.support(name)
            if support is None:
                vals = np.linspace(lo, hi, n)
            elif support[0] <= lo and hi <= support[1]:
                vals = lo + (hi - lo) / n * (np.arange(n) + 0.5)
            else:
                raise ConfigError(f"axis {name!r} bounds outside prior support")
        else:
            raise ConfigError(
                f"no {model_kind}-model axis {name!r} on {data.n_countries} countries"
            )
        axis_vals[name] = vals
        column[key] = vals.reshape([n if j == k else 1 for j in range(len(names))])

    state = ModelState(params_from_dict(model_kind, params), model.effects(*effects.values()))
    w = log_density(state, data, priors).posterior
    lmax = float(np.max(w))
    if not math.isfinite(lmax):
        raise ConfigError(f"log posterior is {lmax} everywhere on the lattice")
    w -= lmax
    np.exp(w, out=w)
    z = float(np.sum(w))
    w /= z
    marginals = {
        name: np.sum(w, axis=tuple(j for j in range(len(names)) if j != k))
        for k, name in enumerate(names)
    }
    return GridResult(axis_vals, marginals, lmax + math.log(z))


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
    kept: np.ndarray  # the replicate index r of each rank, as in its SeedSequence spawn_key
    pvalues: dict[str, float]
    replicates: int
    excluded: int
    rank_max: int
    failed: bool


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


def _uniform_pvalue(counts: np.ndarray) -> float:
    """``scipy.stats.chisquare(counts).pvalue``, or NaN when every bin is empty."""
    from scipy.special import chdtrc  # only here: it loads scipy
    e = counts.mean()
    return float(chdtrc(len(counts) - 1, ((counts - e) ** 2 / e).sum())) if e else math.nan


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
    if seed < 0:
        raise ConfigError(f"SBC seed must be non-negative, got {seed}")
    if config.n_countries < 2:
        raise ConfigError(f"SBC needs at least 2 countries, got {config.n_countries}")
    if config.chain.chains < 2:
        raise ConfigError(f"SBC's R-hat gate needs at least 2 chains, got {config.chain.chains}")
    pooled_draws = config.chain.chains * config.chain.n_retained
    if pooled_draws < config.rank_draws:
        raise ConfigError(
            f"SBC ranks each truth among {config.rank_draws} draws, but the chains "
            f"retain only {pooled_draws} in all"
        )
    priors = config.chain.priors
    ranks: dict[str, list[int]] = {p: [] for p in TOTAL_PARAM_NAMES}
    kept: list[int] = []
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
            _safe_rhat([ch.draws[p] for ch in chains]) for p in TOTAL_PARAM_NAMES
        )
        if worst > config.rhat_gate:
            excluded += 1
            continue
        kept.append(r)
        for p, value in params_to_dict(truth).items():
            pooled = np.concatenate([ch.draws[p] for ch in chains])
            sel = _thin_to(pooled, config.rank_draws)
            ranks[p].append(int(np.sum(sel < value)))

    per_bin = (config.rank_draws + 1) // config.rank_bins
    rank_arrays = {p: np.asarray(v, dtype=int) for p, v in ranks.items()}
    pvalues = {
        p: _uniform_pvalue(np.bincount(arr // per_bin, minlength=config.rank_bins))
        for p, arr in rank_arrays.items()
    }
    failed = excluded > config.max_exclude_frac * replicates
    return SBCResult(
        rank_arrays,
        np.asarray(kept, dtype=int),
        pvalues,
        replicates,
        excluded,
        config.rank_draws,
        failed,
    )
