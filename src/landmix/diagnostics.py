"""Posterior summaries and convergence checks (split R-hat, ESS)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DegenerateDataError
from .model import model_spec
from .sampler import ChainDraws

RHAT_FLAG = 1.01
ESS_FLAG = 400.0


@dataclass(frozen=True)
class ParamSummary:
    mean: float
    sd: float
    q025: float
    q975: float


@dataclass(frozen=True)
class ConvergenceEntry:
    rhat: float
    ess: float
    anticorrelated: bool = False

    @property
    def flagged(self) -> bool:
        return self.rhat > RHAT_FLAG or self.ess < ESS_FLAG


def pool_chains(chains: Sequence[ChainDraws]) -> dict[str, np.ndarray]:
    """Concatenate retained draws across chains, preserving parameter order."""
    if not chains:
        raise DegenerateDataError("no chains to pool")
    names = chains[0].names
    for ch in chains[1:]:
        if ch.names != names:
            raise DegenerateDataError("chains disagree on parameter names")
    matrix = np.concatenate([ch.matrix for ch in chains])
    return {name: matrix[:, k] for k, name in enumerate(names)}


def summarize(draws: Mapping[str, np.ndarray]) -> dict[str, ParamSummary]:
    """Mean, sd (n-1 denominator) and 0.025/0.975 quantiles per parameter.

    Quantiles use linear interpolation of order statistics (the p-quantile
    sits at position 1 + (n-1)p).
    """
    out = {}
    for name, x in draws.items():
        x = np.asarray(x, dtype=float)
        if x.size < 2:
            raise DegenerateDataError(f"need at least 2 draws to summarize {name!r}")
        qlo, qhi = np.quantile(x, [0.025, 0.975])
        out[name] = ParamSummary(
            float(np.mean(x)), float(np.std(x, ddof=1)), float(qlo), float(qhi)
        )
    return out


def _split_halves(chains: Sequence[np.ndarray]) -> list[np.ndarray]:
    halves = []
    for x in chains:
        x = np.asarray(x, dtype=float)
        half = len(x) // 2
        halves.append(x[:half])
        halves.append(x[len(x) - half :])
    return halves


def split_rhat(chains: Sequence[np.ndarray]) -> float:
    """Potential scale reduction factor over half-chains."""
    if len(chains) < 2:
        raise DegenerateDataError("split R-hat needs at least 2 chains")
    if any(len(c) < 4 for c in chains):
        raise DegenerateDataError("split R-hat needs chains of length >= 4")
    halves = _split_halves(chains)
    n = min(len(h) for h in halves)
    halves = [h[:n] for h in halves]
    within = np.array([np.var(h, ddof=1) for h in halves])
    w = float(np.mean(within))
    if w == 0.0:
        raise DegenerateDataError("zero within-chain variance: R-hat undefined")
    means = np.array([np.mean(h) for h in halves])
    b = n * float(np.var(means, ddof=1))
    var_plus = (n - 1) / n * w + b / n
    return math.sqrt(var_plus / w)


def _autocovariance(x: np.ndarray) -> np.ndarray:
    """Biased (1/n) autocovariance function via FFT."""
    n = len(x)
    xd = x - np.mean(x)
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(xd, size)
    acov = np.fft.irfft(f * np.conjugate(f), size)[:n].real
    return acov / n


def _tau_and_ess(chains: Sequence[np.ndarray]) -> tuple[float, float]:
    """Integrated autocorrelation time and ESS via Geyer's initial
    monotone positive sequence, combined across chains."""
    arrs = [np.asarray(c, dtype=float) for c in chains]
    n = min(len(a) for a in arrs)
    arrs = [a[:n] for a in arrs]
    m = len(arrs)
    w = float(np.mean([np.var(a, ddof=1) for a in arrs]))
    if w == 0.0:
        raise DegenerateDataError("zero within-chain variance: ESS undefined")
    mean_acov = np.mean([_autocovariance(a) for a in arrs], axis=0)
    if m > 1:
        means = np.array([np.mean(a) for a in arrs])
        b_over_n = float(np.var(means, ddof=1))
    else:
        b_over_n = 0.0
    var_plus = (n - 1) / n * w + b_over_n
    rho = 1.0 - (w - mean_acov) / var_plus
    rho[0] = 1.0

    # Geyer pair sums: truncate at the first negative pair, then enforce
    # monotone nonincreasing pairs.
    tau = 0.0
    prev_pair = math.inf
    k = 0
    while 2 * k + 1 < n:
        pair = rho[2 * k] + rho[2 * k + 1]
        if pair < 0:
            break
        pair = min(pair, prev_pair)
        tau += 2.0 * pair
        prev_pair = pair
        k += 1
    tau = max(float(tau) - 1.0, 1e-12)
    return tau, m * n / tau


def _capped_ess(chains: Sequence[np.ndarray]) -> tuple[float, bool]:
    """(ESS, anti-correlated): the raw ESS, capped at the total retained draw
    count unless anti-correlation (tau < 1) is detected."""
    tau, raw = _tau_and_ess(chains)
    if tau < 1.0:
        return raw, True
    return min(raw, float(sum(len(c) for c in chains))), False


def ess(chains: Sequence[np.ndarray]) -> float:
    """Effective sample size, by the rule of ``_capped_ess``."""
    return _capped_ess(chains)[0]


def compute_convergence(
    chains: Sequence[ChainDraws], names: Sequence[str] | None = None
) -> dict[str, ConvergenceEntry]:
    if names is None:
        names = chains[0].names
    out = {}
    for name in names:
        seqs = [ch.draws[name] for ch in chains]
        value, anticorr = _capped_ess(seqs)
        out[name] = ConvergenceEntry(rhat=split_rhat(seqs), ess=value, anticorrelated=anticorr)
    return out


# -- table rendering ----------------------------------------------------------


def render_summary_table(summary: Mapping[str, ParamSummary], model_kind: str) -> str:
    """Aligned plain-text posterior summary in the standard row order."""
    names = model_spec(model_kind).param_names
    width = max(len(n) for n in names) + 2
    lines = [f"{'parameter':<{width}}{'mean':>9}{'sd':>9}{'q0.025':>9}{'q0.975':>9}"]
    for name in names:
        s = summary[name]
        lines.append(
            f"{name:<{width}}{s.mean:>9.3f}{s.sd:>9.3f}{s.q025:>9.3f}{s.q975:>9.3f}"
        )
    return "\n".join(lines)


def summary_csv_rows(summary: Mapping[str, ParamSummary], model_kind: str):
    """CSV rows (parameter, mean, sd, q0.025, q0.975) in table order."""
    yield ["parameter", "mean", "sd", "q0.025", "q0.975"]
    for name in model_spec(model_kind).param_names:
        s = summary[name]
        yield [name, repr(s.mean), repr(s.sd), repr(s.q025), repr(s.q975)]
