"""Core model types and log-density evaluations.

Two longitudinal mixed models over country-level landings time series:

* total model: y_ct ~ N(beta0 + b0_c + b1_c * t, sigma^2) with independent
  N(0, sigma0^2) intercept effects and N(0, sigma1^2) slope effects.
* joint model: industrial and artisanal streams share one observation
  sigma; the per-country intercept pairs and slope pairs are bivariate
  normal with covariances built from (sigma_I, sigma_A, rho).

A ``Dataset`` holds the panel as columns (country, t, sector, y), validated
with array operations, and computes per sector the centred per-country
statistics ``StreamStats`` on which every full conditional depends.

Priors: N(0, intercept_sd^2) on the fixed intercepts, U(0, sd_bound) on
every standard deviation, U(-1, 1) on the correlations.  ``log_density``
evaluates the unnormalised log posterior of either model, term by term,
from those statistics; out-of-support values give -inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Union

import numpy as np

from .errors import ConfigError, DataFormatError, DegenerateCovarianceError

LOG_2PI = math.log(2.0 * math.pi)


class Sector(Enum):
    TOTAL = "total"
    INDUSTRIAL = "industrial"
    ARTISANAL = "artisanal"

    @property
    def code(self) -> int:
        """The sector's entry in ``Dataset.sector``: its index in SECTORS."""
        return SECTORS.index(self)


SECTORS = tuple(Sector)


@dataclass(frozen=True)
class PriorSpec:
    """Hyperparameters of the prior; defaults match the production models."""

    intercept_sd: float = 10.0
    sd_bound: float = 10.0

    def support(self, name: str) -> tuple[float, float] | None:
        """The open interval of a parameter's uniform prior; None for an
        intercept, whose prior is normal."""
        if name.startswith("rho"):
            return -1.0, 1.0
        if name.startswith("sigma"):
            return 0.0, self.sd_bound
        return None


@dataclass(frozen=True)
class StreamStats:
    """Centred per-country sufficient statistics of one observation stream.

    For country c with n_c rows: the means t̄ and ȳ, and the centred sums
    Stt = Σ(t − t̄)², Sty = Σ(t − t̄)(y − ȳ), Syy = Σ(y − ȳ)².  Countries
    without rows have every entry 0.  Centring keeps the residual sum of
    squares accurate when y sits far from zero.
    """

    n: np.ndarray
    tbar: np.ndarray
    ybar: np.ndarray
    stt: np.ndarray
    sty: np.ndarray
    syy: np.ndarray

    @classmethod
    def from_columns(cls, c: np.ndarray, t: np.ndarray, y: np.ndarray, n_countries: int):
        n = np.bincount(c, minlength=n_countries).astype(float)
        inv_n = np.divide(1.0, n, out=np.zeros(n_countries), where=n > 0)

        def mean(x):
            m = np.bincount(c, weights=x, minlength=n_countries) * inv_n
            # one correction pass brings the mean to within an ulp of exact
            return m + np.bincount(c, weights=x - m[c], minlength=n_countries) * inv_n

        tbar, ybar = mean(t), mean(y)
        dt, dy = t - tbar[c], y - ybar[c]

        def centred(x):  # float even for an empty stream
            return np.bincount(c, weights=x, minlength=n_countries).astype(float)

        return cls(n, tbar, ybar, centred(dt * dt), centred(dt * dy), centred(dy * dy))

    @property
    def n_obs(self) -> int:
        return int(self.n.sum())

    def residual_ss(self, a, b) -> float:
        """Σ (y − a_c − b_c·t)² over the stream, for per-country a and b."""
        d = self.ybar - a - b * self.tbar
        return float(self.syy.sum() + (b * b) @ self.stt - 2.0 * (b @ self.sty) + (self.n * d) @ d)


@dataclass(eq=False)
class Dataset:
    """A validated panel held as read-only columns plus country labels.

    Row i is the log-landings ``y[i]`` of country ``country[i]`` at time
    index ``t[i]`` in sector ``SECTORS[sector[i]]``.
    """

    country: np.ndarray
    t: np.ndarray
    sector: np.ndarray
    y: np.ndarray
    labels: tuple[str, ...]
    horizon: int

    def __post_init__(self) -> None:
        self.labels = tuple(self.labels)
        if len(self.labels) < 1:
            raise DataFormatError("dataset needs at least one country")
        y = np.array(self.y, dtype=float)
        if y.ndim != 1 or not np.all(np.isfinite(y)):
            raise DataFormatError("y must be a 1-d column of finite values")
        country, t, sector = (
            _int_column(name, values, upper, len(y))
            for name, values, upper in (
                ("country index", self.country, self.n_countries),
                ("time index", self.t, self.horizon),
                ("sector code", self.sector, len(SECTORS)),
            )
        )
        key = (country * self.horizon + t) * len(SECTORS) + sector
        if np.unique(key).size < key.size:
            raise DataFormatError("duplicate observation for one (country, t, sector)")
        for col in (country, t, sector, y):
            col.setflags(write=False)
        self.country, self.t, self.sector, self.y = country, t, sector, y
        self._arrays_cache: dict = {}
        self._stats_cache: dict = {}

    @property
    def n_countries(self) -> int:
        return len(self.labels)

    @property
    def n_obs(self) -> int:
        return len(self.y)

    @property
    def availability(self) -> dict[int, frozenset[Sector]]:
        present = np.zeros((self.n_countries, len(SECTORS)), dtype=bool)
        present[self.country, self.sector] = True
        return {
            c: frozenset(s for s, has in zip(SECTORS, row) if has)
            for c, row in enumerate(present)
        }

    def sectors_present(self) -> frozenset[Sector]:
        return frozenset(SECTORS[k] for k in np.unique(self.sector))

    def arrays(self, sector: Sector | None = None):
        """(country, t, y) as numpy arrays, optionally filtered by sector."""
        if sector not in self._arrays_cache:
            keep = slice(None) if sector is None else self.sector == sector.code
            self._arrays_cache[sector] = (
                self.country[keep],
                self.t[keep].astype(float),
                self.y[keep],
            )
        return self._arrays_cache[sector]

    def stats(self, sector: Sector) -> StreamStats:
        """Per-country sufficient statistics of one sector, computed once."""
        if sector not in self._stats_cache:
            c, t, y = self.arrays(sector)
            self._stats_cache[sector] = StreamStats.from_columns(c, t, y, self.n_countries)
        return self._stats_cache[sector]


def _int_column(what: str, values, upper: int, length: int) -> np.ndarray:
    """A column of integers in [0, upper), as a fresh intp array."""
    col = np.asarray(values)
    out = col.astype(np.intp)
    if col.shape != (length,) or not np.array_equal(out, col):
        raise DataFormatError(f"{what} column must hold {length} integers")
    bad = (out < 0) | (out >= upper)
    if bad.any():
        raise DataFormatError(f"{what} {out[np.argmax(bad)]} outside [0, {upper})")
    return out


@dataclass(frozen=True)
class TotalParams:
    beta0: float
    sigma: float
    sigma0: float
    sigma1: float


@dataclass(frozen=True)
class JointParams:
    beta0_ind: float
    beta0_art: float
    sigma: float
    sigma0_ind: float
    sigma0_art: float
    sigma1_ind: float
    sigma1_art: float
    rho0: float
    rho1: float


@dataclass
class TotalEffects:
    """Per-country random intercepts and slopes of the total model."""

    b0: np.ndarray
    b1: np.ndarray


@dataclass
class JointEffects:
    """Per-country paired random effects of the joint model."""

    b0_ind: np.ndarray
    b0_art: np.ndarray
    b1_ind: np.ndarray
    b1_art: np.ndarray


Params = Union[TotalParams, JointParams]
Effects = Union[TotalEffects, JointEffects]


@dataclass(frozen=True)
class ModelSpec:
    """What tells one model apart from the other: its parameter and effects
    classes, the public names of the parameters and the tags of the effects,
    each in the field order of its class."""

    params: type
    effects: type
    param_names: tuple[str, ...]
    effect_tags: tuple[str, ...]


MODELS = {
    "total": ModelSpec(TotalParams, TotalEffects, ("beta0", "sigma", "sigma0", "sigma1"),
                       ("b0", "b1")),
    "joint": ModelSpec(JointParams, JointEffects,
                       ("beta0_I", "beta0_A", "sigma", "sigma0_I", "sigma0_A", "sigma1_I",
                        "sigma1_A", "rho0", "rho1"),
                       ("b0_I", "b0_A", "b1_I", "b1_A")),
}
TOTAL_PARAM_NAMES = MODELS["total"].param_names
JOINT_PARAM_NAMES = MODELS["joint"].param_names


def model_spec(model_kind: str) -> ModelSpec:
    """The table entry of a model kind; ConfigError for an unknown kind."""
    if model_kind not in MODELS:
        raise ConfigError(f"unknown model kind {model_kind!r}")
    return MODELS[model_kind]


def draw_names(model_kind: str, labels) -> tuple[str, ...]:
    """The columns of a draw file: the parameters, then each effect tag's
    column per country label."""
    spec = model_spec(model_kind)
    effects = (f"{tag}[{label}]" for tag in spec.effect_tags for label in labels)
    return spec.param_names + tuple(effects)


def params_to_dict(params: Params) -> dict[str, float]:
    spec = next(s for s in MODELS.values() if isinstance(params, s.params))
    return dict(zip(spec.param_names, vars(params).values()))


def effects_to_dict(effects: Effects) -> dict[str, np.ndarray]:
    spec = next(s for s in MODELS.values() if isinstance(effects, s.effects))
    return dict(zip(spec.effect_tags, vars(effects).values()))


def params_from_dict(model_kind: str, d: dict[str, float]) -> Params:
    spec = model_spec(model_kind)
    missing = [name for name in spec.param_names if name not in d]
    if missing:
        raise ConfigError(f"{model_kind}-model parameters lack {', '.join(map(repr, missing))}")
    return spec.params(*(d[name] for name in spec.param_names))


@dataclass
class ModelState:
    params: Params
    effects: Effects


def build_covariance(sd_a: float, sd_b: float, rho: float) -> np.ndarray:
    """The 2x2 covariance matrix of a correlated pair from its two sds and
    correlation; DegenerateCovarianceError unless it is positive definite."""
    a11, a12, a22 = sd_a * sd_a, rho * sd_a * sd_b, sd_b * sd_b
    if not (sd_a > 0 and sd_b > 0 and abs(rho) < 1 and a11 * a22 - a12 * a12 > 0):
        raise DegenerateCovarianceError(
            f"invalid covariance parameters sd_a={sd_a}, sd_b={sd_b}, rho={rho}"
        )
    return np.array([[a11, a12], [a12, a22]])


class LogDensity(NamedTuple):
    """The terms of a state's unnormalised log posterior.  Each is a float,
    or an array of the broadcast shape of the values it depends on."""

    likelihood: np.ndarray
    effects: np.ndarray
    prior: np.ndarray

    @property
    def posterior(self):
        """The sum of the terms; -inf wherever the prior is, also where an
        out-of-support value leaves the other terms undefined."""
        with np.errstate(invalid="ignore"):
            total = self.likelihood + self.effects + self.prior
        return np.where(self.prior > -np.inf, total, -np.inf)[()]


def log_density(state: ModelState, data: Dataset, priors: PriorSpec = PriorSpec()) -> LogDensity:
    """The log likelihood, log random-effects density and log prior of a
    total- or joint-model state.

    Parameters may be numpy arrays that broadcast against each other, and
    each effect field may be any per-country sequence, such as a list that
    mixes floats with arrays: a lattice axis on one country's effect is
    never stacked with the others'.  The data enter only through
    ``Dataset.stats``, so the cost is O(C) array operations, not O(N).
    """
    p, e = state.params, state.effects
    if isinstance(p, TotalParams):
        kind = "total"
        streams = [(Sector.TOTAL, p.beta0, e.b0, e.b1)]
        # independent intercept and slope effects: a pair with correlation 0
        blocks = [(e.b0, e.b1, p.sigma0, p.sigma1, 0.0)]
    else:
        kind = "joint"
        streams = [
            (Sector.INDUSTRIAL, p.beta0_ind, e.b0_ind, e.b1_ind),
            (Sector.ARTISANAL, p.beta0_art, e.b0_art, e.b1_art),
        ]
        blocks = [
            (e.b0_ind, e.b0_art, p.sigma0_ind, p.sigma0_art, p.rho0),
            (e.b1_ind, e.b1_art, p.sigma1_ind, p.sigma1_art, p.rho1),
        ]
    n_obs = sum(data.stats(sector).n_obs for sector, *_ in streams)
    if n_obs != data.n_obs:
        raise ConfigError(f"panel has rows outside the {kind} model's sectors")
    C = data.n_countries
    with np.errstate(divide="ignore", invalid="ignore"):
        rss = 0.0  # Σ (y − mean)², from the centred statistics of each country
        for sector, beta0, b0, b1 in streams:
            s = data.stats(sector)
            for c in np.flatnonzero(s.n):
                d = s.ybar[c] - beta0 - b0[c] - b1[c] * s.tbar[c]
                rss = rss + s.syy[c] + b1[c] * (b1[c] * s.stt[c] - 2.0 * s.sty[c]) + s.n[c] * d * d
        likelihood = -n_obs * (0.5 * LOG_2PI + np.log(p.sigma)) - 0.5 * rss / (p.sigma * p.sigma)

        effects = 0.0  # centred bivariate normal pairs, through their scatter S
        for x1, x2, sd1, sd2, rho in blocks:
            s11, s12, s22 = (
                sum(u[c] * v[c] for c in range(C)) for u, v in ((x1, x1), (x1, x2), (x2, x2))
            )
            omr = 1.0 - rho * rho
            quad = (s11 / (sd1 * sd1) - 2.0 * rho * s12 / (sd1 * sd2) + s22 / (sd2 * sd2)) / omr
            log_det = 2.0 * (np.log(sd1) + np.log(sd2)) + np.log(omr)
            effects = effects - C * (LOG_2PI + 0.5 * log_det) - 0.5 * quad

        prior = 0.0
        for name, x in params_to_dict(p).items():
            support = priors.support(name)
            if support is None:
                sd = priors.intercept_sd
                prior = prior - 0.5 * LOG_2PI - math.log(sd) - 0.5 * (x / sd) ** 2
            else:
                lo, hi = support
                prior = prior + np.where((lo < x) & (x < hi), -math.log(hi - lo), -np.inf)
    return LogDensity(likelihood, effects, prior)

