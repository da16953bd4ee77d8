"""Core model types and log-density evaluations.

Two longitudinal mixed models over country-level landings time series:

* total model: y_ct ~ N(beta0 + b0_c + b1_c * t, sigma^2) with independent
  N(0, sigma0^2) intercept effects and N(0, sigma1^2) slope effects.
* joint model: industrial and artisanal streams share one observation
  sigma; the per-country intercept pairs and slope pairs are bivariate
  normal with covariances built from (sigma_I, sigma_A, rho).

A ``Dataset`` holds the panel as columns (country, t, sector, y), validated
with array operations.  ``model_streams`` computes once per dataset the
centred per-country statistics of the sectors a model reads, one (S, C)
``StreamStats``, on which every full conditional depends.

Priors: N(0, intercept_sd^2) on the fixed intercepts, U(0, sd_bound) on
every standard deviation, U(-1, 1) on the correlations.  ``log_density``
evaluates the unnormalised log posterior of either model, term by term,
from those statistics; out-of-support values give -inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
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

    def draw(self, names, rng: np.random.Generator) -> list[float]:
        """One draw from the prior of each named parameter, in order."""
        return [float(rng.normal(0.0, self.intercept_sd) if s is None else rng.uniform(*s))
                for s in map(self.support, names)]


@dataclass(frozen=True)
class StreamStats:
    """Centred per-country sufficient statistics of a model's observation
    streams, as (S, C) arrays: one row per sector the model reads.

    For stream s and country c with n rows: the means t̄ and ȳ, and the
    centred sums Stt = Σ(t − t̄)², Sty = Σ(t − t̄)(y − ȳ), Syy = Σ(y − ȳ)².
    A cell without rows has every entry 0.  Centring keeps the residual sum
    of squares accurate when y sits far from zero.
    """

    n: np.ndarray
    tbar: np.ndarray
    ybar: np.ndarray
    stt: np.ndarray
    sty: np.ndarray
    syy: np.ndarray

    @classmethod
    def from_columns(cls, cell: np.ndarray, t: np.ndarray, y: np.ndarray, shape: tuple[int, int]):
        """The statistics of rows in cell ``stream·C + country``, each by one
        ``bincount`` pass over the rows."""
        size = shape[0] * shape[1]
        n = np.bincount(cell, minlength=size).astype(float)
        inv_n = np.divide(1.0, n, out=np.zeros(size), where=n > 0)

        def mean(x):
            m = np.bincount(cell, weights=x, minlength=size) * inv_n
            # one correction pass brings the mean to within an ulp of exact
            return m + np.bincount(cell, weights=x - m[cell], minlength=size) * inv_n

        tbar, ybar = mean(t), mean(y)
        dt, dy = t - tbar[cell], y - ybar[cell]

        def centred(x):  # float even for an empty stream
            return np.bincount(cell, weights=x, minlength=size).astype(float)

        stats = (n, tbar, ybar, centred(dt * dt), centred(dt * dy), centred(dy * dy))
        return cls(*(a.reshape(shape) for a in stats))

    @property
    def n_obs(self) -> int:
        return int(self.n.sum())

    @cached_property
    def syy_sum(self) -> float:
        """Σ Syy over the cells, which every residual sum of squares adds."""
        return float(self.syy.sum())

    @cached_property
    def sum_t2(self) -> np.ndarray:
        """Σt² per cell, the slope effects' data precision times sigma²."""
        return self.stt + self.n * self.tbar**2

    @cached_property
    def n_tbar(self) -> np.ndarray:
        """n·t̄ per cell."""
        return self.n * self.tbar

    def residual_ss(self, a, b) -> float:
        """Σ (y − a − b·t)² over every row, for per-cell a and b that
        broadcast to the stack's (S, C)."""
        d = self.ybar - a - b * self.tbar
        return self.syy_sum + float(
            np.vdot(b * b, self.stt) - 2.0 * np.vdot(b, self.sty) + np.vdot(self.n * d, d)
        )


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
        self._streams: dict[str, StreamStats] = {}  # model_streams, by model kind

    @property
    def n_countries(self) -> int:
        return len(self.labels)

    @property
    def n_obs(self) -> int:
        return len(self.y)


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


Params = Union[TotalParams, JointParams]


@dataclass(frozen=True)
class ModelSpec:
    """What tells one model apart from the other: its parameter class, the
    public names of its parameters in the class's field order, the tags of
    its per-country effects, and the sectors it reads."""

    params: type
    param_names: tuple[str, ...]
    effect_tags: tuple[str, ...]
    sectors: tuple[Sector, ...]


MODELS = {
    "total": ModelSpec(TotalParams, ("beta0", "sigma", "sigma0", "sigma1"),
                       ("b0", "b1"), (Sector.TOTAL,)),
    "joint": ModelSpec(JointParams,
                       ("beta0_I", "beta0_A", "sigma", "sigma0_I", "sigma0_A", "sigma1_I",
                        "sigma1_A", "rho0", "rho1"),
                       ("b0_I", "b0_A", "b1_I", "b1_A"), (Sector.INDUSTRIAL, Sector.ARTISANAL)),
}
TOTAL_PARAM_NAMES = MODELS["total"].param_names
JOINT_PARAM_NAMES = MODELS["joint"].param_names


def model_spec(model_kind: str) -> ModelSpec:
    """The table entry of a model kind; ConfigError for an unknown kind."""
    if model_kind not in MODELS:
        raise ConfigError(f"unknown model kind {model_kind!r}")
    return MODELS[model_kind]


def model_streams(model_kind: str, data: Dataset) -> StreamStats:
    """The statistics of the sectors the model reads, one row per sector in
    table order, computed once per dataset; ConfigError if the panel has
    rows in any other sector."""
    streams = data._streams.get(model_kind)
    if streams is None:
        sectors = model_spec(model_kind).sectors
        stream_of = np.full(len(SECTORS), -1)  # each sector code's row, or -1
        stream_of[[s.code for s in sectors]] = np.arange(len(sectors))
        stream = stream_of[data.sector]
        if (stream < 0).any():
            raise ConfigError(f"panel has rows outside the {model_kind} model's sectors")
        C = data.n_countries
        streams = StreamStats.from_columns(
            stream * C + data.country, data.t.astype(float), data.y, (len(sectors), C)
        )
        data._streams[model_kind] = streams
    return streams


def draw_names(model_kind: str, labels) -> tuple[str, ...]:
    """The columns of a draw file: the parameters, then each effect tag's
    column per country label."""
    spec = model_spec(model_kind)
    effects = (f"{tag}[{label}]" for tag in spec.effect_tags for label in labels)
    return spec.param_names + tuple(effects)


def params_to_dict(params: Params) -> dict[str, float]:
    spec = next(s for s in MODELS.values() if isinstance(params, s.params))
    return dict(zip(spec.param_names, vars(params).values()))


def params_from_dict(model_kind: str, d: dict[str, float]) -> Params:
    spec = model_spec(model_kind)
    missing = [name for name in spec.param_names if name not in d]
    if missing:
        raise ConfigError(f"{model_kind}-model parameters lack {', '.join(map(repr, missing))}")
    return spec.params(*(d[name] for name in spec.param_names))


@dataclass
class ModelState:
    """A model's parameters, and its per-country effects as a dict from each
    of ``model_spec(kind).effect_tags`` to that tag's column (one entry per
    country label).  The package builds the dict in tag order and reads it
    by tag."""

    params: Params
    effects: dict[str, np.ndarray]


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

    Parameters may be numpy arrays that broadcast against each other.  The
    effects are read by tag, and each tag's column may be any per-country
    sequence, such as a list that mixes floats with arrays: a lattice axis
    on one country's effect is never stacked with the others'.  The data
    enter only through ``model_streams``, so the cost is O(C) array
    operations, not O(N).
    """
    p, e = state.params, state.effects
    if isinstance(p, TotalParams):
        kind = "total"
        means = [(p.beta0, e["b0"], e["b1"])]
        # independent intercept and slope effects: a pair with correlation 0
        blocks = [(e["b0"], e["b1"], p.sigma0, p.sigma1, 0.0)]
    else:
        kind = "joint"
        means = [(p.beta0_ind, e["b0_I"], e["b1_I"]), (p.beta0_art, e["b0_A"], e["b1_A"])]
        blocks = [
            (e["b0_I"], e["b0_A"], p.sigma0_ind, p.sigma0_art, p.rho0),
            (e["b1_I"], e["b1_A"], p.sigma1_ind, p.sigma1_art, p.rho1),
        ]
    st = model_streams(kind, data)
    n_obs, C = data.n_obs, data.n_countries
    with np.errstate(divide="ignore", invalid="ignore"):
        rss = 0.0  # Σ (y − mean)², from the centred statistics of each country
        rows = zip(st.n, st.tbar, st.ybar, st.stt, st.sty, st.syy)
        for (n, tbar, ybar, stt, sty, syy), (beta0, b0, b1) in zip(rows, means):
            for c in np.flatnonzero(n):
                d = ybar[c] - beta0 - b0[c] - b1[c] * tbar[c]
                rss = rss + syy[c] + b1[c] * (b1[c] * stt[c] - 2.0 * sty[c]) + n[c] * d * d
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

