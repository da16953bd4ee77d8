"""Metropolis-within-Gibbs engine for both landings models.

One sweep updates four blocks, in fixed order: fixed intercepts, random
effects, observation variance, random-effect scale parameters.  Each
numpy sampler draws each block with one update method; ``_Sampler`` holds
what both share.  Conjugate blocks are drawn exactly.  So are the variances,
whose conditionals are inverse-gamma laws truncated at the squared sd
bound: each draw takes one standard gamma and one uniform, with no
rejection loop.  Each 2x2
covariance block of the joint model (two sds and a correlation) takes one
independence Metropolis-Hastings step whose proposal is the
inverse-Wishart shape of its conditional: with scatter
S = sum_c x_c x_c^T of the C effect pairs, propose Sigma' ~ IW(S, nu),
nu = max(C - 1, 2).  The U(0, b)^2 x U(-1, 1) prior on (sd_a, sd_b, rho)
has density (1 - rho^2) / |Sigma| in Sigma coordinates, so the log
acceptance ratio is log(1 - rho'^2) - log(1 - rho^2)
+ (k/2)(log|Sigma'| - log|Sigma|) with k = nu + 1 - C, and a proposal
with an sd at or above the bound is rejected.  Nothing is tuned.

The fixed-intercept update is partially collapsed: it integrates the
random intercepts out of the conditional (they are redrawn immediately
afterwards), which removes the slow intercept/random-effect random walk
of the naive scalar Gibbs scheme.  The total model keeps the plain scalar
conditional for runs with frozen effects.  Every bivariate-normal
conditional of the joint model (the intercept pair and each country's
intercept and slope effect pairs) is drawn by one kernel, ``_draw_gauss2``.

A run may skip an update only where the model names it in its
``skip_keys``: those are the frozen blocks of the oracles and the negative
controls of the calibration checks.

Every conditional reads the data only through the per-country sufficient
statistics of the model's streams (``model_streams``: n, t̄, ȳ, Stt, Sty
and Syy as (S, C) arrays, a row per sector), computed once per dataset.
A sweep therefore does O(C) work in the number of countries C, whatever
the length of the panel.  Every kernel carries z̄ = ȳ − b1·t̄ as state:
``set_state`` computes it and each slope draw refreshes it.  A total
chain on at most ``SMALL_C`` countries runs as one loop on Python floats
(``SmallTotalSampler.run``), where numpy calls would be nearly all
overhead; every other chain calls ``sweep`` on numpy arrays.  ``SMALL_C`` is the most countries at which that loop was
faster in every measured run.

Chains are deterministic given (seed, chain_index): chain c uses
``SeedSequence(entropy=seed, spawn_key=(c,))``.  Each chain draws its
random numbers ``BLOCK`` sweeps at a time, in a layout fixed per model
(``numbers``), so it makes a few generator calls per block rather than
several per sweep; the updates take their numbers as arguments.  Every
conditional's gamma shape is checked before the first block is drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from itertools import repeat

import numpy as np

from .errors import ConfigError, DegenerateCovarianceError, DegenerateDataError
from .model import (
    Dataset,
    JointParams,
    ModelState,
    PriorSpec,
    TotalParams,
    build_covariance,
    draw_names,
    model_spec,
    model_streams,
    params_to_dict,
)


@dataclass(frozen=True)
class ChainConfig:
    iterations: int = 20000
    burnin: int = 10000
    thin: int = 5
    chains: int = 4
    seed: int = 0
    skip_updates: tuple[str, ...] = ()
    priors: PriorSpec = field(default_factory=PriorSpec)

    def __post_init__(self) -> None:
        if self.iterations <= 0 or self.thin <= 0 or self.chains <= 0:
            raise ConfigError("iterations, thin and chains must be positive")
        if not (0 <= self.burnin < self.iterations):
            raise ConfigError("burnin must satisfy 0 <= burnin < iterations")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        bad = set(self.skip_updates).difference(*(s.skip_keys for s in _SAMPLERS.values()))
        if bad:
            raise ConfigError(f"unknown skip keys {sorted(bad)}")
        if self.n_retained < 1:
            raise ConfigError("configuration retains no draws")

    @property
    def n_retained(self) -> int:
        return (self.iterations - self.burnin) // self.thin


@dataclass
class ChainDraws:
    """Retained draws as one (n, P) matrix with a column per name, plus MH
    acceptance rates."""

    names: tuple[str, ...]
    matrix: np.ndarray
    acceptance: dict[str, float]
    chain_index: int

    def __post_init__(self) -> None:
        if self.matrix.ndim != 2 or self.matrix.shape[1] != len(self.names):
            raise ConfigError(
                f"draw matrix of shape {self.matrix.shape} for {len(self.names)} names"
            )

    @cached_property
    def draws(self) -> dict[str, np.ndarray]:
        """Each name's column, as a view of the matrix.  Built on first use,
        so a chain pickled back from a worker carries the matrix alone."""
        return {name: self.matrix[:, k] for k, name in enumerate(self.names)}

    @property
    def n_draws(self) -> int:
        return self.matrix.shape[0]


def chain_rng(seed: int, chain_index: int) -> np.random.Generator:
    """Deterministic per-chain generator derived from the master seed."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(chain_index,)))


# The most countries for which a total chain runs on ``SmallTotalSampler``'s
# float loop.  Its cost grows with C and the numpy sweep's hardly does: in
# process (interleaved run_chain, 2500 sweeps, median of 9) the numpy sweep
# took 2.5-2.8x its time at C = 8, 1.6-1.7x at 16, 1.2-1.3x at 24 and 1.0x
# at 32, with and without the sigma update.
SMALL_C = 24

# Sweeps per block of random numbers.  A chain always draws whole blocks, so
# its first n sweeps see the same numbers whatever its length; at C = 200 a
# joint block of normals takes 128 x 804 doubles, under 1 MB.
BLOCK = 128


def _check_shape(shape: float) -> None:
    """Raise unless a variance conditional's gamma shape is positive."""
    if shape <= 0:
        raise DegenerateDataError(f"improper variance conditional (shape {shape})")


# -- shared conjugate building blocks ---------------------------------------


def _draw_obs_sd(sampler, ss: float, g: float, u: float) -> float:
    """sigma drawn from its conditional given the residual sum of squares ss,
    from a standard gamma g at the sampler's shape and a uniform u."""
    if sampler.n_obs > 1 and ss <= 0.0:
        raise DegenerateDataError("zero residual sum of squares with N > 1")
    return math.sqrt(sample_trunc_invgamma_var(sampler.obs_shape, ss / 2.0, sampler.upper_var,
                                               g, u))


def _draw_re_sd(sampler, ss: float, g: float, u: float) -> float:
    """A total-model effect sd drawn given the sum of squares ss of its C
    effects, from a standard gamma g at the shape (C - 1)/2 and a uniform u."""
    if sampler.C > 1 and ss == 0.0:
        raise DegenerateDataError("all random effects are zero: degenerate conditional")
    return math.sqrt(sample_trunc_invgamma_var(sampler.re_shape, ss / 2.0, sampler.upper_var,
                                               g, u))


def conj_normal(prior_var: float, lik_prec: float, lik_lin: float) -> tuple[float, float]:
    """Posterior (mean, var) of a normal mean with N(0, prior_var) prior.

    lik_prec is the likelihood precision contribution (e.g. n/sigma^2) and
    lik_lin the matching linear term (sum of weighted residuals / sigma^2).
    """
    prec = 1.0 / prior_var + lik_prec
    var = 1.0 / prec
    return lik_lin * var, var


@cache
def _gamma_tail():
    """scipy's upper regularised gamma function and its inverse, as plain
    scalar functions: loaded on the first inverse-CDF draw, since they load
    scipy.  They return the bits of the ``scipy.special`` ufuncs at a
    fraction of a ufunc call's cost."""
    from scipy.special import cython_special

    return cython_special.gammaincc, cython_special.gammainccinv


def sample_trunc_invgamma_var(shape: float, rate: float, upper_var: float, g: float,
                              u: float) -> float:
    """A variance drawn exactly from IG(shape, rate) truncated to (0, upper_var),
    given a standard gamma g of this shape and a uniform u.

    The untruncated draw rate / g is kept when it lies below the bound;
    otherwise g is replaced by the inverse-CDF draw of Gamma(shape)
    truncated to (rate / upper_var, inf), taken at 1 - u.  Both branches
    give the truncated law: P(accept and A) + P(reject) P_trunc(A) =
    P_trunc(A).  The shape is checked before g is drawn (``_check_shape``).
    """
    if rate <= 0:
        raise DegenerateDataError("zero residual sum of squares: degenerate conditional")
    if not rate < upper_var * g:
        gammaincc, gammainccinv = _gamma_tail()
        mass = gammaincc(shape, rate / upper_var)  # P(rate / g < upper_var)
        if mass == 0.0:
            raise DegenerateDataError(
                f"no mass below the sd bound: IG({shape}, {rate}) truncated at {upper_var}"
            )
        g = gammainccinv(shape, (1.0 - u) * mass)
    v = rate / g
    # the exact draw lies below the bound; only rounding can bring it up to it
    return v if v < upper_var else math.nextafter(upper_var, 0.0)


def _draw_gauss2(p11, p12, p22, h1, h2, z):
    """A draw (x1, x2) from the bivariate normal with precision
    [[p11, p12], [p12, p22]] and linear term (h1, h2), so mean P^-1 h,
    given the standard normals z.  The entries are floats or arrays of one
    shape, or a float p12 beside array diagonals, with z of shape (2,) or
    (2,) + that shape.

    P = U U^T with U upper triangular; w = U^-1 h is one back substitution
    and x = U^-T (w + z) one forward substitution (Rue 2001).  U^-T is the
    lower Cholesky factor of the covariance P^-1, so x is the mean plus that
    factor times z, as when the covariance is factored directly."""
    u22 = p22 ** 0.5
    u12 = p12 / u22
    u11 = (p11 - u12 * u12) ** 0.5
    w2 = h2 / u22
    w1 = (h1 - u12 * w2) / u11
    x1 = (w1 + z[0]) / u11
    return x1, (w2 + z[1] - u12 * x1) / u22


def _draw_inv_wishart_2x2(s11, s12, s22, c1, c2, z) -> tuple[float, float, float]:
    """(sd_1, sd_2, rho) of one IW(S, nu) draw, by the Bartlett decomposition.

    Sigma = R (A A^T)^-1 R^T, with R the lower Cholesky factor of
    S = [[s11, s12], [s12, s22]] and A = [[sqrt(c1), 0], [z, sqrt(c2)]],
    given c1 ~ chi2(nu), c2 ~ chi2(nu - 1) and z ~ N(0, 1).
    """
    det_s = s11 * s22 - s12 * s12
    if not det_s > 0.0:
        raise DegenerateDataError("effect pairs are collinear: singular scatter")
    r11 = math.sqrt(s11)
    r21 = s12 / r11
    r22 = math.sqrt(det_s / s11)
    m11 = (z * z + c2) / (c1 * c2)  # (A A^T)^-1 = [[m11, m12], [m12, 1/c2]]
    m12 = -z / (math.sqrt(c1) * c2)
    sd_1 = r11 * math.sqrt(m11)
    sd_2 = math.sqrt(r21 * r21 * m11 + 2.0 * r21 * r22 * m12 + r22 * r22 / c2)
    return sd_1, sd_2, r11 * (r21 * m11 + r22 * m12) / (sd_1 * sd_2)


# -- per-model caches and samplers ------------------------------------------


class _Sampler:
    """What both models' samplers share: the model's streams and the
    constants read from them, the state's z̄, and the chain loop.

    ``effects`` is one block in draw-column order, a row per effect tag of
    ``model.MODELS``: a row per sector for the intercept effects, ``b0``,
    then a row per sector for the slope effects, ``b1``.  Both are views
    bound once by ``set_state``, and the updates write into them in place."""

    kind: str  # the model's key in model.MODELS

    def __init__(self, data: Dataset, priors: PriorSpec):
        self.priors = priors
        self.C = data.n_countries
        self.s = model_streams(self.kind, data)
        self.n_obs = self.s.n_obs
        self.upper_var = priors.sd_bound**2
        self.obs_shape = (self.n_obs - 1) / 2.0

    def zbar(self) -> np.ndarray:
        """z̄ = ȳ − b1·t̄ per sector and country: what the intercepts see of
        each stream.  Computed into the carried z̄, which the sweep reads
        until the next slope draw."""
        return np.subtract(self.s.ybar, self.b1 * self.s.tbar, out=self.carried_zbar)

    def set_state(self, state: ModelState) -> None:
        """Take a copy of ``state``, checked once here: the updates trust
        every later state, which they keep inside the prior support."""
        for name, x in params_to_dict(state.params).items():
            support = self.priors.support(name)
            if support and not support[0] < x < support[1]:
                raise DegenerateCovarianceError(f"starting {name} = {x} is outside {support}")
        self._set_params(state.params)
        tags = model_spec(self.kind).effect_tags
        self.effects = np.array([state.effects[tag] for tag in tags], dtype=float)
        S = len(self.s.n)
        self.b0, self.b1 = self.effects[:S], self.effects[S:]
        self.zbar()

    def get_state(self) -> ModelState:
        spec = model_spec(self.kind)
        effects = dict(zip(spec.effect_tags, self.effects.copy()))
        return ModelState(spec.params(*self._fields()[0]), effects)

    def acceptance(self) -> dict[str, float]:
        return {}

    def run(self, numbers, iterations: int, kept: range, out: np.ndarray,
            skipped: frozenset[str]) -> None:
        """Sweep ``iterations`` times on the rows of ``numbers``, and write
        the state after each sweep in ``kept`` into the next row of ``out``."""
        rows = iter(out)
        for it, row in zip(range(iterations), numbers):
            self.sweep(row, skipped)
            if it in kept:
                write_values(self, next(rows))


class TotalSampler(_Sampler):
    """Mutable sampling state for the total-landings model: each stream
    statistic is one (1, C) row."""

    kind = "total"
    # frozen effects (criterion 1) or slopes (criterion 2), the variance
    # control of the calibration check, and frozen scale parameters
    skip_keys = frozenset({"random_effects", "re_slopes", "obs_variance", "re_sds", "re_sd1"})

    def __init__(self, data: Dataset, priors: PriorSpec, state: ModelState):
        super().__init__(data, priors)
        self.prior_var = priors.intercept_sd**2
        self.re_shape = (self.C - 1) / 2.0
        self.carried_zbar = np.empty((1, self.C))
        self.set_state(state)

    def _set_params(self, p: TotalParams) -> None:  # the parameters of a checked state
        assert isinstance(p, TotalParams)
        self.beta0 = p.beta0
        self.sigma = p.sigma
        self.sigma0 = p.sigma0
        self.sigma1 = p.sigma1

    def _fields(self):  # parameters and effects in the order of model.MODELS
        return (self.beta0, self.sigma, self.sigma0, self.sigma1), self.effects.ravel()

    def numbers(self, rng: np.random.Generator, skipped: frozenset[str]):
        """Each sweep's random numbers, drawn BLOCK sweeps at a time: normals
        (BLOCK, 1 + 2C) for beta0, b0 and b1; standard gammas at the shapes
        (N - 1)/2 (BLOCK,) and (C - 1)/2 (BLOCK, 2); uniforms (BLOCK, 3) for
        sigma, sigma0 and sigma1.  A skipped variance update draws no gammas,
        and its shape is not checked."""
        obs, re = "obs_variance" not in skipped, "re_sds" not in skipped
        if obs:
            _check_shape(self.obs_shape)
        if re:
            _check_shape(self.re_shape)
        while True:
            z = self._normals(rng.standard_normal((BLOCK, 1 + 2 * self.C)))
            g_obs = rng.standard_gamma(self.obs_shape, BLOCK).tolist() if obs else repeat(None)
            g_re = rng.standard_gamma(self.re_shape, (BLOCK, 2)).tolist() if re else repeat(None)
            u = rng.random((BLOCK, 3)).tolist()
            yield from zip(*z, g_obs, g_re, u)

    def _normals(self, z: np.ndarray):
        """A block's normals as its sweeps' beta0 floats and b0, b1 rows."""
        return z[:, 0].tolist(), z[:, 1:self.C + 1], z[:, self.C + 1:]

    def update_intercept(self, z: float, collapsed: bool) -> None:
        """Draw beta0 given z̄, with the random intercepts integrated out
        when ``collapsed``, else given them.  Collapsed, country c contributes
        z̄_c ~ N(beta0, sigma0² + sigma²/n_c), with weight
        n_c / (n_c·sigma0² + sigma²): 0 for a country without rows."""
        s, zbar = self.s, self.carried_zbar
        if collapsed:
            w = s.n / (s.n * self.sigma0**2 + self.sigma**2)
            prec, lin = float(w.sum()), float(np.vdot(w, zbar))
        else:
            s2 = self.sigma * self.sigma
            prec, lin = self.n_obs / s2, float(np.vdot(s.n, zbar - self.b0)) / s2
        mean, var = conj_normal(self.prior_var, prec, lin)
        self.beta0 = mean + math.sqrt(var) * z

    def update_random_effects(self, z_b0, z_b1) -> None:
        """Draw the intercept effects, then the slope effects unless z_b1 is
        None, and carry the new z̄.  Each precision is taken times sigma²."""
        s, b0 = self.s, self.b0
        s2 = self.sigma * self.sigma
        prec = s2 / self.sigma0**2 + s.n
        np.add(s.n * (self.carried_zbar - self.beta0) / prec, np.sqrt(s2 / prec) * z_b0, out=b0)
        if z_b1 is not None:
            prec = s2 / self.sigma1**2 + s.sum_t2
            mean = (s.sty + s.n_tbar * (s.ybar - self.beta0 - b0)) / prec
            np.add(mean, np.sqrt(s2 / prec) * z_b1, out=self.b1)
            self.zbar()

    def residual_ss(self) -> float:
        """Σ (y − beta0 − b0_c − b1_c·t)² over the panel."""
        return self.s.residual_ss(self.beta0 + self.b0, self.b1)

    def update_obs_variance(self, g: float, u: float) -> None:
        self.sigma = _draw_obs_sd(self, self.residual_ss(), g, u)

    def update_re_sd(self, g, u, sd1: bool) -> None:
        """Draw sigma0, then sigma1 if ``sd1``, from the standard gammas g
        and the uniforms u."""
        self.sigma0 = _draw_re_sd(self, float(np.vdot(self.b0, self.b0)), g[0], u[0])
        if sd1:
            self.sigma1 = _draw_re_sd(self, float(np.vdot(self.b1, self.b1)), g[1], u[1])

    def sweep(self, numbers, skipped: frozenset[str]) -> None:
        """One sweep, given its row of ``numbers``."""
        z, z_b0, z_b1, g_obs, g_re, u = numbers
        effects = "random_effects" not in skipped
        self.update_intercept(z, collapsed=effects)
        if effects:
            self.update_random_effects(z_b0, None if "re_slopes" in skipped else z_b1)
        if "obs_variance" not in skipped:
            self.update_obs_variance(g_obs, u[0])
        if "re_sds" not in skipped:
            self.update_re_sd(g_re, u[1:], "re_sd1" not in skipped)


class SmallTotalSampler(TotalSampler):
    """The total model's chain on Python floats, for panels of at most
    ``SMALL_C`` countries, where a numpy sweep is nearly all call overhead.

    ``run`` holds the state in local floats and lists for the whole chain.
    It takes ``TotalSampler.sweep``'s numbers, update order, variance draws
    and degenerate checks, so draws differ only in the order of summation.
    """

    def _normals(self, z: np.ndarray):
        C, rows = self.C, z.tolist()
        return [r[0] for r in rows], [r[1:C + 1] for r in rows], [r[C + 1:] for r in rows]

    def run(self, numbers, iterations: int, kept: range, out: np.ndarray,
            skipped: frozenset[str]) -> None:
        """Each sweep makes one pass over the countries for the intercept's
        sums, and one that draws b0_c, then b1_c, carries z̄_c = ȳ_c − b1_c·t̄_c
        to the next sweep and sums what the variance draws read.  Kept rows
        are held as tuples and written into ``out`` a BLOCK at a time; the
        last sweep's state, z̄ included, is written back at the end."""
        effects = "random_effects" not in skipped
        slopes = effects and "re_slopes" not in skipped
        obs, re0 = "obs_variance" not in skipped, "re_sds" not in skipped
        re1 = re0 and "re_sd1" not in skipped
        s = self.s
        # per country: n, t̄, ȳ, Stt, Sty, Σt² and n·t̄
        stats = list(zip(*(
            a[0].tolist() for a in (s.n, s.tbar, s.ybar, s.stt, s.sty, s.sum_t2, s.n_tbar)
        )))
        ns, syy_sum, prior_var = s.n[0].tolist(), s.syy_sum, self.prior_var
        beta0, sigma, sigma0, sigma1 = self.beta0, self.sigma, self.sigma0, self.sigma1
        b0, b1 = self.effects.tolist()
        zbar = self.carried_zbar[0].tolist()
        keep, rows, j = iter(kept), [], 0
        keep_at = next(keep, -1)
        for it, (z, z_b0, z_b1, g_obs, g_re, u) in zip(range(iterations), numbers):
            s2 = sigma * sigma
            prec = lin = 0.0
            if effects:  # collapsed: z̄_c ~ N(beta0, sigma0² + sigma²/n_c)
                s02 = sigma0 * sigma0
                for n, zb in zip(ns, zbar):
                    w = n / (n * s02 + s2)
                    prec += w
                    lin += w * zb
            else:  # plain, given the frozen b0
                for n, zb, b in zip(ns, zbar, b0):
                    lin += n * (zb - b)
                prec, lin = self.n_obs / s2, lin / s2
            mean, var = conj_normal(prior_var, prec, lin)
            beta0 = mean + math.sqrt(var) * z
            r0, r1 = s2 / (sigma0 * sigma0), s2 / (sigma1 * sigma1)
            rss = ss0 = ss1 = 0.0
            for k, ((n, tbar, ybar, stt, sty, sum_t2, n_tbar), zb, e0, e1, x0, x1) in enumerate(
                    zip(stats, zbar, b0, b1, z_b0, z_b1)):
                if effects:
                    p = r0 + n  # conditional precisions times sigma²
                    b0[k] = e0 = n * (zb - beta0) / p + math.sqrt(s2 / p) * x0
                    if slopes:
                        p = r1 + sum_t2
                        b1[k] = e1 = ((sty + n_tbar * (ybar - beta0 - e0)) / p
                                      + math.sqrt(s2 / p) * x1)
                        zbar[k] = zb = ybar - e1 * tbar
                if obs:
                    d = zb - beta0 - e0
                    rss += e1 * (e1 * stt - 2.0 * sty) + n * d * d
                ss0 += e0 * e0
                ss1 += e1 * e1
            if obs:
                sigma = _draw_obs_sd(self, syy_sum + rss, g_obs, u[0])
            if re0:
                sigma0 = _draw_re_sd(self, ss0, g_re[0], u[1])
                if re1:
                    sigma1 = _draw_re_sd(self, ss1, g_re[1], u[2])
            if it == keep_at:
                rows.append((beta0, sigma, sigma0, sigma1, *b0, *b1))
                keep_at = next(keep, -1)
                if len(rows) == BLOCK:
                    out[j:j + BLOCK] = rows
                    j += BLOCK
                    rows = []
        if rows:
            out[j:j + len(rows)] = rows
        self.beta0, self.sigma, self.sigma0, self.sigma1 = beta0, sigma, sigma0, sigma1
        self.effects[...] = b0, b1
        self.carried_zbar[0] = zbar


class JointSampler(_Sampler):
    """Mutable sampling state for the shared-parameter joint model.  Each
    stream statistic of ``model_streams`` is one (2, C) array, a row per
    sector (industrial, artisanal); ``beta`` is the intercept pair
    and ``effects`` one (4, C) block in draw-column order (b0_I, b0_A, b1_I,
    b1_A): rows :2 are the intercept-effect pairs, rows 2: the slope pairs."""

    kind = "joint"
    # the negative controls of a calibration check
    skip_keys = frozenset({"obs_variance", "cov_params"})

    def __init__(self, data: Dataset, priors: PriorSpec, state: ModelState):
        super().__init__(data, priors)
        s = self.s
        # the rows each effect block adds to its precision's diagonal, times sigma²
        self.data_prec = (tuple(s.n), tuple(s.sum_t2))
        # the counts the collapsed intercept's weights are linear in: n_I·n_A, n_I, n_A
        self.n_basis = np.array([s.n[0] * s.n[1], *s.n])
        self.prior_prec = 1.0 / priors.intercept_sd**2
        # the IW proposal's degrees of freedom, and k/2 of its acceptance ratio
        self.nu = max(self.C - 1, 2)
        self.half_k = 0.5 * (self.nu + 1 - self.C)
        self.accepted = [0, 0]
        self.proposed = 0
        # the rows [1; z̄_I; z̄_A] that the collapsed intercept sums its weights
        # against; z̄ is carried from one slope draw, or set_state, to the next
        self.ones_zbar = np.ones((3, self.C))
        self.carried_zbar = self.ones_zbar[1:]
        self.set_state(state)

    def _set_params(self, p: JointParams) -> None:  # the parameters of a checked state
        assert isinstance(p, JointParams)
        build_covariance(p.sigma0_ind, p.sigma0_art, p.rho0)
        build_covariance(p.sigma1_ind, p.sigma1_art, p.rho1)
        self.beta = np.array([p.beta0_ind, p.beta0_art], dtype=float)
        self.beta_col = self.beta[:, None]  # a (2, 1) view, to broadcast over countries
        self.sigma = p.sigma
        self.sd0 = [p.sigma0_ind, p.sigma0_art]
        self.sd1 = [p.sigma1_ind, p.sigma1_art]
        self.rho = [p.rho0, p.rho1]
        self.log_w = [self._log_weight(*self.sd0, p.rho0), self._log_weight(*self.sd1, p.rho1)]

    def _fields(self):  # parameters and effects in the order of model.MODELS
        return (*self.beta, self.sigma, *self.sd0, *self.sd1, *self.rho), self.effects.ravel()

    def numbers(self, rng: np.random.Generator, skipped: frozenset[str]):
        """Each sweep's random numbers, drawn BLOCK sweeps at a time: normals
        (BLOCK, 4 + 4C) for the intercept pair, the effects block (the C
        intercept-effect pairs, then the C slope-effect pairs, yielded as one
        (4, C) slab) and each covariance block's Bartlett z; standard gammas
        at the shape (N - 1)/2 (BLOCK,); the chi-squares of the two IW draws
        as 2·Gamma(nu/2) and 2·Gamma((nu - 1)/2), each (BLOCK, 2); uniforms
        (BLOCK, 3) for sigma and the two MH steps.  A skipped update draws no
        gammas, and its shape or country count is not checked."""
        obs, cov = "obs_variance" not in skipped, "cov_params" not in skipped
        if obs:
            _check_shape(self.obs_shape)
        if cov and self.C < 2:
            raise DegenerateDataError("joint covariance needs at least 2 countries")
        C = self.C
        while True:
            z = rng.standard_normal((BLOCK, 4 + 4 * C))
            g_obs = rng.standard_gamma(self.obs_shape, BLOCK).tolist() if obs else repeat(None)
            if cov:
                c1 = (2.0 * rng.standard_gamma(self.nu / 2.0, (BLOCK, 2))).tolist()
                c2 = (2.0 * rng.standard_gamma((self.nu - 1) / 2.0, (BLOCK, 2))).tolist()
            else:
                c1 = c2 = repeat(None)
            u = rng.random((BLOCK, 3)).tolist()
            yield from zip(
                z[:, :2].tolist(),
                z[:, 2:2 + 4 * C].reshape(BLOCK, 4, C),
                z[:, 2 + 4 * C:].tolist(),
                g_obs, c1, c2, u,
            )

    def _prior_cov(self, block: int) -> tuple[float, float, float]:
        """(a11, a12, a22) of a block's effect-pair covariance, as
        ``model.build_covariance`` computes them."""
        sds = self.sd0 if block == 0 else self.sd1
        return sds[0] * sds[0], self.rho[block] * sds[0] * sds[1], sds[1] * sds[1]

    def _prior_prec(self, block: int) -> tuple[float, float, float]:
        """(q11, q12, q22) of the inverse of the block's covariance."""
        a11, a12, a22 = self._prior_cov(block)
        det = a11 * a22 - a12 * a12
        return a22 / det, -a12 / det, a11 / det

    def _log_weight(self, sd_1: float, sd_2: float, rho: float) -> float:
        """Log of target over proposal density at a block's (sd_1, sd_2, rho)."""
        omr = 1.0 - rho * rho
        return math.log(omr) + self.half_k * math.log((sd_1 * sd_2) ** 2 * omr)

    def update_intercepts_collapsed(self, z) -> None:
        """Draw (beta_I, beta_A) jointly with the intercept pairs integrated out.

        Country c's mean pair (z̄_I, z̄_A), z̄ = ȳ − b1·t̄, is normal around
        (beta_I, beta_A) with covariance V_c = cov0 + sigma²·diag(1/n_I, 1/n_A).
        Its precision V_c⁻¹ (q11, q22, q12) is written with n_I·n_A multiplied
        through, so a country with one sector adds only to that sector's entry
        and a country without rows adds nothing.  Its numerators and
        determinant are linear in (n_I·n_A, n_I, n_A), and one product with
        the rows [1; z̄_I; z̄_A] gives every sum the pair's conditional needs.
        """
        a11, a12, a22 = self._prior_cov(0)
        s2 = self.sigma * self.sigma
        det_cov0 = a11 * a22 * (1.0 - self.rho[0] ** 2)
        # rows: the numerators of q11, q22 and q12, and the determinant less sigma⁴
        num = np.array([a22, s2, 0.0, a11, 0.0, s2, -a12, 0.0, 0.0,
                        det_cov0, a11 * s2, a22 * s2]).reshape(4, 3) @ self.n_basis
        q = num[:3] / (num[3] + s2 * s2)
        (q11, qz11, _), (q22, _, qz22), (q12, qz12_i, qz12_a) = (q @ self.ones_zbar.T).tolist()
        pp = self.prior_prec
        self.beta[0], self.beta[1] = _draw_gauss2(
            pp + q11, q12, pp + q22, qz11 + qz12_a, qz22 + qz12_i, z
        )

    def update_random_effects(self, z_b0, z_b1) -> None:
        """Draw the intercept-effect pairs, then the slope-effect pairs, given
        their normals of shape (2, C), and carry the new z̄.  Each block's
        precision and linear term are taken times sigma², so its normals are
        scaled by sigma."""
        sigma = self.sigma
        s2 = sigma * sigma
        s, beta, e = self.s, self.beta_col, self.effects
        (n_i, n_a), (t2_i, t2_a) = self.data_prec
        q11, q12, q22 = self._prior_prec(0)
        h_i, h_a = s.n * (self.carried_zbar - beta)
        e[0], e[1] = _draw_gauss2(n_i + s2 * q11, s2 * q12, n_a + s2 * q22, h_i, h_a,
                                  sigma * z_b0)
        q11, q12, q22 = self._prior_prec(1)
        h_i, h_a = s.sty + s.n_tbar * (s.ybar - beta - e[:2])
        e[2], e[3] = _draw_gauss2(t2_i + s2 * q11, s2 * q12, t2_a + s2 * q22, h_i, h_a,
                                  sigma * z_b1)
        self.zbar()

    def residual_ss(self) -> float:
        """Σ (y − beta − b0_c − b1_c·t)² over both streams."""
        return self.s.residual_ss(self.beta_col + self.effects[:2], self.effects[2:])

    def update_obs_variance(self, g: float, u: float) -> None:
        self.sigma = _draw_obs_sd(self, self.residual_ss(), g, u)

    def update_cov_params(self, z, c1, c2, u) -> None:
        """One independence-MH step per covariance block, proposing IW(S, nu)
        from the Bartlett numbers z[k], c1[k], c2[k] and accepting at u[k].
        The current blocks' log weights are kept, not recomputed."""
        bound = self.priors.sd_bound
        self.proposed += 1
        S = (self.effects @ self.effects.T).tolist()  # both blocks' scatters at once
        for block, sds in enumerate((self.sd0, self.sd1)):
            k = 2 * block
            prop = _draw_inv_wishart_2x2(
                S[k][k], S[k][k + 1], S[k + 1][k + 1], c1[block], c2[block], z[block]
            )
            if not (prop[0] < bound and prop[1] < bound and abs(prop[2]) < 1.0):
                continue
            log_w = self._log_weight(*prop)
            la = log_w - self.log_w[block]
            if la >= 0.0 or u[block] < math.exp(la):
                sds[0], sds[1], self.rho[block] = prop
                self.log_w[block] = log_w
                self.accepted[block] += 1

    def sweep(self, numbers, skipped: frozenset[str]) -> None:
        """One sweep, given its row of ``numbers``."""
        z, z_e, z_iw, g_obs, c1, c2, u = numbers
        self.update_intercepts_collapsed(z)
        self.update_random_effects(z_e[:2], z_e[2:])
        if "obs_variance" not in skipped:
            self.update_obs_variance(g_obs, u[0])
        if "cov_params" not in skipped:
            self.update_cov_params(z_iw, c1, c2, u[1:])

    def acceptance(self) -> dict[str, float]:
        if not self.proposed:
            return {}
        return {f"cov{block}": n / self.proposed for block, n in enumerate(self.accepted)}


def write_values(sampler, row: np.ndarray) -> None:
    """Write a sampler's state into one draw row, in the column order of
    ``model.draw_names``: the parameters, then the effects, given flat in
    the block's row order."""
    params, effects = sampler._fields()
    row[:len(params)] = params
    row[len(params):] = effects


# -- initialization ----------------------------------------------------------


def _clip_sd(x: float, priors: PriorSpec) -> float:
    upper = min(9.9, 0.99 * priors.sd_bound)
    if not math.isfinite(x) or x <= 0:
        x = 0.1
    return min(max(x, 0.01), upper)


def initial_state(model_kind: str, data: Dataset, priors: PriorSpec = PriorSpec()) -> ModelState:
    """Deterministic moment-based starting point inside the prior support,
    by one rule for both models.  Per stream: the grand mean, and the sds of
    the country means and of the least-squares slopes over the countries
    with rows (1.0 when fewer than two have rows).  One residual sd
    √(RSS/N) of those per-country lines over every row (0.5 when N ≤ 1).
    Correlations and effects 0."""
    st = model_streams(model_kind, data)  # ConfigError for an unknown kind
    spec = model_spec(model_kind)
    slopes = np.divide(st.sty, st.stt, out=np.zeros_like(st.stt), where=st.stt > 0)
    rss = st.residual_ss(st.ybar - slopes * st.tbar, slopes)
    sigma = math.sqrt(max(rss, 0.0) / st.n_obs) if st.n_obs > 1 else 0.5
    grand = [float(n @ y / n.sum()) if n.any() else 0.0 for n, y in zip(st.n, st.ybar)]

    def spread(values):  # per stream: the sd over its countries with rows
        return [float(np.std(v[n > 0], ddof=1)) if np.count_nonzero(n) > 1 else 1.0
                for v, n in zip(values, st.n)]

    sds = [sigma, *spread(st.ybar - np.array(grand)[:, None]), *spread(slopes)]
    params = [*grand, *(_clip_sd(x, priors) for x in sds)]
    rhos = [0.0] * (len(spec.param_names) - len(params))
    zeros = {tag: np.zeros(data.n_countries) for tag in spec.effect_tags}
    return ModelState(spec.params(*params, *rhos), zeros)


# -- chain runners -----------------------------------------------------------


_SAMPLERS = {"total": TotalSampler, "joint": JointSampler}


def run_chain(
    model_kind: str,
    data: Dataset,
    config: ChainConfig,
    chain_index: int = 0,
    init_state: ModelState | None = None,
) -> ChainDraws:
    """Run one chain; fully deterministic given (config.seed, chain_index)."""
    names = draw_names(model_kind, data.labels)  # ConfigError for an unknown kind
    skipped = frozenset(config.skip_updates)
    bad = sorted(skipped - _SAMPLERS[model_kind].skip_keys)
    if bad:
        raise ConfigError(f"the {model_kind} model has no skip key {', '.join(map(repr, bad))}")
    state = init_state if init_state is not None else initial_state(model_kind, data, config.priors)
    small = model_kind == "total" and data.n_countries <= SMALL_C
    sampler = (SmallTotalSampler if small else _SAMPLERS[model_kind])(data, config.priors, state)
    numbers = sampler.numbers(chain_rng(config.seed, chain_index), skipped)
    out = np.empty((config.n_retained, len(names)))
    kept = range(config.burnin, config.burnin + len(out) * config.thin, config.thin)
    sampler.run(numbers, config.iterations, kept, out, skipped)
    return ChainDraws(names, out, sampler.acceptance(), chain_index)


def run_chains(
    model_kind: str,
    data: Dataset,
    config: ChainConfig,
    parallel: int = 1,
    init_state: ModelState | None = None,
) -> list[ChainDraws]:
    """Run config.chains independent chains, optionally in parallel.

    Output order is by chain index regardless of completion order, and the
    draws are identical whether chains run sequentially or concurrently.
    """
    if parallel < 1:
        raise ConfigError(f"parallel must be at least 1, got {parallel}")
    chain = partial(run_chain, model_kind, data, config, init_state=init_state)
    if parallel > 1 and config.chains > 1:
        from concurrent.futures import ProcessPoolExecutor  # only here: it loads multiprocessing
        with ProcessPoolExecutor(max_workers=min(parallel, config.chains)) as pool:
            return list(pool.map(chain, range(config.chains)))
    return [chain(k) for k in range(config.chains)]
