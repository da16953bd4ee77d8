"""Metropolis-within-Gibbs engine for both landings models.

One sweep updates, in fixed order: fixed intercepts, random effects,
observation variance, random-effect scale parameters.  Conjugate blocks
are drawn exactly.  So are the variances, whose conditionals are
inverse-gamma laws truncated at the squared sd bound: each draw takes one
standard gamma and one uniform, with no rejection loop.  Each 2x2
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
statistics of each stream (``Dataset.stats``: n, t̄, ȳ, Stt, Sty, Syy),
computed once per dataset.  A sweep therefore does O(C) work in the
number of countries C, whatever the length of the panel.

Chains are deterministic given (seed, chain_index): chain c uses
``SeedSequence(entropy=seed, spawn_key=(c,))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np
from scipy.special import gammaincc, gammainccinv

from .errors import ConfigError, DegenerateCovarianceError, DegenerateDataError
from .model import (
    Dataset,
    JointEffects,
    JointParams,
    ModelState,
    PriorSpec,
    Sector,
    StreamStats,
    TotalEffects,
    TotalParams,
    build_covariance,
    draw_names,
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


# -- shared conjugate building blocks ---------------------------------------


def conj_normal(prior_var: float, lik_prec: float, lik_lin: float) -> tuple[float, float]:
    """Posterior (mean, var) of a normal mean with N(0, prior_var) prior.

    lik_prec is the likelihood precision contribution (e.g. n/sigma^2) and
    lik_lin the matching linear term (sum of weighted residuals / sigma^2).
    """
    prec = 1.0 / prior_var + lik_prec
    var = 1.0 / prec
    return lik_lin * var, var


def sample_trunc_invgamma_var(
    shape: float, rate: float, upper_var: float, rng: np.random.Generator
) -> float:
    """Draw a variance exactly from IG(shape, rate) truncated to (0, upper_var).

    Every call draws one standard gamma g and then one uniform u.  The
    untruncated draw rate / g is kept when it lies below the bound;
    otherwise g is replaced by the inverse-CDF draw of Gamma(shape)
    truncated to (rate / upper_var, inf), taken at 1 - u.  Both branches
    give the truncated law: P(accept and A) + P(reject) P_trunc(A) =
    P_trunc(A).
    """
    if shape <= 0:
        raise DegenerateDataError(f"improper variance conditional (shape {shape})")
    if rate <= 0:
        raise DegenerateDataError("zero residual sum of squares: degenerate conditional")
    g = rng.standard_gamma(shape)
    u = rng.random()
    if not rate < upper_var * g:
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
    shape, with z of shape (2,) or (2,) + that shape."""
    det = p11 * p22 - p12 * p12
    c11, c12, c22 = p22 / det, -p12 / det, p11 / det
    l11 = np.sqrt(c11)  # lower Cholesky factor of the covariance P^-1
    l21 = c12 / l11
    l22 = np.sqrt(c22 - l21 * l21)
    return c11 * h1 + c12 * h2 + l11 * z[0], c12 * h1 + c22 * h2 + l21 * z[0] + l22 * z[1]


def _draw_inv_wishart_2x2(s11, s12, s22, nu, rng) -> tuple[float, float, float]:
    """(sd_1, sd_2, rho) of one IW(S, nu) draw, by the Bartlett decomposition.

    Sigma = R (A A^T)^-1 R^T, with R the lower Cholesky factor of
    S = [[s11, s12], [s12, s22]] and A = [[sqrt(c1), 0], [z, sqrt(c2)]],
    where c1 ~ chi2(nu), c2 ~ chi2(nu - 1) and z ~ N(0, 1).
    """
    det_s = s11 * s22 - s12 * s12
    if not det_s > 0.0:
        raise DegenerateDataError("effect pairs are collinear: singular scatter")
    c1, c2 = rng.chisquare(nu), rng.chisquare(nu - 1)
    z = rng.standard_normal()
    r11 = math.sqrt(s11)
    r21 = s12 / r11
    r22 = math.sqrt(det_s / s11)
    m11 = (z * z + c2) / (c1 * c2)  # (A A^T)^-1 = [[m11, m12], [m12, 1/c2]]
    m12 = -z / (math.sqrt(c1) * c2)
    sd_1 = r11 * math.sqrt(m11)
    sd_2 = math.sqrt(r21 * r21 * m11 + 2.0 * r21 * r22 * m12 + r22 * r22 / c2)
    return sd_1, sd_2, r11 * (r21 * m11 + r22 * m12) / (sd_1 * sd_2)


# -- per-model caches and samplers ------------------------------------------


class TotalSampler:
    """Mutable sampling state for the total-landings model."""

    # frozen effects (criterion 1) or slopes (criterion 2), the variance
    # control of the calibration check, and frozen scale parameters
    skip_keys = frozenset({"random_effects", "re_slopes", "obs_variance", "re_sds", "re_sd1"})

    def __init__(self, data: Dataset, priors: PriorSpec, state: ModelState):
        self.s = data.stats(Sector.TOTAL)
        self.n_obs = self.s.n_obs
        if self.n_obs == 0:
            raise DegenerateDataError("total model requires total-sector observations")
        self.priors = priors
        self.C = data.n_countries
        self.sum_t2 = self.s.stt + self.s.n * self.s.tbar**2
        self.n_tbar = self.s.n * self.s.tbar
        self.set_state(state)

    def set_state(self, state: ModelState) -> None:
        p = state.params
        assert isinstance(p, TotalParams)
        self.beta0 = p.beta0
        self.sigma = p.sigma
        self.sigma0 = p.sigma0
        self.sigma1 = p.sigma1
        self.b0 = np.asarray(state.effects.b0, dtype=float).copy()
        self.b1 = np.asarray(state.effects.b1, dtype=float).copy()

    def _fields(self):  # parameters and effects in the order of model.MODELS
        return (self.beta0, self.sigma, self.sigma0, self.sigma1), (self.b0, self.b1)

    def get_state(self) -> ModelState:
        params, effects = self._fields()
        return ModelState(TotalParams(*params), TotalEffects(*(e.copy() for e in effects)))

    # conditional-parameter helpers (exact formulas, also used by tests)

    def intercept_conditional_plain(self) -> tuple[float, float]:
        s = self.s
        s2 = self.sigma * self.sigma
        resid_sum = float(s.n @ (s.ybar - self.b0 - self.b1 * s.tbar))
        return conj_normal(self.priors.intercept_sd**2, self.n_obs / s2, resid_sum / s2)

    def intercept_conditional_collapsed(self) -> tuple[float, float]:
        # country c contributes z̄_c = ȳ_c − b1_c·t̄_c ~ N(beta0, sigma0² + sigma²/n_c),
        # with weight n_c / (n_c·sigma0² + sigma²): 0 for a country without rows
        s = self.s
        w = s.n / (s.n * self.sigma0**2 + self.sigma**2)
        zbar = s.ybar - self.b1 * s.tbar
        return conj_normal(self.priors.intercept_sd**2, float(w.sum()), float(w @ zbar))

    def update_intercept(self, rng, collapsed: bool) -> None:
        mean, var = (
            self.intercept_conditional_collapsed()
            if collapsed
            else self.intercept_conditional_plain()
        )
        self.beta0 = mean + math.sqrt(var) * rng.standard_normal()

    def update_random_intercepts(self, rng) -> None:
        s = self.s
        s2 = self.sigma * self.sigma
        prec = s2 / self.sigma0**2 + s.n  # conditional precision times sigma²
        mean = s.n * (s.ybar - self.beta0 - self.b1 * s.tbar) / prec
        self.b0 = mean + np.sqrt(s2 / prec) * rng.standard_normal(self.C)

    def update_random_slopes(self, rng) -> None:
        s = self.s
        s2 = self.sigma * self.sigma
        prec = s2 / self.sigma1**2 + self.sum_t2  # conditional precision times sigma²
        mean = (s.sty + self.n_tbar * (s.ybar - self.beta0 - self.b0)) / prec
        self.b1 = mean + np.sqrt(s2 / prec) * rng.standard_normal(self.C)

    def update_obs_variance(self, rng) -> None:
        ss = self.s.residual_ss(self.beta0 + self.b0, self.b1)
        if self.n_obs > 1 and ss <= 0.0:
            raise DegenerateDataError("zero residual sum of squares with N > 1")
        v = sample_trunc_invgamma_var(
            (self.n_obs - 1) / 2.0, ss / 2.0, self.priors.sd_bound**2, rng
        )
        self.sigma = math.sqrt(v)

    def update_re_sd(self, which: int, rng) -> None:
        b = self.b0 if which == 0 else self.b1
        ss = float(b @ b)
        if self.C > 1 and ss == 0.0:
            raise DegenerateDataError("all random effects are zero: degenerate conditional")
        v = sample_trunc_invgamma_var((self.C - 1) / 2.0, ss / 2.0, self.priors.sd_bound**2, rng)
        if which == 0:
            self.sigma0 = math.sqrt(v)
        else:
            self.sigma1 = math.sqrt(v)

    def sweep(self, rng, skipped: frozenset[str]) -> None:
        effects = "random_effects" not in skipped
        self.update_intercept(rng, collapsed=effects)
        if effects:
            self.update_random_intercepts(rng)
            if "re_slopes" not in skipped:
                self.update_random_slopes(rng)
        if "obs_variance" not in skipped:
            self.update_obs_variance(rng)
        if "re_sds" not in skipped:
            self.update_re_sd(0, rng)
            if "re_sd1" not in skipped:
                self.update_re_sd(1, rng)

    def values(self) -> np.ndarray:
        params, effects = self._fields()
        return np.concatenate((params, *effects))

    def acceptance(self) -> dict[str, float]:
        return {}


class JointSampler:
    """Mutable sampling state for the shared-parameter joint model."""

    # the negative controls of a calibration check
    skip_keys = frozenset({"obs_variance", "cov_params"})

    def __init__(self, data: Dataset, priors: PriorSpec, state: ModelState):
        if Sector.TOTAL in data.sectors_present():
            raise DegenerateDataError("joint model cannot use total-sector observations")
        self.priors = priors
        self.C = data.n_countries
        self.si = data.stats(Sector.INDUSTRIAL)
        self.sa = data.stats(Sector.ARTISANAL)
        self.n_obs_i = self.si.n_obs
        self.n_obs_a = self.sa.n_obs
        self.n_both = self.si.n * self.sa.n
        self.sum_t2_i = self.si.stt + self.si.n * self.si.tbar**2
        self.sum_t2_a = self.sa.stt + self.sa.n * self.sa.tbar**2
        self.n_tbar_i = self.si.n * self.si.tbar
        self.n_tbar_a = self.sa.n * self.sa.tbar
        self.accepted = [0, 0]
        self.proposed = 0
        self.set_state(state)

    def set_state(self, state: ModelState) -> None:
        """Take ``state``, checked once here: the updates trust every later
        state, which they keep inside the prior support."""
        p = state.params
        assert isinstance(p, JointParams)
        for name, x in params_to_dict(p).items():
            support = self.priors.support(name)
            if support and not support[0] < x < support[1]:
                raise DegenerateCovarianceError(f"starting {name} = {x} is outside {support}")
        build_covariance(p.sigma0_ind, p.sigma0_art, p.rho0)
        build_covariance(p.sigma1_ind, p.sigma1_art, p.rho1)
        self.beta_i = p.beta0_ind
        self.beta_a = p.beta0_art
        self.sigma = p.sigma
        self.sd0 = [p.sigma0_ind, p.sigma0_art]
        self.sd1 = [p.sigma1_ind, p.sigma1_art]
        self.rho = [p.rho0, p.rho1]
        e = state.effects
        self.b0_i = np.asarray(e.b0_ind, dtype=float).copy()
        self.b0_a = np.asarray(e.b0_art, dtype=float).copy()
        self.b1_i = np.asarray(e.b1_ind, dtype=float).copy()
        self.b1_a = np.asarray(e.b1_art, dtype=float).copy()

    def _fields(self):  # parameters and effects in the order of model.MODELS
        params = (self.beta_i, self.beta_a, self.sigma, *self.sd0, *self.sd1, *self.rho)
        return params, (self.b0_i, self.b0_a, self.b1_i, self.b1_a)

    def get_state(self) -> ModelState:
        params, effects = self._fields()
        return ModelState(JointParams(*params), JointEffects(*(e.copy() for e in effects)))

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

    def update_intercepts_collapsed(self, rng) -> None:
        """Draw (beta_I, beta_A) jointly with the intercept pairs integrated out.

        Country c's mean pair (z̄_I, z̄_A), z̄ = ȳ − b1·t̄, is normal around
        (beta_I, beta_A) with covariance V_c = cov0 + sigma²·diag(1/n_I, 1/n_A).
        Its precision V_c⁻¹ is written with n_I·n_A multiplied through, so a
        country with one sector adds only to that sector's entry and a
        country without rows adds nothing.
        """
        s2 = self.sigma * self.sigma
        a11, a12, a22 = self._prior_cov(0)
        si, sa = self.si, self.sa
        ui = si.n * a11 + s2
        ua = sa.n * a22 + s2
        det = ui * ua - self.n_both * (a12 * a12)
        q11 = si.n * ua / det
        q22 = sa.n * ui / det
        q12 = -a12 * self.n_both / det
        zi = si.ybar - self.b1_i * si.tbar
        za = sa.ybar - self.b1_a * sa.tbar
        prior_prec = 1.0 / self.priors.intercept_sd**2
        self.beta_i, self.beta_a = _draw_gauss2(
            prior_prec + float(q11.sum()),
            float(q12.sum()),
            prior_prec + float(q22.sum()),
            float(q11 @ zi + q12 @ za),
            float(q12 @ zi + q22 @ za),
            rng.standard_normal(2),
        )

    def update_random_effects(self, rng) -> None:
        s2 = self.sigma * self.sigma
        si, sa = self.si, self.sa
        q11, q12, q22 = self._prior_prec(0)
        self.b0_i, self.b0_a = _draw_gauss2(
            q11 + si.n / s2,
            q12,
            q22 + sa.n / s2,
            si.n * (si.ybar - self.beta_i - self.b1_i * si.tbar) / s2,
            sa.n * (sa.ybar - self.beta_a - self.b1_a * sa.tbar) / s2,
            rng.standard_normal((2, self.C)),
        )
        q11, q12, q22 = self._prior_prec(1)
        self.b1_i, self.b1_a = _draw_gauss2(
            q11 + self.sum_t2_i / s2,
            q12,
            q22 + self.sum_t2_a / s2,
            (si.sty + self.n_tbar_i * (si.ybar - self.beta_i - self.b0_i)) / s2,
            (sa.sty + self.n_tbar_a * (sa.ybar - self.beta_a - self.b0_a)) / s2,
            rng.standard_normal((2, self.C)),
        )

    def update_obs_variance(self, rng) -> None:
        ss = self.si.residual_ss(self.beta_i + self.b0_i, self.b1_i) + self.sa.residual_ss(
            self.beta_a + self.b0_a, self.b1_a
        )
        n = self.n_obs_i + self.n_obs_a
        if n > 1 and ss <= 0.0:
            raise DegenerateDataError("zero residual sum of squares with N > 1")
        v = sample_trunc_invgamma_var((n - 1) / 2.0, ss / 2.0, self.priors.sd_bound**2, rng)
        self.sigma = math.sqrt(v)

    def update_cov_params(self, rng) -> None:
        """One independence-MH step per covariance block, proposing IW(S, nu)."""
        if self.C < 2:
            raise DegenerateDataError("joint covariance needs at least 2 countries")
        nu = max(self.C - 1, 2)
        half_k = 0.5 * (nu + 1 - self.C)
        bound = self.priors.sd_bound

        def log_weight(sd_1, sd_2, rho):  # log of target / proposal density
            omr = 1.0 - rho * rho
            return math.log(omr) + half_k * math.log((sd_1 * sd_2) ** 2 * omr)

        self.proposed += 1
        for block, (x1, x2, sds) in enumerate(
            ((self.b0_i, self.b0_a, self.sd0), (self.b1_i, self.b1_a, self.sd1))
        ):
            prop = _draw_inv_wishart_2x2(float(x1 @ x1), float(x1 @ x2), float(x2 @ x2), nu, rng)
            u = rng.random()
            if not (prop[0] < bound and prop[1] < bound and abs(prop[2]) < 1.0):
                continue
            la = log_weight(*prop) - log_weight(sds[0], sds[1], self.rho[block])
            if la >= 0.0 or u < math.exp(la):
                sds[0], sds[1], self.rho[block] = prop
                self.accepted[block] += 1

    def sweep(self, rng, skipped: frozenset[str]) -> None:
        self.update_intercepts_collapsed(rng)
        self.update_random_effects(rng)
        if "obs_variance" not in skipped:
            self.update_obs_variance(rng)
        if "cov_params" not in skipped:
            self.update_cov_params(rng)

    def values(self) -> np.ndarray:
        params, effects = self._fields()
        return np.concatenate((params, *effects))

    def acceptance(self) -> dict[str, float]:
        if not self.proposed:
            return {}
        return {f"cov{block}": n / self.proposed for block, n in enumerate(self.accepted)}


# -- initialization ----------------------------------------------------------


def _clip_sd(x: float, priors: PriorSpec) -> float:
    upper = min(9.9, 0.99 * priors.sd_bound)
    if not math.isfinite(x) or x <= 0:
        x = 0.1
    return min(max(x, 0.01), upper)


def _moment_estimates(s: StreamStats):
    """Grand mean, per-country means/slopes and a pooled residual sd."""
    n_obs = s.n_obs
    grand = float(s.n @ s.ybar) / n_obs if n_obs else 0.0
    slopes = np.divide(s.sty, s.stt, out=np.zeros_like(s.stt), where=s.stt > 0)
    ss = s.residual_ss(s.ybar - slopes * s.tbar, slopes)
    resid_sd = math.sqrt(max(ss, 0.0) / n_obs) if n_obs > 1 else 0.5
    return grand, s.ybar, slopes, resid_sd


def initial_state(model_kind: str, data: Dataset, priors: PriorSpec = PriorSpec()) -> ModelState:
    """Deterministic moment-based starting point inside the prior support."""
    C = data.n_countries
    if model_kind == "total":
        grand, means, slopes, resid_sd = _moment_estimates(data.stats(Sector.TOTAL))
        sigma0 = float(np.std(means - grand, ddof=1)) if C > 1 else 1.0
        sigma1 = float(np.std(slopes, ddof=1)) if C > 1 else 0.1
        params = TotalParams(
            grand,
            _clip_sd(resid_sd, priors),
            _clip_sd(sigma0, priors),
            _clip_sd(sigma1, priors),
        )
        return ModelState(params, TotalEffects(np.zeros(C), np.zeros(C)))
    if model_kind == "joint":
        si = data.stats(Sector.INDUSTRIAL)
        sa = data.stats(Sector.ARTISANAL)
        grand_i, means_i, slopes_i, rsd_i = _moment_estimates(si)
        grand_a, means_a, slopes_a, rsd_a = _moment_estimates(sa)
        n_i, n_a = si.n_obs, sa.n_obs
        n_tot = n_i + n_a
        resid_sd = (n_i * rsd_i + n_a * rsd_a) / n_tot if n_tot else 0.5

        def spread(values, mask_counts):
            active = values[mask_counts > 0]
            return float(np.std(active, ddof=1)) if len(active) > 1 else 1.0

        params = JointParams(
            grand_i,
            grand_a,
            _clip_sd(resid_sd, priors),
            _clip_sd(spread(means_i - grand_i, si.n), priors),
            _clip_sd(spread(means_a - grand_a, sa.n), priors),
            _clip_sd(spread(slopes_i, si.n), priors),
            _clip_sd(spread(slopes_a, sa.n), priors),
            0.0,
            0.0,
        )
        return ModelState(
            params, JointEffects(np.zeros(C), np.zeros(C), np.zeros(C), np.zeros(C))
        )
    raise ConfigError(f"unknown model kind {model_kind!r}")


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
    rng = chain_rng(config.seed, chain_index)
    state = init_state if init_state is not None else initial_state(model_kind, data, config.priors)
    sampler = _SAMPLERS[model_kind](data, config.priors, state)
    n_ret = config.n_retained
    out = np.empty((n_ret, len(names)))
    j = 0
    for it in range(config.iterations):
        sampler.sweep(rng, skipped)
        if it >= config.burnin and (it - config.burnin) % config.thin == 0 and j < n_ret:
            out[j] = sampler.values()
            j += 1
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
