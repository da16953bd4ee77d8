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
of the naive scalar Gibbs scheme.  The plain scalar conditional is kept
for frozen-effects runs and validation.

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
from functools import cached_property

import numpy as np
from scipy.special import gammaincc, gammainccinv

from .errors import ConfigError, DegenerateDataError
from .model import (
    Cov2,
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
)

_SKIP_KEYS = {
    "intercepts",
    "random_effects",
    "re_intercepts",
    "re_slopes",
    "obs_variance",
    "re_sds",
    "re_sd0",
    "re_sd1",
    "cov_params",
}


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
        bad = set(self.skip_updates) - _SKIP_KEYS
        if bad:
            raise ConfigError(f"unknown skip keys {sorted(bad)}")
        if self.n_retained < 1:
            raise ConfigError("configuration retains no draws")

    @property
    def n_retained(self) -> int:
        return (self.iterations - self.burnin) // self.thin

    def skipped(self) -> frozenset[str]:
        out = set(self.skip_updates)
        if "random_effects" in out:
            out |= {"re_intercepts", "re_slopes"}
        if "re_sds" in out:
            out |= {"re_sd0", "re_sd1"}
        return frozenset(out)


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


def _draw_correlated_pairs(prior_cov, prec_add_1, prec_add_2, lin_1, lin_2, rng):
    """Vectorized bivariate-normal full-conditional draws for effect pairs."""
    q11, q12, q22 = prior_cov.inv_entries()
    a = q11 + prec_add_1
    d = q22 + prec_add_2
    det = a * d - q12 * q12
    c11 = d / det
    c12 = -q12 / det
    c22 = a / det
    m1 = c11 * lin_1 + c12 * lin_2
    m2 = c12 * lin_1 + c22 * lin_2
    l11 = np.sqrt(c11)
    l21 = c12 / l11
    l22 = np.sqrt(c22 - l21 * l21)
    z = rng.standard_normal((2, np.shape(a)[0] if np.ndim(a) else 1))
    x1 = m1 + l11 * z[0]
    x2 = m2 + l21 * z[0] + l22 * z[1]
    return x1, x2


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
        collapsed = "re_intercepts" not in skipped
        if "intercepts" not in skipped:
            self.update_intercept(rng, collapsed)
        if "re_intercepts" not in skipped:
            self.update_random_intercepts(rng)
        if "re_slopes" not in skipped:
            self.update_random_slopes(rng)
        if "obs_variance" not in skipped:
            self.update_obs_variance(rng)
        if "re_sd0" not in skipped:
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
        p = state.params
        assert isinstance(p, JointParams)
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

    def _cov(self, which: int) -> Cov2:
        sds = self.sd0 if which == 0 else self.sd1
        return build_covariance(sds[0], sds[1], self.rho[which])

    def intercept_conditional_plain(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """Per-sector scalar conditionals (mean, var) with effects held fixed."""
        pv = self.priors.intercept_sd**2
        s2 = self.sigma * self.sigma
        si, sa = self.si, self.sa
        ri = float(si.n @ (si.ybar - self.b0_i - self.b1_i * si.tbar))
        ra = float(sa.n @ (sa.ybar - self.b0_a - self.b1_a * sa.tbar))
        return (
            conj_normal(pv, self.n_obs_i / s2, ri / s2),
            conj_normal(pv, self.n_obs_a / s2, ra / s2),
        )

    def update_intercepts_plain(self, rng) -> None:
        (mi, vi), (ma, va) = self.intercept_conditional_plain()
        self.beta_i = mi + math.sqrt(vi) * rng.standard_normal()
        self.beta_a = ma + math.sqrt(va) * rng.standard_normal()

    def update_intercepts_collapsed(self, rng) -> None:
        """Draw (beta_I, beta_A) jointly with the intercept pairs integrated out.

        Country c's mean pair (z̄_I, z̄_A), z̄ = ȳ − b1·t̄, is normal around
        (beta_I, beta_A) with covariance V_c = cov0 + sigma²·diag(1/n_I, 1/n_A).
        Its precision V_c⁻¹ is written with n_I·n_A multiplied through, so a
        country with one sector adds only to that sector's entry and a
        country without rows adds nothing.
        """
        s2 = self.sigma * self.sigma
        cov0 = self._cov(0)
        si, sa = self.si, self.sa
        ui = si.n * cov0.a11 + s2
        ua = sa.n * cov0.a22 + s2
        det = ui * ua - self.n_both * (cov0.a12 * cov0.a12)
        q11 = si.n * ua / det
        q22 = sa.n * ui / det
        q12 = -cov0.a12 * self.n_both / det
        zi = si.ybar - self.b1_i * si.tbar
        za = sa.ybar - self.b1_a * sa.tbar
        prior_prec = 1.0 / self.priors.intercept_sd**2
        p11 = prior_prec + float(q11.sum())
        p12 = float(q12.sum())
        p22 = prior_prec + float(q22.sum())
        h1 = float(q11 @ zi + q12 @ za)
        h2 = float(q12 @ zi + q22 @ za)
        det = p11 * p22 - p12 * p12
        c11, c12, c22 = p22 / det, -p12 / det, p11 / det
        m1 = c11 * h1 + c12 * h2
        m2 = c12 * h1 + c22 * h2
        l11 = math.sqrt(c11)
        l21 = c12 / l11
        l22 = math.sqrt(c22 - l21 * l21)
        z1, z2 = rng.standard_normal(2)
        self.beta_i = m1 + l11 * z1
        self.beta_a = m2 + l21 * z1 + l22 * z2

    def update_random_effects(self, rng) -> None:
        s2 = self.sigma * self.sigma
        si, sa = self.si, self.sa
        self.b0_i, self.b0_a = _draw_correlated_pairs(
            self._cov(0),
            si.n / s2,
            sa.n / s2,
            si.n * (si.ybar - self.beta_i - self.b1_i * si.tbar) / s2,
            sa.n * (sa.ybar - self.beta_a - self.b1_a * sa.tbar) / s2,
            rng,
        )
        self.b1_i, self.b1_a = _draw_correlated_pairs(
            self._cov(1),
            self.sum_t2_i / s2,
            self.sum_t2_a / s2,
            (si.sty + self.n_tbar_i * (si.ybar - self.beta_i - self.b0_i)) / s2,
            (sa.sty + self.n_tbar_a * (sa.ybar - self.beta_a - self.b0_a)) / s2,
            rng,
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
        collapsed = "re_intercepts" not in skipped
        if "intercepts" not in skipped:
            if collapsed:
                self.update_intercepts_collapsed(rng)
            else:
                self.update_intercepts_plain(rng)
        if "re_intercepts" not in skipped or "re_slopes" not in skipped:
            # intercept and slope pairs are drawn as blocks; skipping one
            # half of the pair structure is not supported for the joint model
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
    rng = chain_rng(config.seed, chain_index)
    state = init_state if init_state is not None else initial_state(model_kind, data, config.priors)
    sampler = _SAMPLERS[model_kind](data, config.priors, state)
    skipped = config.skipped()
    n_ret = config.n_retained
    out = np.empty((n_ret, len(names)))
    j = 0
    for it in range(config.iterations):
        sampler.sweep(rng, skipped)
        if it >= config.burnin and (it - config.burnin) % config.thin == 0 and j < n_ret:
            out[j] = sampler.values()
            j += 1
    return ChainDraws(names, out, sampler.acceptance(), chain_index)


def _run_chain_task(args):
    return run_chain(*args)


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
    tasks = [(model_kind, data, config, k, init_state) for k in range(config.chains)]
    if parallel > 1 and config.chains > 1:
        from concurrent.futures import ProcessPoolExecutor  # only here: it loads multiprocessing
        with ProcessPoolExecutor(max_workers=min(parallel, config.chains)) as pool:
            return list(pool.map(_run_chain_task, tasks))
    return [_run_chain_task(t) for t in tasks]
