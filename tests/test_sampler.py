import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import special

import landmix.sampler as sampler_module
from landmix.errors import ConfigError, DegenerateCovarianceError, DegenerateDataError
from landmix.model import (
    MODELS,
    JointParams,
    ModelState,
    PriorSpec,
    Sector,
    TotalParams,
    build_covariance,
    draw_names,
    log_density,
    params_to_dict,
)
from landmix.sampler import (
    BLOCK,
    SMALL_C,
    ChainConfig,
    JointSampler,
    SmallTotalSampler,
    TotalSampler,
    _check_shape,
    _draw_gauss2,
    _draw_inv_wishart_2x2,
    chain_rng,
    conj_normal,
    initial_state,
    run_chain,
    run_chains,
    sample_trunc_invgamma_var,
    write_values,
)
from landmix.data import simulate_dataset
from landmix.oracle import GridSpec, grid_log_posterior

from conftest import joint_state, make_joint_dataset, make_total_dataset, total_state


def drawn(sampler, state, update, z):
    """The state that ``update(sampler, z)`` leaves from ``state``."""
    sampler.set_state(state)
    update(sampler, z)
    return sampler.get_state()


def normal_draws(sampler, state, update, read, size):
    """(mean, var) of independent normal draws, read off the live update: its
    draw at z = 0, and the square of its step from z = 0 to z = 1."""
    at0 = read(drawn(sampler, state, update, np.zeros(size)))
    at1 = read(drawn(sampler, state, update, np.ones(size)))
    return at0, (at1 - at0) ** 2


def pair_draws(sampler, state, update, read, size):
    """Mean and covariance (c11, c12, c22) of correlated pair draws, read off
    the live update at z = 0 and at the two unit vectors of its Cholesky
    factor."""

    def at(z1, z2):
        return read(drawn(sampler, state, update, np.stack([z1, z2])))

    zero, one = np.zeros(size), np.ones(size)
    m1, m2 = at(zero, zero)
    x1, x2 = at(one, zero)
    _, y2 = at(zero, one)
    l11, l21, l22 = x1 - m1, x2 - m2, y2 - m2
    return (m1, m2), (l11 * l11, l11 * l21, l21 * l21 + l22 * l22)


# each update with its normals z
def plain_intercept(s, z):
    s.update_intercept(float(z), collapsed=False)


def collapsed_intercept(s, z):
    s.update_intercept(float(z), collapsed=True)


def random_intercepts(s, z):  # with the slopes frozen
    s.update_random_effects(z, None)


def random_slopes(s, z):  # the intercepts are drawn first, at their mean (normals 0)
    s.update_random_effects(np.zeros_like(z), z)


def intercept_pair(s, z):
    s.update_intercepts_collapsed(z.ravel())


def b0_pairs(s, z):
    s.update_random_effects(z, np.zeros_like(z))


def b1_pairs(s, z):  # the intercept pairs are drawn first, at their mean (normals 0)
    s.update_random_effects(np.zeros_like(z), z)


def trunc_ig(shape, rate, upper, rng):
    """A truncated inverse-gamma draw from one gamma and then one uniform of ``rng``."""
    return sample_trunc_invgamma_var(shape, rate, upper, rng.standard_gamma(shape), rng.random())


# The total model's float kernel has no update methods: it is checked through
# ``SmallTotalSampler.run``, one sweep or one chain at a time, beside each
# check of the numpy kernel's updates.  Skipping the effects and both variance
# blocks leaves the plain intercept draw; skipping the variances alone, the
# collapsed intercept draw and the effects.
PLAIN = ("random_effects", "obs_variance", "re_sds")
NO_VARIANCES = ("obs_variance", "re_sds")


def float_chain(sampler, rows, skipped):
    """The draw matrix of one ``SmallTotalSampler.run`` that keeps every
    sweep, on the number rows ``rows``."""
    rows = list(rows)
    out = np.full((len(rows), 4 + 2 * sampler.C), np.nan)
    sampler.run(iter(rows), len(rows), range(len(rows)), out, frozenset(skipped))
    return out


def float_sweep(sampler, state, skipped, z=0.0, z_b0=0.0, z_b1=0.0, g_obs=None,
                g_re=(None, None), u=(0.5, 0.5, 0.5)):
    """The state that one float sweep leaves from ``state``, given its
    numbers; a float z_b0 or z_b1 is every country's normal.  The sweep's kept
    row must be that state."""
    C = sampler.C
    sampler.set_state(state)
    row = (z, np.broadcast_to(z_b0, C).tolist(), np.broadcast_to(z_b1, C).tolist(), g_obs,
           list(g_re), list(u))
    kept = float_chain(sampler, [row], skipped)[0]
    out = sampler.get_state()
    assert np.array_equal(kept, [*vars(out.params).values(), *out.effects["b0"],
                                 *out.effects["b1"]])
    return out


def float_normal_draws(sampler, state, skipped, read, key):
    """(mean, var) of a float sweep's normal draw, read off the sweep at the
    normals ``key`` = 0 and = 1, every other normal 0."""
    at0 = read(float_sweep(sampler, state, skipped, **{key: 0.0}))
    at1 = read(float_sweep(sampler, state, skipped, **{key: 1.0}))
    return at0, (at1 - at0) ** 2


def beta0_of(state):
    return state.params.beta0


def b0_pair(state):
    return state.effects["b0_I"], state.effects["b0_A"]


def b1_pair(state):
    return state.effects["b1_I"], state.effects["b1_A"]


class TestConjugateFormulas:
    def test_intercept_single_residual(self):
        mean, var = conj_normal(100.0, 1.0, 10.0)
        assert mean == pytest.approx(9.90099, abs=1e-5)
        assert var == pytest.approx(0.990099, abs=1e-6)

    def test_intercept_no_observations_returns_prior(self):
        mean, var = conj_normal(100.0, 0.0, 0.0)
        assert (mean, var) == (0.0, 100.0)

    def test_intercept_two_residuals(self):
        mean, var = conj_normal(100.0, 2.0, 10.0)
        assert 1.0 / var == pytest.approx(2.01, rel=1e-12)
        assert mean == pytest.approx(10.0 / 2.01, rel=1e-12)

    def test_plain_conditional_from_dataset(self):
        data = make_total_dataset([(0, 0, 4.0), (0, 1, 6.0)], 1)
        state = total_state(0.0, 1.0, 1.0, 1.0, [0.0], [0.0])
        s = TotalSampler(data, PriorSpec(), state)
        small = SmallTotalSampler(data, PriorSpec(), state)
        for mean, var in (normal_draws(s, state, plain_intercept, beta0_of, ()),
                          float_normal_draws(small, state, PLAIN, beta0_of, "z")):
            assert mean == pytest.approx(10.0 / 2.01, rel=1e-10)
            assert var == pytest.approx(1.0 / 2.01, rel=1e-10)

    def test_random_effect_conditional(self):
        # prior N(0,1), sigma=1, one residual 2 at unit design -> N(1, 0.5)
        mean, var = conj_normal(1.0, 1.0, 2.0)
        assert (mean, var) == (1.0, 0.5)

    def test_country_without_data_draws_from_prior(self, rng):
        data = make_total_dataset([(0, t, 1.0) for t in range(3)], 2)
        state = total_state(1.0, 1.0, 1.0, 1.0, [0.0, 0.0], [0.0, 0.0])
        s = TotalSampler(data, PriorSpec(), state)
        small = SmallTotalSampler(data, PriorSpec(), state)

        def numpy_draw(z):
            s.set_state(state)
            s.update_random_effects(z, None)
            return s.get_state()

        def float_draw(z):
            return float_sweep(small, state, ("re_slopes",) + NO_VARIANCES, rng.standard_normal(), z)

        for update in (numpy_draw, float_draw):
            draws = np.asarray([update(rng.standard_normal(2)).effects["b0"][1]
                                for _ in range(4000)])
            assert np.mean(draws) == pytest.approx(0.0, abs=4 / math.sqrt(4000))
            assert np.std(draws) == pytest.approx(1.0, rel=0.1)

    def test_slope_with_zero_leverage_equals_prior(self, rng):
        # observations only at t=0: slope conditional reduces to its prior
        data = make_total_dataset([(0, 0, 5.0)], 1)
        state = total_state(0.0, 1.0, 1.0, 2.0, [0.0], [0.0])
        s = TotalSampler(data, PriorSpec(), state)
        small = SmallTotalSampler(data, PriorSpec(), state)
        for _, var in (normal_draws(s, state, random_slopes, lambda st: st.effects["b1"], 1),
                       float_normal_draws(small, state, NO_VARIANCES, lambda st: st.effects["b1"],
                                          "z_b1")):
            assert 1.0 / var[0] == pytest.approx(1.0 / 4.0)


class TestCollapsedIntercept:
    def test_total_matches_numeric_integration(self):
        data = make_total_dataset([(0, 0, 1.0), (0, 1, 2.0), (1, 0, 0.5)], 2)
        state = total_state(0.0, 0.7, 1.3, 1.0, [0.0, 0.0], [0.1, -0.2])
        betas = np.linspace(-6, 6, 4001)
        bgrid = np.linspace(-8, 8, 2001)
        logp = -0.5 * (betas / 10.0) ** 2
        z = {0: [1.0 - 0.1 * 0, 2.0 - 0.1 * 1], 1: [0.5 + 0.2 * 0]}
        for c, zs in z.items():
            like = np.ones((len(betas), len(bgrid)))
            for zval in zs:
                like *= np.exp(
                    -0.5 * ((zval - betas[:, None] - bgrid[None, :]) / 0.7) ** 2
                )
            like *= np.exp(-0.5 * (bgrid / 1.3) ** 2)[None, :]
            logp += np.log(np.trapezoid(like, bgrid, axis=1))
        w = np.exp(logp - logp.max())
        w /= np.trapezoid(w, betas)
        num_mean = np.trapezoid(w * betas, betas)
        num_var = np.trapezoid(w * (betas - num_mean) ** 2, betas)
        s = TotalSampler(data, PriorSpec(), state)
        small = SmallTotalSampler(data, PriorSpec(), state)
        for mean, var in (normal_draws(s, state, collapsed_intercept, beta0_of, ()),
                          float_normal_draws(small, state, NO_VARIANCES, beta0_of, "z")):
            assert mean == pytest.approx(num_mean, abs=2e-3)
            assert var == pytest.approx(num_var, rel=2e-2)

    def test_joint_matches_plain_when_effects_uninformative(self, rng):
        # with huge prior effect sds the collapsed conditional carries almost
        # no data information and approaches the intercept prior
        data = make_joint_dataset([(0, 0, Sector.INDUSTRIAL, 8.0)], 1)
        state = joint_state((0, 0, 1, 9.9, 9.9, 1, 1, 0.0, 0.0), [0.0], [0.0], [0.0], [0.0])
        s = JointSampler(data, PriorSpec(), state)
        draws = []
        for _ in range(4000):
            s.beta[0] = 0.0
            s.update_intercepts_collapsed(rng.standard_normal(2))
            draws.append(s.get_state().params.beta0_ind)
        sd = np.std(draws)
        expected = math.sqrt(1.0 / (1.0 / 100.0 + 1.0 / (9.9**2 + 1.0)))
        assert sd == pytest.approx(expected, rel=0.07)


class TestJointPairConditional:
    def test_missing_sector_informed_through_correlation(self):
        # a country with industrial rows only: its artisanal intercept is
        # informed through the correlation alone, E[b_A | b_I] = rho (sd_A / sd_I) b_I
        sd_i, sd_a, rho = 1.4, 2.2, 0.9
        data = make_joint_dataset(
            [(0, t, Sector.INDUSTRIAL, 3.0 + 0.1 * t) for t in range(5)], 1
        )
        state = joint_state((0, 0, 1, sd_i, sd_a, 1, 1, rho, 0.0), [0.0], [0.0], [0.0], [0.0])
        s = JointSampler(data, PriorSpec(), state)
        (m_i, m_a), (c11, c12, c22) = pair_draws(s, state, b0_pairs, b0_pair, 1)
        slope = rho * sd_a / sd_i
        assert m_a[0] == pytest.approx(slope * m_i[0], rel=1e-12)
        assert c12[0] / c11[0] == pytest.approx(slope, rel=1e-12)
        # given b_I, b_A keeps the prior's residual spread sd_A^2 (1 - rho^2)
        assert c22[0] - c12[0] ** 2 / c11[0] == pytest.approx(sd_a**2 * (1 - rho**2), rel=1e-12)
        # the bare kernel, with industrial information only: precision 5, linear term 3
        q = np.linalg.inv(build_covariance(sd_i, sd_a, rho))
        m_i, m_a = _draw_gauss2(q[0, 0] + 5.0, q[0, 1], q[1, 1], 3.0, 0.0, np.zeros(2))
        x_i, x_a = _draw_gauss2(q[0, 0] + 5.0, q[0, 1], q[1, 1], 3.0, 0.0, np.array([1.0, 0.0]))
        assert m_a == pytest.approx(slope * m_i, rel=1e-12)
        assert x_a - m_a == pytest.approx(slope * (x_i - m_i), rel=1e-12)

    def test_zero_correlation_factorizes(self, rng):
        data = make_joint_dataset(
            [(0, 0, Sector.INDUSTRIAL, 2.0), (0, 0, Sector.ARTISANAL, -1.0)], 1
        )
        state = joint_state((0, 0, 1, 1, 1, 1, 1, 0.0, 0.0), [0.0], [0.0], [0.0], [0.0])
        s = JointSampler(data, PriorSpec(), state)
        draws_i, draws_a = [], []
        for _ in range(6000):
            s.set_state(state)
            s.update_random_effects(rng.standard_normal((2, 1)), rng.standard_normal((2, 1)))
            e = s.get_state().effects
            draws_i.append(e["b0_I"][0])
            draws_a.append(e["b0_A"][0])
        # marginals equal the univariate conjugate update N(1, 0.5), N(-0.5, 0.5)
        m_i, v_i = conj_normal(1.0, 1.0, 2.0)
        m_a, v_a = conj_normal(1.0, 1.0, -1.0)
        se = math.sqrt(v_i / 6000)
        assert np.mean(draws_i) == pytest.approx(m_i, abs=4 * se)
        assert np.mean(draws_a) == pytest.approx(m_a, abs=4 * se)
        assert np.var(draws_i) == pytest.approx(v_i, rel=0.1)
        r = np.corrcoef(draws_i, draws_a)[0, 1]
        assert abs(r) < 0.05

    def test_country_without_any_data_draws_from_pair_prior(self, rng):
        data = make_joint_dataset([(0, 0, Sector.INDUSTRIAL, 1.0)], 2)
        state = joint_state(
            (0, 0, 1, 2.0, 3.0, 1, 1, 0.5, 0.0), [0.0] * 2, [0.0] * 2, [0.0] * 2, [0.0] * 2
        )
        s = JointSampler(data, PriorSpec(), state)
        b0i, b0a = [], []
        for _ in range(6000):
            s.set_state(state)
            s.update_random_effects(rng.standard_normal((2, 2)), rng.standard_normal((2, 2)))
            e = s.get_state().effects
            b0i.append(e["b0_I"][1])
            b0a.append(e["b0_A"][1])
        assert np.std(b0i) == pytest.approx(2.0, rel=0.08)
        assert np.std(b0a) == pytest.approx(3.0, rel=0.08)
        assert np.corrcoef(b0i, b0a)[0, 1] == pytest.approx(0.5, abs=0.06)


class TestGaussKernel:
    """``_draw_gauss2`` against numpy's linear algebra: its draw at z = 0 is
    the mean P⁻¹h, and its steps along the unit vectors are the columns of
    the lower Cholesky factor of P⁻¹."""

    @staticmethod
    def check(p11, p12, p22, h1, h2):
        shape = np.shape(p11)

        def step(k):  # the draw at z = e_k, or at z = 0 for k = None
            z = [np.full(shape, float(k == j)) if shape else float(k == j) for j in (0, 1)]
            return np.stack(np.broadcast_arrays(*_draw_gauss2(p11, p12, p22, h1, h2, z)), -1)

        e11, e12, e22 = np.broadcast_arrays(p11, p12, p22)
        P = np.stack([np.stack([e11, e12], -1), np.stack([e12, e22], -1)], -2)
        want_m = np.linalg.solve(P, np.stack(np.broadcast_arrays(h1, h2), -1)[..., None])[..., 0]
        want_l = np.linalg.cholesky(np.linalg.inv(P))
        m = step(None)
        got_l = np.stack([step(0) - m, step(1) - m], -1)
        assert np.all(np.abs(m - want_m) <= 1e-12 * np.abs(want_m).max(-1, keepdims=True))
        assert np.all(np.abs(got_l - want_l)
                      <= 1e-12 * np.abs(want_l).max((-2, -1), keepdims=True))

    @staticmethod
    def precision(rng, rho):
        a, b = np.exp(rng.uniform(-3.0, 3.0, 2))
        return a * a, rho * a * b, b * b

    @staticmethod
    def linear_term(rng, p11, p12, p22):
        # a mean of the order of the posterior sd, so x - m keeps its digits
        x = rng.standard_normal(2) / np.sqrt([p11, p22])
        return p11 * x[0] + p12 * x[1], p12 * x[0] + p22 * x[1]

    def test_float_entries(self, rng):
        for rho in [-0.999, 0.999, *rng.uniform(-0.999, 0.999, 40)]:
            p11, p12, p22 = self.precision(rng, rho)
            self.check(p11, p12, p22, *self.linear_term(rng, p11, p12, p22))

    def test_array_diagonals_with_a_float_off_diagonal(self, rng):
        # the effect blocks: data add to the diagonal only
        for rho in (-0.999, -0.5, 0.0, 0.9, 0.999):
            p11, p12, p22 = self.precision(rng, rho)
            d11 = p11 * (1.0 + rng.exponential(5.0, 30) * (rng.random(30) < 0.7))
            d22 = p22 * (1.0 + rng.exponential(5.0, 30) * (rng.random(30) < 0.7))
            h1, h2 = zip(*(self.linear_term(rng, a, p12, b) for a, b in zip(d11, d22)))
            self.check(d11, float(p12), d22, np.array(h1), np.array(h2))

    def test_array_entries(self, rng):
        rhos = rng.uniform(-0.999, 0.999, 50)
        p11, p12, p22 = np.array([self.precision(rng, r) for r in rhos]).T
        h1, h2 = np.array([self.linear_term(rng, *p) for p in zip(p11, p12, p22)]).T
        self.check(p11, p12, p22, h1, h2)


class TestTruncatedInverseGamma:
    @staticmethod
    def truncated_moments(shape, rate, upper):
        v = np.linspace(upper / 400000, upper, 400000)
        logf = -(shape + 1) * np.log(v) - rate / v
        f = np.exp(logf - logf.max())
        z = np.trapezoid(f, v)
        mean = np.trapezoid(v * f, v) / z
        return mean, f / z, v

    def test_long_run_mean(self, rng):
        draws = np.array(
            [trunc_ig(1.5, 1.0, 100.0, rng) for _ in range(40000)]
        )
        # untruncated mean is rate/(shape-1) = 2.0; the upper bound at 100
        # trims the heavy tail, so compare against the truncated quadrature mean
        truth, _, _ = self.truncated_moments(1.5, 1.0, 100.0)
        assert 1.5 < truth < 2.0
        se = np.std(draws) / math.sqrt(len(draws))
        assert np.mean(draws) == pytest.approx(truth, abs=4 * se)

    def test_density_matches_grid_oracle(self, rng):
        # conditional density on sigma^2 is (s2)^{-(N+1)/2} exp(-SS/(2 s2))
        shape, rate, upper = (8 - 1) / 2.0, 3.0 / 2.0, 100.0
        draws = np.array(
            [trunc_ig(shape, rate, upper, rng) for _ in range(30000)]
        )
        _, dens, v = self.truncated_moments(shape, rate, upper)
        cdf = np.cumsum(dens) * (v[1] - v[0])
        for q in (0.1, 0.5, 0.9):
            point = float(np.interp(q, cdf, v))
            emp = np.mean(draws <= point)
            assert emp == pytest.approx(q, abs=0.02)

    def test_degenerate_cases_raise(self):
        with pytest.raises(DegenerateDataError):
            _check_shape(0.0)  # N=1, checked before any gamma of this shape is drawn
        with pytest.raises(DegenerateDataError):
            sample_trunc_invgamma_var(1.5, 0.0, 100.0, 1.0, 0.5)  # SS=0

    @pytest.mark.parametrize("shape, rate", [(1.5, 150.0), (19.5, 3000.0)])
    def test_heavy_truncation_matches_grid_oracle(self, rng, shape, rate):
        # most of the untruncated mass lies above the bound, so most draws
        # come from the inverse-CDF branch
        upper = 100.0
        draws = np.array(
            [trunc_ig(shape, rate, upper, rng) for _ in range(40000)]
        )
        assert np.all((draws > 0.0) & (draws < upper))
        _, dens, v = self.truncated_moments(shape, rate, upper)
        cdf = np.cumsum(dens) * (v[1] - v[0])
        for q in (0.1, 0.5, 0.9):
            point = float(np.interp(q, cdf, v))
            assert np.mean(draws <= point) == pytest.approx(q, abs=0.01)

    @pytest.mark.parametrize("rate", [1.0, 3000.0], ids=["accept", "inverse_cdf"])
    def test_one_gamma_then_one_uniform(self, rate):
        # each draw takes one standard gamma g and one uniform u: a kept draw
        # is rate / g, and a replaced one is the truncated law's quantile at 1 - u
        shape, upper = 19.5, 100.0
        rng = np.random.default_rng(11)
        replaced = 0
        for _ in range(200):
            g, u = rng.standard_gamma(shape), rng.random()
            v = sample_trunc_invgamma_var(shape, rate, upper, g, u)
            assert 0.0 < v < upper
            if rate < upper * g:
                assert v == rate / g
            else:
                replaced += 1
                cdf = special.gammaincc(shape, rate / v) / special.gammaincc(shape, rate / upper)
                assert cdf == pytest.approx(1.0 - u, abs=1e-9)
        assert (replaced > 0) == (rate == 3000.0)  # both branches are exercised

    def test_no_mass_below_the_bound_raises(self, rng):
        # a residual sd of 100 against a bound of 10 leaves a tail mass that
        # underflows to 0
        with pytest.raises(DegenerateDataError, match="no mass below the sd bound"):
            trunc_ig(1.5, 1e6, 100.0, rng)

    def test_update_obs_variance_degenerate_data(self):
        data = make_total_dataset([(0, 0, 1.0), (0, 1, 1.0)], 1)
        state = total_state(1.0, 1.0, 1.0, 1.0, [0.0], [0.0])
        with pytest.raises(DegenerateDataError, match="zero residual sum of squares with N > 1"):
            TotalSampler(data, PriorSpec(), state).update_obs_variance(1.0, 0.5)
        # the float sweep redraws beta0 first: under a vague intercept prior its
        # plain conditional mean is 1.0 exactly, which at z = 0 leaves every residual 0
        small = SmallTotalSampler(data, PriorSpec(intercept_sd=1e9), state)
        with pytest.raises(DegenerateDataError, match="zero residual sum of squares with N > 1"):
            float_sweep(small, state, ("random_effects", "re_sds"), g_obs=1.0)

    def test_re_sd_shape_formula(self):
        assert (12 - 1) / 2.0 == 5.5

    def test_re_sd_long_run_mean(self, rng):
        # 12 effects with SS=44 -> IG(5.5, 22), mean 22/4.5
        b0 = np.full(12, math.sqrt(44.0 / 12.0))
        state = total_state(0.0, 1.0, 2.0, 1.0, b0, np.full(12, 0.1))
        data = make_total_dataset([(c, 0, 0.0) for c in range(12)], 12)
        s = TotalSampler(data, PriorSpec(), state)
        numpy = []
        for _ in range(20000):
            # b0 stays fixed, so the draws are independent
            s.update_re_sd([rng.standard_gamma(5.5)], [rng.random()], sd1=False)
            numpy.append(s.sigma0 ** 2)
        # the float chain with frozen effects, sigma and sigma1
        rows = ((rng.standard_normal(), [0.0] * 12, [0.0] * 12, None,
                 [rng.standard_gamma(5.5), None], [0.5, rng.random(), 0.5]) for _ in range(20000))
        small = SmallTotalSampler(data, PriorSpec(), state)
        floats = float_chain(small, rows, ("random_effects", "obs_variance", "re_sd1"))[:, 2] ** 2
        for draws in (np.asarray(numpy), floats):
            se = np.std(draws) / math.sqrt(len(draws))
            assert np.mean(draws) == pytest.approx(22.0 / 4.5, abs=4 * se)

    def test_all_zero_effects_signaled(self):
        state = total_state(0.0, 1.0, 1.0, 1.0, np.zeros(3), np.zeros(3))
        data = make_total_dataset([(c, 0, 0.0) for c in range(3)], 3)
        with pytest.raises(DegenerateDataError, match="all random effects are zero"):
            TotalSampler(data, PriorSpec(), state).update_re_sd([1.0], [0.5], sd1=False)
        small = SmallTotalSampler(data, PriorSpec(), state)
        with pytest.raises(DegenerateDataError, match="all random effects are zero"):
            float_sweep(small, state, ("random_effects", "obs_variance"), g_re=(1.0, 1.0))


def cov_numbers(rng, nu, n):
    """n rows of update_cov_params' numbers: the Bartlett z, the chi-squares
    c1 ~ chi2(nu) and c2 ~ chi2(nu - 1), and the MH uniforms, one per block."""
    return zip(*(a.tolist() for a in (rng.standard_normal((n, 2)), rng.chisquare(nu, (n, 2)),
                                      rng.chisquare(nu - 1, (n, 2)), rng.random((n, 2)))))


def batch_means_se(x, batches=20):
    return float(np.std(np.mean(np.reshape(x, (batches, -1)), axis=1), ddof=1) / math.sqrt(batches))


class TestCovParamsMH:
    @pytest.mark.parametrize("C", [2, 8])
    def test_long_run_means_match_grid(self, C):
        # effect pairs held fixed: the chain of update_cov_params alone must
        # leave the covariance posterior of each block invariant
        g = np.random.default_rng(C)
        b0 = g.multivariate_normal([0.0, 0.0], [[1.0, 0.6], [0.6, 2.0]], C)
        b1 = g.multivariate_normal([0.0, 0.0], [[1.5, -0.4], [-0.4, 0.8]], C)
        state = joint_state((0, 0, 1, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0), b0[:, 0], b0[:, 1],
                            b1[:, 0], b1[:, 1])
        data = make_joint_dataset([(c, 0, Sector.INDUSTRIAL, 0.0) for c in range(C)], C)
        s = JointSampler(data, PriorSpec(), state)
        n = 100000
        out = np.empty((n, 6))
        for i, numbers in enumerate(cov_numbers(np.random.default_rng(100 + C), s.nu, n)):
            s.update_cov_params(*numbers)
            out[i] = (s.sd0[0], s.sd0[1], s.rho[0], s.sd1[0], s.sd1[1], s.rho[1])
        for k in range(2):
            # the joint grid oracle over block k's (sd, sd, rho), the rest fixed
            axes = {f"sigma{k}_I": (0.0, 10.0, 200), f"sigma{k}_A": (0.0, 10.0, 200),
                    f"rho{k}": (-1.0, 1.0, 200)}
            grid = grid_log_posterior("joint", data, GridSpec(axes), state)
            for j, name in enumerate(axes):
                col = out[:, 3 * k + j]
                assert np.mean(col) == pytest.approx(grid.mean(name), abs=4 * batch_means_se(col))

    def test_bartlett_draw_matches_scipy_invwishart(self):
        from scipy.stats import invwishart

        S = np.array([[3.0, 1.2], [1.2, 2.0]])
        nu, n = 10, 40000
        rng = np.random.default_rng(7)
        ours = np.array([_draw_inv_wishart_2x2(S[0, 0], S[0, 1], S[1, 1], rng.chisquare(nu),
                                               rng.chisquare(nu - 1), rng.standard_normal())
                         for _ in range(n)])
        ref = invwishart(df=nu, scale=S).rvs(size=n, random_state=np.random.default_rng(8))
        ref_sd = np.sqrt(ref[:, [0, 1], [0, 1]])
        ref = np.column_stack([ref_sd, ref[:, 0, 1] / (ref_sd[:, 0] * ref_sd[:, 1])])
        ours_cov = np.column_stack([ours[:, 0] ** 2, ours[:, 2] * ours[:, 0] * ours[:, 1],
                                    ours[:, 1] ** 2])
        # E[Sigma] = S / (nu - 3)
        for got, want in zip(ours_cov.T, (S[0, 0], S[0, 1], S[1, 1])):
            assert np.mean(got) == pytest.approx(want / (nu - 3), abs=4 * np.std(got) / math.sqrt(n))
        for j in range(3):
            se = math.sqrt((np.var(ours[:, j]) + np.var(ref[:, j])) / n)
            assert np.mean(ours[:, j]) == pytest.approx(np.mean(ref[:, j]), abs=4 * se)

    def test_proposal_outside_sd_bound_rejected(self, rng):
        # effects of size ~1000 put every IW proposal far above sd_bound = 10
        big = np.array([1000.0, -800.0, 1200.0])
        state = joint_state((0, 0, 1, 2.0, 3.0, 0.1, 0.2, 0.4, -0.2), big, big[::-1],
                            big, np.roll(big, 1))
        data = make_joint_dataset([(c, 0, Sector.INDUSTRIAL, 0.0) for c in range(3)], 3)
        s = JointSampler(data, PriorSpec(), state)
        for numbers in cov_numbers(rng, s.nu, 200):
            s.update_cov_params(*numbers)
        assert s.get_state().params == state.params
        assert s.acceptance() == {"cov0": 0.0, "cov1": 0.0}

    def test_one_country_cannot_update_covariance(self):
        state = joint_state((0, 0, 1, 2.0, 3.0, 0.1, 0.2, 0.4, -0.2), [1.0], [0.5], [0.1], [0.0])
        data = make_joint_dataset([(0, t, Sector.INDUSTRIAL, 1.0 + t) for t in range(4)], 1)
        cfg = ChainConfig(iterations=50, burnin=10, thin=1, chains=1, seed=1)
        with pytest.raises(DegenerateDataError, match="at least 2 countries"):
            run_chain("joint", data, cfg, init_state=state)
        cfg = replace(cfg, skip_updates=("cov_params",))
        assert run_chain("joint", data, cfg).acceptance == {}

    def test_acceptance_counted_per_block_over_every_sweep(self):
        p = JointParams(8.0, 5.0, 0.5, 2.0, 3.0, 0.05, 0.05, 0.5, 0.9)
        data, _ = simulate_dataset("joint", p, 6, 10, seed=4)
        s = JointSampler(data, PriorSpec(), initial_state("joint", data))
        numbers = s.numbers(np.random.default_rng(3), frozenset())
        for _ in range(40):
            s.sweep(next(numbers), frozenset())
        assert s.proposed == 40
        assert s.acceptance() == {"cov0": s.accepted[0] / 40, "cov1": s.accepted[1] / 40}
        cfg = ChainConfig(iterations=40, burnin=30, thin=1, chains=1, seed=3)
        assert set(run_chain("joint", data, cfg).acceptance) == {"cov0", "cov1"}

    def test_rho_recovery_on_simulated_data(self):
        p = JointParams(8.0, 5.0, 0.5, 2.5, 3.5, 0.05, 0.05, 0.6, 0.9)
        data, _ = simulate_dataset("joint", p, 30, 45, seed=5)
        cfg = ChainConfig(iterations=3000, burnin=1000, thin=1, chains=1, seed=3)
        draws = run_chain("joint", data, cfg)
        assert abs(float(np.mean(draws.draws["rho1"])) - 0.9) < 0.15


SAMPLERS = {"total": TotalSampler, "joint": JointSampler}
# the updates each model lets a run skip: frozen blocks of the oracles and
# the negative controls of the calibration checks
SKIP_KEYS = {
    "total": ("random_effects", "re_slopes", "obs_variance", "re_sds", "re_sd1"),
    "joint": ("obs_variance", "cov_params"),
}
SKIP_TRUTHS = {
    "total": TotalParams(5.0, 0.5, 1.0, 0.05),
    "joint": JointParams(8.0, 5.0, 0.5, 2.0, 3.0, 0.05, 0.05, 0.5, 0.9),
}


def skip_run(kind, skip, C=4, iterations=30):
    """A short chain on a Cx8 panel, started with effects away from 0 so that
    a run with frozen effects keeps proper scale conditionals."""
    data, _ = simulate_dataset(kind, SKIP_TRUTHS[kind], C, 8, seed=0)
    spec = MODELS[kind]
    effects = {tag: np.linspace(-1.0, 1.0, C) for tag in spec.effect_tags}
    init = ModelState(initial_state(kind, data).params, effects)
    cfg = ChainConfig(iterations=iterations, burnin=0, thin=1, chains=1, seed=5,
                      skip_updates=skip)
    return run_chain(kind, data, cfg, init_state=init)


EACH_SAMPLER = pytest.mark.parametrize("kind, sampler_class, truth", [
    ("total", TotalSampler, TotalParams(5.0, 0.5, 1.0, 0.05)),
    ("joint", JointSampler, JointParams(8.0, 5.0, 0.5, 2.0, 3.0, 0.05, 0.05, 0.5, 0.9)),
    ("total", SmallTotalSampler, TotalParams(5.0, 0.5, 1.0, 0.05)),
])


class TestChainRunner:
    def test_determinism_bit_identical(self):
        p = TotalParams(5.0, 0.5, 1.0, 0.05)
        data, _ = simulate_dataset("total", p, 3, 8, seed=0)
        cfg = ChainConfig(iterations=200, burnin=50, thin=3, chains=1, seed=99)
        a = run_chain("total", data, cfg)
        b = run_chain("total", data, cfg)
        for name in a.names:
            assert np.array_equal(a.draws[name], b.draws[name])

    def test_retained_length(self):
        p = TotalParams(5.0, 0.5, 1.0, 0.05)
        data, _ = simulate_dataset("total", p, 2, 6, seed=0)
        cfg = ChainConfig(iterations=57, burnin=13, thin=5, chains=1, seed=1)
        draws = run_chain("total", data, cfg)
        assert draws.n_draws == (57 - 13) // 5

    def test_chains_distinct_and_ordered(self):
        p = TotalParams(5.0, 0.5, 1.0, 0.05)
        data, _ = simulate_dataset("total", p, 3, 8, seed=0)
        cfg = ChainConfig(iterations=60, burnin=10, thin=1, chains=3, seed=42)
        chains = run_chains("total", data, cfg)
        assert [c.chain_index for c in chains] == [0, 1, 2]
        first = [c.draws["beta0"][0] for c in chains]
        assert len(set(first)) == 3

    def test_seed_splitting_distinct_over_many_seeds(self):
        for seed in range(25):
            r0 = chain_rng(seed, 0).standard_normal(4)
            r1 = chain_rng(seed, 1).standard_normal(4)
            assert not np.allclose(r0, r1)

    def test_parallel_matches_sequential(self):
        # on both sides of the kernel boundary
        p = TotalParams(5.0, 0.5, 1.0, 0.05)
        for C in (SMALL_C, SMALL_C + 1):
            data, _ = simulate_dataset("total", p, C, 8, seed=0)
            cfg = ChainConfig(iterations=80, burnin=20, thin=2, chains=2, seed=17)
            seq = run_chains("total", data, cfg, parallel=1)
            par = run_chains("total", data, cfg, parallel=2)
            for a, b in zip(seq, par):
                assert a.matrix.tobytes() == b.matrix.tobytes()

    @pytest.mark.parametrize("parallel", [0, -2])
    def test_parallel_below_one_rejected(self, parallel):
        data, _ = simulate_dataset("total", TotalParams(5.0, 0.5, 1.0, 0.05), 3, 8, seed=0)
        cfg = ChainConfig(iterations=20, burnin=5, thin=1, chains=2, seed=1)
        with pytest.raises(ConfigError, match="parallel"):
            run_chains("total", data, cfg, parallel=parallel)

    def test_draws_stay_inside_prior_support(self):
        p = JointParams(8.0, 5.0, 0.5, 2.0, 3.0, 0.05, 0.05, 0.5, 0.9)
        data, _ = simulate_dataset("joint", p, 6, 10, seed=4)
        cfg = ChainConfig(iterations=400, burnin=100, thin=1, chains=1, seed=8)
        draws = run_chain("joint", data, cfg)
        for name in ("sigma", "sigma0_I", "sigma0_A", "sigma1_I", "sigma1_A"):
            assert np.all(draws.draws[name] > 0)
            assert np.all(draws.draws[name] < 10)
        for name in ("rho0", "rho1"):
            assert np.all(np.abs(draws.draws[name]) < 1)

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            ChainConfig(iterations=0)
        with pytest.raises(ConfigError):
            ChainConfig(iterations=10, burnin=10)
        with pytest.raises(ConfigError):
            ChainConfig(iterations=10, burnin=0, thin=1, skip_updates=("nonsense",))
        with pytest.raises(ConfigError, match="seed"):
            ChainConfig(iterations=10, burnin=0, seed=-1)

    @pytest.mark.parametrize("kind, key", [(kind, key) for kind, keys in SKIP_KEYS.items()
                                           for key in keys])
    def test_every_skip_key_changes_the_draws(self, kind, key):
        assert SAMPLERS[kind].skip_keys == set(SKIP_KEYS[kind])
        assert not np.array_equal(skip_run(kind, (key,)).matrix, skip_run(kind, ()).matrix)

    @pytest.mark.parametrize("kind, key", [("joint", "re_sds"), ("joint", "re_slopes"),
                                           ("joint", "random_effects"), ("total", "cov_params")])
    def test_skip_key_the_model_lacks_rejected(self, kind, key):
        with pytest.raises(ConfigError, match=f"{kind} model has no skip key '{key}'"):
            skip_run(kind, (key,))

    @pytest.mark.parametrize("key", ["intercepts", "re_intercepts", "re_sd0"])
    def test_skip_key_of_no_model_rejected(self, key):
        with pytest.raises(ConfigError, match="unknown skip keys"):
            ChainConfig(iterations=10, burnin=0, thin=1, skip_updates=(key,))

    @pytest.mark.parametrize("field, value", [("rho0", 1.0), ("rho1", -1.5), ("sigma1_art", 10.0),
                                              ("sigma", 0.0), ("sigma0_ind", 1e-200)])
    def test_invalid_joint_start_rejected(self, field, value):
        # checked once when the sampler takes the state, not on every sweep
        p = JointParams(8.0, 5.0, 0.5, 2.0, 3.0, 0.05, 0.05, 0.5, 0.9)
        data, _ = simulate_dataset("joint", p, 3, 6, seed=0)
        start = initial_state("joint", data)
        init = ModelState(replace(start.params, **{field: value}), start.effects)
        cfg = ChainConfig(iterations=10, burnin=0, thin=1, chains=1, seed=1)
        with pytest.raises(DegenerateCovarianceError):
            run_chain("joint", data, cfg, init_state=init)

    @pytest.mark.parametrize("field, value", [("sigma0", 0.0), ("sigma1", -1.0), ("sigma0", 40.0),
                                              ("sigma", 10.0)])
    @pytest.mark.parametrize("small_c", [SMALL_C, 0], ids=["float", "numpy"])
    def test_invalid_total_start_rejected(self, field, value, small_c, monkeypatch):
        # both total kernels check the start as the joint sampler does
        monkeypatch.setattr(sampler_module, "SMALL_C", small_c)
        data, _ = simulate_dataset("total", SKIP_TRUTHS["total"], 3, 6, seed=0)
        start = initial_state("total", data)
        init = ModelState(replace(start.params, **{field: value}), start.effects)
        cfg = ChainConfig(iterations=10, burnin=0, thin=1, chains=1, seed=1)
        with pytest.raises(DegenerateCovarianceError,
                           match=re.escape(f"starting {field} = {value} is outside (0.0, 10.0)")):
            run_chain("total", data, cfg, init_state=init)

    def test_frozen_effects_intercept_matches_conjugate(self, rng):
        # iterate the plain update with everything else frozen
        data = make_total_dataset([(0, 0, 10.0)], 1)
        state = total_state(0.0, 1.0, 1.0, 1.0, [0.0], [0.0])
        s = TotalSampler(data, PriorSpec(), state)
        numpy = []
        for _ in range(10000):
            # effects stay frozen
            s.update_intercept(rng.standard_normal(), collapsed=False)
            numpy.append(s.beta0)
        rows = ((rng.standard_normal(), [0.0], [0.0], None, [None, None], [0.5] * 3)
                for _ in range(10000))
        floats = float_chain(SmallTotalSampler(data, PriorSpec(), state), rows, PLAIN)[:, 0]
        for draws in (np.asarray(numpy), floats):
            se = 0.995037 / math.sqrt(len(draws))
            assert np.mean(draws) == pytest.approx(9.90099, abs=3 * se)
            assert np.std(draws, ddof=1) == pytest.approx(0.995037, rel=0.05)

    @EACH_SAMPLER
    def test_values_follow_the_model_table(self, rng, kind, sampler_class, truth):
        # the one place where a sampler spells its fields against model.MODELS
        spec = MODELS[kind]
        data, _ = simulate_dataset(kind, truth, 3, 6, seed=0)
        sampler = sampler_class(data, PriorSpec(), initial_state(kind, data))
        params = rng.uniform(0.1, 0.9, len(spec.param_names))
        effects = rng.normal(size=(len(spec.effect_tags), data.n_countries))
        sampler.set_state(ModelState(spec.params(*params), dict(zip(spec.effect_tags, effects))))
        names = draw_names(kind, data.labels)
        values = np.full(len(names), np.nan)
        write_values(sampler, values)
        assert len(values) == len(names)
        assert np.array_equal(values, np.concatenate([params, effects.ravel()]))
        by_name = dict(zip(names, values))
        assert [by_name[name] for name in spec.param_names] == list(params)
        for tag, column in zip(spec.effect_tags, effects):
            assert [by_name[f"{tag}[{label}]"] for label in data.labels] == list(column)
        state = sampler.get_state()
        assert state.params == spec.params(*params)
        assert np.array_equal(np.array(list(state.effects.values())), effects)
        # a run keeps the rows in the same order, and leaves its last sweep's state
        out = np.full((1, len(names)), np.nan)
        sampler.run(sampler.numbers(rng, frozenset()), 1, range(1), out, frozenset())
        write_values(sampler, values)
        assert not np.array_equal(values, np.concatenate([params, effects.ravel()]))
        assert np.array_equal(out[0], values)

    @EACH_SAMPLER
    def test_states_share_no_memory_with_the_caller(self, kind, sampler_class, truth):
        # the effects live in one block inside the sampler: neither the state
        # it was given nor a state it handed out may be a view of that block
        def block(state):
            return np.array(list(state.effects.values()))

        data, _ = simulate_dataset(kind, truth, 3, 6, seed=0)
        given = initial_state(kind, data)
        sampler = sampler_class(data, PriorSpec(), given)
        held = block(sampler.get_state())
        for column in given.effects.values():
            column += 1.0
        assert np.array_equal(block(sampler.get_state()), held)

        out = sampler.get_state()
        sampler.run(sampler.numbers(np.random.default_rng(1), frozenset()), 1, range(0),
                    np.empty((0, 0)), frozenset())
        swept = block(sampler.get_state())
        assert not np.array_equal(swept, held)
        assert np.array_equal(block(out), held)
        for column in out.effects.values():
            column[:] = np.nan
        assert np.array_equal(block(sampler.get_state()), swept)

    @pytest.mark.parametrize("skip", [(), ("obs_variance",), ("random_effects",), ("re_slopes",),
                                      ("re_sds",), ("re_sd1",)], ids=lambda s: "+".join(s) or "none")
    # C = 16 sits well inside the float kernel's range; SMALL_C is its edge
    @pytest.mark.parametrize("C", [1, 2, 4, 16, SMALL_C])
    def test_float_kernel_matches_numpy_kernel(self, C, skip, monkeypatch):
        # 300 sweeps cross two block boundaries; a degenerate run must fail
        # alike on both kernels
        def outcome():
            try:
                return skip_run("total", skip, C, iterations=300)
            except DegenerateDataError as err:
                return str(err)

        small = outcome()
        monkeypatch.setattr(sampler_module, "SMALL_C", 0)
        numpy = outcome()
        if isinstance(numpy, str):
            assert small == numpy
            return
        assert small.n_draws == numpy.n_draws == 300
        assert_close(small.matrix, numpy.matrix, 1.0)

    def test_kernel_chosen_by_country_count(self, monkeypatch):
        made = []
        init = TotalSampler.__init__

        def spy(self, *args):
            made.append(type(self))
            init(self, *args)

        monkeypatch.setattr(TotalSampler, "__init__", spy)
        for C in (SMALL_C, SMALL_C + 1):
            skip_run("total", (), C)
        assert made == [SmallTotalSampler, TotalSampler]

    @pytest.mark.parametrize("kind", ["total", "joint"])
    def test_initial_state_inside_support(self, kind):
        # the joint panel has a single-sector country (1) and one without rows (4)
        both = (Sector.INDUSTRIAL, Sector.ARTISANAL)
        availability = {0: both, 1: both[:1], 2: both, 3: both} if kind == "joint" else None
        truth = {"total": TotalParams(8.0, 0.5, 4.0, 0.05), "joint": SKIP_TRUTHS["joint"]}[kind]
        data, _ = simulate_dataset(kind, truth, 5, 10, availability, seed=0)
        state = initial_state(kind, data)
        spec = MODELS[kind]

        # the rule, from the rows: per stream the grand mean and the sds of the
        # country means and least-squares slopes; one pooled residual sd
        grand, sd0, sd1, rss = [], [], [], 0.0
        for sector in spec.sectors:
            means, slopes = [], []
            for k in range(data.n_countries):
                rows = (data.sector == sector.code) & (data.country == k)
                if rows.any():
                    dt, dy = data.t[rows] - data.t[rows].mean(), data.y[rows] - data.y[rows].mean()
                    slopes.append(dt @ dy / (dt @ dt))
                    means.append(data.y[rows].mean())
                    rss += np.sum((dy - slopes[-1] * dt) ** 2)
            grand.append(data.y[data.sector == sector.code].mean())
            sd0.append(np.std(means, ddof=1))
            sd1.append(np.std(slopes, ddof=1))
        sds = np.clip([math.sqrt(rss / data.n_obs), *sd0, *sd1], 0.01, 9.9)
        want = [*grand, *sds]
        want += [0.0] * (len(spec.param_names) - len(want))  # the correlations
        got = params_to_dict(state.params)
        np.testing.assert_allclose(list(got.values()), want, rtol=1e-10)
        assert all(0.01 <= x <= 9.9 for name, x in got.items() if name.startswith("sigma"))
        for column in state.effects.values():
            assert np.array_equal(column, np.zeros(data.n_countries))


class TestEffectsLayout:
    @pytest.mark.parametrize("kind", ["total", "joint"])
    def test_effects_keyed_by_the_model_tags(self, kind):
        # what simulates, starts and hands out a state keys its effects by
        # the model's tags, in table order, each a column per country
        tags = list(MODELS[kind].effect_tags)
        data, simulated = simulate_dataset(kind, SKIP_TRUTHS[kind], 3, 6, seed=0)
        start = initial_state(kind, data)
        sampler = SAMPLERS[kind](data, PriorSpec(), start)
        for effects in (simulated, start.effects, sampler.get_state().effects):
            assert list(effects) == tags
            assert all(np.shape(column) == (3,) for column in effects.values())

    @EACH_SAMPLER
    def test_set_state_reads_effects_by_tag(self, kind, sampler_class, truth):
        # a dict in reverse tag order gives the same state and the same sweep
        data, _ = simulate_dataset(kind, truth, 3, 6, seed=0)
        params = initial_state(kind, data).params
        tags = MODELS[kind].effect_tags
        effects = {tag: np.linspace(-1.0, 1.0, 3) + k for k, tag in enumerate(tags)}
        reverse = {tag: effects[tag] for tag in reversed(tags)}

        def state_and_sweep(effects):
            sampler = sampler_class(data, PriorSpec(), ModelState(params, effects))
            rows = np.full((2, len(draw_names(kind, data.labels))), np.nan)
            write_values(sampler, rows[0])
            sampler.run(sampler.numbers(np.random.default_rng(1), frozenset()), 1, range(1),
                        rows[1:], frozenset())
            return rows

        assert list(reverse) != list(tags)
        given = state_and_sweep(effects)
        assert np.array_equal(given[0, len(params_to_dict(params)):], np.concatenate(
            [effects[tag] for tag in tags]))
        assert np.array_equal(state_and_sweep(reverse), given)


class TestFloatChain:
    """``SmallTotalSampler.run`` against ``TotalSampler.sweep``, one sweep at
    a time: whole chains on a weak panel drift apart by rounding, one sweep
    from a shared state does not."""

    # country 1 has a single row and country 3 none
    ENTRIES = [
        *((0, t, 2.0 + 0.04 * t + 0.3 * math.sin(t)) for t in range(10)),
        (1, 4, 1.2),
        *((2, t, 3.1 - 0.02 * t + 0.2 * math.cos(2 * t)) for t in range(2, 12)),
        *((4, t, 2.6 + 0.25 * math.sin(3 * t)) for t in range(0, 12, 3)),
    ]
    SKIPS = [(), ("obs_variance",), ("random_effects",), ("re_slopes",), ("re_sds",),
             ("re_sd1",)]

    @pytest.mark.parametrize("skip", SKIPS, ids=lambda s: "+".join(s) or "none")
    @pytest.mark.parametrize("C", [1, 5])
    def test_one_sweep_from_each_state_matches_the_numpy_sweep(self, C, skip):
        entries = [row for row in self.ENTRIES if row[0] < C]
        data = make_total_dataset(entries, C, 12)
        start = initial_state("total", data)
        chain, numpy = TotalSampler(data, PriorSpec(), start), TotalSampler(data, PriorSpec(), start)
        small = SmallTotalSampler(data, PriorSpec(), start)
        # a single country has no proper effect-sd conditional, so its chains
        # skip those draws and keep the starting sds
        walk_skip = frozenset({"re_sds"} if C == 1 else ())
        skipped = frozenset(skip) | walk_skip
        rows = zip(numpy.numbers(np.random.default_rng(C), skipped),
                   small.numbers(np.random.default_rng(C), skipped))
        walk = chain.numbers(np.random.default_rng(100 + C), walk_skip)
        want, got = np.empty(4 + 2 * C), np.empty((1, 4 + 2 * C))
        for _, (row, float_row), walk_row in zip(range(200), rows, walk):
            chain.sweep(walk_row, walk_skip)  # each state: one more sweep of a chain
            state = chain.get_state()
            numpy.set_state(state)
            numpy.sweep(row, skipped)
            write_values(numpy, want)
            small.set_state(state)
            small.run(iter([float_row]), 1, range(1), got, skipped)
            assert np.all(np.abs(got[0] - want) <= 1e-12 * (1.0 + np.abs(want))), (got[0], want)

    @pytest.mark.parametrize("skip", [(), ("obs_variance",)], ids=["none", "obs_variance"])
    def test_two_runs_resume_as_one(self, skip):
        # every kernel carries its whole state, z̄ included, from one run to the next
        total = make_total_dataset(self.ENTRIES, 5, 12)
        joint = make_joint_dataset(TestJointSweep.ENTRIES, TestJointSweep.C, 16)
        skipped = frozenset(skip)
        for kind, data, sampler_class in (("total", total, SmallTotalSampler),
                                          ("total", total, TotalSampler),
                                          ("joint", joint, JointSampler)):
            start = initial_state(kind, data)
            width = len(draw_names(kind, data.labels))
            whole = sampler_class(data, PriorSpec(), start)
            one = np.empty((300, width))
            whole.run(whole.numbers(np.random.default_rng(3), skipped), 300, range(300), one,
                      skipped)
            split = sampler_class(data, PriorSpec(), start)
            numbers = split.numbers(np.random.default_rng(3), skipped)
            two = np.empty((300, width))
            split.run(numbers, 150, range(150), two[:150], skipped)
            split.run(numbers, 150, range(150), two[150:], skipped)
            assert one.tobytes() == two.tobytes(), sampler_class
            final = [np.concatenate([list(vars(s.get_state().params).values()),
                                     *s.get_state().effects.values()])
                     for s in (whole, split)]
            assert final[0].tobytes() == final[1].tobytes() == one[-1].tobytes()
            assert whole.carried_zbar.tobytes() == split.carried_zbar.tobytes()


class CountingGenerator:
    """Passes every method call through to a generator, and counts them."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


def counting_chain_rngs(monkeypatch):
    """The generators that run_chain takes from chain_rng from now on, each
    wrapped in a CountingGenerator."""
    made = []
    real = sampler_module.chain_rng

    def chain_rng(seed, chain_index):
        made.append(CountingGenerator(real(seed, chain_index)))
        return made[-1]

    monkeypatch.setattr(sampler_module, "chain_rng", chain_rng)
    return made


def wobbly(c, n, sector=Sector.TOTAL):
    """n rows of country c that lie on no straight line."""
    return [(c, t, sector, 1.0 + 0.3 * t + 0.5 * math.sin(2.0 * t)) for t in range(n)]


# each a degenerate panel (entries, C), its model and the skip keys that
# leave its degenerate conditional out
DEGENERATE = {
    "total_one_row": ("total", [(0, 0, Sector.TOTAL, 1.0)], 2, ("obs_variance",)),
    "total_one_country": ("total", wobbly(0, 5), 1, ("re_sds",)),
    "total_no_rows": ("total", [], 2, ("obs_variance",)),
    "joint_one_row": ("joint", [(0, 0, Sector.INDUSTRIAL, 1.0)], 2, ("obs_variance",)),
    "joint_no_rows": ("joint", [], 2, ("obs_variance",)),
    "joint_one_country": ("joint", wobbly(0, 5, Sector.INDUSTRIAL), 1, ("cov_params",)),
}
DEGENERATE_ERRORS = {
    "total_one_row": "improper variance conditional (shape 0.0)",
    "total_one_country": "improper variance conditional (shape 0.0)",
    "total_no_rows": "improper variance conditional (shape -0.5)",
    "joint_one_row": "improper variance conditional (shape 0.0)",
    "joint_no_rows": "improper variance conditional (shape -0.5)",
    "joint_one_country": "joint covariance needs at least 2 countries",
}


@pytest.mark.parametrize("kind, sectors, stray", [
    ("total", (Sector.TOTAL,), Sector.INDUSTRIAL),
    ("joint", (Sector.INDUSTRIAL, Sector.ARTISANAL), Sector.TOTAL),
], ids=["total", "joint"])
def test_rows_outside_the_model_sectors_raise_one_config_error(kind, sectors, stray):
    entries = [row for s in sectors for c in range(2) for row in wobbly(c, 5, s)]
    state = initial_state(kind, make_joint_dataset(entries, 2))
    data = make_joint_dataset(entries + [(0, 7, stray, 2.0)], 2)
    cfg = ChainConfig(iterations=50, burnin=10, thin=1, chains=1, seed=1)
    calls = [
        lambda: run_chain(kind, data, cfg),
        lambda: run_chain(kind, data, cfg, init_state=state),
        lambda: initial_state(kind, data),
        lambda: log_density(state, data),
    ]
    for call in calls:
        with pytest.raises(ConfigError, match=f"^panel has rows outside the {kind} model's sectors$"):
            call()
    assert MODELS[kind].sectors == sectors


class TestBlockStream:
    @pytest.mark.parametrize("kind", ["total", "joint"])
    def test_short_chain_is_a_prefix_of_a_long_one(self, kind):
        data, _ = simulate_dataset(kind, SKIP_TRUTHS[kind], 4, 8, seed=1)
        n = BLOCK + 37  # not a multiple of the block
        short = ChainConfig(iterations=n, burnin=20, thin=3, chains=1, seed=6)
        long = run_chain(kind, data, replace(short, iterations=n + BLOCK + 7))
        short = run_chain(kind, data, short)
        assert long.n_draws > short.n_draws
        assert np.array_equal(short.matrix, long.matrix[:short.n_draws])

    @pytest.mark.parametrize("kind", ["total", "joint"])
    def test_generator_calls_per_block(self, kind, monkeypatch):
        data, _ = simulate_dataset(kind, SKIP_TRUTHS[kind], 4, 8, seed=1)
        cfg = ChainConfig(iterations=3 * BLOCK + 5, burnin=10, thin=1, chains=2, seed=6)
        plain = run_chains(kind, data, cfg)
        made = counting_chain_rngs(monkeypatch)
        counted = run_chains(kind, data, cfg)
        assert all(np.array_equal(a.matrix, b.matrix) for a, b in zip(plain, counted))
        # five calls per block: normals, two or three gamma shapes, uniforms
        assert len(made) == 2
        assert all(0 < rng.calls <= 5 * math.ceil(cfg.iterations / BLOCK) for rng in made)

    @pytest.mark.parametrize("case", list(DEGENERATE))
    def test_degenerate_conditional_raises_before_the_first_block(self, case, monkeypatch):
        kind, entries, C, _ = DEGENERATE[case]
        data = make_joint_dataset(entries, C)
        made = counting_chain_rngs(monkeypatch)
        cfg = ChainConfig(iterations=50, burnin=10, thin=1, chains=1, seed=1)
        with pytest.raises(DegenerateDataError, match=re.escape(DEGENERATE_ERRORS[case])):
            run_chain(kind, data, cfg)
        assert made[0].calls == 0

    @pytest.mark.parametrize("case", list(DEGENERATE))
    def test_skipped_update_never_checks_its_shape(self, case):
        kind, entries, C, skip = DEGENERATE[case]
        cfg = ChainConfig(iterations=50, burnin=10, thin=1, chains=1, seed=1, skip_updates=skip)
        draws = run_chain(kind, make_joint_dataset(entries, C), cfg)
        assert draws.n_draws == 40 and np.all(np.isfinite(draws.matrix))


# -- the statistics path against direct O(N) formulas --------------------------

REL = 1e-10


def assert_close(got, want, scale=0.0):
    """|got - want| <= REL * (|want| + scale), elementwise; ``scale`` is the
    natural unit of a quantity that may be near 0 (a posterior sd for a mean)."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    assert np.all(np.abs(got - want) <= REL * (np.abs(want) + scale)), (got, want)


SDS = st.floats(0.1, 9.9)


@st.composite
def ragged_panels(draw, sectors):
    """Rows (country, t, sector, y) with missing years, single-row countries
    and, with two sectors, countries holding one sector or none."""
    C = draw(st.integers(1, 5))
    horizon = 8
    cells = [
        (c, t, sector)
        for c in range(C)
        for sector in sectors
        for t in sorted(draw(st.sets(st.integers(0, horizon - 1), max_size=horizon)))
    ]
    assume(cells)
    level = draw(st.floats(-50, 50))
    noise = draw(st.lists(st.floats(-5, 5), min_size=len(cells), max_size=len(cells)))
    # the jitter keeps every series off a straight line, so the SS stays away from 0
    y = level + np.asarray(noise) + 0.25 * np.sin(np.arange(len(cells)) + 1.0)
    return C, horizon, [(c, t, sector, float(v)) for (c, t, sector), v in zip(cells, y)]


def effects(draw, C, bound):
    return np.asarray(draw(st.lists(st.floats(-bound, bound), min_size=C, max_size=C)))


def columns(entries, sector):
    rows = [(c, t, y) for c, t, s, y in entries if s is sector]
    c, t, y = np.array(rows, dtype=float).reshape(-1, 3).T
    return c.astype(int), t, y


def pair_conditional(prior_cov, prec_add, lin):
    """Per-country (mean, cov) of an effect pair by 2x2 matrix inversion."""
    prior_prec = np.linalg.inv(prior_cov)
    covs = np.linalg.inv(prior_prec + prec_add[:, None, :] * np.eye(2))
    return np.einsum("cij,cj->ci", covs, lin), covs


def assert_pair_close(got, want_mean, want_cov):
    (m1, m2), (c11, c12, c22) = got
    sd = np.sqrt(np.stack([want_cov[:, 0, 0], want_cov[:, 1, 1]], axis=1))
    assert_close(c11, want_cov[:, 0, 0])
    assert_close(c22, want_cov[:, 1, 1])
    assert_close(c12, want_cov[:, 0, 1], sd[:, 0] * sd[:, 1])
    assert_close(np.stack([m1, m2], axis=1), want_mean, sd)


class TestStatisticsPath:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_total_conditionals_match_direct_sums(self, data):
        C, horizon, entries = data.draw(ragged_panels((Sector.TOTAL,)))
        state = total_state(
            data.draw(st.floats(-50, 50)), data.draw(SDS), data.draw(SDS), data.draw(SDS),
            effects(data.draw, C, 5.0), effects(data.draw, C, 1.0),
        )
        data_set = make_total_dataset([(c, t, y) for c, t, _, y in entries], C, horizon)
        self.check_total_conditionals(TotalSampler(data_set, PriorSpec(), state), state, entries, C)
        self.check_float_conditionals(SmallTotalSampler(data_set, PriorSpec(), state), state,
                                      entries, C)

    @staticmethod
    def check_total_conditionals(sampler, state, entries, C):
        p, e = state.params, state.effects
        c, t, y = columns(entries, Sector.TOTAL)
        pv, s2 = 100.0, p.sigma**2

        mean, var = normal_draws(sampler, state, plain_intercept, beta0_of, ())
        prec = 1.0 / pv + len(y) / s2
        assert_close(var, 1.0 / prec)
        assert_close(mean, np.sum(y - e["b0"][c] - e["b1"][c] * t) / s2 / prec, math.sqrt(var))

        prec, lin = 1.0 / pv, 0.0
        for k in range(C):
            z = (y - e["b1"][c] * t)[c == k]
            if z.size:
                v = p.sigma0**2 + s2 / z.size
                prec += 1.0 / v
                lin += z.mean() / v
        mean, var = normal_draws(sampler, state, collapsed_intercept, beta0_of, ())
        assert_close(var, 1.0 / prec)
        assert_close(mean, lin / prec, math.sqrt(var))

        prec = 1.0 / p.sigma0**2 + np.bincount(c, minlength=C) / s2
        lin = np.bincount(c, weights=y - p.beta0 - e["b1"][c] * t, minlength=C) / s2
        mean, var = normal_draws(sampler, state, random_intercepts, lambda st: st.effects["b0"], C)
        assert_close(var, 1.0 / prec)
        assert_close(mean, lin / prec, np.sqrt(var))

        # the slopes are drawn after the intercepts: condition on those at
        # their mean (normals 0)
        b0 = mean
        prec = 1.0 / p.sigma1**2 + np.bincount(c, weights=t * t, minlength=C) / s2
        lin = np.bincount(c, weights=t * (y - p.beta0 - b0[c]), minlength=C) / s2
        mean, var = normal_draws(sampler, state, random_slopes, lambda st: st.effects["b1"], C)
        assert_close(var, 1.0 / prec)
        assert_close(mean, lin / prec, np.sqrt(var))

        sampler.set_state(state)
        assert_close(sampler.residual_ss(),
                     np.sum((y - p.beta0 - e["b0"][c] - e["b1"][c] * t) ** 2))

    @staticmethod
    def check_float_conditionals(sampler, state, entries, C):
        """The facts of ``check_total_conditionals``, read off float sweeps
        from ``state``: each draw is conditioned on the draws before it in the
        sweep, taken at their means (normals 0)."""
        p, e = state.params, state.effects
        c, t, y = columns(entries, Sector.TOTAL)
        pv, s2 = 100.0, p.sigma**2

        def beta0(st):
            return st.params.beta0

        mean, var = float_normal_draws(sampler, state, PLAIN, beta0, "z")
        prec = 1.0 / pv + len(y) / s2
        assert_close(var, 1.0 / prec)
        assert_close(mean, np.sum(y - e["b0"][c] - e["b1"][c] * t) / s2 / prec, math.sqrt(var))

        prec, lin = 1.0 / pv, 0.0
        for k in range(C):
            z = (y - e["b1"][c] * t)[c == k]
            if z.size:
                v = p.sigma0**2 + s2 / z.size
                prec += 1.0 / v
                lin += z.mean() / v
        mean, var = float_normal_draws(sampler, state, NO_VARIANCES, beta0, "z")
        assert_close(var, 1.0 / prec)
        assert_close(mean, lin / prec, math.sqrt(var))

        at0 = float_sweep(sampler, state, NO_VARIANCES)
        b, b0 = at0.params.beta0, at0.effects["b0"]
        prec = 1.0 / p.sigma0**2 + np.bincount(c, minlength=C) / s2
        lin = np.bincount(c, weights=y - b - e["b1"][c] * t, minlength=C) / s2
        mean, var = float_normal_draws(sampler, state, NO_VARIANCES, lambda st: st.effects["b0"],
                                       "z_b0")
        assert_close(var, 1.0 / prec)
        assert_close(mean, lin / prec, np.sqrt(var))

        prec = 1.0 / p.sigma1**2 + np.bincount(c, weights=t * t, minlength=C) / s2
        lin = np.bincount(c, weights=t * (y - b - b0[c]), minlength=C) / s2
        mean, var = float_normal_draws(sampler, state, NO_VARIANCES, lambda st: st.effects["b1"],
                                       "z_b1")
        assert_close(var, 1.0 / prec)
        assert_close(mean, lin / prec, np.sqrt(var))

        # with a gamma this large every variance draw takes the untruncated
        # branch rate / g, so 2g·sd² gives back the sum of squares it read:
        # the residuals and the effects of the state the updates before it
        # left, at normals that keep every effect off 0
        g = 1e12
        out = float_sweep(sampler, state, (), 0.5, 0.5, 0.5, g_obs=g, g_re=(g, g))
        q, f = out.params, out.effects
        assert_close(2.0 * g * q.sigma**2, np.sum((y - q.beta0 - f["b0"][c] - f["b1"][c] * t) ** 2))
        assert_close(2.0 * g * q.sigma0**2, np.sum(f["b0"]**2))
        assert_close(2.0 * g * q.sigma1**2, np.sum(f["b1"]**2))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_joint_conditionals_match_direct_sums(self, data):
        C, horizon, entries = data.draw(ragged_panels((Sector.INDUSTRIAL, Sector.ARTISANAL)))
        rhos = st.floats(-0.95, 0.95)
        state = joint_state(
            (
                data.draw(st.floats(-50, 50)), data.draw(st.floats(-50, 50)),
                data.draw(SDS), data.draw(SDS), data.draw(SDS), data.draw(SDS), data.draw(SDS),
                data.draw(rhos), data.draw(rhos),
            ),
            effects(data.draw, C, 5.0), effects(data.draw, C, 5.0),
            effects(data.draw, C, 1.0), effects(data.draw, C, 1.0),
        )
        sampler = JointSampler(make_joint_dataset(entries, C, horizon), PriorSpec(), state)
        p, e = state.params, state.effects
        pv, s2 = 100.0, p.sigma**2
        streams = [
            (columns(entries, Sector.INDUSTRIAL), p.beta0_ind, e["b0_I"], e["b1_I"]),
            (columns(entries, Sector.ARTISANAL), p.beta0_art, e["b0_A"], e["b1_A"]),
        ]

        # the collapsed conditional, country by country: each country adds the
        # precision of its mean pair over the sectors it has rows in
        cov0 = build_covariance(p.sigma0_ind, p.sigma0_art, p.rho0)
        prec, lin = np.eye(2) / pv, np.zeros(2)
        for k in range(C):
            zbar, n, has = np.zeros(2), np.zeros(2), []
            for j, ((c, t, y), _, _, b1) in enumerate(streams):
                z = (y - b1[c] * t)[c == k]
                if z.size:
                    zbar[j], n[j] = z.mean(), z.size
                    has.append(j)
            if has:
                cell = np.ix_(has, has)
                q = np.linalg.inv(cov0[cell] + s2 * np.diag(1.0 / n[has]))
                prec[cell] += q
                lin[has] += q @ zbar[has]
        cov = np.linalg.inv(prec)
        got = pair_draws(sampler, state, intercept_pair,
                         lambda st: (np.array([st.params.beta0_ind]),
                                     np.array([st.params.beta0_art])), 1)
        assert_pair_close(got, (cov @ lin)[None, :], cov[None, :, :])

        def information(weight, resid):
            prec_add, lin = np.zeros((C, 2)), np.zeros((C, 2))
            for j, ((c, t, y), beta, b0, b1) in enumerate(streams):
                prec_add[:, j] = np.bincount(c, weights=weight(t) ** 2, minlength=C) / s2
                lin[:, j] = np.bincount(c, weights=weight(t) * resid(c, t, y, beta, b0, b1),
                                        minlength=C) / s2
            return prec_add, lin

        cov0 = build_covariance(p.sigma0_ind, p.sigma0_art, p.rho0)
        want_mean, want_cov = pair_conditional(
            cov0, *information(np.ones_like, lambda c, t, y, beta, b0, b1: y - beta - b1[c] * t)
        )
        got = pair_draws(sampler, state, b0_pairs, b0_pair, C)
        assert_pair_close(got, want_mean, want_cov)

        # the slope pairs are drawn after the intercept pairs: hold those at
        # their conditional mean (normals 0) and condition on it
        drawn_b0 = dict(zip(("ind", "art"), got[0]))
        streams = [(cols, beta, drawn_b0[tag], b1)
                   for tag, (cols, beta, _, b1) in zip(("ind", "art"), streams)]
        cov1 = build_covariance(p.sigma1_ind, p.sigma1_art, p.rho1)
        want_mean, want_cov = pair_conditional(
            cov1, *information(lambda t: t, lambda c, t, y, beta, b0, b1: y - beta - b0[c])
        )
        got = pair_draws(sampler, state, b1_pairs, b1_pair, C)
        assert_pair_close(got, want_mean, want_cov)

        direct = sum(
            np.sum((y - beta - e0[c] - e1[c] * t) ** 2)
            for (c, t, y), beta, e0, e1 in (
                (columns(entries, Sector.INDUSTRIAL), p.beta0_ind, e["b0_I"], e["b1_I"]),
                (columns(entries, Sector.ARTISANAL), p.beta0_art, e["b0_A"], e["b1_A"]),
            )
        )
        sampler.set_state(state)
        assert_close(sampler.residual_ss(), direct)


def joint_sweep_reference(entries, C, state, numbers, priors=PriorSpec()):
    """One joint sweep (both skip keys off) computed country by country from
    the rows with ``np.linalg``: the collapsed intercept pair, each country's
    intercept and slope effect pairs, sigma on the untruncated branch and one
    IW step per covariance block.  Returns the parameters and the effects as
    one flat array in draw-column order, and whether each block accepted."""
    z, z_e, z_iw, g_obs, c1, c2, u = numbers
    p, e = state.params, state.effects
    sectors = (Sector.INDUSTRIAL, Sector.ARTISANAL)
    rows = [columns(entries, sector) for sector in sectors]
    b0, b1 = np.array([e["b0_I"], e["b0_A"]]), np.array([e["b1_I"], e["b1_A"]])
    s2 = p.sigma**2
    covs = [build_covariance(p.sigma0_ind, p.sigma0_art, p.rho0),
            build_covariance(p.sigma1_ind, p.sigma1_art, p.rho1)]

    def draw(prec, lin, normals):
        return np.linalg.solve(prec, lin) + np.linalg.cholesky(np.linalg.inv(prec)) @ normals

    prec, lin = np.eye(2) / priors.intercept_sd**2, np.zeros(2)
    for k in range(C):
        has = [j for j, (c, _, _) in enumerate(rows) if np.any(c == k)]
        if has:
            zbar = np.array([np.mean((y - b1[j, k] * t)[c == k])
                             for j, (c, t, y) in enumerate(rows) if j in has])
            n = np.array([np.sum(rows[j][0] == k) for j in has])
            q = np.linalg.inv(covs[0][np.ix_(has, has)] + s2 * np.diag(1.0 / n))
            prec[np.ix_(has, has)] += q
            lin[has] += q @ zbar
    beta = draw(prec, lin, np.array(z))

    def pair(k, weight, resid, cov, normals):
        info, lin = np.zeros(2), np.zeros(2)
        for j, (c, t, y) in enumerate(rows):
            w = weight(t)[c == k]
            info[j] = np.sum(w * w) / s2
            lin[j] = np.sum(w * resid(j, t, y)[c == k]) / s2
        return draw(np.linalg.inv(cov) + np.diag(info), lin, normals)

    for k in range(C):
        b0[:, k] = pair(k, np.ones_like, lambda j, t, y: y - beta[j] - b1[j, k] * t, covs[0],
                        z_e[:2, k])
    for k in range(C):
        b1[:, k] = pair(k, lambda t: t, lambda j, t, y: y - beta[j] - b0[j, k], covs[1],
                        z_e[2:, k])

    ss = sum(np.sum((y - beta[j] - b0[j, c] - b1[j, c] * t) ** 2)
             for j, (c, t, y) in enumerate(rows))
    n_obs = sum(len(y) for _, _, y in rows)
    rate = ss / 2.0
    assert rate < priors.sd_bound**2 * g_obs, "the reference takes the untruncated branch"
    sigma = math.sqrt(rate / g_obs)

    nu = max(C - 1, 2)
    half_k = 0.5 * (nu + 1 - C)
    blocks, accepted = [], []
    for block, x in enumerate((b0, b1)):
        R = np.linalg.cholesky(x @ x.T)
        A = np.array([[math.sqrt(c1[block]), 0.0], [z_iw[block], math.sqrt(c2[block])]])
        prop = R @ np.linalg.inv(A @ A.T) @ R.T
        cur = covs[block]

        def log_weight(cov):
            rho2 = cov[0, 1] ** 2 / (cov[0, 0] * cov[1, 1])
            return math.log(1.0 - rho2) + half_k * math.log(np.linalg.det(cov))

        sd = np.sqrt(np.diag(prop))
        la = log_weight(prop) - log_weight(cur)
        assert abs(la - math.log(u[1 + block])) > 1e-6, "the MH decision is clear of rounding"
        ok = sd.max() < priors.sd_bound and la >= math.log(u[1 + block])
        new = prop if ok else cur
        sds = np.sqrt(np.diag(new))
        blocks.append((sds, new[0, 1] / (sds[0] * sds[1])))
        accepted.append(ok)
    (sd0, rho0), (sd1, rho1) = blocks
    params = [*beta, sigma, *sd0, *sd1, rho0, rho1]
    assert n_obs > 1
    return np.concatenate([params, b0.ravel(), b1.ravel()]), accepted


class TestJointSweep:
    """One whole ``JointSampler.sweep`` against ``joint_sweep_reference`` on a
    panel with a single-sector country and a country without rows."""

    C = 4
    ENTRIES = [
        *((0, t, s, 3.0 + 0.05 * t + 0.3 * math.sin(t + k))
          for t in range(12) for k, s in enumerate((Sector.INDUSTRIAL, Sector.ARTISANAL))),
        *((1, t, Sector.INDUSTRIAL, 2.4 - 0.03 * t + 0.2 * math.cos(2 * t)) for t in range(3, 15)),
        *((2, t, s, 1.5 + (0.02 + 0.01 * k) * t + 0.25 * math.sin(3 * t - k))
          for t in range(0, 16, 2) for k, s in enumerate((Sector.INDUSTRIAL, Sector.ARTISANAL))),
    ]  # country 3 has no rows

    @staticmethod
    def random_state(rng, C):
        params = (*rng.uniform(0.0, 4.0, 2), rng.uniform(0.2, 0.5), *rng.uniform(0.3, 1.5, 2),
                  *rng.uniform(0.01, 0.1, 2), *rng.uniform(-0.8, 0.8, 2))
        return joint_state(params, *(rng.normal(0.0, sd, C) for sd in (0.8, 0.8, 0.05, 0.05)))

    @staticmethod
    def numbers(rng, C, u):
        return (rng.standard_normal(2).tolist(), rng.standard_normal((4, C)),
                rng.standard_normal(2).tolist(), 40.0, [9.0, 5.0], [4.0, 2.5], u)

    def check_sweep(self, sampler, state, numbers):
        want, accepted = joint_sweep_reference(self.ENTRIES, self.C, state, numbers)
        before = list(sampler.accepted)
        sampler.sweep(numbers, frozenset())
        row = np.empty(len(want))
        write_values(sampler, row)
        np.testing.assert_allclose(row, want, rtol=1e-12, atol=1e-12)
        assert [a - b for a, b in zip(sampler.accepted, before)] == [int(a) for a in accepted]
        return accepted

    def test_sweep_matches_country_by_country_reference(self):
        rng = np.random.default_rng(41)
        data = make_joint_dataset(self.ENTRIES, self.C, 16)
        state = self.random_state(rng, self.C)
        accepted = self.check_sweep(JointSampler(data, PriorSpec(), state), state,
                                    self.numbers(rng, self.C, [0.5, 0.99, 0.02]))
        assert accepted == [False, True]  # both MH branches

    def test_set_state_after_a_sweep_refreshes_what_the_sweep_carries(self):
        rng = np.random.default_rng(42)
        data = make_joint_dataset(self.ENTRIES, self.C, 16)
        sampler = JointSampler(data, PriorSpec(), self.random_state(rng, self.C))
        sampler.sweep(self.numbers(rng, self.C, [0.5, 0.5, 0.5]), frozenset())
        state = self.random_state(rng, self.C)
        sampler.set_state(state)
        self.check_sweep(sampler, state, self.numbers(rng, self.C, [0.5, 0.02, 0.97]))
        # the total sampler against one built at the new state, over each
        # skip set that leaves the slopes to be drawn
        data = make_total_dataset(TestFloatChain.ENTRIES, 5, 12)
        start = initial_state("total", data)
        for skip in ((), ("obs_variance",), ("re_sds",)):
            skipped = frozenset(skip)
            sampler = TotalSampler(data, PriorSpec(), start)
            rows = sampler.numbers(np.random.default_rng(43), skipped)
            sampler.sweep(next(rows), skipped)
            p = start.params
            b1 = rng.normal(0.0, 0.05, 5)
            state = total_state(p.beta0 + 0.3, p.sigma, p.sigma0, p.sigma1,
                                rng.normal(0.0, 0.5, 5), b1)
            sampler.set_state(state)
            zbar = [np.mean((data.y - b1[k] * data.t)[data.country == k])
                    if np.any(data.country == k) else 0.0 for k in range(5)]
            assert_close(sampler.carried_zbar[0], zbar, 1.0)
            fresh = TotalSampler(data, PriorSpec(), state)
            row = next(rows)
            want, got = np.empty((2, 14))
            fresh.sweep(row, skipped)
            write_values(fresh, want)
            sampler.sweep(row, skipped)
            write_values(sampler, got)
            assert got.tobytes() == want.tobytes(), skip
