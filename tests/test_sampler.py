import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import special

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
)
from landmix.sampler import (
    ChainConfig,
    JointSampler,
    TotalSampler,
    _draw_gauss2,
    _draw_inv_wishart_2x2,
    chain_rng,
    conj_normal,
    initial_state,
    run_chain,
    run_chains,
    sample_trunc_invgamma_var,
)
from landmix.data import simulate_dataset
from landmix.oracle import GridSpec, grid_log_posterior

from conftest import joint_state, make_joint_dataset, make_total_dataset, total_state


class FixedNormal:
    """Stands in for a generator: each standard-normal request takes the next
    of ``blocks``, and zeros once they run out."""

    def __init__(self, *blocks):
        self.blocks = [np.asarray(b, dtype=float) for b in blocks]

    def standard_normal(self, size=None):
        z = self.blocks.pop(0) if self.blocks else np.zeros(size or ())
        return float(z) if size is None else z.reshape(size)


def drawn(sampler, state, update, *blocks):
    """The state that an update of ``state`` leaves when its normals are ``blocks``."""
    sampler.set_state(state)
    getattr(sampler, update)(FixedNormal(*blocks))
    return sampler.get_state()


def normal_draws(sampler, state, update, read, size):
    """(mean, var) of independent normal draws, read off the live update: its
    draw at z = 0, and the square of its step from z = 0 to z = 1."""
    at0 = read(drawn(sampler, state, update, np.zeros(size)))
    at1 = read(drawn(sampler, state, update, np.ones(size)))
    return at0, (at1 - at0) ** 2


def pair_draws(sampler, state, update, read, size, before=()):
    """Mean and covariance (c11, c12, c22) of correlated pair draws, read off
    the live update at z = 0 and at the two unit vectors of its Cholesky
    factor.  ``before`` are the normals of the draws the update makes first."""

    def at(z1, z2):
        return read(drawn(sampler, state, update, *before, np.stack([z1, z2])))

    zero, one = np.zeros(size), np.ones(size)
    m1, m2 = at(zero, zero)
    x1, x2 = at(one, zero)
    _, y2 = at(zero, one)
    l11, l21, l22 = x1 - m1, x2 - m2, y2 - m2
    return (m1, m2), (l11 * l11, l11 * l21, l21 * l21 + l22 * l22)


def b0_pair(state):
    return state.effects.b0_ind, state.effects.b0_art


def b1_pair(state):
    return state.effects.b1_ind, state.effects.b1_art


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
        mean, var = s.intercept_conditional_plain()
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
        draws = []
        for _ in range(4000):
            s.b0 = np.zeros(2)
            s.update_random_intercepts(rng)
            draws.append(s.b0[1])
        draws = np.asarray(draws)
        assert np.mean(draws) == pytest.approx(0.0, abs=4 / math.sqrt(4000))
        assert np.std(draws) == pytest.approx(1.0, rel=0.1)

    def test_slope_with_zero_leverage_equals_prior(self, rng):
        # observations only at t=0: slope conditional reduces to its prior
        data = make_total_dataset([(0, 0, 5.0)], 1)
        state = total_state(0.0, 1.0, 1.0, 2.0, [0.0], [0.0])
        s = TotalSampler(data, PriorSpec(), state)
        _, var = normal_draws(s, state, "update_random_slopes", lambda st: st.effects.b1, 1)
        assert 1.0 / var[0] == pytest.approx(1.0 / 4.0)


class TestCollapsedIntercept:
    def test_total_matches_numeric_integration(self):
        data = make_total_dataset([(0, 0, 1.0), (0, 1, 2.0), (1, 0, 0.5)], 2)
        state = total_state(0.0, 0.7, 1.3, 1.0, [0.0, 0.0], [0.1, -0.2])
        s = TotalSampler(data, PriorSpec(), state)
        mean, var = s.intercept_conditional_collapsed()

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
            s.beta_i = 0.0
            s.update_intercepts_collapsed(rng)
            draws.append(s.beta_i)
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
        (m_i, m_a), (c11, c12, c22) = pair_draws(s, state, "update_random_effects", b0_pair, 1)
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
            s.update_random_effects(rng)
            draws_i.append(s.b0_i[0])
            draws_a.append(s.b0_a[0])
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
            s.update_random_effects(rng)
            b0i.append(s.b0_i[1])
            b0a.append(s.b0_a[1])
        assert np.std(b0i) == pytest.approx(2.0, rel=0.08)
        assert np.std(b0a) == pytest.approx(3.0, rel=0.08)
        assert np.corrcoef(b0i, b0a)[0, 1] == pytest.approx(0.5, abs=0.06)


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
            [sample_trunc_invgamma_var(1.5, 1.0, 100.0, rng) for _ in range(40000)]
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
            [sample_trunc_invgamma_var(shape, rate, upper, rng) for _ in range(30000)]
        )
        _, dens, v = self.truncated_moments(shape, rate, upper)
        cdf = np.cumsum(dens) * (v[1] - v[0])
        for q in (0.1, 0.5, 0.9):
            point = float(np.interp(q, cdf, v))
            emp = np.mean(draws <= point)
            assert emp == pytest.approx(q, abs=0.02)

    def test_degenerate_cases_raise(self, rng):
        with pytest.raises(DegenerateDataError):
            sample_trunc_invgamma_var(0.0, 1.0, 100.0, rng)  # N=1
        with pytest.raises(DegenerateDataError):
            sample_trunc_invgamma_var(1.5, 0.0, 100.0, rng)  # SS=0

    @pytest.mark.parametrize("shape, rate", [(1.5, 150.0), (19.5, 3000.0)])
    def test_heavy_truncation_matches_grid_oracle(self, rng, shape, rate):
        # most of the untruncated mass lies above the bound, so most draws
        # come from the inverse-CDF branch
        upper = 100.0
        draws = np.array(
            [sample_trunc_invgamma_var(shape, rate, upper, rng) for _ in range(40000)]
        )
        assert np.all((draws > 0.0) & (draws < upper))
        _, dens, v = self.truncated_moments(shape, rate, upper)
        cdf = np.cumsum(dens) * (v[1] - v[0])
        for q in (0.1, 0.5, 0.9):
            point = float(np.interp(q, cdf, v))
            assert np.mean(draws <= point) == pytest.approx(q, abs=0.01)

    @pytest.mark.parametrize("rate", [1.0, 3000.0], ids=["accept", "inverse_cdf"])
    def test_one_gamma_then_one_uniform(self, rate):
        # a twin generator that draws standard_gamma(shape), then random(),
        # keeps step with every call; a kept draw is rate / g, and a replaced
        # one is the truncated law's quantile at 1 - u
        shape, upper = 19.5, 100.0
        rng, twin = np.random.default_rng(11), np.random.default_rng(11)
        replaced = 0
        for _ in range(200):
            v = sample_trunc_invgamma_var(shape, rate, upper, rng)
            g, u = twin.standard_gamma(shape), twin.random()
            assert rng.bit_generator.state == twin.bit_generator.state
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
            sample_trunc_invgamma_var(1.5, 1e6, 100.0, rng)

    def test_update_obs_variance_degenerate_data(self, rng):
        data = make_total_dataset([(0, 0, 1.0), (0, 1, 1.0)], 1)
        state = total_state(1.0, 1.0, 1.0, 1.0, [0.0], [0.0])
        with pytest.raises(DegenerateDataError):
            TotalSampler(data, PriorSpec(), state).update_obs_variance(rng)

    def test_re_sd_shape_formula(self):
        assert (12 - 1) / 2.0 == 5.5

    def test_re_sd_long_run_mean(self, rng):
        # 12 effects with SS=44 -> IG(5.5, 22), mean 22/4.5
        b0 = np.full(12, math.sqrt(44.0 / 12.0))
        state = total_state(0.0, 1.0, 2.0, 1.0, b0, np.full(12, 0.1))
        s = TotalSampler(make_total_dataset([(c, 0, 0.0) for c in range(12)], 12),
                         PriorSpec(), state)
        draws = []
        for _ in range(20000):
            s.update_re_sd(0, rng)  # b0 stays fixed, so the draws are independent
            draws.append(s.sigma0 ** 2)
        draws = np.asarray(draws)
        se = np.std(draws) / math.sqrt(len(draws))
        assert np.mean(draws) == pytest.approx(22.0 / 4.5, abs=4 * se)

    def test_all_zero_effects_signaled(self, rng):
        state = total_state(0.0, 1.0, 1.0, 1.0, np.zeros(3), np.zeros(3))
        s = TotalSampler(make_total_dataset([(c, 0, 0.0) for c in range(3)], 3),
                         PriorSpec(), state)
        with pytest.raises(DegenerateDataError):
            s.update_re_sd(0, rng)


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
        rng = np.random.default_rng(100 + C)
        n = 100000
        out = np.empty((n, 6))
        for i in range(n):
            s.update_cov_params(rng)
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
        ours = np.array([_draw_inv_wishart_2x2(S[0, 0], S[0, 1], S[1, 1], nu, rng)
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
        for _ in range(200):
            s.update_cov_params(rng)
        assert s.get_state().params == state.params
        assert s.acceptance() == {"cov0": 0.0, "cov1": 0.0}

    def test_one_country_cannot_update_covariance(self, rng):
        state = joint_state((0, 0, 1, 2.0, 3.0, 0.1, 0.2, 0.4, -0.2), [1.0], [0.5], [0.1], [0.0])
        data = make_joint_dataset([(0, t, Sector.INDUSTRIAL, 1.0 + t) for t in range(4)], 1)
        with pytest.raises(DegenerateDataError, match="at least 2 countries"):
            JointSampler(data, PriorSpec(), state).update_cov_params(rng)
        cfg = ChainConfig(iterations=50, burnin=10, thin=1, chains=1, seed=1,
                          skip_updates=("cov_params",))
        assert run_chain("joint", data, cfg).acceptance == {}

    def test_acceptance_counted_per_block_over_every_sweep(self):
        p = JointParams(8.0, 5.0, 0.5, 2.0, 3.0, 0.05, 0.05, 0.5, 0.9)
        data, _ = simulate_dataset("joint", p, 6, 10, seed=4)
        s = JointSampler(data, PriorSpec(), initial_state("joint", data))
        rng = np.random.default_rng(3)
        for _ in range(40):
            s.sweep(rng, frozenset())
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


def skip_run(kind, skip):
    """A short chain on a 4x8 panel, started with effects away from 0 so that
    a run with frozen effects keeps proper scale conditionals."""
    data, _ = simulate_dataset(kind, SKIP_TRUTHS[kind], 4, 8, seed=0)
    spec = MODELS[kind]
    effects = spec.effects(*(np.linspace(-1.0, 1.0, 4) for _ in spec.effect_tags))
    init = ModelState(initial_state(kind, data).params, effects)
    cfg = ChainConfig(iterations=30, burnin=0, thin=1, chains=1, seed=5, skip_updates=skip)
    return run_chain(kind, data, cfg, init_state=init)


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
        p = TotalParams(5.0, 0.5, 1.0, 0.05)
        data, _ = simulate_dataset("total", p, 3, 8, seed=0)
        cfg = ChainConfig(iterations=80, burnin=20, thin=2, chains=2, seed=17)
        seq = run_chains("total", data, cfg, parallel=1)
        par = run_chains("total", data, cfg, parallel=2)
        for a, b in zip(seq, par):
            for name in a.names:
                assert np.array_equal(a.draws[name], b.draws[name])

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

    def test_frozen_effects_intercept_matches_conjugate(self, rng):
        # iterate the plain update with everything else frozen
        data = make_total_dataset([(0, 0, 10.0)], 1)
        state = total_state(0.0, 1.0, 1.0, 1.0, [0.0], [0.0])
        s = TotalSampler(data, PriorSpec(), state)
        draws = []
        for _ in range(10000):
            s.update_intercept(rng, collapsed=False)  # effects stay frozen
            draws.append(s.beta0)
        draws = np.asarray(draws)
        se = 0.995037 / math.sqrt(len(draws))
        assert np.mean(draws) == pytest.approx(9.90099, abs=3 * se)
        assert np.std(draws, ddof=1) == pytest.approx(0.995037, rel=0.05)

    @pytest.mark.parametrize("kind, sampler_class, truth", [
        ("total", TotalSampler, TotalParams(5.0, 0.5, 1.0, 0.05)),
        ("joint", JointSampler, JointParams(8.0, 5.0, 0.5, 2.0, 3.0, 0.05, 0.05, 0.5, 0.9)),
    ])
    def test_values_follow_the_model_table(self, rng, kind, sampler_class, truth):
        # the one place where a sampler spells its fields against model.MODELS
        spec = MODELS[kind]
        data, _ = simulate_dataset(kind, truth, 3, 6, seed=0)
        sampler = sampler_class(data, PriorSpec(), initial_state(kind, data))
        params = rng.uniform(0.1, 0.9, len(spec.param_names))
        effects = rng.normal(size=(len(spec.effect_tags), data.n_countries))
        sampler.set_state(ModelState(spec.params(*params), spec.effects(*effects)))
        values = sampler.values()
        names = draw_names(kind, data.labels)
        assert len(values) == len(names)
        assert np.array_equal(values, np.concatenate([params, effects.ravel()]))
        by_name = dict(zip(names, values))
        assert [by_name[name] for name in spec.param_names] == list(params)
        for tag, column in zip(spec.effect_tags, effects):
            assert [by_name[f"{tag}[{label}]"] for label in data.labels] == list(column)
        state = sampler.get_state()
        assert state.params == spec.params(*params)
        assert np.array_equal(np.array(list(vars(state.effects).values())), effects)

    def test_initial_state_inside_support(self):
        p = TotalParams(8.0, 0.5, 4.0, 0.05)
        data, _ = simulate_dataset("total", p, 5, 10, seed=0)
        state = initial_state("total", data)
        q = state.params
        for s in (q.sigma, q.sigma0, q.sigma1):
            assert 0.01 <= s <= 9.9
        assert np.all(state.effects.b0 == 0)


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
        sampler = TotalSampler(
            make_total_dataset([(c, t, y) for c, t, _, y in entries], C, horizon),
            PriorSpec(),
            state,
        )
        p, e = state.params, state.effects
        c, t, y = columns(entries, Sector.TOTAL)
        pv, s2 = 100.0, p.sigma**2

        mean, var = sampler.intercept_conditional_plain()
        prec = 1.0 / pv + len(y) / s2
        assert_close(var, 1.0 / prec)
        assert_close(mean, np.sum(y - e.b0[c] - e.b1[c] * t) / s2 / prec, math.sqrt(var))

        prec, lin = 1.0 / pv, 0.0
        for k in range(C):
            z = (y - e.b1[c] * t)[c == k]
            if z.size:
                v = p.sigma0**2 + s2 / z.size
                prec += 1.0 / v
                lin += z.mean() / v
        mean, var = sampler.intercept_conditional_collapsed()
        assert_close(var, 1.0 / prec)
        assert_close(mean, lin / prec, math.sqrt(var))

        prec = 1.0 / p.sigma0**2 + np.bincount(c, minlength=C) / s2
        lin = np.bincount(c, weights=y - p.beta0 - e.b1[c] * t, minlength=C) / s2
        mean, var = normal_draws(sampler, state, "update_random_intercepts",
                                 lambda st: st.effects.b0, C)
        assert_close(var, 1.0 / prec)
        assert_close(mean, lin / prec, np.sqrt(var))

        prec = 1.0 / p.sigma1**2 + np.bincount(c, weights=t * t, minlength=C) / s2
        lin = np.bincount(c, weights=t * (y - p.beta0 - e.b0[c]), minlength=C) / s2
        mean, var = normal_draws(sampler, state, "update_random_slopes",
                                 lambda st: st.effects.b1, C)
        assert_close(var, 1.0 / prec)
        assert_close(mean, lin / prec, np.sqrt(var))

        got = sampler.s.residual_ss(p.beta0 + e.b0, e.b1)
        assert_close(got, np.sum((y - p.beta0 - e.b0[c] - e.b1[c] * t) ** 2))

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
            (columns(entries, Sector.INDUSTRIAL), p.beta0_ind, e.b0_ind, e.b1_ind),
            (columns(entries, Sector.ARTISANAL), p.beta0_art, e.b0_art, e.b1_art),
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
        got = pair_draws(sampler, state, "update_intercepts_collapsed",
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
        got = pair_draws(sampler, state, "update_random_effects", b0_pair, C)
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
        got = pair_draws(sampler, state, "update_random_effects", b1_pair, C,
                         before=(np.zeros((2, C)),))
        assert_pair_close(got, want_mean, want_cov)

        direct = sum(
            np.sum((y - beta - e0[c] - e1[c] * t) ** 2)
            for (c, t, y), beta, e0, e1 in (
                (columns(entries, Sector.INDUSTRIAL), p.beta0_ind, e.b0_ind, e.b1_ind),
                (columns(entries, Sector.ARTISANAL), p.beta0_art, e.b0_art, e.b1_art),
            )
        )
        got = sampler.si.residual_ss(p.beta0_ind + e.b0_ind, e.b1_ind) + sampler.sa.residual_ss(
            p.beta0_art + e.b0_art, e.b1_art
        )
        assert_close(got, direct)
