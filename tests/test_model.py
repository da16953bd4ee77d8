import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landmix.errors import DegenerateCovarianceError, SectorMismatchError
from landmix.model import (
    LOG_2PI,
    Dataset,
    PriorSpec,
    Sector,
    build_covariance,
    linear_predictor,
    log_likelihood,
    log_posterior_unnorm,
    log_prior,
    log_random_effects_density,
)

from conftest import joint_state, make_joint_dataset, make_total_dataset, total_state

JOINT_OK = (8.0, 5.0, 0.5, 2.0, 3.0, 0.05, 0.06, 0.5, 0.9)


class TestLinearPredictor:
    def test_zero_effects_returns_intercept(self):
        state = total_state(8.098, 1.0, 1.0, 1.0, [0.0], [0.0])
        assert linear_predictor(state, 0, 30, Sector.TOTAL) == pytest.approx(8.098)

    def test_time_zero_drops_slope(self):
        state = total_state(0.0, 1.0, 1.0, 1.0, [1.0], [2.0])
        assert linear_predictor(state, 0, 0, Sector.TOTAL) == 1.0

    def test_full_combination(self):
        state = total_state(5.0, 1.0, 1.0, 1.0, [-1.0], [0.5])
        assert linear_predictor(state, 0, 4, Sector.TOTAL) == pytest.approx(6.0)

    def test_sector_mismatch_raises(self):
        state = total_state(0.0, 1.0, 1.0, 1.0, [0.0], [0.0])
        with pytest.raises(SectorMismatchError):
            linear_predictor(state, 0, 0, Sector.INDUSTRIAL)
        jstate = joint_state(JOINT_OK, [0.0], [0.0], [0.0], [0.0])
        with pytest.raises(SectorMismatchError):
            linear_predictor(jstate, 0, 0, Sector.TOTAL)

    def test_joint_sectors(self):
        jstate = joint_state(JOINT_OK, [1.0], [2.0], [0.1], [0.2])
        assert linear_predictor(jstate, 0, 10, Sector.INDUSTRIAL) == pytest.approx(8 + 1 + 1.0)
        assert linear_predictor(jstate, 0, 10, Sector.ARTISANAL) == pytest.approx(5 + 2 + 2.0)


class TestLogLikelihood:
    def test_zero_residual_unit_sigma(self):
        data = make_total_dataset([(0, 0, 3.0)], 1)
        state = total_state(3.0, 1.0, 1.0, 1.0, [0.0], [0.0])
        assert log_likelihood(state, data) == pytest.approx(-0.9189385332046727, abs=1e-9)

    def test_zero_residual_table_sigma(self):
        data = make_total_dataset([(0, 0, 3.0)], 1)
        state = total_state(3.0, 0.541, 1.0, 1.0, [0.0], [0.0])
        expected = -0.5 * LOG_2PI - math.log(0.541)
        assert log_likelihood(state, data) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(-0.3046, abs=1e-3)

    def test_two_unit_residuals(self):
        data = make_total_dataset([(0, 0, 1.0), (0, 1, -1.0)], 1)
        state = total_state(0.0, 1.0, 1.0, 1.0, [0.0], [0.0])
        assert log_likelihood(state, data) == pytest.approx(-2.8378770664093453, abs=1e-9)

    def test_permutation_invariance(self, rng):
        entries = [(c, t, float(rng.normal())) for c in range(3) for t in range(5)]
        state = total_state(0.3, 0.8, 1.0, 1.0, rng.normal(size=3), rng.normal(size=3))
        a = log_likelihood(state, make_total_dataset(entries, 3))
        rng.shuffle(entries)
        b = log_likelihood(state, make_total_dataset(entries, 3))
        assert a == pytest.approx(b, rel=1e-12)

    def test_homoscedasticity(self):
        # moving an observation to another country/sector, residual held
        # fixed, leaves its likelihood contribution unchanged
        state = joint_state(JOINT_OK, [1.0, -1.0], [0.5, 2.0], [0.0] * 2, [0.0] * 2)
        resid = 0.7
        contributions = []
        for country, sector in [(0, Sector.INDUSTRIAL), (1, Sector.INDUSTRIAL), (1, Sector.ARTISANAL)]:
            mu = linear_predictor(state, country, 3, sector)
            data = make_joint_dataset([(country, 3, sector, mu + resid)], 2)
            contributions.append(log_likelihood(state, data))
        assert contributions[0] == pytest.approx(contributions[1], rel=1e-12)
        assert contributions[0] == pytest.approx(contributions[2], rel=1e-12)

    def test_joint_sums_both_streams_shared_sigma(self):
        state = joint_state(JOINT_OK, [0.0], [0.0], [0.0], [0.0])
        data_i = make_joint_dataset([(0, 0, Sector.INDUSTRIAL, 8.0)], 1)
        data_a = make_joint_dataset([(0, 0, Sector.ARTISANAL, 5.0)], 1)
        both = make_joint_dataset(
            [(0, 0, Sector.INDUSTRIAL, 8.0), (0, 0, Sector.ARTISANAL, 5.0)], 1
        )
        assert log_likelihood(state, both) == pytest.approx(
            log_likelihood(state, data_i) + log_likelihood(state, data_a), rel=1e-12
        )


class TestRandomEffectsDensity:
    def test_total_standard_normal(self):
        state = total_state(0.0, 1.0, 1.0, 1.0, [0.0], [0.0])
        assert log_random_effects_density(state) == pytest.approx(-LOG_2PI, abs=1e-12)

    def test_joint_independence_case(self):
        state = joint_state((0, 0, 1, 1, 1, 1, 1, 0.0, 0.0), [0.0], [0.0], [0.0], [0.0])
        assert log_random_effects_density(state) == pytest.approx(-2 * LOG_2PI, abs=1e-12)

    def test_joint_correlated_pair(self):
        state = joint_state((0, 0, 1, 1, 1, 1, 1, 0.5, 0.0), [1.0], [1.0], [0.0], [0.0])
        expected = -2 * LOG_2PI - 0.5 * math.log(0.75) - 2.0 / 3.0
        got = log_random_effects_density(state)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(-4.1986, abs=1e-3)
        # independent numeric quadratic-form evaluation
        cov = np.array([[1.0, 0.5], [0.5, 1.0]])
        x = np.array([1.0, 1.0])
        direct = -LOG_2PI - 0.5 * math.log(np.linalg.det(cov)) - 0.5 * x @ np.linalg.solve(cov, x)
        assert got == pytest.approx(direct - LOG_2PI, abs=1e-10)

    def test_zero_correlation_matches_univariate_sum(self, rng):
        b = rng.normal(size=(4, 3))
        sds = (1.3, 0.7, 0.2, 2.1)
        state = joint_state((0, 0, 1, *sds, 0.0, 0.0), b[0], b[1], b[2], b[3])
        expected = sum(
            float(np.sum(-0.5 * LOG_2PI - math.log(s) - 0.5 * (x / s) ** 2))
            for s, x in zip(sds, b)
        )
        assert log_random_effects_density(state) == pytest.approx(expected, abs=1e-10)


class TestLogPrior:
    def test_total_closed_form(self):
        p = total_state(0.0, 5.0, 5.0, 5.0, [0.0], [0.0]).params
        expected = -math.log(10 * math.sqrt(2 * math.pi)) - 3 * math.log(10)
        assert log_prior(p) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(-10.130, abs=1e-3)

    def test_sd_outside_support(self):
        p = total_state(0.0, 11.0, 5.0, 5.0, [0.0], [0.0]).params
        assert log_prior(p) == -math.inf

    def test_rho_outside_support(self):
        p = joint_state((0, 0, 1, 1, 1, 1, 1, 1.2, 0.0), [0.0], [0.0], [0.0], [0.0]).params
        assert log_prior(p) == -math.inf


class TestBuildCovariance:
    def test_identity(self):
        cov = build_covariance(1.0, 1.0, 0.0)
        assert np.allclose(cov.as_array(), np.eye(2))

    def test_table_values(self):
        cov = build_covariance(2.648, 3.823, 0.673)
        assert cov.a11 == pytest.approx(2.648**2, rel=1e-12)
        assert cov.a12 == pytest.approx(0.673 * 2.648 * 3.823, rel=1e-12)
        assert cov.a22 == pytest.approx(3.823**2, rel=1e-12)
        assert np.allclose(cov.as_array(), [[7.0119, 6.8130], [6.8130, 14.6153]], atol=5e-4)

    def test_singular_rejected(self):
        with pytest.raises(DegenerateCovarianceError):
            build_covariance(1.0, 1.0, 1.0)
        with pytest.raises(DegenerateCovarianceError):
            build_covariance(-1.0, 1.0, 0.0)

    @given(
        a=st.floats(0.01, 9.9),
        b=st.floats(0.01, 9.9),
        rho=st.floats(-0.999, 0.999),
    )
    def test_determinant_identity(self, a, b, rho):
        cov = build_covariance(a, b, rho)
        expected = a * a * b * b * (1 - rho * rho)
        assert cov.det == pytest.approx(expected, rel=1e-12)
        assert cov.det > 0

    def test_zero_rho_diagonal(self):
        cov = build_covariance(2.0, 3.0, 0.0)
        assert cov.a12 == 0.0


@st.composite
def total_states(draw):
    C = draw(st.integers(1, 4))
    params = (
        draw(st.floats(-20, 20)),
        draw(st.floats(0.05, 9.9)),
        draw(st.floats(0.05, 9.9)),
        draw(st.floats(0.05, 9.9)),
    )
    b0 = [draw(st.floats(-5, 5)) for _ in range(C)]
    b1 = [draw(st.floats(-1, 1)) for _ in range(C)]
    return total_state(*params, b0, b1)


class TestLogPosterior:
    def test_out_of_support_propagates(self):
        data = make_total_dataset([(0, 0, 1.0)], 1)
        state = total_state(0.0, 11.0, 1.0, 1.0, [0.0], [0.0])
        assert log_posterior_unnorm(state, data) == -math.inf

    @settings(max_examples=50, deadline=None)
    @given(state=total_states())
    def test_is_sum_of_components(self, state):
        C = len(state.effects.b0)
        data = make_total_dataset([(c, t, 0.5 * c + 0.1 * t) for c in range(C) for t in range(3)], C)
        total = log_posterior_unnorm(state, data)
        parts = (
            log_likelihood(state, data)
            + log_random_effects_density(state)
            + log_prior(state.params)
        )
        assert total == pytest.approx(parts, rel=1e-12, abs=1e-12)

    def test_term_by_term_oracle(self):
        # independent re-implementation summing scalar normal densities
        entries = [(0, 0, 1.2), (0, 3, 2.0), (1, 1, -0.4)]
        data = make_total_dataset(entries, 2)
        state = total_state(0.7, 0.9, 1.4, 0.3, [0.2, -0.5], [0.05, -0.02])

        def norm_logpdf(x, mu, sd):
            return -0.5 * math.log(2 * math.pi) - math.log(sd) - 0.5 * ((x - mu) / sd) ** 2

        expected = 0.0
        for c, t, y in entries:
            mu = 0.7 + state.effects.b0[c] + state.effects.b1[c] * t
            expected += norm_logpdf(y, mu, 0.9)
        for c in range(2):
            expected += norm_logpdf(state.effects.b0[c], 0.0, 1.4)
            expected += norm_logpdf(state.effects.b1[c], 0.0, 0.3)
        expected += norm_logpdf(0.7, 0.0, 10.0) + 3 * math.log(1.0 / 10.0)
        assert log_posterior_unnorm(state, data) == pytest.approx(expected, rel=1e-12)


class TestPriorSpecOverride:
    def test_tighter_bound_shrinks_support(self):
        priors = PriorSpec(intercept_sd=2.0, sd_bound=3.0)
        p = total_state(0.0, 5.0, 1.0, 1.0, [0.0], [0.0]).params
        assert log_prior(p, priors) == -math.inf
        p_ok = total_state(0.0, 2.0, 1.0, 1.0, [0.0], [0.0]).params
        expected = -0.5 * LOG_2PI - math.log(2.0) - 3 * math.log(3.0)
        assert log_prior(p_ok, priors) == pytest.approx(expected, abs=1e-12)


class TestStreamStats:
    def test_residual_ss_stable_far_from_zero(self):
        # log-tonnes offset by 1e6: raw moments (sum y^2 ~ 1e14) would lose
        # every digit of a residual SS of order 100; centred ones keep them
        rng = np.random.default_rng(11)
        C, T = 8, 45
        c = np.repeat(np.arange(C), T)
        t = np.tile(np.arange(T), C)
        a = 1e6 + rng.normal(0.0, 3.0, C)
        b = rng.normal(0.0, 0.05, C)
        y = a[c] + b[c] * t + rng.normal(0.0, 0.5, C * T)
        data = Dataset(c, t, np.full(C * T, Sector.TOTAL.code), y, [f"c{i}" for i in range(C)], T)
        a_state = a + rng.normal(0.0, 0.1, C)
        b_state = b + rng.normal(0.0, 0.01, C)
        direct = float(np.sum((y - a_state[c] - b_state[c] * t) ** 2))
        got = data.stats(Sector.TOTAL).residual_ss(a_state, b_state)
        assert got == pytest.approx(direct, rel=1e-10)
