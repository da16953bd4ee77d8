import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landmix.errors import ConfigError, DegenerateCovarianceError
from landmix.model import (
    LOG_2PI,
    MODELS,
    Dataset,
    JointParams,
    ModelState,
    PriorSpec,
    Sector,
    TotalParams,
    build_covariance,
    draw_names,
    log_density,
    model_spec,
    model_streams,
    params_from_dict,
    params_to_dict,
)

from conftest import joint_state, make_joint_dataset, make_total_dataset, total_state

JOINT_OK = (8.0, 5.0, 0.5, 2.0, 3.0, 0.05, 0.06, 0.5, 0.9)


def countries(state):
    return len(next(iter(state.effects.values())))


def density(state, data=None, priors=PriorSpec()):
    """The density terms of ``state``, on an empty panel of its countries
    unless ``data`` is given."""
    return log_density(state, data or make_joint_dataset([], countries(state)), priors)


def zero_residual(state, country, t, sector, y):
    """Whether ``y`` is the model mean of one (country, t, sector) cell: with
    sigma = 1, a one-row panel's log likelihood is -log(2 pi)/2 exactly then."""
    data = make_joint_dataset([(country, t, sector, y)], countries(state))
    return density(state, data).likelihood == -0.5 * LOG_2PI


class TestLinearPredictor:
    def test_zero_effects_returns_intercept(self):
        state = total_state(8.098, 1.0, 1.0, 1.0, [0.0], [0.0])
        assert zero_residual(state, 0, 30, Sector.TOTAL, 8.098)

    def test_time_zero_drops_slope(self):
        state = total_state(0.0, 1.0, 1.0, 1.0, [1.0], [2.0])
        assert zero_residual(state, 0, 0, Sector.TOTAL, 1.0)

    def test_full_combination(self):
        state = total_state(5.0, 1.0, 1.0, 1.0, [-1.0], [0.5])
        assert zero_residual(state, 0, 4, Sector.TOTAL, 6.0)
        assert not zero_residual(state, 0, 4, Sector.TOTAL, 6.5)

    def test_sector_mismatch_raises(self):
        state = total_state(0.0, 1.0, 1.0, 1.0, [0.0], [0.0])
        with pytest.raises(ConfigError):
            density(state, make_joint_dataset([(0, 0, Sector.INDUSTRIAL, 1.0)], 1))
        jstate = joint_state(JOINT_OK, [0.0], [0.0], [0.0], [0.0])
        with pytest.raises(ConfigError):
            density(jstate, make_total_dataset([(0, 0, 1.0)], 1))

    def test_joint_sectors(self):
        jstate = joint_state((8.0, 5.0, 1.0, *JOINT_OK[3:]), [1.0], [2.0], [0.1], [0.2])
        assert zero_residual(jstate, 0, 10, Sector.INDUSTRIAL, 8 + 1 + 1.0)
        assert zero_residual(jstate, 0, 10, Sector.ARTISANAL, 5 + 2 + 2.0)


class TestLogLikelihood:
    def test_zero_residual_unit_sigma(self):
        data = make_total_dataset([(0, 0, 3.0)], 1)
        state = total_state(3.0, 1.0, 1.0, 1.0, [0.0], [0.0])
        assert density(state, data).likelihood == pytest.approx(-0.9189385332046727, abs=1e-9)

    def test_zero_residual_table_sigma(self):
        data = make_total_dataset([(0, 0, 3.0)], 1)
        state = total_state(3.0, 0.541, 1.0, 1.0, [0.0], [0.0])
        expected = -0.5 * LOG_2PI - math.log(0.541)
        assert density(state, data).likelihood == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(-0.3046, abs=1e-3)

    def test_two_unit_residuals(self):
        data = make_total_dataset([(0, 0, 1.0), (0, 1, -1.0)], 1)
        state = total_state(0.0, 1.0, 1.0, 1.0, [0.0], [0.0])
        assert density(state, data).likelihood == pytest.approx(-2.8378770664093453, abs=1e-9)

    def test_permutation_invariance(self, rng):
        entries = [(c, t, float(rng.normal())) for c in range(3) for t in range(5)]
        state = total_state(0.3, 0.8, 1.0, 1.0, rng.normal(size=3), rng.normal(size=3))
        a = density(state, make_total_dataset(entries, 3)).likelihood
        rng.shuffle(entries)
        b = density(state, make_total_dataset(entries, 3)).likelihood
        assert a == pytest.approx(b, rel=1e-12)

    def test_homoscedasticity(self):
        # moving an observation to another country/sector, residual held
        # fixed, leaves its likelihood contribution unchanged
        state = joint_state(JOINT_OK, [1.0, -1.0], [0.5, 2.0], [0.0] * 2, [0.0] * 2)
        p, e = state.params, state.effects
        resid = 0.7
        contributions = []
        for country, sector, mu in [
            (0, Sector.INDUSTRIAL, p.beta0_ind + e["b0_I"][0]),
            (1, Sector.INDUSTRIAL, p.beta0_ind + e["b0_I"][1]),
            (1, Sector.ARTISANAL, p.beta0_art + e["b0_A"][1]),
        ]:
            data = make_joint_dataset([(country, 3, sector, mu + resid)], 2)
            contributions.append(density(state, data).likelihood)
        assert contributions[0] == pytest.approx(contributions[1], rel=1e-12)
        assert contributions[0] == pytest.approx(contributions[2], rel=1e-12)

    def test_joint_sums_both_streams_shared_sigma(self):
        state = joint_state(JOINT_OK, [0.0], [0.0], [0.0], [0.0])
        data_i = make_joint_dataset([(0, 0, Sector.INDUSTRIAL, 8.0)], 1)
        data_a = make_joint_dataset([(0, 0, Sector.ARTISANAL, 5.0)], 1)
        both = make_joint_dataset(
            [(0, 0, Sector.INDUSTRIAL, 8.0), (0, 0, Sector.ARTISANAL, 5.0)], 1
        )
        assert density(state, both).likelihood == pytest.approx(
            density(state, data_i).likelihood + density(state, data_a).likelihood, rel=1e-12
        )


class TestRandomEffectsDensity:
    def test_total_standard_normal(self):
        state = total_state(0.0, 1.0, 1.0, 1.0, [0.0], [0.0])
        assert density(state).effects == pytest.approx(-LOG_2PI, abs=1e-12)

    def test_joint_independence_case(self):
        state = joint_state((0, 0, 1, 1, 1, 1, 1, 0.0, 0.0), [0.0], [0.0], [0.0], [0.0])
        assert density(state).effects == pytest.approx(-2 * LOG_2PI, abs=1e-12)

    def test_joint_correlated_pair(self):
        state = joint_state((0, 0, 1, 1, 1, 1, 1, 0.5, 0.0), [1.0], [1.0], [0.0], [0.0])
        expected = -2 * LOG_2PI - 0.5 * math.log(0.75) - 2.0 / 3.0
        got = density(state).effects
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
        assert density(state).effects == pytest.approx(expected, abs=1e-10)


class TestLogPrior:
    def test_total_closed_form(self):
        state = total_state(0.0, 5.0, 5.0, 5.0, [0.0], [0.0])
        expected = -math.log(10 * math.sqrt(2 * math.pi)) - 3 * math.log(10)
        assert density(state).prior == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(-10.130, abs=1e-3)

    def test_sd_outside_support(self):
        state = total_state(0.0, 11.0, 5.0, 5.0, [0.0], [0.0])
        assert density(state).prior == -math.inf

    def test_rho_outside_support(self):
        state = joint_state((0, 0, 1, 1, 1, 1, 1, 1.2, 0.0), [0.0], [0.0], [0.0], [0.0])
        assert density(state).prior == -math.inf
        assert density(state).posterior == -math.inf


class TestBuildCovariance:
    def test_identity(self):
        cov = build_covariance(1.0, 1.0, 0.0)
        assert np.allclose(cov, np.eye(2))

    def test_table_values(self):
        cov = build_covariance(2.648, 3.823, 0.673)
        assert cov[0, 0] == pytest.approx(2.648**2, rel=1e-12)
        assert cov[0, 1] == cov[1, 0] == pytest.approx(0.673 * 2.648 * 3.823, rel=1e-12)
        assert cov[1, 1] == pytest.approx(3.823**2, rel=1e-12)
        assert np.allclose(cov, [[7.0119, 6.8130], [6.8130, 14.6153]], atol=5e-4)

    def test_singular_rejected(self):
        with pytest.raises(DegenerateCovarianceError):
            build_covariance(1.0, 1.0, 1.0)
        with pytest.raises(DegenerateCovarianceError):
            build_covariance(-1.0, 1.0, 0.0)
        with pytest.raises(DegenerateCovarianceError):  # a variance that underflows to 0
            build_covariance(1e-200, 1.0, 0.0)

    @given(
        a=st.floats(0.01, 9.9),
        b=st.floats(0.01, 9.9),
        rho=st.floats(-0.999, 0.999),
    )
    def test_determinant_identity(self, a, b, rho):
        cov = build_covariance(a, b, rho)
        det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
        expected = a * a * b * b * (1 - rho * rho)
        assert det == pytest.approx(expected, rel=1e-12)
        assert det > 0

    def test_zero_rho_diagonal(self):
        cov = build_covariance(2.0, 3.0, 0.0)
        assert cov[0, 1] == cov[1, 0] == 0.0


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
        assert density(state, data).posterior == -math.inf

    @settings(max_examples=50, deadline=None)
    @given(state=total_states())
    def test_is_sum_of_components(self, state):
        C = len(state.effects["b0"])
        data = make_total_dataset([(c, t, 0.5 * c + 0.1 * t) for c in range(C) for t in range(3)], C)
        terms = density(state, data)
        parts = terms.likelihood + terms.effects + terms.prior
        assert terms.posterior == pytest.approx(parts, rel=1e-12, abs=1e-12)

    def test_term_by_term_oracle(self):
        # independent re-implementation summing scalar normal densities
        entries = [(0, 0, 1.2), (0, 3, 2.0), (1, 1, -0.4)]
        data = make_total_dataset(entries, 2)
        state = total_state(0.7, 0.9, 1.4, 0.3, [0.2, -0.5], [0.05, -0.02])

        def norm_logpdf(x, mu, sd):
            return -0.5 * math.log(2 * math.pi) - math.log(sd) - 0.5 * ((x - mu) / sd) ** 2

        expected = 0.0
        for c, t, y in entries:
            mu = 0.7 + state.effects["b0"][c] + state.effects["b1"][c] * t
            expected += norm_logpdf(y, mu, 0.9)
        for c in range(2):
            expected += norm_logpdf(state.effects["b0"][c], 0.0, 1.4)
            expected += norm_logpdf(state.effects["b1"][c], 0.0, 0.3)
        expected += norm_logpdf(0.7, 0.0, 10.0) + 3 * math.log(1.0 / 10.0)
        assert density(state, data).posterior == pytest.approx(expected, rel=1e-12)


class TestPriorSpecOverride:
    def test_tighter_bound_shrinks_support(self):
        priors = PriorSpec(intercept_sd=2.0, sd_bound=3.0)
        state = total_state(0.0, 5.0, 1.0, 1.0, [0.0], [0.0])
        assert density(state, priors=priors).prior == -math.inf
        state_ok = total_state(0.0, 2.0, 1.0, 1.0, [0.0], [0.0])
        expected = -0.5 * LOG_2PI - math.log(2.0) - 3 * math.log(3.0)
        assert density(state_ok, priors=priors).prior == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("kind", ["total", "joint"])
    def test_draw_takes_each_name_from_its_prior(self, kind):
        # one generator call per name, in order: a normal for an intercept,
        # a uniform over the support for an sd or a correlation
        priors, spec = PriorSpec(intercept_sd=2.0, sd_bound=3.0), MODELS[kind]
        got = priors.draw(spec.param_names, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        want = [rng.normal(0.0, 2.0) if name.startswith("beta")
                else rng.uniform(-1.0, 1.0) if name.startswith("rho") else rng.uniform(0.0, 3.0)
                for name in spec.param_names]
        assert got == want
        assert all(type(x) is float for x in got)
        zeros = {tag: np.zeros(1) for tag in spec.effect_tags}
        state = ModelState(spec.params(*got), zeros)
        assert density(state, priors=priors).prior > -math.inf


class TestStreamStats:
    @pytest.mark.parametrize("kind", ["total", "joint"])
    def test_residual_ss_stable_far_from_zero(self, kind):
        # log-tonnes offset by 1e6: raw moments (sum y^2 ~ 1e14) would lose
        # every digit of a residual SS of order 100; centred ones keep them.
        # In the joint panel country 1 has industrial rows alone and country
        # C - 1 no rows.
        rng = np.random.default_rng(11)
        C, T = 8, 45
        sectors = MODELS[kind].sectors
        S = len(sectors)
        cells = [(s, k) for s in range(S) for k in range(C)
                 if kind == "total" or (k != C - 1 and (s, k) != (1, 1))]
        stream = np.repeat([s for s, _ in cells], T)
        c = np.repeat([k for _, k in cells], T)
        t = np.tile(np.arange(T), len(cells))
        a = 1e6 + rng.normal(0.0, 3.0, (S, C))
        b = rng.normal(0.0, 0.05, (S, C))
        y = a[stream, c] + b[stream, c] * t + rng.normal(0.0, 0.5, len(t))
        codes = np.array([s.code for s in sectors])[stream]
        data = Dataset(c, t, codes, y, [f"c{i}" for i in range(C)], T)
        st = model_streams(kind, data)
        assert st is model_streams(kind, data)

        for s in range(S):
            for k in range(C):
                rows = (stream == s) & (c == k)
                tk, yk = t[rows].astype(float), y[rows]
                want = np.zeros(6)
                if rows.any():
                    dt, dy = tk - tk.mean(), yk - yk.mean()
                    want = [rows.sum(), tk.mean(), yk.mean(), dt @ dt, dt @ dy, dy @ dy]
                got = [getattr(st, f)[s, k] for f in ("n", "tbar", "ybar", "stt", "sty", "syy")]
                np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-9)

        a_state = a + rng.normal(0.0, 0.1, (S, C))
        b_state = b + rng.normal(0.0, 0.01, (S, C))
        direct = float(np.sum((y - a_state[stream, c] - b_state[stream, c] * t) ** 2))
        assert st.residual_ss(a_state, b_state) == pytest.approx(direct, rel=1e-10)


def offset_panel(model, rng, C=8, T=45):
    """A panel and a nearby state whose log-tonnes sit near 1e6, with one
    year missing per country and, in the joint model, two one-sector
    countries."""
    if model == "total":
        state = total_state(1e6, 0.5, 3.0, 0.05, rng.normal(0, 3, C), rng.normal(0, 0.05, C))
        e = state.effects
        means = {Sector.TOTAL: lambda c, t: 1e6 + e["b0"][c] + e["b1"][c] * t}
    else:
        state = joint_state((1e6, 1e6 - 3.0, 0.5, 2.6, 3.8, 0.05, 0.05, 0.67, 0.9),
                            *rng.normal(0, [[3.0], [3.0], [0.05], [0.05]], (4, C)))
        e = state.effects
        means = {Sector.INDUSTRIAL: lambda c, t: 1e6 + e["b0_I"][c] + e["b1_I"][c] * t,
                 Sector.ARTISANAL: lambda c, t: 1e6 - 3.0 + e["b0_A"][c] + e["b1_A"][c] * t}
    rows = []
    for c in range(C):
        for k, (sector, mean) in enumerate(means.items()):
            if model == "joint" and c == k:
                continue  # country 0 has no industrial rows, country 1 no artisanal
            rows += [(c, t, sector, mean(c, t) + rng.normal(0, 0.5)) for t in range(T) if t != c]
    # the state's parameters and effects move off the values that drew the data
    values = {n: v + rng.normal(0, 0.01) for n, v in params_to_dict(state.params).items()}
    moved = ModelState(params_from_dict(model, values),
                       {tag: x + rng.normal(0, 0.01, C) for tag, x in state.effects.items()})
    return moved, make_joint_dataset(rows, C, horizon=T), rows


class TestLogDensity:
    @pytest.mark.parametrize("model", ["total", "joint"])
    def test_matches_direct_sum_far_from_zero(self, model):
        rng = np.random.default_rng(5)
        state, data, rows = offset_panel(model, rng)
        priors = PriorSpec(intercept_sd=1e6)
        p, e = params_to_dict(state.params), state.effects

        def norm_logpdf(x, mu, sd):
            return -0.5 * math.log(2 * math.pi) - math.log(sd) - 0.5 * ((x - mu) / sd) ** 2

        if model == "total":
            mean = {Sector.TOTAL: lambda c, t: p["beta0"] + e["b0"][c] + e["b1"][c] * t}
            pairs = [((e["b0"], e["b1"]), p["sigma0"], p["sigma1"], 0.0)]
        else:
            mean = {Sector.INDUSTRIAL: lambda c, t: p["beta0_I"] + e["b0_I"][c] + e["b1_I"][c] * t,
                    Sector.ARTISANAL: lambda c, t: p["beta0_A"] + e["b0_A"][c] + e["b1_A"][c] * t}
            pairs = [((e["b0_I"], e["b0_A"]), p["sigma0_I"], p["sigma0_A"], p["rho0"]),
                     ((e["b1_I"], e["b1_A"]), p["sigma1_I"], p["sigma1_A"], p["rho1"])]
        likelihood = sum(norm_logpdf(y, mean[s](c, t), p["sigma"]) for c, t, s, y in rows)
        effects = 0.0
        for (x1, x2), sd1, sd2, rho in pairs:
            cov = np.array([[sd1 * sd1, rho * sd1 * sd2], [rho * sd1 * sd2, sd2 * sd2]])
            for x in np.column_stack([x1, x2]):
                quad = x @ np.linalg.solve(cov, x)
                effects += -LOG_2PI - 0.5 * math.log(np.linalg.det(cov)) - 0.5 * quad
        prior = sum(
            norm_logpdf(v, 0.0, 1e6) if n.startswith("beta0")
            else -math.log(2.0 if n.startswith("rho") else 10.0)
            for n, v in p.items()
        )
        got = log_density(state, data, priors)
        assert got.likelihood == pytest.approx(likelihood, rel=1e-10)
        assert got.effects == pytest.approx(effects, rel=1e-10)
        assert got.prior == pytest.approx(prior, rel=1e-10)
        assert got.posterior == pytest.approx(likelihood + effects + prior, rel=1e-10)

    @pytest.mark.parametrize("model", ["total", "joint"])
    def test_broadcast_values_match_pointwise(self, model):
        # three lattice axes: an intercept, country 1's slope effect, and the
        # observation sd (total) or the slope correlation (joint)
        state, data, _ = offset_panel(model, np.random.default_rng(8), C=3, T=6)
        intercept, tag, third = (
            ("beta0", "b1", "sigma") if model == "total" else ("beta0_I", "b1_A", "rho1")
        )
        a, b, x = 1e6 + np.linspace(-1, 1, 5), np.linspace(-0.2, 0.2, 4), np.linspace(0.2, 0.8, 3)

        def at(a, b, x):
            values = {**params_to_dict(state.params), intercept: a, third: x}
            column = list(state.effects[tag])
            column[1] = b
            effects = {**state.effects, tag: column}
            return log_density(ModelState(params_from_dict(model, values), effects), data)

        got = at(a[:, None, None], b[None, :, None], x[None, None, :])
        assert got.posterior.shape == (5, 4, 3)
        for i, j, k in np.ndindex(5, 4, 3):
            want = at(a[i], b[j], x[k])
            for term in ("likelihood", "effects", "prior", "posterior"):
                cell = np.broadcast_to(getattr(got, term), (5, 4, 3))[i, j, k]
                assert cell == pytest.approx(getattr(want, term), rel=1e-12)


class TestModelTable:
    @pytest.mark.parametrize("kind, params", [
        ("total", TotalParams(8.0, 0.5, 4.0, 0.05)), ("joint", JointParams(*JOINT_OK)),
    ])
    def test_params_round_trip(self, kind, params):
        as_dict = params_to_dict(params)
        assert tuple(as_dict) == MODELS[kind].param_names
        assert params_from_dict(kind, as_dict) == params

    def test_params_from_dict_missing_key(self):
        values = params_to_dict(JointParams(*JOINT_OK))
        del values["rho1"]
        with pytest.raises(ConfigError, match="'rho1'"):
            params_from_dict("joint", values)

    @pytest.mark.parametrize("lookup", [
        lambda kind: params_from_dict(kind, {}), model_spec, lambda kind: draw_names(kind, ()),
    ])
    def test_unknown_kind(self, lookup):
        with pytest.raises(ConfigError, match="unknown model kind 'both'"):
            lookup("both")

    def test_draw_names(self):
        assert draw_names("total", ("A", "B")) == (
            "beta0", "sigma", "sigma0", "sigma1", "b0[A]", "b0[B]", "b1[A]", "b1[B]"
        )
        names = draw_names("joint", ("A",))
        assert names[9:] == ("b0_I[A]", "b0_A[A]", "b1_I[A]", "b1_A[A]")
