import math

import numpy as np
import pytest
from scipy.stats import chisquare

from landmix.errors import ConfigError
from landmix.model import Sector, TotalEffects
from landmix.oracle import (
    GridSpec,
    SBCConfig,
    _uniform_pvalue,
    conjugate_posterior_beta0,
    grid_log_posterior,
    sbc_run,
)
from landmix.sampler import ChainConfig

from conftest import joint_state, make_joint_dataset, make_total_dataset, total_state


class TestConjugateOracle:
    def test_single_residual(self):
        data = make_total_dataset([(0, 0, 10.0)], 1)
        eff = TotalEffects(np.zeros(1), np.zeros(1))
        mean, sd = conjugate_posterior_beta0(data, eff, sigma=1.0)
        assert mean == pytest.approx(9.90099, abs=1e-5)
        assert sd == pytest.approx(math.sqrt(100.0 / 101.0), rel=1e-9)
        assert sd == pytest.approx(0.995037, abs=1e-6)

    def test_zero_observations_returns_prior(self):
        data = make_total_dataset([], 1)
        eff = TotalEffects(np.zeros(1), np.zeros(1))
        assert conjugate_posterior_beta0(data, eff, sigma=1.0) == (0.0, 10.0)

    def test_zero_residuals_symmetric(self):
        entries = [(0, t, 0.3 + 0.02 * t) for t in range(5)]
        data = make_total_dataset(entries, 1)
        eff = TotalEffects(np.array([0.3]), np.array([0.02]))
        mean, sd = conjugate_posterior_beta0(data, eff, sigma=0.7)
        assert mean == pytest.approx(0.0, abs=1e-12)
        assert sd == pytest.approx(math.sqrt(1.0 / (0.01 + 5 / 0.49)), rel=1e-12)

    def test_effects_subtracted(self):
        data = make_total_dataset([(0, 2, 5.0)], 1)
        eff = TotalEffects(np.array([1.0]), np.array([0.5]))
        mean, _ = conjugate_posterior_beta0(data, eff, sigma=1.0)
        # residual is 5 - 1 - 0.5*2 = 3
        assert mean == pytest.approx(3.0 / 1.01, rel=1e-9)

    def test_rows_outside_the_total_sector_raise_config_error(self):
        # one country: two total rows and one industrial row, which the
        # oracle once dropped without a word
        data = make_joint_dataset(
            [(0, 0, Sector.TOTAL, 1.0), (0, 1, Sector.TOTAL, 1.5),
             (0, 0, Sector.INDUSTRIAL, 0.7)], 1)
        eff = TotalEffects(np.zeros(1), np.zeros(1))
        with pytest.raises(ConfigError, match="rows outside the total model's sectors"):
            conjugate_posterior_beta0(data, eff, sigma=1.0)


class TestGridOracle:
    def test_matches_conjugate_within_tenth_percent(self):
        data = make_total_dataset([(0, 0, 1.2), (0, 1, 1.5), (1, 0, 0.8)], 2)
        fixed = total_state(0.0, 0.9, 1.1, 0.3, [0.2, -0.1], [0.05, 0.0])
        mean, sd = conjugate_posterior_beta0(
            data, fixed.effects, sigma=0.9
        )
        spec = GridSpec({"beta0": (mean - 8 * sd, mean + 8 * sd, 10000)})
        res = grid_log_posterior("total", data, spec, fixed)
        assert res.mean("beta0") == pytest.approx(mean, abs=abs(mean) * 1e-3 + 1e-6)
        half_width = res.quantile("beta0", 0.975) - res.quantile("beta0", 0.025)
        assert half_width == pytest.approx(2 * 1.959964 * sd, rel=5e-3)

    def test_uniform_prior_no_data_midpoint(self):
        data = make_total_dataset([], 1)
        fixed = total_state(0.0, 1.0, 1.0, 1.0, [0.0], [0.0])
        spec = GridSpec({"sigma": (0.0, 10.0, 64)})
        res = grid_log_posterior("total", data, spec, fixed)
        assert res.mean("sigma") == pytest.approx(5.0, abs=1e-9)
        assert np.allclose(res.marginals["sigma"], 1.0 / 64)

    def test_refinement_converges(self):
        data = make_total_dataset([(0, 0, 1.0), (0, 1, 1.4), (1, 0, 0.4)], 2)
        fixed = total_state(0.0, 1.0, 1.0, 0.05, [0.0, 0.0], [0.0, 0.0])
        means = []
        for n in (40, 80, 160):
            spec = GridSpec(
                {"beta0": (-5.0, 7.0, n), "sigma": (0.05, 4.0, n), "sigma0": (0.05, 4.0, n)}
            )
            res = grid_log_posterior("total", data, spec, fixed)
            means.append(res.mean("beta0"))
        assert abs(means[2] - means[1]) < abs(means[1] - means[0]) + 1e-6
        assert abs(means[2] - means[1]) < 0.01

    def test_marginals_sum_to_one(self):
        data = make_total_dataset([(0, 0, 1.0)], 1)
        fixed = total_state(0.0, 1.0, 1.0, 1.0, [0.0], [0.0])
        spec = GridSpec({"beta0": (-4.0, 6.0, 50), "b0[0]": (-4.0, 4.0, 50)})
        res = grid_log_posterior("total", data, spec, fixed)
        for name in ("beta0", "b0[0]"):
            assert float(np.sum(res.marginals[name])) == pytest.approx(1.0, abs=1e-12)

    def test_size_guard(self):
        with pytest.raises(ConfigError, match="guard"):
            GridSpec({"a": (0, 1, 3000), "b": (0, 1, 3000), "c": (0, 1, 3000)})

    def test_bad_axis(self):
        with pytest.raises(ConfigError):
            GridSpec({"beta0": (1.0, 1.0, 10)})
        with pytest.raises(ConfigError):
            GridSpec({"beta0": (0.0, 1.0, 1)})
        with pytest.raises(ConfigError, match="at least one axis"):
            GridSpec({})

    def test_sd_axis_outside_support_rejected(self):
        data = make_total_dataset([(0, 0, 1.0)], 1)
        fixed = total_state(0.0, 1.0, 1.0, 1.0, [0.0], [0.0])
        with pytest.raises(ConfigError):
            grid_log_posterior(
                "total", data, GridSpec({"sigma": (0.0, 12.0, 16)}), fixed
            )
        # a fixed value outside the support leaves no posterior mass anywhere
        outside = total_state(0.0, 1.0, 11.0, 1.0, [0.0], [0.0])
        with pytest.raises(ConfigError, match="-inf everywhere"):
            grid_log_posterior("total", data, GridSpec({"beta0": (-1.0, 1.0, 8)}), outside)

    def test_joint_model_unsupported(self):
        # the joint model has no stream for total-sector rows
        data = make_total_dataset([(0, 0, 1.0)], 1)
        fixed = joint_state((0, 0, 1, 1, 1, 1, 1, 0, 0), [0.0], [0.0], [0.0], [0.0])
        with pytest.raises(ConfigError, match="outside the joint model's sectors"):
            grid_log_posterior("joint", data, GridSpec({"beta0_I": (-1, 1, 8)}), fixed)

    @pytest.mark.parametrize(
        "model, axis",
        [
            ("total", "b0[7]"),
            ("total", "b1[2]"),
            ("total", "sigma_0"),
            ("total", "rho0"),
            ("total", "b0_I[0]"),
            ("total", " beta0"),
            ("joint", "beta0"),
            ("joint", "b0[0]"),
            ("joint", "b1_A[2]"),
            ("joint", "b0_I[0]\n"),
        ],
    )
    def test_unknown_axis_rejected(self, model, axis):
        # on a 2-country panel: unknown names, the other model's names and
        # effect indices past the last country are configuration errors
        if model == "total":
            data = make_total_dataset([(0, 0, 1.0), (1, 0, 2.0)], 2)
            fixed = total_state(0.0, 1.0, 1.0, 1.0, [0.0, 0.0], [0.0, 0.0])
        else:
            data = make_joint_dataset([(0, 0, Sector.INDUSTRIAL, 1.0)], 2)
            fixed = joint_state((0, 0, 1, 1, 1, 1, 1, 0, 0), *[[0.0, 0.0]] * 4)
        with pytest.raises(ConfigError, match="axis"):
            grid_log_posterior(model, data, GridSpec({axis: (-1.0, 1.0, 8)}), fixed)

    def test_joint_intercept_matches_conjugate(self):
        # beta0_A alone is free: its posterior is the conjugate normal of the
        # artisanal residuals, whatever the industrial stream holds
        entries = [(0, 0, Sector.ARTISANAL, 5.2), (0, 3, Sector.ARTISANAL, 5.9),
                   (1, 1, Sector.ARTISANAL, 3.1), (1, 2, Sector.INDUSTRIAL, 40.0)]
        data = make_joint_dataset(entries, 2)
        fixed = joint_state((8.0, 5.0, 0.6, 2.0, 3.0, 0.1, 0.1, 0.5, 0.5),
                            [0.1, -0.3], [0.4, -1.2], [0.0, 0.0], [0.05, 0.02])
        resid = [y - fixed.effects.b0_art[c] - fixed.effects.b1_art[c] * t
                 for c, t, s, y in entries if s is Sector.ARTISANAL]
        prec = 1.0 / 100.0 + len(resid) / 0.36
        mean, sd = sum(resid) / 0.36 / prec, prec ** -0.5
        res = grid_log_posterior(
            "joint", data, GridSpec({"beta0_A": (mean - 8 * sd, mean + 8 * sd, 4001)}), fixed
        )
        assert res.mean("beta0_A") == pytest.approx(mean, rel=1e-9)
        assert res.quantile("beta0_A", 0.975) - res.quantile("beta0_A", 0.025) == \
            pytest.approx(2 * 1.959964 * sd, rel=5e-3)

    def test_joint_correlation_axis_at_midpoints(self):
        data = make_joint_dataset([], 2)
        fixed = joint_state((0, 0, 1, 1, 1, 1, 1, 0, 0), *[[0.0, 0.0]] * 4)
        res = grid_log_posterior("joint", data, GridSpec({"rho1": (-1.0, 1.0, 4)}), fixed)
        assert np.allclose(res.axes["rho1"], [-0.75, -0.25, 0.25, 0.75])
        with pytest.raises(ConfigError, match="support"):
            grid_log_posterior("joint", data, GridSpec({"rho1": (-1.5, 1.0, 4)}), fixed)


def small_sbc(chain=None):
    return SBCConfig(
        n_countries=3,
        horizon=6,
        chain=chain
        or ChainConfig(iterations=600, burnin=200, thin=1, chains=2, seed=0),
        rank_draws=19,
        rank_bins=4,
    )


class TestSBC:
    def test_ranks_in_range_and_deterministic(self):
        cfg = small_sbc()
        res1 = sbc_run("total", cfg, replicates=6, seed=100)
        res2 = sbc_run("total", cfg, replicates=6, seed=100)
        for p, arr in res1.ranks.items():
            assert arr.size + res1.excluded == 6
            assert np.all((arr >= 0) & (arr <= cfg.rank_draws))
            assert np.array_equal(arr, res2.ranks[p])

    def test_rank_bins_must_divide(self):
        with pytest.raises(ConfigError):
            SBCConfig(rank_draws=50, rank_bins=10)

    def test_joint_unsupported(self):
        with pytest.raises(ConfigError):
            sbc_run("joint", small_sbc(), replicates=1, seed=0)

    def test_needs_two_chains(self):
        # one chain has no split R-hat, so the gate could exclude nothing
        chain = ChainConfig(iterations=600, burnin=200, thin=1, chains=1, seed=0)
        with pytest.raises(ConfigError, match="at least 2 chains"):
            sbc_run("total", small_sbc(chain), replicates=1, seed=0)

    def test_needs_rank_draws_distinct_draws(self):
        # 2 chains of 5 retained draws cannot give 19 distinct draws to rank among
        chain = ChainConfig(iterations=15, burnin=10, thin=1, chains=2, seed=0)
        with pytest.raises(ConfigError, match=r"among 19 draws.* only 10 "):
            sbc_run("total", small_sbc(chain), replicates=1, seed=0)

    @pytest.mark.parametrize("replicates", [0, -3])
    def test_needs_a_replicate(self, replicates):
        with pytest.raises(ConfigError, match="at least 1 replicate"):
            sbc_run("total", small_sbc(), replicates=replicates, seed=0)

    def test_skipped_variance_update_detectable(self):
        # with the observation-variance update disabled, sigma never moves off
        # its initial value, so true sigma almost always falls on one side
        chain = ChainConfig(
            iterations=600,
            burnin=200,
            thin=1,
            chains=2,
            seed=0,
            skip_updates=("obs_variance",),
        )
        res = sbc_run("total", small_sbc(chain), replicates=10, seed=7)
        ranks = res.ranks["sigma"]
        extremes = np.sum((ranks == 0) | (ranks == res.rank_max))
        assert extremes >= ranks.size * 0.7

    def test_pvalues_are_scipy_chisquare(self):
        cfg = small_sbc()
        res = sbc_run("total", cfg, replicates=6, seed=100)
        per_bin = (cfg.rank_draws + 1) // cfg.rank_bins
        for p, ranks in res.ranks.items():
            counts = np.bincount(ranks // per_bin, minlength=cfg.rank_bins)
            assert res.pvalues[p] == chisquare(counts).pvalue

    @pytest.mark.parametrize("counts", [
        [5] * 10,  # uniform: statistic 0, p-value 1
        [50] + [0] * 9,  # all in one bin
        [0] * 9 + [1],
        [3, 0, 1, 7, 2, 2, 0, 4, 1, 5],
        [1, 2],
        [200, 190, 210, 205],
    ])
    def test_uniform_pvalue_matches_scipy(self, counts):
        counts = np.array(counts)
        assert _uniform_pvalue(counts) == chisquare(counts).pvalue

    def test_every_replicate_excluded_gives_nan_pvalues(self):
        # a gate below 1 excludes every replicate: no ranks remain to bin
        chain = ChainConfig(iterations=60, burnin=30, thin=1, chains=2)
        config = SBCConfig(4, 10, chain, rhat_gate=0.5)
        res = sbc_run("total", config, replicates=3, seed=0)
        assert res.excluded == 3
        assert res.failed
        for p, value in res.pvalues.items():
            assert math.isnan(value)
            assert res.ranks[p].size == 0
