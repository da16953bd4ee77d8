import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landmix.diagnostics import (
    ConvergenceEntry,
    compute_convergence,
    ess,
    pool_chains,
    render_summary_table,
    split_rhat,
    summarize,
    summary_csv_rows,
)
from landmix.errors import DegenerateDataError
from landmix.model import JOINT_PARAM_NAMES, TOTAL_PARAM_NAMES
from landmix.sampler import ChainDraws


class TestSummarize:
    def test_hand_example(self):
        s = summarize({"x": np.array([1.0, 2.0, 3.0, 4.0, 5.0])})["x"]
        assert s.mean == pytest.approx(3.0, abs=1e-12)
        assert s.sd == pytest.approx(1.581139, abs=1e-6)
        assert s.q025 == pytest.approx(1.1, abs=1e-12)
        assert s.q975 == pytest.approx(4.9, abs=1e-12)

    def test_constant_draws(self):
        s = summarize({"x": np.array([2.0, 2.0, 2.0])})["x"]
        assert (s.mean, s.sd, s.q025, s.q975) == (2.0, 0.0, 2.0, 2.0)

    def test_too_few_draws(self):
        with pytest.raises(DegenerateDataError):
            summarize({"x": np.array([1.0])})

    @given(
        a=st.floats(-5, 5).filter(lambda v: abs(v) > 1e-3),
        b=st.floats(-100, 100),
    )
    @settings(max_examples=50, deadline=None)
    def test_affine_equivariance(self, a, b):
        x = np.linspace(-2.0, 3.0, 37)
        base = summarize({"x": x})["x"]
        mapped = summarize({"x": a * x + b})["x"]
        assert mapped.mean == pytest.approx(a * base.mean + b, abs=1e-9)
        assert mapped.sd == pytest.approx(abs(a) * base.sd, rel=1e-9)
        lo, hi = sorted((a * base.q025 + b, a * base.q975 + b))
        assert mapped.q025 == pytest.approx(lo, abs=1e-9)
        assert mapped.q975 == pytest.approx(hi, abs=1e-9)


class TestSplitRhat:
    def test_hand_example(self):
        chain = np.array([1.0, 2.0, 3.0, 4.0])
        assert split_rhat([chain, chain]) == pytest.approx(1.77951, abs=1e-5)

    def test_iid_normal_near_one(self):
        rng = np.random.default_rng(11)
        chains = [rng.standard_normal(2000) for _ in range(4)]
        assert 0.99 < split_rhat(chains) < 1.01

    def test_disjoint_chains_flagged(self):
        rng = np.random.default_rng(12)
        chains = [rng.standard_normal(500), rng.standard_normal(500) + 10.0]
        assert split_rhat(chains) > 2.0

    def test_constant_chains_raise(self):
        with pytest.raises(DegenerateDataError):
            split_rhat([np.ones(10), np.ones(10)])

    def test_needs_two_chains(self):
        with pytest.raises(DegenerateDataError):
            split_rhat([np.arange(10.0)])

    def test_short_chains_rejected(self):
        with pytest.raises(DegenerateDataError):
            split_rhat([np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0])])

    @given(
        a=st.floats(-5, 5).filter(lambda v: abs(v) > 1e-3),
        b=st.floats(-100, 100),
    )
    @settings(max_examples=50, deadline=None)
    def test_affine_invariance(self, a, b):
        rng = np.random.default_rng(7)
        chains = [rng.standard_normal(64) for _ in range(3)]
        ref = split_rhat(chains)
        assert split_rhat([a * c + b for c in chains]) == pytest.approx(ref, rel=1e-9)


class TestEss:
    def test_iid_normal(self):
        rng = np.random.default_rng(21)
        assert 800 <= ess([rng.standard_normal(1000)]) <= 1200

    def test_capped_at_total_draws(self):
        rng = np.random.default_rng(22)
        assert ess([rng.standard_normal(1000)]) <= 1000

    def test_cumulative_sum_chain(self):
        rng = np.random.default_rng(23)
        chain = np.cumsum(rng.standard_normal(2000))
        assert ess([chain]) < 200

    def test_antithetic_chain_exceeds_cap(self):
        # strong negative lag-1 autocorrelation is super-efficient
        rng = np.random.default_rng(24)
        signs = np.where(np.arange(2000) % 2 == 0, 1.0, -1.0)
        chain = signs + 0.1 * rng.standard_normal(2000)
        conv = compute_convergence(
            fake_chains({"x": [chain, chain + 0.01 * rng.standard_normal(2000)]})
        )["x"]
        assert conv.anticorrelated
        assert conv.ess > 4000  # uncapped beyond the 4000 retained draws

    def test_constant_chain_raises(self):
        with pytest.raises(DegenerateDataError):
            ess([np.full(100, 3.0)])


def fake_chains(arrays_by_name, indices=(0, 1)):
    out = []
    for k in indices:
        matrix = np.column_stack([np.asarray(a[k], dtype=float) for a in arrays_by_name.values()])
        out.append(ChainDraws(tuple(arrays_by_name), matrix, acceptance={}, chain_index=k))
    return out


class TestConvergenceAndPooling:
    def test_pool_concatenates_in_order(self):
        chains = fake_chains({"beta0": [np.arange(3.0), np.arange(3.0) + 10]})
        pooled = pool_chains(chains)
        assert list(pooled) == ["beta0"]
        assert np.array_equal(pooled["beta0"], np.array([0, 1, 2, 10, 11, 12.0]))

    def test_compute_convergence_flags(self):
        rng = np.random.default_rng(31)
        good = [rng.standard_normal(1500), rng.standard_normal(1500)]
        bad = [rng.standard_normal(1500), rng.standard_normal(1500) + 8]
        chains = fake_chains({"a": good, "b": bad})
        conv = compute_convergence(chains)
        assert not conv["a"].flagged
        assert conv["b"].flagged
        assert conv["b"].rhat > 1.01

    def test_flag_thresholds(self):
        assert not ConvergenceEntry(rhat=1.005, ess=500.0).flagged
        assert ConvergenceEntry(rhat=1.02, ess=500.0).flagged
        assert ConvergenceEntry(rhat=1.0, ess=399.0).flagged


class TestTableRendering:
    def make_summary(self, names):
        from landmix.diagnostics import ParamSummary

        return {n: ParamSummary(float(i), 0.1, -1.0, 1.0) for i, n in enumerate(names)}

    def test_total_row_order(self):
        text = render_summary_table(self.make_summary(TOTAL_PARAM_NAMES), "total")
        lines = text.splitlines()
        assert lines[0].split()[0] == "parameter"
        assert [ln.split()[0] for ln in lines[1:]] == list(TOTAL_PARAM_NAMES)

    def test_joint_row_order(self):
        text = render_summary_table(self.make_summary(JOINT_PARAM_NAMES), "joint")
        assert [ln.split()[0] for ln in text.splitlines()[1:]] == list(JOINT_PARAM_NAMES)

    def test_csv_rows(self):
        rows = list(summary_csv_rows(self.make_summary(TOTAL_PARAM_NAMES), "total"))
        assert rows[0] == ["parameter", "mean", "sd", "q0.025", "q0.975"]
        assert [r[0] for r in rows[1:]] == list(TOTAL_PARAM_NAMES)
        assert float(rows[1][1]) == 0.0
