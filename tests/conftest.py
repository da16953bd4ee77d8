import numpy as np
import pytest

from landmix.model import (
    Dataset,
    JointEffects,
    JointParams,
    ModelState,
    Sector,
    TotalEffects,
    TotalParams,
)


def make_total_dataset(entries, n_countries, horizon=50, labels=None):
    """entries: iterable of (country, t, y) for the total sector."""
    return make_joint_dataset(
        [(c, t, Sector.TOTAL, y) for c, t, y in entries], n_countries, horizon, labels
    )


def make_joint_dataset(entries, n_countries, horizon=50, labels=None):
    """entries: iterable of (country, t, sector, y)."""
    rows = list(entries)
    labels = labels or tuple(f"c{i}" for i in range(n_countries))
    return Dataset(
        [c for c, _, _, _ in rows],
        [t for _, t, _, _ in rows],
        [s.code for _, _, s, _ in rows],
        [y for _, _, _, y in rows],
        labels,
        horizon,
    )


def total_state(beta0, sigma, sigma0, sigma1, b0, b1):
    return ModelState(
        TotalParams(beta0, sigma, sigma0, sigma1),
        TotalEffects(np.asarray(b0, dtype=float), np.asarray(b1, dtype=float)),
    )


def joint_state(params, b0_i, b0_a, b1_i, b1_a):
    return ModelState(
        JointParams(*params),
        JointEffects(
            np.asarray(b0_i, dtype=float),
            np.asarray(b0_a, dtype=float),
            np.asarray(b1_i, dtype=float),
            np.asarray(b1_a, dtype=float),
        ),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20260824)
