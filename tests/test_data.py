import logging
import math

import numpy as np
import pytest

from landmix.data import (
    load_landings,
    simulate_dataset,
    write_landings,
)
from landmix.errors import ConfigError, DataFormatError
from landmix.model import MODELS, SECTORS, JointParams, Sector, TotalParams


def assert_same_rows(a, b):
    for name in ("country", "t", "sector", "y"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def sectors_of(data, c):
    """The sectors in which country c has rows."""
    return frozenset(SECTORS[k] for k in data.sector[data.country == c])


def write_csv(tmp_path, rows, name="landings.csv"):
    path = tmp_path / name
    path.write_text("country,year,sector,tonnes\n" + "\n".join(rows) + "\n")
    return path


class TestLoadLandings:
    def test_log_transform_and_time_index(self, tmp_path):
        path = write_csv(tmp_path, ["Spain,1970,industrial,1000"])
        data = load_landings(path, "joint")
        assert data.n_obs == 1
        assert data.t[0] == 0
        assert data.sector[0] == Sector.INDUSTRIAL.code
        assert data.y[0] == pytest.approx(6.907755278982137, abs=1e-9)

    def test_sum_then_log_for_total(self, tmp_path):
        path = write_csv(
            tmp_path, ["France,1980,industrial,600", "France,1980,artisanal,400"]
        )
        data = load_landings(path, "total")
        assert data.n_obs == 1
        assert data.t[0] == 10
        assert data.sector[0] == Sector.TOTAL.code
        assert data.y[0] == pytest.approx(math.log(1000.0), rel=1e-12)

    def test_explicit_total_rows_win(self, tmp_path):
        path = write_csv(
            tmp_path,
            ["France,1980,industrial,600", "France,1980,total,900"],
        )
        data = load_landings(path, "total")
        assert data.n_obs == 1
        assert data.y[0] == pytest.approx(math.log(900.0), rel=1e-12)

    def test_zero_tonnage_dropped_with_warning(self, tmp_path, caplog):
        path = write_csv(
            tmp_path, ["Spain,1970,industrial,1000", "Spain,1971,industrial,0"]
        )
        with caplog.at_level(logging.WARNING, logger="landmix.data"):
            data = load_landings(path, "joint")
        assert data.n_obs == 1
        assert any("zero-tonnage" in rec.message for rec in caplog.records)

    @pytest.mark.parametrize("model, rows, missing", [
        # C's industrial rows are outside the total model's sectors
        ("total", ["A,1970,total,10", "B,1970,total,12", "C,1970,industrial,7"], ["C"]),
        # A and B have total rows alone, which the joint model does not read
        ("joint", ["A,1970,total,10", "B,1971,total,11", "C,1970,industrial,7"], ["A", "B"]),
        ("total", ["A,1970,total,10", "B,1970,total,12", "B,1970,industrial,7"], []),
        ("joint", ["A,1970,industrial,10", "B,1971,artisanal,11", "B,1971,total,7"], []),
    ], ids=["total", "joint", "total-clean", "joint-clean"])
    def test_country_without_rows_warned(self, tmp_path, caplog, model, rows, missing):
        path = write_csv(tmp_path, rows)
        with caplog.at_level(logging.WARNING, logger="landmix.data"):
            data = load_landings(path, model)
        wanted = " or ".join(s.value for s in MODELS[model].sectors)
        assert caplog.messages == [
            f"country {c} has no {wanted} rows: its effects are drawn from the prior"
            for c in missing
        ]
        assert set(missing) <= set(data.labels)  # kept, with no rows

    @pytest.mark.parametrize("model, sector", [("total", "total"), ("joint", "industrial")])
    def test_country_with_only_zero_tonnage_kept_and_warned(self, tmp_path, caplog, model,
                                                            sector):
        # every row of B reads 0 tonnes: each is dropped, and B stays in the
        # panel as a country without rows
        path = write_csv(tmp_path, [f"A,1970,{sector},10", f"B,1970,{sector},0",
                                    f"B,1971,{sector},0", f"C,1971,{sector},12"])
        with caplog.at_level(logging.WARNING, logger="landmix.data"):
            data = load_landings(path, model)
        assert data.labels == ("A", "B", "C")
        assert data.country.tolist() == [0, 2]
        wanted = " or ".join(s.value for s in MODELS[model].sectors)
        assert caplog.messages[-1] == (
            f"country B has no {wanted} rows: its effects are drawn from the prior")
        assert sum("zero-tonnage" in m for m in caplog.messages) == 2

    def test_only_zero_tonnage_rows_rejected(self, tmp_path):
        path = write_csv(tmp_path, ["A,1970,total,0", "B,1970,total,0"])
        with pytest.raises(DataFormatError, match="no usable rows"):
            load_landings(path, "total")

    def test_duplicate_row_rejected(self, tmp_path):
        path = write_csv(
            tmp_path, ["Spain,1970,industrial,10", "Spain,1970,industrial,20"]
        )
        with pytest.raises(DataFormatError, match="duplicate"):
            load_landings(path, "joint")

    def test_year_outside_span_rejected(self, tmp_path):
        path = write_csv(tmp_path, ["Spain,1969,industrial,10"])
        with pytest.raises(DataFormatError, match="line 2"):
            load_landings(path, "joint")

    def test_unparseable_row_reports_line(self, tmp_path):
        path = write_csv(tmp_path, ["Spain,1970,industrial,10", "Spain,notayear,industrial,5"])
        with pytest.raises(DataFormatError, match="line 3"):
            load_landings(path, "joint")

    @pytest.mark.parametrize("country", ["", "   "])
    def test_empty_country_rejected(self, tmp_path, country):
        # a blank label would be read as a country of its own
        path = write_csv(tmp_path, ["Spain,1970,total,10", f"{country},1971,total,5"])
        with pytest.raises(DataFormatError, match="line 3: empty country"):
            load_landings(path, "total")

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("pais,ano,sector,toneladas\nSpain,1970,industrial,10\n")
        with pytest.raises(DataFormatError, match="header"):
            load_landings(path, "joint")

    def test_availability_read_from_data(self, tmp_path):
        path = write_csv(
            tmp_path,
            [
                "Spain,1970,industrial,10",
                "France,1970,industrial,10",
                "France,1970,artisanal,5",
            ],
        )
        data = load_landings(path, "joint")
        spain = data.labels.index("Spain")
        france = data.labels.index("France")
        assert sectors_of(data, spain) == frozenset({Sector.INDUSTRIAL})
        assert sectors_of(data, france) == frozenset({Sector.INDUSTRIAL, Sector.ARTISANAL})

    def test_roundtrip_idempotent(self, tmp_path):
        path = write_csv(
            tmp_path,
            [
                "Spain,1970,industrial,1234.5",
                "Spain,1980,industrial,99.25",
                "France,1990,artisanal,7.125",
            ],
        )
        d1 = load_landings(path, "joint")
        out1 = tmp_path / "rt1.csv"
        write_landings(d1, out1)
        d2 = load_landings(out1, "joint")
        out2 = tmp_path / "rt2.csv"
        write_landings(d2, out2)
        d3 = load_landings(out2, "joint")
        assert d2.labels == d3.labels
        assert_same_rows(d2, d3)
        for name in ("country", "t", "sector"):
            assert np.array_equal(getattr(d1, name), getattr(d2, name))
        np.testing.assert_allclose(d1.y, d2.y, rtol=1e-15)


class TestSimulateDataset:
    def test_same_seed_identical(self):
        p = TotalParams(8.0, 0.5, 2.0, 0.05)
        d1, e1 = simulate_dataset("total", p, 5, 10, seed=42)
        d2, e2 = simulate_dataset("total", p, 5, 10, seed=42)
        assert_same_rows(d1, d2)
        assert np.array_equal(e1["b0"], e2["b0"])

    def test_degenerate_variance_limit(self):
        p = TotalParams(3.5, 1e-8, 1e-8, 1e-8)
        data, _ = simulate_dataset("total", p, 3, 4, seed=0)
        assert data.n_obs == 12
        np.testing.assert_allclose(data.y, 3.5, rtol=0, atol=1e-6)

    def test_intercept_effect_spread_matches_sigma0(self):
        p = TotalParams(8.098, 0.541, 4.234, 0.054)
        _, effects = simulate_dataset("total", p, 500, 45, seed=3)
        assert np.var(effects["b0"], ddof=1) == pytest.approx(4.234**2, rel=0.15)

    def test_simulated_data_revalidates(self, tmp_path):
        p = JointParams(8.0, 5.0, 0.5, 2.0, 3.0, 0.05, 0.06, 0.5, 0.9)
        data, _ = simulate_dataset("joint", p, 4, 6, seed=9)
        path = tmp_path / "sim.csv"
        write_landings(data, path)
        loaded = load_landings(path, "joint")
        assert loaded.labels == data.labels
        assert loaded.horizon == data.horizon
        assert loaded.n_obs == data.n_obs

    def test_availability_respected(self):
        p = JointParams(8.0, 5.0, 0.5, 2.0, 3.0, 0.05, 0.06, 0.5, 0.9)
        data, _ = simulate_dataset(
            "joint",
            p,
            2,
            3,
            availability={0: (Sector.INDUSTRIAL,), 1: (Sector.INDUSTRIAL, Sector.ARTISANAL)},
            seed=1,
        )
        assert sectors_of(data, 0) == frozenset({Sector.INDUSTRIAL})
        assert sectors_of(data, 1) == frozenset({Sector.INDUSTRIAL, Sector.ARTISANAL})

    def test_total_model_rejects_availability(self):
        with pytest.raises(ConfigError, match="availability"):
            simulate_dataset("total", TotalParams(8.0, 0.5, 4.0, 0.05), 2, 3,
                             availability={0: (Sector.INDUSTRIAL,)}, seed=1)

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigError):
            simulate_dataset("total", TotalParams(0.0, -1.0, 1.0, 1.0), 2, 3)
        with pytest.raises(ConfigError):
            simulate_dataset("total", TotalParams(0.0, 1.0, 1.0, 1.0), 0, 3)
