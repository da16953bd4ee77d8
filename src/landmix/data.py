"""Landings CSV ingestion, serialization and the generative simulator.

Input schema: ``country,year,sector,tonnes`` with sector in
{industrial, artisanal, total}.  A year maps to the time index
t = year - 1970 (years 1970-9999); a panel's horizon is its largest t
plus one, read from the data.  Tonnage is log-transformed.  Zero-tonnage
rows are dropped with a warning since their logarithm is undefined.  A
country left without rows in the sectors the model reads gets a warning
too: its effects are drawn from the prior.
"""

from __future__ import annotations

import csv
import logging
import math
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataFormatError, utf8_text
from .model import SECTORS, Dataset, Params, Sector, build_covariance, model_spec

log = logging.getLogger(__name__)

FIRST_YEAR = 1970

_SECTORS = {s.value: s for s in Sector}


def _parse_rows(lines: Iterable[str]):
    """The rows with positive tonnage, and each country's index in order of
    first appearance among all parsed rows, zero-tonnage ones included."""
    reader = csv.reader(lines)
    header = next(reader, None)
    if header is None or [h.strip().lower() for h in header] != ["country", "year", "sector", "tonnes"]:
        raise DataFormatError("expected header 'country,year,sector,tonnes'")
    seen = set()
    rows = []
    index: dict[str, int] = {}
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 4:
            raise DataFormatError(f"line {lineno}: expected 4 fields, got {len(row)}")
        country, year_s, sector_s, tonnes_s = (f.strip() for f in row)
        if not country:
            raise DataFormatError(f"line {lineno}: empty country")
        try:
            year = int(year_s)
            tonnes = float(tonnes_s)
        except ValueError as exc:
            raise DataFormatError(f"line {lineno}: {exc}") from exc
        sector = _SECTORS.get(sector_s.lower())
        if sector is None:
            raise DataFormatError(f"line {lineno}: unknown sector {sector_s!r}")
        # the upper bound keeps t far inside np.intp
        if not (FIRST_YEAR <= year <= 9999):
            raise DataFormatError(f"line {lineno}: year {year} outside {FIRST_YEAR}-9999")
        if tonnes < 0 or not math.isfinite(tonnes):
            raise DataFormatError(f"line {lineno}: invalid tonnage {tonnes_s!r}")
        key = (country, year, sector)
        if key in seen:
            raise DataFormatError(f"line {lineno}: duplicate row for {key}")
        seen.add(key)
        index.setdefault(country, len(index))
        if tonnes == 0.0:
            log.warning("dropping zero-tonnage row %s/%s/%s (line %d)", country, year, sector.value, lineno)
            continue
        rows.append((country, year, sector, tonnes))
    return rows, index


def load_landings(path, model_kind: str) -> Dataset:
    """Load a landings CSV into a model-ready dataset.

    For the total model, explicit ``total`` rows are used when present;
    otherwise totals are formed by summing sector tonnage per
    (country, year) before the log transform.
    """
    spec = model_spec(model_kind)  # ConfigError for an unknown kind
    with utf8_text(path), open(path, newline="", encoding="utf-8") as fh:
        rows, index = _parse_rows(fh)
    if not rows:
        raise DataFormatError("no usable rows in input")
    labels = tuple(index)

    country = np.array([index[r[0]] for r in rows], dtype=np.intp)
    t = np.array([r[1] for r in rows], dtype=np.intp) - FIRST_YEAR
    horizon = int(t.max()) + 1
    sector = np.array([r[2].code for r in rows], dtype=np.intp)
    tonnes = np.array([r[3] for r in rows], dtype=float)
    keep = np.isin(sector, [s.code for s in spec.sectors])
    wanted = " or ".join(s.value for s in spec.sectors)
    if model_kind == "total" and not keep.any():
        # no explicit totals: sum sector tonnage per (country, year), then log
        cells, inverse = np.unique(country * horizon + t, return_inverse=True)
        tonnes = np.bincount(inverse, weights=tonnes)
        country, t = np.divmod(cells, horizon)
        sector = np.full(cells.size, Sector.TOTAL.code)
        keep = slice(None)
    elif not keep.any():
        raise DataFormatError(f"{path}: no {wanted} rows for the {model_kind} model")
    country, t, sector, y = country[keep], t[keep], sector[keep], np.log(tonnes[keep])
    for c in np.flatnonzero(np.bincount(country, minlength=len(labels)) == 0):
        log.warning("country %s has no %s rows: its effects are drawn from the prior",
                    labels[c], wanted)
    order = np.lexsort((sector, t, country))
    return Dataset(country[order], t[order], sector[order], y[order], labels, horizon)


def write_landings(data: Dataset, path) -> None:
    """Write a dataset as a landings CSV, each year FIRST_YEAR + t."""
    labels = [data.labels[c] for c in data.country]
    sectors = [SECTORS[k].value for k in data.sector]
    years = (FIRST_YEAR + data.t).tolist()
    tonnes = map(repr, np.exp(data.y).tolist())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["country", "year", "sector", "tonnes"])
        writer.writerows(zip(labels, years, sectors, tonnes))


def simulate_dataset(
    model_kind: str,
    true_params: Params,
    n_countries: int,
    horizon: int,
    availability: Mapping[int, Sequence[Sector]] | None = None,
    seed: int = 0,
):
    """Draw a synthetic panel from the generative model.

    Returns (dataset, effects) where effects maps each of the model's
    effect tags to its simulated per-country ground truth.  Deterministic
    under seed.
    """
    spec = model_spec(model_kind)
    if not isinstance(true_params, spec.params):
        raise ConfigError(f"{model_kind} model expects {spec.params.__name__}")
    if n_countries < 1 or horizon < 1:
        raise ConfigError("need at least one country and one time point")
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    labels = tuple(f"country{i:02d}" for i in range(n_countries))
    t = np.arange(horizon, dtype=float)

    p = true_params
    if model_kind == "total":
        if availability is not None:
            raise ConfigError("the total model takes no availability: each country has one series")
        if min(p.sigma, p.sigma0, p.sigma1) <= 0:
            raise ConfigError("standard deviations must be positive")
        b0 = rng.normal(0.0, p.sigma0, n_countries)
        b1 = rng.normal(0.0, p.sigma1, n_countries)
        series = np.arange(n_countries)
        sectors = np.full(n_countries, Sector.TOTAL.code)
        level, slope = p.beta0 + b0, b1
        effects = {"b0": b0, "b1": b1}
    else:
        cov0 = build_covariance(p.sigma0_ind, p.sigma0_art, p.rho0)
        cov1 = build_covariance(p.sigma1_ind, p.sigma1_art, p.rho1)
        pairs0 = rng.multivariate_normal([0.0, 0.0], cov0, size=n_countries)
        pairs1 = rng.multivariate_normal([0.0, 0.0], cov1, size=n_countries)
        effects = dict(zip(spec.effect_tags, (*pairs0.T, *pairs1.T)))
        if p.sigma <= 0:
            raise ConfigError("sigma must be positive")
        cells = [
            (c, sector)
            for c in range(n_countries)
            for sector in (spec.sectors if availability is None else availability.get(c, ()))
        ]
        if any(sector not in spec.sectors for _, sector in cells):
            raise ConfigError("joint availability must list industrial/artisanal only")
        series = np.array([c for c, _ in cells], dtype=np.intp)
        sectors = np.array([sector.code for _, sector in cells], dtype=np.intp)
        ind = sectors == Sector.INDUSTRIAL.code
        level = np.where(
            ind, p.beta0_ind + effects["b0_I"][series], p.beta0_art + effects["b0_A"][series]
        )
        slope = np.where(ind, effects["b1_I"][series], effects["b1_A"][series])

    # one series of `horizon` rows per (country, sector) cell, drawn in cell order
    y = level[:, None] + slope[:, None] * t + rng.normal(0.0, p.sigma, (len(series), horizon))
    dataset = Dataset(
        np.repeat(series, horizon),
        np.tile(np.arange(horizon), len(series)),
        np.repeat(sectors, horizon),
        y.ravel(),
        labels,
        horizon,
    )
    return dataset, effects
