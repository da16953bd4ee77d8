"""Landings CSV ingestion, serialization and the generative simulator.

Input schema: ``country,year,sector,tonnes`` with sector in
{industrial, artisanal, total}.  Years are mapped to integer time indices
relative to the start of the configured span (default 1970-2014) and
tonnage is log-transformed.  Zero-tonnage rows are dropped with a warning
since their logarithm is undefined.
"""

from __future__ import annotations

import csv
import logging
import math
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataFormatError, utf8_text
from .model import (
    SECTORS,
    Dataset,
    JointEffects,
    Params,
    Sector,
    TotalEffects,
    build_covariance,
    model_spec,
)

log = logging.getLogger(__name__)

DEFAULT_SPAN = (1970, 2014)

_SECTORS = {s.value: s for s in Sector}


def _parse_rows(lines: Iterable[str], span: tuple[int, int]):
    reader = csv.reader(lines)
    header = next(reader, None)
    if header is None or [h.strip().lower() for h in header] != ["country", "year", "sector", "tonnes"]:
        raise DataFormatError("expected header 'country,year,sector,tonnes'")
    seen = set()
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 4:
            raise DataFormatError(f"line {lineno}: expected 4 fields, got {len(row)}")
        country, year_s, sector_s, tonnes_s = (f.strip() for f in row)
        try:
            year = int(year_s)
            tonnes = float(tonnes_s)
        except ValueError as exc:
            raise DataFormatError(f"line {lineno}: {exc}") from exc
        sector = _SECTORS.get(sector_s.lower())
        if sector is None:
            raise DataFormatError(f"line {lineno}: unknown sector {sector_s!r}")
        if not (span[0] <= year <= span[1]):
            raise DataFormatError(f"line {lineno}: year {year} outside span {span[0]}-{span[1]}")
        if tonnes < 0 or not math.isfinite(tonnes):
            raise DataFormatError(f"line {lineno}: invalid tonnage {tonnes_s!r}")
        key = (country, year, sector)
        if key in seen:
            raise DataFormatError(f"line {lineno}: duplicate row for {key}")
        seen.add(key)
        if tonnes == 0.0:
            log.warning("dropping zero-tonnage row %s/%s/%s (line %d)", country, year, sector.value, lineno)
            continue
        rows.append((country, year, sector, tonnes))
    return rows


def load_landings(path, model_kind: str, span: tuple[int, int] = DEFAULT_SPAN) -> Dataset:
    """Load a landings CSV into a model-ready dataset.

    For the total model, explicit ``total`` rows are used when present;
    otherwise totals are formed by summing sector tonnage per
    (country, year) before the log transform.
    """
    model_spec(model_kind)  # ConfigError for an unknown kind
    with utf8_text(path), open(path, newline="", encoding="utf-8") as fh:
        rows = _parse_rows(fh, span)

    labels: list[str] = []
    index: dict[str, int] = {}
    for country, _, _, _ in rows:
        if country not in index:
            index[country] = len(labels)
            labels.append(country)
    if not labels:
        raise DataFormatError("no usable rows in input")
    horizon = span[1] - span[0] + 1

    country = np.array([index[r[0]] for r in rows], dtype=np.intp)
    t = np.array([r[1] for r in rows], dtype=np.intp) - span[0]
    sector = np.array([r[2].code for r in rows], dtype=np.intp)
    tonnes = np.array([r[3] for r in rows], dtype=float)
    if model_kind == "joint":
        keep = sector != Sector.TOTAL.code
    elif np.any(sector == Sector.TOTAL.code):
        keep = sector == Sector.TOTAL.code
    else:
        # no explicit totals: sum sector tonnage per (country, year), then log
        cells, inverse = np.unique(country * horizon + t, return_inverse=True)
        tonnes = np.bincount(inverse, weights=tonnes)
        country, t = np.divmod(cells, horizon)
        sector = np.full(cells.size, Sector.TOTAL.code)
        keep = slice(None)
    country, t, sector, y = country[keep], t[keep], sector[keep], np.log(tonnes[keep])
    order = np.lexsort((sector, t, country))
    return Dataset(country[order], t[order], sector[order], y[order], tuple(labels), horizon)


def dataset_to_rows(data: Dataset, span_start: int = DEFAULT_SPAN[0]):
    """Landings-CSV rows (country, year, sector, tonnes) for a dataset."""
    labels = [data.labels[c] for c in data.country]
    sectors = [SECTORS[k].value for k in data.sector]
    years = (span_start + data.t).tolist()
    return zip(labels, years, sectors, np.exp(data.y).tolist())


def write_landings(data: Dataset, path, span_start: int = DEFAULT_SPAN[0]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["country", "year", "sector", "tonnes"])
        writer.writerows(
            [country, year, sector, repr(tonnes)]
            for country, year, sector, tonnes in dataset_to_rows(data, span_start)
        )


def _default_labels(n: int) -> tuple[str, ...]:
    return tuple(f"country{i:02d}" for i in range(n))


def simulate_dataset(
    model_kind: str,
    true_params: Params,
    n_countries: int,
    horizon: int,
    availability: Mapping[int, Sequence[Sector]] | None = None,
    seed: int = 0,
    labels: Sequence[str] | None = None,
):
    """Draw a synthetic panel from the generative model.

    Returns (dataset, effects) where effects holds the simulated
    per-country ground truth.  Deterministic under seed.
    """
    spec = model_spec(model_kind)
    if not isinstance(true_params, spec.params):
        raise ConfigError(f"{model_kind} model expects {spec.params.__name__}")
    if n_countries < 1 or horizon < 1:
        raise ConfigError("need at least one country and one time point")
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    if labels is None:
        labels = _default_labels(n_countries)
    labels = tuple(labels)
    if len(labels) != n_countries:
        raise ConfigError("label count does not match country count")
    t = np.arange(horizon, dtype=float)

    p = true_params
    if model_kind == "total":
        if min(p.sigma, p.sigma0, p.sigma1) <= 0:
            raise ConfigError("standard deviations must be positive")
        b0 = rng.normal(0.0, p.sigma0, n_countries)
        b1 = rng.normal(0.0, p.sigma1, n_countries)
        series = np.arange(n_countries)
        sectors = np.full(n_countries, Sector.TOTAL.code)
        level, slope = p.beta0 + b0, b1
        effects: TotalEffects | JointEffects = TotalEffects(b0, b1)
    else:
        cov0 = build_covariance(p.sigma0_ind, p.sigma0_art, p.rho0)
        cov1 = build_covariance(p.sigma1_ind, p.sigma1_art, p.rho1)
        pairs0 = rng.multivariate_normal([0.0, 0.0], cov0, size=n_countries)
        pairs1 = rng.multivariate_normal([0.0, 0.0], cov1, size=n_countries)
        effects = JointEffects(pairs0[:, 0], pairs0[:, 1], pairs1[:, 0], pairs1[:, 1])
        if p.sigma <= 0:
            raise ConfigError("sigma must be positive")
        cells = [
            (c, sector)
            for c in range(n_countries)
            for sector in (
                (Sector.INDUSTRIAL, Sector.ARTISANAL)
                if availability is None
                else tuple(availability.get(c, ()))
            )
        ]
        if any(sector not in (Sector.INDUSTRIAL, Sector.ARTISANAL) for _, sector in cells):
            raise ConfigError("joint availability must list industrial/artisanal only")
        series = np.array([c for c, _ in cells], dtype=np.intp)
        sectors = np.array([sector.code for _, sector in cells], dtype=np.intp)
        ind = sectors == Sector.INDUSTRIAL.code
        level = np.where(
            ind, p.beta0_ind + effects.b0_ind[series], p.beta0_art + effects.b0_art[series]
        )
        slope = np.where(ind, effects.b1_ind[series], effects.b1_art[series])

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
