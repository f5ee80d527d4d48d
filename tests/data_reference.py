"""Row-by-row implementations of the series set-up path, kept as the
references that ``multifuture.data``'s whole-array code must match: the
hour-by-hour simulator drawing from the scalar ``SplitMix64`` stream, the
per-row CSV formatter, and the per-row CSV reader with its checks in
their order."""

import csv
import math
from datetime import datetime, timedelta, timezone

import numpy as np

from multifuture.data import (
    CSV_HEADER,
    CsvFormatError,
    GeneratorConfig,
    MultivariateSeries,
    SplitMix64,
    _parse_timestamp,
)

_HOUR = timedelta(hours=1)


def simulate(config: GeneratorConfig, n_hours: int, rng: SplitMix64,
             start_hour: int, regime_index: int) -> tuple[np.ndarray, int]:
    """Simulate hours [start_hour, start_hour + n_hours); returns final regime."""
    base_count, card_frac, ticket, base_rate = config.base_levels
    values = np.empty((n_hours, 4))
    for step in range(n_hours):
        hour = start_hour + step
        if hour % 24 == 0 and not (step == 0 and hour == 0):
            if rng.uniform() < config.regime_switch_prob:
                regime_index = rng.randint(len(config.regimes))
        regime = config.regimes[regime_index]
        daily_phase = ((hour % 24) + regime.phase_hours) / 24.0
        weekly_phase = (hour % 168) / 168.0
        pattern = (1.0
                   + config.daily_amp * math.sin(2.0 * math.pi * daily_phase)
                   + config.weekly_amp * math.sin(2.0 * math.pi * weekly_phase))
        level = base_count * regime.amplitude * pattern

        approved = max(level + base_count * config.noise_std * rng.normal(), 0.0)
        frac = min(max(card_frac + 0.5 * config.noise_std * rng.normal(), 0.0), 1.0)
        amount = approved * max(ticket * (1.0 + config.noise_std * rng.normal()), 0.0)
        rate = min(max(base_rate + 0.5 * config.noise_std * rng.normal(), 0.0), 1.0)
        values[step] = (approved, approved * frac, amount, rate)
    return values, regime_index


def csv_bytes(series: MultivariateSeries) -> bytes:
    """The interchange file of ``series``, formatted one cell at a time."""
    lines = [CSV_HEADER]
    for i, row in enumerate(series.values):
        ts = series.start_timestamp + i * _HOUR
        cells = ",".join(f"{v:.17g}" for v in row)
        lines.append(f"{ts.astimezone(timezone.utc).strftime('%Y-%m-%dT%H:%M:%SZ')},{cells}")
    return ("\n".join(lines) + "\n").encode()


def load_csv(path, merchant_id: str | None = None) -> MultivariateSeries:
    """Load and validate a series CSV, checking one row at a time."""
    with open(path, newline="", encoding="utf-8", errors="replace") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError("empty file") from None
        if header != CSV_HEADER.split(","):
            raise CsvFormatError(
                f"bad header {','.join(header)!r}; expected {CSV_HEADER!r}")
        timestamps: list[datetime] = []
        rows: list[list[float]] = []
        for row_no, row in enumerate(reader, start=1):
            if len(row) != 5:
                raise CsvFormatError(f"row {row_no}: expected 5 cells, got {len(row)}")
            ts = _parse_timestamp(row[0], row_no)
            if timestamps:
                delta = ts - timestamps[-1]
                if delta == timedelta(0):
                    raise CsvFormatError(f"row {row_no}: duplicate timestamp {row[0]}")
                if delta < timedelta(0):
                    raise CsvFormatError(f"row {row_no}: timestamps not sorted")
                if delta != _HOUR:
                    raise CsvFormatError(
                        f"row {row_no}: gap of {delta} before {row[0]}; "
                        "series must be hourly with no gaps")
            try:
                values = [float(cell) for cell in row[1:]]
            except ValueError as exc:
                raise CsvFormatError(f"row {row_no}: non-numeric cell") from exc
            if not all(map(math.isfinite, values)):
                raise CsvFormatError(f"row {row_no}: non-finite cell")
            rows.append(values)
            timestamps.append(ts)
    if not rows:
        raise CsvFormatError("no data rows")
    try:
        series = MultivariateSeries(np.asarray(rows), start_timestamp=timestamps[0],
                                    merchant_id=merchant_id or "")
        series.validate()
    except ValueError as exc:
        raise CsvFormatError(str(exc)) from None
    return series
