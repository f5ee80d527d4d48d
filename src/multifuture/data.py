"""Synthetic merchant transaction series and CSV ingestion.

Real transaction aggregates are proprietary, so the generator below stands
in for them: hourly series with four features (approved transaction count,
unique card count, transaction amount sum, approval rate), daily and weekly
seasonality, noise, and day-level regime switching.  Regime switches are
what make the day-ahead distribution genuinely multi-modal: two identical
histories can be followed by different regimes, and only a multi-future
model can cover both.

Randomness comes from a splitmix64 generator implemented here so that a
seeded trace is reproducible bit-for-bit on any platform.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

import numpy as np

from .persistence import _write_atomic

__all__ = [
    "FEATURE_NAMES",
    "CSV_HEADER",
    "MultivariateSeries",
    "RegimeSpec",
    "GeneratorConfig",
    "SplitMix64",
    "generate",
    "sample_continuations",
    "load_csv",
    "save_csv",
    "split_by_date",
    "CsvFormatError",
]

FEATURE_NAMES = ("approved_count", "unique_cards", "amount_sum", "approval_rate")
CSV_HEADER = "timestamp,approved_count,unique_cards,amount_sum,approval_rate"

_HOUR = timedelta(hours=1)


class CsvFormatError(ValueError):
    """A CSV file violates the series format contract."""


@dataclass
class MultivariateSeries:
    """Hourly, gap-free multivariate series with a UTC start timestamp."""

    values: np.ndarray  # (n, d) float64
    feature_names: tuple[str, ...] = FEATURE_NAMES
    start_timestamp: datetime = datetime(2023, 1, 2, tzinfo=timezone.utc)
    merchant_id: str = ""

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError(f"values must be (n, d), got {self.values.shape}")
        if self.values.shape[1] != len(self.feature_names):
            raise ValueError("feature_names do not match the value columns")
        if self.start_timestamp.tzinfo is None:
            raise ValueError("start_timestamp must be timezone-aware (UTC)")
        if self.start_timestamp.minute or self.start_timestamp.second \
                or self.start_timestamp.microsecond:
            raise ValueError("start_timestamp must be a whole hour")

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]

    def timestamps(self) -> list[datetime]:
        return [self.start_timestamp + i * _HOUR for i in range(len(self))]

    def slice(self, start: int, stop: int) -> "MultivariateSeries":
        """Contiguous sub-series; the start timestamp shifts accordingly."""
        start, stop, _ = slice(start, stop).indices(len(self))
        return MultivariateSeries(
            self.values[start:stop].copy(),
            self.feature_names,
            self.start_timestamp + start * _HOUR,
            self.merchant_id,
        )

    def validate(self) -> None:
        """Check the feature-level invariants."""
        if not np.all(np.isfinite(self.values)):
            raise ValueError("series contains non-finite values")
        for j, name in enumerate(self.feature_names):
            col = self.values[:, j]
            if name == "approval_rate":
                if np.any(col < 0) or np.any(col > 1):
                    raise ValueError("approval_rate outside [0, 1]")
            elif np.any(col < 0):
                raise ValueError(f"{name} has negative values")


# -- portable seeded randomness ---------------------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    """The splitmix64 finalizer."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Splittable 64-bit PRNG (splitmix64), portable across platforms.

    ``uniform`` yields 53-bit doubles in [0, 1); ``normal`` applies
    Box-Muller.  Streams derived with :meth:`derive` are statistically
    independent of the base stream.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64
        self._spare_normal: float | None = None

    @classmethod
    def derive(cls, seed: int, stream: int) -> "SplitMix64":
        return cls(_mix64((seed & _MASK64) + stream * _GOLDEN))

    def next_uint64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix64(self._state)

    def uniform(self) -> float:
        return (self.next_uint64() >> 11) * (2.0 ** -53)

    def normal(self) -> float:
        if self._spare_normal is not None:
            value, self._spare_normal = self._spare_normal, None
            return value
        # Box-Muller; u1 is kept away from 0 so the log stays finite.
        u1 = max(self.uniform(), 2.0 ** -53)
        u2 = self.uniform()
        radius = math.sqrt(-2.0 * math.log(u1))
        self._spare_normal = radius * math.sin(2.0 * math.pi * u2)
        return radius * math.cos(2.0 * math.pi * u2)

    def randint(self, n: int) -> int:
        return min(int(self.uniform() * n), n - 1)


# -- generator ----------------------------------------------------------------


@dataclass(frozen=True)
class RegimeSpec:
    """Per-regime modifiers of the seasonal pattern."""

    amplitude: float = 1.0
    phase_hours: float = 0.0

    def __post_init__(self):
        if self.amplitude < 0:
            raise ValueError("regime amplitude must be >= 0")


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for the synthetic merchant series.

    ``base_levels`` holds, per feature: mean approved count, unique-card
    fraction of the approved count, mean per-transaction ticket, and mean
    approval rate.  ``noise_std`` scales all noise: relative to the base
    level for count/amount features, halved and absolute for the
    unit-scaled fraction features.  At every day boundary the active
    regime is redrawn uniformly from ``regimes`` with probability
    ``regime_switch_prob`` (a redraw may keep the current regime).
    """

    n_hours: int = 720
    seed: int = 0
    daily_amp: float = 0.6
    weekly_amp: float = 0.25
    noise_std: float = 0.05
    regimes: tuple[RegimeSpec, ...] = (
        RegimeSpec(amplitude=1.0, phase_hours=0.0),
        RegimeSpec(amplitude=2.0, phase_hours=6.0),
    )
    regime_switch_prob: float = 0.3
    base_levels: tuple[float, float, float, float] = (1.5, 0.7, 1.0, 0.9)
    merchant_id: str = "merchant_0000"

    def __post_init__(self):
        if self.n_hours < 1:
            raise ValueError("n_hours must be >= 1")
        if not 0.0 <= self.regime_switch_prob <= 1.0:
            raise ValueError("regime_switch_prob must be in [0, 1]")
        if self.daily_amp < 0 or self.weekly_amp < 0 or self.noise_std < 0:
            raise ValueError("amplitudes and noise_std must be >= 0")
        if not self.regimes:
            raise ValueError("at least one regime is required")
        if len(self.base_levels) != 4:
            raise ValueError("base_levels must have 4 entries")
        if not 0.0 <= self.base_levels[1] <= 1.0:
            raise ValueError("unique-card fraction must be in [0, 1]")
        if not 0.0 <= self.base_levels[3] <= 1.0:
            raise ValueError("base approval rate must be in [0, 1]")


def _simulate(config: GeneratorConfig, n_hours: int, rng: SplitMix64,
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
        # Integer modulos keep the pattern bit-exactly periodic.
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


def generate(config: GeneratorConfig) -> MultivariateSeries:
    """Generate a synthetic merchant series (deterministic under seed)."""
    rng = SplitMix64.derive(config.seed, 0)
    values, _ = _simulate(config, config.n_hours, rng, 0, 0)
    series = MultivariateSeries(values, merchant_id=config.merchant_id)
    series.validate()
    return series


def sample_continuations(config: GeneratorConfig, history_hours: int,
                         horizon: int, n_continuations: int,
                         ) -> tuple[MultivariateSeries, np.ndarray]:
    """One shared history plus many alternative futures.

    The history is simulated once; each continuation restarts at the same
    regime state with an independent noise stream, giving a Monte-Carlo
    sample of the conditional distribution of the next ``horizon`` hours.
    Returns the history and a ``(n_continuations, horizon, 4)`` array.
    """
    if history_hours < 1 or horizon < 1 or n_continuations < 1:
        raise ValueError("history_hours, horizon, n_continuations must be >= 1")
    rng = SplitMix64.derive(config.seed, 0)
    history_values, final_regime = _simulate(config, history_hours, rng, 0, 0)
    history = MultivariateSeries(history_values, merchant_id=config.merchant_id)
    futures = np.empty((n_continuations, horizon, 4))
    for k in range(n_continuations):
        stream = SplitMix64.derive(config.seed, k + 1)
        futures[k], _ = _simulate(config, horizon, stream, history_hours,
                                  final_regime)
    return history, futures


# -- CSV interchange ---------------------------------------------------------


def _format_timestamp(ts: datetime) -> str:
    return ts.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _parse_timestamp(text: str, row: int) -> datetime:
    try:
        ts = datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError as exc:
        raise CsvFormatError(f"row {row}: bad timestamp {text!r}") from exc
    if ts.tzinfo is None:
        raise CsvFormatError(f"row {row}: timestamp {text!r} has no timezone")
    return ts.astimezone(timezone.utc)


def save_csv(series: MultivariateSeries, path) -> None:
    """Write a series in the interchange format (17 significant digits).

    The file is replaced atomically, so a failed write leaves the previous
    file, never a truncated series.
    """
    lines = [CSV_HEADER]
    for ts, row in zip(series.timestamps(), series.values):
        cells = ",".join(f"{v:.17g}" for v in row)
        lines.append(f"{_format_timestamp(ts)},{cells}")
    _write_atomic(path, ("\n".join(lines) + "\n").encode())


def load_csv(path, merchant_id: str | None = None) -> MultivariateSeries:
    """Load and validate a series CSV.

    The header must match the interchange format exactly; rows must be
    hourly, sorted, and gap-free.  Errors carry the offending row number
    (1-based, header excluded).
    """
    # An undecodable byte becomes U+FFFD, which fails its cell's parse.
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


def split_by_date(series: MultivariateSeries, train_end: datetime,
                  warmup_hours: int = 168,
                  ) -> tuple[MultivariateSeries, MultivariateSeries]:
    """Split into a training prefix and a test suffix at ``train_end``.

    ``train_end`` is the first hour that belongs to the test span.  The
    test series is prefixed with the trailing ``warmup_hours`` of the
    training data so the first prediction window has its input context; an
    empty test split carries no warm-up.
    """
    if train_end.tzinfo is None:
        raise ValueError("train_end must be timezone-aware")
    offset = train_end.astimezone(timezone.utc) - series.start_timestamp
    hours, remainder = divmod(offset, _HOUR)
    if remainder:
        raise ValueError("train_end must be a whole hour")
    boundary = int(hours)
    if boundary < 0 or boundary > len(series):
        raise ValueError(
            f"train_end {train_end.isoformat()} outside the series span")
    train = series.slice(0, boundary)
    if boundary >= len(series):
        test = series.slice(len(series), len(series))
    else:
        test = series.slice(max(boundary - warmup_hours, 0), len(series))
    return train, test
