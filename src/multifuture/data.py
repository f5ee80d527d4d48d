"""Synthetic merchant transaction series and CSV ingestion.

Real transaction aggregates are proprietary, so the generator below stands
in for them: hourly series with four features (approved transaction count,
unique card count, transaction amount sum, approval rate), daily and weekly
seasonality, noise, and day-level regime switching.  Regime switches are
what make the day-ahead distribution genuinely multi-modal: two identical
histories can be followed by different regimes, and only a multi-future
model can cover both.

Randomness comes from a splitmix64 generator implemented here so that a
seeded trace is reproducible bit-for-bit on any platform.  The generator
draws its uniforms by index, as one ``uint64`` array, and the CSV writer
and reader work on whole columns; both give the bytes, values and
row-numbered errors that a loop over the hours gives.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from itertools import chain

import numpy as np

from .model import _as_count, _check_numbers
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
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)
_HOUR_US = _HOUR // _MICROSECOND


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
        # The rule holds for the UTC instant, which is what save_csv writes:
        # midnight at +05:30 is 18:30 UTC, not a whole hour.
        utc = self.start_timestamp.astimezone(timezone.utc)
        if utc.minute or utc.second or utc.microsecond:
            raise ValueError("start_timestamp must be a whole hour")

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]

    def slice(self, start: int, stop: int) -> "MultivariateSeries":
        """Contiguous sub-series; the start timestamp moves ``start`` hours
        on, stepped in UTC (as ``save_csv`` steps its rows) and given in the
        original start's zone."""
        start, stop, _ = slice(start, stop).indices(len(self))
        zone = self.start_timestamp.tzinfo
        return MultivariateSeries(
            self.values[start:stop].copy(),
            self.feature_names,
            (self.start_timestamp.astimezone(timezone.utc) + start * _HOUR).astimezone(zone),
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


def _mix64(z):
    """The splitmix64 finalizer, of a Python int or elementwise of a
    ``uint64`` array (whose arithmetic wraps modulo 2**64 by itself)."""
    z = z & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Splittable 64-bit PRNG (splitmix64), portable across platforms.

    ``uniform`` yields 53-bit doubles in [0, 1); ``normal`` applies
    Box-Muller.  Streams derived with :meth:`derive` are statistically
    independent of the base stream.  Output ``k`` of a stream is
    ``_mix64(state + (k + 1) * GOLDEN)``, so :meth:`uniforms` draws a
    block of them at once.
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

    def uniforms(self, n: int) -> np.ndarray:
        """The next ``n`` draws of :meth:`uniform`, as one float64 array."""
        steps = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
        draws = _mix64(steps + np.uint64(self._state))
        self._state = (self._state + n * _GOLDEN) & _MASK64
        return (draws >> 11) * (2.0 ** -53)

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
        _check_numbers(self)
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
        _check_numbers(self)
        if self.n_hours < 1:
            raise ValueError("n_hours must be >= 1")
        if not 0.0 <= self.regime_switch_prob <= 1.0:
            raise ValueError("regime_switch_prob must be in [0, 1]")
        for name in ("daily_amp", "weekly_amp", "noise_std"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not self.regimes:
            raise ValueError("at least one regime is required")
        if len(self.base_levels) != 4:
            raise ValueError("base_levels must have 4 entries")
        for i, what in ((1, "unique-card fraction"), (3, "base approval rate")):
            if not 0.0 <= self.base_levels[i] <= 1.0:
                raise ValueError(f"base_levels[{i}], the {what}, must be in [0, 1]")


def _libm(fn, x: np.ndarray) -> np.ndarray:
    """``fn`` (a ``math`` function) of every element of ``x``, as a Python float.

    numpy's own ``sin``/``log`` need not round as the platform's libm does,
    which ``math`` calls.
    """
    return np.fromiter(map(fn, x.ravel().tolist()), np.float64, x.size).reshape(x.shape)


def _at_least(x: np.ndarray, low: float) -> np.ndarray:
    return np.where(low > x, low, x)  # max(x, low), signed zeros and all


def _at_most(x: np.ndarray, high: float) -> np.ndarray:
    return np.where(high < x, high, x)  # min(x, high)


def _simulate(config: GeneratorConfig, n_hours: int, rng: SplitMix64,
              start_hour: int, regime_index: int) -> tuple[np.ndarray, int]:
    """Simulate hours [start_hour, start_hour + n_hours); returns final regime.

    Hour by hour, the stream gives: at each day boundary (but the series'
    hour 0) a uniform that decides a regime redraw and, if it does, a
    second one that picks the regime; then four normals, two Box-Muller
    pairs.  Only the boundaries are walked one by one, to place each hour's
    draws in the stream; ``rng`` is spent on one block drawn up front.
    """
    base_count, card_frac, ticket, base_rate = config.base_levels
    n_regimes = len(config.regimes)
    hours = np.arange(start_hour, start_hour + n_hours)
    boundaries = np.flatnonzero(hours % 24 == 0)
    if start_hour == 0:
        boundaries = boundaries[1:]
    uniforms = rng.uniforms(4 * n_hours + 2 * len(boundaries))

    regimes = np.full(n_hours, regime_index)
    regime_draws = np.zeros(n_hours, dtype=np.int64)  # taken up to each boundary
    taken = 0
    for step in boundaries.tolist():
        first = 4 * step + taken
        taken += 1
        if float(uniforms[first]) < config.regime_switch_prob:
            regime_index = min(int(float(uniforms[first + 1]) * n_regimes), n_regimes - 1)
            regimes[step:] = regime_index
            taken += 1
        regime_draws[step] = taken
    first = 4 * np.arange(n_hours) + np.maximum.accumulate(regime_draws)
    noise = uniforms[first[:, None] + np.arange(4)]  # (u1, u2) of two pairs per hour

    u1 = np.maximum(noise[:, 0::2], 2.0 ** -53)  # kept away from 0 for the log
    angle = (2.0 * math.pi) * noise[:, 1::2]
    radius = _libm(math.sqrt, -2.0 * _libm(math.log, u1))
    cos, sin = radius * _libm(math.cos, angle), radius * _libm(math.sin, angle)
    normal = (cos[:, 0], sin[:, 0], cos[:, 1], sin[:, 1])  # a pair's cosine comes first

    # The level depends on (regime, hour of the week) only; evaluate each
    # pair once.  Integer modulos keep the pattern bit-exactly periodic.
    keys, inverse = np.unique(regimes * 168 + hours % 168, return_inverse=True)
    levels = []
    for key in keys.tolist():
        regime, hour = config.regimes[key // 168], key % 168
        daily_phase = ((hour % 24) + regime.phase_hours) / 24.0
        weekly_phase = hour / 168.0
        pattern = (1.0
                   + config.daily_amp * math.sin(2.0 * math.pi * daily_phase)
                   + config.weekly_amp * math.sin(2.0 * math.pi * weekly_phase))
        levels.append(base_count * regime.amplitude * pattern)
    level = np.array(levels)[inverse.ravel()]

    noise_std = config.noise_std
    approved = _at_least(level + base_count * noise_std * normal[0], 0.0)
    frac = _at_most(_at_least(card_frac + 0.5 * noise_std * normal[1], 0.0), 1.0)
    amount = approved * _at_least(ticket * (1.0 + noise_std * normal[2]), 0.0)
    rate = _at_most(_at_least(base_rate + 0.5 * noise_std * normal[3], 0.0), 1.0)
    return np.stack([approved, approved * frac, amount, rate], axis=1), regime_index


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


def _timestamp_texts(start: datetime, count: int) -> list[str]:
    """The timestamp cells of ``count`` hours from ``start``.

    Each is its UTC day's ``strftime`` date plus the hour's clock text, so
    ``strftime`` runs once a day, not once a row.
    """
    if count == 0:
        return []
    first = start.astimezone(timezone.utc)
    clock = first.strftime(":%M:%SZ")
    clocks = [f"T{hour:02d}{clock}" for hour in range(24)]
    midnight = first.replace(hour=0)
    days = (first.hour + count - 1) // 24 + 1
    dates = [(midnight + timedelta(days=day)).strftime("%Y-%m-%d")
             for day in range(days)]
    return [date + clock for date in dates for clock in clocks][
        first.hour:first.hour + count]


def _parse_timestamp(text: str, row: int) -> datetime:
    try:
        ts = datetime.fromisoformat(text.replace("Z", "+00:00"))
        if ts.tzinfo is not None:
            ts = ts.astimezone(timezone.utc)  # overflows before year 1 or after 9999
    except (ValueError, OverflowError) as exc:
        raise CsvFormatError(f"row {row}: bad timestamp {text!r}") from exc
    if ts.tzinfo is None:
        raise CsvFormatError(f"row {row}: timestamp {text!r} has no timezone")
    return ts


def _microseconds(ts: datetime) -> int:
    return (ts - _EPOCH) // _MICROSECOND


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def save_csv(series: MultivariateSeries, path) -> None:
    """Write a series in the interchange format (17 significant digits).

    The file is replaced atomically, so a failed write leaves the previous
    file, never a truncated series.
    """
    row = "%s" + ",%.17g" * series.d + "\n"
    cells = zip(_timestamp_texts(series.start_timestamp, len(series)),
                *series.values.T.tolist())
    body = (row * len(series)) % tuple(chain.from_iterable(cells))
    _write_atomic(path, (CSV_HEADER + "\n" + body).encode())


def _check_rows(rows: list[list[str]]) -> tuple[datetime | None, np.ndarray, str | None]:
    """Parse the data rows; return the start, the values and an error or None.

    The error names the first row that breaks the contract, and within a row
    the checks run in the order a row-by-row reader runs them: cell count,
    timestamp, step from the previous row, numbers, finiteness.  So each
    check looks only at the rows before the first failure of those ahead of
    it.
    """
    n = len(rows)
    counts = np.fromiter(map(len, rows), np.int64, n)
    error = None
    wrong = np.flatnonzero(counts != 5)
    if wrong.size:
        n = int(wrong[0])
        error = f"row {n + 1}: expected 5 cells, got {counts[n]}"
    if n == 0:
        return None, np.empty((0, 4)), error
    texts, *columns = zip(*rows[:n])

    # A cell that reads as the writer's text for its hour is that hour; only
    # the others are parsed.  That text drops microseconds, and strftime
    # does not pad a year below 1000 as fromisoformat requires, so such a
    # start parses every cell.
    try:
        start = _parse_timestamp(texts[0], 1)
    except CsvFormatError as exc:
        return None, np.empty((0, 4)), str(exc)
    instants = _microseconds(start) + _HOUR_US * np.arange(n, dtype=np.int64)
    writable = (datetime.max.replace(tzinfo=timezone.utc) - start) // _HOUR + 1
    expected = (_timestamp_texts(start, min(n, writable))
                if start.year >= 1000 and not start.microsecond else [])
    expected += [None] * (n - len(expected))
    for i in [i for i, (text, want) in enumerate(zip(texts, expected)) if text != want]:
        try:
            instants[i] = _microseconds(_parse_timestamp(texts[i], i + 1))
        except CsvFormatError as exc:
            n, error = i, str(exc)
            break

    steps = np.diff(instants[:n])
    wrong = np.flatnonzero(steps != _HOUR_US)
    if wrong.size:
        n = int(wrong[0]) + 1
        step = int(steps[n - 1])
        if step == 0:
            error = f"row {n + 1}: duplicate timestamp {texts[n]}"
        elif step < 0:
            error = f"row {n + 1}: timestamps not sorted"
        else:
            error = (f"row {n + 1}: gap of {timedelta(microseconds=step)} before "
                     f"{texts[n]}; series must be hourly with no gaps")

    def floats(count: int) -> np.ndarray:
        cells = chain.from_iterable(column[:count] for column in columns)
        return np.fromiter(map(float, cells), np.float64, 4 * count).reshape(4, count).T

    try:
        values = floats(n)
    except ValueError:
        n = next(i for i in range(n) if not all(map(_is_number, rows[i][1:])))
        error = f"row {n + 1}: non-numeric cell"
        values = floats(n)
    wrong = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if wrong.size:
        error = f"row {int(wrong[0]) + 1}: non-finite cell"
    return start, np.ascontiguousarray(values), error


def load_csv(path, merchant_id: str | None = None) -> MultivariateSeries:
    """Load and validate a series CSV.

    The header must match the interchange format exactly; rows must be
    hourly, sorted, and gap-free.  Errors carry the offending row number
    (1-based, header excluded).
    """
    # An undecodable byte becomes U+FFFD, which fails its cell's parse.
    with open(path, newline="", encoding="utf-8", errors="replace") as fh:
        lines: list[list[str]] = []
        unreadable = None
        try:
            lines.extend(csv.reader(fh))
        except csv.Error as exc:  # a line csv cannot split, e.g. an oversized cell
            where = f"row {len(lines)}" if lines else "header"
            unreadable = f"{where}: {exc}"
    if not lines:
        raise CsvFormatError(unreadable or "empty file")
    header, rows = lines[0], lines[1:]
    if header != CSV_HEADER.split(","):
        raise CsvFormatError(
            f"bad header {','.join(header)!r}; expected {CSV_HEADER!r}")
    start, values, error = _check_rows(rows)
    if error or unreadable:
        raise CsvFormatError(error or unreadable)
    if not rows:
        raise CsvFormatError("no data rows")
    try:
        series = MultivariateSeries(values, start_timestamp=start,
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
    if _as_count("warmup_hours", warmup_hours) < 0:
        raise ValueError(f"warmup_hours must be >= 0, got {warmup_hours}")
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
