"""The whole-array set-up path against its row-by-row references
(``tests/data_reference.py``): the generator's draws and series, the CSV
writer's bytes, and the CSV reader's values or error messages."""

import os
import tempfile
from datetime import datetime, timedelta, timezone

import numpy as np
from data_reference import csv_bytes, simulate
from data_reference import load_csv as reference_load_csv
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from multifuture.data import (
    CSV_HEADER,
    GeneratorConfig,
    MultivariateSeries,
    RegimeSpec,
    SplitMix64,
    generate,
    load_csv,
    sample_continuations,
    save_csv,
)

UTC = timezone.utc


# -- draws and the generator ---------------------------------------------------


@settings(max_examples=40)
@given(st.integers(-2 ** 70, 2 ** 70), st.integers(0, 2 ** 20), st.integers(0, 40))
@example(-1, 0, 9)              # a negative seed
@example(2 ** 63, 1, 9)         # seeds at and above 2**63
@example(2 ** 64 - 1, 7, 9)
def test_uniforms_equal_the_scalar_stream(seed, stream, n):
    block, scalar = SplitMix64.derive(seed, stream), SplitMix64.derive(seed, stream)
    draws = block.uniforms(n)
    assert draws.dtype == np.float64 and draws.shape == (n,)
    assert draws.tolist() == [scalar.uniform() for _ in range(n)]
    assert block.next_uint64() == scalar.next_uint64()  # both advanced by n draws


_REGIMES = st.lists(st.builds(RegimeSpec, st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                              st.sampled_from([0.0, 3.0, 6.5, -2.0])),
                    min_size=1, max_size=3).map(tuple)
_CONFIGS = st.builds(
    GeneratorConfig,
    n_hours=st.integers(1, 80),
    seed=st.integers(-2 ** 64, 2 ** 64),
    daily_amp=st.sampled_from([0.0, 0.6, 1.5]),
    weekly_amp=st.sampled_from([0.0, 0.25]),
    noise_std=st.sampled_from([0.0, 0.05, 0.8]),
    regimes=_REGIMES,
    regime_switch_prob=st.sampled_from([0.0, 0.3, 1.0]),
    base_levels=st.tuples(st.sampled_from([0.0, 1.5]), st.sampled_from([0.0, 0.7, 1.0]),
                          st.sampled_from([1.0, 2.5]), st.sampled_from([0.9, 1.0])))


@settings(max_examples=30)
@given(_CONFIGS)
@example(GeneratorConfig(n_hours=800, seed=3))  # many day boundaries
def test_generate_equals_the_hourly_simulation(config):
    expected, _ = simulate(config, config.n_hours, SplitMix64.derive(config.seed, 0), 0, 0)
    assert generate(config).values.tobytes() == expected.tobytes()


@settings(max_examples=20)
@given(_CONFIGS, st.integers(1, 60), st.integers(1, 30), st.integers(1, 3))
def test_continuations_equal_the_hourly_simulation(config, history_hours, horizon, count):
    history, futures = sample_continuations(config, history_hours, horizon, count)
    expected, regime = simulate(config, history_hours, SplitMix64.derive(config.seed, 0), 0, 0)
    assert history.values.tobytes() == expected.tobytes()
    for k in range(count):
        future, _ = simulate(config, horizon, SplitMix64.derive(config.seed, k + 1),
                             history_hours, regime)
        assert futures[k].tobytes() == future.tobytes()


# -- CSV writer ----------------------------------------------------------------

_SPECIAL = [-0.0, 0.0, 1.0, 5e-324, 1e-310, 1e308, -1e308, 0.1, float("nan")]
_VALUES = hnp.arrays(np.float64, st.tuples(st.integers(0, 30), st.just(4)),
                     elements=st.floats() | st.sampled_from(_SPECIAL))
# A whole UTC hour, seen from any fixed offset (to the second).
_STARTS = st.builds(
    lambda day, hour, offset: (datetime.combine(day, datetime.min.time(), UTC)
                               + timedelta(hours=hour)).astimezone(
                                   timezone(timedelta(seconds=offset))),
    st.dates(datetime(2, 1, 1).date(), datetime(9998, 12, 1).date()),
    st.integers(0, 23), st.integers(-50399, 50399))


def _saved(series) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.csv")
        save_csv(series, path)
        with open(path, "rb") as fh:
            return fh.read()


@settings(max_examples=40)
@given(_VALUES, _STARTS)
@example(generate(GeneratorConfig(n_hours=2000, seed=4)).values,
         datetime(2023, 1, 2, tzinfo=timezone(timedelta(hours=5, minutes=30)))
         + timedelta(minutes=30))
@example(np.array([_SPECIAL[:4], _SPECIAL[4:8]]), datetime(999, 12, 31, 22, tzinfo=UTC))
def test_save_csv_equals_the_per_row_formatter(values, start):
    series = MultivariateSeries(values, start_timestamp=start)
    assert _saved(series) == csv_bytes(series)


# -- CSV reader ----------------------------------------------------------------

_CELLS = ["2.5", '"2.5"', " 2.5", "2.5 ", "1_0", "nan", "inf", "-inf", "1e309",
          "-1", "", "abc", "0x10", "�", "1e-320"]
# Starts whose rows stay in one day, cross midnight, cross into year 1000,
# and come within hours of the last hour a datetime holds.
_BASES = [datetime(2023, 1, 2, tzinfo=UTC), datetime(2023, 3, 26, 22, tzinfo=UTC),
          datetime(999, 12, 31, 21, tzinfo=UTC), datetime(9999, 12, 31, 15, tzinfo=UTC)]


def _timestamp_variants(text: str) -> list[str]:
    try:
        ts = datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError:
        return ["2023-13-02T00:00:00Z", "yesterday"]
    plus_two = timezone(timedelta(hours=2))
    try:
        shifted = [ts.astimezone(plus_two).isoformat(),  # the same instant at +02:00
                   (ts + timedelta(hours=1)).strftime("%Y-%m-%dT%H:%M:%SZ")]
    except OverflowError:  # at the end of datetime's range
        shifted = []
    return shifted + [
        text[:-1],                                   # naive
        text.replace("T", "X"),                      # bad
        "2023-02-30T00:00:00Z",                      # no such day
        ts.replace(tzinfo=plus_two).isoformat(),     # the same wall clock at +02:00
        text[:-1] + ".000001Z",                      # a microsecond later
        text[:-1] + ":00Z",                          # one field too many
        text.replace("T", " "),
        f"{ts.year - 1000:04d}" + text[4:],          # a padded year below 1000
        text[1:],                                    # an unpadded one
    ]


@st.composite
def _csv_files(draw) -> bytes:
    """A valid series file with a few rows, then up to four mutations."""
    start = draw(st.sampled_from(_BASES))
    n = draw(st.integers(1, 7))
    values = generate(GeneratorConfig(n_hours=n, seed=draw(st.integers(0, 3)))).values.tolist()
    lines = [CSV_HEADER] + [
        f"{start + i * timedelta(hours=1):%Y-%m-%dT%H:%M:%S}Z".rjust(20, "0")
        + "".join(f",{v!r}" for v in row) for i, row in enumerate(values)]
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(["drop", "repeat", "swap", "cells", "blank",
                                   "cell", "timestamp"]))
        i = draw(st.integers(1, len(lines)))
        if i == len(lines):
            lines.append(lines[-1])
            continue
        cells = lines[i].split(",")
        if op == "drop":
            del lines[i]
        elif op == "repeat":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(1, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "cells":
            lines[i] = ",".join(cells[:-1] if draw(st.booleans()) else cells + ["1"])
        elif op == "blank":
            lines.insert(i, "")
        elif op == "cell":
            cells[draw(st.integers(1, len(cells) - 1)) if len(cells) > 1 else 0] = \
                draw(st.sampled_from(_CELLS))
            lines[i] = ",".join(cells)
        else:
            cells[0] = draw(st.sampled_from(_timestamp_variants(cells[0])))
            lines[i] = ",".join(cells)
    data = ("\n".join(lines) + "\n").encode()
    if draw(st.integers(0, 3)) == 0:  # an invalid UTF-8 byte somewhere
        pos = draw(st.integers(0, len(data)))
        data = data[:pos] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xe2\x82"])) + data[pos:]
    return data


def _outcome(load, path):
    try:
        series = load(path, "m")
    except ValueError as exc:
        return type(exc), str(exc)
    return (series.values.tobytes(), series.values.shape, series.start_timestamp,
            series.start_timestamp.tzinfo, series.merchant_id)


@settings(max_examples=200)
@given(_csv_files())
@example(f"{CSV_HEADER}\n0999-12-31T23:00:00Z,1,1,1,0.5\n"
         "1000-01-01T00:00:00Z,1,1,1,0.5\n".encode())
@example(f"{CSV_HEADER}\n0999-12-31T22:00:00Z,1,1,1,0.5\n"  # strftime's own year text
         "999-12-31T23:00:00Z,1,1,1,0.5\n".encode())
@example(f"{CSV_HEADER}\n9999-12-31T22:00:00Z,1,1,1,0.5\n"  # more rows than hours left
         "9999-12-31T23:00:00Z,1,1,1,0.5\n9999-12-31T23:00:00Z,1,1,1,0.5\n".encode())
@example(f"{CSV_HEADER}\n2023-01-02T00:30:00Z,1,1,1,0.5\n"
         "2023-01-02T01:00:00Z,1,1,1,0.5\n".encode())
@example(f"{CSV_HEADER}\n2023-01-02T00:00:00.5Z,1,1,1,0.5\n"
         "2023-01-02T01:00:00Z,1,1,1,0.5\n".encode())
@example(f"{CSV_HEADER}\n2023-01-02T00:00:00Z,1,1,1,0.5\n"
         "2023-01-02T02:00:00Z,1,1,1,0.5\n0001-01-01T00:00:00+02:00,1,1,1,0.5\n".encode())
@example(f"{CSV_HEADER}\n2023-01-02T00:00:00Z,1,1,1,nan\n"
         "2023-01-02T00:00:00Z,1,1,1,0.5\n".encode())
def test_load_csv_equals_the_row_loop(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.csv")
        with open(path, "wb") as fh:
            fh.write(data)
        assert _outcome(load_csv, path) == _outcome(reference_load_csv, path)
