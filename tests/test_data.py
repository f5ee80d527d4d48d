"""Tests for the synthetic generator, CSV interchange, and splitting."""

import os
import zoneinfo
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from multifuture.data import (
    CSV_HEADER,
    CsvFormatError,
    GeneratorConfig,
    MultivariateSeries,
    RegimeSpec,
    SplitMix64,
    generate,
    load_csv,
    sample_continuations,
    save_csv,
    split_by_date,
)

UTC = timezone.utc


class TestSplitMix64:
    def test_known_stream_is_stable(self):
        # frozen from the splitmix64 reference sequence for seed 0
        rng = SplitMix64(0)
        values = [rng.next_uint64() for _ in range(3)]
        assert values == [16294208416658607535, 7960286522194355700,
                          487617019471545679]

    def test_uniform_range(self):
        rng = SplitMix64(123)
        draws = [rng.uniform() for _ in range(1000)]
        assert all(0.0 <= u < 1.0 for u in draws)
        assert 0.4 < np.mean(draws) < 0.6

    def test_normal_moments(self):
        rng = SplitMix64(7)
        draws = np.array([rng.normal() for _ in range(4000)])
        assert abs(draws.mean()) < 0.1
        assert abs(draws.std() - 1.0) < 0.1

    def test_derive_streams_differ(self):
        a = SplitMix64.derive(42, 1)
        b = SplitMix64.derive(42, 2)
        assert [a.next_uint64() for _ in range(4)] \
            != [b.next_uint64() for _ in range(4)]


class TestGenerator:
    def test_deterministic_under_seed(self):
        a = generate(GeneratorConfig(n_hours=200, seed=9))
        b = generate(GeneratorConfig(n_hours=200, seed=9))
        assert np.array_equal(a.values, b.values)

    def test_seeds_differ(self):
        a = generate(GeneratorConfig(n_hours=200, seed=1))
        b = generate(GeneratorConfig(n_hours=200, seed=2))
        assert not np.array_equal(a.values, b.values)

    def test_noiseless_single_regime_weekly_periodic(self):
        cfg = GeneratorConfig(n_hours=168 * 3, seed=0, noise_std=0.0,
                              regimes=(RegimeSpec(),))
        series = generate(cfg)
        np.testing.assert_array_equal(series.values[:168],
                                      series.values[168:336])
        np.testing.assert_array_equal(series.values[:168],
                                      series.values[336:504])

    def test_invariants_hold(self):
        for seed in range(5):
            series = generate(GeneratorConfig(n_hours=300, seed=seed,
                                              noise_std=0.4))
            series.validate()
            approved = series.values[:, 0]
            cards = series.values[:, 1]
            rate = series.values[:, 3]
            assert np.all(cards <= approved + 1e-12)
            assert np.all((rate >= 0) & (rate <= 1))

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            GeneratorConfig(n_hours=0)
        with pytest.raises(ValueError):
            GeneratorConfig(regime_switch_prob=1.5)
        with pytest.raises(ValueError):
            GeneratorConfig(regimes=())
        with pytest.raises(ValueError):
            GeneratorConfig(noise_std=-0.1)
        with pytest.raises(ValueError, match="^regimes must be a list, got 5"):
            GeneratorConfig(regimes=5)

    def test_a_regime_that_is_not_a_regime_spec_raises_naming_it(self):
        with pytest.raises(ValueError, match=r"^regimes\[1\] must be a RegimeSpec, got 5"):
            GeneratorConfig(regimes=(RegimeSpec(), 5))

    def test_a_merchant_id_that_is_not_a_string_raises_naming_it(self):
        with pytest.raises(ValueError, match="^merchant_id must be a str, got 3"):
            GeneratorConfig(merchant_id=3)

    def test_continuations_share_history(self):
        cfg = GeneratorConfig(seed=3)
        history_a, futures_a = sample_continuations(cfg, 168, 24, 5)
        history_b, futures_b = sample_continuations(cfg, 168, 24, 5)
        assert np.array_equal(history_a.values, history_b.values)
        assert np.array_equal(futures_a, futures_b)
        base = generate(GeneratorConfig(**{**cfg.__dict__, "n_hours": 168}))
        assert np.array_equal(history_a.values, base.values)

    def test_day_ahead_bimodality(self):
        # two regimes, switching at day boundaries: the day-ahead daily
        # mean of the approved count splits into two separated clusters
        cfg = GeneratorConfig(seed=0, regime_switch_prob=0.5, noise_std=0.05)
        _, futures = sample_continuations(cfg, 168, 24, 200)
        daily_means = futures[:, :, 0].mean(axis=1)
        order = np.sort(daily_means)
        gaps = np.diff(order)
        split = int(np.argmax(gaps)) + 1
        lo, hi = order[:split], order[split:]
        # both clusters populated, and the gap dominates the cluster spreads
        assert min(len(lo), len(hi)) >= 20
        spread = max(lo.std(), hi.std())
        assert hi.min() - lo.max() > 3 * spread


class TestCsvRoundTrip:
    def test_small_file(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            CSV_HEADER + "\n"
            "2023-01-02T00:00:00Z,1.5,1.0,3.25,0.9\n"
            "2023-01-02T01:00:00Z,2.5,2.0,5.5,0.8\n"
            "2023-01-02T02:00:00Z,0.0,0.0,0.0,1.0\n")
        series = load_csv(path)
        assert len(series) == 3
        assert series.start_timestamp == datetime(2023, 1, 2, tzinfo=UTC)
        np.testing.assert_allclose(series.values[1], [2.5, 2.0, 5.5, 0.8])

    def test_round_trip_bits(self, tmp_path):
        series = generate(GeneratorConfig(n_hours=100, seed=5))
        path = tmp_path / "rt.csv"
        save_csv(series, path)
        loaded = load_csv(path)
        assert np.array_equal(series.values, loaded.values)
        assert loaded.start_timestamp == series.start_timestamp

    def test_save_deterministic_bytes(self, tmp_path):
        series = generate(GeneratorConfig(n_hours=50, seed=1))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_csv(series, a)
        save_csv(series, b)
        assert a.read_bytes() == b.read_bytes()

    def test_save_writes_lf_line_endings(self, tmp_path):
        series = MultivariateSeries(np.array([[1.5, 1.0, 3.25, 0.9]]))
        path = tmp_path / "one.csv"
        save_csv(series, path)
        assert path.read_bytes() == (
            CSV_HEADER + "\n2023-01-02T00:00:00Z,1.5,1,3.25,0.90000000000000002\n"
        ).encode()

    def test_failed_save_keeps_previous_file(self, tmp_path, fail_mid_write):
        path = tmp_path / "m.csv"
        path.write_bytes(b"previous")
        with pytest.raises(OSError, match="mid-write"):
            save_csv(generate(GeneratorConfig(n_hours=50, seed=1)), path)
        assert path.read_bytes() == b"previous"
        assert os.listdir(tmp_path) == ["m.csv"]

    def test_duplicate_timestamp_rejected_with_row(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            CSV_HEADER + "\n"
            "2023-01-02T00:00:00Z,1,1,1,0.5\n"
            "2023-01-02T00:00:00Z,2,2,2,0.5\n")
        with pytest.raises(CsvFormatError, match="row 2.*duplicate"):
            load_csv(path)

    def test_gap_rejected(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text(
            CSV_HEADER + "\n"
            "2023-01-02T00:00:00Z,1,1,1,0.5\n"
            "2023-01-02T02:00:00Z,2,2,2,0.5\n")
        with pytest.raises(CsvFormatError, match="row 2.*gap"):
            load_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("time,a,b,c,d\n2023-01-02T00:00:00Z,1,1,1,0.5\n")
        with pytest.raises(CsvFormatError, match="header"):
            load_csv(path)

    def test_non_numeric_cell_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text(
            CSV_HEADER + "\n2023-01-02T00:00:00Z,1,oops,1,0.5\n")
        with pytest.raises(CsvFormatError, match="row 1.*non-numeric"):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_rejected_with_row(self, tmp_path, cell):
        path = tmp_path / "inf.csv"
        path.write_text(
            CSV_HEADER + "\n2023-01-02T00:00:00Z,1,1,1,0.5\n"
            f"2023-01-02T01:00:00Z,1,{cell},1,0.5\n")
        with pytest.raises(CsvFormatError, match="row 2.*non-finite"):
            load_csv(path)

    def test_unsplittable_line_rejected_with_row(self, tmp_path):
        # csv cannot split a line with a cell over its field size limit
        path = tmp_path / "big.csv"
        rows = ["2023-01-02T00:00:00Z,1,1,1,0.5",
                "2023-01-02T01:00:00Z,1," + "1" * 200_000 + ",1,0.5"]
        path.write_text(CSV_HEADER + "\n" + "\n".join(rows) + "\n")
        with pytest.raises(CsvFormatError, match="row 2: field larger"):
            load_csv(path)
        # a fault in an earlier row is still the one reported
        path.write_text(CSV_HEADER + "\n2023-01-02T00:00:00Z,1,x,1,0.5\n"
                        + "\n".join(rows) + "\n")
        with pytest.raises(CsvFormatError, match="row 1: non-numeric"):
            load_csv(path)

    def test_timestamp_before_year_one_rejected_with_row(self, tmp_path):
        path = tmp_path / "early.csv"
        path.write_text(CSV_HEADER + "\n0001-01-01T00:00:00+02:00,1,1,1,0.5\n")
        with pytest.raises(CsvFormatError, match="row 1: bad timestamp"):
            load_csv(path)

    def test_rate_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "rate.csv"
        path.write_text(
            CSV_HEADER + "\n2023-01-02T00:00:00Z,1,1,1,1.5\n")
        with pytest.raises(ValueError, match="approval_rate"):
            load_csv(path)


class TestSplitByDate:
    def _month_series(self):
        return generate(GeneratorConfig(n_hours=720, seed=0))  # 30 days

    def test_23_7_day_split(self):
        series = self._month_series()
        boundary = series.start_timestamp + timedelta(days=23)
        train, test = split_by_date(series, boundary, warmup_hours=168)
        assert len(train) == 23 * 24
        assert len(test) == 7 * 24 + 168  # evaluated span plus warm-up
        assert test.start_timestamp == boundary - timedelta(hours=168)

    def test_split_at_end_gives_empty_test(self):
        series = self._month_series()
        boundary = series.start_timestamp + timedelta(hours=720)
        train, test = split_by_date(series, boundary)
        assert len(train) == 720
        assert len(test) == 0

    def test_partition_reproduces_original(self):
        series = self._month_series()
        boundary = series.start_timestamp + timedelta(days=23)
        train, test = split_by_date(series, boundary, warmup_hours=168)
        rejoined = np.concatenate([train.values, test.values[168:]])
        assert np.array_equal(rejoined, series.values)

    @pytest.mark.parametrize("warmup,problem", [(-5, "be >= 0, got -5"),
                                                (2.5, "be an integer, got 2.5")])
    def test_bad_warmup_rejected(self, warmup, problem):
        series = self._month_series()
        boundary = series.start_timestamp + timedelta(days=23)
        with pytest.raises(ValueError, match=f"warmup_hours must {problem}"):
            split_by_date(series, boundary, warmup_hours=warmup)

    def test_boundary_outside_span_rejected(self):
        series = self._month_series()
        with pytest.raises(ValueError, match="outside"):
            split_by_date(series, series.start_timestamp - timedelta(hours=1))
        with pytest.raises(ValueError, match="outside"):
            split_by_date(series,
                          series.start_timestamp + timedelta(hours=721))

    def test_non_hour_boundary_rejected(self):
        series = self._month_series()
        with pytest.raises(ValueError, match="whole hour"):
            split_by_date(series,
                          series.start_timestamp + timedelta(minutes=90))


class TestMultivariateSeries:
    def test_slice_shifts_timestamp(self):
        series = generate(GeneratorConfig(n_hours=48, seed=0))
        sub = series.slice(10, 20)
        assert len(sub) == 10
        assert sub.start_timestamp == series.start_timestamp + timedelta(hours=10)

    def test_naive_timestamp_rejected(self):
        with pytest.raises(ValueError, match="timezone"):
            MultivariateSeries(np.zeros((3, 4)),
                               start_timestamp=datetime(2023, 1, 2))

    def test_whole_hour_is_checked_on_the_utc_instant(self):
        india = timezone(timedelta(hours=5, minutes=30))
        with pytest.raises(ValueError, match="whole hour"):  # 18:30 UTC
            MultivariateSeries(np.zeros((3, 4)),
                               start_timestamp=datetime(2023, 1, 2, tzinfo=india))

    def test_offset_start_round_trips_through_csv(self, tmp_path):
        india = timezone(timedelta(hours=5, minutes=30))
        start = datetime(2023, 1, 2, 0, 30, tzinfo=india)  # 19:00 UTC
        series = MultivariateSeries(
            generate(GeneratorConfig(n_hours=30, seed=2)).values, start_timestamp=start)
        path = tmp_path / "offset.csv"
        save_csv(series, path)
        assert path.read_text().splitlines()[1].startswith("2023-01-01T19:00:00Z,")
        loaded = load_csv(path)
        assert np.array_equal(loaded.values, series.values)
        assert loaded.start_timestamp == start

    def test_daylight_saving_start_writes_hourly_utc_rows(self, tmp_path):
        try:
            berlin = zoneinfo.ZoneInfo("Europe/Berlin")
        except zoneinfo.ZoneInfoNotFoundError:
            pytest.skip("no time zone database")
        # the clocks go forward at 01:00 UTC on this day
        series = MultivariateSeries(np.full((6, 4), 0.5),
                                    start_timestamp=datetime(2023, 3, 26, tzinfo=berlin))
        path = tmp_path / "dst.csv"
        save_csv(series, path)
        stamps = [line.split(",")[0] for line in path.read_text().splitlines()[1:]]
        assert stamps == [f"2023-03-{day}T{hour:02d}:00:00Z"
                          for day, hour in [(25, 23), (26, 0), (26, 1), (26, 2), (26, 3), (26, 4)]]
        assert load_csv(path).start_timestamp == series.start_timestamp

    def test_slice_across_daylight_saving_steps_in_utc_hours(self):
        try:
            berlin = zoneinfo.ZoneInfo("Europe/Berlin")
        except zoneinfo.ZoneInfoNotFoundError:
            pytest.skip("no time zone database")
        # 23:00 UTC the day before; the clocks go forward at 01:00 UTC
        series = MultivariateSeries(np.arange(24.0).reshape(6, 4),
                                    start_timestamp=datetime(2023, 3, 26, tzinfo=berlin))
        sub = series.slice(3, 6)
        assert sub.start_timestamp.astimezone(timezone.utc) == \
            datetime(2023, 3, 26, 2, tzinfo=timezone.utc)
        assert sub.start_timestamp.tzinfo is berlin
        assert sub.start_timestamp.utcoffset() == timedelta(hours=2)
        train, test = split_by_date(series, datetime(2023, 3, 26, 2, tzinfo=timezone.utc),
                                    warmup_hours=1)
        assert len(train) == 3 and np.array_equal(test.values, series.values[2:])
        assert test.start_timestamp.astimezone(timezone.utc) == \
            datetime(2023, 3, 26, 1, tzinfo=timezone.utc)

    def test_negative_count_fails_validation(self):
        series = MultivariateSeries(np.zeros((3, 4)))
        series.values[0, 0] = -1.0
        with pytest.raises(ValueError, match="negative"):
            series.validate()
