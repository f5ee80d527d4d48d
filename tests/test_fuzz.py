"""Property-based fuzzing of every input boundary, and of the
nearest-neighbour scan against its full-scan reference.

Mutated checkpoints, CSVs and run configurations may be rejected, but only
with the boundary's typed error: a bare ``TypeError``, ``KeyError`` or
``UnicodeDecodeError`` escaping from any of them is a bug.
"""

import json
import os
import tempfile
from dataclasses import asdict, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from nn_reference import full_scan, full_scan_distances, normalized_windows

from multifuture.cli import CliError, DataSection, RunConfig, SplitSection, main
from multifuture.data import (
    CsvFormatError,
    GeneratorConfig,
    MultivariateSeries,
    RegimeSpec,
    generate,
    load_csv,
    save_csv,
)
from multifuture.evaluation import NearestNeighborBaseline, RidgeBaseline, evaluate_rolling
from multifuture.model import VARIANTS, Forecaster, ModelConfig
from multifuture.persistence import (
    BLOB_NAME,
    MANIFEST_NAME,
    CheckpointError,
    from_payload,
    load,
    save,
)
from multifuture.training import ZNORM_EPSILON, TrainConfig, z_normalize

CFG = ModelConfig(n_p=8, n_h=4, d=2, f=2, n_s=2, channels=2)
MODEL = Forecaster(CFG, seed=0)


def _checkpoint_files():
    with tempfile.TemporaryDirectory() as tmp:
        save(MODEL, tmp)
        with open(os.path.join(tmp, MANIFEST_NAME), "rb") as fh:
            manifest = fh.read()
        with open(os.path.join(tmp, BLOB_NAME), "rb") as fh:
            blob = fh.read()
    return manifest, blob


MANIFEST, BLOB = _checkpoint_files()


def _csv_bytes():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.csv")
        save_csv(generate(GeneratorConfig(n_hours=4)), path)
        with open(path, "rb") as fh:
            return fh.read()


CSV = _csv_bytes()


@st.composite
def mutated(draw, original: bytes, max_edits: int = 3):
    """``original`` with a few bytes replaced, inserted or deleted."""
    data = bytearray(original)
    for _ in range(draw(st.integers(1, max_edits))):
        pos = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        byte = draw(st.integers(0, 255) | st.sampled_from(b'0123456789-.e,"[]{}'))
        if op == "insert" or pos == len(data):
            data.insert(pos, byte)
        elif op == "replace":
            data[pos] = byte
        else:
            del data[pos]
    return bytes(data)


def _load_checkpoint(manifest: bytes, blob: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, MANIFEST_NAME), "wb") as fh:
            fh.write(manifest)
        with open(os.path.join(tmp, BLOB_NAME), "wb") as fh:
            fh.write(blob)
        try:
            return load(tmp)
        except CheckpointError:
            return None


@settings(max_examples=150)
@given(mutated(MANIFEST))
def test_mutated_manifest_loads_or_raises_checkpoint_error(manifest):
    _load_checkpoint(manifest, BLOB)


@settings(max_examples=60)
@given(mutated(BLOB))
@example(b"\x00\x00\xc0\x7f" + BLOB[4:])  # a NaN first weight
def test_mutated_blob_loads_or_raises_checkpoint_error(blob):
    model = _load_checkpoint(MANIFEST, blob)
    if model is not None:  # whatever loads holds finite parameters only
        assert all(np.isfinite(t.data).all() for t in model.parameters())


def _weights(model):
    return [(name, t.data.shape, t.data.tobytes()) for name, t in model.named_tensors()]


_CONFIG_EDITS = st.fixed_dictionaries({}, optional={
    "channels": st.integers(0, 4), "f": st.integers(0, 3),
    "n_s": st.integers(0, 3), "n_p": st.integers(0, 17), "d": st.integers(0, 3),
    "kernel": st.integers(0, 5), "variant": st.sampled_from(VARIANTS)})


@settings(max_examples=60)
@given(_CONFIG_EDITS)
@example({"n_p": 15})  # the same three encoder blocks as n_p=8
@example({"variant": "one_loss"})  # the same architecture as full
def test_edited_config_loads_the_same_weights_or_raises(edit):
    manifest = json.loads(MANIFEST)
    manifest["config"].update(edit)
    # Keep the top-level variant in step, so that the architecture check
    # is what judges the edit.
    manifest["variant"] = manifest["config"]["variant"]
    model = _load_checkpoint(json.dumps(manifest).encode(), BLOB)
    if model is not None:  # a config with the same layout reads the same weights
        assert _weights(model) == _weights(MODEL)


@settings(max_examples=150)
@given(mutated(CSV))
@example(CSV.replace(b",0.", b",-0.", 1))  # negative approval rate
@example(CSV.replace(b"T00:00:00Z", b"T00:30:00Z", 1))  # not a whole hour
def test_mutated_csv_loads_or_raises_csv_format_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.csv")
        with open(path, "wb") as fh:
            fh.write(text)
        try:
            series = load_csv(path)
        except CsvFormatError:
            return
    series.validate()


_SCALARS = (st.none() | st.booleans() | st.integers(-3, 40)
            | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=4))
_JSON = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=4)
                     | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                     max_leaves=8)
# Keys of the real schema, one unknown key and the removed warmup_hours, so
# that fuzzing gets past the unknown-key check.
_KEYS = {section.name: [f.name for f in fields(section.default_factory)]
         + ["x", "warmup_hours"] for section in fields(RunConfig)}
# Values shaped like the nested fields, so that fuzzing gets past them.
_VALUES = (_JSON | st.lists(_SCALARS, min_size=4, max_size=4)
           | st.lists(st.dictionaries(st.sampled_from(["amplitude", "phase_hours", "x"]),
                                      _SCALARS, max_size=2), max_size=3))
_RUN_CONFIGS = _JSON | st.fixed_dictionaries({}, optional={
    section: st.dictionaries(st.sampled_from(keys), _VALUES, max_size=3)
    for section, keys in _KEYS.items()})


@settings(max_examples=150)
@given(_RUN_CONFIGS)
def test_random_run_config_builds_or_raises_cli_error(payload):
    try:
        RunConfig.from_payload(payload)
    except CliError:
        pass


@settings(max_examples=40)
@given(_RUN_CONFIGS)
def test_cli_main_returns_status_on_random_config(payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(payload, fh)
        assert main(["generate", "--config", path,
                     "--out", os.path.join(tmp, "data")]) in (0, 1)


# The three JSON files the program reads, each as a valid record and as the
# same record with a repeated key: a run config, a category-scope dataset
# manifest and a checkpoint manifest.
_JSON_INPUTS = {
    "config": (b'{"data": {"merchants": 1}}',
               b'{"data": {"merchants": 1}, "data": {"merchants": 1}}'),
    "dataset_manifest": (b'{"files": [{"merchant_id": "m", "file": "m.csv", "seed": 0}], '
                         b'"generator": {}}',
                         b'{"files": [], "files": [], "generator": {}}'),
    "manifest": (MANIFEST, MANIFEST.replace(b"{", b'{"kind": "forecaster", ', 1)),
}
_JSON_FAULTS = {  # fault: what it puts at the input's path, from (valid, repeated)
    "missing": lambda path, valid, repeated: None,
    "directory": lambda path, valid, repeated: path.mkdir(),
    "non_utf8": lambda path, valid, repeated: path.write_bytes(b"\xff" + valid),
    "truncated": lambda path, valid, repeated: path.write_bytes(valid[:len(valid) // 2]),
    "deep": lambda path, valid, repeated: path.write_bytes(b"[" * 100_000 + b"]" * 100_000),
    "repeated_key": lambda path, valid, repeated: path.write_bytes(repeated),
}


def _json_input_error(tmp: Path, name: str, fault: str, capsys) -> tuple[str, str]:
    """The path of input ``name`` with ``fault``, and the message of its
    boundary's typed error: ``main``'s status 1 with one ``error:`` line,
    or ``load``'s ``CheckpointError``."""
    path = tmp / (MANIFEST_NAME if name == "manifest" else f"{name}.json")
    _JSON_FAULTS[fault](path, *_JSON_INPUTS[name])
    if name == "manifest":
        (tmp / BLOB_NAME).write_bytes(BLOB)
        with pytest.raises(CheckpointError) as raised:
            load(tmp)
        return str(path), str(raised.value)
    config = path
    if name == "dataset_manifest":  # category scope reads it before training
        config = tmp / "config.json"
        config.write_text(json.dumps({"paths": {"data_dir": str(tmp)},
                                      "data": {"scope": "category"}}))
    command = "generate" if name == "config" else "train"
    capsys.readouterr()
    assert main([command, "--config", str(config), "--out", str(tmp / "out")]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ")
    return str(path), line


@pytest.mark.parametrize("fault", _JSON_FAULTS)
@pytest.mark.parametrize("name", _JSON_INPUTS)
def test_a_faulty_json_input_gives_the_typed_error_naming_its_file(
        name, fault, tmp_path, capsys):
    path, message = _json_input_error(tmp_path, name, fault, capsys)
    assert path in message


@settings(max_examples=100)
@given(st.binary(max_size=40) | mutated(_JSON_INPUTS["config"][0]))
@example(b"{}")
@example(b"[" * 100_000)
def test_any_bytes_as_a_config_give_a_status(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "wb") as fh:
            fh.write(data)
        assert main(["generate", "--config", path,
                     "--out", os.path.join(tmp, "data")]) in (0, 1)


@settings(max_examples=100)
@given(st.binary(max_size=200))
@example(b"[" * 100_000)
def test_any_bytes_as_a_manifest_raise_checkpoint_error(data):
    assert _load_checkpoint(data, BLOB) is None  # None: CheckpointError


# Python and numpy counts and reals, bools, non-finite floats and strings.
_NUMBERS = (st.integers(-3, 400) | st.integers() | st.integers(-2**63, 2**63 - 1).map(np.int64)
            | st.floats() | st.floats(width=32).map(np.float32) | st.booleans()
            | st.sampled_from([np.True_, np.nan, np.inf, -np.inf]) | st.text(max_size=3))
_CONFIGS = (ModelConfig, TrainConfig, GeneratorConfig, DataSection, SplitSection)


def _numbers(cls) -> dict[str, type]:
    """The ``int`` and ``float`` fields of dataclass ``cls``."""
    return {name: tp for name, tp in get_type_hints(cls).items() if tp in (int, float)}


@st.composite
def config_cases(draw):
    """A config class, keyword numbers for up to three of its number fields,
    and for the generator a ``base_levels`` list and one or two regimes'."""
    cls = draw(st.sampled_from(_CONFIGS))
    names = draw(st.lists(st.sampled_from(sorted(_numbers(cls))), unique=True, max_size=3))
    kwargs = {name: draw(_NUMBERS) for name in names}
    regimes = []
    if cls is GeneratorConfig:
        if draw(st.booleans()):
            kwargs["base_levels"] = draw(st.lists(_NUMBERS, min_size=4, max_size=4))
        regimes = draw(st.lists(st.dictionaries(st.sampled_from(sorted(_numbers(RegimeSpec))),
                                                _NUMBERS, max_size=2), min_size=1, max_size=2))
    return cls, kwargs, regimes


@settings(max_examples=300)
@given(config_cases())
def test_a_config_names_a_bad_number_or_round_trips_through_json(case):
    cls, kwargs, regimes = case
    drawn = [*kwargs, *(name for regime in regimes for name in regime)]
    try:
        if regimes:
            kwargs["regimes"] = [RegimeSpec(**regime) for regime in regimes]
        config = cls(**kwargs)
    except ValueError as exc:
        assert any(name in str(exc) for name in drawn), exc
        return
    for owner in (config, *getattr(config, "regimes", ())):
        assert {name: type(getattr(owner, name)) for name in _numbers(type(owner))} \
            == _numbers(type(owner))
    assert all(type(level) is float for level in getattr(config, "base_levels", ()))
    payload = json.loads(json.dumps(asdict(config)))
    assert from_payload(cls, payload, "config", ValueError) == config


@st.composite
def nn_cases(draw):
    """A short series with constant runs (some with noise below the
    normalization epsilon) and repeated segments, plus a query that is
    random, a copy of a training window, or a copy with a little noise.
    Some windows are longer than numpy's 128-element pairwise block."""
    d = draw(st.integers(1, 4))
    n_p = draw(st.integers(2, 24) | st.integers(129, 170))
    n_h = draw(st.integers(1, 6))
    length = draw(st.integers(n_p + n_h, n_p + n_h + 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.standard_normal((length, d)) * draw(st.sampled_from([1e-3, 1.0, 1e4]))
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, length - 1))
        stop = draw(st.integers(start + 1, length))
        jitter = draw(st.sampled_from([0.0, 1e-12]))
        values[start:stop] = values[start] + jitter * rng.standard_normal((stop - start, d))
    for _ in range(draw(st.integers(0, 3))):
        size = draw(st.integers(1, length))
        src = draw(st.integers(0, length - size))
        dst = draw(st.integers(0, length - size))
        values[dst:dst + size] = values[src:src + size].copy()
    kind = draw(st.sampled_from(["random", "copy", "near"]))
    if kind == "random":
        query = rng.standard_normal((n_p, d))
    else:
        start = draw(st.integers(0, length - n_p - n_h))
        query = values[start:start + n_p].copy()
        if kind == "near":
            query += 1e-6 * rng.standard_normal((n_p, d)) * np.abs(query).max()
    return values, query, n_p, n_h


@settings(max_examples=200)
@given(nn_cases())
def test_nearest_neighbor_returns_the_full_scans_continuation(case):
    values, query, n_p, n_h = case
    pred = NearestNeighborBaseline(values, n_p, n_h).predict_futures(query).futures[0]
    assert np.array_equal(pred, full_scan(values, query, n_p, n_h))


@st.composite
def fit_cases(draw):
    """A series for a nearest-neighbour fit: window lengths on both sides of
    numpy's 8-wide unrolled and 128-element pairwise sums, constant runs
    (some with noise far below the normalization epsilon) and offsets near
    1e6, where centring cancels most of each value."""
    d = draw(st.integers(1, 4))
    n_p = draw(st.integers(1, 170))
    n_h = draw(st.integers(1, 4))
    length = draw(st.integers(n_p + n_h, n_p + n_h + 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offset = draw(st.sampled_from([0.0, 1e6, -1e6 + 0.25]))
    values = offset + rng.standard_normal((length, d)) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    for _ in range(draw(st.integers(0, 2))):
        start = draw(st.integers(0, length - 1))
        stop = draw(st.integers(start + 1, length))
        jitter = draw(st.sampled_from([0.0, 1e-3 * ZNORM_EPSILON]))
        values[start:stop] = values[start] + jitter * rng.standard_normal((stop - start, d))
    return values, n_p, n_h


@settings(max_examples=150)
@given(fit_cases())
def test_nearest_neighbor_rows_are_the_time_ordered_normalization(case):
    values, n_p, n_h = case
    rows = NearestNeighborBaseline(values, n_p, n_h)._rows
    reference = normalized_windows(values, n_p, n_h).transpose(1, 0, 2)
    assert np.array_equal(rows.view(np.int64), reference.view(np.int64))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_time_ordered_normalization_is_z_normalize_on_the_window_view(d):
    # For d >= 2 numpy sums the view's strided time axis hour after hour, so
    # fits on real (four-column) data store the bits they stored before the
    # rule was written down.
    rng = np.random.default_rng(d)
    for n_p in (1, 2, 8, 9, 24, 128, 129, 168, 200):
        for n_starts in (1, 2, 61):
            values = rng.choice([0.0, 1e6]) + rng.standard_normal((n_p + n_starts, d))
            view = np.lib.stride_tricks.sliding_window_view(values, n_p, axis=0)[:n_starts]
            want = z_normalize(view, axis=2)
            got = normalized_windows(values, n_p, 1)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (n_p, n_starts)
    series = generate(GeneratorConfig(n_hours=840, seed=1)).values[:, :d]
    view = np.lib.stride_tricks.sliding_window_view(series, 168, axis=0)[:649]
    assert np.array_equal(normalized_windows(series, 168, 24).view(np.int64),
                          z_normalize(view, axis=2).view(np.int64))


def test_nearest_neighbor_recheck_distances_are_the_full_scans_bits():
    # With every start forced to be a candidate, the recheck must give each
    # start's distance bit for bit as the full scan computes it on the
    # time-major layout of the sliding-window view.  Summed
    # over a contiguous time axis (pairwise) instead, many differ by an ulp.
    series = generate(GeneratorConfig(n_hours=1512, seed=1))
    train = series.values[:840]
    baseline = NearestNeighborBaseline(train, 168, 24)
    every = np.arange(840 - 168 - 24 + 1)
    rng = np.random.default_rng(0)
    for start in (672, 840, 1000, 1344):
        window = series.values[start:start + 168]
        for query in (window, window + 0.1 * rng.standard_normal(window.shape)):
            reference = full_scan_distances(train, query, 168, 24)
            normalized = z_normalize(query, axis=0).T
            assert np.array_equal(baseline._recheck(normalized, every), reference)
            for few in (np.array([start % len(every)]), rng.choice(every, 3, replace=False)):
                assert np.array_equal(baseline._recheck(normalized, few), reference[few])


# Three rolling windows of CFG's n_p + n_h hours, plus two hours no window
# reaches; the baselines fit on a separate history.
_SPAN = np.random.default_rng(3).uniform(0.5, 2.0, size=(CFG.n_p + 3 * CFG.n_h + 2, 2))
_HISTORY = np.random.default_rng(4).uniform(0.5, 2.0, size=(40, 2))
_PREDICTORS = {
    "forecaster": MODEL,
    "nearest_neighbor": NearestNeighborBaseline(_HISTORY, CFG.n_p, CFG.n_h),
    "ridge": RidgeBaseline(_HISTORY, CFG.n_p, CFG.n_h),
}


@settings(max_examples=100)
@given(st.integers(0, len(_SPAN) - 1), st.integers(0, 1),
       st.sampled_from([np.nan, np.inf, -np.inf]), st.sampled_from(sorted(_PREDICTORS)))
@example(CFG.n_p + 3 * CFG.n_h - 1, 1, np.nan, "ridge")  # the last target hour
@example(CFG.n_p, 0, np.inf, "nearest_neighbor")  # the first target hour
def test_non_finite_test_span_raises(hour, dim, value, predictor):
    span = _SPAN.copy()
    span[hour, dim] = value
    test = MultivariateSeries(span, feature_names=("a", "b"))
    with pytest.raises(ValueError, match="non-finite"):
        report = evaluate_rolling(_PREDICTORS[predictor], test, CFG.n_p, CFG.n_h)
        # reached only if nothing raised: name the metrics that were returned
        pytest.fail(f"returned rmse {report.rmse} oracle_rmse {report.oracle_rmse}")
