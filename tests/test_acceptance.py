"""Acceptance suite: one test per criterion, at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one pass/fail line
per criterion.  The training-sanity criterion performs the full reference
run (2000 iterations at the default architecture), so the whole module
takes a few minutes.
"""

import time
from datetime import timedelta

import numpy as np

from multifuture.data import GeneratorConfig, generate, split_by_date
from multifuture.evaluation import (
    NearestNeighborBaseline,
    RidgeBaseline,
    evaluate_rolling,
)
from multifuture.model import (
    Forecaster,
    FutureSet,
    ModelConfig,
    count_parameters,
)
from multifuture.nn import Tensor, grad_check
from multifuture.nn import ops
from multifuture.persistence import load, save
from multifuture.training import TrainConfig, nrmse, oracle_index, train


def _report(number: int, description: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"\n[PASS] criterion {number}: {description}{suffix}")


def _fail(number: int, description: str):
    print(f"\n[FAIL] criterion {number}: {description}")


class _Criterion:
    """Prints the one-line verdict whichever way the test ends."""

    def __init__(self, number, description):
        self.number = number
        self.description = description
        self.detail = ""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            _report(self.number, self.description, self.detail)
        else:
            _fail(self.number, self.description)
        return False


def test_criterion_01_gradient_correctness():
    with _Criterion(1, "finite-difference gradients < 1e-3 for every layer "
                       "and the full loss") as c:
        start = time.perf_counter()
        worst = 0.0

        for seed in range(10):
            rng = np.random.default_rng(seed)
            x = Tensor(rng.standard_normal((2, 12)), requires_grad=True)
            w_c = Tensor(rng.standard_normal((3, 2, 3)) * 0.5, requires_grad=True)
            b_c = Tensor(rng.standard_normal(3) * 0.1, requires_grad=True)
            w_t = Tensor(rng.standard_normal((2, 3, 3)) * 0.5, requires_grad=True)
            w_l = Tensor(rng.standard_normal((4, 6)) * 0.5, requires_grad=True)
            b_l = Tensor(rng.standard_normal(4) * 0.1, requires_grad=True)
            probe = Tensor(np.array([1.0, 2.0]))

            def all_layers(x, w_c, b_c, w_t, w_l, b_l):
                h = ops.relu(ops.conv1d(x, w_c, b_c, padding=1))
                h = ops.maxpool1d(h)
                h = ops.tconv1d(h, w_t)
                h = ops.upsample_nearest(h, 11)
                pooled = ops.adaptive_avgpool1d(h)
                s = ops.softmax(pooled.reshape(2))
                v = ops.linear(h[:, :3].reshape(6), w_l, b_l)
                return (v * v).mean().sqrt() + (s * probe).sum()

            err = grad_check(all_layers, [x, w_c, b_c, w_t, w_l, b_l])
            worst = max(worst, err)
            assert err < 1e-3, f"layer gradients failed at seed {seed}: {err}"

        # full oracle loss (RMSE + gamma * NRMSE at the oracle index)
        cfg = ModelConfig(n_p=8, n_h=5, d=2, f=2, n_s=3, channels=6)
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            model = Forecaster(cfg, seed=seed, dtype=np.float64)
            inputs = rng.standard_normal((2, cfg.n_p, cfg.d))
            truth = rng.standard_normal((2, cfg.d, cfg.n_h))
            truth_z = (truth - truth.mean(axis=2, keepdims=True)) / \
                np.maximum(truth.std(axis=2, keepdims=True), 1e-8)

            x = Tensor(inputs, requires_grad=True)

            def oracle_loss(*_):
                # forward wired to the shared tensors so every input in the
                # grad_check list participates in the same graph
                fwd = _forward_from(model, x)
                loss = None
                shape_vals = np.stack([t.data for t in fwd["shape_preds"]])
                errs = np.sqrt(np.mean(
                    (shape_vals - truth_z[None]) ** 2, axis=(2, 3)))
                i_oc = errs.argmin(axis=0)
                for j in range(cfg.f):
                    mask = (i_oc == j).astype(np.float64)
                    if not mask.any():
                        continue
                    diff_r = fwd["futures"][j] - Tensor(truth)
                    rmse_rows = (diff_r * diff_r).mean(axis=(1, 2)).sqrt()
                    diff_n = fwd["shape_preds"][j] - Tensor(truth_z)
                    nrmse_rows = (diff_n * diff_n).mean(axis=(1, 2)).sqrt()
                    term = (Tensor(mask) * (rmse_rows + nrmse_rows)).sum()
                    loss = term if loss is None else loss + term
                return loss

            tensors = [x]
            for p in model.parameters():
                tensors.extend(p.tensors())
            err = grad_check(oracle_loss, tensors)
            worst = max(worst, err)
            assert err < 1e-3, f"full-loss gradients failed at seed {seed}: {err}"

        elapsed = time.perf_counter() - start
        assert elapsed < 60, f"gradient suite took {elapsed:.1f}s"
        c.detail = f"max rel err {worst:.2e}, {elapsed:.1f}s"


def _forward_from(model, x):
    """Forward pass wired to an existing input tensor (for grad checks)."""
    cfg = model.config
    hs = model.shape_encoder.forward(x)
    hc = model.scale_encoder.forward(x)
    futures, shapes = [], []
    for i in range(cfg.f):
        alpha, _ = model.shape_decoders[i].forward(hs)
        mul, add = model.scale_decoders[i].forward(hc)
        n = alpha.shape[0]
        futures.append(mul.reshape(n, cfg.d, 1) * alpha
                       + add.reshape(n, cfg.d, 1))
        shapes.append(alpha)
    return {"futures": futures, "shape_preds": shapes}


def test_criterion_02_architecture_arithmetic():
    with _Criterion(2, "7 encoder blocks -> 64-vector; tconv lengths "
                       "1->2->4->8->16->24") as c:
        model = Forecaster(ModelConfig(), seed=0)
        assert len(model.shape_encoder.convs) == 7

        # observe the real pooled lengths, not just the declared schedule
        seen_lengths = []
        real_block = ops.encoder_block

        def spy_block(*args):
            out = real_block(*args)
            seen_lengths.append(out.shape[1])  # (batch, length, channels)
            return out

        ops.encoder_block = spy_block
        try:
            from multifuture.model import shape_encoder_forward
            h = shape_encoder_forward(model, np.zeros((168, 4)))
        finally:
            ops.encoder_block = real_block
        assert h.shape == (64,)
        assert seen_lengths == [84, 42, 21, 10, 5, 2, 1]

        tconv_model = Forecaster(ModelConfig(variant="tconv_decoder"), seed=0)
        upsample_io = []
        real_upsample = ops.upsample_nearest

        def spy_upsample(t, out_length):
            upsample_io.append((t.shape[-1], out_length))
            return real_upsample(t, out_length)

        ops.upsample_nearest = spy_upsample
        try:
            fs = tconv_model.predict_futures(np.zeros((168, 4)))
        finally:
            ops.upsample_nearest = real_upsample
        per_decoder = upsample_io[:5]
        assert [pair[0] for pair in per_decoder] == [1, 2, 4, 8, 16]
        assert [pair[1] for pair in per_decoder] == [2, 4, 8, 16, 24]
        assert fs.futures.shape[2] == 24
        c.detail = "encoder 168->84->42->21->10->5->2->1"


def test_criterion_03_oracle_loss_semantics():
    with _Criterion(3, "oracle index matches exhaustive search on 1000 "
                       "cases; loss decomposes at gamma=1") as c:
        from multifuture.training import compute_loss

        rng = np.random.default_rng(0)
        for case in range(1000):
            f = int(rng.integers(1, 17))
            d = int(rng.integers(1, 4))
            n_h = int(rng.integers(2, 9))
            shapes = rng.standard_normal((f, d, n_h))
            mul = rng.uniform(0.5, 2.0, size=(f, d))
            add = rng.standard_normal((f, d))
            fs = FutureSet(mul[:, :, None] * shapes + add[:, :, None],
                           shapes, mul, add)
            truth = rng.standard_normal((d, n_h)) * 3 + 1

            # independent exhaustive scan with its own z-normalization
            mean = truth.mean(axis=1, keepdims=True)
            std = np.maximum(truth.std(axis=1, keepdims=True), 1e-8)
            tz = (truth - mean) / std
            best, best_err = 0, np.inf
            for j in range(f):
                err = np.sqrt(np.mean((shapes[j] - tz) ** 2))
                if err < best_err:
                    best, best_err = j, err
            assert oracle_index(fs, truth) == best + 1

            if case < 100:
                i_oc = best + 1
                record = compute_loss(fs, truth, i_oc)  # gamma defaults to 1
                assert abs(record.total_loss
                           - (record.rmse_term + 1.0 * record.nrmse_term)) < 1e-6
        c.detail = "1000 cases, f <= 16"


def test_criterion_04_nrmse_affine_invariance():
    with _Criterion(4, "nrmse(A, a*T+b) == nrmse(A, T) within 1e-6") as c:
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(100):
            d = int(rng.integers(1, 5))
            n_h = int(rng.integers(2, 30))
            pred = rng.standard_normal((d, n_h))
            truth = rng.standard_normal((d, n_h)) * 5 - 2
            a = rng.uniform(1e-3, 10.0)
            b = rng.uniform(-1e3, 1e3)
            delta = abs(nrmse(pred, a * truth + b) - nrmse(pred, truth))
            worst = max(worst, delta)
            assert delta < 1e-6
        c.detail = f"max deviation {worst:.2e}"


def test_criterion_05_shape_bank_envelope():
    with _Criterion(5, "shape predictions stay inside the per-column bank "
                       "envelope") as c:
        cfg = ModelConfig(n_p=32, n_h=12, d=3, f=3, n_s=6, channels=16)
        model = Forecaster(cfg, seed=7)
        rng = np.random.default_rng(7)
        for _ in range(100):
            window = rng.standard_normal((cfg.n_p, cfg.d)) * 3
            fs = model.predict_futures(window)
            for i, decoder in enumerate(model.shape_decoders):
                for j, bank in enumerate(decoder.banks):
                    lo = bank.templates.data.min(axis=0)
                    hi = bank.templates.data.max(axis=0)
                    assert np.all(fs.shape_preds[i, j] >= lo - 1e-6)
                    assert np.all(fs.shape_preds[i, j] <= hi + 1e-6)
        c.detail = "100 random forwards"


def test_criterion_06_oracle_dominance_and_monotonicity():
    with _Criterion(6, "per-window oracle == min over futures; truncation "
                       "non-increasing") as c:
        series = generate(GeneratorConfig(n_hours=720, seed=3))
        boundary = series.start_timestamp + timedelta(hours=552)
        train_split, test_split = split_by_date(series, boundary,
                                                warmup_hours=48)
        cfg = ModelConfig(n_p=48, n_h=24, d=4, f=4, n_s=8, channels=16)
        model, _ = train(train_split, cfg,
                         TrainConfig(n_iter=40, batch_size=16, seed=0))
        report, predictions = evaluate_rolling(
            model, test_split, 48, 24, collect_predictions=True)

        for record, (truth, fs) in zip(report.per_window, predictions):
            rmses = record.rmse_per_future
            # independent recomputation from the collected prediction set
            recomputed = [float(np.sqrt(np.mean((fs.futures[j] - truth) ** 2)))
                          for j in range(fs.f)]
            np.testing.assert_allclose(rmses, recomputed, rtol=0, atol=1e-12)
            assert min(rmses) == min(recomputed)
            mins = [min(record.nrmse_per_future[:k]) for k in range(1, fs.f + 1)]
            assert all(a >= b for a, b in zip(mins, mins[1:]))
        assert report.oracle_rmse <= report.rmse + 1e-12
        c.detail = f"{report.n_windows} windows, f=4"


def test_criterion_07_training_sanity():
    with _Criterion(7, "reference run: last-50 mean loss < 0.5 x first-50; "
                       "wall < 5 min") as c:
        series = generate(GeneratorConfig())           # reference generator
        start = time.perf_counter()
        model, trace = train(series, ModelConfig(), TrainConfig())
        wall = time.perf_counter() - start
        first = float(np.mean([r.total_loss for r in trace[:50]]))
        last = float(np.mean([r.total_loss for r in trace[-50:]]))
        assert len(trace) == 2000
        assert last < 0.5 * first, f"ratio {last / first:.3f}"
        assert wall < 300, f"training took {wall:.0f}s"
        c.detail = f"ratio {last / first:.3f}, wall {wall:.0f}s"


def test_criterion_08_multi_future_advantage():
    with _Criterion(8, "trained f=3 beats f=1 on test oracle NRMSE for "
                       ">= 4 of 5 seeds") as c:
        wins = 0
        margins = []
        for seed in range(5):
            # regimes are redrawn every day: the upcoming day's regime is
            # invisible in the input and only revealed at prediction time
            series = generate(GeneratorConfig(
                n_hours=1800, seed=seed, regime_switch_prob=1.0,
                noise_std=0.05))
            boundary = series.start_timestamp + timedelta(hours=1440)
            train_split, test_split = split_by_date(series, boundary,
                                                    warmup_hours=48)
            scores = {}
            for f in (1, 3):
                cfg = ModelConfig(n_p=48, n_h=24, d=4, f=f, n_s=16,
                                  channels=32)
                model, _ = train(train_split, cfg,
                                 TrainConfig(n_iter=400, batch_size=32,
                                             seed=seed))
                scores[f] = evaluate_rolling(model, test_split, 48,
                                             24).oracle_nrmse
            wins += scores[3] < scores[1]
            margins.append(scores[1] - scores[3])
        assert wins >= 4, f"f=3 won only {wins}/5 seeds"
        c.detail = f"{wins}/5 seeds, mean margin {np.mean(margins):.3f}"


def test_criterion_09_scalability():
    with _Criterion(9, "decoder params linear in f; full cheaper than "
                       "model ensemble (params and time)") as c:
        totals = {}
        decoders = {}
        for f in (1, 2, 3, 12):
            cfg = ModelConfig(f=f)
            counts = count_parameters(Forecaster(cfg, seed=0))
            totals[("full", f)] = counts.total
            decoders[f] = counts.decoder
            ens = count_parameters(
                Forecaster(ModelConfig(f=f, variant="model_ensemble"), seed=0))
            totals[("ensemble", f)] = ens.total
        per_decoder = decoders[2] - decoders[1]
        assert decoders[3] == decoders[1] + 2 * per_decoder
        assert decoders[12] == decoders[1] + 11 * per_decoder
        assert totals[("full", 3)] < totals[("ensemble", 3)]
        assert totals[("full", 12)] < totals[("ensemble", 12)]

        series = generate(GeneratorConfig(n_hours=480, seed=0))
        times = {}
        for variant in ("full", "model_ensemble"):
            cfg = ModelConfig(f=12, variant=variant)
            tcfg = TrainConfig(n_iter=6, batch_size=32, seed=0)
            start = time.perf_counter()
            train(series, cfg, tcfg)
            times[variant] = (time.perf_counter() - start) / 6
        assert times["full"] < times["model_ensemble"]
        c.detail = (f"f=12 sec/iter: full {times['full']:.3f} vs "
                    f"ensemble {times['model_ensemble']:.3f}")


def test_criterion_10_baseline_oracles():
    with _Criterion(10, "ridge matches closed-form solve within 1e-6; "
                        "nearest neighbor matches full scan exactly") as c:
        series = generate(GeneratorConfig(n_hours=500, seed=4))
        values = series.values

        n_p, n_h, lam = 24, 6, 1.0
        model = RidgeBaseline(values, n_p, n_h, lam)
        n_windows = len(values) - n_p - n_h + 1
        x = np.stack([np.concatenate(([1.0], values[w:w + n_p].reshape(-1)))
                      for w in range(n_windows)])
        y = np.stack([values[w + n_p:w + n_p + n_h].reshape(-1)
                      for w in range(n_windows)])
        penalty = lam * np.eye(x.shape[1])
        penalty[0, 0] = 0.0
        reference = np.linalg.inv(x.T @ x + penalty) @ (x.T @ y)
        assert np.max(np.abs(model.coefficients - reference)) < 1e-6

        nn = NearestNeighborBaseline(values, 72, 24)
        rng = np.random.default_rng(5)
        for _ in range(20):
            start = int(rng.integers(0, len(values) - 72))
            query = values[start:start + 72] + rng.standard_normal((72, 4)) * 0.1
            fast = nn.predict_futures(query).futures[0]
            slow = _nn_full_scan(values, query, 72, 24)
            assert np.array_equal(fast, slow)
        c.detail = "20 nearest-neighbor queries, exact"


def _nn_full_scan(values, query, n_p, n_h, epsilon=1e-8):
    best_dist, best_start = np.inf, -1
    qz = np.empty_like(query)
    for j in range(query.shape[1]):
        col = query[:, j]
        qz[:, j] = (col - col.mean()) / max(col.std(), epsilon)
    for start in range(len(values) - n_p - n_h + 1):
        window = values[start:start + n_p]
        dist = 0.0
        for j in range(values.shape[1]):
            col = window[:, j]
            wz = (col - col.mean()) / max(col.std(), epsilon)
            dist += np.sqrt(((wz - qz[:, j]) ** 2).sum())
        if dist < best_dist:
            best_dist, best_start = dist, start
    return values[best_start + n_p:best_start + n_p + n_h].T


def test_criterion_11_determinism_and_persistence(tmp_path):
    with _Criterion(11, "bit-identical loss traces; checkpoint round-trip "
                        "prediction-bit-exact") as c:
        series = generate(GeneratorConfig(n_hours=480, seed=6))
        cfg = ModelConfig(n_p=48, n_h=24, d=4, f=2, n_s=8, channels=16)
        tcfg = TrainConfig(n_iter=40, batch_size=16, seed=9)
        model_a, trace_a = train(series, cfg, tcfg)
        model_b, trace_b = train(series, cfg, tcfg)
        assert [r.total_loss for r in trace_a] == [r.total_loss for r in trace_b]
        assert [r.rmse_term for r in trace_a] == [r.rmse_term for r in trace_b]

        save(model_a, tmp_path / "ckpt", training_seed=9)
        loaded = load(tmp_path / "ckpt")
        rng = np.random.default_rng(10)
        for _ in range(10):
            window = rng.standard_normal((cfg.n_p, cfg.d))
            original = model_a.predict_futures(window)
            restored = loaded.predict_futures(window)
            assert np.array_equal(original.futures, restored.futures)
            assert np.array_equal(original.shape_preds, restored.shape_preds)
        c.detail = "40-iteration traces identical; 10 round-trip inputs"
