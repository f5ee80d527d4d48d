"""Tests for the forecaster: architecture arithmetic, variants, contracts."""

import contextlib
import gc
import hashlib
import json
import sys
import threading
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multifuture.model import (
    VARIANTS,
    Forecaster,
    ExpertClassifier,
    ModelConfig,
    check_windows,
    combine,
    count_parameters,
    scale_forward,
    shape_decoder_forward,
    shape_encoder_forward,
)
from multifuture.nn import AdamState, Tensor, adam_step, grad_check, no_grad, ops
from multifuture.nn.tensor import _accumulate, _from_op
from multifuture.persistence import MANIFEST_NAME, load_shape_banks, save, save_shape_banks
from multifuture.training import _oracle_batch_loss

SMALL = dict(n_p=16, n_h=8, d=2, f=2, n_s=4, channels=8)


def small_config(**overrides):
    return ModelConfig(**{**SMALL, **overrides})


def random_window(config, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((config.n_p, config.d))


def spy_on(monkeypatch, names) -> Counter:
    """Count the calls of the ``ops`` functions ``names`` from here on."""
    calls = Counter()

    def counted(name):
        op = getattr(ops, name)

        def spy(*args, **kwargs):
            calls[name] += 1
            return op(*args, **kwargs)
        return spy

    for name in names:
        monkeypatch.setattr(ops, name, counted(name))
    return calls


class TestModelConfig:
    def test_block_count_formula(self):
        assert ModelConfig(n_p=168).encoder_blocks == 7
        assert ModelConfig(n_p=2).encoder_blocks == 1
        assert ModelConfig(n_p=255).encoder_blocks == 7
        assert ModelConfig(n_p=256).encoder_blocks == 8

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(n_p=1)
        with pytest.raises(ValueError):
            ModelConfig(f=0)
        with pytest.raises(ValueError):
            ModelConfig(variant="nope")

    def test_tconv_needs_wide_horizon(self):
        with pytest.raises(ValueError, match="tconv"):
            ModelConfig(variant="tconv_decoder", n_h=8)


class TestShapeEncoder:
    def test_default_architecture_emits_64_vector(self):
        model = Forecaster(ModelConfig(), seed=0)
        assert len(model.members[0].shape_encoder.convs) == 7
        h = shape_encoder_forward(model, np.zeros((168, 4)))
        assert h.shape == (64,)
        assert np.all(np.isfinite(h))

    def test_zero_input_zero_bias_gives_zero(self):
        model = Forecaster(small_config(), seed=0)
        h = shape_encoder_forward(model, np.zeros((16, 2)))
        np.testing.assert_allclose(h, np.zeros(8))

    def test_output_finite_and_fixed_width(self):
        cfg = small_config()
        model = Forecaster(cfg, seed=1)
        h = shape_encoder_forward(model, random_window(cfg, 5) * 10)
        assert h.shape == (cfg.channels,)
        assert np.all(np.isfinite(h))

    def test_shape_mismatch_raises(self):
        model = Forecaster(small_config(), seed=0)
        with pytest.raises(ValueError, match="shape"):
            model.predict_futures(np.zeros((7, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e39])
    def test_non_finite_window_raises(self, bad):
        model = Forecaster(small_config(), seed=0)
        window = np.zeros((16, 2))
        window[5, 1] = bad  # 1e39 overflows float32
        with np.errstate(over="ignore"), \
                pytest.raises(ValueError, match="non-finite"):
            model.predict_futures(window)

    @pytest.mark.parametrize("n_p,blocks", [(2, 1), (3, 1), (4, 2), (17, 4)])
    def test_minimum_depth_encoders(self, n_p, blocks):
        cfg = small_config(n_p=n_p)
        model = Forecaster(cfg, seed=0)
        assert len(model.members[0].shape_encoder.convs) == blocks
        h = shape_encoder_forward(model, np.ones((n_p, cfg.d)))
        assert h.shape == (cfg.channels,)
        assert np.all(np.isfinite(h))


class TestShapeDecoder:
    def test_singleton_bank_returns_template(self):
        cfg = small_config(n_s=1)
        model = Forecaster(cfg, seed=0)
        h = np.zeros(cfg.channels)
        alpha, r = shape_decoder_forward(model, h, 0)
        np.testing.assert_allclose(r, np.ones((cfg.d, 1)))
        # future 0's d banks
        templates = model.members[0].shape_decoder.banks.weight.data[:cfg.d]
        np.testing.assert_allclose(alpha, templates[:, 0, :], rtol=1e-6)

    def test_hand_mixture(self):
        # r = [0.25, 0.75] against rows [[0,4,0],[4,0,4]] -> [3,1,3]
        r = np.array([0.25, 0.75])
        s = np.array([[0.0, 4.0, 0.0], [4.0, 0.0, 4.0]])
        np.testing.assert_allclose(r @ s, [3.0, 1.0, 3.0])
        cfg = small_config(n_s=2, n_h=3, d=1)
        model = Forecaster(cfg, seed=0)
        params = dict(model.named_tensors())
        params["shape_decoder0.bank0.weight"].data[:] = s.astype(np.float32)
        h = np.zeros(cfg.channels)
        # zero h and zero regressor weights give uniform r; force the
        # regressor bias to produce [0.25, 0.75]
        params["shape_decoder0.regressor0.weight"].data[:] = 0
        params["shape_decoder0.regressor0.bias"].data[:] = np.log(
            [0.25, 0.75]).astype(np.float32)
        alpha, r_out = shape_decoder_forward(model, h, 0)
        np.testing.assert_allclose(r_out[0], [0.25, 0.75], rtol=1e-6)
        np.testing.assert_allclose(alpha[0], [3.0, 1.0, 3.0], rtol=1e-5)

    def test_convex_envelope(self):
        cfg = small_config()
        model = Forecaster(cfg, seed=3)
        for seed in range(20):
            h = np.random.default_rng(seed).standard_normal(cfg.channels)
            alpha, r = shape_decoder_forward(model, h, 1)
            np.testing.assert_allclose(r.sum(axis=-1), 1.0, atol=1e-6)
            for j, (_, bank) in enumerate(model.shape_banks()[cfg.d:2 * cfg.d]):
                lo = bank.data.min(axis=0)
                hi = bank.data.max(axis=0)
                assert np.all(alpha[j] >= lo - 1e-6)
                assert np.all(alpha[j] <= hi + 1e-6)


class TestScaleAndCombine:
    def test_zero_weights_zero_output(self):
        cfg = small_config()
        model = Forecaster(cfg, seed=0)
        params = dict(model.named_tensors())
        params["scale_decoder0.linear.weight"].data[:] = 0
        params["scale_decoder0.linear.bias"].data[:] = 0
        mul, add = scale_forward(model, random_window(cfg), 0)
        np.testing.assert_allclose(mul, np.zeros(cfg.d))
        np.testing.assert_allclose(add, np.zeros(cfg.d))

    def test_output_count_is_2d(self):
        cfg = ModelConfig(n_p=16, d=4, f=1, n_s=4, channels=8)
        model = Forecaster(cfg, seed=0)
        mul, add = scale_forward(model, np.zeros((16, 4)), 0)
        assert mul.shape == (4,) and add.shape == (4,)

    def test_scale_decoder_against_matvec_oracle(self):
        cfg = small_config()
        model = Forecaster(cfg, seed=4)
        window = random_window(cfg, 9)
        from multifuture.nn.tensor import Tensor, no_grad
        with no_grad():
            x = Tensor(check_windows(window, cfg.n_p, cfg.d, model.dtype))
            h = model.members[0].scale_encoder.forward(x).data[0, 0]
        params = dict(model.named_tensors())
        w = params["scale_decoder0.linear.weight"].data
        b = params["scale_decoder0.linear.bias"].data
        expected = np.array([
            sum(w[o, i] * h[i] for i in range(w.shape[1])) + b[o]
            for o in range(w.shape[0])
        ])
        mul, add = scale_forward(model, window, 0)
        np.testing.assert_allclose(np.concatenate([mul, add]), expected,
                                   rtol=1e-4, atol=1e-5)

    def test_combine_identity_scale(self):
        shape = np.arange(6.0).reshape(2, 3)
        np.testing.assert_allclose(
            combine(shape, np.ones(2), np.zeros(2)), shape)

    def test_combine_hand_values(self):
        np.testing.assert_allclose(
            combine(np.array([[0.0, 1.0, -1.0]]), np.array([2.0]),
                    np.array([1.0])),
            [[1.0, 3.0, -1.0]])

    def test_combine_zero_mul_collapses_to_offset(self):
        out = combine(np.ones((2, 4)), np.zeros(2), np.array([5.0, -1.0]))
        np.testing.assert_allclose(out[0], 5.0)
        np.testing.assert_allclose(out[1], -1.0)


class TestModelForward:
    @pytest.mark.parametrize("variant", [v for v in VARIANTS if v != "one_loss"])
    def test_future_set_contract(self, variant):
        cfg = small_config(variant=variant, n_h=16 if variant == "tconv_decoder" else 8)
        model = Forecaster(cfg, seed=0)
        fs = model.predict_futures(random_window(cfg, 2))
        assert fs.futures.shape == (cfg.f, cfg.d, cfg.n_h)
        assert fs.shape_preds.shape == (cfg.f, cfg.d, cfg.n_h)
        fs.validate()

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_empty_batch_predicts_no_future_sets(self, variant):
        cfg = small_config(variant=variant, n_h=16)
        model = Forecaster(cfg, seed=0)
        view = np.lib.stride_tricks.sliding_window_view(
            random_window(cfg), cfg.n_p, axis=0)[:0].swapaxes(1, 2)
        for windows in (np.zeros((0, cfg.n_p, cfg.d)), view):
            assert windows.shape == (0, cfg.n_p, cfg.d)
            assert model.predict_batch(windows) == []

    @pytest.mark.parametrize("grad", [True, False], ids=["grad", "no_grad"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_empty_stack_gives_empty_tensors(self, variant, grad):
        cfg = small_config(variant=variant, n_h=16)
        model = Forecaster(cfg, seed=0)
        with contextlib.nullcontext() if grad else no_grad():
            fwd = model.forward_tensors(np.zeros((0, cfg.n_p, cfg.d)))
        assert fwd.futures.shape == fwd.shape_preds.shape == (cfg.f, 0, cfg.d, cfg.n_h)
        assert fwd.scale_mul.shape == fwd.scale_add.shape == (cfg.f, 0, cfg.d)
        if variant == "tconv_decoder":
            assert fwd.activations is None
        else:
            assert fwd.activations.shape == (cfg.f, 0, cfg.d, cfg.n_s)

    def test_f3_default(self):
        model = Forecaster(ModelConfig(n_p=16, d=2, f=3, n_s=4, channels=8), seed=0)
        fs = model.predict_futures(np.zeros((16, 2)))
        assert fs.f == 3

    def test_eq5_consistency_random(self):
        cfg = small_config()
        model = Forecaster(cfg, seed=1)
        for seed in range(10):
            fs = model.predict_futures(random_window(cfg, seed))
            recombined = (fs.scale_mul[:, :, None] * fs.shape_preds
                          + fs.scale_add[:, :, None])
            np.testing.assert_allclose(fs.futures, recombined, atol=1e-6)

    def test_non_separated_unit_scales(self):
        cfg = small_config(variant="non_separated")
        model = Forecaster(cfg, seed=0)
        fs = model.predict_futures(random_window(cfg))
        np.testing.assert_allclose(fs.scale_mul, 1.0)
        np.testing.assert_allclose(fs.scale_add, 0.0)
        np.testing.assert_allclose(fs.futures, fs.shape_preds)

    def test_shared_encoder_has_one_encoder(self):
        cfg = small_config(variant="shared_encoder")
        model = Forecaster(cfg, seed=0)
        encoder = model.members[0].shape_encoder
        assert all(e is encoder for m in model.members
                   for e in (m.shape_encoder, m.scale_encoder))
        names = [name for name, _ in model.named_tensors()]
        assert not any(name.startswith("shape_encoder") for name in names)

    def test_tconv_length_schedule(self):
        cfg = ModelConfig(n_p=16, n_h=24, d=2, f=1, channels=8,
                          variant="tconv_decoder")
        model = Forecaster(cfg, seed=0)
        assert model.members[0].shape_decoder.length_schedule() == [1, 2, 4, 8, 16, 24]
        fs = model.predict_futures(np.zeros((16, 2)))
        assert fs.futures.shape == (1, 2, 24)
        assert fs.activations is None

    def test_model_ensemble_parameter_ratio(self):
        full = Forecaster(small_config(f=3), seed=0)
        ensemble = Forecaster(small_config(f=3, variant="model_ensemble"), seed=0)
        full_counts = count_parameters(full)
        ens_counts = count_parameters(ensemble)
        # the ensemble re-learns an encoder pair per future
        assert ens_counts.encoder == 3 * full_counts.encoder
        assert ens_counts.total > full_counts.total

    def test_encoder_determinism(self):
        cfg = small_config()
        model = Forecaster(cfg, seed=0)
        window = random_window(cfg, 3)
        first = shape_encoder_forward(model, window)
        second = shape_encoder_forward(model, window)
        assert np.array_equal(first, second)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_single_window_is_the_batch_of_one(self, variant):
        cfg = small_config(variant=variant,
                           n_h=16 if variant == "tconv_decoder" else 8)
        model = Forecaster(cfg, seed=0)
        window = random_window(cfg, 4)
        single = model.predict_futures(window)
        (batched,) = model.predict_batch(window[None])
        for name in ("futures", "shape_preds", "scale_mul", "scale_add",
                     "activations"):
            a, b = getattr(single, name), getattr(batched, name)
            if a is None:
                assert b is None and variant == "tconv_decoder"
            else:
                assert a.dtype == b.dtype == np.float64
                assert np.array_equal(a, b), name

    @pytest.mark.parametrize("kernel", [1, 3])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_predict_validates_once_and_builds_no_window_view(self, variant, kernel,
                                                              monkeypatch):
        cfg = small_config(variant=variant, kernel=kernel,
                           n_h=16 if variant == "tconv_decoder" else 8)
        model = Forecaster(cfg, seed=0)
        window = random_window(cfg, 5)
        expected = model.predict_futures(window)
        checked = []

        def counted(*args, **kwargs):
            checked.append(args[0])
            return check_windows(*args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("sliding_window_view called while serving")

        monkeypatch.setattr("multifuture.model.check_windows", counted)
        monkeypatch.setattr(np.lib.stride_tricks, "sliding_window_view", refuse)
        got = model.predict_futures(window)
        assert len(checked) == 1 and checked[0] is window
        assert got.futures.tobytes() == expected.futures.tobytes()

    def test_same_seed_same_model(self):
        cfg = small_config()
        a = Forecaster(cfg, seed=5)
        b = Forecaster(cfg, seed=5)
        window = random_window(cfg, 0)
        assert np.array_equal(a.predict_futures(window).futures,
                              b.predict_futures(window).futures)


class TestExpertClassifier:
    def test_probabilities_sum_to_one(self):
        cfg = small_config(f=3)
        clf = ExpertClassifier(cfg, seed=0)
        probs = clf.predict_proba(random_window(cfg))
        assert probs.shape == (3,)
        assert np.all(probs >= 0)
        np.testing.assert_allclose(probs.sum(), 1.0, atol=1e-6)

    def test_single_future_degenerate(self):
        cfg = small_config(f=1)
        clf = ExpertClassifier(cfg, seed=0)
        np.testing.assert_allclose(
            clf.predict_proba(random_window(cfg)), [1.0])


class TestCountParameters:
    def test_decoder_subtotal_linear_in_f(self):
        counts = [count_parameters(Forecaster(small_config(f=f), seed=0))
                  for f in (1, 2, 3, 4)]
        per_decoder = counts[1].decoder - counts[0].decoder
        for k in range(1, 4):
            assert counts[k].decoder == counts[0].decoder + k * per_decoder
        # encoders unaffected by f
        assert len({c.encoder for c in counts}) == 1

    def test_f1_vs_f2_differ_by_one_decoder(self):
        c1 = count_parameters(Forecaster(small_config(f=1), seed=0))
        c2 = count_parameters(Forecaster(small_config(f=2), seed=0))
        assert c2.total - c1.total == c2.decoder - c1.decoder

    def test_full_beats_ensemble_at_f3(self):
        full = count_parameters(Forecaster(small_config(f=3), seed=0))
        ens = count_parameters(
            Forecaster(small_config(f=3, variant="model_ensemble"), seed=0))
        assert full.total < ens.total

    def test_default_config_audit(self):
        # independent audit from the layer shapes, default config
        model = Forecaster(ModelConfig(), seed=0)
        conv_first = 64 * 4 * 3 + 64
        conv_rest = 6 * (64 * 64 * 3 + 64)
        encoder = conv_first + conv_rest
        regressors = 4 * (32 * 64 + 32)
        banks = 4 * (32 * 24)
        scale_dec = 8 * 64 + 8
        expected = 2 * encoder + 3 * (regressors + banks) + 3 * scale_dec
        assert count_parameters(model).total == expected


class TestInterpretabilityContract:
    def test_alpha_rederivable_from_r_and_banks(self):
        cfg = small_config()
        model = Forecaster(cfg, seed=2)
        window = random_window(cfg, 7)
        fs = model.predict_futures(window)
        for g, (_, bank) in enumerate(model.shape_banks()):
            i, j = divmod(g, cfg.d)
            rebuilt = fs.activations[i, j] @ bank.data.astype(np.float64)
            np.testing.assert_allclose(fs.shape_preds[i, j], rebuilt,
                                       rtol=1e-4, atol=1e-6)


class TestTConvDecoder:
    CONFIG = ModelConfig(n_p=16, n_h=16, d=2, f=3, n_s=4, channels=8,
                         variant="tconv_decoder")

    def test_oracle_loss_gradient(self):
        # the loss train runs, on a float64 model; with two rows and three
        # futures, at least one future wins no row and gets no gradient
        cfg = replace(self.CONFIG, n_p=8, channels=4)
        model = Forecaster(cfg, seed=1, dtype=np.float64)
        rng = np.random.default_rng(5)
        # Zero initial biases put the pre-activations behind an all-dead
        # ReLU row exactly on the kink, where a central difference is
        # one-sided; random biases move them off it.
        for name, t in model.named_tensors():  # per-future biases, in checkpoint order
            if name.endswith(".bias"):
                t.data[:] = rng.standard_normal(t.shape) * 0.1
        x = Tensor(rng.standard_normal((2, cfg.n_p, cfg.d)), requires_grad=True)
        truth = rng.standard_normal((2, cfg.d, cfg.n_h))
        winners = []

        def oracle_loss(*_):
            loss, record = _oracle_batch_loss(model._forward(x), truth, 1.0, 0)
            winners.append({i for i, n in enumerate(record.oracle_index_histogram)
                            if n})
            return loss

        tensors = [x] + model.parameters()
        assert grad_check(oracle_loss, tensors) < 1e-3  # criterion 1's bound
        idle = set(range(cfg.f)) - winners[0]
        assert idle
        assert all(not layer.weight.grad[i].any() and not layer.bias.grad[i].any()
                   for layer in model.members[0].shape_decoder.layers for i in idle)

    def _initial_oracle_loss(self, seed):
        """The oracle loss of a float64 model at its initial weights, whose
        zero biases put the pre-activations behind an all-dead ReLU row
        exactly on the kink, and the tensors to check."""
        cfg = replace(self.CONFIG, n_p=8, channels=4)
        model = Forecaster(cfg, seed=seed, dtype=np.float64)
        rng = np.random.default_rng(5 + seed)
        x = Tensor(rng.standard_normal((2, cfg.n_p, cfg.d)), requires_grad=True)
        truth = rng.standard_normal((2, cfg.d, cfg.n_h))

        def oracle_loss(*_):
            return _oracle_batch_loss(model._forward(x), truth, 1.0, 0)[0]

        return oracle_loss, [x] + model.parameters()

    @pytest.mark.parametrize("seed", range(4))
    def test_oracle_loss_gradient_at_initial_weights(self, seed):
        err = grad_check(*self._initial_oracle_loss(seed))
        assert err < 1e-3  # criterion 1's bound
        assert 0 < err.skipped < 0.05

    def test_a_gradient_two_percent_off_fails_at_initial_weights(self):
        oracle_loss, tensors = self._initial_oracle_loss(0)

        def off(*_):  # every gradient 2% too large
            loss = oracle_loss()
            return _from_op(loss.data, (loss,), lambda g: _accumulate(loss, 1.02 * g))

        assert grad_check(off, tensors) > 1e-3

    def test_empty_batch_predicts_no_future_sets(self):
        # the per-future, upsampling layers gather no columns
        model = Forecaster(self.CONFIG, seed=0)
        assert model.predict_batch(np.zeros((0, self.CONFIG.n_p, self.CONFIG.d))) == []

    def test_parameter_layout_pinned(self):
        # names, order, shapes and seed-0 values of the per-future decoders
        # before they were stacked into one module
        model = Forecaster(self.CONFIG, seed=0)
        digest = hashlib.sha256()
        names = []
        for name, t in model.named_tensors():
            names.append(name)
            digest.update(name.encode())
            digest.update(repr(t.data.shape).encode())
            digest.update(np.ascontiguousarray(t.data, dtype="<f4").tobytes())
        layers = (["input_linear"] + [f"tconv{b}" for b in range(5)]
                  + ["output_conv"])
        assert names[16:16 + 3 * 14] == [
            f"shape_decoder{i}.{layer}.{part}" for i in range(3)
            for layer in layers for part in ("weight", "bias")]
        assert digest.hexdigest() == (
            "d2ec69cf460fd6154ca8915eda519e982440e27681f5d0fe7b0f01bad115f2ad")


def _layout_digest(model) -> str:
    """SHA-256 over each parameter's name, shape and float32 bytes, in
    ``named_tensors()`` order."""
    digest = hashlib.sha256()
    for name, t in model.named_tensors():
        digest.update(name.encode())
        digest.update(repr(t.data.shape).encode())
        digest.update(np.ascontiguousarray(t.data, dtype="<f4").tobytes())
    return digest.hexdigest()


class TestMembers:
    @pytest.mark.parametrize("variant,digest", [
        ("full", "cf0e7d973781f761917527e2517ea65f710be2ff32cb325208249c9447cce4fc"),
        ("shared_encoder",
         "5141792d8c07a79495a353f033156ff217afd0fe399d927bdde858ebb2310296"),
        ("non_separated",
         "36f4f933afd56ad52ba69166c0d5a6753f94d858f2f5d1b4bd30651340ddd258"),
        ("model_ensemble",
         "43b3b4db754ddc9c93e791db6e14d140f1796c0808cac62ba39729e0ffc2d5e7"),
        ("tconv_decoder", "d2ec69cf460fd6154ca8915eda519e982440e27681f5d0fe7b0f01bad115f2ad"),
    ])
    def test_parameter_layout_pinned(self, variant, digest):
        # names, order, shapes and seed-0 values of the per-future decoders,
        # pinned before their layers were stored as one tensor each
        n_h = 16 if variant == "tconv_decoder" else 8
        model = Forecaster(small_config(f=3, n_h=n_h, variant=variant), seed=0)
        assert _layout_digest(model) == digest

    @pytest.mark.parametrize("variant", ["full", "model_ensemble"])
    def test_shape_decoder_forward_is_future_i(self, variant):
        cfg = small_config(f=3, variant=variant)
        model = Forecaster(cfg, seed=6)
        window = random_window(cfg, 1)
        fs = model.predict_futures(window)
        x = Tensor(check_windows(window, cfg.n_p, cfg.d, model.dtype))
        for i in range(cfg.f):
            member = model.members[i if variant == "model_ensemble" else 0]
            with no_grad():
                h = member.shape_encoder.forward(x).data[0, 0]
            alpha, r = shape_decoder_forward(model, h, i)
            np.testing.assert_allclose(alpha, fs.shape_preds[i], rtol=1e-6, atol=0)
            np.testing.assert_allclose(r, fs.activations[i], rtol=1e-6, atol=0)

    @pytest.mark.parametrize("variant,prefix", [("full", "shape_decoder{i}"),
                                                ("model_ensemble",
                                                 "member{i}.shape_decoder0")])
    def test_shape_banks_listed_once_in_order(self, variant, prefix, tmp_path):
        model = Forecaster(small_config(f=3, variant=variant), seed=0)
        assert [name for name, _ in model.shape_banks()] == [
            f"{prefix.format(i=i)}.bank{j}.weight" for i in range(3) for j in range(2)]
        save_shape_banks(model, tmp_path)
        load_shape_banks(model, tmp_path)

    @pytest.mark.parametrize("variant", ["full", "model_ensemble"])
    @pytest.mark.parametrize("index", [-1, 3])
    def test_decoder_index_outside_the_futures_is_rejected(self, variant, index):
        cfg = small_config(f=3, variant=variant)
        model = Forecaster(cfg, seed=0)
        message = rf"decoder_index {index} is outside \[0, 3\)"
        with pytest.raises(ValueError, match=message):
            shape_decoder_forward(model, np.zeros(cfg.channels), index)
        with pytest.raises(ValueError, match=message):
            scale_forward(model, random_window(cfg), index)

    def test_forward_op_count_does_not_grow_with_f(self, monkeypatch):
        # a batch of two windows runs the ops, not a serving plan
        calls = spy_on(monkeypatch, ("softmax", "stacked_conv"))
        counts = []
        for f in (3, 12):
            calls.clear()
            cfg = small_config(f=f)
            Forecaster(cfg, seed=0).predict_batch(
                np.stack([random_window(cfg, 0), random_window(cfg, 1)]))
            counts.append(dict(calls))
        assert counts[0] == counts[1] == {"softmax": 1, "stacked_conv": 2}

    def test_served_plan_step_count_does_not_grow_with_f(self, monkeypatch):
        kernels = ("_encoder_block_kernel", "_stacked_conv_kernel", "_softmax_kernel",
                   "_stacked_matmul_kernel")
        calls = spy_on(monkeypatch, (*kernels, "encoder_block", "stacked_conv",
                                     "softmax", "stacked_matmul"))
        counts = []
        for f in (3, 12):
            cfg = small_config(f=f)
            model = Forecaster(cfg, seed=0)
            model.predict_futures(random_window(cfg, 0))  # captures by running the ops
            calls.clear()
            model.predict_futures(random_window(cfg, 1))
            counts.append(dict(calls))
        blocks = small_config().encoder_blocks
        assert counts[0] == counts[1] == dict(zip(kernels, (2 * blocks, 2, 1, 1)))


def _bits(t: Tensor | None) -> np.ndarray | None:
    """A tensor's data as integers of its width, so equality is bit equality."""
    return None if t is None else t.data.view(f"i{t.data.itemsize}")


class TestServingPlan:
    """A no-grad forward pass of one window runs the model's serving plan."""

    @staticmethod
    def _assert_served_is_op_path(model, window):
        x = check_windows(window, model.config.n_p, model.config.d, model.dtype)
        with no_grad():
            served = model.forward_tensors(window)
            reference = model._forward(Tensor(x))
        assert len(model._plans) == 1
        for name, a, b in zip(served._fields, served, reference):
            assert (a is None) == (b is None), name
            if a is not None:
                assert a.dtype == b.dtype and a.shape == b.shape, name
                assert np.array_equal(_bits(a), _bits(b)), name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("f", [1, 3, 12])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_served_window_is_the_op_path(self, variant, f, dtype, tmp_path):
        cfg = small_config(variant=variant, f=f, n_h=16)
        model = Forecaster(cfg, seed=f, dtype=dtype)
        rng = np.random.default_rng(f)
        window = random_window(cfg, f)
        self._assert_served_is_op_path(model, window)  # untrained
        state = AdamState.init(model.parameters())
        for _ in range(3):
            x = Tensor(rng.standard_normal((4, cfg.n_p, cfg.d)).astype(dtype))
            truth = rng.standard_normal((4, cfg.d, cfg.n_h)).astype(dtype)
            _oracle_batch_loss(model._forward(x), truth, 1.0, 0)[0].backward()
            state = adam_step(model.parameters(), state)
        self._assert_served_is_op_path(model, window)
        stored = model.parameters()
        stored[-1].data += 0.25  # a decoder parameter, in place
        self._assert_served_is_op_path(model, window)
        stored[0].data = stored[0].data * 1.5  # an encoder weight, rebound
        self._assert_served_is_op_path(model, window)
        if variant != "tconv_decoder":  # the one variant without banks
            save_shape_banks(Forecaster(cfg, seed=f + 1), tmp_path)  # float32 banks
            load_shape_banks(model, tmp_path)
            self._assert_served_is_op_path(model, window)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_served_windows_do_not_alias(self, variant, dtype):
        cfg = small_config(variant=variant, n_h=16)
        model = Forecaster(cfg, seed=0, dtype=dtype)

        def serve(window):
            future_set = model.predict_futures(window)
            with no_grad():
                fwd = model.forward_tensors(window)
            return [a for a in (*vars(future_set).values(), *(t and t.data for t in fwd))
                    if a is not None]

        first = serve(random_window(cfg, 1))
        kept = [a.copy() for a in first]
        second = serve(random_window(cfg, 2))
        assert not np.array_equal(first[0], second[0])
        assert all(np.array_equal(a, b) for a, b in zip(first, kept))

    def test_two_threads_serve_one_model(self):
        cfg = small_config(f=3)
        model = Forecaster(cfg, seed=0)
        windows = [random_window(cfg, seed) for seed in range(200)]
        expected = [model.predict_futures(w) for w in windows]
        served = [[], []]
        start = threading.Barrier(2, timeout=30)

        def serve(out):
            start.wait()
            out.extend(model.predict_futures(w) for w in windows)

        threads = [threading.Thread(target=serve, args=(out,)) for out in served]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for out in served:
            assert len(out) == len(windows)
            for got, want in zip(out, expected):
                for name, a in vars(got).items():
                    assert np.array_equal(a, getattr(want, name)), name

    def test_a_served_model_is_freed_with_its_last_reference(self):
        cfg = small_config()
        enabled = gc.isenabled()
        gc.disable()
        try:
            model = Forecaster(cfg, seed=0)
            model.predict_futures(random_window(cfg))
            assert model._plans
            freed = weakref.ref(model)
            del model
            assert freed() is None
        finally:
            if enabled:
                gc.enable()


def window_view(series: np.ndarray, n_p: int, step: int, batch: int) -> np.ndarray:
    """``batch`` windows of ``n_p`` rows of ``series``, window ``i`` at row
    ``i * step``, as a view; step 0 broadcasts the first window."""
    if step == 0:
        return np.broadcast_to(series[:n_p], (batch, n_p, series.shape[1]))
    windows = np.lib.stride_tricks.sliding_window_view(series, n_p, axis=0)
    return windows[::step][:batch].swapaxes(1, 2)


class TestUnionEncoder:
    """A no-grad pass over windows that overlap in one series runs the
    encoders' max-pool blocks on the windows' union."""

    FIELDS = ("futures", "shape_preds", "scale_mul", "scale_add", "activations")

    @settings(max_examples=150)
    @given(variant=st.sampled_from(VARIANTS), dtype=st.sampled_from([np.float32, np.float64]),
           kernel=st.sampled_from([1, 3, 5]), n_p=st.integers(2, 80), d=st.integers(1, 3),
           fortran=st.booleans(), cast=st.booleans(), seed=st.integers(0, 2 ** 16),
           data=st.data())
    def test_a_window_view_predicts_its_contiguous_copy(self, variant, dtype, kernel, n_p,
                                                        d, fortran, cast, seed, data):
        step = data.draw(st.integers(0, n_p + 1), label="step")
        batch = data.draw(st.integers(0, 70), label="batch")
        cfg = ModelConfig(n_p=n_p, n_h=16 if variant == "tconv_decoder" else 4, d=d,
                          f=1 + seed % 3, n_s=3, channels=4, kernel=kernel, variant=variant)
        model = Forecaster(cfg, seed=seed, dtype=dtype)
        rng = np.random.default_rng(seed)
        series = rng.standard_normal((max(batch - 1, 0) * step + n_p, d)) * 3
        series = (np.asfortranarray if fortran else np.ascontiguousarray)(
            series, dtype=np.float64 if cast else dtype)
        view = window_view(series, n_p, step, batch)
        gemm_rows = []
        block_kernel = ops._union_block_kernel

        def spy(values, weight, bias, block):
            gemm_rows.append(len(block.cols))
            return block_kernel(values, weight, bias, block)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ops, "_union_block_kernel", spy)
            got = model.predict_batch(view)
            union = bool(gemm_rows)
            expected = model.predict_batch(np.ascontiguousarray(view))
        assert union == (batch >= 2 and step < n_p and cfg.encoder_blocks >= 2)
        towers = {id(e) for m in model.members for e in (m.shape_encoder, m.scale_encoder)}
        assert len(gemm_rows) == (len(towers) * (cfg.encoder_blocks - 1) if union else 0)
        assert min(gemm_rows, default=2) >= 2  # never a one-row GEMM
        assert len(got) == len(expected) == batch
        for a, b in zip(got, expected):
            for name in self.FIELDS:
                u, v = getattr(a, name), getattr(b, name)
                assert (u is None) == (v is None) and (u is None or u.tobytes() == v.tobytes()), name
        if batch:
            i = data.draw(st.integers(0, batch - 1), label="window")
            single = model.predict_futures(view[i])
            # a batch of one multiplies one-row GEMMs, which round differently
            tol = 4 * np.finfo(dtype).eps
            for name in self.FIELDS:
                u, v = getattr(single, name), getattr(got[i], name)
                if u is not None:
                    assert np.all(np.abs(u - v) <= tol * np.maximum(np.abs(v), 1)), name

    def test_every_union_gemm_has_two_rows_or_more(self):
        plan = ops._union_plan.__wrapped__  # not the cache: these plans are used once
        for kernel in (1, 3, 5):
            for n_p in range(4, 21):
                blocks = ModelConfig(n_p=n_p).encoder_blocks - 1
                for batch in (2, 3):
                    for step in range(n_p):
                        for block in plan(batch, step, n_p, kernel, blocks).blocks:
                            assert len(block.cols) >= 2, (kernel, n_p, batch, step)

    def test_the_plan_computes_each_shared_row_once(self):
        # the reference encoder's rolling evaluation: 28 windows 24 hours apart
        cfg = ModelConfig()
        plan = ops._union_plan(28, cfg.n_h, cfg.n_p, cfg.kernel, cfg.encoder_blocks - 1)
        assert plan.rows == 27 * 24 + 168
        # 4704, 2352, 1176, 560, 280 and 112 conv rows per window pass: the
        # union computes 5.4, 4.6, 3.8, 3.1 and 1.4 times fewer in blocks 0-4
        assert [len(block.cols) for block in plan.blocks] == [870, 516, 312, 182, 202, 112]
        assert plan.last.shape == (28, cfg.n_p >> len(plan.blocks))
        # the last block reads every distinct pooled output of the one before
        assert np.array_equal(np.unique(plan.last), np.arange(len(plan.blocks[-1].left)))

    def test_a_graph_pass_does_not_take_the_union(self, monkeypatch):
        calls = spy_on(monkeypatch, ("_union_plan",))
        cfg = small_config()
        model = Forecaster(cfg, seed=0)
        series = np.random.default_rng(0).standard_normal((cfg.n_p + 8, cfg.d))
        view = window_view(series, cfg.n_p, 2, 5)
        fwd = model.forward_tensors(view)
        assert fwd.shape_preds.requires_grad and not calls
        with no_grad():
            model.forward_tensors(view)
        assert calls["_union_plan"] == 2  # once per encoder tower


class TestParameterTable:
    @pytest.mark.parametrize("variant", [*VARIANTS, "expert"])
    def test_every_stored_scalar_has_one_checkpoint_name(self, variant, tmp_path):
        if variant == "expert":
            model = ExpertClassifier(small_config(f=3), seed=0)
        else:
            model = Forecaster(small_config(f=3, n_h=16, variant=variant), seed=0)
        stored, named = model.parameters(), model.named_tensors()
        for name, view in named:
            owners = [t for t in stored if np.shares_memory(view.data, t.data)]
            assert len(owners) == 1, name
        assert sum(view.size for _, view in named) == sum(t.size for t in stored)
        # one write through every view reaches every stored scalar once
        for t in stored:
            t.data[...] = 0
        for _, view in named:
            view.data += 1
        assert all((t.data == 1).all() for t in stored)
        save(model, tmp_path)
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert [name for name, _ in named] == [p["name"] for p in manifest["parameters"]]
