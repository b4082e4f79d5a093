"""Training loop behavior: reproducibility, metric analytics, divergence
reporting, and consistency of the 16-bit quantized path with the pure
full-precision trainer."""

from dataclasses import replace

import numpy as np
import pytest

import xbarlstm.network
import xbarlstm.training
from xbarlstm.crossbar import CrossbarConfig, NoiseConfig
from xbarlstm.datasets import SequenceDataset
from xbarlstm.network import LSTMNetwork
from xbarlstm.quantizer import QuantSpec
from xbarlstm.seeding import derive_rng
from xbarlstm.tasks import build_network, build_task
from xbarlstm.training import (
    TrainConfig,
    TrainingDiverged,
    evaluate,
    inactive_level,
    make_batches,
    make_packs,
    perplexity_from_nll,
    softmax_xent,
    train,
)

from trained_cells import mean_metric


def tiny_lm_dataset(n_seq=24, vocab=6, length=5, seed=3, lengths=None):
    """`n_seq` random sequences of `length` tokens, or one per entry of
    `lengths`."""
    rng = np.random.default_rng(seed)
    seqs = []
    for n in lengths if lengths is not None else [length] * n_seq:
        ids = rng.integers(0, vocab, size=n + 1)
        seqs.append((ids[:-1], ids[1:]))
    return SequenceDataset(kind="char_lm", input_dim=vocab, num_classes=vocab,
                           sequences=seqs)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(optimizer="rmsprop")
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-0.1)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(bitwidths=(4, 4))
        with pytest.raises(ValueError):
            TrainConfig(bitwidths=(0, 4, 4))
        with pytest.raises(ValueError):
            TrainConfig(input_drive="bipolar")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
    def test_weight_range_finite_and_positive(self, value):
        with pytest.raises(ValueError, match="weight_range"):
            TrainConfig(weight_range=value)

    @pytest.mark.parametrize("value", [float("nan"), -1.0])
    def test_grad_clip_nan_or_negative_rejected(self, value):
        with pytest.raises(ValueError, match="grad_clip"):
            TrainConfig(grad_clip=value)

    def test_grad_clip_zero_turns_clipping_off(self):
        assert TrainConfig(grad_clip=0.0).grad_clip == 0.0

    def test_zero_learning_rate_allowed(self):
        TrainConfig(learning_rate=0.0)

    @pytest.mark.parametrize("override", [1.0, (1.0,), (1.0, 1.5, 2.0, 2.5)])
    def test_adc_range_override_one_value_or_four(self, override):
        TrainConfig(adc_range_override=override)

    @pytest.mark.parametrize("override", [
        (1.0, 2.0), (1.0, 1.0, 1.0), ((1.0, 1.0), (1.0, 1.0)), (), 0.0, -1.0,
        float("nan"), float("inf"), 1e308, 1e-320, (1.0, 1.0, 1.0, float("nan"))])
    def test_adc_range_override_rejected(self, override):
        with pytest.raises(ValueError, match="adc_range_override"):
            TrainConfig(adc_range_override=override)


class TestMetrics:
    def test_uniform_predictor_perplexity_is_vocab_size(self):
        ds = tiny_lm_dataset(vocab=6)
        model = LSTMNetwork(6, 4, 6, seed=1)
        model.w_head[:] = 0.0  # uniform softmax regardless of the state
        rep = evaluate(model, ds, TrainConfig(batch_size=8))
        assert rep.perplexity == pytest.approx(6.0, rel=1e-9)

    def test_perfect_predictor_perplexity_near_one(self):
        # single repeated symbol; a huge bias toward it via the head on a
        # saturated state is not constructible here, so check the analytic
        # limit through the loss instead
        logits = np.zeros((3, 1, 4))
        logits[:, 0, 2] = 50.0
        targets = np.full((3, 1), 2, dtype=np.int64)
        mask = np.ones((3, 1))
        nll, count, correct, _ = softmax_xent(logits, targets, mask)
        assert np.exp(nll / count) == pytest.approx(1.0, abs=1e-12)
        assert correct == 3

    def test_empty_dataset_rejected(self):
        ds = tiny_lm_dataset()
        ds.sequences = []
        with pytest.raises(ValueError):
            evaluate(LSTMNetwork(6, 4, 6, seed=1), ds, TrainConfig())


class TestTrainLoop:
    def test_zero_lr_keeps_parameters_bit_identical(self):
        ds = tiny_lm_dataset()
        model = LSTMNetwork(6, 4, 6, seed=5)
        w_before = model.w.copy()
        head_before = model.w_head.copy()
        cfg = TrainConfig(learning_rate=0.0, epochs=1, batch_size=8)
        train(model, ds, cfg)
        assert np.array_equal(model.w, w_before)
        assert np.array_equal(model.w_head, head_before)

    def test_loss_decreases_first_epochs(self):
        ds = tiny_lm_dataset(n_seq=48, seed=9)
        model = LSTMNetwork(6, 8, 6, seed=5)
        cfg = TrainConfig(optimizer="adam", learning_rate=0.02, epochs=3, batch_size=8)
        _, rep = train(model, ds, cfg)
        losses = [v for _, v in rep.train_loss_curve]
        assert losses[1] < losses[0]

    def test_seed_determinism_bit_identical_reports(self):
        reports = []
        for _ in range(2):
            bundle = build_task("word_lm", seed=11)
            cfg = replace(bundle.defaults, epochs=2, bitwidths=(4, 4, 4), seed=11)
            model = build_network(bundle, cfg)
            _, rep = train(model, bundle.train, cfg, valid_dataset=bundle.valid)
            reports.append(rep)
        assert reports[0].as_dict() == reports[1].as_dict()
        assert reports[0].perplexity == reports[1].perplexity  # exact, not approx

    def test_divergence_reports_step_index(self):
        ds = tiny_lm_dataset(n_seq=32, seed=13)
        model = LSTMNetwork(6, 4, 6, seed=5)
        model.w[:] = np.inf  # inf * 0 in the first VMM poisons the loss
        cfg = TrainConfig(learning_rate=0.5, epochs=1, batch_size=8)
        with np.errstate(invalid="ignore"):
            with pytest.raises(TrainingDiverged) as err:
                train(model, ds, cfg)
        assert err.value.step == 0

    def test_evaluation_overflow_is_divergence(self):
        ds = tiny_lm_dataset(n_seq=16)
        model = LSTMNetwork(6, 4, 6, seed=2)
        model.w_head[:] = 0.0
        model.w_head[:, 0] = 1e6  # mean NLL finite (~3e4 nats), its exp overflows
        cfg = TrainConfig(epochs=1, batch_size=8)
        with pytest.raises(TrainingDiverged) as err:
            evaluate(model, ds, cfg)
        assert err.value.step is None

    def test_sgd_and_adam_both_run(self):
        ds = tiny_lm_dataset(n_seq=16)
        for opt, lr in [("sgd", 0.5), ("adam", 0.01)]:
            model = LSTMNetwork(6, 4, 6, seed=2)
            cfg = TrainConfig(optimizer=opt, learning_rate=lr, epochs=1, batch_size=8)
            _, rep = train(model, ds, cfg)
            assert np.isfinite(rep.perplexity)


class TestSTEConsistency:
    def test_16bit_matches_fp_trainer(self):
        # noise off, 16-bit grids: trajectories match the pure FP trainer
        # within 1e-3 relative loss at every epoch, and the final metric
        # lands within 1%
        curves = []
        finals = []
        for bits in (None, (16, 16, 16)):
            bundle = build_task("word_lm", seed=21)
            cfg = replace(bundle.defaults, epochs=4, bitwidths=bits, seed=21)
            model = build_network(bundle, cfg)
            _, rep = train(model, bundle.train, cfg, valid_dataset=bundle.valid)
            curves.append(rep.train_loss_curve)
            finals.append(rep.metric)
        for (e1, fp_loss), (e2, q_loss) in zip(*curves):
            assert e1 == e2
            assert abs(q_loss - fp_loss) / abs(fp_loss) < 1e-3
        assert abs(finals[1] / finals[0] - 1) < 0.01


class TestBitwidthMonotonicity:
    """Spec invariant: 3-seed mean final metric at 4/4 bits is at least as
    good as at 1/1 bits on every bundled task (char is covered by the
    acceptance ratio criterion)."""

    @pytest.mark.parametrize("task", ["har", "word_lm"])
    def test_4bit_at_least_as_good_as_1bit(self, task):
        means = {bits: mean_metric(task, bits) for bits in [(4, 4, 4), (1, 1, 1)]}
        # accuracy (classification) rises with quality, perplexity falls
        if build_task(task, seed=1).valid.kind == "classification":
            assert means[(4, 4, 4)] >= means[(1, 1, 1)]
        else:
            assert means[(4, 4, 4)] <= means[(1, 1, 1)]


class TestDegenerateVocab:
    def test_single_symbol_vocab_gives_perplexity_one(self):
        # vocab_cap = 1: every token is unknown; any model's softmax over a
        # single symbol assigns probability one
        from xbarlstm.datasets import bundled_corpus_path, load_word_corpus

        ds = load_word_corpus(bundled_corpus_path("sentences.txt"), vocab_cap=1)
        model = LSTMNetwork(1, 4, 1, seed=3)
        rep = evaluate(model, ds, TrainConfig(batch_size=16))
        assert rep.perplexity == 1.0
        assert rep.accuracy == 1.0


class TestBatching:
    def test_masked_positions_carry_no_loss(self):
        ds = tiny_lm_dataset(n_seq=5, length=4)
        # mix lengths so padding occurs
        ids = np.array([1, 2, 3], dtype=np.int64)
        ds.sequences.append((ids[:-1], ids[1:]))
        batches = list(make_batches(ds, batch_size=6, bptt_length=16,
                                    order=np.arange(len(ds.sequences))))
        x, targets, mask = batches[0]
        assert mask.shape == x.shape[:2]
        assert mask.sum() == sum(len(t) for _, t in ds.sequences)

    def test_long_sequences_split_at_bptt_length(self):
        ids = np.arange(23, dtype=np.int64) % 6
        ds = SequenceDataset(kind="char_lm", input_dim=6, num_classes=6,
                             sequences=[(ids[:-1], ids[1:])])
        batches = make_batches(ds, batch_size=4, bptt_length=8, order=np.array([0]))
        total = sum(int(m.sum()) for _, _, m in batches)
        assert total == 22

    def test_inactive_level_schemes(self):
        dac4, dac1 = QuantSpec.symmetric(4, 1.0), QuantSpec.symmetric(1, 1.0)
        assert inactive_level("matched", None) == 0.0
        assert inactive_level("matched", dac4) == pytest.approx(-(2 / 15) / 2)
        assert inactive_level("matched", dac1) == -1.0
        assert inactive_level("antipodal", dac4) == -1.0

    def test_packs_sort_chunks_longest_first_stably(self):
        # at bptt_length 16 the 20-token sequence splits into chunks of 16 and 4
        ds = tiny_lm_dataset(lengths=[3, 9, 1, 20, 9, 5])
        packs = list(make_packs(ds, batch_size=4, bptt_length=16))
        assert [list(p[3]) for p in packs] == [[16, 9, 9, 5], [4, 3, 1]]
        # ties keep dataset order: the first 9-token sequence comes first
        first = packs[0]
        assert np.array_equal(first[1][:9, 1], ds.sequences[1][1])
        assert np.array_equal(first[1][:9, 2], ds.sequences[4][1])
        for x, targets, mask, lengths in packs:
            assert x.shape[0] == lengths[0]
            assert np.array_equal(mask.sum(axis=0), lengths)

    def test_classification_target_at_final_step(self):
        rng = np.random.default_rng(3)
        seqs = [(rng.normal(size=(5, 3)), 2), (rng.normal(size=(7, 3)), 1)]
        ds = SequenceDataset(kind="classification", input_dim=3, num_classes=4,
                             sequences=seqs)
        (x, targets, mask), = make_batches(ds, 4, 32, np.arange(2))
        assert x.shape == (7, 2, 3)
        assert mask[4, 0] == 1.0 and mask[6, 1] == 1.0
        assert mask.sum() == 2
        assert targets[4, 0] == 2 and targets[6, 1] == 1


class TestAdam:
    def test_in_place_matches_closed_form_bit_for_bit(self):
        from xbarlstm.training import _Adam

        rng = np.random.default_rng(71)
        cfg = TrainConfig(optimizer="adam", learning_rate=0.01, grad_clip=5.0)
        params = {"w": rng.normal(size=(7, 12)), "w_head": rng.normal(size=(3, 5))}
        ref = {k: p.copy() for k, p in params.items()}
        m = {k: 0.0 for k in params}
        v = {k: 0.0 for k in params}
        b1, b2, eps, lr = 0.9, 0.999, 1e-8, cfg.learning_rate
        opt = _Adam(cfg)
        for t in range(1, 6):
            # the third step's gradients exceed grad_clip, so clipping runs too
            scale = 10.0 if t == 3 else 0.1
            grads = {k: rng.normal(size=p.shape) * scale for k, p in params.items()}
            total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
            clipped = ({k: g * (cfg.grad_clip / total) for k, g in grads.items()}
                       if total > cfg.grad_clip else grads)
            opt.step(params, grads)
            for k, p in ref.items():
                g = clipped[k]
                m[k] = b1 * m[k] + (1 - b1) * g
                v[k] = b2 * v[k] + (1 - b2) * g * g
                p -= lr * (m[k] / (1 - b1**t)) / (np.sqrt(v[k] / (1 - b2**t)) + eps)
            for k in params:
                assert np.array_equal(params[k], ref[k])
                assert np.array_equal(opt.m[k], m[k])
                assert np.array_equal(opt.v[k], v[k])


class TestEvaluationSnap:
    """evaluate() programs the array once per split and every batch reads
    it; results equal a loop of per-batch padded forwards, each of
    which snaps the latent weights itself."""

    CFG = TrainConfig(batch_size=8, seed=4)
    NOISY = NoiseConfig(weight_noise_beta=0.2, adc_noise_enabled=True)

    def _model(self, quantized=True, noise=None):
        cfg = (CrossbarConfig.for_lstm(6, 4, weight_bits=4, adc_bits=4, dac_bits=4)
               if quantized else None)
        model = LSTMNetwork(6, 4, 6, seed=8, crossbar=cfg, noise=noise)
        if quantized:
            model.freeze_adc_ranges(override=(1.0, 1.5, 2.0, 2.5))
        return model

    def _reference(self, model, ds, epoch_tag=0):
        """(logits per batch, perplexity, accuracy) from per-batch forwards."""
        mode = "fp" if model.crossbar is None else "quantized"
        rng_w = derive_rng(self.CFG.seed, f"eval-noise-w-{epoch_tag}")
        rng_a = derive_rng(self.CFG.seed, f"eval-noise-a-{epoch_tag}")
        inactive = inactive_level(self.CFG.input_drive, None if model.crossbar is None
                                  else model.crossbar.dac_spec)
        batches = list(make_batches(ds, self.CFG.batch_size, self.CFG.bptt_length,
                                    np.arange(len(ds)), inactive=inactive))
        assert len(batches) > 1
        logits_all, nll, count, correct = [], 0.0, 0.0, 0.0
        for x, targets, mask in batches:
            logits, _, _ = model.forward_sequence(x, mode=mode, rng_weight_noise=rng_w,
                                                  rng_adc_noise=rng_a)
            s, c, corr, _ = softmax_xent(logits, targets, mask)
            logits_all.append(logits)
            nll, count, correct = nll + s, count + c, correct + corr
        return logits_all, perplexity_from_nll(nll, count), correct / count

    def _evaluate(self, model, ds, monkeypatch):
        """evaluate() plus the logits of each of its batches."""
        seen = []
        real = xbarlstm.training.softmax_xent

        def spy(logits, targets, mask):
            seen.append(logits.copy())
            return real(logits, targets, mask)

        monkeypatch.setattr(xbarlstm.training, "softmax_xent", spy)
        return evaluate(model, ds, self.CFG), seen

    @pytest.mark.parametrize("quantized, snaps", [(True, 1), (False, 0)],
                             ids=["quantized", "fp"])
    def test_weights_snapped_once_per_split(self, monkeypatch, quantized, snaps):
        model = self._model(quantized)
        shapes = []
        real = xbarlstm.network.quantize

        def counting(x, spec):
            shapes.append(np.shape(x))
            return real(x, spec)

        # the network is the only batched-path code that snaps the weights
        monkeypatch.setattr(xbarlstm.network, "quantize", counting)
        evaluate(model, tiny_lm_dataset(), self.CFG)
        assert shapes.count(model.w.shape) == snaps

    @pytest.mark.parametrize("noisy", [False, True], ids=["noise-off", "beta-0.2-adc"])
    def test_equals_per_batch_forwards(self, monkeypatch, noisy):
        model = self._model(noise=self.NOISY if noisy else None)
        ds = tiny_lm_dataset()
        rep, logits = self._evaluate(model, ds, monkeypatch)
        ref_logits, ppl, acc = self._reference(model, ds)
        assert len(logits) == len(ref_logits)
        for got, want in zip(logits, ref_logits):
            assert np.array_equal(got, want)
        assert rep.perplexity == ppl
        assert rep.accuracy == acc

    @pytest.mark.parametrize("quantized", [True, False], ids=["quantized", "fp"])
    def test_varied_lengths_match_per_batch_forwards_per_token(self, monkeypatch, quantized):
        # chunk lengths 1..9 in shuffled order: the packs reorder the
        # chunks and drop finished rows, so every token's logits equal the
        # dataset-order padded forward's to rounding
        model = self._model(quantized)
        lengths = [int(n) for n in np.random.default_rng(5).permutation(np.arange(1, 10))]
        ds = tiny_lm_dataset(lengths=lengths * 2)
        rep, packs = self._evaluate(model, ds, monkeypatch)
        ref_logits, ppl, acc = self._reference(model, ds)
        chunks = lengths * 2
        batch = self.CFG.batch_size
        order = sorted(range(len(chunks)), key=lambda j: -chunks[j])
        assert len(packs) == -(-len(chunks) // batch)
        for pos, j in enumerate(order):
            got = packs[pos // batch][:chunks[j], pos % batch]
            want = ref_logits[j // batch][:chunks[j], j % batch]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
        assert rep.perplexity == pytest.approx(ppl, rel=1e-12)
        assert rep.accuracy == acc

    def test_har_equal_lengths_bit_identical_to_per_batch_forwards(self, monkeypatch):
        bundle = build_task("har", seed=2)
        cfg = CrossbarConfig.for_lstm(bundle.input_dim, 8, weight_bits=4, adc_bits=4,
                                      dac_bits=4)
        model = LSTMNetwork(bundle.input_dim, 8, bundle.output_size, seed=2, crossbar=cfg,
                            noise=self.NOISY)
        model.freeze_adc_ranges(override=(2.0, 2.0, 2.0, 2.0))
        rep, logits = self._evaluate(model, bundle.valid, monkeypatch)
        ref_logits, _, acc = self._reference(model, bundle.valid)
        assert len(logits) == len(ref_logits)
        for got, want in zip(logits, ref_logits):
            assert np.array_equal(got, want)
        assert rep.accuracy == acc

    @pytest.mark.parametrize("quantized", [True, False], ids=["quantized", "fp"])
    def test_write_to_weights_between_evaluations_is_seen(self, quantized):
        model = self._model(quantized)
        ds = tiny_lm_dataset()
        first = evaluate(model, ds, self.CFG)
        model.w += 0.3  # in place: a programmed array kept across calls would go stale
        second = evaluate(model, ds, self.CFG)
        assert second.perplexity != first.perplexity
        _, ppl, acc = self._reference(model, ds)
        assert (second.perplexity, second.accuracy) == (ppl, acc)
