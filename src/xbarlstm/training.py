"""Quantization-aware training loop and evaluation metrics.

Latent weights stay full precision and straight-through gradients update
them.  Every training forward re-snaps them to the device grid, since
every step changes them; an evaluation split snaps them once and reads
that programmed array in each of its batches.  `train` owns the schedule
and the clipping: each epoch's learning rate is
learning_rate * lr_decay ** (epoch - 1), each step's gradients are
clipped to a global norm of grad_clip (Pascanu et al., 2013; 0 turns
clipping off), and both go to an update rule that holds nothing else
(`_sgd_step`, or `_Adam`'s moments, which runs the closed form's
operations over blocks of _Adam.BLOCK values so each block's operands
stay in cache).
When a quantized model has no frozen ADC ranges yet, the first epoch is
a calibration epoch: weights snapped to the device grid and the DAC grid
on inputs and hidden state, but ideal converters, while `train`'s own
`network.RangeCollector` collects the pre-activation magnitudes as each
forward's `on_preact`.  The per-gate ADC full-scale ranges then freeze
at the configured percentile and the remaining epochs train through the
quantized path (an explicit range override skips the calibration epoch
and quantizes from the start).  Training forwards record a cache for
the backward pass; evaluation forwards pass each row's length and so
record nothing.  Each training step's arrays (the programmed array, the
cache, the hidden states, the logits and the gradients) are new, and
none outlives its step, so the next step's forward never builds its
cache beside the last one's; the clipping scales the gradients in
place.  With a valid split, every epoch ends with an evaluation; when
that evaluation draws no noise, the last epoch's report is the final
one, since the same model, split and arithmetic give the same bytes
(only the noise streams depend on the epoch).

Training batches come in shuffled order, each padded to its longest
chunk (`make_batches`); the padded rows also feed the ADC-range
calibration.  Evaluation sorts the split's chunks longest first into
packs (`make_packs`), and each step runs only the rows whose chunk has
not ended, as cuDNN's packed sequences do.  A pack's row count follows
the array's width, not the training batch size: each step's (rows, 4n)
gate array holds at most EVAL_PACK_VALUES values.  That caps the gate
array alone: a pack's T-long arrays (inputs, hidden states, logits) grow
with T x rows, and a narrow array may take a small split in one pack.
Per token this is a padded batch's arithmetic on other rows: noise off,
results agree to rounding (BLAS may block a different product
differently, and a value that rounds across an ADC code boundary flips
that code); noise on, the draws follow the packs' rows, so they differ.

Sequences longer than bptt_length are split into independent chunks with
state reset at the boundary.  Categorical inputs drive the array at full
scale (+1) on the active channel and at the smallest representable DAC
magnitude (-step/2 on an even symmetric grid) on inactive channels, so
one-hot vectors sit exactly on every DAC grid: inactive rows contribute
almost no drive at 4 bits and the encoding degrades to antipodal +-1 at
1 bit.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field

import numpy as np

from .crossbar import NoiseConfig
from .datasets import SequenceDataset
from .network import LSTMNetwork, RangeCollector
from .quantizer import QuantSpec
from .seeding import derive_rng

__all__ = [
    "TrainConfig",
    "EvalReport",
    "TrainingDiverged",
    "train",
    "evaluate",
    "perplexity_from_nll",
]


class TrainingDiverged(RuntimeError):
    """The training loss or an evaluation metric became non-finite.

    `step` is the global step index of the failing training batch, None
    when an evaluation failed.
    """

    def __init__(self, step: int | None, what: str = "training loss"):
        where = "" if step is None else f" at step {step}"
        super().__init__(f"{what} became non-finite{where}")
        self.step = step


@dataclass(frozen=True)
class TrainConfig:
    optimizer: str = "sgd"
    learning_rate: float = 0.5
    lr_decay: float = 1.0       # multiplicative per-epoch learning-rate factor
    epochs: int = 5
    batch_size: int = 32
    bptt_length: int = 32
    seed: int = 1
    bitwidths: tuple[int, int, int] | None = None  # (weights, ADC, DAC); None = FP
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    grad_clip: float = 5.0
    weight_range: float = 1.0
    adc_range_percentile: float = 99.9
    adc_range_override: float | tuple | None = None
    hidden_size: int | None = None   # None: the task's default
    init_scale: float | None = None
    input_drive: str = "matched"  # one-hot DAC signaling: 'matched' | 'antipodal'

    def __post_init__(self):
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.input_drive not in ("matched", "antipodal"):
            raise ValueError(f"unknown input_drive {self.input_drive!r}")
        # the comparisons below also reject NaN
        if not 0 <= self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and >= 0")
        if not 0 < self.weight_range < math.inf:
            raise ValueError("weight_range must be finite and > 0")
        if not self.grad_clip >= 0:
            raise ValueError("grad_clip must be >= 0 (0 turns clipping off)")
        if not (self.init_scale is None or 0 <= self.init_scale < math.inf):
            raise ValueError("init_scale must be finite and >= 0")
        if not 0 <= self.adc_range_percentile <= 100:
            raise ValueError("adc_range_percentile must be in [0, 100]")
        if not 0 < self.lr_decay <= 1:
            raise ValueError("lr_decay must be in (0, 1]")
        if self.epochs < 1 or self.batch_size < 1 or self.bptt_length < 1:
            raise ValueError("epochs, batch_size and bptt_length must be >= 1")
        if self.hidden_size is not None and self.hidden_size < 1:
            raise ValueError("hidden_size must be >= 1")
        if self.bitwidths is not None:
            bw = tuple(int(b) for b in self.bitwidths)
            if len(bw) != 3 or any(not 1 <= b <= 16 for b in bw):
                raise ValueError(f"bitwidths must be three integers in [1, 16], got {bw}")
            object.__setattr__(self, "bitwidths", bw)
            try:  # the weight grid, which must exist in float64 (not at 1e308)
                QuantSpec.symmetric(bw[0], self.weight_range)
            except ValueError as exc:
                raise ValueError(f"weight_range {self.weight_range!r}: {exc}") from exc
        if self.adc_range_override is not None:
            ranges = np.asarray(self.adc_range_override, dtype=np.float64)
            try:
                # each range must make a grid at the finest ADC width, the
                # hardest to fit in float64; so it is also finite and > 0
                specs = [QuantSpec.symmetric(16, float(r)) for r in ranges.ravel()]
            except ValueError:
                specs = []
            if ranges.ndim > 1 or len(specs) not in (1, 4):
                raise ValueError("adc_range_override must be one value or four, each "
                                 f"finite and > 0, got {self.adc_range_override!r}")


@dataclass
class EvalReport:
    task: str
    accuracy: float
    perplexity: float
    metric_name: str            # 'perplexity' for LM tasks, 'accuracy' otherwise
    metric: float
    curve: list[tuple[int, float]] = field(default_factory=list)        # (epoch, valid metric)
    train_loss_curve: list[tuple[int, float]] = field(default_factory=list)

    def as_dict(self) -> dict:
        return asdict(self)


def perplexity_from_nll(nll_sum: float, count: int) -> float:
    """exp(mean NLL); inf when that overflows a float."""
    try:
        return float(math.exp(nll_sum / count))
    except OverflowError:
        return math.inf


# --- batching -------------------------------------------------------------------

def _chunk(seq_pair, bptt_length):
    x, y = seq_pair
    if len(x) <= bptt_length:
        return [(x, y)]
    return [(x[k:k + bptt_length], y[k:k + bptt_length])
            for k in range(0, len(x), bptt_length)]


def inactive_level(input_drive: str, dac_spec: QuantSpec | None) -> float:
    """DAC-domain drive of an inactive one-hot channel.

    'matched': the representable level of smallest magnitude on the
    symmetric DAC grid `dac_spec` (-step/2; 0 in full precision, None), so
    inactive rows barely drive the array.  'antipodal': -1, full bipolar
    signaling (the two coincide at 1 bit on a +-1 grid).
    """
    if input_drive == "antipodal":
        return -1.0
    if dac_spec is None:
        return 0.0
    return -dac_spec.step / 2


def _items(ds: SequenceDataset, order, bptt_length: int) -> list:
    """The dataset's sequences in `order`, language-model ones split into
    chunks of at most bptt_length."""
    if ds.kind == "classification":
        return [ds.sequences[k] for k in order]
    return [chunk for k in order for chunk in _chunk(ds.sequences[k], bptt_length)]


def _length(item) -> int:
    return len(item[0])


def _pad(ds: SequenceDataset, group: list, inactive: float
         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One padded batch (x (T,B,m), targets (T,B) int, mask (T,B) float) of
    `group`'s items, T the longest item's length."""
    b, t_max = len(group), max(map(_length, group))
    targets = np.zeros((t_max, b), dtype=np.int64)
    mask = np.zeros((t_max, b))
    if ds.kind == "classification":
        x = np.zeros((t_max, b, ds.input_dim))
        for j, (feat, label) in enumerate(group):
            t = feat.shape[0]
            x[:t, j, :] = feat
            targets[t - 1, j] = label
            mask[t - 1, j] = 1.0
    else:
        # the (step, row) of every token of every item, item by item
        lengths = np.array([_length(item) for item in group])
        rows = np.repeat(np.arange(b), lengths)
        steps = np.arange(rows.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        x = np.full((t_max, b, ds.input_dim), inactive)
        x[steps, rows, np.concatenate([inp for inp, _ in group])] = 1.0
        targets[steps, rows] = np.concatenate([tgt for _, tgt in group])
        mask[steps, rows] = 1.0
    return x, targets, mask


def make_batches(ds: SequenceDataset, batch_size: int, bptt_length: int,
                 order: np.ndarray, inactive: float = 0.0,
                 ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Pad-and-mask batches in the given sequence order.

    Yields (x (T,B,m), targets (T,B) int, mask (T,B) float) one batch at a
    time, built when it is asked for, so a pass over a split holds one
    batch rather than all of them.  Language-model inputs put +1 on the
    active channel and `inactive` elsewhere; classification targets are
    placed (and masked) at the final step only.
    """
    items = _items(ds, order, bptt_length)
    for start in range(0, len(items), batch_size):
        yield _pad(ds, items[start:start + batch_size], inactive)


def make_packs(ds: SequenceDataset, rows: int, bptt_length: int,
               inactive: float = 0.0,
               ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The whole split's chunks longest first, in packs of at most `rows`
    rows, for a forward that steps only the live rows.

    The sort is stable, so chunks of equal length keep dataset order (a
    split of equal lengths gives `make_batches`'s batches in dataset
    order).  Yields what `make_batches` does plus each row's length,
    non-increasing, one pack at a time.
    """
    items = sorted(_items(ds, range(len(ds)), bptt_length), key=_length, reverse=True)
    for start in range(0, len(items), rows):
        group = items[start:start + rows]
        yield *_pad(ds, group, inactive), np.array([_length(it) for it in group])


# --- loss -----------------------------------------------------------------------

def softmax_xent(logits: np.ndarray, targets: np.ndarray, mask: np.ndarray):
    """Masked mean cross-entropy over a (T,B,V) batch.

    Returns (nll_sum, token_count, correct_count, d_logits) where d_logits
    is the gradient of nll_sum / token_count.
    """
    z = logits - logits.max(axis=-1, keepdims=True)
    expz = np.exp(z)
    sumz = expz.sum(axis=-1, keepdims=True)
    t_idx, b_idx = np.arange(logits.shape[0])[:, None], np.arange(logits.shape[1])
    # log-softmax at the targets only
    picked = z[t_idx, b_idx, targets] - np.log(sumz[..., 0])
    count = float(mask.sum())
    if count == 0:
        raise ValueError("batch mask selects no tokens")
    nll_sum = float(-(picked * mask).sum())
    correct = float(((logits.argmax(axis=-1) == targets) * mask).sum())

    d = np.divide(expz, sumz, out=expz)
    d[t_idx, b_idx, targets] -= 1.0
    d *= (mask / count)[..., None]
    return nll_sum, count, correct, d


# --- optimizers -------------------------------------------------------------------

def _clip_global(grads: dict[str, np.ndarray], max_norm: float):
    """Scales the gradients in place to a global norm of at most max_norm
    (0: no clipping) and returns them."""
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return grads


def _sgd_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray], lr: float):
    """p -= lr * g, in place."""
    for k, p in params.items():
        p -= lr * grads[k]


class _Adam:
    """Adam's moments (Kingma & Ba, 2015); `train` hands each step the
    clipped gradients and the epoch's learning rate."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
    BLOCK = 16384  # values per pass of the update (128 KiB per float64 operand)

    def __init__(self):
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        # working buffers for one block only, shared by every parameter and
        # step: parameter-sized ones would add two arrays to the peak memory
        self._work = np.empty((2, self.BLOCK))

    def step(self, params, grads, lr: float):
        """p -= lr * mhat / (sqrt(vhat) + eps), with the moments updated in
        place and every operation in the closed form's order.  Each
        operation runs over BLOCK values of the flattened arrays at a time,
        so a block's operands stay in cache between operations; every value
        sees the same operations either way.  Parameters must be
        C-contiguous, as the update writes through flat views of them."""
        b1, b2, block = self.BETA1, self.BETA2, self.BLOCK
        self.t += 1
        c1, c2 = 1 - b1**self.t, 1 - b2**self.t
        for k, p in params.items():
            if not p.flags.c_contiguous:
                raise ValueError(f"parameter {k!r} is not C-contiguous")
            if k not in self.m:
                self.m[k], self.v[k] = np.zeros_like(p), np.zeros_like(p)
            p_all, g_all = p.reshape(-1), np.ravel(grads[k])
            m_all, v_all = self.m[k].reshape(-1), self.v[k].reshape(-1)
            step_all, denom_all = self._work
            for lo in range(0, p.size, block):
                hi = lo + block
                w, g, m, v = p_all[lo:hi], g_all[lo:hi], m_all[lo:hi], v_all[lo:hi]
                step, denom = step_all[:w.size], denom_all[:w.size]
                m *= b1
                m += np.multiply(g, 1 - b1, out=step)
                v *= b2
                np.multiply(g, 1 - b2, out=step)
                step *= g
                v += step
                np.divide(m, c1, out=step)                        # mhat
                np.divide(v, c2, out=denom)                       # vhat
                np.sqrt(denom, out=denom)
                denom += self.EPS
                step *= lr
                step /= denom
                w -= step


# --- train / evaluate ---------------------------------------------------------------

# Values in one step's (rows, 4n) float64 gate array of an evaluation pack
# (256 KiB): a pack holds EVAL_PACK_VALUES // 4n rows, at least one.  This
# caps that one array, not the pack's memory: x, the hidden states and the
# logits span all T steps, so they grow with T x rows.
EVAL_PACK_VALUES = 32768


def evaluate(model: LSTMNetwork, dataset: SequenceDataset, cfg: TrainConfig,
             epoch_tag: int = 0, task_name: str | None = None) -> EvalReport:
    """Metrics over a dataset: perplexity = exp(mean token NLL), accuracy =
    fraction of argmax-correct predictions.  The quantized path (with its
    configured noise) is used whenever the model has one.  The array is
    programmed once for the split, which runs in length-sorted packs
    (`make_packs`) whose finished rows drop out of the step loop.  A pack
    holds EVAL_PACK_VALUES // (4 * hidden_size) rows (at least one), so
    `cfg.batch_size` does not enter; that caps one step's gate array, while
    the pack's (T, rows, ...) arrays grow with its rows.  Raises
    TrainingDiverged if the NLL or the perplexity is not finite, and the
    quantized forward's RuntimeError if the ADC bank is not frozen."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    mode = "quantized" if model.crossbar is not None else "fp"
    rng_w = derive_rng(cfg.seed, f"eval-noise-w-{epoch_tag}")
    rng_a = derive_rng(cfg.seed, f"eval-noise-a-{epoch_tag}")
    inactive = inactive_level(cfg.input_drive, model.crossbar.dac_spec
                              if model.crossbar is not None else None)
    programmed = model.programmed_weights()
    rows = max(1, EVAL_PACK_VALUES // (4 * model.hidden_size))
    nll_sum = count = correct = 0.0
    for x, targets, mask, lengths in make_packs(dataset, rows, cfg.bptt_length,
                                                inactive=inactive):
        logits, _, _ = model.forward_sequence(x, mode=mode, rng_weight_noise=rng_w,
                                              rng_adc_noise=rng_a, programmed=programmed,
                                              lengths=lengths)
        s, c, corr, _ = softmax_xent(logits, targets, mask)
        nll_sum += s
        count += c
        correct += corr
    ppl = perplexity_from_nll(nll_sum, count)
    if not math.isfinite(ppl):
        raise TrainingDiverged(None, "evaluation perplexity")
    acc = correct / count
    metric_name = "perplexity" if dataset.kind.endswith("_lm") else "accuracy"
    return EvalReport(
        task=task_name or dataset.kind, accuracy=acc, perplexity=ppl,
        metric_name=metric_name, metric=ppl if metric_name == "perplexity" else acc,
    )


def _step(model: LSTMNetwork, x: np.ndarray, targets: np.ndarray, mask: np.ndarray,
          update, lr: float, grad_clip: float, **forward) -> tuple[float, float]:
    """One training step on a batch: the batch's (nll_sum, token count),
    with no update when the loss is not finite.  Its arrays die when it
    returns, so none of them is alive while the next step's forward
    builds its cache."""
    logits, h_seq, cache = model.forward_sequence(x, **forward)
    s, c, _, d_logits = softmax_xent(logits, targets, mask)
    if math.isfinite(s):
        grads = model.backward(cache, h_seq, d_logits)
        update(model.parameters(), _clip_global(grads, grad_clip), lr)
    return s, c


def train(model: LSTMNetwork, dataset: SequenceDataset, cfg: TrainConfig,
          valid_dataset: SequenceDataset | None = None,
          task_name: str | None = None) -> tuple[LSTMNetwork, EvalReport]:
    """Optimize the latent weights; returns the model and the final
    EvalReport, taken on the valid split when one is given (the last
    epoch's, unless the evaluation draws noise; then a fresh one on
    streams of its own), else on the training split.  Its
    `train_loss_curve` holds each epoch's mean training loss; its `curve`
    holds each epoch's valid metric, and stays empty without a valid
    split.  Raises TrainingDiverged with the offending step
    index if the loss becomes non-finite, and as `evaluate` does."""
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    quantized_model = model.crossbar is not None
    rng_data = derive_rng(cfg.seed, "data-shuffle")
    rng_w = derive_rng(cfg.seed, "weight-noise")
    rng_a = derive_rng(cfg.seed, "adc-noise")
    update = _sgd_step if cfg.optimizer == "sgd" else _Adam().step

    if quantized_model and not model.calibrated and cfg.adc_range_override is not None:
        model.freeze_adc_ranges(cfg.adc_range_override)
    inactive = inactive_level(cfg.input_drive, model.crossbar.dac_spec
                              if quantized_model else None)

    train_curve: list[tuple[int, float]] = []
    valid_curve: list[tuple[int, float]] = []
    rep = None  # the last epoch's valid report
    global_step = 0
    for epoch in range(1, cfg.epochs + 1):
        collector = (RangeCollector(cfg.adc_range_percentile)
                     if quantized_model and not model.calibrated else None)
        mode = ("calibrate" if collector is not None
                else "quantized" if quantized_model else "fp")
        lr = cfg.learning_rate * cfg.lr_decay ** (epoch - 1)

        order = rng_data.permutation(len(dataset))
        nll_sum = count = 0.0
        for x, targets, mask in make_batches(dataset, cfg.batch_size,
                                             cfg.bptt_length, order, inactive=inactive):
            s, c = _step(model, x, targets, mask, update, lr, cfg.grad_clip,
                         mode=mode, rng_weight_noise=rng_w, rng_adc_noise=rng_a,
                         on_preact=collector)
            if not math.isfinite(s):
                raise TrainingDiverged(global_step)
            nll_sum += s
            count += c
            global_step += 1

        if collector is not None:
            model.freeze_adc_ranges(collector.ranges())
        train_curve.append((epoch, nll_sum / count))
        if valid_dataset is not None:
            rep = evaluate(model, valid_dataset, cfg, epoch_tag=epoch, task_name=task_name)
            valid_curve.append((epoch, rep.metric))

    # without noise the last epoch's evaluation of the same model and split
    # is the final one, bit for bit: only the noise streams follow epoch_tag
    if rep is not None and not (quantized_model and model.noise.any_enabled):
        final = rep
    else:
        final = evaluate(model, valid_dataset if valid_dataset is not None else dataset,
                         cfg, epoch_tag=cfg.epochs + 1, task_name=task_name)
    final.curve = valid_curve
    final.train_loss_curve = train_curve
    return model, final
