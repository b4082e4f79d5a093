"""Quantization-aware training loop and evaluation metrics.

Latent weights stay full precision and straight-through gradients update
them.  Every training forward re-snaps them to the device grid, since
every step changes them; an evaluation split snaps them once and reads
that programmed array in each of its batches.
When a quantized model has no frozen ADC ranges yet, the first epoch is
a calibration epoch: weights snapped to the device grid and the DAC grid
on inputs and hidden state, but ideal converters, while pre-activation
magnitudes are collected.  The per-gate ADC full-scale ranges then freeze
at the configured percentile and the remaining epochs train through the
quantized path (an explicit range override skips the calibration epoch
and quantizes from the start).  Training forwards record a cache for
the backward pass; evaluation forwards pass each row's length and so
record nothing.

Training batches come in shuffled order, each padded to its longest
chunk (`make_batches`); the padded rows also feed the ADC-range
calibration.  Evaluation sorts the split's chunks longest first into
packs of at most batch_size rows (`make_packs`), and each step runs only
the rows whose chunk has not ended, as cuDNN's packed sequences do.  Per
token this is the padded batch's arithmetic on fewer rows: noise off,
results agree to rounding (BLAS may block a smaller product
differently); noise on, the draws cover live rows only, so they differ.

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
from .network import LSTMNetwork
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
        x = np.full((t_max, b, ds.input_dim), inactive)
        for j, (inp, tgt) in enumerate(group):
            t = len(inp)
            x[np.arange(t), j, inp] = 1.0
            targets[:t, j] = tgt
            mask[:t, j] = 1.0
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


def make_packs(ds: SequenceDataset, batch_size: int, bptt_length: int,
               inactive: float = 0.0,
               ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The whole split's chunks longest first, in batches of at most
    `batch_size` rows, for a forward that steps only the live rows.

    The sort is stable, so chunks of equal length keep dataset order (a
    split of equal lengths gives `make_batches`'s batches in dataset
    order).  Yields what `make_batches` does plus each row's length,
    non-increasing, one pack at a time.
    """
    items = sorted(_items(ds, range(len(ds)), bptt_length), key=_length, reverse=True)
    for start in range(0, len(items), batch_size):
        group = items[start:start + batch_size]
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
    logp = z - np.log(sumz)
    t_idx, b_idx = np.meshgrid(np.arange(logits.shape[0]), np.arange(logits.shape[1]),
                               indexing="ij")
    picked = logp[t_idx, b_idx, targets]
    count = float(mask.sum())
    if count == 0:
        raise ValueError("batch mask selects no tokens")
    nll_sum = float(-(picked * mask).sum())
    correct = float(((logits.argmax(axis=-1) == targets) * mask).sum())

    d = expz / sumz
    d[t_idx, b_idx, targets] -= 1.0
    d *= (mask / count)[..., None]
    return nll_sum, count, correct, d


# --- optimizers -------------------------------------------------------------------

def _clip_global(grads: dict[str, np.ndarray], max_norm: float):
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / total
        return {k: g * scale for k, g in grads.items()}
    return grads


class _SGD:
    def __init__(self, cfg: TrainConfig):
        self.lr = cfg.learning_rate
        self.clip = cfg.grad_clip

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
        grads = _clip_global(grads, self.clip)
        for k, p in params.items():
            p -= self.lr * grads[k]


class _Adam:
    def __init__(self, cfg: TrainConfig, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = cfg.learning_rate
        self.clip = cfg.grad_clip
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params, grads):
        """p -= lr * mhat / (sqrt(vhat) + eps), with the moments updated in
        place and every operation in the closed form's order."""
        grads = _clip_global(grads, self.clip)
        self.t += 1
        for k, p in params.items():
            g = grads[k]
            if k not in self.m:
                self.m[k], self.v[k] = np.zeros_like(p), np.zeros_like(p)
            m, v = self.m[k], self.v[k]
            # scratch lives only for the step: persistent buffers would add
            # two parameter-sized arrays to the peak memory of backward
            step, denom = np.empty_like(p), np.empty_like(p)
            m *= self.beta1
            m += np.multiply(g, 1 - self.beta1, out=step)
            v *= self.beta2
            np.multiply(g, 1 - self.beta2, out=step)
            step *= g
            v += step
            np.divide(m, 1 - self.beta1**self.t, out=step)            # mhat
            np.divide(v, 1 - self.beta2**self.t, out=denom)           # vhat
            np.sqrt(denom, out=denom)
            denom += self.eps
            step *= self.lr
            step /= denom
            p -= step


def _make_optimizer(cfg: TrainConfig):
    return _SGD(cfg) if cfg.optimizer == "sgd" else _Adam(cfg)


# --- train / evaluate ---------------------------------------------------------------

def evaluate(model: LSTMNetwork, dataset: SequenceDataset, cfg: TrainConfig,
             epoch_tag: int = 0, task_name: str | None = None) -> EvalReport:
    """Metrics over a dataset: perplexity = exp(mean token NLL), accuracy =
    fraction of argmax-correct predictions.  The quantized path (with its
    configured noise) is used whenever the model has one.  The array is
    programmed once for the split, which runs in length-sorted packs
    (`make_packs`) whose finished rows drop out of the step loop.  Raises
    TrainingDiverged if the NLL or the perplexity is not finite."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    if model.crossbar is not None and not model.calibrated:
        raise RuntimeError("quantized model has no frozen ADC ranges; train or "
                           "calibrate it before evaluating")
    mode = "quantized" if model.crossbar is not None else "fp"
    rng_w = derive_rng(cfg.seed, f"eval-noise-w-{epoch_tag}")
    rng_a = derive_rng(cfg.seed, f"eval-noise-a-{epoch_tag}")
    inactive = inactive_level(cfg.input_drive, model.crossbar.dac_spec
                              if model.crossbar is not None else None)
    programmed = model.programmed_weights()
    nll_sum = count = correct = 0.0
    for x, targets, mask, lengths in make_packs(dataset, cfg.batch_size, cfg.bptt_length,
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


def train(model: LSTMNetwork, dataset: SequenceDataset, cfg: TrainConfig,
          valid_dataset: SequenceDataset | None = None,
          task_name: str | None = None) -> tuple[LSTMNetwork, EvalReport]:
    """Optimize the latent weights; returns the model and an EvalReport with
    per-epoch curves (valid metric when a valid split is given, else the
    training metric).  Raises TrainingDiverged with the offending step index
    if the loss becomes non-finite, and as `evaluate` does."""
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    quantized_model = model.crossbar is not None
    rng_data = derive_rng(cfg.seed, "data-shuffle")
    rng_w = derive_rng(cfg.seed, "weight-noise")
    rng_a = derive_rng(cfg.seed, "adc-noise")
    opt = _make_optimizer(cfg)

    if quantized_model and not model.calibrated and cfg.adc_range_override is not None:
        model.freeze_adc_ranges(override=cfg.adc_range_override)
    inactive = inactive_level(cfg.input_drive, model.crossbar.dac_spec
                              if quantized_model else None)

    train_curve: list[tuple[int, float]] = []
    valid_curve: list[tuple[int, float]] = []
    global_step = 0
    for epoch in range(1, cfg.epochs + 1):
        calibrating = quantized_model and not model.calibrated
        if calibrating:
            model.begin_calibration(cfg.adc_range_percentile)
            mode = "calibrate"
        else:
            mode = "quantized" if quantized_model else "fp"
        opt.lr = cfg.learning_rate * cfg.lr_decay ** (epoch - 1)

        order = rng_data.permutation(len(dataset))
        nll_sum = count = 0.0
        for x, targets, mask in make_batches(dataset, cfg.batch_size,
                                             cfg.bptt_length, order, inactive=inactive):
            logits, h_seq, cache = model.forward_sequence(
                x, mode=mode, rng_weight_noise=rng_w, rng_adc_noise=rng_a)
            s, c, _, d_logits = softmax_xent(logits, targets, mask)
            if not math.isfinite(s):
                raise TrainingDiverged(global_step)
            grads = model.backward(cache, h_seq, d_logits)
            opt.step(model.parameters(), grads)
            nll_sum += s
            count += c
            global_step += 1

        if calibrating:
            model.freeze_adc_ranges()
        train_curve.append((epoch, nll_sum / count))
        if valid_dataset is not None:
            rep = evaluate(model, valid_dataset, cfg, epoch_tag=epoch, task_name=task_name)
            valid_curve.append((epoch, rep.metric))

    final = evaluate(model, valid_dataset if valid_dataset is not None else dataset,
                     cfg, epoch_tag=cfg.epochs + 1, task_name=task_name)
    final.curve = valid_curve
    final.train_loss_curve = train_curve
    return model, final
