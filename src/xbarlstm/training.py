"""Quantization-aware training loop and evaluation metrics.

Latent weights stay full precision; every quantized forward re-snaps them
to the device grid, and straight-through gradients update the latents.
When a quantized model has no frozen ADC ranges yet, the first epoch is
a calibration epoch: weights snapped to the device grid and the DAC grid
on inputs and hidden state, but ideal converters, while pre-activation
magnitudes are collected.  The per-gate ADC full-scale ranges then freeze
at the configured percentile and the remaining epochs train through the
quantized path (an explicit range override skips the calibration epoch
and quantizes from the start).  Training forwards record a cache for
the backward pass; evaluation forwards record nothing.

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
    hidden_size: int | None = None
    init_scale: float | None = None
    input_drive: str = "matched"  # one-hot DAC signaling: 'matched' | 'antipodal'

    def __post_init__(self):
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.input_drive not in ("matched", "antipodal"):
            raise ValueError(f"unknown input_drive {self.input_drive!r}")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if not 0 < self.lr_decay <= 1:
            raise ValueError("lr_decay must be in (0, 1]")
        if self.epochs < 1 or self.batch_size < 1 or self.bptt_length < 1:
            raise ValueError("epochs, batch_size and bptt_length must be >= 1")
        if self.bitwidths is not None:
            bw = tuple(int(b) for b in self.bitwidths)
            if len(bw) != 3 or any(not 1 <= b <= 16 for b in bw):
                raise ValueError("bitwidths must be three integers in [1, 16]")
            object.__setattr__(self, "bitwidths", bw)

    def as_dict(self) -> dict:
        d = asdict(self)
        d["bitwidths"] = list(self.bitwidths) if self.bitwidths else None
        return d


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
        return {
            "task": self.task,
            "accuracy": self.accuracy,
            "perplexity": self.perplexity,
            "metric_name": self.metric_name,
            "metric": self.metric,
            "curve": [[e, v] for e, v in self.curve],
            "train_loss_curve": [[e, v] for e, v in self.train_loss_curve],
        }


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


def inactive_level(input_drive: str, dac_bits: int | None) -> float:
    """DAC-domain drive of an inactive one-hot channel.

    'matched': the representable level of smallest magnitude on the
    symmetric grid (-step/2; 0 in full precision), so inactive rows barely
    drive the array.  'antipodal': -1, full bipolar signaling (the two
    coincide at 1 bit).
    """
    if input_drive == "antipodal":
        return -1.0
    if dac_bits is None:
        return 0.0
    return -QuantSpec.symmetric(dac_bits, 1.0).step / 2


def make_batches(ds: SequenceDataset, batch_size: int, bptt_length: int,
                 order: np.ndarray, inactive: float = 0.0,
                 ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Pad-and-mask batches in the given sequence order.

    Returns (x (T,B,m), targets (T,B) int, mask (T,B) float) per batch.
    Language-model inputs put +1 on the active channel and `inactive`
    elsewhere; classification targets are placed (and masked) at the final
    step only.
    """
    items = []
    if ds.kind == "classification":
        for k in order:
            items.append(ds.sequences[k])
    else:
        for k in order:
            items.extend(_chunk(ds.sequences[k], bptt_length))

    batches = []
    for start in range(0, len(items), batch_size):
        group = items[start:start + batch_size]
        b = len(group)
        if ds.kind == "classification":
            t_max = max(feat.shape[0] for feat, _ in group)
            x = np.zeros((t_max, b, ds.input_dim))
            targets = np.zeros((t_max, b), dtype=np.int64)
            mask = np.zeros((t_max, b))
            for j, (feat, label) in enumerate(group):
                t = feat.shape[0]
                x[:t, j, :] = feat
                targets[t - 1, j] = label
                mask[t - 1, j] = 1.0
        else:
            t_max = max(len(inp) for inp, _ in group)
            x = np.full((t_max, b, ds.input_dim), inactive)
            targets = np.zeros((t_max, b), dtype=np.int64)
            mask = np.zeros((t_max, b))
            for j, (inp, tgt) in enumerate(group):
                t = len(inp)
                x[np.arange(t), j, inp] = 1.0
                targets[:t, j] = tgt
                mask[:t, j] = 1.0
        batches.append((x, targets, mask))
    return batches


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

def _run_split(model: LSTMNetwork, batches, mode: str, rng_w, rng_a):
    """Forward a whole split without recording; returns (nll_sum, count, correct)."""
    nll_sum = count = correct = 0.0
    for x, targets, mask in batches:
        logits, _, _ = model.forward_sequence(x, mode=mode, rng_weight_noise=rng_w,
                                              rng_adc_noise=rng_a, record=False)
        s, c, corr, _ = softmax_xent(logits, targets, mask)
        nll_sum += s
        count += c
        correct += corr
    return nll_sum, count, correct


def evaluate(model: LSTMNetwork, dataset: SequenceDataset, cfg: TrainConfig,
             epoch_tag: int = 0, task_name: str | None = None) -> EvalReport:
    """Metrics over a dataset: perplexity = exp(mean token NLL), accuracy =
    fraction of argmax-correct predictions.  The quantized path (with its
    configured noise) is used whenever the model has one.  Raises
    TrainingDiverged if the NLL or the perplexity is not finite."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    if model.crossbar is not None and not model.calibrated:
        raise RuntimeError("quantized model has no frozen ADC ranges; train or "
                           "calibrate it before evaluating")
    mode = "quantized" if model.crossbar is not None else "fp"
    rng_w = derive_rng(cfg.seed, f"eval-noise-w-{epoch_tag}")
    rng_a = derive_rng(cfg.seed, f"eval-noise-a-{epoch_tag}")
    inactive = inactive_level(cfg.input_drive, model.crossbar.dac_spec.bits
                              if model.crossbar is not None else None)
    batches = make_batches(dataset, cfg.batch_size, cfg.bptt_length,
                           np.arange(len(dataset)), inactive=inactive)
    nll_sum, count, correct = _run_split(model, batches, mode, rng_w, rng_a)
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

    train_curve: list[tuple[int, float]] = []
    valid_curve: list[tuple[int, float]] = []
    global_step = 0
    for epoch in range(1, cfg.epochs + 1):
        calibrating = quantized_model and not model.calibrated
        if calibrating:
            model.begin_calibration()
            mode = "calibrate"
        else:
            mode = "quantized" if quantized_model else "fp"
        opt.lr = cfg.learning_rate * cfg.lr_decay ** (epoch - 1)

        order = rng_data.permutation(len(dataset))
        inactive = inactive_level(cfg.input_drive, model.crossbar.dac_spec.bits
                                  if model.crossbar is not None else None)
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
            model.freeze_adc_ranges(percentile=cfg.adc_range_percentile,
                                    override=cfg.adc_range_override)
        train_curve.append((epoch, nll_sum / count))
        if valid_dataset is not None:
            rep = evaluate(model, valid_dataset, cfg, epoch_tag=epoch, task_name=task_name)
            valid_curve.append((epoch, rep.metric))

    final = evaluate(model, valid_dataset if valid_dataset is not None else dataset,
                     cfg, epoch_tag=cfg.epochs + 1, task_name=task_name)
    final.curve = valid_curve
    final.train_loss_curve = train_curve
    return model, final
