"""Task registry: dataset builders plus per-task training defaults.

Three desk-scale tasks mirror the benchmark shapes:

* ``har``      six-class sequence classification, m = n = 32 (64x128 array)
* ``char_lm``  next-character prediction over the bundled names corpus,
               m = 100 (padded alphabet), n = 256 (356x1024 array)
* ``word_lm``  next-word prediction over the bundled sentences corpus,
               64-entry vocabulary, m = n = 64 (128x256 array)

Each task's ``TrainConfig`` defaults, its hidden size included, live in
one table; a config overrides any of them, and ``build_network`` sizes
the network from the ``TrainConfig`` it is given.  Learning rates and
epoch counts were tuned once on the full-precision baseline of each task
and stay fixed for every bit-width configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

from .crossbar import CrossbarConfig
from .datasets import (
    SequenceDataset,
    bundled_corpus_path,
    load_char_corpus,
    load_word_corpus,
    split_dataset,
    synth_har,
)
from .network import LSTMNetwork
from .seeding import derive_seed
from .training import TrainConfig

__all__ = ["TaskBundle", "TASK_NAMES", "build_task", "build_network"]


@dataclass
class TaskBundle:
    name: str
    train: SequenceDataset
    valid: SequenceDataset
    defaults: TrainConfig
    higher_is_better: bool

    @property
    def input_dim(self) -> int:
        return self.train.input_dim

    @property
    def output_size(self) -> int:
        return self.train.num_classes


# Tuned once on each task's full-precision baseline, then frozen for every
# bit-width configuration.  Adam won the baseline tuning on all three tasks
# (it is also the usual choice for very-low-bit training); plain SGD remains
# the TrainConfig default.
_TASK_DEFAULTS = {
    "har": dict(optimizer="adam", learning_rate=0.01, lr_decay=0.93, epochs=12,
                batch_size=32, bptt_length=32, weight_range=1.0, hidden_size=32),
    "char_lm": dict(optimizer="adam", learning_rate=0.01, lr_decay=0.93, epochs=8,
                    batch_size=32, bptt_length=16, weight_range=0.2, hidden_size=256),
    "word_lm": dict(optimizer="adam", learning_rate=0.01, lr_decay=0.93, epochs=30,
                    batch_size=16, bptt_length=16, weight_range=0.75, hidden_size=64,
                    input_drive="antipodal"),
}

TASK_NAMES = tuple(_TASK_DEFAULTS)


def build_task(name: str, seed: int) -> TaskBundle:
    """Datasets plus a TrainConfig seeded with the task defaults."""
    if name not in _TASK_DEFAULTS:
        raise ValueError(f"unknown task {name!r}; expected one of {TASK_NAMES}")

    if name == "har":
        full = synth_har(derive_seed(seed, "har-gen"), n_sequences=900)
    elif name == "char_lm":
        full = load_char_corpus(bundled_corpus_path("names.txt"))
    else:
        full = load_word_corpus(bundled_corpus_path("sentences.txt"))
    train_ds, valid_ds = split_dataset(full, valid_fraction=1 / 3, seed=seed)
    return TaskBundle(name=name, train=train_ds, valid=valid_ds,
                      defaults=TrainConfig(seed=seed, **_TASK_DEFAULTS[name]),
                      higher_is_better=(name == "har"))


def build_network(bundle: TaskBundle, cfg: TrainConfig) -> LSTMNetwork:
    """Network for a task with `cfg.hidden_size` units (the task default
    when unset); quantized (with its crossbar geometry) when the config
    names bit widths, pure full precision otherwise."""
    hidden = cfg.hidden_size if cfg.hidden_size is not None else bundle.defaults.hidden_size
    crossbar = None
    if cfg.bitwidths is not None:
        wb, ab, db = cfg.bitwidths
        crossbar = CrossbarConfig.for_lstm(
            bundle.input_dim, hidden, weight_bits=wb, adc_bits=ab,
            dac_bits=db, w_max=cfg.weight_range)
    return LSTMNetwork(bundle.input_dim, hidden, bundle.output_size,
                       seed=cfg.seed, crossbar=crossbar, noise=cfg.noise,
                       init_scale=cfg.init_scale)
