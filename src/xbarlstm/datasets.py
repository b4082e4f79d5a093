"""Desk-scale datasets: a synthetic activity-classification generator and
loaders for the two bundled text corpora (character-level names, word-level
sentences).

The character task keeps an input dimension of 100 by padding its 28-symbol
alphabet, so the concatenated weight array for a 256-unit cell is 356x1024,
the geometry the cost model describes.  The word task defaults to a
64-entry vocabulary (63 words plus the unknown token) for a 128x256 array.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .seeding import derive_rng

__all__ = [
    "SequenceDataset",
    "synth_har",
    "load_char_corpus",
    "load_word_corpus",
    "split_dataset",
    "bundled_corpus_path",
    "CHAR_SYMBOLS",
    "CHAR_INPUT_DIM",
]

# a-z plus end-of-name '.' and start-of-name '^'; inputs are padded to
# CHAR_INPUT_DIM channels
CHAR_SYMBOLS = list("abcdefghijklmnopqrstuvwxyz") + [".", "^"]
CHAR_INPUT_DIM = 100
_CHAR_INDEX = {s: i for i, s in enumerate(CHAR_SYMBOLS)}
_END = _CHAR_INDEX["."]
_START = _CHAR_INDEX["^"]

UNKNOWN_TOKEN = "<unk>"

HAR_CLASSES = 6


@dataclass
class SequenceDataset:
    """A list of (input, target) sequences plus the geometry they imply.

    classification: items are (features (T, m) float, label int)
    char_lm / word_lm: items are (input indices (L,), target indices (L,))
    """

    kind: str
    input_dim: int
    num_classes: int
    sequences: list
    vocab: list[str] | None = None

    def __post_init__(self):
        if self.kind not in ("classification", "char_lm", "word_lm"):
            raise ValueError(f"unknown dataset kind {self.kind!r}")

    def __len__(self) -> int:
        return len(self.sequences)


def split_dataset(ds: SequenceDataset, valid_fraction: float, seed: int,
                  ) -> tuple[SequenceDataset, SequenceDataset]:
    """Disjoint train/valid split, deterministic per seed."""
    if not 0 < valid_fraction < 1:
        raise ValueError("valid_fraction must be in (0, 1)")
    order = derive_rng(seed, "split").permutation(len(ds.sequences))
    n_valid = max(1, int(round(len(ds.sequences) * valid_fraction)))
    valid_idx = set(order[:n_valid].tolist())
    train_seqs = [ds.sequences[k] for k in range(len(ds.sequences)) if k not in valid_idx]
    valid_seqs = [ds.sequences[k] for k in sorted(valid_idx)]
    mk = lambda seqs: SequenceDataset(
        kind=ds.kind, input_dim=ds.input_dim, num_classes=ds.num_classes,
        sequences=seqs, vocab=ds.vocab)
    return mk(train_seqs), mk(valid_seqs)


# --- synthetic activity classification ----------------------------------------

def synth_har(seed: int, n_sequences: int, seq_len: int = 24,
              input_dim: int = 32) -> SequenceDataset:
    """Six-class synthetic sequence classification over `input_dim` channels.

    Classes are sinusoid/noise mixtures distinguished by their temporal
    frequency and a class-specific spatial amplitude pattern; each sequence
    carries a random global phase so the classifier must use the dynamics.
    Classes are balanced (counts differ by at most one).
    """
    if n_sequences < HAR_CLASSES:
        raise ValueError(f"need at least {HAR_CLASSES} sequences")
    rng = np.random.default_rng(seed)
    t = np.arange(seq_len)
    channels = np.arange(input_dim)
    sequences = []
    for idx in range(n_sequences):
        label = idx % HAR_CLASSES
        freq = 0.05 + 0.028 * label          # cycles per step
        pattern = 0.45 + 0.30 * np.cos(2 * np.pi * (label + 1) * channels / input_dim)
        phase = rng.uniform(0, 2 * np.pi)
        chan_phase = np.pi * channels / input_dim
        clean = pattern[None, :] * np.sin(
            2 * np.pi * freq * t[:, None] + phase + chan_phase[None, :])
        x = clean + rng.normal(0.0, 0.40, size=(seq_len, input_dim))
        sequences.append((np.clip(x, -1.0, 1.0), label))
    return SequenceDataset(kind="classification", input_dim=input_dim,
                           num_classes=HAR_CLASSES, sequences=sequences)


# --- character-level corpus ----------------------------------------------------

def bundled_corpus_path(name: str) -> Path:
    """Path of a corpus file shipped with the package ('names.txt' or
    'sentences.txt')."""
    return Path(resources.files("xbarlstm").joinpath("data", name))


def load_char_corpus(path, input_dim: int = CHAR_INPUT_DIM) -> SequenceDataset:
    """Next-character prediction over one name per line.

    Each line becomes start-marker + characters + end-marker; inputs are the
    sequence without its last symbol, targets the sequence without its
    first.  Characters outside the declared alphabet raise with the line
    number.  Inputs are one-hot over the alphabet padded to `input_dim`.
    """
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"corpus {path} is empty")
    if input_dim < len(CHAR_SYMBOLS):
        raise ValueError(f"input_dim must be >= {len(CHAR_SYMBOLS)}")
    sequences = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        word = line.strip()
        if not word:
            continue
        for ch in word:
            if ch not in _CHAR_INDEX or ch in (".", "^"):
                raise ValueError(f"line {lineno}: character {ch!r} outside the alphabet")
        ids = [_START] + [_CHAR_INDEX[ch] for ch in word] + [_END]
        seq = np.array(ids, dtype=np.int64)
        sequences.append((seq[:-1], seq[1:]))
    return SequenceDataset(kind="char_lm", input_dim=input_dim,
                           num_classes=len(CHAR_SYMBOLS), sequences=sequences,
                           vocab=list(CHAR_SYMBOLS))


def decode_chars(indices) -> str:
    """Inverse of the char encoding (markers included), for round-trip checks."""
    return "".join(CHAR_SYMBOLS[i] for i in np.asarray(indices))


# --- word-level corpus ----------------------------------------------------------

def load_word_corpus(path, vocab_cap: int = 64) -> SequenceDataset:
    """Next-word prediction over one whitespace-tokenized sentence per line.

    The vocabulary is capped at `vocab_cap` entries *including* the unknown
    token (index 0): the vocab_cap - 1 most frequent words keep their
    identity, everything else maps to unknown.  Ties break alphabetically.
    """
    if vocab_cap < 1:
        raise ValueError("vocab_cap must be >= 1")
    text = Path(path).read_text(encoding="utf-8")
    sentences = [ln.split() for ln in text.splitlines() if ln.strip()]
    if not sentences:
        raise ValueError(f"corpus {path} is empty")

    counts: dict[str, int] = {}
    for toks in sentences:
        for tok in toks:
            counts[tok] = counts.get(tok, 0) + 1
    kept = sorted(counts, key=lambda w: (-counts[w], w))[: vocab_cap - 1]
    vocab = [UNKNOWN_TOKEN] + sorted(kept)
    index = {w: i for i, w in enumerate(vocab)}

    sequences = []
    for toks in sentences:
        if len(toks) < 2:
            continue
        ids = np.array([index.get(t, 0) for t in toks], dtype=np.int64)
        sequences.append((ids[:-1], ids[1:]))
    if not sequences:
        raise ValueError(f"corpus {path} has no sentence with at least two tokens")
    return SequenceDataset(kind="word_lm", input_dim=vocab_cap,
                           num_classes=vocab_cap, sequences=sequences, vocab=vocab)
