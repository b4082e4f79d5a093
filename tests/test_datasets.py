"""Dataset generators and corpus loaders: determinism, geometry, encode
round trips, and the vocabulary-building oracle."""

from collections import Counter

import numpy as np
import pytest

from xbarlstm.datasets import (
    CHAR_SYMBOLS,
    SequenceDataset,
    bundled_corpus_path,
    decode_chars,
    load_char_corpus,
    load_word_corpus,
    split_dataset,
    synth_har,
)


class TestSynthHar:
    def test_geometry_implies_64x128_array(self):
        ds = synth_har(seed=1, n_sequences=60)
        assert ds.input_dim == 32
        assert ds.num_classes == 6
        # m = n = 32 -> concatenated LSTM array is (m+n) x 4n
        assert (ds.input_dim + 32, 4 * 32) == (64, 128)

    def test_deterministic_per_seed(self):
        a = synth_har(seed=9, n_sequences=30)
        b = synth_har(seed=9, n_sequences=30)
        for (xa, la), (xb, lb) in zip(a.sequences, b.sequences):
            assert la == lb
            assert np.array_equal(xa, xb)
        c = synth_har(seed=10, n_sequences=30)
        assert not np.array_equal(a.sequences[0][0], c.sequences[0][0])

    def test_balanced_classes(self):
        ds = synth_har(seed=3, n_sequences=62)
        counts = Counter(label for _, label in ds.sequences)
        assert max(counts.values()) - min(counts.values()) <= 1
        assert sum(counts.values()) == 62

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            synth_har(seed=1, n_sequences=5)

    def test_features_bounded(self):
        ds = synth_har(seed=4, n_sequences=12)
        for x, _ in ds.sequences:
            assert np.all(np.abs(x) <= 1.0)


class TestCharCorpus:
    def test_bundled_geometry(self):
        ds = load_char_corpus(bundled_corpus_path("names.txt"))
        assert ds.input_dim == 100
        # n = 256 -> 356 x 1024 concatenated array, the cost-model geometry
        assert (ds.input_dim + 256, 4 * 256) == (356, 1024)
        assert ds.num_classes == len(CHAR_SYMBOLS) == 28

    def test_round_trip_identity(self):
        path = bundled_corpus_path("names.txt")
        ds = load_char_corpus(path)
        lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
        assert len(ds.sequences) == len(lines)
        for (inp, tgt), line in zip(ds.sequences, lines):
            # inputs = ^ + word, targets = word + .
            assert decode_chars(inp) == "^" + line
            assert decode_chars(tgt) == line + "."

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("")
        with pytest.raises(ValueError):
            load_char_corpus(p)

    def test_bad_character_reports_line_number(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("anna\nb0b\n")
        with pytest.raises(ValueError, match="line 2"):
            load_char_corpus(p)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(OSError):
            load_char_corpus(tmp_path / "missing.txt")


class TestWordCorpus:
    def test_vocab_matches_independent_recount(self, tmp_path):
        # oracle: recount token frequencies and rebuild the kept set
        path = bundled_corpus_path("sentences.txt")
        ds = load_word_corpus(path, vocab_cap=64)
        counts = Counter()
        for line in path.read_text().splitlines():
            counts.update(line.split())
        kept = sorted(counts, key=lambda w: (-counts[w], w))[:63]
        assert set(ds.vocab) == set(kept) | {"<unk>"}
        assert ds.vocab[0] == "<unk>"
        assert ds.input_dim == ds.num_classes == 64

        # every index in the sequences decodes back to the original token or
        # to unknown for dropped words
        index = {w: i for i, w in enumerate(ds.vocab)}
        lines = [ln.split() for ln in path.read_text().splitlines() if ln.strip()]
        for (inp, tgt), toks in zip(ds.sequences, lines):
            expect = [index.get(t, 0) for t in toks]
            assert inp.tolist() == expect[:-1]
            assert tgt.tolist() == expect[1:]

    def test_vocab_cap_one_maps_everything_to_unknown(self, tmp_path):
        ds = load_word_corpus(bundled_corpus_path("sentences.txt"), vocab_cap=1)
        assert ds.vocab == ["<unk>"]
        assert ds.num_classes == 1
        for inp, tgt in ds.sequences[:20]:
            assert np.all(inp == 0) and np.all(tgt == 0)

    def test_unknowns_present_at_default_cap(self):
        ds = load_word_corpus(bundled_corpus_path("sentences.txt"), vocab_cap=64)
        n_unk = sum(int(np.sum(t == 0)) for _, t in ds.sequences)
        assert n_unk > 0  # corpus has more than 63 distinct words

    def test_empty_rejected(self, tmp_path):
        p = tmp_path / "none.txt"
        p.write_text("\n\n")
        with pytest.raises(ValueError):
            load_word_corpus(p)

    def test_paper_scale_geometry_documented(self):
        # the full-scale configuration (m = n = 300) implies a 600x1200
        # array; desk default stays 64
        m = n = 300
        assert (m + n, 4 * n) == (600, 1200)


class TestSplits:
    def test_disjoint_and_deterministic(self):
        ds = load_char_corpus(bundled_corpus_path("names.txt"))
        tr1, va1 = split_dataset(ds, valid_fraction=1 / 3, seed=5)
        tr2, va2 = split_dataset(ds, valid_fraction=1 / 3, seed=5)
        assert len(tr1) + len(va1) == len(ds)
        assert [a[0].tolist() for a, _ in zip(tr1.sequences, tr2.sequences)]
        ids = lambda split: {tuple(inp.tolist()) for inp, _ in split.sequences}
        assert ids(tr1) == ids(tr2)
        assert ids(va1) == ids(va2)
        assert not (ids(tr1) & ids(va1))

    def test_split_fraction_validation(self):
        ds = load_char_corpus(bundled_corpus_path("names.txt"))
        with pytest.raises(ValueError):
            split_dataset(ds, valid_fraction=0.0, seed=1)


class TestOneHotInvariant:
    def test_exactly_one_active_channel(self):
        from xbarlstm.training import make_batches

        ds = load_char_corpus(bundled_corpus_path("names.txt"))
        (x, _, mask), *_ = make_batches(ds, 16, 32, np.arange(16), inactive=0.0)
        active = (x == 1.0).sum(axis=2)
        assert np.all(active[mask == 1.0] == 1)


class TestManifest:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            SequenceDataset(kind="video", input_dim=3, num_classes=2, sequences=[])
