from __future__ import annotations

import json

import numpy as np
import pytest

from ercml.corpus import utt_key
from ercml.embeddings import (
    SentenceEmbeddingStore,
    hash_embed,
    hash_store_for_corpus,
    load_sentence_embeddings,
    save_sentence_embeddings,
)
from ercml.errors import (
    DimMismatch,
    DuplicateKey,
    MalformedRecord,
    MissingEmbedding,
)


class TestHashEmbed:
    def test_deterministic(self):
        a = hash_embed("hello world", 16, seed=3)
        b = hash_embed("hello world", 16, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_unit_norm(self):
        for text in ("a", "some longer text", ""):
            assert np.linalg.norm(hash_embed(text, 24, seed=0)) == pytest.approx(1.0, abs=1e-9)

    def test_seed_changes_vector(self):
        a = hash_embed("x", 16, seed=0)
        b = hash_embed("x", 16, seed=1)
        assert not np.allclose(a, b)

    def test_no_exact_collisions_over_fixture(self):
        # brute-force pairwise check over 100 distinct texts
        vectors = [hash_embed(f"text number {i}", 16, seed=0) for i in range(100)]
        m = np.stack(vectors)
        sims = m @ m.T
        off_diag = sims - np.eye(100)
        assert off_diag.max() < 1.0 - 1e-9

    def test_bad_dim(self):
        with pytest.raises(DimMismatch):
            hash_embed("x", 0)


class TestSentenceStore:
    def write_store(self, tmp_path, records, header=None):
        path = tmp_path / "store.jsonl"
        lines = [json.dumps(header or {"provider": "test", "dim": 4})]
        lines += [json.dumps(r) for r in records]
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_two_records(self, tmp_path):
        path = self.write_store(tmp_path, [
            {"key": "d#0", "vector": [1, 0, 0, 0]},
            {"key": "d#1", "vector": [0, 1, 0, 0]},
        ])
        store = load_sentence_embeddings(path)
        assert len(store) == 2
        assert store.dim == 4
        assert store.provider_name == "test"

    def test_dim_mismatch(self, tmp_path):
        path = self.write_store(tmp_path, [
            {"key": "d#0", "vector": [1, 0, 0, 0]},
            {"key": "d#1", "vector": [0, 1, 0]},
        ])
        with pytest.raises(DimMismatch):
            load_sentence_embeddings(path)

    def test_duplicate_key(self, tmp_path):
        path = self.write_store(tmp_path, [
            {"key": "d#0", "vector": [1, 0, 0, 0]},
            {"key": "d#0", "vector": [0, 1, 0, 0]},
        ])
        with pytest.raises(DuplicateKey):
            load_sentence_embeddings(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text(json.dumps({"key": "d#0", "vector": [1.0]}) + "\n")
        with pytest.raises(MalformedRecord):
            load_sentence_embeddings(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text('{"provider": "t", "dim": 2}\nnot json\n')
        with pytest.raises(MalformedRecord):
            load_sentence_embeddings(path)

    def test_missing_key_raises(self):
        store = SentenceEmbeddingStore(entries={"d#0": np.zeros(4)}, dim=4)
        with pytest.raises(MissingEmbedding):
            store.get("d", 1)

    def test_384_dim_store(self, tmp_path):
        # provider-native dimension used by the MiniLM-class encoders
        vec = np.zeros(384)
        vec[0] = 1.0
        path = self.write_store(
            tmp_path,
            [{"key": "d#0", "vector": vec.tolist()}],
            header={"provider": "all-MiniLM-L6-v2", "dim": 384},
        )
        store = load_sentence_embeddings(path)
        assert store.dim == 384

    def test_round_trip(self, tmp_path, train_corpus):
        store = hash_store_for_corpus(train_corpus, dim=8, seed=1, provider_name="hash")
        path = save_sentence_embeddings(store, tmp_path / "rt.jsonl")
        again = load_sentence_embeddings(path)
        assert again.dim == store.dim
        assert set(again.entries) == set(store.entries)
        for key in store.entries:
            np.testing.assert_allclose(again.entries[key], store.entries[key])

    def test_vectors_immutable(self, store16):
        key = next(iter(store16.entries))
        with pytest.raises(ValueError):
            store16.entries[key][0] = 99.0

    def test_covers(self, train_corpus, store16):
        store16.check_covers(train_corpus)  # no gap: returns quietly
        dialog = train_corpus.dialogs[0]
        assert utt_key(dialog.id, 0) in store16.entries

    def test_gap_named(self, train_corpus, store16):
        dialog = train_corpus.dialogs[3]
        gap = utt_key(dialog.id, len(dialog) - 1)
        entries = {k: v for k, v in store16.entries.items() if k != gap}
        store = SentenceEmbeddingStore(entries=entries, dim=16)
        with pytest.raises(MissingEmbedding, match=f"1 utterance vector.*{gap}"):
            store.check_covers(train_corpus)
