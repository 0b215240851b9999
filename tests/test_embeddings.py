from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pytest

from ercml import embeddings
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

from support import content_digest


def warm_load(path, monkeypatch):
    """Load `path` through its sidecar; fails if the JSONL would be parsed."""
    with monkeypatch.context() as m:
        m.setattr(embeddings, "_parse_jsonl", lambda p: pytest.fail(f"{p} parsed, sidecar not used"))
        return load_sentence_embeddings(path)


def assert_same_store(got, want):
    assert (got.dim, got.provider_name) == (want.dim, want.provider_name)
    assert list(got.entries) == list(want.entries)
    for key, vec in want.entries.items():
        assert got.entries[key].tobytes() == vec.tobytes(), key


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

    def test_vector_of_another_dim_rejected(self):
        with pytest.raises(DimMismatch, match="key 'd#1' has dim 3, store dim is 4"):
            SentenceEmbeddingStore(entries={"d#0": np.zeros(4), "d#1": np.zeros(3)}, dim=4)

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

    @pytest.mark.parametrize("content", ["", "\n  \n"], ids=["empty", "blank"])
    def test_file_without_header(self, tmp_path, content):
        path = tmp_path / "store.jsonl"
        path.write_text(content)
        with pytest.raises(MalformedRecord, match="empty embedding file"):
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

    def test_round_trip(self, tmp_path, train_corpus, monkeypatch):
        store = hash_store_for_corpus(train_corpus, dim=8, seed=1, provider_name="hash")
        path = save_sentence_embeddings(store, tmp_path / "rt.jsonl")
        for again in (load_sentence_embeddings(path), warm_load(path, monkeypatch)):
            assert again.dim == store.dim
            assert list(again.entries) == list(store.entries)
            for key in store.entries:
                np.testing.assert_array_equal(again.entries[key], store.entries[key])

    def test_blank_lines_before_header(self, tmp_path):
        path = tmp_path / "blank_first.jsonl"
        path.write_text('\n  \n{"provider": "t", "dim": 2}\n{"key": "d#0", "vector": [1, 2]}\n')
        store = load_sentence_embeddings(path)
        assert (store.dim, store.provider_name, list(store.entries)) == (2, "t", ["d#0"])

    def test_error_names_line_counted_from_one(self, tmp_path):
        path = tmp_path / "dimbad.jsonl"
        path.write_text('{"provider": "t", "dim": 2}\n{"key": "d#0", "vector": [1, 2]}\n\n'
                        '{"key": "d#1", "vector": [1, 2, 3]}\n')
        with pytest.raises(DimMismatch, match=r"^dimbad\.jsonl:4: "):
            load_sentence_embeddings(path)

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


class TestSidecar:
    """`<store>.jsonl.npz` is used only while it matches the JSONL; any
    other sidecar yields the JSONL's own content."""

    KEYS = [f"d{i}#{j}" for i in range(3) for j in range(4)]

    def write(self, path, dim=4, provider="test", seed=0):
        rng = np.random.default_rng(seed)
        entries = {key: rng.standard_normal(dim) for key in self.KEYS}
        store = SentenceEmbeddingStore(entries=entries, dim=dim, provider_name=provider)
        save_sentence_embeddings(store, path)
        return store

    def sidecar(self, path):
        return path.with_name(path.name + ".npz")

    def members(self, path):
        with np.load(self.sidecar(path), allow_pickle=False) as npz:
            return {name: npz[name] for name in npz.files}

    @pytest.mark.parametrize("dim, provider", [(16, "hash"), (384, "all-MiniLM-L6-v2")])
    def test_sidecar_load_equals_parse(self, tmp_path, train_corpus, monkeypatch, dim, provider):
        if dim == 16:
            store = hash_store_for_corpus(train_corpus, dim=16, seed=3, provider_name=provider)
            path = save_sentence_embeddings(store, tmp_path / "hash.jsonl")
        else:
            store = self.write(tmp_path / "minilm.jsonl", dim=dim, provider=provider)
            path = tmp_path / "minilm.jsonl"
        cold = load_sentence_embeddings(path)
        assert self.sidecar(path).is_file()
        warm = warm_load(path, monkeypatch)
        for loaded in (cold, warm):
            assert_same_store(loaded, store)
            assert_same_store(loaded, cold)
            assert content_digest(loaded) == content_digest(cold) == content_digest(store)
            rows = list(loaded.entries.values())
            # one contiguous (N, dim) array, read-only, row i at offset i * dim
            assert all(not row.flags.writeable for row in rows)
            assert [row.ctypes.data - rows[0].ctypes.data for row in rows] == [
                i * dim * 8 for i in range(len(rows))]
            with pytest.raises(ValueError):
                rows[-1][0] = 1.0

    def test_sidecar_records_the_jsonl(self, tmp_path):
        path = tmp_path / "store.jsonl"
        self.write(path)
        load_sentence_embeddings(path)
        members = self.members(path)
        assert members["size"].tolist() == path.stat().st_size
        assert members["sha256"].tolist() == hashlib.sha256(path.read_bytes()).hexdigest()
        assert (members["dim"].tolist(), members["provider"].tolist()) == (4, "test")
        assert members["keys"].tolist() == self.KEYS
        assert members["vectors"].shape == (len(self.KEYS), 4)

    @pytest.mark.parametrize("edit", ["size", "same-size"])
    def test_jsonl_edited_after_sidecar(self, tmp_path, monkeypatch, edit):
        path = tmp_path / "store.jsonl"
        self.write(path)
        load_sentence_embeddings(path)
        size = path.stat().st_size
        if edit == "size":
            with path.open("a") as fh:
                fh.write('{"key": "new#0", "vector": [1, 2, 3, 4]}\n')
        else:
            text = path.read_text()
            at = next(i for i in range(text.index("vector"), len(text)) if text[i].isdigit())
            path.write_text(text[:at] + str((int(text[at]) + 1) % 10) + text[at + 1:])
        assert (path.stat().st_size == size) == (edit == "same-size")
        edited = reference_parse(path)
        assert_same_store(load_sentence_embeddings(path), edited)
        assert_same_store(warm_load(path, monkeypatch), edited)  # the sidecar was rewritten

    @pytest.mark.parametrize("content", ["truncated", "random bytes", "empty", "npy", "no members"])
    def test_unreadable_sidecar(self, tmp_path, monkeypatch, content):
        path = tmp_path / "store.jsonl"
        store = self.write(path)
        load_sentence_embeddings(path)
        sidecar = self.sidecar(path)
        data = sidecar.read_bytes()
        if content == "truncated":
            sidecar.write_bytes(data[:len(data) // 2])
        elif content == "random bytes":
            sidecar.write_bytes(np.random.default_rng(0).bytes(len(data)))
        elif content == "empty":
            sidecar.write_bytes(b"")
        elif content == "npy":
            with sidecar.open("wb") as fh:
                np.save(fh, np.zeros((len(self.KEYS), 4)))
        else:
            with sidecar.open("wb") as fh:
                np.savez(fh, vectors=np.zeros((len(self.KEYS), 4)))
        assert_same_store(load_sentence_embeddings(path), store)
        assert_same_store(warm_load(path, monkeypatch), store)

    @pytest.mark.parametrize("forgery", [
        "nan", "inf", "-inf", "extra column", "missing row", "duplicate key",
        "other dim", "other provider", "float32", "object keys",
    ])
    def test_forged_sidecar_with_matching_digest(self, tmp_path, forgery):
        path = tmp_path / "store.jsonl"
        store = self.write(path)
        load_sentence_embeddings(path)
        members = self.members(path)
        vectors, keys = members["vectors"].copy(), members["keys"].copy()
        if forgery in ("nan", "inf", "-inf"):
            vectors[5, 2] = float(forgery)
        elif forgery == "extra column":
            vectors = np.hstack([vectors, vectors[:, :1]])
        elif forgery == "missing row":
            vectors = vectors[:-1]
        elif forgery == "duplicate key":
            keys[1] = keys[0]
        elif forgery == "other dim":
            vectors, members["dim"] = vectors[:, :3].copy(), np.array(3)
        elif forgery == "other provider":
            members["provider"] = np.array("other")
        elif forgery == "float32":
            vectors = vectors.astype(np.float32)
        else:
            keys = np.arange(len(keys))
        members.update(vectors=vectors, keys=keys)
        with self.sidecar(path).open("wb") as fh:
            np.savez(fh, **members)
        assert_same_store(load_sentence_embeddings(path), store)

    def test_empty_store_loads_through_its_sidecar(self, tmp_path, monkeypatch):
        # the finiteness check of a sidecar with no vectors passes
        path = tmp_path / "empty.jsonl"
        store = SentenceEmbeddingStore(entries={}, dim=4, provider_name="test")
        save_sentence_embeddings(store, path)
        assert_same_store(load_sentence_embeddings(path), store)
        assert self.members(path)["vectors"].shape == (0, 4)
        assert_same_store(warm_load(path, monkeypatch), store)

    @pytest.mark.parametrize("fails", ["savez", "replace"])
    def test_unwritable_sidecar_still_loads(self, tmp_path, monkeypatch, fails):
        def refuse(*args, **kwargs):
            raise PermissionError("read-only directory")

        path = tmp_path / "store.jsonl"
        store = self.write(path)
        if fails == "savez":
            real_savez = np.savez

            def half_written(fh, **members):  # leaves a partial temp file, then fails
                real_savez(fh, **members)
                refuse()
            monkeypatch.setattr(np, "savez", half_written)
        else:
            monkeypatch.setattr(os, "replace", refuse)
        for _ in range(2):
            assert_same_store(load_sentence_embeddings(path), store)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["store.jsonl"]

    @pytest.mark.parametrize("line, error", [
        ('{"key": "d#9", "vector": [1, 2, 3]}', DimMismatch),
        ('{"key": "d0#0", "vector": [1, 2, 3, 4]}', DuplicateKey),
        ('{"key": "d#9", "vector": [1, NaN, 3, 4]}', MalformedRecord),
        ('{"key": "d#9", "vector": [1, "x", 3, 4]}', MalformedRecord),
        ('{"key": "d#9"}', MalformedRecord),
        ("not json", MalformedRecord),
    ])
    def test_malformed_jsonl_raises_every_load_and_writes_no_sidecar(self, tmp_path, line, error):
        path = tmp_path / "store.jsonl"
        self.write(path)
        with path.open("a") as fh:
            fh.write(line + "\n")
        for _ in range(2):
            with pytest.raises(error, match=rf"^store\.jsonl:{len(self.KEYS) + 2}: "):
                load_sentence_embeddings(path)
        assert not self.sidecar(path).exists()

    def test_malformed_header_raises_with_a_current_sidecar(self, tmp_path):
        # a sidecar whose digest matches a malformed file was not written by
        # the loader; the header's own error is raised, as by the parse
        path = tmp_path / "store.jsonl"
        path.write_text('{"provider": "t", "dim": "2"}\n')
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        with self.sidecar(path).open("wb") as fh:
            np.savez(fh, keys=np.array([], dtype=str), vectors=np.zeros((0, 2)), dim=2, provider="t",
                     size=path.stat().st_size, sha256=digest)
        with pytest.raises(MalformedRecord, match="header dim '2' is not a positive integer"):
            load_sentence_embeddings(path)

    def test_key_ending_in_nul_survives_every_load(self, tmp_path):
        # a NumPy string array drops trailing NULs, so such a store gets no sidecar
        path = tmp_path / "store.jsonl"
        store = SentenceEmbeddingStore(entries={"d#0\x00": np.ones(2), "d#0": np.zeros(2)}, dim=2)
        save_sentence_embeddings(store, path)
        for _ in range(2):
            assert_same_store(load_sentence_embeddings(path), store)
        assert not self.sidecar(path).exists()

    def test_file_grown_during_parse_is_refused(self, tmp_path, monkeypatch):
        path = tmp_path / "store.jsonl"
        self.write(path)
        monkeypatch.setattr(embeddings, "_chunks", lambda fh: iter([b"\n"]))  # room for one record
        with pytest.raises(MalformedRecord, match=r"store\.jsonl:3: the file grew while it was read"):
            load_sentence_embeddings(path)
        assert not self.sidecar(path).exists()


def reference_parse(path):
    """The store a JSONL file describes, read with json alone."""
    lines = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
    entries = {r["key"]: np.array(r["vector"], dtype=float) for r in lines[1:]}
    return SentenceEmbeddingStore(entries=entries, dim=lines[0]["dim"], provider_name=lines[0]["provider"])
