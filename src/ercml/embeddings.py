"""Per-utterance vector providers.

Two sources, both frozen with respect to training:

* sentence-embedding stores loaded from offline JSON-lines exports
  (the contextual model's input; embedding models are never run here).
  The first load parses the JSONL and writes a binary sidecar,
  `<store>.jsonl.npz`, which later loads read while it records the
  JSONL's current size and SHA-256. Either way a store's vectors are
  the read-only rows of one contiguous `(N, dim)` array,
* a deterministic hash embedder used as a dependency-free stand-in for
  desk-scale tests and demos.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import zipfile
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .corpus import Corpus, utt_key, write_atomic
from .errors import (
    DimMismatch,
    DuplicateKey,
    MalformedRecord,
    MissingEmbedding,
    MissingFile,
)


def hash_embed(text: str, dim: int, seed: int = 0) -> np.ndarray:
    """Deterministic unit-norm vector derived from (text, dim, seed).

    Stable across processes (seeded from a blake2b digest, not Python's
    salted hash). Distinct texts collide only by hash chance.
    """
    if dim < 1:
        raise DimMismatch(f"dim must be >= 1, got {dim}")
    digest = hashlib.blake2b(
        text.encode("utf-8") + b"\x00" + str(seed).encode("ascii"),
        digest_size=16,
    ).digest()
    rng = np.random.Generator(np.random.PCG64(int.from_bytes(digest, "big")))
    vec = rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


@dataclass(frozen=True)
class SentenceEmbeddingStore:
    """Frozen utterance-key -> vector map from an offline embedding export."""

    entries: dict[str, np.ndarray]
    dim: int
    provider_name: str = "unknown"

    def __post_init__(self):
        for key, vec in self.entries.items():
            if vec.shape != (self.dim,):
                raise DimMismatch(f"key {key!r} has dim {vec.shape[0]}, store dim is {self.dim}")
            vec.flags.writeable = False

    def __len__(self) -> int:
        return len(self.entries)

    def get(self, dialog_id: str, index: int) -> np.ndarray:
        key = utt_key(dialog_id, index)
        vec = self.entries.get(key)
        if vec is None:
            raise MissingEmbedding(f"store {self.provider_name!r} has no vector for {key!r}")
        return vec

    def check_covers(self, corpus: Corpus) -> None:
        """Fail before any work on a corpus the store does not cover.

        Raises:
            MissingEmbedding: naming the first missing utterance key and
                how many are missing.
        """
        keys = (utt_key(d.id, u.index) for d, u in corpus.iter_utterances())
        missing = [key for key in keys if key not in self.entries]
        if missing:
            raise MissingEmbedding(
                f"store {self.provider_name!r} lacks {len(missing)} utterance vector(s) "
                f"of the {corpus.split} split, first {missing[0]!r}"
            )


def load_sentence_embeddings(path: str | Path) -> SentenceEmbeddingStore:
    """Load the JSON-lines exchange format, from its sidecar when that is current.

    The first non-blank line is a header object with `provider` and `dim`;
    every other non-blank line is `{"key": "...", "vector": [...]}`.

    The sidecar `<path>.npz` (`store.jsonl.npz` beside `store.jsonl`) is
    used when it records this file's size and SHA-256, its `dim` and
    `provider` equal the header's, and it holds unique keys and finite
    float64 vectors of that dim. Otherwise the JSONL is parsed, and the
    sidecar is written for the next load if its directory allows.

    Raises:
        MissingFile: no file at `path`.
        MalformedRecord: missing header, a `dim` that is not a positive
            JSON integer, bad JSON, missing fields, a non-numeric or
            non-finite coordinate, or a file that grew while it was
            read. Messages count lines from 1.
        DimMismatch: a vector disagrees with the header dim.
        DuplicateKey: the same utterance key appears twice.
    """
    path = Path(path)
    if not path.is_file():
        raise MissingFile(f"embedding store not found: {path}")
    sidecar = path.with_name(path.name + ".npz")
    store = _load_sidecar(path, sidecar)
    if store is not None:
        return store
    keys, vectors, dim, provider, size, digest = _parse_jsonl(path)
    names = np.array(keys, dtype=str)
    if names.tolist() == keys:  # false only for a key ending in NUL, which the array drops
        with contextlib.suppress(OSError):  # a read-only directory or a full disk: the next load parses again
            write_atomic(sidecar, lambda fh: np.savez(
                fh, keys=names, vectors=vectors, dim=dim, provider=provider, size=size, sha256=digest))
    return _contiguous_store(keys, vectors, dim, provider)


def _contiguous_store(keys: list[str], vectors: np.ndarray, dim: int, provider: str) -> SentenceEmbeddingStore:
    """A store whose entries are the read-only rows of one `(N, dim)` array."""
    vectors.flags.writeable = False
    return SentenceEmbeddingStore(entries=dict(zip(keys, vectors)), dim=dim, provider_name=provider)


def _chunks(fh: BinaryIO) -> Iterator[bytes]:
    return iter(lambda: fh.read(1 << 20), b"")


def _non_blank(fh: BinaryIO, sha=None) -> Iterator[tuple[int, bytes]]:
    """`(line number from 1, stripped line)` of each non-blank line; every
    line read, blank ones too, is fed to `sha` when one is given.

    The store and the LLM harness's replay fixture both read their
    JSON-lines files through this and `_decode`.
    """
    for lineno, raw in enumerate(fh, start=1):
        if sha is not None:
            sha.update(raw)
        if line := raw.strip():
            yield lineno, line


def _decode(line: bytes, name: str, lineno: int):
    try:
        return json.loads(line)
    except ValueError:  # not JSON, or not UTF-8
        raise MalformedRecord(f"{name}:{lineno}: invalid JSON") from None


def _header(lines: Iterator[tuple[int, bytes]], name: str) -> tuple[int, str]:
    """`(dim, provider)` from the first of `lines`."""
    first = next(lines, None)
    if first is None:
        raise MalformedRecord(f"{name}: empty embedding file (header required)")
    lineno, line = first
    record = _decode(line, name, lineno)
    if not isinstance(record, dict) or "dim" not in record:
        raise MalformedRecord(f"{name}:{lineno}: first non-blank line must be a header with 'dim'")
    dim = record["dim"]
    if type(dim) is not int or dim < 1:
        raise MalformedRecord(f"{name}:{lineno}: header dim {dim!r} is not a positive integer")
    return dim, str(record.get("provider", "unknown"))


def _parse_jsonl(path: Path) -> tuple[list[str], np.ndarray, int, str, int, str]:
    """The validating parse: `(keys, vectors, dim, provider, size, sha256)`,
    where size and digest are those of the bytes parsed."""
    name, sha = path.name, hashlib.sha256()
    with path.open("rb") as fh:
        capacity = sum(chunk.count(b"\n") for chunk in _chunks(fh))  # records < lines <= newlines + 1
        fh.seek(0)
        lines = _non_blank(fh, sha)
        dim, provider = _header(lines, name)
        vectors = np.empty((capacity, dim))
        keys: dict[str, None] = {}  # insertion-ordered set
        for lineno, line in lines:
            record = _decode(line, name, lineno)
            if not isinstance(record, dict) or "key" not in record or "vector" not in record:
                raise MalformedRecord(f"{name}:{lineno}: record needs 'key' and 'vector'")
            key = str(record["key"])
            try:
                vec = np.asarray(record["vector"], dtype=float)
            except (TypeError, ValueError):
                raise MalformedRecord(f"{name}:{lineno}: non-numeric coordinate") from None
            if vec.ndim != 1 or vec.shape[0] != dim:
                raise DimMismatch(f"{name}:{lineno}: vector dim {vec.shape} != header dim {dim}")
            if not np.all(np.isfinite(vec)):
                raise MalformedRecord(f"{name}:{lineno}: non-finite coordinate")
            if key in keys:
                raise DuplicateKey(f"{name}:{lineno}: duplicate key {key!r}")
            if len(keys) == capacity:
                raise MalformedRecord(f"{name}:{lineno}: the file grew while it was read")
            vectors[len(keys)] = vec
            keys[key] = None
        size = fh.tell()
    return list(keys), vectors[:len(keys)], dim, provider, size, sha.hexdigest()


def _all_finite(vectors: np.ndarray) -> bool:
    """Whether no value is NaN or infinite, without an `isfinite` mask the
    size of `vectors`: a NaN makes the minimum and maximum NaN, and an
    infinity is one of them."""
    return vectors.size == 0 or bool(np.isfinite(vectors.min()) and np.isfinite(vectors.max()))


def _load_sidecar(path: Path, sidecar: Path) -> SentenceEmbeddingStore | None:
    """The store held by `sidecar`, or None when there is none, it cannot
    be read, it was written from other bytes than `path` holds now, or it
    fails a check. A malformed header raises what the parse would."""
    try:
        with np.load(sidecar, allow_pickle=False) as npz:
            keys, vectors, dim, provider, size, digest = (
                npz[member] for member in ("keys", "vectors", "dim", "provider", "size", "sha256"))
    except (OSError, ValueError, KeyError, TypeError, EOFError, zipfile.BadZipFile):
        return None
    if size.tolist() != path.stat().st_size:
        return None
    sha = hashlib.sha256()
    with path.open("rb") as fh:
        header = _header(_non_blank(fh, sha), path.name)
        for chunk in _chunks(fh):
            sha.update(chunk)
    if (digest.tolist() != sha.hexdigest() or (dim.tolist(), provider.tolist()) != header
            or keys.dtype.kind != "U" or keys.ndim != 1
            or vectors.dtype != np.float64 or vectors.shape != (len(keys), header[0])
            or not _all_finite(vectors)):
        return None
    keys = keys.tolist()
    if len(set(keys)) != len(keys):
        return None
    return _contiguous_store(keys, vectors, dim.tolist(), provider.tolist())


def save_sentence_embeddings(store: SentenceEmbeddingStore, path: str | Path) -> Path:
    """Write a store in the JSON-lines exchange format (header first)."""
    def write(fh: BinaryIO) -> None:
        fh.write(json.dumps({"provider": store.provider_name, "dim": store.dim}).encode() + b"\n")
        for key, vec in store.entries.items():
            fh.write(json.dumps({"key": key, "vector": vec.tolist()}).encode() + b"\n")
    return write_atomic(path, write)


def hash_store_for_corpus(
    corpus: Corpus, dim: int = 16, seed: int = 0, provider_name: str = "hash"
) -> SentenceEmbeddingStore:
    """Deterministic store covering a corpus, built from the hash embedder.

    Vectors depend on utterance text only, mirroring a real frozen
    sentence encoder (same text in two dialogs gets the same vector).
    """
    entries = {
        utt_key(d.id, u.index): hash_embed(u.text, dim, seed=seed)
        for d, u in corpus.iter_utterances()
    }
    return SentenceEmbeddingStore(entries=entries, dim=dim, provider_name=provider_name)
