"""Per-utterance vector providers.

Two sources, both frozen with respect to training:

* sentence-embedding stores loaded from offline JSON-lines exports
  (the contextual model's input; embedding models are never run here),
* a deterministic hash embedder used as a dependency-free stand-in for
  desk-scale tests and demos.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Corpus, utt_key
from .errors import (
    DimMismatch,
    DuplicateKey,
    MalformedRecord,
    MissingEmbedding,
)

STORE_FORMAT_VERSION = 1


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
    norm = np.linalg.norm(vec)
    if norm == 0.0:  # unreachable in practice; standard_normal of dim>=1
        vec[0] = 1.0
        norm = 1.0
    return vec / norm


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

    def content_digest(self) -> str:
        """Order-independent digest of all entries; used to assert frozen-ness."""
        h = hashlib.sha256()
        for key in sorted(self.entries):
            h.update(key.encode("utf-8"))
            h.update(np.ascontiguousarray(self.entries[key]).tobytes())
        return h.hexdigest()


def load_sentence_embeddings(path: str | Path) -> SentenceEmbeddingStore:
    """Load the JSON-lines exchange format.

    First line is a header object with `provider` and `dim`; every other
    line is `{"key": "...", "vector": [...]}`.

    Raises:
        MalformedRecord: missing header, bad JSON, or missing fields.
        DimMismatch: a vector disagrees with the header dim.
        DuplicateKey: the same utterance key appears twice.
    """
    path = Path(path)
    entries: dict[str, np.ndarray] = {}
    provider = "unknown"
    dim: int | None = None
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                raise MalformedRecord(f"{path.name}:{lineno}: invalid JSON") from None
            if lineno == 0:
                if "dim" not in record:
                    raise MalformedRecord(f"{path.name}: first line must be a header with 'dim'")
                dim = int(record["dim"])
                provider = str(record.get("provider", "unknown"))
                continue
            if "key" not in record or "vector" not in record:
                raise MalformedRecord(f"{path.name}:{lineno}: record needs 'key' and 'vector'")
            key = str(record["key"])
            vec = np.asarray(record["vector"], dtype=float)
            if vec.ndim != 1 or vec.shape[0] != dim:
                raise DimMismatch(f"{path.name}:{lineno}: vector dim {vec.shape} != header dim {dim}")
            if not np.all(np.isfinite(vec)):
                raise MalformedRecord(f"{path.name}:{lineno}: non-finite coordinate")
            if key in entries:
                raise DuplicateKey(f"{path.name}:{lineno}: duplicate key {key!r}")
            entries[key] = vec
    if dim is None:
        raise MalformedRecord(f"{path.name}: empty embedding file (header required)")
    return SentenceEmbeddingStore(entries=entries, dim=dim, provider_name=provider)


def save_sentence_embeddings(store: SentenceEmbeddingStore, path: str | Path) -> Path:
    """Write a store in the JSON-lines exchange format (header first)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps({"provider": store.provider_name, "dim": store.dim}) + "\n")
        for key in store.entries:
            fh.write(json.dumps({"key": key, "vector": store.entries[key].tolist()}) + "\n")
    return path


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
