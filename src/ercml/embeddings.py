"""Per-utterance vector providers.

Three sources, all frozen with respect to training:

* sentence-embedding stores loaded from offline JSON-lines exports
  (the contextual model's input; embedding models are never run here),
* word-vector tables for the isolated baseline (FastText-style text
  format: token followed by its coordinates),
* a deterministic hash embedder used as a dependency-free stand-in for
  desk-scale tests and demos.
"""

from __future__ import annotations

import hashlib
import json
import string
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Corpus, Utterance, utt_key
from .errors import (
    DimMismatch,
    DuplicateKey,
    EmptySequence,
    MalformedRecord,
    MissingEmbedding,
)

STORE_FORMAT_VERSION = 1

_PUNCT = set(string.punctuation)


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


def tokenize(text: str) -> list[str]:
    """Lowercase whitespace tokenizer that detaches trailing punctuation.

    "Hello!!" -> ["hello", "!", "!"]. Pure-punctuation tokens are kept
    as-is ("!" stays one token).
    """
    tokens: list[str] = []
    for raw in text.lower().split():
        tail: list[str] = []
        while len(raw) > 1 and raw[-1] in _PUNCT:
            tail.append(raw[-1])
            raw = raw[:-1]
        tokens.append(raw)
        tokens.extend(reversed(tail))
    return tokens


@dataclass(frozen=True)
class WordEmbeddingTable:
    """Token -> vector lookup with a declared out-of-vocabulary policy."""

    vocabulary: dict[str, np.ndarray]
    dim: int
    oov_policy: str = "hashed"  # "zero" or "hashed"
    oov_seed: int = 0

    def __post_init__(self):
        if self.oov_policy not in ("zero", "hashed"):
            raise ValueError(f"oov_policy must be 'zero' or 'hashed', got {self.oov_policy!r}")
        for token, vec in self.vocabulary.items():
            if vec.shape != (self.dim,):
                raise DimMismatch(
                    f"token {token!r} has dim {vec.shape}, table dim is {self.dim}"
                )
            vec.flags.writeable = False

    def lookup(self, token: str) -> np.ndarray:
        vec = self.vocabulary.get(token)
        if vec is not None:
            return vec
        if self.oov_policy == "zero":
            return np.zeros(self.dim)
        return hash_embed(token, self.dim, seed=self.oov_seed)


def load_word_table(
    path: str | Path, oov_policy: str = "hashed", oov_seed: int = 0
) -> WordEmbeddingTable:
    """Read the common word-vector text format: token then d floats per line."""
    path = Path(path)
    vocabulary: dict[str, np.ndarray] = {}
    dim: int | None = None
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh):
            parts = line.rstrip("\n").split(" ")
            if len(parts) < 2:
                raise MalformedRecord(f"{path.name}:{lineno}: expected token and floats")
            token, values = parts[0], parts[1:]
            try:
                vec = np.array([float(v) for v in values])
            except ValueError:
                raise MalformedRecord(f"{path.name}:{lineno}: non-numeric coordinate") from None
            if dim is None:
                dim = vec.shape[0]
            elif vec.shape[0] != dim:
                raise DimMismatch(f"{path.name}:{lineno}: dim {vec.shape[0]} != {dim}")
            if token in vocabulary:
                raise DuplicateKey(f"{path.name}:{lineno}: duplicate token {token!r}")
            vocabulary[token] = vec
    if dim is None:
        raise MalformedRecord(f"{path.name}: empty word table")
    return WordEmbeddingTable(vocabulary=vocabulary, dim=dim, oov_policy=oov_policy, oov_seed=oov_seed)


def embed_words(utterance: Utterance, table: WordEmbeddingTable) -> np.ndarray:
    """One vector per token, in token order; OOV handled per table policy.

    Returns shape (n_tokens, dim). The Utterance invariant (non-empty
    text) guarantees at least one token.
    """
    tokens = tokenize(utterance.text)
    return np.stack([table.lookup(tok) for tok in tokens])


def mean_pool(vectors: np.ndarray) -> np.ndarray:
    """Coordinate-wise arithmetic mean of a (n, d) stack of vectors."""
    vectors = np.asarray(vectors, dtype=float)
    if vectors.ndim != 2 or vectors.shape[0] == 0:
        raise EmptySequence("mean_pool requires a non-empty (n, d) array")
    return vectors.mean(axis=0)


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
