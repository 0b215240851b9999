"""Helpers that only the tests call; the program never does.

`write_split` writes a corpus back to the DailyDialog file pair,
`weighted_cross_entropy` is `ce_loss_and_grad`'s loss on one row, and
`content_digest` fingerprints a store's entries.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from ercml.classifier import ce_loss_and_grad
from ercml.corpus import EOU, Corpus
from ercml.embeddings import SentenceEmbeddingStore


def write_split(corpus: Corpus, directory: str | Path) -> tuple[Path, Path]:
    """Serialize a corpus to the flattened file-pair format.

    Round-trips with `load_split`: re-parsing the written files yields an
    identical corpus.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    text_path = directory / f"dialogues_{corpus.split}.txt"
    label_path = directory / f"dialogues_emotion_{corpus.split}.txt"
    with text_path.open("w", encoding="utf-8") as tf, label_path.open("w", encoding="utf-8") as lf:
        for dialog in corpus.dialogs:
            tf.write(f" {EOU} ".join(u.text for u in dialog.utterances) + f" {EOU}\n")
            lf.write(" ".join(str(u.label) for u in dialog.utterances) + "\n")
    return text_path, label_path


def weighted_cross_entropy(
    logits: np.ndarray,
    target: int,
    weights: dict[int, float],
    label_space: tuple[int, ...],
) -> float:
    """-w(target) * log softmax(logits)[target]. Labels absent from
    `weights` default to weight 1.

    Raises:
        BadTarget: target not in the label space.
    """
    return ce_loss_and_grad(np.asarray(logits, dtype=float)[None], [target], weights, label_space)[0]


def content_digest(store: SentenceEmbeddingStore) -> str:
    """Order-independent digest of all entries; used to assert frozen-ness."""
    h = hashlib.sha256()
    for key in sorted(store.entries):
        h.update(key.encode("utf-8"))
        h.update(np.ascontiguousarray(store.entries[key]).tobytes())
    return h.hexdigest()
