#!/usr/bin/env python3
"""Utterance vector providers: frozen stores and the hash embedder.

The training code never runs an embedding model; it reads vectors from
an exported store (or, for dependency-free experiments, from the
deterministic hash embedder used throughout the tests).
"""

import tempfile
from pathlib import Path

import numpy as np

from ercml import (
    hash_embed,
    hash_store_for_corpus,
    load_sentence_embeddings,
    load_split,
    save_sentence_embeddings,
)

DATA = Path(__file__).parent.parent / "tests" / "data" / "mini"

# The hash embedder: deterministic, unit-norm, no model weights needed.
vec = hash_embed("I am absolutely delighted !", dim=16, seed=0)
again = hash_embed("I am absolutely delighted !", dim=16, seed=0)
print(f"hash_embed dim={vec.shape[0]}, norm={np.linalg.norm(vec):.6f}, "
      f"deterministic={np.array_equal(vec, again)}")

# A store covering a whole corpus, written to the JSON-lines exchange
# format and read back.
corpus = load_split(DATA, "train")
store = hash_store_for_corpus(corpus, dim=16, seed=0, provider_name="hash-demo")
with tempfile.TemporaryDirectory() as td:
    path = save_sentence_embeddings(store, Path(td) / "store.jsonl")
    header, first = path.read_text().splitlines()[:2]
    print(f"\nexport header: {header}")
    print(f"first record:  {first[:70]}...")
    reloaded = load_sentence_embeddings(path)
    print(f"reloaded {len(reloaded)} vectors, dim {reloaded.dim}, "
          f"provider {reloaded.provider_name!r}")

