from __future__ import annotations

from pathlib import Path

import pytest

from ercml.corpus import load_split
from ercml.embeddings import hash_store_for_corpus

DATA_DIR = Path(__file__).parent / "data" / "mini"


@pytest.fixture(scope="session")
def mini_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def train_corpus():
    return load_split(DATA_DIR, "train")


@pytest.fixture(scope="session")
def store16(train_corpus):
    return hash_store_for_corpus(train_corpus, dim=16, seed=0)
