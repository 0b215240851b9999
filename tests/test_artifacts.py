"""Every finished artifact reaches disk whole or not at all: checkpoints,
the CLI's reports, stores and the store sidecar are written to a
temporary file beside the target that then replaces it."""

from __future__ import annotations

import os
import stat

import numpy as np
import pytest

from ercml import cli
from ercml.checkpoint import load_checkpoint, save_checkpoint
from ercml.embeddings import SentenceEmbeddingStore, load_sentence_embeddings, save_sentence_embeddings

STORE = SentenceEmbeddingStore(entries={"d#0": np.ones(2), "d#1": np.zeros(2)}, dim=2, provider_name="test")


def write_sidecar(path):
    """`path` is `<store>.npz`; the first load of the store writes it."""
    load_sentence_embeddings(save_sentence_embeddings(STORE, path.with_suffix("")))


# the file name each writer makes, and how to make it
WRITERS = {
    "metrics.json": lambda path: cli._write_text(path, "{}\n"),
    "model.npz": lambda path: save_checkpoint(path, "contextual", {"w": np.ones(2)}),
    "store.jsonl": lambda path: save_sentence_embeddings(STORE, path),
    "store.jsonl.npz": write_sidecar,
}


def refuse(*args, **kwargs):
    raise PermissionError("refused")


def test_failed_checkpoint_save_keeps_the_previous_file(tmp_path, monkeypatch):
    path = save_checkpoint(tmp_path / "model.npz", "contextual", {"w": np.zeros(3)})
    before = path.read_bytes()
    real_savez = np.savez

    def half_written(target, **arrays):  # writes a whole archive, then fails
        real_savez(target, **arrays)
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", half_written)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, "contextual", {"w": np.ones(3)})
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.npz"]


def test_refused_replace_keeps_the_previous_report(tmp_path, monkeypatch):
    path = tmp_path / "run" / "metrics.json"
    cli._write_text(path, '{"mcc": 0.5}\n')
    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(PermissionError):
        cli._write_text(path, '{"mcc": 0.1}\n')
    assert path.read_text(encoding="utf-8") == '{"mcc": 0.5}\n'
    assert os.listdir(path.parent) == ["metrics.json"]


def test_checkpoint_is_written_to_exactly_the_path_given(tmp_path):
    path = save_checkpoint(tmp_path / "model", "contextual", {"w": np.arange(3.0)})
    assert path == tmp_path / "model"
    kind, tensors, _ = load_checkpoint(path)
    assert kind == "contextual"
    np.testing.assert_array_equal(tensors["w"], np.arange(3.0))
    assert os.listdir(tmp_path) == ["model"]


@pytest.mark.parametrize("name", WRITERS)
def test_leftover_temp_file_does_not_block_a_write(tmp_path, name):
    # what a killed process could leave, under this process's id
    leftovers = {f"{name}.{os.getpid()}.tmp", f".{name}.{os.getpid()}.tmp"}
    for leftover in leftovers:
        (tmp_path / leftover).write_bytes(b"partial")
    WRITERS[name](tmp_path / name)
    assert (tmp_path / name).is_file()
    assert leftovers <= set(os.listdir(tmp_path))


@pytest.mark.parametrize("name", WRITERS)
def test_new_file_mode_follows_the_umask(tmp_path, name):
    umask = os.umask(0o027)
    try:
        WRITERS[name](tmp_path / name)
    finally:
        os.umask(umask)
    assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o640
