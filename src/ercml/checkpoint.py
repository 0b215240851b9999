"""Self-describing checkpoint container.

A checkpoint is an .npz archive holding named float64 tensors plus one
JSON metadata entry carrying the format version, the checkpoint kind,
the seed, and a verbatim config echo. Tensors are namespaced with dots
("encoder.0.w_q", "classifier.head.w") so composite models flatten
cleanly. Version 2 dropped the emotion head's query/key/separator
tensors, and version 3 the encoder's key bias, which softmax attention
cannot see; files of any other version are rejected, not converted.
Within version 3, deeper encoder layers later dropped the separator
they never read. Single-layer files did not change, so the version did
not either; an earlier multi-layer file holds `encoder.<i>.sep` for
i >= 1, which the loader rejects as an unexpected tensor. A pretrained
head (kind "classifier") later began to record its store provider; an
earlier one reads as provider "unknown", as does a store header without one.
"""

from __future__ import annotations

import json
import zipfile
from pathlib import Path

import numpy as np

from .corpus import write_atomic
from .errors import CheckpointError

FORMAT_VERSION = 3
_META_KEY = "__meta__"


def save_checkpoint(
    path: str | Path,
    kind: str,
    tensors: dict[str, np.ndarray],
    meta: dict | None = None,
) -> Path:
    """Write tensors plus metadata to exactly `path`, whole or not at all;
    parent directories are created."""
    payload = dict(meta or {})
    payload["format_version"] = FORMAT_VERSION
    payload["kind"] = kind
    payload["tensor_names"] = sorted(tensors)
    arrays = {f"t::{name}": np.asarray(arr, dtype=float) for name, arr in tensors.items()}
    arrays[_META_KEY] = np.array(json.dumps(payload, sort_keys=True))
    return write_atomic(path, lambda fh: np.savez(fh, **arrays))


def load_checkpoint(path: str | Path, expect_kind: str | None = None):
    """Read a checkpoint; returns (kind, tensors dict, meta dict).

    Raises:
        CheckpointError: file absent/unreadable, not a checkpoint, its
            metadata not a JSON object, or of a different kind than
            expected.
    """
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint not found: {path}")
    try:
        with np.load(path, allow_pickle=False) as archive:
            if _META_KEY not in archive:
                raise CheckpointError(f"{path} is not an ercml checkpoint (no metadata entry)")
            meta = json.loads(str(archive[_META_KEY]))
            tensors = {
                key[len("t::"):]: archive[key] for key in archive.files if key.startswith("t::")
            }
    except (ValueError, OSError, EOFError, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path}: metadata is a JSON {type(meta).__name__}, not an object")
    if meta.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: format version {meta.get('format_version')} != {FORMAT_VERSION}; "
            "retrain to write the current format"
        )
    kind = meta.get("kind", "")
    if expect_kind is not None and kind != expect_kind:
        raise CheckpointError(f"{path}: checkpoint kind {kind!r}, expected {expect_kind!r}")
    return kind, tensors, meta


def json_int(value) -> int:
    """`value` if it is a JSON integer; a float, bool or string is not.

    Raises:
        TypeError: `value` is not an integer.
    """
    if type(value) is not int:
        raise TypeError(f"{value!r} is not an integer")
    return value


def json_object(value) -> dict:
    """`value` if it is a JSON object; raises TypeError if not."""
    if not isinstance(value, dict):
        raise TypeError(f"{value!r} is not an object")
    return value


def json_string(value) -> str:
    """`value` if it is a JSON string; raises TypeError if not."""
    if not isinstance(value, str):
        raise TypeError(f"{value!r} is not a string")
    return value


def meta_entry(meta: dict, key: str, kind=json_int, default=None):
    """`kind(meta[key])`: a size, the label space, a nested section; or
    `default`, if one is given, when the entry is absent.

    Raises:
        CheckpointError: the entry is absent with no default, or `kind`
            rejects it with a TypeError or ValueError.
    """
    if key not in meta:
        if default is not None:
            return default
        raise CheckpointError(f"checkpoint metadata lacks {key!r}")
    try:
        return kind(meta[key])
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint metadata {key!r} is malformed: {exc}") from None


def checked_tensor(tensors: dict[str, np.ndarray], name: str, shape: tuple[int, ...]) -> np.ndarray:
    """A copy of `tensors[name]`.

    Raises:
        CheckpointError: the tensor is absent, not of `shape`, not
            float64, or holds a NaN or an infinity.
    """
    arr = tensors.get(name)
    if arr is None:
        raise CheckpointError(f"checkpoint lacks tensor {name!r}")
    if arr.shape != shape:
        raise CheckpointError(f"checkpoint tensor {name!r} has shape {arr.shape}, expected {shape}")
    if arr.dtype != np.float64:
        raise CheckpointError(f"checkpoint tensor {name!r} has dtype {arr.dtype}, expected float64")
    if not np.isfinite(arr).all():
        raise CheckpointError(f"checkpoint tensor {name!r} holds a NaN or an infinity")
    return arr.copy()


def reject_unknown_tensors(tensors: dict[str, np.ndarray], known: dict[str, np.ndarray]) -> None:
    """Raises CheckpointError if `tensors` holds a name outside `known`."""
    unknown = sorted(set(tensors) - set(known))
    if unknown:
        raise CheckpointError(f"checkpoint holds unexpected tensors {unknown}")
