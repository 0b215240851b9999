from __future__ import annotations

import io
import json
import zipfile
from pathlib import Path

import numpy as np
import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture
def byte_identity(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import byte_identity

    return byte_identity


def write_npz(path: Path, members: dict[str, bytes], date_time: tuple[int, ...]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with zipfile.ZipFile(path, "w") as archive:
        for name, data in members.items():
            archive.writestr(zipfile.ZipInfo(name, date_time=date_time), data)


class TestCompare:
    def test_npz_compared_by_member_not_by_container(self, byte_identity, tmp_path):
        parent, change = tmp_path / "parent", tmp_path / "change"
        members = {"t::w.npy": b"\x01\x02", "__meta__.npy": b"{}"}
        write_npz(parent / "run" / "model.npz", members, (2020, 1, 1, 0, 0, 0))
        write_npz(change / "run" / "model.npz", members, (2024, 6, 1, 12, 0, 0))
        assert (parent / "run" / "model.npz").read_bytes() != (change / "run" / "model.npz").read_bytes()
        assert byte_identity.compare(parent, change) == []

        write_npz(change / "run" / "model.npz", {**members, "t::w.npy": b"\x01\x03"}, (2020, 1, 1, 0, 0, 0))
        assert byte_identity.compare(parent, change) == ["run/model.npz: members differ: t::w.npy"]

        # a numeric member is reported with how far apart it is
        def npy(arr) -> bytes:
            buf = io.BytesIO()
            np.save(buf, np.asarray(arr))
            return buf.getvalue()

        write_npz(parent / "run" / "model.npz", {**members, "t::w.npy": npy([-4.0, 1.0])}, (2020, 1, 1, 0, 0, 0))
        write_npz(change / "run" / "model.npz", {**members, "t::w.npy": npy([-4.0, 1.5])}, (2020, 1, 1, 0, 0, 0))
        assert byte_identity.compare(parent, change) == [
            "run/model.npz: members differ: t::w.npy (max abs 0.5, max rel 0.125)"
        ]

    def test_metadata_member_names_the_keys_that_differ(self, byte_identity, tmp_path):
        parent, change = tmp_path / "parent", tmp_path / "change"

        def meta(doc) -> bytes:
            buf = io.BytesIO()
            np.save(buf, np.array(json.dumps(doc, sort_keys=True)))
            return buf.getvalue()

        before = {"format_version": 3, "kind": "classifier", "seed": 7}
        write_npz(parent / "pre" / "classifier.npz", {"__meta__.npy": meta(before)}, (2020, 1, 1, 0, 0, 0))
        write_npz(change / "pre" / "classifier.npz", {"__meta__.npy": meta({**before, "provider": "hash"})},
                  (2020, 1, 1, 0, 0, 0))
        assert byte_identity.compare(parent, change) == [
            "pre/classifier.npz: members differ: __meta__.npy (meta keys: provider)"
        ]
        write_npz(change / "pre" / "classifier.npz", {"__meta__.npy": meta({**before, "seed": 8, "kind": "x"})},
                  (2020, 1, 1, 0, 0, 0))
        assert byte_identity.compare(parent, change) == [
            "pre/classifier.npz: members differ: __meta__.npy (meta keys: kind, seed)"
        ]

    def test_text_difference_and_missing_files(self, byte_identity, tmp_path):
        parent, change = tmp_path / "parent", tmp_path / "change"
        for root in (parent, change):
            root.mkdir()
            (root / "same.json").write_text("{}\n")
        (parent / "metrics.json").write_text('{"mcc": 0.5}\n')
        (change / "metrics.json").write_text('{"mcc": 0.25}\n')
        (parent / "only_parent.log").write_text("x\n")
        (change / "only_change.log").write_text("y\n")
        diffs = byte_identity.compare(parent, change)
        assert len(diffs) == 3
        assert diffs[0].startswith("metrics.json:") and '+{"mcc": 0.25}' in diffs[0]
        assert diffs[1:] == ["only_change.log: only in the change", "only_parent.log: only in the parent"]


class TestSrcLines:
    def test_counts_the_package_sources_per_suffix(self, byte_identity, tmp_path):
        package = tmp_path / "src" / "ercml"
        package.mkdir(parents=True)
        (package / "a.py").write_text("x = 1\ny = 2\n")
        (package / "b.py").write_text("z = 3\nno_final_newline = 4")  # counted as `wc -l` counts it
        (package / "_kernels.c").write_text("int f(void);\n")
        (package / "notes.txt").write_text("1\n2\n3\n")
        (tmp_path / "src" / "outside.py").write_text("w = 5\n")
        assert byte_identity.src_lines(tmp_path) == {"py": 3, "c": 1}
