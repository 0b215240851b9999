"""The benchmark's traced run wraps program entry points by name
(`perfbench/layers.py`); every name it looks up must still exist, and
uninstalling must put the originals back. perfbench/ is only read."""

from __future__ import annotations

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_layers_install_and_uninstall(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    tracer = importlib.import_module("tracing").Tracer()
    try:
        layers.install(tracer)
        installed = list(tracer._installed)
        assert installed
        assert all(getattr(owner, attr) is not original for owner, attr, original in installed)
    finally:
        tracer.uninstall()
    for owner, attr, original in installed:
        assert getattr(owner, attr) is original, f"{owner}.{attr} not restored"
