"""The benchmark's traced run wraps program entry points by name
(`perfbench/layers.py`); every name it looks up must still exist, and
uninstalling must put the originals back. The benchmark's driver
(`perfbench/run.py`) calls the package by name too; every name must exist
and take the keywords it passes. perfbench/ is only read."""

from __future__ import annotations

import ast
import functools
import importlib
import inspect
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


def program_calls(source: str) -> tuple[list[list[str]], list[tuple[list[str], ast.Call]]]:
    """The attribute chains `run.py` reads from the `ercml` package, as it
    names it (`ercml.X`, `e.X`, `self.e.X`), and the calls among them."""
    def chain(node) -> list[str] | None:
        names = []
        while isinstance(node, ast.Attribute):
            names.insert(0, node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id == "self" and names[:1] == ["e"]:
            return names[1:]
        return names if isinstance(node, ast.Name) and node.id in ("e", "ercml") else None

    tree = ast.parse(source)
    chains = [c for node in ast.walk(tree) if isinstance(node, ast.Attribute) and (c := chain(node))]
    calls = [(c, node) for node in ast.walk(tree) if isinstance(node, ast.Call) and (c := chain(node.func))]
    return chains, calls


def test_benchmark_calls_names_and_keywords_that_exist():
    """`perfbench/run.py` calls the package by name; `make bench-smoke`,
    outside this suite, would be the first to see one of them go."""
    import ercml

    chains, calls = program_calls((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    assert ["pretrain_classifier"] in [c for c, _ in calls] and ["predict"] in chains
    for names in chains:
        functools.reduce(getattr, names, ercml)  # AttributeError names what is gone
    for names, call in calls:
        if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
            continue
        target = functools.reduce(getattr, names, ercml)
        inspect.signature(target).bind(*call.args, **{k.arg: None for k in call.keywords})
