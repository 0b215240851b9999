from __future__ import annotations

import numpy as np
import pytest

from ercml import optim
from ercml.cli import main
from ercml.corpus import Corpus, load_split
from ercml.embeddings import hash_store_for_corpus, save_sentence_embeddings
from ercml.errors import CompileError, NonContiguous, NonFinite, ReadOnlyParameter, ShapeMismatch
from ercml.optim import Adam, clip_global_norm

from reference_optim import ReferenceAdam


def tensors():
    return {"a": np.arange(4.0), "b": np.ones((2, 3))}


class TestAdam:
    @pytest.mark.parametrize("clip_norm", [1.0, None])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gradient_raises_and_changes_nothing(self, clip_norm, bad):
        params = tensors()
        opt = Adam(params, clip_norm=clip_norm)
        opt.step({"a": np.full(4, 0.5), "b": np.full((2, 3), 0.5)})
        before = {name: arr.copy() for name, arr in params.items()}
        grads = {"a": np.full(4, 0.5), "b": np.full((2, 3), 0.5)}
        grads["b"][1, 2] = bad
        with pytest.raises(NonFinite, match=r"optimizer step 2: gradient 'b'"):
            opt.step(grads)
        assert opt.t == 1
        for name, arr in params.items():
            np.testing.assert_array_equal(arr, before[name])
        assert grads["a"][0] == 0.5  # not clipped either

    def test_overflowing_norm_raises(self):
        opt = Adam(tensors())
        with pytest.raises(NonFinite, match="norm overflows"), np.errstate(over="ignore"):
            opt.step({"a": np.full(4, 1e200), "b": np.zeros((2, 3))})

    def test_norm_without_clipping(self):
        grads = {"a": np.array([3.0, 4.0])}
        assert clip_global_norm(grads, None) == 5.0
        np.testing.assert_array_equal(grads["a"], [3.0, 4.0])
        assert clip_global_norm(grads, 1.0) == 5.0
        np.testing.assert_allclose(grads["a"], [0.6, 0.8])


# Sizes that leave every vector-width tail of the compiled loop: 1, 2, 3,
# 7 and 9 elements, an odd size past the caches, and a matrix whose rows are
# of odd length. The matrix comes last, so its last element is the last
# element the step reaches.
ORACLE_SHAPES = {"one": (1,), "two": (2,), "three": (3,), "seven": (7,), "nine": (9,),
                 "large": (590_593,), "matrix": (3, 385)}


def oracle_params(seed=0):
    rng = np.random.default_rng(seed)
    return {name: rng.normal(size=shape) for name, shape in ORACLE_SHAPES.items()}


def oracle_grads(rng):
    return {name: rng.normal(scale=2.0, size=shape) for name, shape in ORACLE_SHAPES.items()}


def run_both(clip_norm, steps=30):
    """The compiled Adam and the whole-array reference, fed equal gradients."""
    params, ref_params = oracle_params(), oracle_params()
    opt = Adam(params, clip_norm=clip_norm)
    ref = ReferenceAdam(ref_params, clip_norm=clip_norm)
    rng = np.random.default_rng(1)
    norms = []
    for _ in range(steps):
        grads = oracle_grads(rng)
        ref_grads = {name: g.copy() for name, g in grads.items()}
        norms.append((clip_global_norm({n: g.copy() for n, g in grads.items()}, None), ref.step(ref_grads)))
        opt.step(grads)
    assert opt.t == ref.t == steps
    return params, ref_params, norms


def warmed_pair(steps=3):
    """An Adam and a reference after `steps` equal updates, and the rng
    that drew their gradients."""
    params, ref_params = oracle_params(), oracle_params()
    opt = Adam(params, clip_norm=None)
    ref = ReferenceAdam(ref_params, clip_norm=None)
    rng = np.random.default_rng(2)
    for _ in range(steps):
        grads = oracle_grads(rng)
        ref.step({n: g.copy() for n, g in grads.items()})
        opt.step(grads)
    return opt, params, ref, ref_params, rng


def assert_next_step_matches(opt, params, ref, ref_params, rng):
    """A refused step left the moments and `t` as they were: the next good
    step still matches the reference bit for bit."""
    grads = oracle_grads(rng)
    ref.step({n: g.copy() for n, g in grads.items()})
    opt.step(grads)
    for name, arr in params.items():
        np.testing.assert_array_equal(arr, ref_params[name])


class TestKernelOracle:
    @pytest.mark.parametrize("clip_norm", [None, 1e9])
    def test_bit_identical_when_clip_does_not_scale(self, clip_norm):
        params, ref_params, _ = run_both(clip_norm)
        for name, arr in params.items():
            assert arr.shape == ORACLE_SHAPES[name]
            np.testing.assert_array_equal(arr, ref_params[name])

    def test_scaling_clip_within_tolerance(self):
        # The gradients' norm is about 2 * sqrt(592k) ~ 1540, so a clip of 1
        # scales every step; only the order of the norm's sum differs.
        params, ref_params, norms = run_both(clip_norm=1.0)
        for norm, ref_norm in norms:
            assert norm > 1.0
            assert norm == pytest.approx(ref_norm, rel=1e-15, abs=0)
        # Relative to each tensor's largest entry: an element near zero
        # still moves by an ulp of its neighbours' scale.
        for name, arr in params.items():
            scale = np.abs(ref_params[name]).max()
            np.testing.assert_allclose(arr, ref_params[name], rtol=0, atol=1e-15 * scale)

    def test_nan_in_last_element_changes_nothing(self):
        opt, params, ref, ref_params, rng = warmed_pair()
        before = {name: arr.copy() for name, arr in params.items()}
        grads = oracle_grads(rng)
        assert list(grads)[-1] == "matrix"
        grads["matrix"][-1, -1] = np.nan
        with pytest.raises(NonFinite, match=r"optimizer step 4: gradient 'matrix'"):
            opt.step(grads)
        assert opt.t == 3
        for name, arr in params.items():
            np.testing.assert_array_equal(arr, before[name])
        assert_next_step_matches(opt, params, ref, ref_params, rng)

    def test_float32_gradient_is_read_as_its_float64_value(self):
        opt, params, ref, ref_params, rng = warmed_pair()
        grads = {name: g.astype(np.float32) for name, g in oracle_grads(rng).items()}
        ref.step({name: g.astype(np.float64) for name, g in grads.items()})
        opt.step(grads)
        for name, arr in params.items():
            np.testing.assert_array_equal(arr, ref_params[name])


class TestGradientNamesAndSizes:
    """The compiled loop indexes a gradient by its parameter's size, so a
    gradient that does not fit is refused before anything changes."""

    @pytest.mark.parametrize("change, message", [
        (lambda g: g.pop("nine"), r"gradients lack \['nine'\] and add \[\]"),
        (lambda g: g.update(extra=np.ones(2)), r"gradients lack \[\] and add \['extra'\]"),
        (lambda g: g.update(nine=np.ones(8)), r"gradient 'nine' has 8 elements, its parameter 9"),
        (lambda g: g.update(matrix=np.ones((3, 386))), r"gradient 'matrix' has 1158 elements, its parameter 1155"),
    ], ids=["missing", "extra", "short", "long"])
    def test_refused_and_nothing_changes(self, change, message):
        opt, params, ref, ref_params, rng = warmed_pair()
        before = {name: arr.copy() for name, arr in params.items()}
        grads = oracle_grads(rng)
        change(grads)
        kept = {name: g.copy() for name, g in grads.items()}
        with pytest.raises(ShapeMismatch, match=f"optimizer step 4: {message}"):
            opt.step(grads)
        assert opt.t == 3
        for name, arr in params.items():
            np.testing.assert_array_equal(arr, before[name])
        for name, g in grads.items():
            np.testing.assert_array_equal(g, kept[name])
        assert_next_step_matches(opt, params, ref, ref_params, rng)


def break_compiler(monkeypatch):
    """Forget the loaded kernel and point the build at a missing program."""
    monkeypatch.setattr(optim, "_kernel", None)
    monkeypatch.setattr(optim, "CC", ["ercml-no-such-compiler"])


class TestNoCompiler:
    """Training needs a C compiler for the Adam kernel; scoring does not."""

    def test_adam_raises_compile_error(self, monkeypatch):
        break_compiler(monkeypatch)
        with pytest.raises(CompileError, match="ercml-no-such-compiler"):
            Adam(tensors())

    def test_failed_build_quotes_the_compiler(self, monkeypatch, tmp_path):
        source = tmp_path / "broken.c"
        source.write_text("void adam_update(ercml_no_such_type x) {}\n")
        monkeypatch.setattr(optim, "_kernel", None)
        monkeypatch.setattr(optim, "SOURCE", source)
        with pytest.raises(CompileError, match="(?s)building the Adam kernel failed .*ercml_no_such_type"):
            Adam(tensors())

    def test_train_exits_one_and_eval_exits_zero(self, tmp_path, capsys, monkeypatch, mini_dir):
        store_path = save_sentence_embeddings(hash_store_for_corpus(
            Corpus("all", tuple(d for s in ("train", "test") for d in load_split(mini_dir, s).dialogs)), dim=16, seed=0,
        ), tmp_path / "store.jsonl")
        run = ["--data", str(mini_dir), "--store", str(store_path), "--epochs", "1", "--max-steps", "1",
               "--pretrain-steps", "1"]
        assert main(["train", *run, "--out", str(tmp_path / "trained")]) == 0
        break_compiler(monkeypatch)
        capsys.readouterr()
        assert main(["train", *run, "--out", str(tmp_path / "refused")]) == 1
        assert "CompileError" in capsys.readouterr().err
        assert main(["eval", "--model", str(tmp_path / "trained" / "model.npz"), "--data", str(mini_dir),
                     "--store", str(store_path)]) == 0
        assert optim._kernel is None


class TestNonContiguous:
    @pytest.mark.parametrize("make", [
        lambda: np.ones((4, 6))[:, ::2],
        lambda: np.asfortranarray(np.ones((3, 4))),
        lambda: np.ones((3, 4)).T,
    ], ids=["strided", "fortran", "transposed"])
    def test_rejected_at_construction(self, make):
        with pytest.raises(NonContiguous, match="parameter 'w' is not C-contiguous"):
            Adam({"a": np.zeros(3), "w": make()})

    def test_read_only_parameter_rejected_at_construction(self, monkeypatch):
        a, read_only = np.zeros(3), np.ones(4)
        read_only.flags.writeable = False
        monkeypatch.setattr(Adam, "step", lambda *args: pytest.fail("stepped"))
        with pytest.raises(ReadOnlyParameter, match="parameter 'b' is read-only"):
            Adam({"a": a, "b": read_only}).step({"a": np.ones(3), "b": np.ones(4)})
        np.testing.assert_array_equal(a, np.zeros(3))

    def test_non_contiguous_gradient_is_fine(self):
        params, ref_params = tensors(), tensors()
        grads = {"a": np.arange(8.0)[::2], "b": np.ones((3, 2)).T}
        ref_grads = {n: g.copy() for n, g in grads.items()}
        Adam(params, clip_norm=None).step(grads)
        ReferenceAdam(ref_params, clip_norm=None).step(ref_grads)
        for name, arr in params.items():
            np.testing.assert_array_equal(arr, ref_params[name])
