"""First-order adaptive-moment gradient descent with global-norm clipping,
and the loader of the package's C kernels.

`_kernels.c` holds the package's two C loops, the Adam update and GELU's
gate (see encoder.py); the first `Adam(...)` or the first encoder forward
of a process compiles it with the compiler Python was built with.
"""

from __future__ import annotations

import ctypes
import math
import shlex
import subprocess
import sysconfig
import tempfile
from pathlib import Path

import numpy as np

from .errors import CompileError, NonContiguous, NonFinite, ReadOnlyParameter, ShapeMismatch

# The moment decay rates and the denominator's floor: Kingma & Ba's defaults.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8

# The compiler command and its flags. No FMA contraction and no fast-math,
# so each element gets the numpy and scipy expressions' IEEE operations bit
# for bit; -fno-math-errno lets `sqrt` compile to one instruction.
CC = shlex.split(sysconfig.get_config_var("CC") or "cc")
CFLAGS = ["-O3", "-ffp-contract=off", "-fno-math-errno", "-fPIC", "-shared"]
SOURCE = Path(__file__).with_name("_kernels.c")

_kernel = None  # the loaded `_kernels.c` library, built once per process
_build_error = None  # the CompileError of a failed build, which is not retried


def load_kernels():
    """The compiled `_kernels.c`, built on the first call.

    Raises:
        CompileError: no compiler is found, or it fails on the source; a
            failed build is raised again, without a rebuild, on every
            later call.
    """
    global _kernel, _build_error
    if _kernel is None:
        if _build_error is not None:
            raise _build_error.with_traceback(None)
        try:
            _kernel = _build()
        except CompileError as exc:
            _build_error = exc
            raise
    return _kernel


def _build():
    with tempfile.TemporaryDirectory(prefix="ercml-kernels-") as tmp:
        lib = Path(tmp) / "_kernels.so"
        cmd = [*CC, *CFLAGS, str(SOURCE), "-o", str(lib), "-lm"]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True)
        except OSError as exc:
            raise CompileError(f"cannot run the C compiler {CC[0]!r} to build the Adam kernel: {exc}") from None
        if proc.returncode != 0:
            raise CompileError(f"building the Adam kernel failed ({shlex.join(cmd)}):\n{proc.stderr.strip()}")
        kernels = ctypes.CDLL(str(lib))  # stays mapped after the directory goes
    # ctypes refuses an array the loops could not safely read or write
    out = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS,WRITEABLE")
    arg = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    kernels.adam_update.argtypes = [out, out, out, arg, ctypes.c_size_t] + [ctypes.c_double] * 6
    kernels.adam_update.restype = None
    kernels.gelu_forward.argtypes = [arg, out, out, ctypes.c_size_t]
    kernels.gelu_forward.restype = None
    return kernels


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float | None) -> float:
    """Scale all gradients in place so their joint L2 norm is <= max_norm;
    no scaling when `max_norm` is None or the norm is not finite.

    Returns the pre-clip global norm.
    """
    total = math.sqrt(sum(float(np.vdot(g, g)) for g in grads.values()))  # one BLAS dot per tensor
    if max_norm is not None and max_norm < total < math.inf:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


class Adam:
    """Adam over a live dict of named parameter arrays (updated in place).

    Each tensor gets one pass of the compiled kernel, which applies the
    textbook update to every element in the textbook order, so the result
    is bit-identical to the whole-array numpy expressions.

    Raises:
        NonContiguous: a parameter is not C-contiguous.
        ReadOnlyParameter: a parameter is not writeable.
        CompileError: the kernels cannot be built.
    """

    def __init__(
        self,
        tensors: dict[str, np.ndarray],
        lr: float = 1e-3,
        clip_norm: float | None = 1.0,
    ):
        for name, arr in tensors.items():
            if not arr.flags.c_contiguous:
                raise NonContiguous(f"parameter {name!r} is not C-contiguous; its updates would be lost")
            if not arr.flags.writeable:
                raise ReadOnlyParameter(f"parameter {name!r} is read-only; it cannot be updated")
        self._kernel = load_kernels().adam_update
        self.lr = lr
        self.clip_norm = clip_norm
        self.t = 0
        self._flat = {name: arr.reshape(-1) for name, arr in tensors.items()}
        self._m = {name: np.zeros_like(flat) for name, flat in self._flat.items()}
        self._v = {name: np.zeros_like(flat) for name, flat in self._flat.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        """One update from a grads dict keyed like the tensors dict.

        Raises:
            ShapeMismatch: the gradients' names are not the parameters',
                or a gradient's size is not its parameter's; nothing has
                changed.
            NonFinite: a gradient holds a NaN or an infinity; no
                parameter has changed.
        """
        if grads.keys() != self._flat.keys():
            missing, extra = sorted(self._flat.keys() - grads.keys()), sorted(grads.keys() - self._flat.keys())
            raise ShapeMismatch(f"optimizer step {self.t + 1}: gradients lack {missing} and add {extra}")
        for name, g in grads.items():
            if g.size != self._flat[name].size:
                raise ShapeMismatch(
                    f"optimizer step {self.t + 1}: gradient {name!r} has {g.size} elements, "
                    f"its parameter {self._flat[name].size}"
                )
        if not math.isfinite(clip_global_norm(grads, self.clip_norm)):
            bad = [name for name, g in grads.items() if not np.isfinite(g).all()]
            what = f"gradient {bad[0]!r} is not finite" if bad else "the gradient norm overflows"
            raise NonFinite(f"optimizer step {self.t + 1}: {what}")
        self.t += 1
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        for name, grad in grads.items():
            p, g = self._flat[name], np.ascontiguousarray(grad, dtype=np.float64).reshape(-1)
            self._kernel(p, self._m[name], self._v[name], g, p.size, BETA1, BETA2, self.lr, bc1, bc2, EPS)


def add_grads(into: dict[str, np.ndarray], grads: dict[str, np.ndarray], scale: float = 1.0) -> None:
    """Accumulate `grads` into `into`, scaled; names `into` lacks are skipped."""
    for name, acc in into.items():
        acc += scale * grads[name]
