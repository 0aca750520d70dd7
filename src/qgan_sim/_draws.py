"""Binomial draws through numpy's own C sampler, on the caller's generator.

``binomial(bitgen, n, p)`` calls ``random_binomial``, the inversion/BTPE
sampler behind ``numpy.random.Generator.binomial``, on that generator's bit
generator: it returns the count ``rng.binomial(n, p)`` would, and moves the
stream exactly as that call would, without the Python method call around the
C.  It refuses what numpy refuses (n < 0; p NaN or outside [0, 1]) with
numpy's own ``ValueError``, before it draws.  ``bitgen(rng)`` is the
generator's ``BitGenerator`` capsule, resolved once per generator.  Unlike
``rng.binomial`` the draw takes no generator lock; it holds the GIL, and a
game owns its generator.

The C is one function of a plain CPython extension, compiled once per C
source, numpy and Python ABI, with the shared-library command Python builds
its own extensions with (``CC`` replaces its compiler), into
``$XDG_CACHE_HOME/qgan_sim/<key>/`` (``~/.cache`` when unset).  An import
loads it from there, and the first generator resolved checks it against
``rng.binomial`` before anything draws through it.  There is no other draw
path: a module that cannot be built, loaded or checked raises an
``ImportError`` that says why (DECISIONS.md, "Draws call numpy's C sampler").
"""

from __future__ import annotations

import importlib.util
import os
import zlib
from importlib.machinery import EXTENSION_SUFFIXES

import numpy as np

from .bloch import check

__all__ = ["binomial", "bitgen"]

_NAME = "_qgan_draws"
_SOURCE = r"""
#include "numpy/random/distributions.h"

static PyObject *
binomial(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    bitgen_t *bitgen;
    long long n;
    double p;
    /* numpy's per-(n, p) setup, computed afresh: it is a pure function of
       (n, p), so the count is the one the generator's own cache gives. */
    binomial_t setup;
    if (nargs != 3) {
        PyErr_Format(PyExc_TypeError, "binomial() takes 3 arguments (%zd given)", nargs);
        return NULL;
    }
    bitgen = PyCapsule_GetPointer(args[0], "BitGenerator");
    if (bitgen == NULL)
        return NULL;
    n = PyLong_AsLongLong(args[1]);
    if (n == -1 && PyErr_Occurred())
        return NULL;
    p = PyFloat_AsDouble(args[2]);
    if (p == -1.0 && PyErr_Occurred())
        return NULL;
    if (!(p >= 0.0 && p <= 1.0)) {  /* numpy's messages, in numpy's order */
        PyErr_SetString(PyExc_ValueError, "p < 0, p > 1 or p is NaN");
        return NULL;
    }
    if (n < 0) {
        PyErr_SetString(PyExc_ValueError, "n < 0");
        return NULL;
    }
    setup.has_binomial = 0;
    return PyLong_FromLongLong(random_binomial(bitgen, p, n, &setup));
}

static PyMethodDef methods[] = {
    {"binomial", (PyCFunction)(void (*)(void))binomial, METH_FASTCALL,
     "binomial(capsule, n, p): numpy's Binomial(n, p) count on the capsule's bit generator."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_qgan_draws", NULL, -1, methods};

PyMODINIT_FUNC PyInit__qgan_draws(void) { return PyModule_Create(&module); }
"""

# Drawn by ``_check`` through the module and through numpy, from twin
# generators.  p takes both ends and the smallest steps inside them, and
# n·min(p, 1 − p) falls on both sides of 30, where numpy's sampler turns
# from inversion to BTPE.
_CHECK_SEED = 20181128
_CHECK_DRAWS = [
    (n, p)
    for n in (1, 7, 5000, 2**40)
    for p in (0.0, 5e-324, 0.5, 1.0 - 2.0**-53, 1.0, 29.0 / n, 31.0 / n, 1.0 - 29.0 / n)
    if 0.0 <= p <= 1.0
] + [(100, 0.29), (100, 0.31), (100, 0.69), (100, 0.71)]


def _cache_root() -> str:
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # unset, empty or relative: the XDG spec's default
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "qgan_sim")


def _module_path() -> str:
    suffix = EXTENSION_SUFFIXES[0]
    key = zlib.crc32("\0".join((_SOURCE, np.__version__, suffix)).encode())
    return os.path.join(_cache_root(), f"numpy-{np.__version__}-{key:08x}", _NAME + suffix)


def _build(path: str) -> None:
    """Compile the module and move it into place at ``path``; the compiler's
    own diagnostic names whatever the build lacks."""
    import shutil
    import subprocess
    import sysconfig
    import tempfile

    try:
        os.makedirs(_cache_root(), exist_ok=True)
        # A private directory beside the key directories, so that the move is
        # one rename and concurrent first imports each place a whole file.
        tmp = tempfile.mkdtemp(prefix=".build-", dir=_cache_root())
    except OSError as exc:
        raise ImportError(
            f"qgan_sim cannot write its binomial kernel under {_cache_root()} ({exc}); "
            "set XDG_CACHE_HOME to a writable directory"
        ) from exc
    try:
        source, built = os.path.join(tmp, _NAME + ".c"), os.path.join(tmp, os.path.basename(path))
        with open(source, "w") as f:
            f.write(_SOURCE)
        # Python's shared-library command, its compiler replaced by ``CC`` when
        # that is set, as distutils' ``customize_compiler`` does.
        command = [*sysconfig.get_config_var("LDSHARED").split(),
                   *sysconfig.get_config_var("CCSHARED").split()]
        if os.environ.get("CC"):
            command[:1] = os.environ["CC"].split()
        lib = os.path.join(os.path.dirname(np.__file__), "random", "lib")
        try:
            done = subprocess.run(
                [*command, "-I", sysconfig.get_paths()["include"], "-I", np.get_include(),
                 source, "-L", lib, "-lnpyrandom", "-lm", "-o", built],
                capture_output=True, text=True,
            )
        except FileNotFoundError as exc:
            raise ImportError(
                f"qgan_sim cannot build its binomial kernel for numpy {np.__version__}: "
                f"missing a C compiler ({command[0]} is not on PATH)"
            ) from exc
        except OSError as exc:
            raise ImportError(
                f"qgan_sim cannot build its binomial kernel for numpy {np.__version__}: "
                f"its C compiler {command[0]} cannot be started ({exc})"
            ) from exc
        if done.returncode != 0:
            tail = "\n".join((done.stdout + done.stderr).strip().splitlines()[-20:])
            raise ImportError(
                f"qgan_sim could not build its binomial kernel for numpy {np.__version__} "
                f"(exit {done.returncode}):\n{tail}"
            )
        os.makedirs(os.path.dirname(path), exist_ok=True)
        os.replace(built, path)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _load():
    path = _module_path()
    if not os.path.exists(path):
        _build(path)
    spec = importlib.util.spec_from_file_location(_NAME, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _check() -> None:
    """Refuse a numpy whose ``Generator.binomial`` the module does not reproduce."""
    ours, numpys = np.random.default_rng(_CHECK_SEED), np.random.default_rng(_CHECK_SEED)
    state = ours.bit_generator.capsule
    got = [binomial(state, n, p) for n, p in _CHECK_DRAWS]
    want = [int(numpys.binomial(n, p)) for n, p in _CHECK_DRAWS]
    if got != want or ours.random() != numpys.random():
        raise ImportError(
            f"the binomial kernel at {_module.__file__} does not draw as numpy "
            f"{np.__version__}'s Generator.binomial does; qgan_sim refuses to play on it"
        )


_module = _load()
binomial = _module.binomial
_last = (None, None)  # the last generator resolved, and its capsule
_checked = False


def bitgen(rng: np.random.Generator):
    """``rng``'s ``BitGenerator`` capsule; the last generator's is kept, so a
    game resolves its own once.  Keeping the generator keeps the capsule's
    pointer valid.  A generator is checked to be one when it is resolved; the
    first resolved in a process runs ``_check`` first."""
    global _last, _checked
    last = _last
    if last[0] is not rng:
        rng = check("rng", rng, np.random.Generator)
        if not _checked:
            _check()
            _checked = True
        last = _last = (rng, rng.bit_generator.capsule)
    return last[1]
