"""Binomial draws through numpy's own C sampler, on the caller's generator.

``binomial(bitgen, n, p)`` calls ``random_binomial``, the inversion/BTPE
sampler behind ``numpy.random.Generator.binomial``, on that generator's bit
generator: it returns the count ``rng.binomial(n, p)`` would, and moves the
stream exactly as that call would, without the Python method call around the
C.  It refuses what numpy refuses (n < 0; p NaN or outside [0, 1]) with a
negative code that ``refused`` turns into numpy's ``ValueError``.
``bitgen(rng)`` is the generator's ``bitgen_t *``, resolved once per
generator.  Unlike ``rng.binomial`` the draw takes no generator lock, and
cffi releases the GIL around it, so one generator must never be drawn from
by two threads at once; a game owns its generator.

The C is compiled by cffi once per C source, numpy, cffi and Python ABI, in
a child process, into ``$XDG_CACHE_HOME/qgan_sim/<key>/`` (``~/.cache`` when
unset).  An import loads it from there, and the first generator resolved
checks it against ``rng.binomial`` before anything draws through it.  There
is no other draw path: a module that cannot be built, loaded or checked
raises an ``ImportError`` that says why (DECISIONS.md, "Draws call numpy's
C sampler").
"""

from __future__ import annotations

import importlib.util
import os
import sys
import zlib
from importlib.machinery import EXTENSION_SUFFIXES

import numpy as np

try:
    import _cffi_backend
except ImportError as exc:
    raise ImportError("qgan_sim draws through a cffi module: install cffi") from exc

__all__ = ["binomial", "bitgen", "refused"]

_NAME = "_qgan_draws"
_CDEF = """
typedef struct bitgen bitgen_t;
int64_t qgan_binomial(bitgen_t *bitgen, int64_t n, double p);
"""
_SOURCE = r"""
#include "numpy/random/distributions.h"

static int64_t qgan_binomial(bitgen_t *bitgen, int64_t n, double p)
{
    /* numpy's per-(n, p) setup, computed afresh: it is a pure function of
       (n, p), so the count is the one the generator's own cache gives. */
    binomial_t setup;
    if (n < 0)
        return -1;
    if (!(p >= 0.0 && p <= 1.0))
        return -2;
    setup.has_binomial = 0;
    return random_binomial(bitgen, p, n, &setup);
}
"""
# numpy's own messages for the input its Generator.binomial refuses, by code.
_REFUSED = {-1: "n < 0", -2: "p < 0, p > 1 or p is NaN"}

# Run as `python -c _BUILD <out dir> <file name> <cdef> <source> <include dir>
# <lib dir>`, so that cffi's parser and setuptools load only in the child.
_BUILD = """
import os, sys
from cffi import FFI
out, filename, cdef, source, include_dir, lib_dir = sys.argv[1:]
ffi = FFI()
ffi.cdef(cdef)
ffi.set_source(%r, source, include_dirs=[include_dir], library_dirs=[lib_dir],
               libraries=["npyrandom", "m"])
os.replace(ffi.compile(tmpdir=out), os.path.join(out, filename))
""" % _NAME

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


def _lib_dir() -> str:
    return os.path.join(os.path.dirname(np.__file__), "random", "lib")


def _cache_root() -> str:
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # unset, empty or relative: the XDG spec's default
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "qgan_sim")


def _module_path() -> str:
    suffix = EXTENSION_SUFFIXES[0]
    key = zlib.crc32(
        "\0".join((_CDEF, _SOURCE, _BUILD, np.__version__, _cffi_backend.__version__, suffix))
        .encode()
    )
    return os.path.join(_cache_root(), f"numpy-{np.__version__}-{key:08x}", _NAME + suffix)


def _missing() -> list[str]:
    """What a build needs that this machine lacks."""
    import shutil
    import sysconfig

    missing = []
    if importlib.util.find_spec("cffi") is None:
        missing.append("the cffi package")
    if sys.version_info >= (3, 12) and importlib.util.find_spec("setuptools") is None:
        missing.append("setuptools (Python 3.12 has no distutils)")
    compiler = (os.environ.get("CC") or sysconfig.get_config_var("CC") or "").split()
    if compiler and shutil.which(compiler[0]) is None:
        missing.append(f"a C compiler ({compiler[0]} is not on PATH)")
    for what, path in (
        ("Python's C headers", os.path.join(sysconfig.get_paths()["include"], "Python.h")),
        ("numpy's sampler header",
         os.path.join(np.get_include(), "numpy", "random", "distributions.h")),
        ("numpy's sampler library", os.path.join(_lib_dir(), "libnpyrandom.a")),
    ):
        if not os.path.isfile(path):
            missing.append(f"{what} ({path})")
    return missing


def _build(path: str) -> None:
    """Compile the module in a child process and move it into place at ``path``."""
    import shutil
    import subprocess
    import tempfile

    missing = _missing()
    if missing:
        raise ImportError(
            f"qgan_sim cannot build its binomial kernel for numpy {np.__version__}: "
            f"missing {'; '.join(missing)}"
        )
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        # A private directory beside the target, so that the move is one
        # rename and concurrent first imports each place a whole file.
        tmp = tempfile.mkdtemp(prefix=".build-", dir=os.path.dirname(os.path.dirname(path)))
    except OSError as exc:
        raise ImportError(
            f"qgan_sim cannot write its binomial kernel under {_cache_root()} ({exc}); "
            "set XDG_CACHE_HOME to a writable directory"
        ) from exc
    try:
        name = os.path.basename(path)
        done = subprocess.run(
            [sys.executable, "-c", _BUILD, tmp, name, _CDEF, _SOURCE, np.get_include(),
             _lib_dir()],
            capture_output=True, text=True,
        )
        if done.returncode != 0:
            tail = "\n".join((done.stdout + done.stderr).strip().splitlines()[-20:])
            raise ImportError(
                f"qgan_sim could not build its binomial kernel for numpy {np.__version__} "
                f"(exit {done.returncode}):\n{tail}"
            )
        os.replace(os.path.join(tmp, name), path)
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
    state = _cast("bitgen_t *", ours.bit_generator.ctypes.bit_generator.value)
    got = [binomial(state, n, p) for n, p in _CHECK_DRAWS]
    want = [int(numpys.binomial(n, p)) for n, p in _CHECK_DRAWS]
    if got != want or ours.random() != numpys.random():
        raise ImportError(
            f"the binomial kernel at {_module.__file__} does not draw as numpy "
            f"{np.__version__}'s Generator.binomial does; qgan_sim refuses to play on it"
        )


_module = _load()
_cast = _module.ffi.cast
binomial = _module.lib.qgan_binomial
_last = (None, None)  # the last generator resolved, and its bitgen_t *
_checked = False


def bitgen(rng: np.random.Generator):
    """``rng``'s ``bitgen_t *``; the last generator's is kept, so a game
    resolves its own once.  Keeping the generator keeps the pointer valid.
    The first generator resolved in a process runs ``_check`` first."""
    global _last, _checked
    last = _last
    if last[0] is not rng:
        if not _checked:
            _check()
            _checked = True
        last = _last = (rng, _cast("bitgen_t *", rng.bit_generator.ctypes.bit_generator.value))
    return last[1]


def refused(code: int) -> ValueError:
    """The ValueError ``rng.binomial`` raises for the input ``binomial``
    refused with ``code``."""
    return ValueError(_REFUSED[code])
