"""The binomial kernel against numpy's own ``Generator.binomial``.

``sampling`` draws every count through ``_draws.binomial`` on the caller's
generator, so each draw must give numpy's count and leave the generator
where numpy's draw leaves it, for every n and p, the sampler's branch
points included; input numpy refuses must be refused with numpy's error.
"""

import datetime
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgan_sim
from qgan_sim import ConfigError, DensityMatrix, _draws, estimate_d, sample_frequency
from qgan_sim._draws import binomial, bitgen
from qgan_sim.sampling import _SIDE, _axis_side


@st.composite
def draws(draw):
    """(n, p) with n up to 2**62 and p on the edges numpy's sampler branches
    on: 0 and 1, a denormal, one ulp below 1, and n·p or n·(1 − p) at 30."""
    n = draw(st.integers(1, 2**62))
    edges = [0.0, 1.0, 5e-324, 1.0 - 2.0**-53]
    cut = 30.0 / n
    for at in (cut, 1.0 - cut):
        edges += [math.nextafter(at, -math.inf), at, math.nextafter(at, math.inf)]
    p = draw(st.sampled_from([p for p in edges if 0.0 <= p <= 1.0]) | st.floats(0.0, 1.0))
    return n, p


@settings(max_examples=300, deadline=None)
@given(cases=st.lists(draws(), min_size=1, max_size=12), seed=st.integers(0, 2**32 - 1))
def test_kernel_draws_as_numpy(cases, seed):
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    state = bitgen(rng)
    for n, p in cases:
        assert binomial(state, n, p) == twin.binomial(n, p), (n, p)
    assert rng.random() == twin.random()  # no uniform more, no uniform fewer


def test_each_generator_is_resolved_to_its_own_state():
    a, b = np.random.default_rng(1), np.random.default_rng(2)
    assert bitgen(a) == bitgen(a) != bitgen(b)
    twin_a = np.random.default_rng(1)
    assert [binomial(bitgen(g), 5000, 0.3) for g in (a, b, a)] == [
        twin_a.binomial(5000, 0.3), np.random.default_rng(2).binomial(5000, 0.3),
        twin_a.binomial(5000, 0.3),
    ]


@pytest.mark.parametrize("n, p", [(5, math.nan), (5, -0.1), (5, 1.5), (-1, 0.5), (-1, math.nan)])
def test_refused_input_raises_numpys_error(n, p):
    rng, twin = np.random.default_rng(0), np.random.default_rng(0)
    with pytest.raises(ValueError) as ours:
        binomial(bitgen(rng), n, p)
    with pytest.raises(ValueError) as numpys:
        twin.binomial(n, p)
    assert str(ours.value) == str(numpys.value)
    assert rng.random() == twin.random()  # a refused draw takes no uniform
    with pytest.raises(ValueError, match="^(probability|shot count): "):
        sample_frequency(p, n, rng)


def test_a_generator_of_another_kind_is_named():
    # numpy's legacy RandomState has no bit generator capsule to draw on.
    message = r"^rng: expected a Generator, got RandomState\(MT19937\)"
    with pytest.raises(ConfigError, match=message):
        sample_frequency(0.5, 10, np.random.RandomState(0))
    with pytest.raises(ConfigError, match=message):
        estimate_d((0.5, 0.0, 0.0), (0.0, 0.0), DensityMatrix.pure_ground(), 10,
                   rng=np.random.RandomState(0))


NAN_BRANCHES = ((math.nan,) * 3, (0.0, 0.0, -1.0))


@pytest.mark.parametrize(
    "gen, meas_p, shots, branchwise, message",
    [
        # The branch count, then each branch, then the plain read-out and sigma.
        ((math.nan, 0.0, 0.0, 0.0, NAN_BRANCHES), 0.5, 10, True, "p < 0"),
        ((1.0, 0.0, 0.0, 0.0, NAN_BRANCHES), 0.5, 10, True, "p < 0"),
        ((0.0, 0.0, 0.0, 0.0, NAN_BRANCHES[::-1]), 0.5, 10, True, "p < 0"),
        ((0.5, math.nan, 0.0, 0.0, None), 0.5, 10, False, "p < 0"),
        ((0.5, 0.0, 0.0, 1.0, None), math.nan, 10, False, "p < 0"),
        ((0.5, 0.0, 0.0, 1.0, None), 0.5, -1, False, "^n < 0$"),
    ],
)
def test_the_estimator_raises_what_the_kernel_refuses(gen, meas_p, shots, branchwise, message):
    # Sides made by hand, which no caller of the public API can pass (its
    # values are checked when they are built), reach each draw with a value
    # numpy refuses; the estimate raises numpy's error instead of counting.
    meas = _axis_side(0.0, 0.0, (0.0, 0.0, 1.0))[:4] + (meas_p,)
    with pytest.raises(ValueError, match=message):
        estimate_d((_SIDE, *gen), meas, DensityMatrix.pure_ground(),
                   shots, rng=np.random.default_rng(0), branchwise=branchwise)


@pytest.mark.parametrize(
    "args",
    [
        lambda rng: (rng.bit_generator.ctypes.bit_generator.value, 5000, 0.5),  # its address
        lambda rng: (object(), 5000, 0.5),
        lambda rng: (datetime.datetime_CAPI, 5000, 0.5),  # a capsule of another name
        lambda rng: (bitgen(rng), 5000),
        lambda rng: (bitgen(rng), 5000, 0.5, 0.5),
    ],
    ids=["address", "object", "other-capsule", "two-args", "four-args"],
)
def test_binomial_takes_only_a_generators_capsule_and_two_numbers(args):
    rng, twin = np.random.default_rng(0), np.random.default_rng(0)
    with pytest.raises((TypeError, ValueError)):
        binomial(*args(rng))
    assert rng.random() == twin.random()  # nothing was drawn


def test_a_kernel_that_draws_otherwise_is_refused(monkeypatch):
    monkeypatch.setattr(_draws, "binomial", lambda state, n, p: 0)
    with pytest.raises(ImportError, match=f"numpy {np.__version__}'s Generator.binomial"):
        _draws._check()


def test_the_first_generator_resolved_runs_the_load_check(monkeypatch):
    monkeypatch.setattr(_draws, "_checked", False)
    monkeypatch.setattr(_draws, "binomial", lambda state, n, p: 0)
    with pytest.raises(ImportError, match=f"numpy {np.__version__}'s Generator.binomial"):
        sample_frequency(0.5, 10, np.random.default_rng(0))


SRC = str(Path(qgan_sim.__file__).resolve().parents[1])
# A fresh process's first draw, and which build tools it loaded.
DRAW = (
    "import sys, numpy as np, qgan_sim\n"
    "print(qgan_sim.sample_frequency(0.5, 5000, np.random.default_rng(0)))\n"
    "print(sorted(m for m in ('cffi', '_cffi_backend', 'setuptools', 'distutils')\n"
    "             if m in sys.modules))\n"
)


def fresh(env):
    return subprocess.run([sys.executable, "-c", DRAW], env=env, capture_output=True, text=True)


def test_first_import_builds_once_into_the_cache(tmp_path):
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path), "PYTHONPATH": path}
    first = fresh(env)
    assert first.returncode == 0, first.stderr
    (built,) = (tmp_path / "qgan_sim").glob("*/_qgan_draws*")
    assert list((tmp_path / "qgan_sim").iterdir()) == [built.parent]  # no build left over
    stat = built.stat()
    second = fresh(env)
    assert second.returncode == 0, second.stderr
    assert (built.stat().st_ino, built.stat().st_mtime_ns) == (stat.st_ino, stat.st_mtime_ns)
    expected = f"{sample_frequency(0.5, 5000, np.random.default_rng(0))}\n[]\n"
    assert first.stdout == second.stdout == expected


def test_a_build_without_a_compiler_names_it(tmp_path):
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path), "PYTHONPATH": path,
           "CC": "qgan-sim-no-such-cc"}
    done = fresh(env)
    assert done.returncode == 1
    assert "ImportError: qgan_sim cannot build its binomial kernel" in done.stderr
    assert "a C compiler (qgan-sim-no-such-cc is not on PATH)" in done.stderr
    assert not list(tmp_path.glob("qgan_sim/*/_qgan_draws*"))


FATAL = "fatal error: numpy/random/distributions.h: No such file or directory"


@pytest.mark.parametrize(
    "script, message",
    [
        (f"#!/bin/sh\necho '{FATAL}' >&2\nexit 1\n",
         f"ImportError: qgan_sim could not build its binomial kernel for numpy "
         f"{np.__version__} (exit 1):\n{FATAL}\n"),
        ("", f"ImportError: qgan_sim cannot build its binomial kernel for numpy "
             f"{np.__version__}: its C compiler {{cc}} cannot be started ([Errno 13] "),
    ],
    ids=["compile-fails", "not-executable"],
)
def test_a_failed_build_is_named_and_leaves_no_build(tmp_path, script, message):
    cc = tmp_path / "cc"
    cc.write_text(script)
    cc.chmod(0o755 if script else 0o644)  # a file without execute bits cannot be started
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path), "PYTHONPATH": path, "CC": str(cc)}
    done = fresh(env)
    assert done.returncode == 1
    assert message.format(cc=cc) in done.stderr
    assert list((tmp_path / "qgan_sim").iterdir()) == []  # no key directory, no .build-*


def test_an_unwritable_cache_is_named(tmp_path):
    (tmp_path / "file").touch()
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path / "file"), "PYTHONPATH": path}
    done = fresh(env)
    assert done.returncode == 1
    assert (f"ImportError: qgan_sim cannot write its binomial kernel under "
            f"{tmp_path / 'file' / 'qgan_sim'} (") in done.stderr
    assert "set XDG_CACHE_HOME to a writable directory" in done.stderr
