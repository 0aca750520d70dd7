"""Finite-shot measurement statistics for the adversarial read-out.

Each estimate measures both states with the same shot count n and reports
the observed frequencies together with their difference d_hat.  Counts are
exact binomial draws (numpy's inversion/BTPE sampler), never a normal
approximation, so small-n tails are honest.  Each is drawn by calling that
C sampler directly on the caller's generator (``_draws``): the count and the
generator's next state are those of ``rng.binomial(n, p)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import cos, isfinite, sin

import numpy as np

from .bloch import (  # noqa: F401  (bench/run.py traces the object forms here)
    Count,
    DensityMatrix,
    GeneratorParams,
    MeasurementParams,
    Unit,
    _probability,
    axis_xyz,
    check,
    measurement_axis,
    outcome_probability,
    pure_axis,
    state_bloch,
)
from ._draws import binomial, bitgen
from .noise import NoiseSettings, apply_noise, channel_xyz

__all__ = ["OutcomeEstimate", "sample_frequency", "estimate_d", "d_standard_deviation"]


@dataclass(frozen=True)
class OutcomeEstimate:
    """Shot-frequency estimates of (p_rho, p_sigma) and their difference.

    ``shots`` is the per-state shot count n; ``None`` marks an exact-mode
    estimate carrying the true probabilities.  ``d_hat`` always equals
    p_rho_hat - p_sigma_hat bit for bit.
    """

    p_rho_hat: float
    p_sigma_hat: float
    d_hat: float
    shots: int | None

    def __post_init__(self) -> None:
        if not (0.0 <= self.p_rho_hat <= 1.0 and 0.0 <= self.p_sigma_hat <= 1.0):
            raise ValueError("frequencies must be in [0, 1]")
        if self.d_hat != self.p_rho_hat - self.p_sigma_hat:
            raise ValueError("d_hat must equal p_rho_hat - p_sigma_hat exactly")
        if self.shots is not None and self.shots < 1:
            raise ValueError(f"shots must be a positive count, got {self.shots}")


def sample_frequency(p: float, n: int, rng: np.random.Generator) -> float:
    """Observed frequency k/n with k ~ Binomial(n, p)."""
    p, n = check("probability", p, Unit), check("shot count", n, Count)
    return float(binomial(bitgen(rng), n, p)) / n


def d_standard_deviation(p_rho: float, p_sigma: float, n: int) -> float:
    """Standard deviation of d_hat from two independent n-shot frequencies.

    sqrt(p_rho (1 - p_rho) / n + p_sigma (1 - p_sigma) / n); about
    1/sqrt(2n) near the d = 0 equilibrium where both probabilities are 1/2.
    """
    p_rho, p_sigma = check("p_rho", p_rho, Unit), check("p_sigma", p_sigma, Unit)
    n = check("shot count", n, Count)
    return math.sqrt((p_rho * (1.0 - p_rho) + p_sigma * (1.0 - p_sigma)) / n)


_new = object.__new__

# Slot 0 of each side the builders below return, which ``estimate_d`` reads as built.
_SIDE = object()


def _true_xyz(sigma: DensityMatrix, noise: NoiseSettings | None) -> tuple[float, float, float]:
    """The true state's Bloch vector after the channel, as plain floats."""
    v = apply_noise(noise, sigma.to_bloch(), "true")
    return v.x, v.y, v.z


def _generated_side(r, theta, phi, noise: NoiseSettings | None, branchwise: bool) -> tuple:
    """``(_SIDE, r, x, y, z, branches)``, checked: the state's vector after the
    channel, and its two branch vectors after it when ``branchwise``, else None."""
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"r must be in [0, 1], got {r}")
    if not (isfinite(theta) and isfinite(phi)):
        raise ValueError("theta, phi, beta and gamma must be finite")
    # state_xyz, then the channel.
    w = 2.0 * r - 1.0
    st = sin(theta)
    x, y, z = channel_xyz(noise, w * (st * sin(phi)), w * (st * cos(phi)), w * cos(theta))
    branches = (
        channel_xyz(noise, *axis_xyz(theta, phi)),
        channel_xyz(noise, *axis_xyz(math.pi - theta, phi + math.pi)),
    ) if branchwise else None
    return (_SIDE, r, x, y, z, branches)


def _axis_side(beta, gamma, true: tuple[float, float, float]) -> tuple:
    """``(_SIDE, mx, my, mz, p_sigma)``, checked; ``true`` is ``_true_xyz``'s."""
    if not (isfinite(beta) and isfinite(gamma)):
        raise ValueError("theta, phi, beta and gamma must be finite")
    st = sin(beta)  # axis_xyz
    mx, my, mz = st * sin(gamma), st * cos(gamma), cos(beta)
    return (_SIDE, mx, my, mz, _probability(mx, my, mz, *true))


def estimate_d(
    gen: GeneratorParams,
    meas: MeasurementParams,
    sigma: DensityMatrix,
    shots: int | None,
    noise: NoiseSettings | None = None,
    rng: np.random.Generator | None = None,
    branchwise: bool = False,
) -> OutcomeEstimate:
    """Measure both states and report the outcome-difference estimate.

    Computes the exact probabilities from the Bloch geometry (after running
    the configured noise channel on each state), then samples each with n
    shots: the generated state first, then the true one.  ``shots=None``
    switches to exact mode and returns the true probabilities unsampled.

    ``branchwise=True`` samples the generated state by first drawing which
    ensemble branch was prepared on every shot; the marginal statistics are
    unchanged but the draw sequence mimics the physical procedure.

    ``gen`` and ``meas`` may be the parameter objects or any sequences
    unpacking to ``(r, theta, phi)`` and ``(beta, gamma)``; their values are
    checked once per call, and the probabilities come from the same float
    kernels the object API runs after its own checks.  ``run_turn`` passes
    sides built once by ``_generated_side`` and ``_axis_side`` for this
    call's sigma, noise and branchwise, which are read as given.
    """
    raw = False  # a caller's own parameters, not sides ``run_turn`` built
    if not (type(gen) is tuple and gen and gen[0] is _SIDE):
        r, theta, phi = gen
        gen, raw = _generated_side(r, theta, phi, noise, branchwise), True
    if not (type(meas) is tuple and meas and meas[0] is _SIDE):
        beta, gamma = meas
        meas, raw = _axis_side(beta, gamma, _true_xyz(sigma, noise)), True
    if shots is not None:
        if rng is None:
            raise ValueError("shot-limited estimation requires a random generator")
        if raw:  # run_turn's count is GameConfig's, checked there
            shots = check("shot count", shots, Count)
        state = bitgen(rng)
    _, r, x, y, z, branches = gen
    _, mx, my, mz, p_sigma = meas
    if shots is not None and branchwise:
        # Physically faithful two-stage draw: pick the prepared branch per
        # shot, then the detection outcome.  Marginally identical to
        # Binomial(n, p_rho).
        k_main = binomial(state, shots, r)
        hits = 0
        if k_main > 0:
            hits = binomial(state, k_main, _probability(mx, my, mz, *branches[0]))
        rest = shots - k_main
        if rest > 0:
            hits += binomial(state, rest, _probability(mx, my, mz, *branches[1]))
        p_rho = float(hits) / shots
    else:
        # _probability, inline: p_rho serves the exact and the plain shot read-out.
        p = 0.5 * (1.0 + (mx * x + my * y + mz * z))
        p_rho = 0.0 if p < 0.0 else 1.0 if p > 1.0 else p
        if shots is not None:
            p_rho = float(binomial(state, shots, p_rho)) / shots
    if shots is not None:
        p_sigma = float(binomial(state, shots, p_sigma)) / shots
    # The kernel's trusted build: its frequencies lie in [0, 1], d_hat is
    # their difference and shots was checked, so ``__post_init__`` would
    # find nothing; the fields are stored as the constructor would store them.
    est = _new(OutcomeEstimate)
    fields = est.__dict__
    fields["p_rho_hat"] = p_rho
    fields["p_sigma_hat"] = p_sigma
    fields["d_hat"] = p_rho - p_sigma
    fields["shots"] = shots
    return est
