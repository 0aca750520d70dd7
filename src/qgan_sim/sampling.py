"""Finite-shot measurement statistics for the adversarial read-out.

Each estimate measures both states with the same shot count n and reports
the observed frequencies together with their difference d_hat.  Counts are
exact binomial draws (numpy's inversion/BTPE sampler), never a normal
approximation, so small-n tails are honest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import cos, isfinite, sin

import numpy as np

from .bloch import (  # noqa: F401  (bench/run.py traces the object forms here)
    DensityMatrix,
    GeneratorParams,
    MeasurementParams,
    _probability,
    axis_xyz,
    measurement_axis,
    outcome_probability,
    pure_axis,
    state_bloch,
)
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
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"probability must be in [0, 1], got {p}")
    if n < 1:
        raise ValueError(f"shot count must be >= 1, got {n}")
    return float(rng.binomial(n, p)) / n


def d_standard_deviation(p_rho: float, p_sigma: float, n: int) -> float:
    """Standard deviation of d_hat from two independent n-shot frequencies.

    sqrt(p_rho (1 - p_rho) / n + p_sigma (1 - p_sigma) / n); about
    1/sqrt(2n) near the d = 0 equilibrium where both probabilities are 1/2.
    """
    if not (0.0 <= p_rho <= 1.0 and 0.0 <= p_sigma <= 1.0):
        raise ValueError("probabilities must be in [0, 1]")
    if n < 1:
        raise ValueError(f"shot count must be >= 1, got {n}")
    return math.sqrt((p_rho * (1.0 - p_rho) + p_sigma * (1.0 - p_sigma)) / n)


_new = object.__new__


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
    kernels the object API runs after its own checks.

    Within a turn one player's parameters stay the very same objects, so
    each side of the read-out is kept on ``sigma`` and read out in one
    block, the generated side first: its vector after the channel, keyed by
    the ``r``, ``theta``, ``phi`` and ``noise`` objects, then the axis with
    p_sigma and the true vector after the channel, keyed by ``beta``,
    ``gamma`` and ``noise``.  Each side keeps two entries, the current one
    and the one before it, which serve a finite difference's base point and
    its latest offset point.  A side whose objects are those of an entry is
    reused as the call that stored it checked and computed it, and that
    entry becomes the current one; any other side is checked, computed and
    stored as the current entry before the next is looked at (the true
    vector is reused whenever ``noise`` is the current axis entry's), so
    the result is bit-identical to a call on a fresh state.  The two
    channelled branch vectors of a generated entry are computed the first
    time a branchwise call needs them.
    """
    r, theta, phi = gen
    beta, gamma = meas
    kept = sigma._generated
    if not (
        kept is not None and kept[0] is r and kept[1] is theta and kept[2] is phi
        and kept[3] is noise
    ):
        entry = sigma._generated_old
        if not (
            entry is not None and entry[0] is r and entry[1] is theta and entry[2] is phi
            and entry[3] is noise
        ):
            if not 0.0 <= r <= 1.0:
                raise ValueError(f"r must be in [0, 1], got {r}")
            if not (isfinite(theta) and isfinite(phi)):
                raise ValueError("theta, phi, beta and gamma must be finite")
            # state_xyz, then the channel; the branch vectors come later.
            w = 2.0 * r - 1.0
            st = sin(theta)
            x, y, z = channel_xyz(noise, w * (st * sin(phi)), w * (st * cos(phi)), w * cos(theta))
            entry = (r, theta, phi, noise, x, y, z, None)
        sigma._generated_old, sigma._generated = kept, entry
        kept = entry
    axis = sigma._axis
    if not (axis is not None and axis[0] is beta and axis[1] is gamma and axis[2] is noise):
        entry = sigma._axis_old
        if not (
            entry is not None and entry[0] is beta and entry[1] is gamma and entry[2] is noise
        ):
            if not (isfinite(beta) and isfinite(gamma)):
                raise ValueError("theta, phi, beta and gamma must be finite")
            st = sin(beta)  # axis_xyz
            mx, my, mz = st * sin(gamma), st * cos(gamma), cos(beta)
            if axis is not None and axis[2] is noise:
                true = axis[7]
            else:  # the true state never changes, so this runs once per channel
                v = apply_noise(noise, sigma.to_bloch(), "true")
                true = (v.x, v.y, v.z)
            entry = (beta, gamma, noise, mx, my, mz, _probability(mx, my, mz, *true), true)
        sigma._axis_old, sigma._axis = axis, entry
        axis = entry
    if shots is not None:
        if rng is None:
            raise ValueError("shot-limited estimation requires a random generator")
        if shots < 1:
            raise ValueError(f"shot count must be >= 1, got {shots}")
    if shots is not None and branchwise:
        # Physically faithful two-stage draw: pick the prepared branch per
        # shot, then the detection outcome.  Marginally identical to
        # Binomial(n, p_rho).
        branches = kept[7]
        if branches is None:  # kept is the current entry
            branches = (
                channel_xyz(noise, *axis_xyz(theta, phi)),
                channel_xyz(noise, *axis_xyz(math.pi - theta, phi + math.pi)),
            )
            sigma._generated = (*kept[:7], branches)
        mx, my, mz = axis[3], axis[4], axis[5]
        k_main = rng.binomial(shots, r)
        hits = rng.binomial(k_main, _probability(mx, my, mz, *branches[0])) if k_main > 0 else 0
        rest = shots - k_main
        if rest > 0:
            hits += rng.binomial(rest, _probability(mx, my, mz, *branches[1]))
        p_rho = float(hits) / shots
    else:
        # _probability, inline: p_rho serves the exact and the plain shot read-out.
        p = 0.5 * (1.0 + (axis[3] * kept[4] + axis[4] * kept[5] + axis[5] * kept[6]))
        p_rho = 0.0 if p < 0.0 else 1.0 if p > 1.0 else p
        if shots is not None:
            p_rho = float(rng.binomial(shots, p_rho)) / shots
    p_sigma = axis[6] if shots is None else float(rng.binomial(shots, axis[6])) / shots
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
