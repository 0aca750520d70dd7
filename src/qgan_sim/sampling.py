"""Finite-shot measurement statistics for the adversarial read-out.

Each estimate measures both states with the same shot count n and reports
the observed frequencies together with their difference d_hat.  Counts are
exact binomial draws (numpy's inversion/BTPE sampler), never a normal
approximation, so small-n tails are honest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bloch import (  # noqa: F401  (bench/run.py traces the object forms here)
    _BALL_TOL,
    DensityMatrix,
    GeneratorParams,
    MeasurementParams,
    _probability,
    axis_xyz,
    measurement_axis,
    outcome_probability,
    pure_axis,
    state_bloch,
    state_xyz,
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


def _true_vector(sigma: DensityMatrix, noise: NoiseSettings | None) -> tuple[float, float, float]:
    # The true state never changes within a game, so its Bloch vector after
    # the channel is derived once per state object and kept on it.
    memo = sigma._measured
    if memo is None or memo[0] is not noise:
        v = apply_noise(noise, sigma.to_bloch(), "true")
        memo = sigma._measured = (noise, (v.x, v.y, v.z))
    return memo[1]


def _measured_xyz(
    noise: NoiseSettings | None, x: float, y: float, z: float
) -> tuple[float, float, float]:
    # The generated state's vector after the channel, held to the unit ball
    # (the comparison is written so that NaN fails too).
    if noise is not None and not noise.is_identity:
        x, y, z = channel_xyz(noise, x, y, z)
    if not x * x + y * y + z * z <= 1.0 + _BALL_TOL:
        raise ValueError(f"Bloch vector outside the unit ball: ({x!r}, {y!r}, {z!r})")
    return x, y, z


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
    """
    r, theta, phi = gen
    beta, gamma = meas
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"r must be in [0, 1], got {r}")
    if not (
        math.isfinite(theta) and math.isfinite(phi)
        and math.isfinite(beta) and math.isfinite(gamma)
    ):
        raise ValueError("theta, phi, beta and gamma must be finite")
    mx, my, mz = axis_xyz(beta, gamma)
    p_rho = _probability(mx, my, mz, *_measured_xyz(noise, *state_xyz(r, theta, phi)))
    p_sigma = _probability(mx, my, mz, *_true_vector(sigma, noise))
    if shots is None:
        return OutcomeEstimate(p_rho, p_sigma, p_rho - p_sigma, None)
    if rng is None:
        raise ValueError("shot-limited estimation requires a random generator")
    if shots < 1:
        raise ValueError(f"shot count must be >= 1, got {shots}")
    if branchwise:
        # Physically faithful two-stage draw: pick the prepared branch per
        # shot, then the detection outcome.  Marginally identical to
        # Binomial(n, p_rho).
        p_main = _probability(mx, my, mz, *_measured_xyz(noise, *axis_xyz(theta, phi)))
        p_alt = _probability(
            mx, my, mz, *_measured_xyz(noise, *axis_xyz(math.pi - theta, phi + math.pi))
        )
        k_main = rng.binomial(shots, r)
        hits = rng.binomial(k_main, p_main) if k_main > 0 else 0
        rest = shots - k_main
        if rest > 0:
            hits += rng.binomial(rest, p_alt)
        p_rho_hat = float(hits) / shots
    else:
        p_rho_hat = float(rng.binomial(shots, p_rho)) / shots
    p_sigma_hat = float(rng.binomial(shots, p_sigma)) / shots
    return OutcomeEstimate(p_rho_hat, p_sigma_hat, p_rho_hat - p_sigma_hat, shots)
