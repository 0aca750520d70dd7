"""Alternating adversarial optimization between generator and discriminator.

The discriminator moves first in every round: it ascends d = p_rho - p_sigma
over its axis angles (beta, gamma) until the last few re-measured values
stall, then keeps the best axis it visited (the trace records the whole
exploration path; the kept strategy is where the next turn continues
from).  The generator then descends d over (r, theta, phi) until d drops
under the round threshold.  Gradients are forward finite differences of
paired fresh estimates, so in shot mode every partial costs two n-shot
measurements per state.  The game ends at equilibrium when the
discriminator's optimized d falls below ``d_bound``, or when the global
step budget ``c_limit`` runs out.

Step counting: by default every scalar partial estimated counts as one
step (two steps per discriminator iteration, three per generator
iteration), which is what lines the recorded totals up with hardware-run
budgets; ``count_per_partial=False`` switches to one step per full
optimizer iteration.  The stall window always looks at post-update
re-measurements, whatever the counting mode.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import count
from typing import Annotated, Literal, get_args, get_type_hints

import numpy as np

from .bloch import (
    Count, DensityMatrix, GeneratorParams, MeasurementParams, Positive, Unit, check, fidelity,
    generated_fidelity, random_initial_params, state_bloch,
)
from .noise import NoiseSettings
from .sampling import OutcomeEstimate, _axis_side, _generated_side, _true_xyz, estimate_d

__all__ = [
    "GameConfig",
    "StepRecord",
    "GameTrace",
    "PARAM_NAMES",
    "finite_diff_gradient",
    "run_turn",
    "run_game",
    "fidelity_trajectory",
    "shots_consumed",
    "D_TURN",
    "G_TURN",
    "TERMINATION_EQUILIBRIUM",
    "TERMINATION_BUDGET",
]

# The values a step's turn and a game's termination may take; the document
# reader checks them against these annotations.
Turn = Literal["D", "G"]
Termination = Literal["equilibrium", "budget-exhausted"]
D_TURN, G_TURN = get_args(Turn)
TERMINATION_EQUILIBRIUM, TERMINATION_BUDGET = get_args(Termination)

# The game carries both strategies as one flat tuple in this order, from
# the opening move to the trace; each player varies its own slice of it.
PARAM_NAMES = ("r", "theta", "phi", "beta", "gamma")
Params = tuple[Unit, float, float, float, float]
_ACTIVE = {D_TURN: (3, 4), G_TURN: (0, 1, 2)}


@dataclass(frozen=True)
class GameConfig:
    """All protocol hyperparameters for one adversarial game.

    The protocol constants (shot count, stop rules, round thresholds,
    budgets) default to the reference values the acceptance statistics are
    calibrated against; the optimizer knobs (learning rate,
    finite-difference offsets) default to values stable against the
    1/sqrt(2n) estimate noise.  ``c_limit`` defaults to the pure-state
    budget of 500; mixed-state runs conventionally use 300.
    """

    shots: Annotated[int, (1, 2**63 - 1)] = 5000  # numpy's binomial takes int64 counts
    fd_delta_angle: Positive = 0.1
    fd_delta_r: Annotated[float, (0, 0.5, "(]")] = 0.05
    learning_rate: Positive = 0.2
    r_rate_scale: Positive = 0.25
    c_limit: Count = 500
    d_bound: Annotated[float, (0, 1, "()")] = 0.02
    stall_window: Annotated[int, (2, None)] = 3
    stall_tol: Positive = 0.02
    g_threshold_base: float = 0.055
    g_threshold_slope: float = 0.01
    g_threshold_floor: Positive = 0.02
    per_turn_cap: Count = 50
    exact_mode: bool = False
    count_per_partial: bool = True
    branchwise: bool = False
    noise: NoiseSettings = field(default_factory=NoiseSettings)
    seed: Annotated[int, (0, None)] = 0

    def __post_init__(self) -> None:
        fields = vars(self)  # frozen: the checked values are stored past __setattr__
        for name, kind in _GAME_CONFIG_KINDS.items():
            fields[name] = check(name, fields[name], kind)

    def g_threshold(self, round_index: int) -> float:
        """Round threshold ending the generator's turn (floored schedule)."""
        return max(
            self.g_threshold_base - self.g_threshold_slope * round_index,
            self.g_threshold_floor,
        )

    def game_over(self, turn: Turn, d_hat: float, c: int) -> Termination | None:
        """How a turn handing back ``d_hat`` at step count ``c`` ends the game, if it
        does: equilibrium below ``d_bound`` on D's turn, else budget at ``c_limit``."""
        if turn == D_TURN and d_hat < self.d_bound:
            return TERMINATION_EQUILIBRIUM
        return TERMINATION_BUDGET if c >= self.c_limit else None


# GameConfig's field kinds, bounds included, read once for its constructor.
_GAME_CONFIG_KINDS = get_type_hints(GameConfig, include_extras=True)


@dataclass(frozen=True)
class StepRecord:
    """One optimizer iteration: updated parameters, re-measurement, ideal F.

    ``params_after`` is the flat tuple (r, theta, phi, beta, gamma);
    ``fidelity_ideal`` is computed noiselessly from the current generator
    parameters against the true state.
    """

    step_index: Count
    round_index: int
    turn: Turn
    params_after: Params
    estimate: OutcomeEstimate
    fidelity_ideal: Unit


@dataclass
class GameTrace:
    """Full record of one game, its fields in result-document order: outcome, then steps."""

    config: GameConfig
    sigma: DensityMatrix
    termination: Termination
    c_step_total: int
    final_fidelity: float
    steps: list[StepRecord]


_new = object.__new__


def finite_diff_gradient(
    param: str,
    gen: GeneratorParams,
    meas: MeasurementParams,
    sigma: DensityMatrix,
    config: GameConfig,
    rng: np.random.Generator,
) -> float:
    """Forward-difference partial of d from two fresh estimates.

    For r at the upper boundary (r + delta > 1) the offset flips backward:
    (d(r) - d(r - delta)) / delta.
    """
    if param not in PARAM_NAMES:
        raise ValueError(f"unknown parameter {param!r}")
    i = PARAM_NAMES.index(param)
    p = [*gen, *meas]
    delta = config.fd_delta_r if i == 0 else config.fd_delta_angle
    backward = i == 0 and p[0] + delta > 1.0
    read_out = (
        sigma, None if config.exact_mode else config.shots, config.noise, rng, config.branchwise,
    )
    base = estimate_d(tuple(p[:3]), tuple(p[3:]), *read_out).d_hat
    p[i] = p[i] - delta if backward else p[i] + delta
    other = estimate_d(tuple(p[:3]), tuple(p[3:]), *read_out).d_hat
    return (base - other) / delta if backward else (other - base) / delta


def run_turn(
    turn: str,
    round_index: int,
    p: Params,
    sigma: DensityMatrix,
    config: GameConfig,
    rng: np.random.Generator,
    entering: OutcomeEstimate | None = None,
    c_start: int = 0,
) -> tuple[Params, list[StepRecord], int, OutcomeEstimate]:
    """One player's optimization turn.

    Each iteration estimates all of the active player's partials at the
    current point, applies the full-vector update (ascent for D, descent
    for G; r is clamped to [0, 1], angles stay unwrapped), then re-measures
    d.  D stops once the last ``stall_window`` re-measurements sit within
    ``stall_tol`` of each other and hands back the best axis it measured;
    G stops once d drops under the round threshold, and skips the turn
    entirely if ``entering`` is already below it.  Both stop unconditionally
    once the turn has consumed ``per_turn_cap`` steps.

    Takes the flat p = (r, theta, phi, beta, gamma) as any sequence and
    returns it as a tuple; also returns the step records appended by this
    turn, the advanced global step counter, and the estimate describing the
    returned p (D: its best; G: its last, or ``entering`` and ``p``
    unchanged for a skipped turn).
    """
    if turn not in _ACTIVE:
        raise ValueError(f"turn must be {D_TURN!r} or {G_TURN!r}, got {turn!r}")
    p = tuple(p)
    ascend = turn == D_TURN
    threshold = config.g_threshold(round_index)
    if not ascend:
        if entering is None:
            raise ValueError("the generator turn requires the entering estimate")
        if entering.d_hat < threshold:
            return p, [], c_start, entering
    r, theta, phi, beta, gamma = p
    shots = None if config.exact_mode else config.shots
    noise, branchwise = config.noise, config.branchwise
    rate, d_angle, d_r = config.learning_rate, config.fd_delta_angle, config.fd_delta_r
    per_step = len(_ACTIVE[turn]) if config.count_per_partial else 1
    # Each partial is a fresh estimate at the base point, then one at the
    # point offset along its parameter.  Each side of the read-out is built,
    # and checked, once: the side that stands still and the true vector once
    # per turn, before any draw; the base point once per iteration; each
    # offset point once.  D's ideal fidelity stands still with the generator.
    gen = _generated_side(r, theta, phi, noise, branchwise)
    true = _true_xyz(sigma, noise)
    meas = _axis_side(beta, gamma, true)
    fid = generated_fidelity(sigma, r, theta, phi) if ascend else None
    records: list[StepRecord] = []
    c = c_start
    while c - c_start < config.per_turn_cap:
        if ascend:
            # D ascends along the normalized gradient: a fixed step length
            # keeps the axis re-aligning even when |grad| ~ trace distance is
            # small, so its turn genuinely ends near the trace-distance optimum.
            base = estimate_d(gen, meas, sigma, shots, noise, rng, branchwise).d_hat
            offset = _axis_side(beta + d_angle, gamma, true)
            est = estimate_d(gen, offset, sigma, shots, noise, rng, branchwise)
            g_beta = (est.d_hat - base) / d_angle
            base = estimate_d(gen, meas, sigma, shots, noise, rng, branchwise).d_hat
            offset = _axis_side(beta, gamma + d_angle, true)
            est = estimate_d(gen, offset, sigma, shots, noise, rng, branchwise)
            g_gamma = (est.d_hat - base) / d_angle
            norm = math.hypot(g_beta, g_gamma)
            beta += rate * g_beta / norm if norm else 0.0
            gamma += rate * g_gamma / norm if norm else 0.0
            meas = _axis_side(beta, gamma, true)
        else:
            # G descends along the plain gradient: its step then shrinks with
            # the remaining signal, which keeps the threshold crossing from
            # overshooting.  r's difference flips backward at the boundary.
            base = estimate_d(gen, meas, sigma, shots, noise, rng, branchwise).d_hat
            back = r + d_r > 1.0
            offset = _generated_side(r - d_r if back else r + d_r, theta, phi, noise, branchwise)
            d = estimate_d(offset, meas, sigma, shots, noise, rng, branchwise).d_hat
            g_r = (base - d) / d_r if back else (d - base) / d_r
            base = estimate_d(gen, meas, sigma, shots, noise, rng, branchwise).d_hat
            offset = _generated_side(r, theta + d_angle, phi, noise, branchwise)
            est = estimate_d(offset, meas, sigma, shots, noise, rng, branchwise)
            g_theta = (est.d_hat - base) / d_angle
            base = estimate_d(gen, meas, sigma, shots, noise, rng, branchwise).d_hat
            offset = _generated_side(r, theta, phi + d_angle, noise, branchwise)
            est = estimate_d(offset, meas, sigma, shots, noise, rng, branchwise)
            g_phi = (est.d_hat - base) / d_angle
            r = min(max(r - config.r_rate_scale * (rate * g_r), 0.0), 1.0)
            theta -= rate * g_theta
            phi -= rate * g_phi
            gen = _generated_side(r, theta, phi, noise, branchwise)
        c += per_step
        est = estimate_d(gen, meas, sigma, shots, noise, rng, branchwise)
        if not ascend:
            fid = generated_fidelity(sigma, r, theta, phi)
        # StepRecord checks nothing, so the loop stores its fields as the
        # constructor would, without the frozen dataclass's attribute writes.
        rec = _new(StepRecord)
        fields = rec.__dict__
        fields["step_index"] = c
        fields["round_index"] = round_index
        fields["turn"] = turn
        p = (r, theta, phi, beta, gamma)
        fields["params_after"] = p
        fields["estimate"] = est
        fields["fidelity_ideal"] = fid
        records.append(rec)
        if ascend:
            seen = [rec.estimate.d_hat for rec in records[-config.stall_window:]]
            if len(seen) == config.stall_window and max(seen) - min(seen) < config.stall_tol:
                break
        elif est.d_hat < threshold:
            break
    if ascend:
        # The maximizing player keeps the first best strategy it measured,
        # not wherever the stall left it; the re-measurement at that axis is
        # reused, so the shot accounting is unchanged.
        kept = max(records, key=lambda rec: rec.estimate.d_hat)
        return kept.params_after, records, c, kept.estimate
    return p, records, c, est


def run_game(
    sigma: DensityMatrix,
    config: GameConfig,
    rng: np.random.Generator | None = None,
    initial: Sequence[float] | None = None,
) -> GameTrace:
    """Play one full adversarial game and record every step.

    ``initial`` is the opening (r, theta, phi, beta, gamma), drawn from
    ``rng`` when omitted.  A plain float is taken as given, for the
    estimator to check before any draw; any other value is read as its
    ``Params`` kind, named as a config file names it (``initial.r``), and
    stored as a float.

    The discriminator always opens each round.  Equilibrium is declared
    when its optimized d falls below ``d_bound``; otherwise the game stops
    once the step counter reaches ``c_limit`` (checked between turns, so
    the total can overshoot by at most one turn).
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    if initial is None:
        p = random_initial_params(rng)
    else:
        p = tuple(initial)
        if len(p) != len(PARAM_NAMES):
            raise ValueError(f"initial must be ({', '.join(PARAM_NAMES)}), got {initial!r}")
        p = tuple(
            x if type(x) is float else check(f"initial.{name}", x, kind)
            for name, kind, x in zip(PARAM_NAMES, get_args(Params), p)
        )
    steps: list[StepRecord] = []
    last: OutcomeEstimate | None = None
    c = 0
    for round_index, turn in ((k, t) for k in count(1) for t in (D_TURN, G_TURN)):
        p, recs, c, last = run_turn(
            turn, round_index, p, sigma, config, rng, entering=last, c_start=c,
        )
        steps.extend(recs)
        # D's turn hands back its best measured strategy; equilibrium is
        # judged on that optimized d, so shot noise cannot fake convergence
        # with one low sample.
        termination = config.game_over(turn, last.d_hat, c)
        if termination is not None:
            break
    return GameTrace(
        config=config,
        sigma=sigma,
        steps=steps,
        termination=termination,
        c_step_total=c,
        final_fidelity=fidelity(sigma, DensityMatrix.from_bloch(state_bloch(GeneratorParams(*p[:3])))),
    )


def fidelity_trajectory(trace: GameTrace) -> list[tuple[int, float]]:
    """(step_index, ideal fidelity) series of a recorded game."""
    if not trace.steps:
        raise ValueError("trace has no steps")
    return [(rec.step_index, rec.fidelity_ideal) for rec in trace.steps]


def shots_consumed(trace: GameTrace) -> int:
    """Total projective shots the recorded game spent.

    Per iteration: two estimates per varied parameter plus one post-update
    estimate, each estimate costing n shots on both states.  Exact-mode
    traces consume none.
    """
    if trace.config.exact_mode:
        return 0
    n = trace.config.shots
    return sum((2 * len(_ACTIVE[rec.turn]) + 1) * 2 * n for rec in trace.steps)
