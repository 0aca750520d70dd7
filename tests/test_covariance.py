"""Rotation covariance of the whole game, as a property.

In this package's convention n(theta, phi) = (sin t sin p, sin t cos p,
cos t), so adding alpha to an azimuth turns a vector by -alpha about z.
Both noise channels commute with a turn about z. So a game whose true state
is turned by -alpha, and whose opening has alpha added to phi and gamma,
must play as the original does with the same generator seed: the same
turns, step indices and termination, its phi and gamma alpha ahead. In shot
mode every count is the same, so the frequencies are bit-equal. The two
games round differently, so in exact mode d can differ in its last bits,
and a game can carry that difference forward and grow it step by step. So
exact mode plays a third game too, from the same opening with phi and gamma
one ulp up: its drift from the original at each record is the floor that
rounding alone reaches there. The turned twin is held to K times that floor
(or TOL), and compared up to the first stop decision whose margin is under
K times the floor (or MARGIN), which those bits could decide either way, or
up to where the one-ulp game itself departs. numpy's binomial sampler
branches on p as well, so in shot mode the two games' draws are logged where
the estimator calls the sampler, and compared up to the first whose
probabilities differ within MARGIN of a branch point: a p of 0 takes no
uniform at all, while one ulp above it does.
"""

import math
from itertools import groupby
from unittest import mock

import numpy as np
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from qgan_sim import BlochVector, DensityMatrix, GameConfig, NoiseSettings, run_game, sampling
from qgan_sim.game import D_TURN

MARGIN = 1e-9
TOL = 1e-9  # on every other float the games compute
# How far past the one-ulp game's drift the turned twin may drift. In the two
# examples pinned below it drifts up to 2.6 times as far, and 2.3e-9 at
# steps[44] of the first.
K = 4.0
# The fidelity takes the square root of determinants that vanish for pure
# states, so an ulp there moves it by about 1e-8.
FIDELITY_TOL = 1e-7
ESTIMATES_PER_STEP = {"D": 5, "G": 7}  # two per varied parameter, then the re-measurement

unit = st.floats(0.0, 1.0)
angles = st.floats(-10.0, 10.0)

configs = st.builds(
    GameConfig,
    shots=st.integers(1, 5000),
    fd_delta_angle=st.floats(1e-3, 1.0),
    fd_delta_r=st.floats(1e-3, 0.5),
    learning_rate=st.floats(1e-3, 2.0),
    r_rate_scale=st.floats(1e-2, 2.0),
    c_limit=st.integers(1, 60),
    d_bound=st.floats(1e-3, 0.5),
    stall_window=st.integers(2, 5),
    stall_tol=st.floats(1e-3, 0.2),
    g_threshold_base=st.floats(0.0, 0.2),
    g_threshold_slope=st.floats(-0.05, 0.05),
    g_threshold_floor=st.floats(1e-3, 0.1),
    per_turn_cap=st.integers(1, 12),
    exact_mode=st.booleans(),
    count_per_partial=st.booleans(),
    branchwise=st.booleans(),
    noise=st.just(NoiseSettings()) | st.builds(
        NoiseSettings,
        depolarizing_eps=unit,
        amplitude_damping_gamma=unit,
        apply_to=st.sampled_from(("both", "generated-only")),
    ),
    seed=st.integers(0, 2**32 - 1),
)

ball_vectors = st.builds(
    lambda rad, t, p: (
        rad * math.sin(t) * math.sin(p), rad * math.sin(t) * math.cos(p), rad * math.cos(t)
    ),
    unit, st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi),
)


def turned(v, alpha):
    """``v`` turned by -alpha about z: what adding alpha to its azimuth does."""
    x, y, z = v
    c, s = math.cos(alpha), math.sin(alpha)
    return x * c + y * s, y * c - x * s, z


class DrawLog:
    """Logs every binomial draw of the games played under it as (n, p, count),
    standing in for the sampler entry that ``sampling`` draws through."""

    def __init__(self):
        self.draw = sampling.binomial
        self.draws = []

    def __call__(self, state, n, p):
        count = self.draw(state, n, p)
        self.draws.append((n, p, count))
        return count


def logged_game(sigma, config, initial):
    """``run_game`` on a fresh generator at the config's seed, and its draws."""
    log = DrawLog()
    with mock.patch.object(sampling, "binomial", log):
        trace = run_game(sigma, config, rng=np.random.default_rng(config.seed), initial=initial)
    return trace, log.draws


def first_unstable_draw(a, b) -> int | None:
    """The index of the first draw at which the two logs' probabilities
    differ within MARGIN of a point where numpy's sampler branches on p, or
    None; every draw before it must have the same n and count."""
    for i, ((n, p, count), (m, q, other)) in enumerate(zip(a, b)):
        if p != q and any(
            abs(x - point) < MARGIN for x in (p, q) for point in (0.0, 0.5, 30 / n, 1 - 30 / n)
        ):
            return i
        assert (m, other) == (n, count) and abs(q - p) <= TOL, f"draw {i}"
    assert len(b) == len(a)
    return None


def steps_drawn_before(trace, draws, end) -> int:
    """How many of ``trace``'s records were measured within its first
    ``end`` draws. A branchwise estimate draws the branch count, then one
    draw per branch prepared on some shot, then sigma; any other draws two."""
    shots, branchwise = trace.config.shots, trace.config.branchwise
    i = 0
    for count, rec in enumerate(trace.steps):
        for _ in range(ESTIMATES_PER_STEP[rec.turn]):
            main = draws[i][2]
            i += 2 + (main > 0) + (main < shots) if branchwise else 2
        if i > end:
            return count
    return len(trace.steps)


def compared(rec):
    """The floats of a record that are held to TOL, bar the fidelity."""
    return (rec.estimate.p_rho_hat, rec.estimate.p_sigma_hat, rec.estimate.d_hat,
            *rec.params_after)


def drift_floors(a, c) -> list[float]:
    """Per record, how far game ``c``, opened one ulp away from ``a``, has
    drifted from it, up to the first record at which its play departs."""
    floors = []
    for ra, rc in zip(a.steps, c.steps):
        if (rc.step_index, rc.round_index, rc.turn) != (ra.step_index, ra.round_index, ra.turn):
            break
        floors.append(max(abs(x - y) for x, y in zip(compared(ra), compared(rc))))
    return floors


def first_close_call(trace, margins) -> int | None:
    """The index of the first record after which the game took a stop
    decision with a margin under that record's ``margins[k]``, or None if it
    took none."""
    config = trace.config
    start = 0
    for (round_index, turn), turn_steps in groupby(
        trace.steps, key=lambda rec: (rec.round_index, rec.turn)
    ):
        ds = [rec.estimate.d_hat for rec in turn_steps]
        threshold = config.g_threshold(round_index)
        if turn == D_TURN:
            w = config.stall_window
            for k in range(w - 1, len(ds)):  # the stall window, after each record
                seen = ds[k - w + 1:k + 1]
                if abs(max(seen) - min(seen) - config.stall_tol) < margins[start + k]:
                    return start + k
            # At the turn's end: which record is kept, then equilibrium and
            # G's skip on the kept d.
            ranked = sorted(ds)
            kept, margin = ranked[-1], margins[start + len(ds) - 1]
            if (
                (len(ranked) > 1 and kept - ranked[-2] < margin)
                or abs(kept - config.d_bound) < margin
                or abs(kept - threshold) < margin
            ):
                return start + len(ds) - 1
        else:
            for k, d in enumerate(ds):  # the round threshold, after each record
                if abs(d - threshold) < margins[start + k]:
                    return start + k
        start += len(ds)
    return None


def assert_plays_alike(a, b, alpha, draws_a, draws_b, ulp=None):
    """``b`` plays as ``a`` turned by alpha; in exact mode, as far as the
    game ``ulp``, opened one ulp away from ``a``, shows rounding allows."""
    exact = a.config.exact_mode
    if exact:
        floors = drift_floors(a, ulp)
        tols = [max(TOL, K * floor) for floor in floors]
        margins = [max(MARGIN, K * floor) for floor in floors]
        cuts = [first_close_call(a, margins + [MARGIN] * (len(a.steps) - len(floors)))]
        if len(floors) < len(a.steps) or len(ulp.steps) != len(a.steps):
            cuts.append(len(floors) - 1)  # the one-ulp game departs after this record
        cut = min((k for k in cuts if k is not None), default=None)
        count = len(a.steps) if cut is None else cut + 1
    else:
        cut = first_unstable_draw(draws_a, draws_b)
        count = len(a.steps) if cut is None else steps_drawn_before(a, draws_a, cut)
        tols = [TOL] * count
    assert len(b.steps) >= count
    shift = (0.0, 0.0, alpha, 0.0, alpha)
    for i, (ra, rb) in enumerate(zip(a.steps[:count], b.steps[:count])):
        where = f"steps[{i}]"
        assert (rb.step_index, rb.round_index, rb.turn) == (
            ra.step_index, ra.round_index, ra.turn
        ), where
        if exact:
            for got, want in zip(compared(rb)[:3], compared(ra)[:3]):
                assert math.isclose(got, want, rel_tol=0.0, abs_tol=tols[i]), where
        else:
            assert rb.estimate == ra.estimate, where
        for got, want, offset in zip(rb.params_after, ra.params_after, shift):
            assert math.isclose(got, want + offset, rel_tol=0.0, abs_tol=tols[i]), where
        assert math.isclose(
            rb.fidelity_ideal, ra.fidelity_ideal, rel_tol=0.0, abs_tol=FIDELITY_TOL
        ), where
    if cut is None:
        assert len(b.steps) == len(a.steps)
        assert (b.termination, b.c_step_total) == (a.termination, a.c_step_total)
        assert math.isclose(b.final_fidelity, a.final_fidelity, rel_tol=0.0, abs_tol=FIDELITY_TOL)


DRIFTING = dict(
    shots=1, fd_delta_angle=1.0, fd_delta_r=0.5, learning_rate=1.96875,
    r_rate_scale=0.692750331930744, d_bound=0.25, stall_window=2, stall_tol=0.125,
    g_threshold_base=0.0, g_threshold_slope=0.0, g_threshold_floor=0.0625, per_turn_cap=3,
    exact_mode=True, count_per_partial=False,
)


# Without the shrink phase: each shrink step plays three whole games, so a
# regression found at once could take longer than 600 s to report.
@settings(max_examples=100, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
# A draw that flips on an ulp: D's shifted axis is antiparallel to the branch
# prepared on every shot, whose probability is 0 in one game and 5.6e-17 in
# the other.
@example(
    config=GameConfig(shots=1, fd_delta_angle=0.9999999999999999, c_limit=1, per_turn_cap=1,
                      exact_mode=False, branchwise=True),
    v=(0.0, 0.0, 0.0),
    opening=(0.0, 1.0, 0.0, 0.0, 0.0),
    alpha=1.0,
)
# Two exact games whose turned twin drifts past TOL (2.3e-9 at steps[44] of
# the first, 1.2e-9 at steps[32] of the second), yet from step 8 on stays
# within 2.6 times as far as the one-ulp game drifts.
@example(config=GameConfig(**DRIFTING, c_limit=45), v=(0.0, 0.0, 0.03125),
         opening=(0.0, 0.1875, 1.0, 0.5, 0.0), alpha=1.0)
@example(config=GameConfig(**DRIFTING, c_limit=33), v=(0.0, 0.0, 0.25),
         opening=(0.0, 0.1875, 1.0, 0.5, 0.0), alpha=1.0)
@given(
    config=configs,
    v=ball_vectors,
    opening=st.tuples(unit, angles, angles, angles, angles),
    alpha=st.floats(-math.pi, math.pi),
)
def test_game_is_covariant_under_a_turn_about_z(config, v, opening, alpha):
    r, theta, phi, beta, gamma = opening
    a, draws_a = logged_game(DensityMatrix.from_bloch(BlochVector(*v)), config, opening)
    b, draws_b = logged_game(DensityMatrix.from_bloch(BlochVector(*turned(v, alpha))), config,
                             (r, theta, phi + alpha, beta, gamma + alpha))
    ulp = None
    if config.exact_mode:  # draws nothing, so needs no generator of its own
        up = (r, theta, math.nextafter(phi, math.inf), beta, math.nextafter(gamma, math.inf))
        ulp = run_game(DensityMatrix.from_bloch(BlochVector(*v)), config, initial=up)
    assert_plays_alike(a, b, alpha, draws_a, draws_b, ulp)
