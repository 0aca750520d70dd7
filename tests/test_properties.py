"""Property tests pinning the estimator's draw contract and the fidelity.

The estimator runs on plain floats.  These properties hold it to the
contract independently of how it is written: exact-mode probabilities
against explicit matrix arithmetic, shot-mode frequencies against binomial
draws from a twin generator fed the object-API probabilities, and the
scalar fidelity against an eigendecomposition.  Two geometric invariants
stand behind checks the estimator does not make: every measurement axis
is a unit vector, and no noise map leaves the Bloch ball.  Every number a
game records is a plain Python number, whichever way its true state was
drawn, and its final fidelity is its last record's.
"""

import copy
import math
from dataclasses import fields, is_dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qgan_sim import (
    BlochVector,
    DensityMatrix,
    GameConfig,
    GeneratorParams,
    MeasurementParams,
    NoiseSettings,
    amplitude_damp,
    apply_noise,
    depolarize,
    estimate_d,
    fidelity,
    measurement_axis,
    outcome_probability,
    pure_axis,
    state_bloch,
)
from qgan_sim.bloch import SIGMA_MODES, axis_xyz, generated_fidelity, state_xyz
from qgan_sim.game import D_TURN, G_TURN, finite_diff_gradient, run_turn
from qgan_sim.harness import ExperimentSpec, SigmaSpec, run_experiment
from qgan_sim.noise import channel_xyz
from qgan_sim.sampling import OutcomeEstimate, _axis_side, _generated_side, _true_xyz

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)

angles = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
unit = st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False)
bad_r = st.floats().filter(lambda r: not 0.0 <= r <= 1.0)
bad_angles = st.sampled_from((math.nan, math.inf, -math.inf))
noises = st.none() | st.builds(
    NoiseSettings,
    depolarizing_eps=unit,
    amplitude_damping_gamma=unit,
    apply_to=st.sampled_from(("both", "generated-only")),
)
shots = st.integers(1, 10**6)
seeds = st.integers(0, 2**32 - 1)


def bloch_vectors(max_radius=1.0):
    """Bloch vectors as (radius, polar, azimuth) points inside the ball."""
    return st.builds(
        lambda rad, t, p: rad * np.array(
            [math.sin(t) * math.cos(p), math.sin(t) * math.sin(p), math.cos(t)]
        ),
        st.floats(0.0, max_radius),
        st.floats(0.0, math.pi),
        st.floats(0.0, 2.0 * math.pi),
    )


def params():
    return st.tuples(unit, angles, angles, angles, angles)


def density(v) -> np.ndarray:
    return oracles.density_from_bloch(v)


def oracle_channel(rho: np.ndarray, noise) -> np.ndarray:
    return oracles.amplitude_damp_kraus(
        oracles.depolarize_kraus(rho, noise.depolarizing_eps), noise.amplitude_damping_gamma
    )


def object_probabilities(p, sigma, noise):
    """(p_rho, p_sigma) through the validated object API."""
    r, theta, phi, beta, gamma = p
    m = measurement_axis(MeasurementParams(beta, gamma))
    v_rho = apply_noise(noise, state_bloch(GeneratorParams(r, theta, phi)), "generated")
    v_sigma = apply_noise(noise, sigma.to_bloch(), "true")
    return outcome_probability(m, v_rho), outcome_probability(m, v_sigma)


@PROPERTY_SETTINGS
@given(p=params(), v=bloch_vectors(), noise=noises)
def test_exact_probabilities_match_matrix_oracle(p, v, noise):
    r, theta, phi, beta, gamma = p
    sigma_matrix = density(v)
    est = estimate_d(p[:3], p[3:], DensityMatrix(sigma_matrix), None, noise)
    rho = oracles.ensemble_density(r, theta, phi)
    if noise is not None:
        rho = oracle_channel(rho, noise)
        if noise.apply_to == "both":
            sigma_matrix = oracle_channel(sigma_matrix, noise)
    projector = oracles.projector(beta, gamma)
    assert abs(est.p_rho_hat - oracles.born_probability(projector, rho)) <= 1e-12
    assert abs(est.p_sigma_hat - oracles.born_probability(projector, sigma_matrix)) <= 1e-12
    assert est.d_hat == est.p_rho_hat - est.p_sigma_hat
    assert est.shots is None


@PROPERTY_SETTINGS
@given(p=params(), v=bloch_vectors(), noise=noises, n=shots, seed=seeds)
def test_shot_frequencies_are_twin_binomial_draws(p, v, noise, n, seed):
    sigma = DensityMatrix(density(v))
    p_rho, p_sigma = object_probabilities(p, sigma, noise)
    exact = estimate_d(p[:3], p[3:], sigma, None, noise)
    assert (exact.p_rho_hat, exact.p_sigma_hat) == (p_rho, p_sigma)

    rng = np.random.default_rng(seed)
    twin = np.random.default_rng(seed)
    est = estimate_d(p[:3], p[3:], sigma, n, noise, rng)
    # Generated state first, then the true one.
    assert est.p_rho_hat == float(twin.binomial(n, p_rho)) / n
    assert est.p_sigma_hat == float(twin.binomial(n, p_sigma)) / n
    assert est.d_hat == est.p_rho_hat - est.p_sigma_hat
    assert est.shots == n
    assert rng.random() == twin.random()  # no draw more, no draw fewer


@PROPERTY_SETTINGS
@given(p=params(), v=bloch_vectors(), noise=noises, n=shots, seed=seeds)
def test_branchwise_draw_order(p, v, noise, n, seed):
    r, theta, phi, beta, gamma = p
    sigma = DensityMatrix(density(v))
    m = measurement_axis(MeasurementParams(beta, gamma))
    p_main = outcome_probability(m, apply_noise(noise, pure_axis(theta, phi), "generated"))
    p_alt = outcome_probability(
        m, apply_noise(noise, pure_axis(math.pi - theta, phi + math.pi), "generated")
    )
    _, p_sigma = object_probabilities(p, sigma, noise)

    rng = np.random.default_rng(seed)
    twin = np.random.default_rng(seed)
    est = estimate_d(p[:3], p[3:], sigma, n, noise, rng, branchwise=True)
    # k_main, then hits_main, then hits_alt, then the true state.
    k_main = twin.binomial(n, r)
    hits = twin.binomial(k_main, p_main) if k_main > 0 else 0
    if n - k_main > 0:
        hits += twin.binomial(n - k_main, p_alt)
    assert est.p_rho_hat == float(hits) / n
    assert est.p_sigma_hat == float(twin.binomial(n, p_sigma)) / n
    assert est.d_hat == est.p_rho_hat - est.p_sigma_hat
    assert rng.random() == twin.random()


@st.composite
def call_sequences(draw):
    """Estimator calls as a game makes them: turns in which one side keeps
    its very objects while the other moves.  A move may also put in an
    equal-valued but distinct float, or flip a zero's sign, or come with a
    bad value (r outside [0, 1], a NaN or infinite angle) on either side
    for a call or two before the old object is back, or go back to the
    side's float objects before its last change (A, B, A, as a finite
    difference returns to its base point).  About one move in four swaps
    the noise object for the other one (perhaps an equal copy), so a side
    can also come back under another channel."""
    values = draw(params())
    sides = {"G": list(values[:3]), "D": list(values[3:])}
    before = {"G": list(values[:3]), "D": list(values[3:])}
    first = draw(noises)
    noise = [first, draw(noises | st.just(copy.copy(first)))]
    calls = []

    def call():
        calls.append((tuple(sides["G"]), tuple(sides["D"]), noise[0]))

    for turn in draw(st.lists(st.sampled_from("GD"), min_size=1, max_size=4)):
        side = sides[turn]
        for _ in range(draw(st.integers(1, 5))):
            i = draw(st.integers(0, len(side) - 1))
            how = draw(st.sampled_from(("keep", "move", "copy", "zero", "bad", "back")))
            if draw(st.integers(0, 3)) == 0:
                noise.reverse()
            if how == "back":
                side[:], before[turn] = before[turn], list(side)
            elif how != "keep":
                before[turn] = list(side)
            if how in ("move", "bad"):
                side[i] = draw(unit if turn == "G" and i == 0 else angles)
            if how == "bad":
                hurt = draw(st.sampled_from("GD"))
                j = draw(st.integers(0, len(sides[hurt]) - 1))
                good = sides[hurt][j]
                sides[hurt][j] = draw(bad_r if hurt == "G" and j == 0 else bad_angles)
                for _ in range(draw(st.integers(1, 2))):
                    call()
                sides[hurt][j] = good
            elif how == "copy":
                side[i] = float(repr(side[i]))
            elif how == "zero":  # 0.0 in one call, -0.0 in the next
                side[i] = 0.0
                call()
                side[i] = -0.0
            call()
    return calls


def read_out(*args) -> str:
    """The repr of ``estimate_d(*args)``, or the ValueError it raises."""
    try:
        return repr(estimate_d(*args))
    except ValueError as exc:
        return f"ValueError: {exc}"


@PROPERTY_SETTINGS
@given(calls=call_sequences(), v=bloch_vectors(), n=st.none() | shots, seed=seeds,
       branchwise=st.booleans())
def test_reused_sigma_reads_out_as_a_fresh_one(calls, v, n, seed, branchwise):
    # A reused state must give what a fresh state gives, bit for bit, and
    # reject what a fresh state rejects with the same message.
    matrix = density(v)
    sigma = DensityMatrix(matrix)
    rng = np.random.default_rng(seed)
    twin = np.random.default_rng(seed)
    for gen, meas, noise in calls:
        kept = read_out(gen, meas, sigma, n, noise, rng, branchwise)
        fresh = read_out(gen, meas, DensityMatrix(matrix), n, noise, twin, branchwise)
        assert kept == fresh
    assert rng.random() == twin.random()


@PROPERTY_SETTINGS
@given(r=unit | st.sampled_from((0.0, 1.0)), angles4=st.tuples(angles, angles, angles, angles),
       v=bloch_vectors(), noise=noises, n=st.none() | shots, seed=seeds,
       branchwise=st.booleans())
def test_built_sides_read_out_as_the_raw_input(r, angles4, v, noise, n, seed, branchwise):
    # The game loop passes sides it built itself; each, alone or together,
    # must read out what the raw parameters read out, draw for draw.
    theta, phi, beta, gamma = angles4
    sigma = DensityMatrix(density(v))
    raw = ((r, theta, phi), (beta, gamma))
    built = (
        _generated_side(r, theta, phi, noise, branchwise),
        _axis_side(beta, gamma, _true_xyz(sigma, noise)),
    )
    rng = np.random.default_rng(seed)
    want = repr(estimate_d(*raw, sigma, n, noise, rng, branchwise))
    for gen, meas in ((built[0], raw[1]), (raw[0], built[1]), built):
        twin = np.random.default_rng(seed)
        assert repr(estimate_d(gen, meas, sigma, n, noise, twin, branchwise)) == want
        assert rng.bit_generator.state == twin.bit_generator.state


# Below radius 0.95 both states keep eigenvalues >= 0.025; nearer the sphere
# the eigendecomposition oracle itself loses the 1e-12 precision (the square
# root amplifies the rounding error of an eigenvalue near 0).
@PROPERTY_SETTINGS
@given(va=bloch_vectors(0.95), vb=bloch_vectors(0.95))
def test_scalar_fidelity_matches_eigendecomposition(va, vb):
    a, b = density(va), density(vb)
    assert abs(fidelity(DensityMatrix(a), DensityMatrix(b)) - oracles.fidelity_eig(a, b)) <= 1e-12


@PROPERTY_SETTINGS
@given(p=params(), v=bloch_vectors())
def test_generated_fidelity_equals_object_route(p, v):
    sigma = DensityMatrix(density(v))
    r, theta, phi = p[:3]
    rho = DensityMatrix.from_bloch(state_bloch(GeneratorParams(r, theta, phi)))
    assert generated_fidelity(sigma, r, theta, phi) == fidelity(sigma, rho)


finite = st.floats(allow_nan=False, allow_infinity=False)
# Channel strengths with both ends of [0, 1] drawn for certain.
strengths = st.sampled_from((0.0, 1.0)) | unit
noise_settings = st.builds(
    NoiseSettings,
    depolarizing_eps=strengths,
    amplitude_damping_gamma=strengths,
    apply_to=st.sampled_from(("both", "generated-only")),
)
# Vectors on the sphere (radius exactly 1) and inside it.
ball_vectors = st.builds(
    lambda rad, t, p: BlochVector(
        rad * math.sin(t) * math.cos(p), rad * math.sin(t) * math.sin(p), rad * math.cos(t)
    ),
    st.just(1.0) | unit,
    st.floats(0.0, math.pi),
    st.floats(0.0, 2.0 * math.pi),
)


def norm_sq(x, y, z):
    return x * x + y * y + z * z


@PROPERTY_SETTINGS
@given(beta=finite, gamma=finite)
def test_measurement_axis_is_unit_for_every_finite_angle(beta, gamma):
    assert abs(math.sqrt(norm_sq(*axis_xyz(beta, gamma))) - 1.0) <= 1e-12


@PROPERTY_SETTINGS
@given(v=ball_vectors, noise=noise_settings, role=st.sampled_from(("generated", "true")))
def test_noise_maps_keep_vectors_in_ball(v, noise, role):
    outputs = (
        depolarize(v, noise.depolarizing_eps),
        amplitude_damp(v, noise.amplitude_damping_gamma),
        apply_noise(noise, v, role),
    )
    for out in outputs:
        assert out.norm_sq() <= 1.0 + 1e-12


@PROPERTY_SETTINGS
@given(r=strengths, theta=finite, phi=finite, noise=noise_settings)
def test_channel_keeps_generated_states_in_ball(r, theta, phi, noise):
    assert norm_sq(*channel_xyz(noise, *state_xyz(r, theta, phi))) <= 1.0 + 1e-12


# Strengths at both ends of [0, 1], the preset's, a hair inside each end, and
# any other; components that are signed zeros or far below any other term.
edge_strengths = st.sampled_from((0.0, 1.0, 0.08, 1e-17, 1.0 - 1e-16)) | unit
edge_components = st.sampled_from((0.0, -0.0, 1e-300, -1e-300)) | st.floats(-0.57, 0.57)


@PROPERTY_SETTINGS
@given(
    v=ball_vectors | st.builds(BlochVector, edge_components, edge_components, edge_components),
    eps=edge_strengths, g=edge_strengths,
)
def test_channel_xyz_equals_the_object_route(v, eps, g):
    # The float channel must give the object route's bits.
    # Zero strengths return the input as given, signed zeros included, where
    # the object route would turn -0.0 into 0.0 in z.
    out = channel_xyz(NoiseSettings(eps, g), v.x, v.y, v.z)
    if eps == 0.0 and g == 0.0:
        assert repr(out) == repr((v.x, v.y, v.z))
    else:
        w = amplitude_damp(depolarize(v, eps), g)
        assert repr(out) == repr((w.x, w.y, w.z))


@settings(max_examples=300, deadline=None)
@given(
    turn=st.sampled_from((D_TURN, G_TURN)),
    exact=st.booleans(),
    noisy=st.booleans(),
    count_per_partial=st.booleans(),
    # r at 0.97 and 1.0 takes the generator's backward difference.
    p=st.tuples(st.sampled_from((0.97, 1.0)) | unit, angles, angles, angles, angles),
    v=bloch_vectors(),
    seed=seeds,
)
def test_each_iteration_is_the_finite_difference_rule(
    turn, exact, noisy, count_per_partial, p, v, seed
):
    # One iteration of run_turn is the update built from finite_diff_gradient's
    # partials, in the player's order, followed by a re-measurement.
    names = ("beta", "gamma") if turn == D_TURN else ("r", "theta", "phi")
    config = GameConfig(
        shots=50,
        exact_mode=exact,
        count_per_partial=count_per_partial,
        noise=NoiseSettings.decoherence_preset() if noisy else NoiseSettings(),
        per_turn_cap=len(names) if count_per_partial else 1,
    )
    bloch = BlochVector(*v)  # a round trip through to_bloch() can move sigma by an ulp
    entering = OutcomeEstimate(1.0, 0.0, 1.0, None)
    _, (rec,), _, _ = run_turn(
        turn, 1, p, DensityMatrix.from_bloch(bloch), config, np.random.default_rng(seed), entering
    )
    sigma, rng = DensityMatrix.from_bloch(bloch), np.random.default_rng(seed)
    gen, meas = GeneratorParams(*p[:3]), MeasurementParams(*p[3:])
    grads = [finite_diff_gradient(name, gen, meas, sigma, config, rng) for name in names]
    r, theta, phi, beta, gamma = p
    rate = config.learning_rate
    if turn == D_TURN:
        norm = math.hypot(*grads)
        beta += rate * grads[0] / norm if norm else 0.0
        gamma += rate * grads[1] / norm if norm else 0.0
    else:
        r = min(max(r + config.r_rate_scale * (-rate * grads[0]), 0.0), 1.0)
        theta += -rate * grads[1]
        phi += -rate * grads[2]
    after = (r, theta, phi, beta, gamma)
    assert repr(rec.params_after) == repr(after)
    shots = None if exact else config.shots
    assert rec.estimate == estimate_d(after[:3], after[3:], sigma, shots, config.noise, rng)
    assert rec.fidelity_ideal == generated_fidelity(sigma, r, theta, phi)


def _values(node):
    """Every value under a trace: its dataclass fields, sequences, and each
    state's stored entries and Bloch vector."""
    if isinstance(node, DensityMatrix):
        yield from node._entries
        yield from _values(node.to_bloch())
    elif is_dataclass(node):
        for f in fields(node):
            yield from _values(getattr(node, f.name))
    elif isinstance(node, (list, tuple)):
        for item in node:
            yield from _values(item)
    else:
        yield node


# A fixed sigma given as numpy values, as a caller holding an array would.
_SIGMAS = [SigmaSpec("fixed", tuple(np.array([0.3, -0.2, 0.5]))) if mode == "fixed"
           else SigmaSpec(mode) for mode in SIGMA_MODES]


@pytest.mark.parametrize("sigma", _SIGMAS, ids=SIGMA_MODES)
@pytest.mark.parametrize("exact_mode", [True, False], ids=["exact", "shot"])
@pytest.mark.parametrize("noise", [NoiseSettings(), NoiseSettings.decoherence_preset()],
                         ids=["noiseless", "noisy"])
@pytest.mark.parametrize("branchwise", [False, True], ids=["ensemble", "branchwise"])
@settings(max_examples=3, deadline=None)
@given(seed=seeds)
def test_game_records_only_plain_numbers(sigma, exact_mode, noise, branchwise, seed):
    game = GameConfig(shots=200, c_limit=12, per_turn_cap=6, exact_mode=exact_mode,
                      noise=noise, branchwise=branchwise, seed=seed)
    trace = run_experiment(ExperimentSpec(game=game, sigma=sigma))
    kinds = {type(x) for x in _values(trace)}
    assert kinds <= {float, int, complex, bool, str, type(None)}, kinds
    # The final fidelity comes through the object API, each record's through
    # the float kernel; the two routes agree bit for bit.
    assert trace.final_fidelity == trace.steps[-1].fidelity_ideal
