"""Property tests pinning the estimator's draw contract and the fidelity.

The estimator runs on plain floats.  These properties hold it to the
contract independently of how it is written: exact-mode probabilities
against explicit matrix arithmetic, shot-mode frequencies against binomial
draws from a twin generator fed the object-API probabilities, and the
scalar fidelity against an eigendecomposition.  Two geometric invariants
stand behind checks the estimator does not make: every measurement axis
is a unit vector, and no noise map leaves the Bloch ball.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qgan_sim import (
    BlochVector,
    DensityMatrix,
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
from qgan_sim.bloch import axis_xyz, generated_fidelity, state_xyz
from qgan_sim.noise import channel_xyz

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)

angles = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
unit = st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False)
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
