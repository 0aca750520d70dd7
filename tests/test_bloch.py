"""State and measurement algebra against explicit matrix oracles."""

import math
import pickle

import numpy as np
import pytest

import oracles
from qgan_sim import (
    BlochVector,
    DensityMatrix,
    GameConfig,
    GeneratorParams,
    MeasurementParams,
    NoiseSettings,
    estimate_d,
    fidelity,
    measurement_axis,
    optimal_axis,
    outcome_probability,
    random_initial_params,
    random_true_state,
    run_game,
    state_bloch,
    trace_distance,
)


def random_gen_params(rng):
    return GeneratorParams(
        float(rng.uniform(0, 1)),
        float(rng.uniform(0, math.pi)),
        float(rng.uniform(0, 2 * math.pi)),
    )


class TestBlochVector:
    def test_rejects_outside_ball(self):
        with pytest.raises(ValueError, match="unit ball"):
            BlochVector(1.0, 1.0, 0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            BlochVector(math.inf, 0.0, 0.0)

    def test_pure_iff_unit_norm(self):
        assert BlochVector(0.0, 0.0, 1.0).is_pure()
        assert not BlochVector(0.0, 0.0, 0.5).is_pure()

    def test_slightly_over_unit_tolerated(self):
        v = BlochVector(0.0, 0.0, math.sqrt(1.0 + 0.5e-12))
        assert v.norm() > 1.0


class TestPlayerParams:
    def test_generator_rejects_r_outside_unit_interval(self):
        with pytest.raises(ValueError, match="r must be"):
            GeneratorParams(1.2, 0.0, 0.0)
        with pytest.raises(ValueError, match="r must be"):
            GeneratorParams(-0.1, 0.0, 0.0)

    def test_generator_rejects_non_finite_angles(self):
        with pytest.raises(ValueError):
            GeneratorParams(0.5, math.nan, 0.0)

    def test_measurement_rejects_non_finite(self):
        with pytest.raises(ValueError):
            MeasurementParams(math.inf, 0.0)

    def test_angles_stored_unwrapped(self):
        p = GeneratorParams(0.5, 7.0, -12.5)
        assert p.theta == 7.0 and p.phi == -12.5


class TestDensityMatrix:
    def test_bloch_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            v = oracles.random_bloch(rng)
            out = DensityMatrix.from_bloch(BlochVector(*v)).to_bloch()
            assert np.allclose([out.x, out.y, out.z], v, atol=1e-12)

    def test_hermitian_by_construction(self):
        m = DensityMatrix.from_bloch(BlochVector(0.3, -0.2, 0.4)).matrix
        assert m[0, 1] == np.conj(m[1, 0])

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix([[0.5, 0.5], [0.1, 0.5]])

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix([[0.9, 0.0], [0.0, 0.9]])

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            DensityMatrix([[1.2, 0.0], [0.0, -0.2]])

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="2x2"):
            DensityMatrix(np.eye(3) / 3)

    def test_psd_slack_rescaled_onto_the_sphere(self):
        # An eigenvalue of -5e-13 is within tolerance, but |v|^2 = 1 + 2e-12
        # exceeds the ball's 1 + 1e-12; the vector is rescaled to unit length.
        v = DensityMatrix([[1 + 5e-13, 0], [0, -5e-13]]).to_bloch()
        assert v.x * v.x + v.y * v.y + v.z * v.z == 1.0

    def test_pure_ground_is_plus_z(self):
        v = DensityMatrix.pure_ground().to_bloch()
        assert (v.x, v.y, v.z) == (0.0, 0.0, 1.0)

    def test_equality_is_exact(self):
        a = DensityMatrix.from_bloch(BlochVector(0.1, 0.2, 0.3))
        b = DensityMatrix.from_bloch(BlochVector(0.1, 0.2, 0.3))
        assert a == b and hash(a) == hash(b)
        assert a != DensityMatrix.maximally_mixed()

    def test_numpy_components_stored_as_plain_numbers(self):
        rho = DensityMatrix.from_bloch(BlochVector(*np.array([0.3, -0.2, 0.5])))
        plain = DensityMatrix.from_bloch(BlochVector(0.3, -0.2, 0.5))
        v = rho.to_bloch()
        assert [type(e) for e in rho._entries] == [float, complex, float]
        assert [type(c) for c in (v.x, v.y, v.z)] == [float, float, float]
        assert rho == plain and hash(rho) == hash(plain)

    def test_pickled_sigma_reads_out_as_a_fresh_one(self):
        # A --jobs worker without traces sends each trace back by pickle,
        # sigma included.  Sigma holds no read-out, so every later read-out,
        # on the trace's own params_after floats or on new ones, is a fresh
        # sigma's.
        noise = NoiseSettings.decoherence_preset()
        sigma = DensityMatrix.from_bloch(BlochVector(0.3, -0.2, 0.5))
        estimate_d((0.4, 1.1, 2.3), (0.7, 0.2), sigma, None, noise)
        estimate_d((0.4, 1.1, 2.3), (0.7, 0.2), sigma, 50, noise, np.random.default_rng(1))
        config = GameConfig(shots=50, noise=noise, c_limit=30, seed=3)
        trace = run_game(DensityMatrix.pure_ground(), config, rng=np.random.default_rng(3))
        lone = pickle.loads(pickle.dumps(sigma))
        back = pickle.loads(pickle.dumps(trace))
        assert lone == sigma and back == trace
        new = [(0.4, 1.1, 2.3, 0.7, 0.2), (0.6, 0.5, 4.0, 2.9, 1.3)]
        own = [rec.params_after for rec in (back.steps[-1], back.steps[0])]
        cases = [(lone, new, noise), (back.sigma, own + new, back.config.noise)]
        for kept, params, channel in cases:
            for p in params:
                fresh = DensityMatrix(kept.matrix)
                assert fresh == kept
                for shots in (None, 50):
                    got, want = (
                        estimate_d(p[:3], p[3:], s, shots, channel, np.random.default_rng(2))
                        for s in (kept, fresh)
                    )
                    assert got == want

    @pytest.mark.parametrize("shots", [None, 50], ids=["exact", "shot"])
    def test_a_game_leaves_sigma_as_it_was(self, shots):
        # Sigma keeps nothing between estimates: after a whole game it
        # pickles to the same bytes as before it.
        sigma = DensityMatrix.from_bloch(BlochVector(0.3, -0.2, 0.5))
        before = pickle.dumps(sigma)
        config = GameConfig(shots=shots or 50, exact_mode=shots is None, c_limit=30,
                            noise=NoiseSettings.decoherence_preset(), branchwise=True)
        run_game(sigma, config)
        estimate_d((0.4, 1.1, 2.3), (0.7, 0.2), sigma, shots, config.noise,
                   np.random.default_rng(1))
        assert pickle.dumps(sigma) == before
        assert DensityMatrix.__slots__ == ("_entries", "_bloch")


class TestStateBloch:
    def test_ground_state_itself(self):
        v = state_bloch(GeneratorParams(1.0, 0.0, 0.0))
        assert np.allclose([v.x, v.y, v.z], [0, 0, 1], atol=1e-15)

    def test_equal_mixture_is_maximally_mixed(self):
        v = state_bloch(GeneratorParams(0.5, 1.234, 2.345))
        assert np.allclose([v.x, v.y, v.z], [0, 0, 0], atol=1e-15)

    def test_pure_equator_point_matches_matrix_oracle(self):
        # Oracle: U(pi/2, pi/2) |g> worked out with explicit matrices.
        ket = oracles.unitary(math.pi / 2, math.pi / 2) @ oracles.KET_G
        expected = oracles.ket_bloch(ket)
        assert np.allclose(expected, [1.0, 0.0, 0.0], atol=1e-12)
        v = state_bloch(GeneratorParams(1.0, math.pi / 2, math.pi / 2))
        assert np.allclose([v.x, v.y, v.z], expected, atol=1e-12)

    def test_matches_ensemble_density_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            p = random_gen_params(rng)
            expected = oracles.matrix_bloch(oracles.ensemble_density(p.r, p.theta, p.phi))
            v = state_bloch(p)
            assert np.allclose([v.x, v.y, v.z], expected, atol=1e-12)

    def test_antipodality(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            theta = float(rng.uniform(0, math.pi))
            phi = float(rng.uniform(0, 2 * math.pi))
            a = state_bloch(GeneratorParams(1.0, theta, phi))
            b = state_bloch(GeneratorParams(1.0, math.pi - theta, phi + math.pi))
            assert np.allclose([a.x, a.y, a.z], [-b.x, -b.y, -b.z], atol=1e-12)

    def test_mixture_linearity(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            p = random_gen_params(rng)
            v = state_bloch(p)
            top = state_bloch(GeneratorParams(1.0, p.theta, p.phi))
            bottom = state_bloch(GeneratorParams(0.0, p.theta, p.phi))
            mix = p.r * np.array([top.x, top.y, top.z]) + (1 - p.r) * np.array(
                [bottom.x, bottom.y, bottom.z]
            )
            assert np.allclose([v.x, v.y, v.z], mix, atol=1e-12)


class TestMeasurementAxis:
    def test_no_rotation_measures_ground(self):
        v = measurement_axis(MeasurementParams(0.0, 1.7))
        assert np.allclose([v.x, v.y, v.z], [0, 0, 1], atol=1e-15)

    def test_pi_rotation_measures_excited(self):
        v = measurement_axis(MeasurementParams(math.pi, 0.0))
        assert np.allclose([v.x, v.y, v.z], [0, 0, -1], atol=1e-12)

    def test_equator_matches_matrix_oracle(self):
        expected = oracles.matrix_bloch(oracles.projector(math.pi / 2, 0.0))
        assert np.allclose(expected, [0.0, 1.0, 0.0], atol=1e-12)
        v = measurement_axis(MeasurementParams(math.pi / 2, 0.0))
        assert np.allclose([v.x, v.y, v.z], expected, atol=1e-12)

    def test_unit_norm_everywhere(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            m = measurement_axis(
                MeasurementParams(float(rng.uniform(0, math.pi)), float(rng.uniform(0, 7)))
            )
            assert m.norm() == pytest.approx(1.0, abs=1e-12)


class TestOutcomeProbability:
    def test_projector_onto_state(self):
        z = BlochVector(0.0, 0.0, 1.0)
        assert outcome_probability(z, z) == 1.0

    def test_maximally_mixed_state(self):
        assert outcome_probability(BlochVector(0, 0, 1), BlochVector(0, 0, 0)) == 0.5

    def test_orthogonal_pure_state(self):
        assert outcome_probability(BlochVector(0, 0, 1), BlochVector(0, 0, -1)) == 0.0

    def test_rejects_non_unit_axis(self):
        with pytest.raises(ValueError, match="unit vector"):
            outcome_probability(BlochVector(0, 0, 0.5), BlochVector(0, 0, 1))

    def test_matches_born_rule_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(1000):
            gen = random_gen_params(rng)
            meas = MeasurementParams(
                float(rng.uniform(0, math.pi)), float(rng.uniform(0, 2 * math.pi))
            )
            p = outcome_probability(measurement_axis(meas), state_bloch(gen))
            expected = oracles.born_probability(
                oracles.projector(meas.beta, meas.gamma),
                oracles.ensemble_density(gen.r, gen.theta, gen.phi),
            )
            assert p == pytest.approx(expected, abs=1e-12)


class TestOptimalAxis:
    def test_degenerate_pair_returns_plus_z(self):
        v = BlochVector(0.1, 0.2, 0.3)
        m = optimal_axis(v, v)
        assert (m.x, m.y, m.z) == (0.0, 0.0, 1.0)

    def test_analytic_maximizer_equals_trace_distance(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            a = oracles.random_density(rng)
            b = oracles.random_density(rng)
            va = BlochVector(*oracles.matrix_bloch(a))
            vb = BlochVector(*oracles.matrix_bloch(b))
            m = optimal_axis(va, vb)
            best = outcome_probability(m, va) - outcome_probability(m, vb)
            td = trace_distance(DensityMatrix(a), DensityMatrix(b))
            assert best == pytest.approx(td, abs=1e-9)

    def test_coarse_grid_never_beats_analytic(self):
        rng = np.random.default_rng(12)
        betas = np.linspace(0.0, math.pi, 90)
        gammas = np.linspace(0.0, 2 * math.pi, 180, endpoint=False)
        bb, gg = np.meshgrid(betas, gammas, indexing="ij")
        grid = np.stack(
            [np.sin(bb) * np.sin(gg), np.sin(bb) * np.cos(gg), np.cos(bb)], axis=-1
        ).reshape(-1, 3)
        for _ in range(25):
            va = oracles.random_bloch(rng)
            vb = oracles.random_bloch(rng)
            m = optimal_axis(BlochVector(*va), BlochVector(*vb))
            best = 0.5 * np.array([m.x, m.y, m.z]) @ (va - vb)
            assert np.max(grid @ (va - vb)) * 0.5 <= best + 1e-12


class TestFidelity:
    def test_identical_states(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            rho = DensityMatrix(oracles.random_density(rng))
            assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        g = DensityMatrix.pure_ground()
        e = DensityMatrix.from_bloch(BlochVector(0, 0, -1))
        assert fidelity(g, e) == pytest.approx(0.0, abs=1e-12)

    def test_ground_versus_maximally_mixed(self):
        # Oracle value: eigendecomposition route gives sqrt(1/2).
        expected = oracles.fidelity_eig(
            oracles.density_from_bloch([0, 0, 1]), 0.5 * oracles.ID
        )
        assert expected == pytest.approx(0.70710678, abs=1e-8)
        got = fidelity(DensityMatrix.pure_ground(), DensityMatrix.maximally_mixed())
        assert got == pytest.approx(0.70710678, abs=1e-8)

    def test_closed_form_matches_eigendecomposition(self):
        rng = np.random.default_rng(14)
        for _ in range(1000):
            a = oracles.random_density(rng)
            b = oracles.random_density(rng)
            assert fidelity(DensityMatrix(a), DensityMatrix(b)) == pytest.approx(
                oracles.fidelity_eig(a, b), abs=1e-10
            )

    def test_symmetry(self):
        rng = np.random.default_rng(15)
        for _ in range(1000):
            a = DensityMatrix(oracles.random_density(rng))
            b = DensityMatrix(oracles.random_density(rng))
            assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-12)

    def test_unity_iff_zero_trace_distance(self):
        rng = np.random.default_rng(16)
        for _ in range(300):
            a = DensityMatrix(oracles.random_density(rng))
            b = DensityMatrix(oracles.random_density(rng))
            if fidelity(a, b) > 1.0 - 1e-12:
                assert trace_distance(a, b) < 1e-6
            if trace_distance(a, b) < 1e-9:
                assert fidelity(a, b) > 1.0 - 1e-8

    def test_fuchs_van_de_graaf_sandwich(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            a = DensityMatrix(oracles.random_density(rng))
            b = DensityMatrix(oracles.random_density(rng))
            f = fidelity(a, b)
            td = trace_distance(a, b)
            assert 1.0 - f <= td + 1e-9
            assert td <= math.sqrt(max(1.0 - f * f, 0.0)) + 1e-9


class TestTraceDistance:
    def test_identical_states(self):
        rho = DensityMatrix.from_bloch(BlochVector(0.2, 0.1, -0.3))
        assert trace_distance(rho, rho) == 0.0

    def test_antipodal_pure_states(self):
        g = DensityMatrix.pure_ground()
        e = DensityMatrix.from_bloch(BlochVector(0, 0, -1))
        assert trace_distance(g, e) == pytest.approx(1.0, abs=1e-12)

    def test_ground_versus_maximally_mixed(self):
        expected = oracles.trace_distance_eig(
            oracles.density_from_bloch([0, 0, 1]), 0.5 * oracles.ID
        )
        assert expected == pytest.approx(0.5, abs=1e-12)
        got = trace_distance(DensityMatrix.pure_ground(), DensityMatrix.maximally_mixed())
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_matches_eigenvalue_oracle(self):
        rng = np.random.default_rng(18)
        for _ in range(1000):
            a = oracles.random_density(rng)
            b = oracles.random_density(rng)
            assert trace_distance(DensityMatrix(a), DensityMatrix(b)) == pytest.approx(
                oracles.trace_distance_eig(a, b), abs=1e-12
            )


class TestRandomTrueState:
    def test_pure_ground_mode(self):
        v = random_true_state("pure-ground").to_bloch()
        assert (v.x, v.y, v.z) == (0.0, 0.0, 1.0)

    def test_fixed_mode(self):
        v = random_true_state("fixed", bloch=(0.2, -0.1, 0.4)).to_bloch()
        assert np.allclose([v.x, v.y, v.z], [0.2, -0.1, 0.4], atol=1e-12)

    def test_fixed_mode_rejects_outside_ball(self):
        with pytest.raises(ValueError, match="unit ball"):
            random_true_state("fixed", bloch=(0.8, 0.8, 0.8))

    def test_fixed_mode_requires_vector(self):
        with pytest.raises(ValueError, match="requires a Bloch vector"):
            random_true_state("fixed")

    @pytest.mark.parametrize("mode", ["bloch-ball", "hilbert-schmidt"])
    def test_random_mode_requires_generator(self, mode):
        with pytest.raises(ValueError, match="requires a random generator"):
            random_true_state(mode)

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown true-state mode"):
            random_true_state("thermal", np.random.default_rng(0))

    def test_ball_mode_radius_cubed_is_uniform(self):
        # For a uniform ball the cubed radius is U[0, 1], so its mean is 1/2.
        rng = np.random.default_rng(19)
        radii_cubed = np.empty(100_000)
        for i in range(radii_cubed.size):
            v = random_true_state("bloch-ball", rng).to_bloch()
            radii_cubed[i] = v.norm() ** 3
        assert abs(radii_cubed.mean() - 0.5) < 0.01

    def test_ball_mode_deterministic_per_seed(self):
        a = random_true_state("bloch-ball", np.random.default_rng(77))
        b = random_true_state("bloch-ball", np.random.default_rng(77))
        assert a == b

    def test_hilbert_schmidt_mode_is_valid_state(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            rho = random_true_state("hilbert-schmidt", rng)
            assert rho.to_bloch().norm() <= 1.0 + 1e-12


class TestRandomInitialParams:
    def test_deterministic_per_seed(self):
        a = random_initial_params(np.random.default_rng(123))
        b = random_initial_params(np.random.default_rng(123))
        assert a == b

    def test_ranges_and_invariants(self):
        rng = np.random.default_rng(21)
        for _ in range(2000):
            r, theta, phi, beta, gamma = random_initial_params(rng)
            assert 0.0 <= r <= 1.0
            assert 0.0 <= theta <= math.pi
            assert 0.0 <= phi < 2 * math.pi
            assert 0.0 <= beta <= math.pi
            assert 0.0 <= gamma < 2 * math.pi

    def test_mixing_weight_is_uniform(self):
        rng = np.random.default_rng(22)
        rs = [random_initial_params(rng)[0] for _ in range(10_000)]
        assert abs(np.mean(rs) - 0.5) < 0.02
