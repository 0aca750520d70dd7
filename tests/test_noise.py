"""Decoherence channels against Kraus-operator matrix oracles."""

import numpy as np
import pytest

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
)
from qgan_sim.noise import channel_xyz


class TestDepolarize:
    def test_zero_strength_is_identity(self):
        v = BlochVector(0.3, -0.2, 0.5)
        assert depolarize(v, 0.0) == v

    def test_full_strength_reaches_center(self):
        out = depolarize(BlochVector(0.6, 0.0, -0.8), 1.0)
        assert (out.x, out.y, out.z) == (0.0, 0.0, 0.0)

    def test_matches_kraus_oracle(self):
        expected = oracles.matrix_bloch(
            oracles.depolarize_kraus(oracles.density_from_bloch([0, 0, 1]), 0.1)
        )
        assert np.allclose(expected, [0.0, 0.0, 0.9], atol=1e-12)
        out = depolarize(BlochVector(0, 0, 1), 0.1)
        assert np.allclose([out.x, out.y, out.z], expected, atol=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="eps"):
            depolarize(BlochVector(0, 0, 1), 1.5)

    def test_rejects_a_string_naming_the_argument(self):
        with pytest.raises(ValueError, match="^eps: expected a number, got '0.1'$"):
            depolarize(BlochVector(0, 0, 1), "0.1")


class TestAmplitudeDamp:
    def test_zero_strength_is_identity(self):
        v = BlochVector(0.3, -0.2, 0.5)
        assert amplitude_damp(v, 0.0) == v

    def test_full_decay_reaches_ground(self):
        out = amplitude_damp(BlochVector(0.6, 0.0, -0.8), 1.0)
        assert np.allclose([out.x, out.y, out.z], [0, 0, 1], atol=1e-15)

    def test_matches_kraus_oracle(self):
        expected = oracles.matrix_bloch(
            oracles.amplitude_damp_kraus(oracles.density_from_bloch([1, 0, 0]), 0.2)
        )
        assert np.allclose(expected, [0.894427191, 0.0, 0.2], atol=1e-9)
        out = amplitude_damp(BlochVector(1, 0, 0), 0.2)
        assert np.allclose([out.x, out.y, out.z], expected, atol=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="gamma_ad"):
            amplitude_damp(BlochVector(0, 0, 1), -0.1)


class TestNoiseSettings:
    def test_defaults_are_identity(self):
        assert NoiseSettings().is_identity

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError, match="depolarizing_eps"):
            NoiseSettings(depolarizing_eps=2.0)
        with pytest.raises(ValueError, match="amplitude_damping_gamma"):
            NoiseSettings(amplitude_damping_gamma=-0.5)
        with pytest.raises(ValueError, match="apply_to"):
            NoiseSettings(apply_to="everything")

    def test_rejects_a_string_or_a_bool_naming_the_field(self):
        with pytest.raises(ValueError, match="^depolarizing_eps: expected a number, got '0.1'$"):
            NoiseSettings(depolarizing_eps="0.1")
        with pytest.raises(ValueError, match="^depolarizing_eps: expected a number, got True$"):
            NoiseSettings(True)

    def test_strengths_stored_as_plain_floats(self):
        settings = NoiseSettings(np.float64(0.08), 1)
        assert (settings.depolarizing_eps, settings.amplitude_damping_gamma) == (0.08, 1.0)
        assert type(settings.depolarizing_eps) is type(settings.amplitude_damping_gamma) is float

    def test_preset_is_documented_shape(self):
        preset = NoiseSettings.decoherence_preset()
        assert preset.depolarizing_eps == preset.amplitude_damping_gamma == 0.08
        assert preset.apply_to == "both"


class TestChannelXyz:
    def test_no_settings_and_identity_settings_pass_through(self):
        xyz = (0.3, -0.0, -0.0)
        for settings in (None, NoiseSettings()):
            out = channel_xyz(settings, *xyz)
            assert [c.hex() for c in out] == [c.hex() for c in xyz]


class TestApplyNoise:
    def test_outputs_stay_in_ball(self):
        rng = np.random.default_rng(30)
        for _ in range(10_000):
            v = BlochVector(*oracles.random_bloch(rng))
            settings = NoiseSettings(
                depolarizing_eps=float(rng.uniform(0, 1)),
                amplitude_damping_gamma=float(rng.uniform(0, 1)),
            )
            out = apply_noise(settings, v, "generated")
            assert out.norm_sq() <= 1.0 + 1e-12

    def test_composition_order_depolarize_then_damp(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            v = oracles.random_bloch(rng)
            eps, g = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
            expected = oracles.matrix_bloch(
                oracles.amplitude_damp_kraus(
                    oracles.depolarize_kraus(oracles.density_from_bloch(v), eps), g
                )
            )
            out = apply_noise(NoiseSettings(eps, g), BlochVector(*v), "generated")
            assert np.allclose([out.x, out.y, out.z], expected, atol=1e-12)

    def test_generated_only_leaves_true_state_alone(self):
        settings = NoiseSettings(0.3, 0.0, apply_to="generated-only")
        v = BlochVector(0.5, 0.0, 0.5)
        assert apply_noise(settings, v, "true") == v
        assert apply_noise(settings, v, "generated") != v

    def test_rejects_unknown_role(self):
        with pytest.raises(ValueError, match="role"):
            apply_noise(NoiseSettings(), BlochVector(0, 0, 0), "fake")

    def test_identity_settings_bit_identical_to_no_noise(self):
        gen = GeneratorParams(0.83, 1.21, 4.0)
        meas = MeasurementParams(0.77, 2.13)
        sigma = DensityMatrix.from_bloch(BlochVector(0.1, -0.4, 0.2))
        with_identity = estimate_d(
            gen, meas, sigma, 5000, noise=NoiseSettings(), rng=np.random.default_rng(9)
        )
        without = estimate_d(gen, meas, sigma, 5000, noise=None, rng=np.random.default_rng(9))
        assert with_identity == without
