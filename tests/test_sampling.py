"""Shot statistics: binomial frequencies and the d estimator."""

import dataclasses
import math
import pickle
import re

import numpy as np
import pytest

import oracles
from qgan_sim import (
    BlochVector,
    DensityMatrix,
    GeneratorParams,
    MeasurementParams,
    OutcomeEstimate,
    d_standard_deviation,
    estimate_d,
    measurement_axis,
    outcome_probability,
    sample_frequency,
    state_bloch,
)


class TestSampleFrequency:
    def test_impossible_outcome(self):
        rng = np.random.default_rng(0)
        assert all(sample_frequency(0.0, n, rng) == 0.0 for n in (1, 10, 5000))

    def test_certain_outcome(self):
        rng = np.random.default_rng(0)
        assert all(sample_frequency(1.0, n, rng) == 1.0 for n in (1, 10, 5000))

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError, match="probability"):
            sample_frequency(1.2, 10, np.random.default_rng(0))

    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError, match="shot count"):
            sample_frequency(0.5, 0, np.random.default_rng(0))

    def test_rejects_a_fractional_shot_count(self):
        # numpy truncates n to 2, so k / 2.5 would be no frequency of n shots.
        with pytest.raises(ValueError, match="^shot count: expected an integer, got 2.5$"):
            sample_frequency(0.5, 2.5, np.random.default_rng(0))

    def test_a_shot_count_beyond_int64_is_named(self):
        # numpy's binomial takes int64 counts; 2**63 used to raise a bare OverflowError.
        message = "shot count: expected a number in [1, 9223372036854775807], got 9223372036854775808"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sample_frequency(0.5, 2**63, np.random.default_rng(0))

    def test_standard_deviation_matches_binomial(self):
        # Oracle: sd of k/n is sqrt(p (1-p) / n) = 0.00707 at p=1/2, n=5000.
        rng = np.random.default_rng(42)
        freqs = np.array([sample_frequency(0.5, 5000, rng) for _ in range(10_000)])
        expected = math.sqrt(0.25 / 5000)
        assert abs(freqs.std(ddof=1) - expected) / expected < 0.05

    def test_unbiased(self):
        rng = np.random.default_rng(43)
        reps = 100_000
        freqs = np.array([sample_frequency(0.3, 100, rng) for _ in range(reps)])
        standard_error = math.sqrt(0.3 * 0.7 / 100) / math.sqrt(reps)
        assert abs(freqs.mean() - 0.3) < 3 * standard_error


class TestDStandardDeviation:
    def test_equilibrium_value(self):
        assert d_standard_deviation(0.5, 0.5, 5000) == pytest.approx(0.01, rel=1e-3)

    def test_deterministic_outcomes(self):
        assert d_standard_deviation(0.0, 0.0, 100) == 0.0

    def test_direct_formula_point(self):
        # sqrt(0.09/100 + 0.09/100)
        assert d_standard_deviation(0.9, 0.1, 100) == pytest.approx(0.042426407, abs=1e-9)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            d_standard_deviation(1.5, 0.5, 100)
        with pytest.raises(ValueError):
            d_standard_deviation(0.5, 0.5, 0)


class TestOutcomeEstimate:
    def test_difference_identity_enforced(self):
        with pytest.raises(ValueError, match="d_hat"):
            OutcomeEstimate(0.6, 0.5, 0.2, 100)

    def test_rejects_non_positive_shots(self):
        with pytest.raises(ValueError, match="shots"):
            OutcomeEstimate(0.5, 0.5, 0.0, 0)

    @pytest.mark.parametrize("p_rho, p_sigma", [(1.5, 0.5), (0.5, -0.25)])
    def test_rejects_frequency_outside_unit_interval(self, p_rho, p_sigma):
        # The first frequency outside [0, 1] is named.
        field, value = ("p_rho_hat", p_rho) if not 0 <= p_rho <= 1 else ("p_sigma_hat", p_sigma)
        message = rf"^{field}: expected a number in \[0, 1\], got {value}$"
        with pytest.raises(ValueError, match=message):
            OutcomeEstimate(p_rho, p_sigma, p_rho - p_sigma, 100)

    def test_exact_mode_sentinel(self):
        est = OutcomeEstimate(0.5, 0.25, 0.25, None)
        assert est.shots is None

    @pytest.mark.parametrize(
        "args, message",
        [
            ((0.5, 0.5, 0.0, 2.5), "shots: expected an integer, got 2.5"),
            ((0.5, 0.5, 0.0, True), "shots: expected an integer, got True"),
            ((True, False, 1, True), "p_rho_hat: expected a number, got True"),
        ],
        ids=["fractional-shots", "bool-shots", "bool-frequency"],
    )
    def test_fields_are_read_as_their_kinds(self, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            OutcomeEstimate(*args)

    def test_numpy_scalars_are_stored_as_python_numbers(self):
        est = OutcomeEstimate(np.float64(0.5), np.float32(0.25), np.float64(0.25), np.int64(100))
        assert [type(v) for v in vars(est).values()] == [float, float, float, int]
        assert vars(est) == vars(OutcomeEstimate(0.5, 0.25, 0.25, 100))


class TestEstimateD:
    def test_identical_states_exact(self):
        est = estimate_d(
            GeneratorParams(1, 0, 0),
            MeasurementParams(0, 0),
            DensityMatrix.pure_ground(),
            None,
        )
        assert est.p_rho_hat == est.p_sigma_hat == 1.0
        assert est.d_hat == 0.0

    def test_orthogonal_state_exact(self):
        est = estimate_d(
            GeneratorParams(1, math.pi, 0),
            MeasurementParams(0, 0),
            DensityMatrix.pure_ground(),
            None,
        )
        assert est.d_hat == pytest.approx(-1.0, abs=1e-12)
        assert est.p_rho_hat == pytest.approx(0.0, abs=1e-12)

    def test_exact_mode_matches_bloch_formula(self):
        rng = np.random.default_rng(50)
        sigma = DensityMatrix(oracles.random_density(rng))
        for _ in range(200):
            gen = GeneratorParams(
                float(rng.uniform(0, 1)),
                float(rng.uniform(0, math.pi)),
                float(rng.uniform(0, 2 * math.pi)),
            )
            meas = MeasurementParams(
                float(rng.uniform(0, math.pi)), float(rng.uniform(0, 2 * math.pi))
            )
            est = estimate_d(gen, meas, sigma, None)
            m = measurement_axis(meas)
            expected = outcome_probability(m, state_bloch(gen)) - outcome_probability(
                m, sigma.to_bloch()
            )
            assert est.d_hat == pytest.approx(expected, abs=1e-12)

    def test_near_equilibrium_noise_scale(self):
        # Both probabilities 1/2, so sd of d_hat should be 1/sqrt(2n) = 0.01.
        gen = GeneratorParams(0.5, 1.0, 2.0)
        meas = MeasurementParams(1.3, 0.7)
        sigma = DensityMatrix.maximally_mixed()
        rng = np.random.default_rng(51)
        ds = np.array(
            [estimate_d(gen, meas, sigma, 5000, rng=rng).d_hat for _ in range(10_000)]
        )
        assert abs(ds.std(ddof=1) - 0.01) / 0.01 < 0.10

    def test_empirical_sd_matches_formula(self):
        rng = np.random.default_rng(52)
        cases = [(0.5, 0.5, 5000), (0.9, 0.1, 1000)]
        for p_rho, p_sigma, n in cases:
            # States along +z with the right populations (p_rho = r at theta=0).
            gen = GeneratorParams(p_rho, 0.0, 0.0)
            sigma = DensityMatrix.from_bloch(BlochVector(0, 0, 2 * p_sigma - 1))
            meas = MeasurementParams(0.0, 0.0)
            ds = np.array(
                [estimate_d(gen, meas, sigma, n, rng=rng).d_hat for _ in range(10_000)]
            )
            expected = d_standard_deviation(p_rho, p_sigma, n)
            assert abs(ds.std(ddof=1) - expected) / expected < 0.10

    def test_counts_are_integral(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            gen = GeneratorParams(float(rng.uniform(0, 1)), 1.0, 0.5)
            est = estimate_d(
                gen, MeasurementParams(0.4, 1.1), DensityMatrix.maximally_mixed(),
                321, rng=rng,
            )
            for freq in (est.p_rho_hat, est.p_sigma_hat):
                assert abs(freq * 321 - round(freq * 321)) < 1e-9

    def test_deterministic_given_seed(self):
        gen = GeneratorParams(0.7, 0.9, 1.1)
        meas = MeasurementParams(0.3, 0.2)
        sigma = DensityMatrix.pure_ground()
        a = [
            estimate_d(gen, meas, sigma, 5000, rng=np.random.default_rng(99))
            for _ in range(1)
        ]
        b = [
            estimate_d(gen, meas, sigma, 5000, rng=np.random.default_rng(99))
            for _ in range(1)
        ]
        assert a == b

    def test_requires_rng_in_shot_mode(self):
        with pytest.raises(ValueError, match="random generator"):
            estimate_d(
                GeneratorParams(1, 0, 0), MeasurementParams(0, 0),
                DensityMatrix.pure_ground(), 100,
            )

    def test_flat_inputs_validated_inline(self):
        # The game loop passes plain tuples, which no constructor checks, so
        # the estimator itself rejects what GeneratorParams and
        # MeasurementParams would.
        sigma = DensityMatrix.pure_ground()
        rng = np.random.default_rng(0)
        for r in (-0.1, 1.5, math.nan):
            with pytest.raises(ValueError, match="r must be in"):
                estimate_d((r, 0.0, 0.0), (0.0, 0.0), sigma, None)
        for gen, meas in (
            ((0.5, math.nan, 0.0), (0.0, 0.0)),
            ((0.5, 0.0, math.inf), (0.0, 0.0)),
            ((0.5, 0.0, 0.0), (-math.inf, 0.0)),
            ((0.5, 0.0, 0.0), (0.0, math.nan)),
        ):
            with pytest.raises(ValueError, match="finite"):
                estimate_d(gen, meas, sigma, None)
        for n in (0, -3):
            with pytest.raises(ValueError, match="shot count"):
                estimate_d((0.5, 0.0, 0.0), (0.0, 0.0), sigma, n, rng=rng)

    def test_shot_count_is_read_as_an_integer(self):
        # A caller's own parameters have their shot count checked like any
        # config count: 2.5 would draw Binomial(2, p) and divide by 2.5.
        sigma = DensityMatrix.pure_ground()
        for n in (2.5, True, "5"):
            with pytest.raises(ValueError, match=f"^shot count: expected an integer, got {n!r}$"):
                estimate_d((0.5, 0.0, 0.0), (0.0, 0.0), sigma, n, rng=np.random.default_rng(0))
        est = estimate_d((0.5, 0.0, 0.0), (0.0, 0.0), sigma, np.int64(50),
                         rng=np.random.default_rng(0))
        assert type(est.shots) is int
        assert est == estimate_d((0.5, 0.0, 0.0), (0.0, 0.0), sigma, 50,
                                 rng=np.random.default_rng(0))

    def test_a_shot_count_beyond_int64_is_named(self):
        message = "shot count: expected a number in [1, 9223372036854775807], got 9223372036854775808"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            estimate_d((0.5, 0.0, 0.0), (0.0, 0.0), DensityMatrix.pure_ground(), 2**63,
                       rng=np.random.default_rng(0))

    @pytest.mark.parametrize(
        "call, message",
        [
            ({"branchwise": "yes"}, "branchwise: expected a boolean, got 'yes'"),
            ({"noise": {"depolarizing_eps": 0.1}},
             "noise: expected a NoiseSettings, got {'depolarizing_eps': 0.1}"),
            ({"noise": "preset"}, "noise: expected a NoiseSettings, got 'preset'"),
            ({"sigma": "ground"}, "sigma: expected a DensityMatrix, got 'ground'"),
        ],
        ids=["branchwise-string", "noise-dict", "noise-string", "sigma-string"],
    )
    def test_a_callers_other_arguments_are_read_as_their_kinds(self, call, message):
        # A caller's own parameters come with the rest of the call unchecked
        # by any config: each is named before any draw.
        rng, twin = np.random.default_rng(0), np.random.default_rng(0)
        args = {"gen": (0.5, 0.3, 0.0), "meas": (0.2, 0.0), "sigma": DensityMatrix.pure_ground(),
                "shots": 50, "rng": rng, **call}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            estimate_d(**args)
        assert rng.random() == twin.random()

    def test_tuple_and_object_inputs_agree(self):
        gen = GeneratorParams(0.37, 1.2, 0.4)
        meas = MeasurementParams(0.9, 2.2)
        sigma = DensityMatrix.from_bloch(BlochVector(0.1, -0.4, 0.2))
        a = estimate_d(gen, meas, sigma, 500, rng=np.random.default_rng(3))
        b = estimate_d((0.37, 1.2, 0.4), (0.9, 2.2), sigma, 500, rng=np.random.default_rng(3))
        assert a == b

    def test_a_side_cannot_be_forged_by_shape(self):
        # Only the builders' own tuples are read as built: a tuple or a
        # generator of floats as long as a built side is unpacked like any
        # other input, and rejected.
        sigma = DensityMatrix.pure_ground()
        for gen in ((0.5,) * 8, (0.5 for _ in range(8))):
            with pytest.raises(ValueError):
                estimate_d(gen, (0.7, 0.2), sigma, None)
        for meas in ((0.5,) * 7, (0.5 for _ in range(7))):
            with pytest.raises(ValueError):
                estimate_d((0.4, 1.1, 2.3), meas, sigma, None)

    def test_reused_true_state_follows_the_channel(self):
        # The true state's post-channel vector follows the channel of each
        # call: reusing the state object under another channel reads out as a
        # fresh state does.
        from qgan_sim import NoiseSettings

        gen = GeneratorParams(0.37, 1.2, 0.4)
        meas = MeasurementParams(0.9, 2.2)
        sigma = DensityMatrix.from_bloch(BlochVector(0.1, -0.4, 0.2))
        for noise in (
            None, NoiseSettings(0.3, 0.1), NoiseSettings(0.3, 0.1, apply_to="generated-only"),
            NoiseSettings(0.05, 0.2), None,
        ):
            fresh = DensityMatrix.from_bloch(BlochVector(0.1, -0.4, 0.2))
            assert estimate_d(gen, meas, sigma, None, noise) == estimate_d(
                gen, meas, fresh, None, noise
            )

    @pytest.mark.parametrize("shots", [None, 700], ids=["exact", "shot"])
    def test_kernel_estimate_equals_the_public_build(self, shots):
        # The kernel builds its estimate without __post_init__; it must be
        # the estimate the checked constructor builds from the same values.
        sigma = DensityMatrix.from_bloch(BlochVector(0.1, -0.4, 0.2))
        est = estimate_d((0.37, 1.2, 0.4), (0.9, 2.2), sigma, shots,
                         rng=np.random.default_rng(4))
        public = OutcomeEstimate(est.p_rho_hat, est.p_sigma_hat, est.d_hat, est.shots)
        assert est == public and hash(est) == hash(public) and repr(est) == repr(public)
        assert vars(est) == vars(public) and list(vars(est)) == list(vars(public))
        assert dataclasses.replace(est) == est
        assert pickle.loads(pickle.dumps(est)) == est
        with pytest.raises(ValueError, match="d_hat must equal"):
            dataclasses.replace(est, d_hat=est.d_hat + 0.25)

    def test_bad_input_after_a_memo_hit_raises_unchanged(self):
        # A valid call before a bad one changes nothing: a bad value beside
        # a side read out just before still gets the message a fresh state
        # gives.
        sigma = DensityMatrix.pure_ground()
        r, theta, phi, beta, gamma = 0.6, 0.3, 1.1, 0.8, 2.0
        cases = [
            ((1.5, theta, phi), (beta, gamma), "r must be in [0, 1], got 1.5"),
            ((math.nan, math.nan, phi), (beta, gamma), "r must be in [0, 1], got nan"),
            ((r, math.inf, phi), (beta, gamma), "theta, phi, beta and gamma must be finite"),
            ((r, theta, phi), (math.nan, gamma), "theta, phi, beta and gamma must be finite"),
            ((r, theta, phi), (beta, -math.inf), "theta, phi, beta and gamma must be finite"),
        ]
        for gen, meas, message in cases:
            estimate_d((r, theta, phi), (beta, gamma), sigma, None)
            for state in (sigma, DensityMatrix.pure_ground()):
                with pytest.raises(ValueError) as err:
                    estimate_d(gen, meas, state, None)
                assert str(err.value) == message

    def test_branchwise_marginal_statistics(self):
        # Branch-then-outcome sampling must stay Binomial(n, p_rho) overall.
        gen = GeneratorParams(0.37, 1.2, 0.4)
        meas = MeasurementParams(0.9, 2.2)
        sigma = DensityMatrix.maximally_mixed()
        rng = np.random.default_rng(54)
        reps = 20_000
        ds = np.array(
            [
                estimate_d(gen, meas, sigma, 200, rng=rng, branchwise=True).p_rho_hat
                for _ in range(reps)
            ]
        )
        p = outcome_probability(measurement_axis(meas), state_bloch(gen))
        standard_error = math.sqrt(p * (1 - p) / 200) / math.sqrt(reps)
        assert abs(ds.mean() - p) < 4 * standard_error
        expected_sd = math.sqrt(p * (1 - p) / 200)
        assert abs(ds.std(ddof=1) - expected_sd) / expected_sd < 0.10

    def test_branchwise_deterministic(self):
        gen = GeneratorParams(0.37, 1.2, 0.4)
        meas = MeasurementParams(0.9, 2.2)
        sigma = DensityMatrix.pure_ground()
        a = estimate_d(gen, meas, sigma, 500, rng=np.random.default_rng(1), branchwise=True)
        b = estimate_d(gen, meas, sigma, 500, rng=np.random.default_rng(1), branchwise=True)
        assert a == b
