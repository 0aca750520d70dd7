"""Adversarial loop: gradients, turn rules, stop conditions, accounting."""

import dataclasses
import math
import pickle

import numpy as np
import pytest

import oracles
import qgan_sim.game as game_mod
from qgan_sim import (
    DensityMatrix,
    GameConfig,
    GeneratorParams,
    MeasurementParams,
    estimate_d,
    fidelity_trajectory,
    finite_diff_gradient,
    measurement_axis,
    run_game,
    random_true_state,
    run_turn,
    shots_consumed,
    state_bloch,
    trace_distance,
)
from qgan_sim.game import (
    D_TURN,
    G_TURN,
    TERMINATION_BUDGET,
    TERMINATION_EQUILIBRIUM,
    StepRecord,
)
from qgan_sim.harness import trace_from_doc, trace_to_doc

GROUND = DensityMatrix.pure_ground()


def exact_config(**overrides):
    return GameConfig(exact_mode=True, **overrides)


class TestGameConfig:
    def test_round_threshold_schedule_matches_published_values(self):
        cfg = GameConfig()
        assert cfg.g_threshold(1) == pytest.approx(0.045)
        assert cfg.g_threshold(2) == pytest.approx(0.035)
        assert cfg.g_threshold(3) == pytest.approx(0.025)
        for j in range(4, 12):
            assert cfg.g_threshold(j) == pytest.approx(0.02)
        for j in range(1, 12):
            assert cfg.g_threshold(j) == pytest.approx(max(0.055 - 0.01 * j, 0.02))

    def test_validation(self):
        with pytest.raises(ValueError, match="shots"):
            GameConfig(shots=0)
        with pytest.raises(ValueError, match="d_bound"):
            GameConfig(d_bound=0.0)
        with pytest.raises(ValueError, match="stall_window"):
            GameConfig(stall_window=1)
        with pytest.raises(ValueError, match="fd_delta_r"):
            GameConfig(fd_delta_r=0.7)
        with pytest.raises(ValueError, match="per_turn_cap"):
            GameConfig(per_turn_cap=0)
        with pytest.raises(ValueError, match="fd_delta_angle"):
            GameConfig(fd_delta_angle=0.0)
        with pytest.raises(ValueError, match="learning_rate"):
            GameConfig(learning_rate=-0.2)
        with pytest.raises(ValueError, match="r_rate_scale"):
            GameConfig(r_rate_scale=0.0)
        with pytest.raises(ValueError, match="c_limit"):
            GameConfig(c_limit=0)
        with pytest.raises(ValueError, match="stall_tol"):
            GameConfig(stall_tol=0.0)
        with pytest.raises(ValueError, match="g_threshold_floor"):
            GameConfig(g_threshold_floor=-0.01)

    def test_defaults_pin_protocol_values(self):
        cfg = GameConfig()
        assert cfg.shots == 5000
        assert cfg.c_limit == 500
        assert cfg.d_bound == 0.02
        assert cfg.stall_window == 3
        assert cfg.stall_tol == 0.02

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed"):
            GameConfig(seed=-1)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("shots", 50.5), ("shots", 50.0), ("shots", True), ("c_limit", 30.5),
            ("stall_window", 2.5), ("per_turn_cap", "3"), ("seed", 1.0),
            ("exact_mode", 1), ("count_per_partial", "yes"), ("branchwise", None),
            ("exact_mode", np.True_),
        ],
    )
    def test_rejects_a_value_of_the_wrong_type(self, name, value):
        # A count must be an integer and a switch a bool: shots=50.5 used to
        # play a whole game whose result document its own reader rejects.
        with pytest.raises(ValueError, match=f"^{name}: expected an? "):
            GameConfig(**{name: value})

    @pytest.mark.parametrize(
        "name, value",
        [
            ("noise", None), ("noise", {"depolarizing_eps": 0.1}),
            ("learning_rate", "0.2"), ("learning_rate", True),
        ],
    )
    def test_rejects_a_value_that_is_not_of_its_kind(self, name, value):
        # These used to construct: noise=None played a whole game and then
        # failed to write its result, and '0.2' raised a bare TypeError.
        with pytest.raises(ValueError, match=f"^{name}: "):
            GameConfig(**{name: value})

    def test_numpy_integers_are_stored_as_ints(self):
        counts = dict(shots=50, c_limit=30, stall_window=2, per_turn_cap=5, seed=7)
        cfg = GameConfig(**{name: np.int64(v) for name, v in counts.items()})
        assert cfg == GameConfig(**counts)
        assert all(type(getattr(cfg, name)) is int for name in counts)


class TestFiniteDiffGradient:
    def test_vanishes_when_states_identical(self):
        cfg = exact_config()
        rng = np.random.default_rng(0)
        grad = finite_diff_gradient(
            "beta", GeneratorParams(1, 0, 0), MeasurementParams(0, 0), GROUND, cfg, rng
        )
        assert grad == pytest.approx(0.0, abs=1e-12)

    def test_converges_to_analytic_derivative(self):
        # d(beta) = (sin(beta) - cos(beta)) / 2 here, so d'(0) = 1/2.
        cfg = exact_config(fd_delta_angle=1e-6)
        rng = np.random.default_rng(0)
        gen = GeneratorParams(1, math.pi / 2, 0)
        meas = MeasurementParams(0, 0)
        grad = finite_diff_gradient("beta", gen, meas, GROUND, cfg, rng)
        analytic = oracles.d_partial(
            "beta", (gen.r, gen.theta, gen.phi, meas.beta, meas.gamma), [0, 0, 1]
        )
        assert analytic == pytest.approx(0.5, abs=1e-12)
        assert grad == pytest.approx(analytic, abs=1e-4)

    def test_r_offset_flips_backward_at_boundary(self):
        cfg = exact_config(fd_delta_r=0.05)
        rng = np.random.default_rng(0)
        gen = GeneratorParams(0.99, 1.0, 0.5)
        meas = MeasurementParams(0.7, 0.1)
        sigma = DensityMatrix.maximally_mixed()
        grad = finite_diff_gradient("r", gen, meas, sigma, cfg, rng)
        # d is linear in r, so the backward difference is still exact.
        analytic = oracles.d_partial(
            "r", (gen.r, gen.theta, gen.phi, meas.beta, meas.gamma), [0, 0, 0]
        )
        assert grad == pytest.approx(analytic, abs=1e-9)

    def test_shot_mode_error_propagation(self):
        # Mean within 3 standard errors of the analytic difference quotient;
        # spread follows propagating d_standard_deviation through the
        # two-point difference.
        from qgan_sim import d_standard_deviation, outcome_probability

        cfg = GameConfig(shots=5000, fd_delta_angle=0.1)
        gen = GeneratorParams(1, math.pi / 2, 0)
        rng = np.random.default_rng(1)
        reps = 1000
        grads = np.array(
            [
                finite_diff_gradient("beta", gen, MeasurementParams(0, 0), GROUND, cfg, rng)
                for _ in range(reps)
            ]
        )
        analytic_mid = (
            oracles.d_value((1, math.pi / 2, 0, 0.1, 0), [0, 0, 1])
            - oracles.d_value((1, math.pi / 2, 0, 0.0, 0), [0, 0, 1])
        ) / 0.1
        sds = []
        for beta in (0.0, 0.1):
            m = measurement_axis(MeasurementParams(beta, 0.0))
            p_rho = outcome_probability(m, state_bloch(gen))
            p_sigma = outcome_probability(m, GROUND.to_bloch())
            sds.append(d_standard_deviation(p_rho, p_sigma, cfg.shots))
        predicted_sd = math.hypot(*sds) / 0.1
        assert abs(grads.mean() - analytic_mid) < 3 * predicted_sd / math.sqrt(reps)
        assert abs(grads.std(ddof=1) - predicted_sd) / predicted_sd < 0.10

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match=r"^param: expected one of \('r', .*got 'zeta'$"):
            finite_diff_gradient(
                "zeta", GeneratorParams(1, 0, 0), MeasurementParams(0, 0),
                GROUND, exact_config(), np.random.default_rng(0),
            )


class TestRunTurn:
    def test_d_turn_on_identical_states_stalls_flat(self):
        cfg = exact_config()
        rng = np.random.default_rng(2)
        _, records, c, out = run_turn(D_TURN, 1, (1.0, 0.0, 0.0, 1.1, 0.4), GROUND, cfg, rng)
        assert len(records) == cfg.stall_window
        assert all(abs(r.estimate.d_hat) < 1e-9 for r in records)
        assert abs(out.d_hat) < 1e-9

    def test_d_turn_finds_trace_distance(self):
        # Maximally mixed generated state against the ground state: the
        # optimal separation equals the trace distance 1/2.
        cfg = exact_config()
        rng = np.random.default_rng(3)
        gen = GeneratorParams(0.5, 0.3, 0.9)
        _, records, _, out = run_turn(D_TURN, 1, (*gen, 2.5, 1.0), GROUND, cfg, rng)
        td = trace_distance(DensityMatrix.from_bloch(state_bloch(gen)), GROUND)
        assert td == pytest.approx(0.5, abs=1e-12)
        assert out.d_hat == pytest.approx(td, abs=0.02)
        assert out.d_hat == max(r.estimate.d_hat for r in records)

    def test_d_turn_returns_best_visited_axis(self):
        cfg = exact_config()
        rng = np.random.default_rng(4)
        p = (0.5, 0.3, 0.9, 2.5, 1.0)
        best, records, _, out = run_turn(D_TURN, 1, p, GROUND, cfg, rng)
        best_rec = max(records, key=lambda r: r.estimate.d_hat)
        assert best[:3] == p[:3]
        assert best[3:] == best_rec.params_after[3:]
        assert out is best_rec.estimate

    def test_g_turn_skips_when_entering_below_threshold(self):
        # Axis at +z, generated state on the equator: entering d is -1/2,
        # already below the round-1 threshold of 0.045.
        cfg = exact_config()
        rng = np.random.default_rng(5)
        p = (1.0, math.pi / 2, 0.0, 0.0, 0.0)
        entering = estimate_d(p[:3], p[3:], GROUND, None)
        assert entering.d_hat == pytest.approx(-0.5, abs=1e-12)
        p2, records, c, out = run_turn(G_TURN, 1, p, GROUND, cfg, rng, entering=entering)
        assert records == [] and c == 0
        assert (p2, out) == (p, entering)
        assert out.d_hat < cfg.g_threshold(1) == 0.045

    def test_g_turn_descends_below_round_threshold(self):
        cfg = exact_config(per_turn_cap=300)
        rng = np.random.default_rng(6)
        gen = GeneratorParams(1, 2.0, 0.3)
        meas = MeasurementParams(0, 0)
        entering = estimate_d(gen, meas, GROUND, None)
        # Make the entering estimate positive by flipping the axis if needed.
        if entering.d_hat < 0:
            meas = MeasurementParams(math.pi, 0.3)
            entering = estimate_d(gen, meas, GROUND, None)
        assert entering.d_hat >= cfg.g_threshold(1)
        _, records, _, out = run_turn(
            G_TURN, 1, (*gen, *meas), GROUND, cfg, rng, entering=entering
        )
        assert records
        assert out.d_hat < cfg.g_threshold(1)

    def test_a_list_plays_as_the_tuple(self):
        cfg = exact_config(per_turn_cap=300)
        p = (1.0, 2.0, 0.3, math.pi, 0.3)
        entering = estimate_d(p[:3], p[3:], GROUND, None)
        assert entering.d_hat >= cfg.g_threshold(1)
        for turn, kwargs in ((D_TURN, {}), (G_TURN, {"entering": entering})):
            as_tuple, as_list = (
                run_turn(turn, 1, q, GROUND, cfg, np.random.default_rng(8), **kwargs)
                for q in (p, list(p))
            )
            assert as_tuple[1]
            assert as_list == as_tuple

    @pytest.mark.parametrize("exact_mode", [True, False])
    def test_loop_record_equals_the_public_build(self, exact_mode):
        # The loop builds its step records without the frozen dataclass's
        # __init__; each must be the record the public constructor builds
        # from the same values.
        trace = run_game(GROUND, GameConfig(exact_mode=exact_mode, c_limit=60, seed=3))
        assert {rec.turn for rec in trace.steps} == {D_TURN, G_TURN}
        for rec in trace.steps:
            public = StepRecord(**vars(rec))
            assert type(rec) is StepRecord
            assert rec == public and hash(rec) == hash(public) and repr(rec) == repr(public)
            assert vars(rec) == vars(public) and list(vars(rec)) == list(vars(public))
            assert dataclasses.replace(rec) == rec
            assert pickle.loads(pickle.dumps(rec)) == rec
            with pytest.raises(dataclasses.FrozenInstanceError):
                rec.step_index = 0

    def test_g_turn_requires_entering_estimate(self):
        with pytest.raises(ValueError, match="entering"):
            run_turn(
                G_TURN, 1, (1.0, 0.0, 0.0, 0.0, 0.0), GROUND, exact_config(),
                np.random.default_rng(0),
            )

    def test_turn_respects_step_cap(self):
        cfg = exact_config(per_turn_cap=4, count_per_partial=True)
        rng = np.random.default_rng(7)
        _, records, c, _ = run_turn(D_TURN, 1, (0.5, 0.3, 0.9, 2.5, 1.0), GROUND, cfg, rng)
        assert len(records) == 2  # two partials per iteration, cap 4 steps
        assert c == 4

    def test_rejects_unknown_turn(self):
        with pytest.raises(ValueError, match="turn"):
            run_turn(
                "X", 1, (1.0, 0.0, 0.0, 0.0, 0.0), GROUND, exact_config(),
                np.random.default_rng(0),
            )

    def test_d_turn_monotone_ascent_with_small_step(self):
        # Small normalized steps plus a tiny finite-difference offset make
        # the exact-mode ascent monotone well before any stall.
        cfg = exact_config(learning_rate=0.02, fd_delta_angle=1e-6, fd_delta_r=1e-6)
        for seed in range(50):
            rng = np.random.default_rng(900 + seed)
            sigma = DensityMatrix(oracles.random_density(rng))
            p = (
                float(rng.uniform(0, 1)),
                float(rng.uniform(0, math.pi)),
                float(rng.uniform(0, 2 * math.pi)),
                float(rng.uniform(0, math.pi)),
                float(rng.uniform(0, 2 * math.pi)),
            )
            _, records, _, _ = run_turn(D_TURN, 1, p, sigma, cfg, rng)
            ds = [r.estimate.d_hat for r in records]
            for a, b in zip(ds, ds[1:]):
                assert b >= a - 1e-9


class TestRunGame:
    def test_noiseless_pure_reference_run(self):
        trace = run_game(GROUND, exact_config(seed=3))
        assert trace.termination == TERMINATION_EQUILIBRIUM
        assert trace.final_fidelity >= 0.995
        last_round = trace.steps[-1].round_index
        final_d = max(
            r.estimate.d_hat
            for r in trace.steps
            if r.round_index == last_round and r.turn == D_TURN
        )
        assert final_d < 0.02

    def test_budget_termination(self):
        trace = run_game(GROUND, exact_config(seed=28, c_limit=10))
        assert trace.termination == TERMINATION_BUDGET
        assert trace.c_step_total >= 10
        # Between-turn budget checks allow at most one turn of overshoot.
        assert trace.c_step_total <= 10 + GameConfig().per_turn_cap + 3

    def test_equilibrium_implies_optimized_d_below_bound(self):
        for seed in range(20):
            trace = run_game(GROUND, exact_config(seed=seed))
            if trace.termination != TERMINATION_EQUILIBRIUM:
                continue
            last_round = trace.steps[-1].round_index
            best = max(
                r.estimate.d_hat
                for r in trace.steps
                if r.round_index == last_round and r.turn == D_TURN
            )
            assert best < trace.config.d_bound

    def test_nash_probabilities_when_axis_perpendicular(self):
        # At equilibrium the played axis is not always perpendicular to the
        # state; where it is, both outcome probabilities sit near 1/2.
        checked = 0
        for seed in range(100):
            trace = run_game(GROUND, exact_config(seed=seed))
            assert trace.termination == TERMINATION_EQUILIBRIUM
            _, _, _, beta, gamma = trace.steps[-1].params_after
            axis = measurement_axis(MeasurementParams(beta, gamma))
            if abs(axis.dot(GROUND.to_bloch())) < 0.1:
                final = trace.steps[-1].estimate
                scale = 5.0 / math.sqrt(2 * trace.config.shots)
                assert abs(final.p_rho_hat - 0.5) < 0.1 + scale
                assert abs(final.p_sigma_hat - 0.5) < 0.1 + scale
                checked += 1
        assert checked > 0

    def test_deterministic_trace(self):
        cfg = GameConfig(seed=11)
        a = run_game(GROUND, cfg)
        b = run_game(GROUND, cfg)
        assert a == b

    def test_fixed_initial_overrides_random_draw(self):
        initial = (0.9, 1.0, 0.0, 0.5, 0.5)
        a = run_game(GROUND, exact_config(seed=1), initial=initial)
        b = run_game(GROUND, exact_config(seed=2), initial=initial)
        assert a.steps[0].params_after == b.steps[0].params_after

    @pytest.mark.parametrize(
        "initial, message",
        [
            ((1.5, 1.0, 0.3, 0.5, 0.5), r"^initial.r: expected a number in \[0, 1\], got 1.5$"),
            ((0.6, math.inf, 0.3, 0.5, 0.5), "^initial.theta: expected a finite number, got inf$"),
            ((0.6, 1.0, 0.3, math.nan, 0.5), "^initial.beta: expected a finite number, got nan$"),
            ((0.6, 1.0, 0.3, 0.5), r"initial must be \(r, theta, phi, beta, gamma\)"),
            (
                (GeneratorParams(0.6, 1.0, 0.3), MeasurementParams(0.5, 0.5)),
                r"initial must be \(r, theta, phi, beta, gamma\), got \(GeneratorParams",
            ),
        ],
    )
    @pytest.mark.parametrize("exact_mode", [True, False])
    def test_bad_initial_is_named_before_any_draw(self, initial, message, exact_mode):
        # On a mixed sigma the ideal fidelity of r = 1.5 or theta = inf fails
        # with its own message, so the estimator must see the point first;
        # an opening of the wrong length, such as the parameter-object pair,
        # never reaches it.
        sigma = random_true_state("bloch-ball", np.random.default_rng(3))
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match=message):
            run_game(sigma, GameConfig(exact_mode=exact_mode, seed=0), rng=rng, initial=initial)
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

    @pytest.mark.parametrize(
        "initial, message",
        [
            ((True, 0.0, 0.0, 0.0, 0.0), "^initial.r: expected a number, got True$"),
            ((0.5, 0.0, "1", 0.0, 0.0), "^initial.phi: expected a number, got '1'$"),
            ((2, 0.0, 0.0, 0.0, 0.0), r"^initial.r: expected a number in \[0, 1\], got 2.0$"),
        ],
    )
    def test_an_opening_that_is_not_floats_is_named(self, initial, message):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match=message):
            run_game(GROUND, GameConfig(seed=0), rng=rng, initial=initial)
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

    @pytest.mark.parametrize(
        "args, message",
        [
            (("x", GameConfig()), "^sigma: expected a DensityMatrix, got 'x'$"),
            ((GROUND, {"c_limit": 5}), r"^config: expected a GameConfig, got \{'c_limit': 5\}$"),
            (
                (GROUND, GameConfig(shots=10), np.random.RandomState(0)),
                r"^rng: expected a Generator, got RandomState\(MT19937\)",
            ),
        ],
        ids=["sigma", "config", "rng"],
    )
    def test_an_argument_of_the_wrong_kind_is_named(self, args, message):
        with pytest.raises(ValueError, match=message):
            run_game(*args)

    def test_an_opening_is_recorded_as_plain_floats(self):
        # Integers and numpy floats are stored as floats, so the document
        # the writer writes reads back.
        config = exact_config(c_limit=2)
        trace = run_game(GROUND, config, initial=(1, 0, np.float64(0.25), 0, 0))
        assert trace.steps[0].params_after[:3] == (1.0, 0.0, 0.25)
        assert all(type(x) is float for rec in trace.steps for x in rec.params_after)
        assert trace == run_game(GROUND, config, initial=(1.0, 0.0, 0.25, 0.0, 0.0))
        assert trace_from_doc(trace_to_doc(trace)) == trace

    def test_step_counting_per_partial(self):
        trace = run_game(GROUND, exact_config(seed=5, count_per_partial=True))
        expected = sum(3 if rec.turn == G_TURN else 2 for rec in trace.steps)
        assert trace.c_step_total == expected
        assert trace.steps[-1].step_index == expected

    def test_step_counting_per_iteration(self):
        trace = run_game(GROUND, exact_config(seed=5, count_per_partial=False))
        assert trace.c_step_total == len(trace.steps)
        assert [rec.step_index for rec in trace.steps] == list(
            range(1, len(trace.steps) + 1)
        )

    def test_step_indices_strictly_increasing(self):
        trace = run_game(GROUND, GameConfig(seed=8))
        indices = [rec.step_index for rec in trace.steps]
        assert all(b > a for a, b in zip(indices, indices[1:]))

    def test_shot_accounting_matches_estimator_calls(self, monkeypatch):
        calls = {"n": 0}
        real = game_mod.estimate_d

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(game_mod, "estimate_d", counting)
        cfg = GameConfig(seed=13, c_limit=120)
        trace = run_game(GROUND, cfg)
        expected_estimates = sum(
            (2 * (3 if rec.turn == G_TURN else 2) + 1) for rec in trace.steps
        )
        assert calls["n"] == expected_estimates
        assert shots_consumed(trace) == expected_estimates * 2 * cfg.shots

    def test_shots_consumed_zero_in_exact_mode(self):
        trace = run_game(GROUND, exact_config(seed=5))
        assert shots_consumed(trace) == 0

    def test_fidelity_trajectory(self):
        trace = run_game(GROUND, exact_config(seed=3))
        series = fidelity_trajectory(trace)
        assert len(series) == len(trace.steps)
        assert series[-1][0] == trace.steps[-1].step_index
        assert series[-1][1] == trace.steps[-1].fidelity_ideal
        # Equilibrium games end right after a D turn, which never moves the
        # generator, so the last recorded F is the final F exactly.
        assert trace.termination == TERMINATION_EQUILIBRIUM
        assert series[-1][1] == trace.final_fidelity
        assert series[-1][1] >= 0.995
        assert all(0.0 <= f <= 1.0 for _, f in series)

    def test_fidelity_trajectory_rejects_empty(self):
        trace = run_game(GROUND, exact_config(seed=3))
        empty = type(trace)(
            config=trace.config, sigma=trace.sigma, steps=[],
            termination=trace.termination, c_step_total=0, final_fidelity=1.0,
        )
        with pytest.raises(ValueError, match="no steps"):
            fidelity_trajectory(empty)

    def test_final_fidelity_matches_last_params(self):
        trace = run_game(GROUND, exact_config(seed=9))
        r, theta, phi, _, _ = trace.steps[-1].params_after
        rho = DensityMatrix.from_bloch(state_bloch(GeneratorParams(r, theta, phi)))
        from qgan_sim import fidelity

        assert trace.final_fidelity == pytest.approx(fidelity(GROUND, rho), abs=1e-12)

    def test_branchwise_game_runs_and_replays(self):
        cfg = GameConfig(seed=21, branchwise=True, c_limit=120)
        a = run_game(GROUND, cfg)
        b = run_game(GROUND, cfg)
        assert a == b
        assert a.steps

    def test_generated_only_noise_game_converges(self):
        from qgan_sim import NoiseSettings

        cfg = GameConfig(
            exact_mode=True, seed=3,
            noise=NoiseSettings(0.02, 0.0, apply_to="generated-only"),
        )
        trace = run_game(GROUND, cfg)
        # The channel contracts only the generated state, so the ideal
        # fidelity still climbs; the game must terminate either way.
        assert trace.termination in (TERMINATION_EQUILIBRIUM, TERMINATION_BUDGET)
        assert trace.final_fidelity > 0.9
