"""Config ingestion, serialization round-trips, batch statistics, CSVs."""

import json
import math
import os
import re
import stat
import threading
from pathlib import Path
from typing import Annotated

import numpy as np
import pytest

import qgan_sim.harness as harness_mod
from qgan_sim import ConfigError, GameConfig, NoiseSettings, run_experiment
from qgan_sim.bloch import DensityMatrix
from qgan_sim.game import Unit
from qgan_sim.harness import (
    CDF_HEADER,
    SNAPSHOTS_HEADER,
    TRACKING_HEADER,
    TRAJECTORY_HEADER,
    ExperimentSpec,
    GameOutcome,
    SigmaSpec,
    load_experiment,
    resolve_seed,
    run_batch,
    spec_to_doc,
    summarize_batch,
    summary_from_doc,
    summary_to_doc,
    trace_from_doc,
    trace_to_doc,
    write_cdf_csv,
    write_json,
    write_snapshots_csv,
    write_tracking_csv,
    write_trajectory_csv,
)

FAST = {"exact_mode": True, "c_limit": 80}


def fast_spec(seed=0, **extra):
    doc = {"sigma": {"mode": "pure-ground"}, "seed": seed, **FAST, **extra}
    return load_experiment(doc)


class TestLoadExperiment:
    def test_minimal_document_uses_defaults(self):
        spec = load_experiment({})
        assert spec.game == GameConfig(seed=0)
        assert spec.sigma == SigmaSpec()
        assert spec.initial is None

    def test_readme_config_block_holds_the_defaults(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Config file", 1)[1].split("```jsonc\n", 1)[1].split("```", 1)[0]
        doc = json.loads(re.sub(r"//.*", "", block))
        assert doc == {**spec_to_doc(ExperimentSpec(GameConfig())), "initial": None}

    def test_full_document(self):
        doc = {
            "sigma": {"mode": "fixed", "bloch": [0.2, -0.1, 0.4]},
            "initial": {"r": 0.8, "theta": 1.0, "phi": 0.3, "beta": 0.5, "gamma": 2.0},
            "shots": 1234,
            "learning_rate": 0.1,
            "noise": {"depolarizing_eps": 0.05},
            "seed": 17,
        }
        spec = load_experiment(doc)
        assert spec.game.shots == 1234
        assert spec.game.noise.depolarizing_eps == 0.05
        assert spec.sigma.bloch == (0.2, -0.1, 0.4)
        assert spec.initial[0] == 0.8

    def test_unknown_top_level_field(self):
        with pytest.raises(ConfigError, match="shotz"):
            load_experiment({"shotz": 100})

    def test_bad_initial_r_names_the_field(self):
        doc = {"initial": {"r": 1.5, "theta": 0, "phi": 0, "beta": 0, "gamma": 0}}
        with pytest.raises(ConfigError, match="initial.r"):
            load_experiment(doc)

    def test_missing_initial_field_named(self):
        with pytest.raises(ConfigError, match="initial.theta"):
            load_experiment({"initial": {"r": 0.5, "phi": 0, "beta": 0, "gamma": 0}})

    def test_sigma_fixed_requires_vector(self):
        with pytest.raises(ConfigError, match="sigma.bloch"):
            load_experiment({"sigma": {"mode": "fixed"}})

    def test_sigma_fixed_rejects_outside_ball(self):
        with pytest.raises(ConfigError, match="sigma.bloch"):
            load_experiment({"sigma": {"mode": "fixed", "bloch": [1, 1, 1]}})

    def test_sigma_unknown_mode(self):
        with pytest.raises(ConfigError, match="sigma.mode"):
            load_experiment({"sigma": {"mode": "warm"}})

    def test_noise_field_validation(self):
        with pytest.raises(ConfigError, match="noise.depolarizing_eps"):
            load_experiment({"noise": {"depolarizing_eps": "lots"}})
        with pytest.raises(ConfigError, match="noise"):
            load_experiment({"noise": {"depolarizing_eps": 3.0}})

    def test_noise_bound_named_by_its_path(self):
        message = "noise.depolarizing_eps: expected a number in [0, 1], got 3.0"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$") as info:
            load_experiment({"noise": {"depolarizing_eps": 3}})
        assert info.value.field_name == "noise.depolarizing_eps"

    def test_null_means_default_in_every_block(self):
        assert load_experiment({"noise": {"apply_to": None}}).game.noise.apply_to == "both"
        assert load_experiment({"sigma": {"mode": None}}).sigma == SigmaSpec()
        assert load_experiment({"shots": None}).game.shots == GameConfig().shots
        with pytest.raises(ConfigError) as info:
            load_experiment({"sigma": {"mode": "fixed", "bloch": None}})
        assert info.value.field_name == "sigma.bloch"
        with pytest.raises(ConfigError) as info:
            load_experiment({"initial": {"r": None, "theta": 0, "phi": 0, "beta": 0, "gamma": 0}})
        assert info.value.field_name == "initial.r"

    @pytest.mark.parametrize("block", ["noise", "sigma", "initial"])
    def test_every_block_walked_alike(self, block):
        with pytest.raises(ConfigError, match=f"^{block}: expected an object, got 3$"):
            load_experiment({block: 3})
        with pytest.raises(ConfigError, match=f"^{block}.bogus: unknown field$") as info:
            load_experiment({block: {"bogus": 1}})
        assert info.value.field_name == f"{block}.bogus"

    def test_top_level_must_be_an_object(self):
        with pytest.raises(ConfigError, match=r"^config: expected a JSON object, got \[\]$"):
            load_experiment([])

    @pytest.mark.parametrize(
        "kind, inside, outside, within",
        [
            (Unit, 0.0, math.nextafter(0.0, -1.0), "a number in [0, 1]"),
            (Unit, 1.0, math.nextafter(1.0, 2.0), "a number in [0, 1]"),
            (Annotated[float, (1, None)], 1.0, math.nextafter(1.0, 0.0), "at least 1"),
            (Annotated[int, (1, None)], 1, 0, "at least 1"),
            (Annotated[int, (1, None)] | None, None, 0, "at least 1"),
            (int | None, None, True, "an integer"),
        ],
    )
    def test_bounded_kind_reads_its_bounds(self, kind, inside, outside, within):
        assert harness_mod._coerce("field", inside, kind) == inside
        message = f"field: expected {within}, got {outside!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            harness_mod._coerce("field", outside, kind)

    def test_unknown_kind_is_a_programming_error(self):
        with pytest.raises(AssertionError):
            harness_mod._coerce("field", 1, complex)

    def test_bloch_outside_fixed_mode_named_before_its_shape(self):
        with pytest.raises(ConfigError, match="only valid with mode 'fixed'") as info:
            load_experiment({"sigma": {"mode": "bloch-ball", "bloch": [0.0, "a", 0.0]}})
        assert info.value.field_name == "sigma.bloch"

    def test_type_errors_name_field(self):
        with pytest.raises(ConfigError, match="shots"):
            load_experiment({"shots": 10.5})
        with pytest.raises(ConfigError, match="exact_mode"):
            load_experiment({"exact_mode": "yes"})


NON_FINITE = (math.nan, math.inf, -math.inf)
GAME_FLOAT_FIELDS = (
    "fd_delta_angle", "fd_delta_r", "learning_rate", "r_rate_scale", "d_bound",
    "stall_tol", "g_threshold_base", "g_threshold_slope", "g_threshold_floor",
)
NOISE_FLOAT_FIELDS = ("depolarizing_eps", "amplitude_damping_gamma")


class TestNonFiniteNumbers:
    """NaN and +-Infinity fail at the boundary, naming the field."""

    @pytest.mark.parametrize("name", GAME_FLOAT_FIELDS)
    def test_game_field_rejected_in_config(self, name):
        for value in NON_FINITE:
            with pytest.raises(ConfigError) as info:
                load_experiment({name: value})
            assert info.value.field_name == name

    @pytest.mark.parametrize("name", GAME_FLOAT_FIELDS)
    def test_game_field_rejected_by_constructor(self, name):
        for value in NON_FINITE:
            with pytest.raises(ValueError, match=name):
                GameConfig(**{name: value})

    @pytest.mark.parametrize("name", NOISE_FLOAT_FIELDS)
    def test_noise_field_rejected_in_config(self, name):
        for value in NON_FINITE:
            with pytest.raises(ConfigError) as info:
                load_experiment({"noise": {name: value}})
            assert info.value.field_name == f"noise.{name}"

    @pytest.mark.parametrize("name", NOISE_FLOAT_FIELDS)
    def test_noise_field_rejected_by_constructor(self, name):
        for value in NON_FINITE:
            with pytest.raises(ValueError, match=name):
                NoiseSettings(**{name: value})

    def test_json_literals_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"learning_rate": NaN, "stall_tol": 0.02}')
        with pytest.raises(ConfigError, match="learning_rate"):
            harness_mod.load_experiment_file(path)

    def test_initial_and_sigma_fields_named(self):
        initial = {"r": 0.5, "theta": 1.0, "phi": 0.0, "beta": math.nan, "gamma": 0.0}
        with pytest.raises(ConfigError) as info:
            load_experiment({"initial": initial})
        assert info.value.field_name == "initial.beta"
        with pytest.raises(ConfigError) as info:
            load_experiment({"sigma": {"mode": "fixed", "bloch": [0.0, math.inf, 0.0]}})
        assert info.value.field_name == "sigma.bloch[1]"

    def test_integer_beyond_double_range_named(self):
        with pytest.raises(ConfigError, match="learning_rate"):
            load_experiment({"learning_rate": 10**400})

    def test_write_json_refuses_nan(self, tmp_path):
        with pytest.raises(ValueError):
            write_json({"value": math.nan}, tmp_path / "out.json")


class TestSeedResolution:
    def test_flag_wins(self):
        assert resolve_seed(5, 7, {"QGAN_SIM_SEED": "9"}) == 5

    def test_config_beats_environment(self):
        assert resolve_seed(None, 7, {"QGAN_SIM_SEED": "9"}) == 7

    def test_environment_is_last_resort(self):
        assert resolve_seed(None, None, {"QGAN_SIM_SEED": "9"}) == 9

    def test_default_zero(self):
        assert resolve_seed(None, None, {}) == 0

    def test_bad_environment_value(self):
        with pytest.raises(ConfigError, match="QGAN_SIM_SEED"):
            resolve_seed(None, None, {"QGAN_SIM_SEED": "many"})

    def test_negative_environment_value(self):
        with pytest.raises(ConfigError) as err:
            resolve_seed(None, None, {"QGAN_SIM_SEED": "-5"})
        assert str(err.value) == "QGAN_SIM_SEED: expected a non-negative integer, got '-5'"


class TestSigmaSpec:
    def test_resolve_modes(self):
        rng = np.random.default_rng(0)
        assert SigmaSpec("pure-ground").resolve(rng) == DensityMatrix.pure_ground()
        fixed = SigmaSpec("fixed", (0.1, 0.2, 0.3)).resolve(rng)
        v = fixed.to_bloch()
        assert (v.x, v.y, v.z) == pytest.approx((0.1, 0.2, 0.3), abs=1e-12)
        ball = SigmaSpec("bloch-ball").resolve(np.random.default_rng(1))
        assert ball.to_bloch().norm() <= 1.0

    @pytest.mark.parametrize(
        "args, kwargs, message",
        [
            (("warm",), {}, "mode: expected one of "
                            "('pure-ground', 'bloch-ball', 'fixed', 'hilbert-schmidt'), got 'warm'"),
            (("fixed",), {}, "bloch: fixed mode needs a 3-component Bloch vector"),
            (("fixed", (2.0, 0.0, 0.0)), {},
             "bloch: vector lies outside the unit ball: [2.0, 0.0, 0.0]"),
            (("bloch-ball",), {"bloch": (0.9, 0.0, 0.0)},
             "bloch: only valid with mode 'fixed', not 'bloch-ball'"),
        ],
        ids=["unknown-mode", "fixed-without-vector", "outside-ball", "vector-not-fixed"],
    )
    def test_a_spec_a_config_file_refuses_fails_at_construction(self, args, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SigmaSpec(*args, **kwargs)

    def test_fixed_vector_stored_as_plain_floats(self):
        spec = SigmaSpec("fixed", [0, np.float64(0.5), np.int64(0)])
        assert spec.bloch == (0.0, 0.5, 0.0)
        assert {type(c) for c in spec.bloch} == {float}


class TestTraceRoundTrip:
    def test_json_document_reparses_to_equal_trace(self):
        trace = run_experiment(fast_spec(seed=4))
        doc = trace_to_doc(trace)
        clone = trace_from_doc(json.loads(json.dumps(doc)))
        assert clone == trace

    def test_shot_mode_round_trip(self):
        spec = load_experiment({"seed": 2, "c_limit": 60})
        trace = run_experiment(spec)
        doc = json.loads(json.dumps(trace_to_doc(trace)))
        assert trace_from_doc(doc) == trace

    def test_numpy_noise_strengths_record_plain_floats(self, tmp_path):
        noise = NoiseSettings(np.float64(0.08), np.float64(0.08))
        game = GameConfig(exact_mode=True, c_limit=40, noise=noise, seed=3)
        spec = ExperimentSpec(game, SigmaSpec("bloch-ball"))
        trace = run_experiment(spec)
        recorded = [
            trace.config.noise.depolarizing_eps, trace.config.noise.amplitude_damping_gamma,
            trace.final_fidelity,
            *(x for rec in trace.steps for x in (
                *rec.params_after, rec.estimate.p_rho_hat, rec.estimate.p_sigma_hat,
                rec.estimate.d_hat, rec.fidelity_ideal,
            )),
        ]
        assert {type(x) for x in recorded} == {float}
        write_json(spec_to_doc(spec), tmp_path / "config.json")
        from_file = run_experiment(harness_mod.load_experiment_file(tmp_path / "config.json"))
        assert trace_to_doc(from_file) == trace_to_doc(trace)

    def test_integer_noise_strengths_written_as_a_config_file_writes_them(self):
        game = {"exact_mode": True, "c_limit": 20, "seed": 1}
        direct = ExperimentSpec(GameConfig(**game, noise=NoiseSettings(1, 0)))
        noise = {"depolarizing_eps": 1, "amplitude_damping_gamma": 0}
        read = load_experiment({**game, "noise": noise})
        text = json.dumps(trace_to_doc(run_experiment(direct)))
        assert '"depolarizing_eps": 1.0' in text
        assert text == json.dumps(trace_to_doc(run_experiment(read)))

    def test_wrong_schema_rejected(self):
        trace = run_experiment(fast_spec(seed=4))
        doc = trace_to_doc(trace)
        doc["schema"] = "something/else"
        with pytest.raises(ValueError, match="schema"):
            trace_from_doc(doc)


class TestDocumentWriter:
    """Documents hold only JSON values: each equals its own reparse."""

    SIGMAS = [
        {"mode": "pure-ground"},
        {"mode": "bloch-ball"},
        {"mode": "fixed", "bloch": [0.3, -0.2, 0.5]},
        {"mode": "hilbert-schmidt"},
    ]
    MODES = [{"exact_mode": True}, {"shots": 300}]

    @pytest.mark.parametrize("sigma", SIGMAS, ids=lambda s: s["mode"])
    @pytest.mark.parametrize("mode", MODES, ids=["exact", "shot"])
    def test_documents_equal_their_reparse(self, sigma, mode):
        spec = load_experiment({"sigma": sigma, "c_limit": 40, "seed": 6, **mode})
        traces = run_batch(spec, 2)
        for trace in traces:
            doc = trace_to_doc(trace)
            assert doc == json.loads(json.dumps(doc))
            assert trace_from_doc(doc) == trace
        doc = summary_to_doc(summarize_batch(traces, spec))
        assert doc == json.loads(json.dumps(doc))

    def test_sigma_bloch_read_once_per_trace(self, monkeypatch):
        trace = run_experiment(fast_spec(seed=4))
        calls = []
        to_bloch = DensityMatrix.to_bloch
        monkeypatch.setattr(DensityMatrix, "to_bloch", lambda self: calls.append(1) or to_bloch(self))
        trace_to_doc(trace)
        assert len(calls) == 1


class TestBatch:
    def test_seed_discipline_matches_single_runs(self):
        spec = fast_spec(seed=100)
        traces = run_batch(spec, 5)
        for k, trace in enumerate(traces):
            solo = run_experiment(fast_spec(seed=100 + k))
            assert trace == solo

    @pytest.mark.parametrize(
        "play", [lambda spec: run_batch(spec, 1), run_experiment], ids=["batch", "experiment"]
    )
    def test_a_spec_of_the_wrong_kind_is_named(self, play):
        with pytest.raises(ConfigError, match="^spec: expected an ExperimentSpec, got 'x'$"):
            play("x")

    def test_parallel_equals_serial(self):
        spec = fast_spec(seed=100)
        serial = run_batch(spec, 6, jobs=1)
        parallel = run_batch(spec, 6, jobs=3)
        assert serial == parallel

    def test_traces_written_where_games_are_played(self, tmp_path):
        spec = fast_spec(seed=100)
        traces = run_batch(spec, 5)
        serial_dir, pooled_dir, solo_dir = (tmp_path / name for name in ("s", "p", "solo"))
        for directory in (serial_dir, pooled_dir, solo_dir):
            directory.mkdir()
        serial = run_batch(spec, 5, traces_dir=serial_dir)
        pooled = run_batch(spec, 5, jobs=2, traces_dir=pooled_dir)
        assert pooled == serial == [
            GameOutcome(t.c_step_total, t.final_fidelity, t.termination) for t in traces
        ]
        names = [f"game_{k:04d}.json" for k in range(5)]
        for name, trace in zip(names, traces):
            write_json(trace_to_doc(trace), solo_dir / name)
            expected = (solo_dir / name).read_bytes()
            assert (serial_dir / name).read_bytes() == expected
            assert (pooled_dir / name).read_bytes() == expected
        assert sorted(os.listdir(pooled_dir)) == names
        assert summarize_batch(pooled, spec) == summarize_batch(traces, spec)

    @pytest.mark.parametrize(
        "jobs, count, cpus, expected",
        [(64, 3, 2, 2), (2, 5, 8, 2), (8, 3, 16, 3), (4, 5, 1, None), (4, 5, None, None)],
    )
    def test_worker_count_bounded(self, monkeypatch, jobs, count, cpus, expected):
        # The recorder stands in for the pool and plays the games in-process,
        # so no worker process is ever started.
        made = []

        class RecordingPool:
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(harness_mod, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(harness_mod.os, "cpu_count", lambda: cpus)
        traces = run_batch(fast_spec(seed=100), count, jobs=jobs)
        assert made == ([] if expected is None else [expected])
        assert traces == run_batch(fast_spec(seed=100), count)

    @pytest.mark.parametrize("jobs, count", [(1, 3), (2, 1)])
    def test_serial_batch_never_asks_the_cpu_count(self, monkeypatch, jobs, count):
        # A batch that cannot use a pool plays without asking the system.
        expected = run_batch(fast_spec(seed=100), count)

        def refuse():
            raise AssertionError("os.cpu_count asked for a serial batch")

        monkeypatch.setattr(harness_mod.os, "cpu_count", refuse)
        assert run_batch(fast_spec(seed=100), count, jobs=jobs) == expected

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            run_batch(fast_spec(), 0)
        with pytest.raises(ValueError):
            run_batch(fast_spec(), 3, jobs=0)

    def test_counts_must_be_integers(self):
        with pytest.raises(ValueError, match="^count: expected an integer, got 1.5$"):
            run_batch(fast_spec(), 1.5)
        with pytest.raises(ValueError, match="^jobs: expected an integer, got True$"):
            run_batch(fast_spec(), 2, jobs=True)

    def test_summarize_nothing_rejected(self):
        with pytest.raises(ValueError, match="no traces"):
            summarize_batch([], fast_spec())

    def test_summary_statistics(self):
        spec = fast_spec(seed=100)
        traces = run_batch(spec, 10)
        summary = summarize_batch(traces, spec)
        assert summary.games == 10
        assert summary.mean_c_step == pytest.approx(
            np.mean([t.c_step_total for t in traces])
        )
        assert 0.0 <= summary.mean_fidelity <= 1.0
        assert sum(summary.termination_counts.values()) == 10

    def test_cdfs_monotone_and_end_at_one(self):
        spec = fast_spec(seed=100)
        summary = summarize_batch(run_batch(spec, 10), spec)
        for pairs in (summary.cdf_c_step, summary.cdf_fidelity):
            assert len(pairs) == 10
            values = [v for v, _ in pairs]
            probs = [p for _, p in pairs]
            assert values == sorted(values)
            assert probs == sorted(probs)
            assert probs[-1] == pytest.approx(1.0)

    def test_single_game_cdf_is_point_mass(self):
        spec = fast_spec(seed=100)
        summary = summarize_batch(run_batch(spec, 1), spec)
        assert summary.cdf_c_step == [(float(summary.mean_c_step), 1.0)]
        assert summary.cdf_fidelity[0][1] == 1.0

    def test_summary_round_trip(self):
        spec = fast_spec(seed=100)
        summary = summarize_batch(run_batch(spec, 4), spec)
        doc = json.loads(json.dumps(summary_to_doc(summary)))
        clone = summary_from_doc(doc)
        assert clone == summary


class TestCsvEmission:
    @pytest.fixture()
    def trace(self):
        return run_experiment(fast_spec(seed=4))

    def test_trajectory_header_and_rows(self, trace, tmp_path):
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == TRAJECTORY_HEADER
        assert len(lines) == len(trace.steps) + 1
        assert "." in lines[1]  # decimal point, comma separator
        assert ";" not in lines[1]

    def test_tracking_header_and_rows(self, trace, tmp_path):
        path = tmp_path / "tracking.csv"
        write_tracking_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == TRACKING_HEADER
        assert len(lines) == len(trace.steps) + 1

    def test_float_format_nine_significant_digits(self, trace, tmp_path):
        path = tmp_path / "tracking.csv"
        write_tracking_csv(trace, path)
        row = path.read_text().splitlines()[1].split(",")
        for cell in row[1:]:
            mantissa = cell.replace("-", "").replace(".", "").lstrip("0")
            assert len(mantissa.split("e")[0]) <= 9

    def test_snapshots_all_steps_by_default(self, trace, tmp_path):
        path = tmp_path / "snapshots.csv"
        write_snapshots_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == SNAPSHOTS_HEADER
        assert len(lines) == len(trace.steps) + 1

    def test_snapshots_selected_steps(self, trace, tmp_path):
        path = tmp_path / "snapshots.csv"
        wanted = [trace.steps[0].step_index, trace.steps[-1].step_index]
        write_snapshots_csv(trace, path, steps=wanted)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].split(",")[0] == str(wanted[0])

    def test_snapshots_unknown_step_rejected(self, trace, tmp_path):
        with pytest.raises(ValueError, match="no step"):
            write_snapshots_csv(trace, tmp_path / "x.csv", steps=[10**9])

    def test_snapshot_rows_match_converged_state(self, tmp_path):
        # An equilibrium game ends with generated and true states close, so
        # the final snapshot's rho and sigma columns nearly agree.
        trace = run_experiment(fast_spec(seed=3, c_limit=500))
        path = tmp_path / "snapshots.csv"
        write_snapshots_csv(trace, path, steps=[trace.steps[-1].step_index])
        row = path.read_text().splitlines()[1].split(",")
        rho = np.array([float(c) for c in row[1:4]])
        sigma = np.array([float(c) for c in row[4:7]])
        assert np.linalg.norm(rho - sigma) < 0.1
        m = np.array([float(c) for c in row[7:10]])
        assert np.linalg.norm(m) == pytest.approx(1.0, abs=1e-6)

    def test_cdf_csv(self, tmp_path):
        path = tmp_path / "cdf.csv"
        write_cdf_csv([(1.0, 0.5), (2.0, 1.0)], path)
        lines = path.read_text().splitlines()
        assert lines[0] == CDF_HEADER
        assert lines[1] == "1,0.5"
        assert lines[2] == "2,1"

    def test_lf_line_endings(self, trace, tmp_path):
        path = tmp_path / "tracking.csv"
        write_tracking_csv(trace, path)
        raw = path.read_bytes()
        assert b"\r" not in raw


class TestShotBound:
    """numpy's binomial sampler takes counts up to 2**63 - 1."""

    def test_largest_count_accepted(self):
        assert load_experiment({"shots": 2**63 - 1}).game.shots == 2**63 - 1

    def test_count_beyond_int64_named(self):
        with pytest.raises(ConfigError, match="shots"):
            load_experiment({"shots": 2**63})
        with pytest.raises(ValueError, match="shots"):
            GameConfig(shots=2**63)


POSITIVE_FLOAT_FIELDS = (
    "fd_delta_angle", "learning_rate", "r_rate_scale", "stall_tol", "g_threshold_floor",
)
# Each bounded GameConfig field: values on its closed edges or just inside
# its open ones, and the next values beyond each edge.
BOUNDS = [
    ("shots", (1, 2**63 - 1), (0, 2**63)),
    ("fd_delta_r", (0.5,), (math.nextafter(0.5, 1.0), 0.0)),
    ("d_bound", (math.nextafter(0.0, 1.0), math.nextafter(1.0, 0.0)), (0.0, 1.0)),
    ("stall_window", (2,), (1,)),
    ("c_limit", (1,), (0,)),
    ("per_turn_cap", (1,), (0,)),
    ("seed", (0,), (-1,)),
    *((name, (5e-324,), (0.0,)) for name in POSITIVE_FLOAT_FIELDS),
]


class TestBounds:
    """Every bounded field holds the same edges in the constructor and in a
    config file, and a value beyond an edge is named by its field."""

    @pytest.mark.parametrize("name, inside, outside", BOUNDS)
    def test_edges_accepted(self, name, inside, outside):
        for value in inside:
            assert getattr(GameConfig(**{name: value}), name) == value
            assert getattr(load_experiment({name: value}).game, name) == value

    @pytest.mark.parametrize("name, inside, outside", BOUNDS)
    def test_beyond_each_edge_named(self, name, inside, outside):
        for value in outside:
            with pytest.raises(ValueError, match=f"^{name}"):
                GameConfig(**{name: value})
            with pytest.raises(ConfigError, match=rf"\b{name}\b"):
                load_experiment({name: value})

    @pytest.mark.parametrize("name, inside, outside", BOUNDS)
    def test_config_file_names_the_field_not_the_block(self, name, inside, outside):
        for value in outside:
            with pytest.raises(ConfigError) as info:
                load_experiment({name: value})
            assert info.value.field_name == name

    def test_range_fault_reported_in_field_order(self):
        with pytest.raises(ConfigError) as info:
            load_experiment({"shots": 0, "noise": {"depolarizing_eps": 3.0}})
        assert info.value.field_name == "shots"


class TestAtomicWrites:
    """A failed write leaves the target as it was and no temp file behind."""

    def test_nan_document_keeps_old_content(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("old\n")
        with pytest.raises(ValueError):
            write_json({"values": [0.5] * 3000 + [math.nan]}, path)
        assert path.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]

    def test_failed_rename_removes_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "cdf.csv"
        path.write_text("old\n")

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(harness_mod.os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            write_cdf_csv([(1.0, 1.0)], path)
        assert path.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cdf.csv"]

    def test_symlink_written_through(self, tmp_path):
        (tmp_path / "real.json").write_text("old\n")
        (tmp_path / "link.json").symlink_to("real.json")
        write_json({"a": 1}, tmp_path / "link.json")
        assert (tmp_path / "link.json").is_symlink()
        assert (tmp_path / "real.json").read_text() == '{\n  "a": 1\n}\n'

    def test_overwrite_replaces_content(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("a much longer old content than the new document\n")
        write_json({"a": 1}, path)
        assert path.read_text() == '{\n  "a": 1\n}\n'

    def test_overwrite_keeps_mode(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("old\n")
        path.chmod(0o640)
        write_json({"a": 1}, path)
        assert stat.S_IMODE(path.stat().st_mode) == 0o640

    def test_fifo_written_through(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
        reader.start()
        write_cdf_csv([(1.0, 0.5)], fifo)
        reader.join(timeout=10)
        assert received == ["value,cumulative_probability\n1,0.5\n"]
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pipe"]


class TestMalformedDocuments:
    """Readers raise ValueError naming the missing key or the wrong shape."""

    def test_not_an_object(self):
        with pytest.raises(ValueError, match="not a JSON object"):
            trace_from_doc([1, 2])
        with pytest.raises(ValueError, match="not a JSON object"):
            summary_from_doc([])

    def test_missing_top_level_key_named(self):
        with pytest.raises(ValueError, match="'config'"):
            trace_from_doc({"schema": harness_mod.RESULT_SCHEMA})
        with pytest.raises(ValueError, match="'games'"):
            summary_from_doc({"schema": harness_mod.SUMMARY_SCHEMA})

    def test_missing_nested_key_named(self):
        doc = json.loads(json.dumps(trace_to_doc(run_experiment(fast_spec(seed=4)))))
        del doc["steps"][0]["turn"]
        with pytest.raises(ValueError, match="'turn'"):
            trace_from_doc(doc)

    @staticmethod
    def result_doc():
        return json.loads(json.dumps(trace_to_doc(run_experiment(fast_spec(seed=4)))))

    def test_estimate_not_an_object_named(self):
        doc = self.result_doc()
        doc["steps"][0]["estimate"] = [0.5, 0.5]
        with pytest.raises(ValueError, match=r"^steps\[0\]\.estimate: expected an object, got \[0\.5, 0\.5\]$"):
            trace_from_doc(doc)

    def test_steps_not_an_array_named(self):
        doc = self.result_doc()
        doc["steps"] = 5
        with pytest.raises(ValueError, match="^steps: expected an array, got 5$"):
            trace_from_doc(doc)

    def test_step_not_an_object_named(self):
        doc = self.result_doc()
        doc["steps"][1] = "step"
        with pytest.raises(ValueError, match=r"^steps\[1\]: expected an object, got 'step'$"):
            trace_from_doc(doc)

    def test_params_after_of_wrong_length_named(self):
        doc = self.result_doc()
        doc["steps"][2]["params_after"] = [0.1, 0.2, 0.3, 0.4]
        with pytest.raises(
            ValueError,
            match=r"^steps\[2\]\.params_after: expected an array of 5 items, got \[0\.1, 0\.2, 0\.3, 0\.4\]$",
        ):
            trace_from_doc(doc)

    def test_sigma_matrix_entry_not_a_pair_named(self):
        doc = self.result_doc()
        doc["sigma"] = {"matrix": [[1, 0], [0, 0]]}
        with pytest.raises(ValueError, match=r"^sigma\.matrix\[0\]\[0\]: expected an array of 2 items, got 1$"):
            trace_from_doc(doc)

    def test_turn_outside_d_and_g_named(self):
        doc = self.result_doc()
        doc["steps"][1]["turn"] = "Q"
        with pytest.raises(ConfigError, match=r"^steps\[1\]\.turn: expected one of \('D', 'G'\), got 'Q'$"):
            trace_from_doc(doc)

    def test_unknown_termination_named(self):
        doc = self.result_doc()
        doc["termination"] = "stalled"
        with pytest.raises(
            ConfigError,
            match=r"^termination: expected one of \('equilibrium', 'budget-exhausted'\), got 'stalled'$",
        ):
            trace_from_doc(doc)

    def test_cdf_not_an_array_named(self):
        spec = fast_spec(seed=100)
        doc = json.loads(json.dumps(summary_to_doc(summarize_batch(run_batch(spec, 2), spec))))
        doc["cdf_fidelity"] = 0.5
        with pytest.raises(ValueError, match=r"^cdf_fidelity: expected an array, got 0\.5$"):
            summary_from_doc(doc)

    def test_constructor_error_is_not_a_malformed_document(self, monkeypatch):
        doc = trace_to_doc(run_experiment(fast_spec(seed=4)))

        def broken(matrix):
            raise TypeError("broken constructor")

        monkeypatch.setattr(harness_mod, "DensityMatrix", broken)
        with pytest.raises(TypeError, match="broken constructor"):
            trace_from_doc(doc)

    def test_config_block_validated_like_a_config_file(self):
        doc = trace_to_doc(run_experiment(fast_spec(seed=4)))
        doc["config"]["shotz"] = 5
        with pytest.raises(ConfigError, match="shotz"):
            trace_from_doc(doc)
        doc = trace_to_doc(run_experiment(fast_spec(seed=4)))
        doc["config"]["learning_rate"] = "fast"
        with pytest.raises(ConfigError, match="learning_rate"):
            trace_from_doc(doc)
        # The writer writes every field, noise's too, and never a sigma or an
        # initial block, so the reader fills in no default and takes neither.
        doc = trace_to_doc(run_experiment(fast_spec(seed=4)))
        doc["config"] = {}
        with pytest.raises(ConfigError, match=r"^config: 'shots' is required$"):
            trace_from_doc(doc)
        for name in [*vars(GameConfig()), *vars(NoiseSettings())]:
            doc = trace_to_doc(run_experiment(fast_spec(seed=4)))
            block = doc["config"] if name in doc["config"] else doc["config"]["noise"]
            where = "config" if block is doc["config"] else "config.noise"
            del block[name]
            with pytest.raises(ConfigError, match=rf"^{where}: '{name}' is required$"):
                trace_from_doc(doc)
        for name, block in (("sigma", {"mode": "pure-ground"}), ("initial", None)):
            doc = trace_to_doc(run_experiment(fast_spec(seed=4)))
            doc["config"][name] = block
            with pytest.raises(ConfigError, match=rf"^config\.{name}: unknown field$"):
                trace_from_doc(doc)
