"""Command-line front end: exit codes, emitted files, determinism."""

import json

import pytest

from qgan_sim.cli import main
from qgan_sim.harness import trace_from_doc

FAST_CONFIG = {
    "sigma": {"mode": "pure-ground"},
    "exact_mode": True,
    "c_limit": 80,
    "seed": 3,
}


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(FAST_CONFIG))
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


DELETE = object()  # an edit value that deletes its key


def write_edited(source, edits, path):
    """Write ``source``'s JSON document to ``path`` with each value at an
    edited key path replaced (or, for DELETE, deleted); return ``path``."""
    doc = json.loads(source.read_text())
    for (*parents, last), value in edits.items():
        target = doc
        for step in parents:
            target = target[step]
        if value is DELETE:
            del target[last]
        else:
            target[last] = value
    path.write_text(json.dumps(doc))
    return path


class TestRunCommand:
    def test_writes_trajectory_and_result(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("run", "--config", config_path, "--out", out) == 0
        assert (out / "trajectory.csv").exists()
        assert (out / "result.json").exists()
        line = capsys.readouterr().out.strip()
        assert line.startswith("c_step=") and "termination=" in line

    def test_deterministic_output_files(self, config_path, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli("run", "--config", config_path, "--out", out_a) == 0
        assert run_cli("run", "--config", config_path, "--out", out_b) == 0
        assert (out_a / "trajectory.csv").read_bytes() == (
            out_b / "trajectory.csv"
        ).read_bytes()
        assert (out_a / "result.json").read_bytes() == (out_b / "result.json").read_bytes()

    def test_seed_flag_overrides_config(self, config_path, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_cli("run", "--config", config_path, "--out", out_a, "--seed", 3)
        run_cli("run", "--config", config_path, "--out", out_b, "--seed", 4)
        assert (out_a / "trajectory.csv").read_bytes() != (
            out_b / "trajectory.csv"
        ).read_bytes()

    def test_env_seed_is_last_resort(self, tmp_path, monkeypatch):
        config = dict(FAST_CONFIG)
        del config["seed"]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        monkeypatch.setenv("QGAN_SIM_SEED", "3")
        out_env = tmp_path / "env"
        run_cli("run", "--config", path, "--out", out_env)
        out_cfg = tmp_path / "cfg"
        run_cli("run", "--config", tmp_path / "config.json", "--out", out_cfg, "--seed", 3)
        assert (out_env / "result.json").read_bytes() == (out_cfg / "result.json").read_bytes()

    def test_invalid_config_field_exits_2(self, tmp_path, capsys):
        bad = dict(FAST_CONFIG)
        bad["initial"] = {"r": 1.5, "theta": 0, "phi": 0, "beta": 0, "gamma": 0}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert run_cli("run", "--config", path, "--out", tmp_path / "o") == 2
        assert "initial.r" in capsys.readouterr().err

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run_cli("run", "--config", path, "--out", tmp_path / "o") == 2
        assert f"config: invalid JSON in {path}: " in capsys.readouterr().err
        # A truncated result document names the --in file the same way.
        path.write_text('{"schema": ')
        for kind in ("tracking", "bloch-snapshots", "cdf"):
            assert run_cli("plot-data", "--kind", kind, "--in", path,
                           "--out", tmp_path / "x.csv") == 2
            assert capsys.readouterr().err == (
                f"config error: --in: invalid JSON in {path}: "
                "Expecting value: line 1 column 12 (char 11)\n"
            )
        path.write_bytes(b"\xff\xfe{}")
        assert run_cli("plot-data", "--kind", "cdf", "--in", path, "--out", tmp_path / "x.csv") == 2
        assert capsys.readouterr().err.startswith(f"config error: --in: invalid JSON in {path}: ")
        assert not (tmp_path / "x.csv").exists()
        # Nesting past the parser's depth is named too, not a traceback.
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert run_cli("run", "--config", path, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == f"config error: config: JSON nested too deeply in {path}\n"
        assert run_cli("plot-data", "--kind", "tracking", "--in", path,
                       "--out", tmp_path / "x.csv") == 2
        assert capsys.readouterr().err == f"config error: --in: JSON nested too deeply in {path}\n"
        assert not (tmp_path / "x.csv").exists()

    def test_missing_config_exits_3(self, tmp_path):
        assert run_cli("run", "--config", tmp_path / "nope.json", "--out", tmp_path / "o") == 3

    def test_shot_mode_trajectory_oscillates_and_converges(self, tmp_path):
        config = {"sigma": {"mode": "pure-ground"}, "seed": 3}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert run_cli("run", "--config", path, "--out", out) == 0
        doc = json.loads((out / "result.json").read_text())
        assert doc["termination"] == "equilibrium"
        lines = (out / "trajectory.csv").read_text().splitlines()
        d_col = lines[0].split(",").index("d_hat")
        ds = [float(line.split(",")[d_col]) for line in lines[1:]]
        rises = any(b > a for a, b in zip(ds, ds[1:]))
        falls = any(b < a for a, b in zip(ds, ds[1:]))
        assert rises and falls  # adversarial turns push d both ways
        assert ds[-1] < 0.02


class TestBatchCommand:
    def test_writes_summary_and_cdfs(self, config_path, tmp_path, capsys):
        out = tmp_path / "batch"
        assert run_cli("batch", "--config", config_path, "--out", out, "--n", 5) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["games"] == 5
        assert len(summary["cdf_c_step"]) == 5
        assert (out / "cdf_c_step.csv").exists()
        assert (out / "cdf_fidelity.csv").exists()
        assert "games=5" in capsys.readouterr().out

    def test_game_k_equals_single_run_with_offset_seed(self, config_path, tmp_path):
        out = tmp_path / "batch"
        run_cli("batch", "--config", config_path, "--out", out, "--n", 3, "--emit-traces")
        solo_out = tmp_path / "solo"
        run_cli("run", "--config", config_path, "--out", solo_out, "--seed", 5)
        batch_doc = json.loads((out / "traces" / "game_0002.json").read_text())
        solo_doc = json.loads((solo_out / "result.json").read_text())
        assert trace_from_doc(batch_doc) == trace_from_doc(solo_doc)

    def test_parallel_matches_serial_byte_for_byte(self, config_path, tmp_path):
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        run_cli("batch", "--config", config_path, "--out", serial, "--n", 6,
                "--emit-traces")
        run_cli("batch", "--config", config_path, "--out", parallel, "--n", 6,
                "--jobs", 3, "--emit-traces")
        for name in ("summary.json", "cdf_c_step.csv", "cdf_fidelity.csv",
                     "traces/game_0000.json", "traces/game_0005.json"):
            assert (serial / name).read_bytes() == (parallel / name).read_bytes()

    def test_smaller_batch_removes_stale_traces(self, config_path, tmp_path):
        out = tmp_path / "batch"
        assert run_cli("batch", "--config", config_path, "--out", out, "--n", 5,
                       "--emit-traces") == 0
        # game_10000.json is the writer's name for game 10,000; game_00001.json
        # is no game's name.
        for name in ("game_1.json", "game_0009.txt", "notes.txt", "game_00001.json"):
            (out / "traces" / name).write_text("kept")
        (out / "traces" / "game_10000.json").write_text("stale")
        (out / "traces" / "game_0008.json").mkdir()
        assert run_cli("batch", "--config", config_path, "--out", out, "--n", 2,
                       "--emit-traces") == 0
        names = sorted(path.name for path in (out / "traces").iterdir())
        assert names == ["game_0000.json", "game_00001.json", "game_0001.json",
                         "game_0008.json", "game_0009.txt", "game_1.json", "notes.txt"]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["games"] == 2

    def test_failed_trace_write_leaves_no_summary(self, config_path, tmp_path, capsys):
        out = tmp_path / "batch"
        blocked = out / "traces" / "game_0001.json"
        blocked.mkdir(parents=True)
        assert run_cli("batch", "--config", config_path, "--out", out, "--n", 3,
                       "--jobs", 2, "--emit-traces") == 3
        assert str(blocked) in capsys.readouterr().err
        assert sorted(path.name for path in out.iterdir()) == ["traces"]

    def test_failed_batch_leaves_nothing_of_an_earlier_one(self, config_path, tmp_path):
        out = tmp_path / "batch"
        assert run_cli("batch", "--config", config_path, "--out", out, "--n", 3,
                       "--seed", 0, "--emit-traces") == 0
        blocked = out / "traces" / "game_0001.json"
        blocked.unlink()
        blocked.mkdir()
        assert run_cli("batch", "--config", config_path, "--out", out, "--n", 3,
                       "--seed", 50, "--emit-traces") == 3
        assert sorted(path.name for path in out.iterdir()) == ["traces"]
        assert sorted(path.name for path in (out / "traces").iterdir()) == [
            "game_0000.json", "game_0001.json"]
        doc = json.loads((out / "traces" / "game_0000.json").read_text())
        assert doc["config"]["seed"] == 50

    def test_batch_without_traces_removes_earlier_traces(self, config_path, tmp_path):
        out = tmp_path / "batch"
        assert run_cli("batch", "--config", config_path, "--out", out, "--n", 3,
                       "--seed", 0, "--emit-traces") == 0
        assert run_cli("batch", "--config", config_path, "--out", out, "--n", 2,
                       "--seed", 50) == 0
        assert list((out / "traces").iterdir()) == []
        summary = json.loads((out / "summary.json").read_text())
        assert (summary["games"], summary["config_echo"]["seed"]) == (2, 50)

    def test_single_game_batch_cdfs_are_point_masses(self, config_path, tmp_path):
        out = tmp_path / "one"
        run_cli("batch", "--config", config_path, "--out", out, "--n", 1)
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["cdf_fidelity"]) == 1
        assert summary["cdf_fidelity"][0][1] == 1.0


class TestPlotDataCommand:
    @pytest.fixture()
    def result_path(self, config_path, tmp_path):
        out = tmp_path / "out"
        run_cli("run", "--config", config_path, "--out", out)
        return out / "result.json"

    @pytest.fixture()
    def summary_path(self, config_path, tmp_path):
        out = tmp_path / "batch"
        run_cli("batch", "--config", config_path, "--out", out, "--n", 4)
        return out / "summary.json"

    def test_tracking(self, result_path, tmp_path):
        out_csv = tmp_path / "tracking.csv"
        assert run_cli("plot-data", "--kind", "tracking", "--in", result_path,
                       "--out", out_csv) == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "step,p_sigma_hat,p_rho_hat,d_hat,fidelity"
        doc = json.loads(result_path.read_text())
        assert len(lines) == len(doc["steps"]) + 1

    def test_bloch_snapshots_with_steps(self, result_path, tmp_path):
        doc = json.loads(result_path.read_text())
        first = doc["steps"][0]["step_index"]
        out_csv = tmp_path / "snap.csv"
        assert run_cli("plot-data", "--kind", "bloch-snapshots", "--in", result_path,
                       "--out", out_csv, "--steps", str(first)) == 0
        lines = out_csv.read_text().splitlines()
        assert len(lines) == 2

    def test_cdf_metrics(self, summary_path, tmp_path):
        for metric in ("fidelity", "c_step"):
            out_csv = tmp_path / f"cdf_{metric}.csv"
            assert run_cli("plot-data", "--kind", "cdf", "--in", summary_path,
                           "--out", out_csv, "--metric", metric) == 0
            lines = out_csv.read_text().splitlines()
            assert lines[0] == "value,cumulative_probability"
            assert len(lines) == 5
            assert float(lines[-1].split(",")[1]) == 1.0

    def test_unknown_kind_exits_2(self, result_path, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli("plot-data", "--kind", "histogram", "--in", result_path,
                    "--out", tmp_path / "x.csv")
        assert err.value.code == 2

    def test_bad_steps_argument_exits_2(self, result_path, tmp_path):
        assert run_cli("plot-data", "--kind", "bloch-snapshots", "--in", result_path,
                       "--out", tmp_path / "x.csv", "--steps", "a,b") == 2

    def test_cdf_on_result_document_exits_2(self, result_path, tmp_path):
        assert run_cli("plot-data", "--kind", "cdf", "--in", result_path,
                       "--out", tmp_path / "x.csv") == 2


class TestRejectedInput:
    """Bad input exits 2 with a message, never a traceback."""

    def test_shot_count_beyond_int64_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"shots": 2**63, "c_limit": 10}))
        assert run_cli("run", "--config", path, "--out", tmp_path / "o") == 2
        assert "shots" in capsys.readouterr().err

    @pytest.mark.parametrize("steps", ["", ",", " , "])
    def test_empty_steps_selection_exits_2(self, config_path, tmp_path, capsys, steps):
        out = tmp_path / "out"
        assert run_cli("run", "--config", config_path, "--out", out) == 0
        capsys.readouterr()
        assert run_cli("plot-data", "--kind", "bloch-snapshots", "--in", out / "result.json",
                       "--out", tmp_path / "x.csv", "--steps", steps) == 2
        assert capsys.readouterr().err == (
            f"config error: --steps: expected comma-separated integers, got {steps!r}\n"
        )
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "config, env, message",
        [
            ({}, "-5", "QGAN_SIM_SEED: expected a non-negative integer, got '-5'"),
            ({"seed": -2}, None, "seed: expected at least 0, got -2"),
        ],
        ids=["environment", "config"],
    )
    def test_negative_seed_named_by_source(self, tmp_path, capsys, monkeypatch, config, env,
                                           message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        if env is not None:
            monkeypatch.setenv("QGAN_SIM_SEED", env)
        assert run_cli("run", "--config", path, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("command", [("run",), ("batch", "--n", "2")])
    def test_negative_seed_flag_named(self, config_path, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as err:
            run_cli(*command, "--config", config_path, "--out", tmp_path / "o", "--seed", "-3")
        assert err.value.code == 2
        assert "argument --seed: expected a non-negative integer, got '-3'" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("flag, raw", [("--n", "0"), ("--jobs", "0"), ("--n", "-2"),
                                           ("--jobs", "two")])
    def test_non_positive_count_flag_named(self, config_path, tmp_path, capsys, flag, raw):
        counts = {"--n": "3", "--jobs": "1", flag: raw}
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as err:
            run_cli("batch", "--config", config_path, "--out", out,
                    *(arg for pair in counts.items() for arg in pair))
        assert err.value.code == 2
        assert f"argument {flag}: expected a positive integer, got {raw!r}" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_cdf_of_json_array_exits_2(self, tmp_path, capsys):
        path = tmp_path / "array.json"
        path.write_text("[1, 2, 3]")
        assert run_cli("plot-data", "--kind", "cdf", "--in", path,
                       "--out", tmp_path / "x.csv") == 2
        assert "not a JSON object" in capsys.readouterr().err

    def test_tracking_of_result_without_steps_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bare.json"
        path.write_text(json.dumps({"schema": "qgan-sim/result/v1"}))
        assert run_cli("plot-data", "--kind", "tracking", "--in", path,
                       "--out", tmp_path / "x.csv") == 2
        assert "'config'" in capsys.readouterr().err

    def test_unknown_config_key_in_result_exits_2(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("run", "--config", config_path, "--out", out) == 0
        doc = json.loads((out / "result.json").read_text())
        doc["config"]["shotz"] = 5
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        assert run_cli("plot-data", "--kind", "tracking", "--in", path,
                       "--out", tmp_path / "x.csv") == 2
        assert "shotz" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    # The first five ids are the ones pytest generated when each case named
    # only its key, so those tests keep their names.
    @pytest.mark.parametrize(
        "kind, path, value, message",
        [
            pytest.param(
                "tracking", ("steps", 0, "estimate"), [0.5, 0.5],
                "steps[0].estimate: expected an object, got [0.5, 0.5]",
                id="tracking-path0-value0-'steps[0].estimate'",
            ),
            pytest.param(
                "tracking", ("steps",), 5, "steps: expected an array, got 5",
                id="tracking-path1-5-'steps'",
            ),
            pytest.param(
                "tracking", ("steps", 0), "step", "steps[0]: expected an object, got 'step'",
                id="tracking-path2-step-'steps[0]'",
            ),
            pytest.param(
                "bloch-snapshots", ("sigma",), {"matrix": [[1, 0], [0, 0]]},
                "sigma.matrix[0][0]: expected an array of 2 items, got 1",
                id="bloch-snapshots-path3-value3-'sigma.matrix[0][0]'",
            ),
            pytest.param(
                "cdf", ("cdf_fidelity",), {"0.5": 1.0},
                "cdf_fidelity: expected an array, got {'0.5': 1.0}",
                id="cdf-path4-value4-'cdf_fidelity'",
            ),
            pytest.param(
                "tracking", ("steps", 0, "step_index"), "x",
                "steps[0].step_index: expected an integer, got 'x'",
                id="step_index-string",
            ),
            pytest.param(
                "bloch-snapshots", ("sigma", "matrix", 0, 0), ["1", "0"],
                "sigma.matrix[0][0][0]: expected a number, got '1'",
                id="sigma-matrix-pair-of-strings",
            ),
            pytest.param(
                "tracking", ("steps", 0, "fidelity_ideal"), "x",
                "steps[0].fidelity_ideal: expected a number, got 'x'",
                id="fidelity_ideal-string",
            ),
            pytest.param(
                "tracking", ("steps", 0, "estimate", "shots"), "5",
                "steps[0].estimate.shots: expected an integer, got '5'",
                id="shots-string",
            ),
            pytest.param(
                "tracking", ("steps", 0, "estimate", "p_rho_hat"), None,
                "steps[0].estimate: 'p_rho_hat' is required",
                id="p_rho_hat-null",
            ),
            pytest.param(
                "cdf", ("games",), "x", "games: expected an integer, got 'x'",
                id="games-string",
            ),
            pytest.param(
                "tracking", ("config", "shots"), None, "config: 'shots' is required",
                id="config-shots-null",
            ),
            pytest.param(
                "cdf", ("termination_counts",), 3, "termination_counts: expected an object, got 3",
                id="termination_counts-not-an-object",
            ),
        ],
    )
    def test_wrongly_shaped_document_exits_2(
        self, config_path, tmp_path, capsys, kind, path, value, message
    ):
        out = tmp_path / "out"
        assert run_cli("batch", "--config", config_path, "--out", out, "--n", "1",
                       "--emit-traces") == 0
        name = "summary.json" if kind == "cdf" else "traces/game_0000.json"
        doc = json.loads((out / name).read_text())
        *parents, last = path
        target = doc
        for step in parents:
            target = target[step]
        target[last] = value
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(doc))
        assert run_cli("plot-data", "--kind", kind, "--in", edited,
                       "--out", tmp_path / "x.csv") == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "x.csv").exists()

    # Documents of the right shape that the program cannot have written.
    @pytest.mark.parametrize(
        "kind, edits, message",
        [
            pytest.param(
                "cdf", {("cdf_fidelity",): [[0.9, 0.8], [0.5, 0.1], [0.99, -0.5]]},
                "cdf_fidelity[0]: expected [0.5, 0.3333333333333333], got [0.9, 0.8]",
                id="cdf-value-falls",
            ),
            pytest.param(
                "cdf", {("cdf_fidelity",): [[0.5, 0.5], [0.6, 0.4], [0.7, 1.0]]},
                "cdf_fidelity[0]: expected [0.5, 0.3333333333333333], got [0.5, 0.5]",
                id="cdf-probability-falls",
            ),
            pytest.param(
                "cdf", {("cdf_fidelity",): [[0.5, 0.5], [0.6, 0.5], [0.7, 1.0]]},
                "cdf_fidelity[0]: expected [0.5, 0.3333333333333333], got [0.5, 0.5]",
                id="cdf-probability-repeats",
            ),
            pytest.param(
                "cdf", {("cdf_fidelity",): [[0.5, 0.0], [0.6, 0.5], [0.7, 1.0]]},
                "cdf_fidelity[0]: expected [0.5, 0.3333333333333333], got [0.5, 0.0]",
                id="cdf-probability-zero",
            ),
            pytest.param(
                "cdf", {("cdf_fidelity",): [[0.5, 0.5], [0.6, 1.5], [0.7, 2.0]]},
                "cdf_fidelity[0]: expected [0.5, 0.3333333333333333], got [0.5, 0.5]",
                id="cdf-probability-above-one",
            ),
            pytest.param(
                "cdf", {("cdf_fidelity",): [[0.5, 0.2], [0.6, 0.4], [0.7, 0.9]]},
                "cdf_fidelity[0]: expected [0.5, 0.3333333333333333], got [0.5, 0.2]",
                id="cdf-last-probability-not-one",
            ),
            pytest.param(
                "cdf", {("cdf_fidelity",): [[0.5, 0.1], [0.6, 0.2], [0.7, 1.0]]},
                "cdf_fidelity[0]: expected [0.5, 0.3333333333333333], got [0.5, 0.1]",
                id="cdf-probabilities-not-the-ranks",
            ),
            pytest.param(
                "cdf", {("cdf_fidelity",): [[0.5, 1 / 3], [0.6, 0.5], [0.7, 1.0]]},
                "cdf_fidelity[1]: expected [0.6, 0.6666666666666666], got [0.6, 0.5]",
                id="cdf-second-probability-not-its-rank",
            ),
            pytest.param(
                "cdf", {("termination_counts",): {"equilibrium": 999}},
                "termination_counts: expected counts summing to games (3), got 999",
                id="termination_counts-not-games",
            ),
            pytest.param(
                "cdf", {("termination_counts",): {"bogus": 3}},
                "termination_counts.bogus: expected one of ('equilibrium', 'budget-exhausted'),"
                " got 'bogus'",
                id="termination_counts-unknown-key",
            ),
            pytest.param(
                "cdf", {("termination_counts", "equilibrium"): 0},
                "termination_counts.equilibrium: expected at least 1, got 0",
                id="termination_counts-zero",
            ),
            pytest.param(
                "cdf", {("mean_c_step",): -5.0},
                "mean_c_step: expected cdf_c_step's mean 97.33333333333333, got -5.0",
                id="mean_c_step-not-the-cdf-mean",
            ),
            pytest.param(
                "cdf", {("games",): 7},
                "cdf_c_step: expected one pair per game (7), got 3",
                id="cdf-length-not-games",
            ),
            pytest.param(
                "cdf", {("games",): 0, ("cdf_c_step",): [], ("cdf_fidelity",): []},
                "games: expected at least 1, got 0",
                id="cdf-no-games",
            ),
            # Still the empirical CDF of its values, but a fidelity above 1.
            pytest.param(
                "cdf", {("cdf_fidelity", 2, 0): 1.5},
                "cdf_fidelity[2][0]: expected a number in [0, 1], got 1.5",
                id="cdf_fidelity-above-one",
            ),
            pytest.param(
                "cdf", {("mean_fidelity",): -5.0},
                "mean_fidelity: expected a number in [0, 1], got -5.0",
                id="mean_fidelity-negative",
            ),
            pytest.param(
                "tracking", {("steps", 1, "fidelity_ideal"): 7.5},
                "steps[1].fidelity_ideal: expected a number in [0, 1], got 7.5",
                id="fidelity_ideal-above-one",
            ),
            pytest.param(
                "tracking", {("steps", 0, "fidelity_ideal"): -0.25},
                "steps[0].fidelity_ideal: expected a number in [0, 1], got -0.25",
                id="fidelity_ideal-negative",
            ),
            pytest.param(
                "tracking", {("final_fidelity",): 1.5},
                "final_fidelity: expected the last step's 0.9958614675252743, got 1.5",
                id="final_fidelity-above-one",
            ),
            pytest.param(
                "tracking", {("final_fidelity",): 0.25},
                "final_fidelity: expected the last step's 0.9958614675252743, got 0.25",
                id="final_fidelity-not-the-last-step",
            ),
            pytest.param(
                "tracking", {("termination",): "equilibrium"},
                "termination: expected 'budget-exhausted' by the last turn, got 'equilibrium'",
                id="termination-flipped-after-g",
            ),
            pytest.param(
                "bloch-snapshots", {("sigma", "bloch"): [0.6, 0.0, 0.0]},
                "sigma.bloch[0]: expected 0.0, got 0.6",
                id="sigma-bloch-not-the-matrix",
            ),
            pytest.param(
                "bloch-snapshots", {("sigma", "bloch"): DELETE},
                "sigma: 'bloch' is required",
                id="sigma-bloch-deleted",
            ),
            # Hermitian within the constructor's tolerance, but not as written.
            pytest.param(
                "bloch-snapshots", {("sigma", "matrix", 0, 0, 1): 1e-12},
                "sigma.matrix[0][0][1]: expected 0.0, got 1e-12",
                id="sigma-matrix-not-as-written",
            ),
            pytest.param(
                "tracking", {("config", "noise", "apply_to"): DELETE},
                "config.noise: 'apply_to' is required",
                id="config-noise-apply_to-deleted",
            ),
            pytest.param(
                "tracking", {("steps", 1, "params_after", 0): 1.5},
                "steps[1].params_after[0]: expected a number in [0, 1], got 1.5",
                id="tracking-r-above-one",
            ),
            pytest.param(
                "tracking", {("steps", 0, "params_after", 0): -0.25},
                "steps[0].params_after[0]: expected a number in [0, 1], got -0.25",
                id="tracking-r-negative",
            ),
            pytest.param(
                "bloch-snapshots", {("steps", 1, "params_after", 0): 1.5},
                "steps[1].params_after[0]: expected a number in [0, 1], got 1.5",
                id="snapshots-r-above-one",
            ),
            pytest.param(
                "bloch-snapshots", {("steps", 0, "params_after", 0): -0.25},
                "steps[0].params_after[0]: expected a number in [0, 1], got -0.25",
                id="snapshots-r-negative",
            ),
            pytest.param(
                "bloch-snapshots", {("steps", 0, "step_index"): 2, ("steps", 1, "step_index"): 2},
                "steps[1].step_index: expected more than the previous step's 2, got 2",
                id="step_index-repeats",
            ),
            pytest.param(
                "bloch-snapshots", {("steps", 0, "step_index"): 2, ("steps", 1, "step_index"): 1},
                "steps[1].step_index: expected more than the previous step's 2, got 1",
                id="step_index-falls",
            ),
            pytest.param(
                "tracking", {("steps", 0, "step_index"): 0},
                "steps[0].step_index: expected at least 1, got 0",
                id="step_index-zero",
            ),
            pytest.param(
                "tracking", {("steps", 0, "step_index"): -1},
                "steps[0].step_index: expected at least 1, got -1",
                id="step_index-negative",
            ),
            pytest.param(
                "tracking", {("steps",): []}, "steps: expected at least one step, got []",
                id="steps-empty",
            ),
            pytest.param(
                "tracking", {("config", "exact_mode"): False},
                "config.exact_mode: False does not match any step's estimate.shots,"
                " the first being None",
                id="exact_mode-false-on-exact-steps",
            ),
            pytest.param(
                "tracking", {("steps", 0, "round_index"): 2},
                "steps[0].round_index: expected 1, got 2",
                id="round_index-first-not-one",
            ),
            pytest.param(
                "bloch-snapshots", {("steps", 1, "round_index"): 2**64},
                "steps[1].round_index: expected 1 or 2, got 18446744073709551616",
                id="round_index-2**64",
            ),
            pytest.param(
                "tracking", {("steps", 0, "estimate", "p_rho_hat"): 1.5},
                "steps[0].estimate.p_rho_hat: expected a number in [0, 1], got 1.5",
                id="p_rho_hat-above-one",
            ),
            # Rounds 1 and 2 each hold D's steps, then G's: steps 0-6 and
            # 24-28 are D's, steps 7-23 and 29-41 G's.
            pytest.param(
                "tracking", {("steps", 23, "round_index"): 2},
                "steps[23].turn: expected 'D' to open round 2, got 'G'",
                id="round-opens-with-g",
            ),
            pytest.param(
                "bloch-snapshots", {("steps", 24, "round_index"): 1},
                "steps[24].turn: expected 'G' after a 'G' step in round 1, got 'D'",
                id="d-after-g-in-a-round",
            ),
        ],
    )
    def test_impossible_document_exits_2(self, config_path, tmp_path, capsys, kind, edits, message):
        out = tmp_path / "out"
        assert run_cli("batch", "--config", config_path, "--out", out, "--n", "3",
                       "--emit-traces") == 0
        name = "summary.json" if kind == "cdf" else "traces/game_0000.json"
        edited = write_edited(out / name, edits, tmp_path / "edited.json")
        assert run_cli("plot-data", "--kind", kind, "--in", edited,
                       "--out", tmp_path / "x.csv") == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "x.csv").exists()

    def test_equilibrium_result_marked_budget_exhausted_exits_2(self, tmp_path, capsys):
        # This game reaches equilibrium at step 60, on D's turn.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**FAST_CONFIG, "seed": 1}))
        out = tmp_path / "out"
        assert run_cli("run", "--config", config, "--out", out) == 0
        capsys.readouterr()
        edited = write_edited(out / "result.json", {("termination",): "budget-exhausted"},
                              tmp_path / "edited.json")
        assert run_cli("plot-data", "--kind", "tracking", "--in", edited,
                       "--out", tmp_path / "x.csv") == 2
        assert capsys.readouterr().err == (
            "config error: termination: expected 'equilibrium' by the last turn, "
            "got 'budget-exhausted'\n"
        )
        assert not (tmp_path / "x.csv").exists()

    # A 50-shot game of six steps over two rounds: step indices 2, 4, 7, 10,
    # 12 and 14, rounds 1, 1, 1, 1, 2 and 2.
    SHOT_CONFIG = {"sigma": {"mode": "pure-ground"}, "shots": 50, "c_limit": 12,
                   "per_turn_cap": 4, "seed": 1}

    @pytest.mark.parametrize(
        "edits, message",
        [
            pytest.param(
                {("steps", 2, "estimate", "shots"): None},
                "steps[2].estimate.shots: expected 50 as in the config, got None",
                id="shots-null-in-a-step",
            ),
            pytest.param(
                {("steps", 2, "estimate", "shots"): 2**64},
                "steps[2].estimate.shots: expected 50 as in the config, got 18446744073709551616",
                id="shots-2**64-in-a-step",
            ),
            pytest.param(
                {("config", "shots"): 60},
                "config.shots: 60 does not match any step's estimate.shots, the first being 50",
                id="config-shots-not-the-steps",
            ),
            pytest.param(
                {("config", "exact_mode"): True},
                "config.exact_mode: True does not match any step's estimate.shots,"
                " the first being 50",
                id="exact_mode-true-on-shot-steps",
            ),
            pytest.param(
                {("c_step_total",): 2**64},
                "c_step_total: expected the last step's 14, got 18446744073709551616",
                id="c_step_total-2**64",
            ),
            pytest.param(
                {("steps", 4, "round_index"): 3},
                "steps[4].round_index: expected 1 or 2, got 3",
                id="round_index-skips-one",
            ),
            pytest.param(
                {("termination",): "equilibrium"},
                "termination: expected 'budget-exhausted' by the last turn, got 'equilibrium'",
                id="termination-flipped-after-d",
            ),
            pytest.param(
                {("config", "c_limit"): 15},
                "termination: 'budget-exhausted' needs c_step_total >= c_limit, got 14 < 15",
                id="c_limit-above-c_step_total",
            ),
            # Turns that run_game's stop rule ends before the last one: D's
            # turn of round 1 (steps 0 and 1), or G's (steps 2 and 3).
            pytest.param(
                {("steps", k, "estimate", name): value for k in (0, 1)
                 for name, value in (("p_rho_hat", 0.5), ("p_sigma_hat", 0.5), ("d_hat", 0.0))},
                "steps[1]: expected no later step, as this turn ends the game in 'equilibrium',"
                " got 4 more",
                id="equilibrium-in-round-1",
            ),
            pytest.param(
                {("config", "c_limit"): 5},
                "steps[3]: expected no later step, as this turn ends the game in 'budget-exhausted',"
                " got 2 more",
                id="budget-exhausted-after-g-of-round-1",
            ),
            pytest.param(
                {("config", "c_limit"): 1},
                "steps[1]: expected no later step, as this turn ends the game in 'budget-exhausted',"
                " got 4 more",
                id="budget-exhausted-after-d-of-round-1",
            ),
        ],
    )
    def test_shot_result_at_odds_with_itself_exits_2(self, tmp_path, capsys, edits, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(self.SHOT_CONFIG))
        out = tmp_path / "out"
        assert run_cli("run", "--config", config, "--out", out) == 0
        edited = write_edited(out / "result.json", edits, tmp_path / "edited.json")
        assert run_cli("plot-data", "--kind", "tracking", "--in", edited,
                       "--out", tmp_path / "x.csv") == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "x.csv").exists()
