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

    def test_malformed_json_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run_cli("run", "--config", path, "--out", tmp_path / "o") == 2

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
        assert "'steps'" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "kind, path, value, key",
        [
            ("tracking", ("steps", 0, "estimate"), [0.5, 0.5], "'steps[0].estimate'"),
            ("tracking", ("steps",), 5, "'steps'"),
            ("tracking", ("steps", 0), "step", "'steps[0]'"),
            ("bloch-snapshots", ("sigma",), {"matrix": [[1, 0], [0, 0]]}, "'sigma.matrix[0][0]'"),
            ("cdf", ("cdf_fidelity",), {"0.5": 1.0}, "'cdf_fidelity'"),
        ],
    )
    def test_wrongly_shaped_document_exits_2(
        self, config_path, tmp_path, capsys, kind, path, value, key
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
        assert key in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()
