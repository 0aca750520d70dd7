"""Byte-identity guard for every file the CLI writes.

Each subcommand runs on a fixed short config and every file it writes is
hashed with SHA-256.  ``DIGESTS`` were recorded from the harness that still
kept hand-written field tables and two file writers.  ``KNOB_DIGESTS`` pin
the loop paths the default config leaves alone (one step per iteration,
branchwise draws, generated-only noise, a Hilbert-Schmidt sigma, a binding
per-turn cap and a two-step stall window); they were recorded from the play
loop that still dispatched on the turn inside its body.  ``INITIAL_DIGESTS``
pin a config with a fixed ``sigma`` vector and an ``initial`` block: the
opening move read from the config (r close enough to 1 that G's first r
difference flips backward, angles outside their draw ranges) and its echo
in ``summary.json``; they were recorded from the game that still carried
the parameter objects between turns.  A refactor that
alters any emitted byte fails here.  Re-record them only for a change that
alters the output on purpose and says so.
"""

import hashlib
import json

import pytest

from qgan_sim.cli import main

CONFIG = {
    "shots": 200,
    "c_limit": 40,
    "sigma": {"mode": "bloch-ball"},
    "noise": {"depolarizing_eps": 0.08, "amplitude_damping_gamma": 0.08},
    "seed": 0,
}

KNOBS = {
    "shots": 200,
    "c_limit": 40,
    "count_per_partial": False,
    "branchwise": True,
    "per_turn_cap": 3,
    "stall_window": 2,
    "sigma": {"mode": "hilbert-schmidt"},
    "noise": {"depolarizing_eps": 0.08, "amplitude_damping_gamma": 0.08,
              "apply_to": "generated-only"},
    "seed": 0,
}

INITIAL = {
    "shots": 1000,
    "c_limit": 60,
    "sigma": {"mode": "fixed", "bloch": [0.3, -0.2, 0.5]},
    "initial": {"r": 0.97, "theta": 2.5, "phi": -1.0, "beta": 0.4, "gamma": 7.0},
    "seed": 0,
}

DIGESTS = {
    "batch/cdf_c_step.csv": "42b4da83a7cdb8d1e5df4c945172f447a7481c4629d7622bb065825cfbf19660",
    "batch/cdf_fidelity.csv": "c1ef0ca9bd1b9e120ab9ec34c978288d4af4455fa1d206154de959743b479bf3",
    "batch/summary.json": "1a17b47a8de2738fc835ebeee6db44818a2443af75c87b0c19e5544004beab75",
    "batch/traces/game_0000.json": "ca8350bf85865103a3495cb028b785876cc2f3da19bce66d4b7f8c274b55a5bc",
    "batch/traces/game_0001.json": "8bac78395030c6758dac0e5d519d39186eb334db65b663678627cf437116f51b",
    "batch/traces/game_0002.json": "89b0f7627d4b466547a8dd688488a4e859642d779e664f980a8cdcc1a972189b",
    "plot/bloch-snapshots.csv": "20c56bd69038867315acc1f68467e8f3cb2768f11e392e4c33bd4303b577c926",
    "plot/cdf.csv": "c1ef0ca9bd1b9e120ab9ec34c978288d4af4455fa1d206154de959743b479bf3",
    "plot/tracking.csv": "214abf878fd48c15d90736adf9b4ea2bc4529d32198c291ac9712f7a9929e125",
    "run/result.json": "ca8350bf85865103a3495cb028b785876cc2f3da19bce66d4b7f8c274b55a5bc",
    "run/trajectory.csv": "28c9ea6e3cc03ef08415069e7db3333a00b69c08f56aebfc4f153e12efed9d6b",
}


KNOB_DIGESTS = {
    "batch/cdf_c_step.csv": "03be85418f2e72782fe02b967a8b2abe4768685fd778c0bf0ca3e2af6bb9a4d2",
    "batch/cdf_fidelity.csv": "285385e0527e8a61089474cddc7bd78e1b11978046a62ec30011089b8f16fd8b",
    "batch/summary.json": "dcd8836ed102cd5268c3697b307bd2723ecbcfad70f82503c8293cf217fa6390",
    "batch/traces/game_0000.json": "85c12b8723bc330390e15d16fdea23a3c04165f470abbb814b748172fa6f7fde",
    "batch/traces/game_0001.json": "355b85b6e8b06b97d688c96e587e0e81e8cbe98b0dec4fc3333b7f6ec840f975",
    "batch/traces/game_0002.json": "eda1dd89039b9242bd9b6dc917fb3cb78d324280ebd4e4869b0bdad0be8ba011",
    "plot/bloch-snapshots.csv": "993deebdfd2ab533106861a3a0a54a0bd63164e9a96f704920e40e3ec0fb55a4",
    "plot/cdf.csv": "285385e0527e8a61089474cddc7bd78e1b11978046a62ec30011089b8f16fd8b",
    "plot/tracking.csv": "f061f7b72281c6b6be28e06f6ec0a13eacc6789a7697b9a361d366e5ad0235ac",
    "run/result.json": "85c12b8723bc330390e15d16fdea23a3c04165f470abbb814b748172fa6f7fde",
    "run/trajectory.csv": "2b8cbbbeaf63bb4c0fbd99c4fbfcb4ea1d4af8ea484f034d85f904a4b0c34148",
}


INITIAL_DIGESTS = {
    "batch/cdf_c_step.csv": "073a571927776fec1a7b529c9babf4975b16fd5c29fe4f361808e3577845bfd2",
    "batch/cdf_fidelity.csv": "4df92c46b95c0ecd78a9b1872610e84f8aaeb1fa4f999072e35573280984257b",
    "batch/summary.json": "09fb55b1ca2921697193873dfd0ebe09b98a530fed4ec0610d7436b2596cda4b",
    "batch/traces/game_0000.json": "1fe5815c9301d79ae6c3b98cbec5a652d2e49025817a3a1b6539d9026066c26c",
    "batch/traces/game_0001.json": "3caf4dc039113854a0ae03e9c96afa7410c9ee521654a5a4899cc0d22ef01697",
    "batch/traces/game_0002.json": "178392613e476ca90879463c10dc65dc278732e6a7e62e410dbbb63920b8ce18",
    "plot/bloch-snapshots.csv": "bf52787d74e59c3b55992aa64a2a0a573716aa9b546c57b048e4303279680d32",
    "plot/cdf.csv": "4df92c46b95c0ecd78a9b1872610e84f8aaeb1fa4f999072e35573280984257b",
    "plot/tracking.csv": "4933425cdd2345eb0c6b40bee7838f8081d823491318daef2e11534ad13642d5",
    "run/result.json": "1fe5815c9301d79ae6c3b98cbec5a652d2e49025817a3a1b6539d9026066c26c",
    "run/trajectory.csv": "153873162f3fcfc17a94b305f3178a202a5a57d838d895fb13db0d3d8604857e",
}


def _digests(root):
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _emit(root, doc):
    config = root / "config.json"
    config.write_text(json.dumps(doc))
    out = root / "out"
    run, batch, plots = out / "run", out / "batch", out / "plot"
    assert main(["run", "--config", str(config), "--out", str(run)]) == 0
    assert main(["batch", "--config", str(config), "--out", str(batch), "--n", "3",
                 "--jobs", "1", "--emit-traces"]) == 0
    plots.mkdir()
    for kind, infile in (("tracking", run / "result.json"),
                         ("bloch-snapshots", run / "result.json"),
                         ("cdf", batch / "summary.json")):
        assert main(["plot-data", "--kind", kind, "--in", str(infile),
                     "--out", str(plots / f"{kind}.csv")]) == 0
    return _digests(out)


@pytest.fixture(scope="module")
def emitted(tmp_path_factory):
    return _emit(tmp_path_factory.mktemp("emission"), CONFIG)


def test_emitted_files_match_recorded_digests(emitted):
    assert emitted == DIGESTS


def test_knob_config_files_match_recorded_digests(tmp_path):
    assert _emit(tmp_path, KNOBS) == KNOB_DIGESTS


def test_initial_config_files_match_recorded_digests(tmp_path):
    assert _emit(tmp_path, INITIAL) == INITIAL_DIGESTS
