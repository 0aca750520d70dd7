"""Byte-identity guard for every file the CLI writes.

Each subcommand runs on one fixed short config and every file it writes is
hashed with SHA-256.  The digests below were recorded from the harness that
still kept hand-written field tables and two file writers; a refactor that
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


def _digests(root):
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


@pytest.fixture(scope="module")
def emitted(tmp_path_factory):
    root = tmp_path_factory.mktemp("emission")
    config = root / "config.json"
    config.write_text(json.dumps(CONFIG))
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


def test_emitted_files_match_recorded_digests(emitted):
    assert emitted == DIGESTS
