#!/usr/bin/env python3
"""qgan-sim benchmark: seeded closed-loop games, timed from outside the library.

Run from the repository root:

    python3 bench/run.py --workload pure-shot --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload pure-shot --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --smoke            # few games per workload, asserts every metric
    python3 bench/run.py --write-golden     # re-record bench/golden.json at seed 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones from a separate traced replay.  Game ``k`` of a run plays at seed
``--seed + k``.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 0 only when every output check passed.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import golden
from spans import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

JOBS = 2
CHILD_TIMEOUT_S = 150

WORKLOADS = {
    # README reference row 2: the paper's headline 5000-shot setup.
    "pure-shot": {"sigma": {"mode": "pure-ground"}, "shots": 5000, "c_limit": 500},
    # No binomial draws; mixed sigma per game takes the non-pure fidelity branch.
    "exact-mixed": {"exact_mode": True, "sigma": {"mode": "bloch-ball"}, "c_limit": 300},
    # README row 3: 5000 shots plus NoiseSettings.decoherence_preset(), run via the CLI.
    "noisy-cli": {
        "sigma": {"mode": "pure-ground"},
        "shots": 5000,
        "c_limit": 500,
        "noise": {"depolarizing_eps": 0.08, "amplitude_damping_gamma": 0.08},
    },
}
CLI_WORKLOAD = "noisy-cli"

END_TO_END_UNITS = {
    "games_per_s": "1/s",
    "game_ms_p50": "ms",
    "game_ms_p95": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "mean_fidelity": "ratio",
}
PER_LAYER_UNITS = {
    "bloch.calls": "count",
    "bloch.vector_validations": "count",
    "bloch.self_us_per_estimate": "us",
    "bloch.fidelity_us": "us",
    "bloch.probe_fidelity_us": "us",
    "noise.apply_calls": "count",
    "noise.self_us_per_call": "us",
    "noise.probe_us": "us",
    "sampling.estimates": "count",
    "sampling.shots": "count",
    "sampling.estimate_us_p50": "us",
    "sampling.self_us_per_estimate": "us",
    "sampling.share_of_game": "ratio",
    "sampling.probe_us.exact": "us",
    "sampling.probe_us.shot": "us",
    "sampling.probe_us.noisy": "us",
    "sampling.probe_us.branchwise": "us",
    "game.turns": "count",
    "game.steps": "count",
    "game.c_step_mean": "count",
    "game.estimates_per_step": "ratio",
    "game.self_ms_per_game": "ms",
    "harness.trace_to_doc_ms": "ms",
    "harness.write_json_ms": "ms",
    "harness.trace_bytes": "bytes",
    "harness.summarize_ms": "ms",
    "harness.pool_efficiency": "ratio",
    "harness.probe_trace_to_doc_ms": "ms",
    "cli.import_s": "s",
    "trace.overhead_ratio": "ratio",
    "error_rate": "ratio",
}


@dataclass(frozen=True)
class Sizes:
    """How much work one run does beyond its time window."""

    min_games: int = 1000      # p95 needs ten games beyond it; mean_fidelity uses these
    traced_games: int = 200
    cli_batch: int = 100
    setup_repeats: int = 7
    probe_repeats: int = 7
    probe_repeat_s: float = 0.02


FULL = Sizes()
SMOKE = Sizes(
    min_games=golden.GOLDEN_GAMES, traced_games=golden.GOLDEN_GAMES, cli_batch=10,
    setup_repeats=2, probe_repeats=2, probe_repeat_s=0.002,
)

# Runs in a fresh interpreter: import the package (as the CLI does), then
# validate the workload config.  Prints import seconds and total seconds.
SETUP_SNIPPET = """\
import sys, time
t0 = time.perf_counter()
import qgan_sim.cli
t1 = time.perf_counter()
from qgan_sim import harness
harness.load_experiment_file(sys.argv[1])
t2 = time.perf_counter()
print(t1 - t0, t2 - t0)
"""


# Equivalent to `python -m qgan_sim.cli ...`, plus a last stderr line with the
# CLI process's peak RSS.  VmHWM starts afresh at exec; ru_maxrss would carry
# the benchmark process's own peak over from the fork.
CLI_LAUNCHER = """\
import runpy, sys
sys.argv[0] = "qgan_sim.cli"
try:
    runpy.run_module("qgan_sim.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status", encoding="utf-8") as fh:
        hwm = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    sys.stderr.write(f"peak_rss_kb {hwm}\\n")
"""


# ---------------------------------------------------------------------------
# program loading and helpers
# ---------------------------------------------------------------------------

def load_program() -> SimpleNamespace:
    """Import qgan_sim from this checkout's src/, or exit non-zero."""
    if not (SRC / "qgan_sim" / "__init__.py").is_file():
        raise SystemExit(f"error: qgan_sim sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import qgan_sim
    from qgan_sim import bloch, cli, game, harness, noise, sampling

    if SRC not in Path(qgan_sim.__file__).resolve().parents:
        raise SystemExit(f"error: imported qgan_sim from {qgan_sim.__file__}, not {SRC}")
    return SimpleNamespace(
        bloch=bloch, noise=noise, sampling=sampling, game=game, harness=harness, cli=cli
    )


def with_seed(spec, seed: int):
    return replace(spec, game=replace(spec.game, seed=seed))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("QGAN_SIM_SEED", None)
    return env


def run_child(cmd: list[str]) -> tuple[int, str, str]:
    """Run a child in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return -signal.SIGKILL, "", f"timed out after {CHILD_TIMEOUT_S} s"
    return proc.returncode, out, err


def percentile(values, q: int) -> float:
    """q-th percentile (1..99) by statistics.quantiles' exclusive method."""
    return statistics.quantiles(values, n=100)[q - 1]


def machine_block() -> dict:
    model = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        model = next(
            (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
            model,
        )
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_start": list(os.getloadavg()),
    }


def measure_setup(cfg_path: Path, repeats: int) -> tuple[float, float]:
    """Median (import seconds, import + config validation seconds)."""
    imports, totals = [], []
    for _ in range(repeats):
        rc, out, err = run_child([sys.executable, "-c", SETUP_SNIPPET, str(cfg_path)])
        if rc != 0:
            raise RuntimeError(f"set-up child failed ({rc}): {err.strip()}")
        t_import, t_total = (float(x) for x in out.split())
        imports.append(t_import)
        totals.append(t_total)
    return statistics.median(imports), statistics.median(totals)


class Checker:
    """Collects per-game and per-run output checks for one benchmark run."""

    def __init__(self, workload: str, spec, seed: int) -> None:
        self.golden = (
            golden.load_golden()[workload] if seed == golden.GOLDEN_SEED else None
        )
        self.shots = None if spec.game.exact_mode else spec.game.shots
        self.c_limit = spec.game.c_limit
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _note(self, message: str) -> None:
        self.problems.append(message)
        if len(self.problems) <= 20:
            print(f"check failed: {message}", file=sys.stderr)

    def game(self, index: int, rec: dict) -> None:
        problems = golden.invariant_problems(rec, self.shots, self.c_limit)
        if self.golden is not None and index < len(self.golden):
            problems += golden.golden_problems(rec, self.golden[index])
        if problems:
            self.failed += 1
            self._note(f"game {index}: " + "; ".join(problems[:3]))

    def lost(self, games: int, message: str) -> None:
        """Games that produced no checkable output."""
        self.failed += games
        self._note(message)

    def expect(self, ok: bool, message: str) -> None:
        """A run-level check; a failure counts as one failed game."""
        if not ok:
            self.failed += 1
            self._note(message)

    @property
    def correct(self) -> bool:
        return not self.problems


# ---------------------------------------------------------------------------
# untraced runs: the end-to-end metrics
# ---------------------------------------------------------------------------

def play_in_process(q, spec, seed: int, seconds: float, sizes: Sizes, checker: Checker):
    """Closed loop of single-game run_batch calls for at least ``seconds``."""
    for k in range(2):  # warm-up, untimed
        q.harness.run_batch(with_seed(spec, seed + k), 1)
    times, fids = [], []
    t_start = time.perf_counter()
    k = 0
    while k < sizes.min_games or time.perf_counter() - t_start < seconds:
        game_spec = with_seed(spec, seed + k)
        checker.attempted += 1
        t0 = time.perf_counter()
        try:
            trace = q.harness.run_batch(game_spec, 1)[0]
        except Exception:
            checker.lost(1, f"game {k} raised:\n{traceback.format_exc()}")
        else:
            times.append(time.perf_counter() - t0)
            checker.game(k, golden.record_from_trace(trace))
            if k < sizes.min_games:
                fids.append(trace.final_fidelity)
        k += 1
    return times, fids


def cli_command(cfg_path: Path, out_dir: Path, seed: int, games: int) -> list[str]:
    return [
        sys.executable, "-c", CLI_LAUNCHER, "batch", "--config", str(cfg_path),
        "--out", str(out_dir), "--n", str(games), "--seed", str(seed),
        "--jobs", str(JOBS), "--emit-traces",
    ]


def replay_cli_batch(q, spec, batch_dir: Path, batch_seed: int, first: int,
                     times: list, checker: Checker) -> list[float]:
    """Check one CLI batch's files and replay it serially in-process.

    The replay gives this workload's per-game wall times and checks the
    README's serial == parallel contract on the summary and every trace.
    Returns the batch's final fidelities.
    """
    with open(batch_dir / "summary.json", encoding="utf-8") as fh:
        summary_doc = json.load(fh)
    docs = []
    for j in range(summary_doc["games"]):
        with open(batch_dir / "traces" / f"game_{j:04d}.json", encoding="utf-8") as fh:
            docs.append(json.load(fh))
        checker.game(first + j, golden.record_from_doc(docs[-1]))
    traces = []
    for j in range(len(docs)):
        game_spec = with_seed(spec, batch_seed + j)
        t0 = time.perf_counter()
        traces.append(q.harness.run_batch(game_spec, 1)[0])
        times.append(time.perf_counter() - t0)
    summary = q.harness.summarize_batch(traces, with_seed(spec, batch_seed))
    checker.expect(
        q.harness.summary_to_doc(summary) == summary_doc,
        f"{batch_dir.name}: summary.json differs from the serial replay",
    )
    checker.expect(
        [q.harness.trace_to_doc(t) for t in traces] == docs,
        f"{batch_dir.name}: trace files differ from the serial replay",
    )
    return [t.final_fidelity for t in traces]


def play_cli(q, spec, cfg_path: Path, out: Path, seed: int, seconds: float,
             sizes: Sizes, checker: Checker):
    """Closed loop of CLI batch calls, each followed by its in-process replay."""
    b = sizes.cli_batch
    cli_wall = 0.0
    peak_kb = 0
    times, fids = [], []
    t_start = time.perf_counter()
    index = 0
    while index * b < sizes.min_games or time.perf_counter() - t_start < seconds:
        batch_dir = out / f"batch_{index:03d}"
        batch_seed = seed + index * b
        checker.attempted += b
        t0 = time.perf_counter()
        rc, _, err = run_child(cli_command(cfg_path, batch_dir, batch_seed, b))
        cli_wall += time.perf_counter() - t0
        if rc != 0:
            checker.lost(b, f"{batch_dir.name}: CLI exited {rc}: {err.strip()[-400:]}")
        else:
            peak_kb = max(peak_kb, int(err.split()[-1]))
            fids += replay_cli_batch(q, spec, batch_dir, batch_seed, index * b, times, checker)
        if index > 0:  # keep the first batch's files for inspection
            shutil.rmtree(batch_dir)
        index += 1
    return checker.attempted / cli_wall, times, fids[: sizes.min_games], peak_kb


def run_untraced(q, workload: str, spec, cfg_path: Path, out: Path, seed: int,
                 seconds: float, sizes: Sizes, checker: Checker) -> dict:
    _, setup_s = measure_setup(cfg_path, sizes.setup_repeats)
    if workload == CLI_WORKLOAD:
        games_per_s, times, fids, peak_kb = play_cli(
            q, spec, cfg_path, out, seed, seconds, sizes, checker)
    else:
        times, fids = play_in_process(q, spec, seed, seconds, sizes, checker)
        games_per_s = len(times) / sum(times)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "games_per_s": games_per_s,
        "game_ms_p50": statistics.median(times) * 1e3,
        "game_ms_p95": percentile(times, 95) * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "mean_fidelity": float(np.mean(fids)),
    }


# ---------------------------------------------------------------------------
# traced run: the per-layer metrics
# ---------------------------------------------------------------------------

def install_spans(tracer: Tracer, q, counts: dict) -> None:
    """Wrap each layer's functions where the calling layer looks them up."""
    h, g, s, b = q.harness, q.game, q.sampling, q.bloch
    for attr in ("run_batch", "run_experiment", "summarize_batch", "trace_to_doc",
                 "write_json", "write_cdf_csv"):
        tracer.patch(h, attr, f"harness.{attr}")
    tracer.patch(h, "run_game", "game.run_game")
    tracer.patch(h, "random_true_state", "bloch.random_true_state")
    tracer.patch(g, "run_turn", "game.run_turn")

    def count_shots(est) -> None:
        counts["shots"] += 0 if est.shots is None else 2 * est.shots

    tracer.patch(g, "estimate_d", "sampling.estimate_d", on_result=count_shots)
    for attr in ("fidelity", "state_bloch", "random_initial_params"):
        tracer.patch(g, attr, f"bloch.{attr}")
    tracer.patch(s, "apply_noise", "noise.apply_noise")
    for attr in ("measurement_axis", "state_bloch", "outcome_probability", "pure_axis"):
        tracer.patch(s, attr, f"bloch.{attr}")
    tracer.patch(b.DensityMatrix, "to_bloch", "bloch.to_bloch")
    tracer.patch(b.DensityMatrix, "from_bloch", "bloch.from_bloch")
    tracer.count(b.BlochVector, "__post_init__", "bloch.vector_validations")


def time_per_call(fn, repeats: int, repeat_s: float) -> float:
    """Median seconds per call over ``repeats`` loops of about ``repeat_s`` each."""
    fn()
    calls, t0 = 0, time.perf_counter()
    while time.perf_counter() - t0 < repeat_s:
        fn()
        calls += 1
    calls = max(calls, 1)
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - t0) / calls)
    return statistics.median(samples)


def layer_probes(q, sizes: Sizes) -> dict:
    """Single-layer timings at fixed inputs, independent of the workload seed."""
    b, s, n, h = q.bloch, q.sampling, q.noise, q.harness
    gen = b.GeneratorParams(0.8, 0.7, 1.3)
    meas = b.MeasurementParams(0.4, 2.1)
    sigma = b.DensityMatrix.pure_ground()
    preset = n.NoiseSettings.decoherence_preset()
    rng = np.random.default_rng(0)
    v = b.state_bloch(gen)
    mixed = b.DensityMatrix.from_bloch(b.BlochVector(0.3, -0.2, 0.5))
    generated = b.DensityMatrix.from_bloch(v)
    trace = h.run_experiment(h.load_experiment(dict(WORKLOADS["pure-shot"], seed=0)))
    probes = {
        "sampling.probe_us.exact": lambda: s.estimate_d(gen, meas, sigma, None),
        "sampling.probe_us.shot": lambda: s.estimate_d(gen, meas, sigma, 5000, rng=rng),
        "sampling.probe_us.noisy": lambda: s.estimate_d(
            gen, meas, sigma, 5000, noise=preset, rng=rng),
        "sampling.probe_us.branchwise": lambda: s.estimate_d(
            gen, meas, sigma, 5000, rng=rng, branchwise=True),
        "noise.probe_us": lambda: n.apply_noise(preset, v, "generated"),
        "bloch.probe_fidelity_us": lambda: b.fidelity(mixed, generated),
    }
    out = {
        name: time_per_call(fn, sizes.probe_repeats, sizes.probe_repeat_s) * 1e6
        for name, fn in probes.items()
    }
    out["harness.probe_trace_to_doc_ms"] = time_per_call(
        lambda: h.trace_to_doc(trace), sizes.probe_repeats, sizes.probe_repeat_s) * 1e3
    return out


def run_traced(q, spec, cfg_path: Path, out: Path, seed: int, sizes: Sizes,
               checker: Checker) -> dict:
    """Untraced serial and pooled passes, then a traced cmd_batch replay, on
    the same games seed .. seed + traced_games - 1."""
    import_s, _ = measure_setup(cfg_path, sizes.setup_repeats)
    n_games = sizes.traced_games
    batch_spec = with_seed(spec, seed)
    q.harness.run_batch(batch_spec, 2)  # warm-up, untimed

    t0 = time.perf_counter()
    serial = q.harness.run_batch(batch_spec, n_games, jobs=1)
    serial_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    pooled = q.harness.run_batch(batch_spec, n_games, jobs=JOBS)
    pooled_s = time.perf_counter() - t0
    checker.attempted = n_games
    checker.expect(pooled == serial, f"run_batch with --jobs {JOBS} differs from serial")
    del pooled
    for k, trace in enumerate(serial):
        checker.game(k, golden.record_from_trace(trace))

    # Replay exactly what `qgan-sim batch --emit-traces` does, in-process and
    # serially, so the game layers below run_batch are traced too.
    traced_dir = out / "traced"
    args = argparse.Namespace(
        config=str(cfg_path), out=str(traced_dir), seed=seed, n=n_games, jobs=1,
        emit_traces=True,
    )
    counts = {"shots": 0}
    with Tracer() as tracer:
        install_spans(tracer, q, counts)
        with contextlib.redirect_stdout(sys.stderr):
            q.cli.cmd_batch(args)
    table = tracer.table()
    table.save(out / "spans.npz")
    validations = tracer.counters["bloch.vector_validations"][0]

    trace_files = [traced_dir / "traces" / f"game_{k:04d}.json" for k in range(n_games)]
    docs = []
    for path in trace_files:
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    checker.expect(
        docs == [q.harness.trace_to_doc(t) for t in serial],
        "traced replay wrote traces that differ from the untraced run",
    )

    estimates = table.count("sampling.estimate_d")
    steps = sum(len(t.steps) for t in serial)
    expected_estimates = sum(
        2 * (3 if rec.turn == q.game.G_TURN else 2) + 1 for t in serial for rec in t.steps
    )
    checker.expect(
        estimates == expected_estimates,
        f"estimate_d wrapper counted {estimates}, traces imply {expected_estimates}",
    )
    consumed = sum(q.game.shots_consumed(t) for t in serial)
    checker.expect(
        counts["shots"] == consumed,
        f"estimate_d wrapper counted {counts['shots']} shots, shots_consumed {consumed}",
    )
    if not spec.game.exact_mode:
        checker.expect(
            counts["shots"] == estimates * 2 * spec.game.shots,
            "shot count != estimates * 2 * shots",
        )
    checker.expect(table.count("game.run_game") == n_games, "run_game span count != games")
    checker.expect(table.count("harness.run_batch") == 1, "run_batch span count != 1")

    run_game_s = table.total("game.run_game")
    traced_s = table.total("harness.run_batch")
    estimate_s = table.total("sampling.estimate_d")
    bloch_in_estimate = table.layer_mask("bloch") & table.parent_is("sampling.estimate_d")
    metrics = {
        "bloch.calls": int(table.layer_mask("bloch").sum()),
        "bloch.vector_validations": validations,
        "bloch.self_us_per_estimate": table.self_total(bloch_in_estimate) / estimates * 1e6,
        "bloch.fidelity_us": float(table.durations("bloch.fidelity").mean()) * 1e6,
        "noise.apply_calls": table.count("noise.apply_noise"),
        "noise.self_us_per_call":
            table.self_total(table.mask("noise.apply_noise"))
            / table.count("noise.apply_noise") * 1e6,
        "sampling.estimates": estimates,
        "sampling.shots": counts["shots"],
        "sampling.estimate_us_p50":
            float(np.median(table.durations("sampling.estimate_d"))) * 1e6,
        "sampling.self_us_per_estimate":
            table.self_total(table.mask("sampling.estimate_d")) / estimates * 1e6,
        "sampling.share_of_game": estimate_s / run_game_s,
        "game.turns": table.count("game.run_turn"),
        "game.steps": steps,
        "game.c_step_mean": float(np.mean([t.c_step_total for t in serial])),
        "game.estimates_per_step": estimates / steps,
        "game.self_ms_per_game": table.self_total(table.layer_mask("game")) / n_games * 1e3,
        "harness.trace_to_doc_ms": float(table.durations("harness.trace_to_doc").mean()) * 1e3,
        "harness.write_json_ms": float(table.durations("harness.write_json").mean()) * 1e3,
        "harness.trace_bytes": sum(p.stat().st_size for p in trace_files),
        "harness.summarize_ms": table.total("harness.summarize_batch") * 1e3,
        "harness.pool_efficiency": serial_s / (JOBS * pooled_s),
        "cli.import_s": import_s,
        "trace.overhead_ratio": serial_s / traced_s,
    }
    metrics.update(layer_probes(q, sizes))
    return metrics


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def run_workload(q, workload: str, seed: int, seconds: float, trace: bool,
                 sizes: Sizes) -> tuple[dict, dict]:
    out = OUT / workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    doc = dict(WORKLOADS[workload], seed=seed)
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(doc), encoding="utf-8")
    spec = q.harness.load_experiment(doc)
    machine = machine_block()
    checker = Checker(workload, spec, seed)
    if trace:
        values = run_traced(q, spec, cfg_path, out, seed, sizes, checker)
        values["error_rate"] = checker.failed / checker.attempted
        units = PER_LAYER_UNITS
    else:
        values = run_untraced(q, workload, spec, cfg_path, out, seed, seconds, sizes, checker)
        units = END_TO_END_UNITS
    machine["loadavg_end"] = list(os.getloadavg())
    for name, value in values.items():
        checker.expect(math.isfinite(value), f"metric {name} is not finite: {value!r}")
    result = {
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": min(checker.failed, checker.attempted),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = dict(result, workload=workload, seed=seed, trace=trace, machine=machine,
                  problems=checker.problems)
    (out / f"result_trace{int(trace)}.json").write_text(json.dumps(record, indent=2) + "\n")
    return result, machine


def print_result(result: dict, machine: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:>14.6g} {m['unit']}")
    print("machine " + json.dumps(machine))
    print(json.dumps(result))


def smoke(q) -> int:
    """Play a few games per workload, traced and untraced, at the golden seed;
    require every metric named in BENCHMARK.json with its unit."""
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    ok = {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    for workload in WORKLOADS:
        for trace in (False, True):
            result, _ = run_workload(q, workload, golden.GOLDEN_SEED, 0.0, trace, SMOKE)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            passed = result["correct"] and result["failed"] == 0 and got == wanted[trace]
            ok &= passed
            print(f"smoke {workload} trace={int(trace)}: "
                  f"{'ok' if passed else 'FAILED'} ({result['attempted']} games)")
    print("smoke ok" if ok else "smoke FAILED")
    return 0 if ok else 1


def write_golden(q) -> int:
    """Record the first GOLDEN_GAMES games of every workload at the golden seed."""
    entries = {}
    for workload, doc in WORKLOADS.items():
        spec = q.harness.load_experiment(dict(doc, seed=golden.GOLDEN_SEED))
        traces = q.harness.run_batch(spec, golden.GOLDEN_GAMES)
        entries[workload] = [golden.golden_entry(golden.record_from_trace(t)) for t in traces]
    golden.write_golden(entries)
    print(f"wrote {golden.GOLDEN_PATH}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=golden.GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    q = load_program()
    if args.write_golden:
        return write_golden(q)
    if args.smoke:
        return smoke(q)
    if args.workload is None:
        parser.error("--workload is required")
    result, machine = run_workload(
        q, args.workload, args.seed, args.seconds, bool(args.trace), FULL)
    print_result(result, machine)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
