"""Command-line front end: run one game, run a batch, extract plot data.

Exit codes: 0 on success, 2 on config/usage errors, 3 on I/O failures.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import harness


def _load_spec(args) -> harness.ExperimentSpec:
    return harness.load_experiment_file(args.config, seed_override=args.seed)


def cmd_run(args) -> int:
    spec = _load_spec(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    trace = harness.run_experiment(spec)
    harness.write_trajectory_csv(trace, out / "trajectory.csv")
    harness.write_json(harness.trace_to_doc(trace), out / "result.json")
    print(
        f"c_step={trace.c_step_total} F={trace.final_fidelity:.6f} "
        f"termination={trace.termination}"
    )
    return 0


def cmd_batch(args) -> int:
    spec = _load_spec(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # --out describes one batch: the files an earlier batch wrote there go
    # before any game is played.
    stale = [out / name for name in ("summary.json", "cdf_c_step.csv", "cdf_fidelity.csv")]
    for path in (out / "traces").glob("game_*.json"):
        index = path.stem[len("game_"):]
        if index.isdecimal() and path.name == harness.TRACE_NAME.format(int(index)):
            stale.append(path)
    for path in stale:
        if path.is_file():
            path.unlink()
    traces_dir = None
    if args.emit_traces:
        traces_dir = out / "traces"
        traces_dir.mkdir(exist_ok=True)
    # Each game's trace is written where it is played; the summary comes last,
    # so a batch that fails to write a trace writes no summary.
    outcomes = harness.run_batch(spec, args.n, jobs=args.jobs, traces_dir=traces_dir)
    summary = harness.summarize_batch(outcomes, spec)
    harness.write_json(harness.summary_to_doc(summary), out / "summary.json")
    harness.write_cdf_csv(summary.cdf_c_step, out / "cdf_c_step.csv")
    harness.write_cdf_csv(summary.cdf_fidelity, out / "cdf_fidelity.csv")
    print(
        f"games={summary.games} mean_c_step={summary.mean_c_step:.2f} "
        f"mean_F={summary.mean_fidelity:.6f} "
        f"equilibrium={summary.termination_counts.get('equilibrium', 0)}"
    )
    return 0


def _parse_steps(raw: str | None) -> list[int] | None:
    if raw is None:
        return None
    try:
        steps = [int(part) for part in raw.split(",") if part.strip()]
        if steps:
            return steps
    except ValueError:
        pass
    raise harness.ConfigError("--steps", f"expected comma-separated integers, got {raw!r}")


def cmd_plot_data(args) -> int:
    doc = harness.read_json(args.infile, "--in")
    if args.kind in ("tracking", "bloch-snapshots"):
        trace = harness.trace_from_doc(doc)
        if args.kind == "tracking":
            harness.write_tracking_csv(trace, args.out)
        else:
            harness.write_snapshots_csv(trace, args.out, steps=_parse_steps(args.steps))
    else:  # cdf
        summary = harness.summary_from_doc(doc)
        pairs = summary.cdf_c_step if args.metric == "c_step" else summary.cdf_fidelity
        harness.write_cdf_csv(pairs, args.out)
    return 0


def _integer(low: int, kind: str):
    """An argparse type accepting integers >= ``low``; a rejection names the flag."""

    def parse(raw: str) -> int:
        try:
            if int(raw) >= low:
                return int(raw)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {raw!r}")

    return parse


_seed = _integer(0, "non-negative")
_count = _integer(1, "positive")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgan-sim",
        description="Simulate the single-qubit adversarial state-learning game.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="play one game and record its trajectory")
    run.set_defaults(func=cmd_run)
    batch = sub.add_parser("batch", help="play N seeded games and summarize")
    batch.set_defaults(func=cmd_batch)
    for command in (run, batch):
        command.add_argument("--config", required=True, help="JSON config file")
        command.add_argument("--out", required=True, help="output directory")
        command.add_argument("--seed", type=_seed, default=None, help="seed override")
    batch.add_argument("--n", type=_count, required=True, help="number of games")
    batch.add_argument("--jobs", type=_count, default=1, help="parallel workers")
    batch.add_argument(
        "--emit-traces", action="store_true", help="also write per-game result JSONs"
    )

    plot = sub.add_parser("plot-data", help="extract plain-CSV plot data")
    plot.add_argument(
        "--kind", required=True, choices=("tracking", "bloch-snapshots", "cdf")
    )
    plot.add_argument("--in", dest="infile", required=True, help="result or summary JSON")
    plot.add_argument("--out", required=True, help="output CSV path")
    plot.add_argument(
        "--steps", default=None, help="comma-separated step indices for bloch-snapshots"
    )
    plot.add_argument(
        "--metric", choices=("c_step", "fidelity"), default="fidelity",
        help="which batch CDF to emit for --kind cdf",
    )
    plot.set_defaults(func=cmd_plot_data)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except harness.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
