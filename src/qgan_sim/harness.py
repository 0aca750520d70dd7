"""Experiment harness: config ingestion, runners, statistics, file emission.

Config files are single JSON documents with one field per game parameter
plus the true-state specification; see README for the schema.  Emitted
artifacts are a JSON result document per game (full trace, re-parses to an
equal in-memory value), a JSON batch summary, and plain CSVs: '.' decimal,
',' separator, LF line endings, one header row, floats at 9 significant
digits.
"""

from __future__ import annotations

import json
import math
import os
import shutil
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from types import FunctionType
from typing import get_type_hints

import numpy as np

from .bloch import (
    _BALL_TOL,
    DensityMatrix,
    GeneratorParams,
    MeasurementParams,
    SIGMA_MODES,
    measurement_axis,
    random_true_state,
    state_bloch,
)
from .game import (
    PARAM_NAMES,
    GameConfig,
    GameTrace,
    StepRecord,
    run_game,
)
from .noise import NoiseSettings
from .sampling import OutcomeEstimate

__all__ = [
    "ConfigError",
    "SigmaSpec",
    "ExperimentSpec",
    "load_experiment",
    "resolve_seed",
    "run_experiment",
    "run_batch",
    "BatchSummary",
    "trace_to_doc",
    "trace_from_doc",
    "summary_to_doc",
    "summary_from_doc",
    "write_json",
    "write_trajectory_csv",
    "write_tracking_csv",
    "write_snapshots_csv",
    "write_cdf_csv",
    "TRAJECTORY_HEADER",
    "TRACKING_HEADER",
    "SNAPSHOTS_HEADER",
    "CDF_HEADER",
    "RESULT_SCHEMA",
    "SUMMARY_SCHEMA",
    "SEED_ENV_VAR",
]

RESULT_SCHEMA = "qgan-sim/result/v1"
SUMMARY_SCHEMA = "qgan-sim/summary/v1"
SEED_ENV_VAR = "QGAN_SIM_SEED"

TRAJECTORY_HEADER = "step,round,turn,r,theta,phi,beta,gamma,p_rho_hat,p_sigma_hat,d_hat,fidelity_ideal"
TRACKING_HEADER = "step,p_sigma_hat,p_rho_hat,d_hat,fidelity"
SNAPSHOTS_HEADER = "step,rho_x,rho_y,rho_z,sigma_x,sigma_y,sigma_z,m_x,m_y,m_z"
CDF_HEADER = "value,cumulative_probability"


class ConfigError(ValueError):
    """Config validation failure; carries the offending field name."""

    def __init__(self, field_name: str, message: str) -> None:
        super().__init__(f"{field_name}: {message}")
        self.field_name = field_name


@dataclass(frozen=True)
class SigmaSpec:
    """How the true-data state is produced at game start."""

    mode: str = "pure-ground"
    bloch: tuple[float, float, float] | None = None

    def resolve(self, rng: np.random.Generator) -> DensityMatrix:
        return random_true_state(self.mode, rng, bloch=self.bloch)


@dataclass(frozen=True)
class ExperimentSpec:
    """One fully resolved experiment: game config, true state, optional
    fixed initial strategies."""

    game: GameConfig
    sigma: SigmaSpec = SigmaSpec()
    initial: tuple[GeneratorParams, MeasurementParams] | None = None


def _coerce(field_name: str, value, kind):
    if kind is bool:
        if not isinstance(value, bool):
            raise ConfigError(field_name, f"expected a boolean, got {value!r}")
        return value
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(field_name, f"expected an integer, got {value!r}")
        return value
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(field_name, f"expected a number, got {value!r}")
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the double range
            number = math.inf
        if not math.isfinite(number):
            raise ConfigError(field_name, f"expected a finite number, got {value!r}")
        return number
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(field_name, f"expected a string, got {value!r}")
        return value
    if isinstance(kind, FunctionType):  # the parser of a nested block
        return kind(field_name, value)
    raise AssertionError(kind)


def _fields(where: str, doc, kinds: dict) -> dict:
    """The fields of config block ``where`` ("" for the top level), coerced to
    their ``kinds``: the block must be an object with no other field, and a
    null field counts as omitted."""
    if not isinstance(doc, dict):
        what = "an object" if where else "a JSON object"
        raise ConfigError(where or "config", f"expected {what}, got {doc!r}")
    prefix = f"{where}." if where else ""
    unknown = set(doc) - set(kinds)
    if unknown:
        raise ConfigError(prefix + sorted(unknown)[0], "unknown field")
    return {
        name: _coerce(prefix + name, doc[name], kind)
        for name, kind in kinds.items() if doc.get(name) is not None
    }


def _parse_sigma(where: str, doc) -> SigmaSpec:
    # bloch passes through as it is: what it must be depends on the mode.
    block = _fields(where, doc, {"mode": str, "bloch": lambda where, raw: raw})
    mode = block.get("mode", SigmaSpec.mode)
    if mode not in SIGMA_MODES:
        raise ConfigError(f"{where}.mode", f"expected one of {SIGMA_MODES}, got {mode!r}")
    raw = block.get("bloch")
    if mode != "fixed":
        if raw is not None:
            raise ConfigError(f"{where}.bloch", f"only valid with mode 'fixed', not {mode!r}")
        return SigmaSpec(mode)
    if not isinstance(raw, (list, tuple)) or len(raw) != 3:
        raise ConfigError(f"{where}.bloch", "fixed mode needs a 3-component Bloch vector")
    bloch = tuple(_coerce(f"{where}.bloch[{i}]", c, float) for i, c in enumerate(raw))
    if sum(c * c for c in bloch) > 1.0 + _BALL_TOL:
        raise ConfigError(f"{where}.bloch", f"vector lies outside the unit ball: {list(bloch)}")
    return SigmaSpec(mode, bloch)


def _parse_initial(where: str, doc) -> tuple[GeneratorParams, MeasurementParams]:
    block = _fields(where, doc, dict.fromkeys(PARAM_NAMES, float))
    missing = [name for name in PARAM_NAMES if name not in block]
    if missing:
        raise ConfigError(f"{where}.{missing[0]}", "required when initial is given")
    r, theta, phi, beta, gamma = (block[name] for name in PARAM_NAMES)
    return _build(f"{where}.r", GeneratorParams, r, theta, phi), MeasurementParams(beta, gamma)


def _parse_noise(where: str, doc) -> NoiseSettings:
    return _build(where, NoiseSettings, **_fields(where, doc, get_type_hints(NoiseSettings)))


def _build(where: str, cls, *args, **kwargs):
    """``cls(*args, **kwargs)``; a ValueError from its checks names ``where``."""
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(where, str(exc)) from exc


# Top-level kinds: GameConfig's annotated scalars, and a parser per nested block.
_CONFIG_KINDS = {
    **get_type_hints(GameConfig),
    "noise": _parse_noise,
    "sigma": _parse_sigma,
    "initial": _parse_initial,
}


def resolve_seed(cli_seed: int | None, config_seed: int | None, env=os.environ) -> int:
    """Seed precedence: CLI flag, then config field, then the environment
    variable, then 0."""
    if cli_seed is not None:
        return cli_seed
    if config_seed is not None:
        return config_seed
    raw = env.get(SEED_ENV_VAR)
    if raw is not None:
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(SEED_ENV_VAR, f"expected an integer, got {raw!r}") from exc
    return 0


def load_experiment(doc: dict, seed_override: int | None = None, env=os.environ) -> ExperimentSpec:
    """Validate a config document into an ExperimentSpec.

    Raises ConfigError naming the offending field.  Unknown fields are
    rejected so typos fail loudly.
    """
    kwargs = _fields("", doc, _CONFIG_KINDS)
    blocks = {name: kwargs.pop(name) for name in ("sigma", "initial") if name in kwargs}
    kwargs["seed"] = resolve_seed(seed_override, kwargs.get("seed"), env)
    return ExperimentSpec(game=_build("config", GameConfig, **kwargs), **blocks)


def load_experiment_file(path: str | Path, seed_override: int | None = None) -> ExperimentSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON in {path}: {exc}") from exc
    return load_experiment(doc, seed_override=seed_override)


def run_experiment(spec: ExperimentSpec) -> GameTrace:
    """Resolve the true state and play one game on a single seeded stream."""
    rng = np.random.default_rng(spec.game.seed)
    sigma = spec.sigma.resolve(rng)
    return run_game(sigma, spec.game, rng=rng, initial=spec.initial)


def _indexed_spec(spec: ExperimentSpec, index: int) -> ExperimentSpec:
    return replace(spec, game=replace(spec.game, seed=spec.game.seed + index))


def run_batch(spec: ExperimentSpec, count: int, jobs: int = 1) -> list[GameTrace]:
    """Play ``count`` games at seeds seed, seed+1, ..., seed+count-1.

    Results are ordered by game index whatever the execution order, so
    parallel runs reproduce serial ones exactly.  At most
    ``min(jobs, count, cpu count)`` worker processes are started.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    specs = [_indexed_spec(spec, k) for k in range(count)]
    workers = min(jobs, count, os.cpu_count() or 1)
    if workers == 1:
        return [run_experiment(s) for s in specs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_experiment, specs))


@dataclass
class BatchSummary:
    """Aggregate statistics over a batch of games."""

    games: int
    mean_c_step: float
    mean_fidelity: float
    cdf_c_step: list[tuple[float, float]]
    cdf_fidelity: list[tuple[float, float]]
    termination_counts: dict[str, int]
    config_echo: dict


def _empirical_cdf(values) -> list[tuple[float, float]]:
    n = len(values)
    return [(float(v), (i + 1) / n) for i, v in enumerate(sorted(values))]


def summarize_batch(traces: list[GameTrace], spec: ExperimentSpec) -> BatchSummary:
    if not traces:
        raise ValueError("no traces to summarize")
    c_steps = [t.c_step_total for t in traces]
    fids = [t.final_fidelity for t in traces]
    counts: dict[str, int] = {}
    for t in traces:
        counts[t.termination] = counts.get(t.termination, 0) + 1
    return BatchSummary(
        games=len(traces),
        mean_c_step=float(np.mean(c_steps)),
        mean_fidelity=float(np.mean(fids)),
        cdf_c_step=_empirical_cdf(c_steps),
        cdf_fidelity=_empirical_cdf(fids),
        termination_counts=counts,
        config_echo=spec_to_doc(spec),
    )


# --------------------------------------------------------------------------
# JSON documents
# --------------------------------------------------------------------------

def _complex_pairs(m: np.ndarray) -> list:
    return [[[float(c.real), float(c.imag)] for c in row] for row in m]


def spec_to_doc(spec: ExperimentSpec) -> dict:
    doc = asdict(spec.game)
    doc["sigma"] = {"mode": spec.sigma.mode}
    if spec.sigma.bloch is not None:
        doc["sigma"]["bloch"] = list(spec.sigma.bloch)
    if spec.initial is not None:
        gen, meas = spec.initial
        doc["initial"] = dict(zip(PARAM_NAMES, (*gen, *meas)))
    return doc


def _estimate_to_doc(est: OutcomeEstimate) -> dict:
    return {
        "p_rho_hat": est.p_rho_hat,
        "p_sigma_hat": est.p_sigma_hat,
        "d_hat": est.d_hat,
        "shots": est.shots,
    }


def trace_to_doc(trace: GameTrace) -> dict:
    """Full-precision JSON document for one game; reparses to an equal trace."""
    sigma_bloch = trace.sigma.to_bloch()
    return {
        "schema": RESULT_SCHEMA,
        "config": asdict(trace.config),
        "sigma": {
            "matrix": _complex_pairs(trace.sigma.matrix),
            "bloch": [sigma_bloch.x, sigma_bloch.y, sigma_bloch.z],
        },
        "termination": trace.termination,
        "c_step_total": trace.c_step_total,
        "final_fidelity": trace.final_fidelity,
        "steps": [
            {
                "step_index": rec.step_index,
                "round_index": rec.round_index,
                "turn": rec.turn,
                "params_after": list(rec.params_after),
                "estimate": _estimate_to_doc(rec.estimate),
                "fidelity_ideal": rec.fidelity_ideal,
            }
            for rec in trace.steps
        ],
    }


@contextmanager
def _reading(kind: str, schema: str, doc):
    """Check ``doc`` is a ``schema`` document; inside the block, a missing key
    raises ValueError naming it."""
    if not isinstance(doc, dict):
        raise ValueError(f"{kind} document is not a JSON object")
    if doc.get("schema") != schema:
        raise ValueError(f"unexpected {kind} schema {doc.get('schema')!r}")
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{kind} document has no {exc.args[0]!r} key") from exc


def _shaped(value, key: str, kind: type, length: int | None = None):
    """``value``, read from ``key``; raises ValueError naming the key unless it
    is a JSON array (``kind=list``, of ``length`` items if given) or object."""
    if not isinstance(value, kind) or (length is not None and len(value) != length):
        what = "an object" if kind is dict else "an array"
        raise ValueError(f"{key!r} is not {what}" + (f" of {length} items" if length else ""))
    return value


def _pairs(value, key: str) -> list[tuple]:
    items = _shaped(value, key, list)
    return [tuple(_shaped(p, f"{key}[{i}]", list, 2)) for i, p in enumerate(items)]


def _sigma_from_doc(block) -> DensityMatrix:
    rows = _shaped(_shaped(block, "sigma", dict)["matrix"], "sigma.matrix", list)
    pairs = [_pairs(row, f"sigma.matrix[{i}]") for i, row in enumerate(rows)]
    return DensityMatrix(np.array([[complex(re, im) for re, im in row] for row in pairs]))


def _step_from_doc(key: str, rec) -> StepRecord:
    rec = _shaped(rec, key, dict)
    estimate = _shaped(rec["estimate"], f"{key}.estimate", dict)
    return StepRecord(
        step_index=rec["step_index"],
        round_index=rec["round_index"],
        turn=rec["turn"],
        params_after=tuple(
            _shaped(rec["params_after"], f"{key}.params_after", list, len(PARAM_NAMES))
        ),
        estimate=OutcomeEstimate(*(estimate[f.name] for f in fields(OutcomeEstimate))),
        fidelity_ideal=rec["fidelity_ideal"],
    )


def trace_from_doc(doc: dict) -> GameTrace:
    with _reading("result", RESULT_SCHEMA, doc):
        records = _shaped(doc["steps"], "steps", list)
        steps = [_step_from_doc(f"steps[{i}]", rec) for i, rec in enumerate(records)]
        return GameTrace(
            config=load_experiment(doc["config"], env={}).game,
            sigma=_sigma_from_doc(doc["sigma"]),
            steps=steps,
            termination=doc["termination"],
            c_step_total=doc["c_step_total"],
            final_fidelity=doc["final_fidelity"],
        )


def summary_to_doc(summary: BatchSummary) -> dict:
    return {
        "schema": SUMMARY_SCHEMA,
        "games": summary.games,
        "mean_c_step": summary.mean_c_step,
        "mean_fidelity": summary.mean_fidelity,
        "cdf_c_step": [[v, p] for v, p in summary.cdf_c_step],
        "cdf_fidelity": [[v, p] for v, p in summary.cdf_fidelity],
        "termination_counts": summary.termination_counts,
        "config_echo": summary.config_echo,
    }


def summary_from_doc(doc: dict) -> BatchSummary:
    with _reading("summary", SUMMARY_SCHEMA, doc):
        return BatchSummary(
            games=doc["games"],
            mean_c_step=doc["mean_c_step"],
            mean_fidelity=doc["mean_fidelity"],
            cdf_c_step=_pairs(doc["cdf_c_step"], "cdf_c_step"),
            cdf_fidelity=_pairs(doc["cdf_fidelity"], "cdf_fidelity"),
            termination_counts=_shaped(doc["termination_counts"], "termination_counts", dict),
            config_echo=doc["config_echo"],
        )


def _write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path``.  A new or regular file is replaced whole:
    the text goes to a sibling temp file, which takes the old file's mode and
    is renamed onto ``path``, so ``path`` holds either its old content or all
    of ``text``.  A symlink is written through, as a plain open would; a
    FIFO or a device (/dev/stdout) cannot be replaced and is written to."""
    path = Path(path)
    if path.exists() and not path.is_file():
        tmp = path  # nothing can be renamed onto a FIFO or a device
    else:
        path = path.resolve()
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        if tmp != path:
            if path.exists():
                shutil.copymode(path, tmp)
            os.replace(tmp, path)
    except BaseException:
        if tmp != path:
            tmp.unlink(missing_ok=True)
        raise


def write_json(doc: dict, path: str | Path) -> None:
    _write_text(path, json.dumps(doc, indent=2, allow_nan=False) + "\n")


# --------------------------------------------------------------------------
# CSV emission
# --------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def _write_csv(path: str | Path, header: str, rows) -> None:
    _write_text(path, header + "\n" + "".join(",".join(row) + "\n" for row in rows))


def write_trajectory_csv(trace: GameTrace, path: str | Path) -> None:
    """Per-step dump of parameters and estimates for one game."""
    rows = (
        [
            str(rec.step_index),
            str(rec.round_index),
            rec.turn,
            *(_fmt(p) for p in rec.params_after),
            _fmt(rec.estimate.p_rho_hat),
            _fmt(rec.estimate.p_sigma_hat),
            _fmt(rec.estimate.d_hat),
            _fmt(rec.fidelity_ideal),
        ]
        for rec in trace.steps
    )
    _write_csv(path, TRAJECTORY_HEADER, rows)


def write_tracking_csv(trace: GameTrace, path: str | Path) -> None:
    """The tracked observables (p_sigma, p_rho, d, F) against step count."""
    rows = (
        [
            str(rec.step_index),
            _fmt(rec.estimate.p_sigma_hat),
            _fmt(rec.estimate.p_rho_hat),
            _fmt(rec.estimate.d_hat),
            _fmt(rec.fidelity_ideal),
        ]
        for rec in trace.steps
    )
    _write_csv(path, TRACKING_HEADER, rows)


def write_snapshots_csv(
    trace: GameTrace, path: str | Path, steps: list[int] | None = None
) -> None:
    """Bloch vectors of generated state, true state and measurement axis.

    ``steps`` selects step indices to snapshot (all by default); unknown
    indices are rejected.
    """
    by_index = {rec.step_index: rec for rec in trace.steps}
    if steps is None:
        selected = list(trace.steps)
    else:
        missing = [s for s in steps if s not in by_index]
        if missing:
            raise ValueError(f"no step with index {missing[0]} in the trace")
        selected = [by_index[s] for s in steps]
    v_sigma = trace.sigma.to_bloch()
    rows = []
    for rec in selected:
        r, theta, phi, beta, gamma = rec.params_after
        v_rho = state_bloch(GeneratorParams(r, theta, phi))
        m = measurement_axis(MeasurementParams(beta, gamma))
        rows.append(
            [
                str(rec.step_index),
                _fmt(v_rho.x), _fmt(v_rho.y), _fmt(v_rho.z),
                _fmt(v_sigma.x), _fmt(v_sigma.y), _fmt(v_sigma.z),
                _fmt(m.x), _fmt(m.y), _fmt(m.z),
            ]
        )
    _write_csv(path, SNAPSHOTS_HEADER, rows)


def write_cdf_csv(pairs: list[tuple[float, float]], path: str | Path) -> None:
    """Empirical CDF pairs (value, cumulative probability)."""
    rows = ([_fmt(v), _fmt(p)] for v, p in pairs)
    _write_csv(path, CDF_HEADER, rows)
