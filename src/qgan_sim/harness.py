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
import os
import shutil
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from functools import cache
from itertools import groupby
from pathlib import Path
from types import FunctionType, UnionType
from typing import Annotated, Literal, get_args, get_origin, get_type_hints

import numpy as np

from .bloch import (
    _BALL_TOL, SIGMA_MODES, ConfigError, Count, DensityMatrix, Unit, axis_xyz, check,
    random_true_state, state_xyz,
)
from .game import (
    D_TURN, PARAM_NAMES, TERMINATION_BUDGET, GameConfig, GameTrace, Params, Termination, run_game,
)

__all__ = [
    "ConfigError",
    "SigmaSpec",
    "ExperimentSpec",
    "load_experiment",
    "resolve_seed",
    "run_experiment",
    "run_batch",
    "GameOutcome",
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
# The file name of game k's result document in a batch: TRACE_NAME.format(k).
TRACE_NAME = "game_{:04d}.json"

TRAJECTORY_HEADER = "step,round,turn,r,theta,phi,beta,gamma,p_rho_hat,p_sigma_hat,d_hat,fidelity_ideal"
TRACKING_HEADER = "step,p_sigma_hat,p_rho_hat,d_hat,fidelity"
SNAPSHOTS_HEADER = "step,rho_x,rho_y,rho_z,sigma_x,sigma_y,sigma_z,m_x,m_y,m_z"
CDF_HEADER = "value,cumulative_probability"


@dataclass(frozen=True)
class SigmaSpec:
    """How the true-data state is produced at game start: ``bloch`` is the
    vector of mode ``"fixed"``, stored as a tuple of floats, and of no other."""

    mode: Literal[SIGMA_MODES] = "pure-ground"
    bloch: tuple[float, float, float] | None = None

    def __post_init__(self) -> None:
        check("mode", self.mode, Literal[SIGMA_MODES])
        if self.mode != "fixed":
            if self.bloch is not None:
                raise ConfigError("bloch", f"only valid with mode 'fixed', not {self.mode!r}")
            return
        if not isinstance(self.bloch, (list, tuple)) or len(self.bloch) != 3:
            raise ConfigError("bloch", "fixed mode needs a 3-component Bloch vector")
        bloch = tuple(check(f"bloch[{i}]", c, float) for i, c in enumerate(self.bloch))
        if sum(c * c for c in bloch) > 1.0 + _BALL_TOL:
            raise ConfigError("bloch", f"vector lies outside the unit ball: {list(bloch)}")
        vars(self)["bloch"] = bloch  # frozen: stored past __setattr__

    def resolve(self, rng: np.random.Generator) -> DensityMatrix:
        return random_true_state(self.mode, rng, bloch=self.bloch)


@dataclass(frozen=True)
class ExperimentSpec:
    """One fully resolved experiment: game config, true state, optional
    fixed opening (r, theta, phi, beta, gamma)."""

    game: GameConfig
    sigma: SigmaSpec = SigmaSpec()
    initial: Params | None = None


def _coerce(field_name: str, value, kind):
    """``value`` read as ``kind``; a mismatch is a ConfigError naming ``field_name``.
    A scalar, bounded or literal kind is ``bloch.check``'s; this walks the rest."""
    origin, args = get_origin(kind), get_args(kind)
    if kind in (bool, int, float, str) or origin is Annotated or origin is Literal:
        return check(field_name, value, kind)
    if origin is list or origin is tuple:
        if not isinstance(value, list) or (origin is tuple and len(value) != len(args)):
            what = f"an array of {len(args)} items" if origin is tuple else "an array"
            raise ConfigError(field_name, f"expected {what}, got {value!r}")
        kinds = args if origin is tuple else args * len(value)
        items = (_coerce(f"{field_name}[{i}]", v, k) for i, (v, k) in enumerate(zip(value, kinds)))
        return origin(items)
    if origin is dict or kind is dict:
        if not isinstance(value, dict):
            raise ConfigError(field_name, f"expected an object, got {value!r}")
        if kind is dict:  # a block taken as read
            return value
        return {
            _coerce(f"{field_name}.{k}", k, args[0]): _coerce(f"{field_name}.{k}", v, args[1])
            for k, v in value.items()
        }
    if origin is UnionType and args[1] is type(None):  # X | None: null is a value
        return None if value is None else _coerce(field_name, value, args[0])
    if is_dataclass(kind):
        kinds, required = _kinds(kind)
        return _build(field_name, kind, **_fields(field_name, value, kinds, required))
    if isinstance(kind, FunctionType):  # the parser of a nested block
        return kind(field_name, value)
    if _writer(kind) is _sigma_to_doc:  # what the writer writes as a {matrix, bloch} block
        block = _fields(field_name, value, _SIGMA_KINDS, required=_SIGMA_KINDS)
        rows = [[complex(re, im) for re, im in row] for row in block["matrix"]]
        return _build(f"{field_name}.matrix", DensityMatrix, rows)
    raise AssertionError(kind)


@cache
def _kinds(cls) -> tuple[dict, frozenset]:
    """Dataclass ``cls``'s field kinds, from its annotations, and the names of
    its fields without a default; read once per class."""
    required = frozenset(
        f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING
    )
    return get_type_hints(cls, include_extras=True), required


def _fields(where: str, doc, kinds: dict, required=frozenset()) -> dict:
    """The fields of block ``where`` ("" for the top level), coerced to their
    ``kinds``: the block must be an object with no other field and with each
    ``required`` one. A null field counts as omitted unless its kind is
    ``X | None``."""
    if not isinstance(doc, dict):
        what = "an object" if where else "a JSON object"
        raise ConfigError(where or "config", f"expected {what}, got {doc!r}")
    prefix = f"{where}." if where else ""
    unknown = set(doc) - set(kinds)
    if unknown:
        raise ConfigError(prefix + sorted(unknown)[0], "unknown field")
    block = {}
    for name, kind in kinds.items():
        value = doc.get(name)
        if value is not None or (name in doc and get_origin(kind) is UnionType):
            block[name] = _coerce(prefix + name, value, kind)
        elif name in required:
            raise ConfigError(where or "document", f"{name!r} is required")
    return block


def _parse_sigma(where: str, doc) -> SigmaSpec:
    # Both fields pass through as they are: SigmaSpec checks them in its order.
    block = _fields(where, doc, dict.fromkeys(("mode", "bloch"), lambda where, raw: raw))
    return _build(where, SigmaSpec, **block)


def _parse_initial(where: str, doc) -> Params:
    block = _fields(where, doc, dict(zip(PARAM_NAMES, get_args(Params))))
    missing = [name for name in PARAM_NAMES if name not in block]
    if missing:
        raise ConfigError(f"{where}.{missing[0]}", "required when initial is given")
    return tuple(block[name] for name in PARAM_NAMES)


def _build(where: str, cls, *args, **kwargs):
    """``cls(*args, **kwargs)``; a ValueError from its checks names ``where``,
    and a ConfigError its field's path below ``where``."""
    try:
        return cls(*args, **kwargs)
    except ConfigError as exc:
        message = str(exc).removeprefix(f"{exc.field_name}: ")
        raise ConfigError(f"{where}.{exc.field_name}", message) from exc
    except ValueError as exc:
        raise ConfigError(where, str(exc)) from exc


# Top-level kinds: GameConfig's annotations, and a parser per block it lacks.
_CONFIG_KINDS = {**_kinds(GameConfig)[0], "sigma": _parse_sigma, "initial": _parse_initial}


def resolve_seed(cli_seed: int | None, config_seed: int | None, env=os.environ) -> int:
    """Seed precedence: CLI flag, then config field, then the environment
    variable, then 0."""
    if cli_seed is not None:
        return cli_seed
    if config_seed is not None:
        return config_seed
    raw = env.get(SEED_ENV_VAR, "0")
    try:
        if int(raw) >= 0:
            return int(raw)
    except ValueError:
        pass
    raise ConfigError(SEED_ENV_VAR, f"expected a non-negative integer, got {raw!r}")


def load_experiment(doc: dict, seed_override: int | None = None) -> ExperimentSpec:
    """Validate a config document into an ExperimentSpec.

    Raises ConfigError naming the offending field.  Unknown fields are
    rejected so typos fail loudly.
    """
    kwargs = _fields("", doc, _CONFIG_KINDS)
    blocks = {name: kwargs.pop(name) for name in ("sigma", "initial") if name in kwargs}
    kwargs["seed"] = resolve_seed(seed_override, kwargs.get("seed"))
    return ExperimentSpec(game=GameConfig(**kwargs), **blocks)


def read_json(path: str | Path, where: str):
    """The document in JSON file ``path``; invalid JSON, bytes that are not
    UTF-8, or nesting deeper than the parser goes, is a ConfigError naming
    ``where`` and the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(where, f"invalid JSON in {path}: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(where, f"JSON nested too deeply in {path}") from exc


def load_experiment_file(path: str | Path, seed_override: int | None = None) -> ExperimentSpec:
    return load_experiment(read_json(path, "config"), seed_override=seed_override)


def run_experiment(spec: ExperimentSpec) -> GameTrace:
    """Resolve the true state and play one game on a single seeded stream."""
    rng = np.random.default_rng(spec.game.seed)
    sigma = spec.sigma.resolve(rng)
    return run_game(sigma, spec.game, rng=rng, initial=spec.initial)


@dataclass(frozen=True)
class GameOutcome:
    """The fields of one game that a batch summary reads: what ``run_batch``
    returns for a game whose trace the playing process wrote itself."""

    c_step_total: int
    final_fidelity: float
    termination: Termination


def _play(item: tuple[ExperimentSpec, Path | None]) -> GameTrace | GameOutcome:
    """Play one game.  Without a path, return its trace; with one, write the
    trace's result document there and return the game's GameOutcome."""
    spec, path = item
    trace = run_experiment(spec)
    if path is None:
        return trace
    write_json(trace_to_doc(trace), path)
    return GameOutcome(trace.c_step_total, trace.final_fidelity, trace.termination)


def run_batch(
    spec: ExperimentSpec, count: int, jobs: int = 1, traces_dir: str | Path | None = None
) -> list[GameTrace] | list[GameOutcome]:
    """Play ``count`` games at seeds seed, seed+1, ..., seed+count-1.

    Results are ordered by game index whatever the execution order, so
    parallel runs reproduce serial ones exactly.  At most
    ``min(jobs, count, cpu count)`` worker processes are started.  With
    ``traces_dir``, the process that plays game k writes its result document
    to ``traces_dir/game_<kkkk>.json`` and returns only its GameOutcome.
    """
    count, jobs = check("count", count, Count), check("jobs", jobs, Count)
    items = [
        (replace(spec, game=replace(spec.game, seed=spec.game.seed + k)),
         None if traces_dir is None else Path(traces_dir) / TRACE_NAME.format(k))
        for k in range(count)
    ]
    # os.cpu_count() is a system call; only a batch that could pool needs it.
    workers = min(jobs, count)
    if workers > 1:
        workers = min(workers, os.cpu_count() or 1)
    if workers == 1:
        return [_play(item) for item in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_play, items))


@dataclass
class BatchSummary:
    """Aggregate statistics over a batch of games."""

    games: Count
    mean_c_step: float
    mean_fidelity: Unit
    cdf_c_step: list[tuple[Annotated[float, (1, None)], float]]  # D steps in every game
    cdf_fidelity: list[tuple[Unit, float]]
    termination_counts: dict[Termination, Count]
    config_echo: dict


def _empirical_cdf(values) -> list[tuple[float, float]]:
    n = len(values)
    return [(float(v), (i + 1) / n) for i, v in enumerate(sorted(values))]


def summarize_batch(
    traces: list[GameTrace] | list[GameOutcome], spec: ExperimentSpec
) -> BatchSummary:
    if not traces:
        raise ValueError("no traces to summarize")
    c_steps = [t.c_step_total for t in traces]
    fids = [t.final_fidelity for t in traces]
    counts: dict[Termination, int] = {}
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

def _sigma_to_doc(sigma: DensityMatrix) -> dict:
    v = sigma.to_bloch()
    matrix = [[[c.real, c.imag] for c in row] for row in sigma.matrix.tolist()]
    return {"matrix": matrix, "bloch": [v.x, v.y, v.z]}


@cache
def _writer(kind):
    """The function writing a value of ``kind`` as JSON data, the inverse of
    ``_coerce``, or None for a value written as it is; built once per kind."""
    if kind is DensityMatrix:
        return _sigma_to_doc
    if is_dataclass(kind):  # an object of its fields, in field order
        plan = [(name, _writer(k)) for name, k in _kinds(kind)[0].items()]
        return lambda x: {n: getattr(x, n) if w is None else w(getattr(x, n)) for n, w in plan}
    if get_origin(kind) in (list, tuple):  # an array, never a tuple: it must equal its reparse
        (write,) = {_writer(k) for k in get_args(kind)}  # a tuple's items are written alike
        return list if write is None else lambda items: [write(v) for v in items]
    return None


def spec_to_doc(spec: ExperimentSpec) -> dict:
    doc = _writer(GameConfig)(spec.game)
    doc["sigma"] = {"mode": spec.sigma.mode}
    if spec.sigma.bloch is not None:
        doc["sigma"]["bloch"] = list(spec.sigma.bloch)
    if spec.initial is not None:
        doc["initial"] = dict(zip(PARAM_NAMES, spec.initial))
    return doc


def trace_to_doc(trace: GameTrace) -> dict:
    """Full-precision JSON document for one game; reparses to an equal trace."""
    return {"schema": RESULT_SCHEMA, **_writer(GameTrace)(trace)}


def _body(kind: str, schema: str, doc) -> dict:
    """The fields of ``doc`` but its schema, which must be ``schema``."""
    if not isinstance(doc, dict):
        raise ValueError(f"{kind} document is not a JSON object")
    if doc.get("schema") != schema:
        raise ValueError(f"unexpected {kind} schema {doc.get('schema')!r}")
    return {key: value for key, value in doc.items() if key != "schema"}


# The matrix defines the state; bloch, written for readers of the file, is its vector.
_SIGMA_KINDS = {"matrix": list[list[tuple[float, float]]], "bloch": tuple[float, float, float]}


def _written_back(where: str, written, doc) -> None:
    """Raise a ConfigError naming the first path, in field order, at which
    ``doc`` differs from ``written``: a null or absent key where a value is
    written is required, and any other value must equal the written one."""
    if isinstance(written, dict):
        for key, value in written.items():
            if doc.get(key) is None and value is not None:
                raise ConfigError(where or "document", f"{key!r} is required")
            _written_back(f"{where}.{key}" if where else key, value, doc.get(key))
    elif isinstance(written, list):  # as long as the array read: the walk kept its length
        for i, (w, d) in enumerate(zip(written, doc)):
            _written_back(f"{where}[{i}]", w, d)
    elif written != doc:
        raise ConfigError(where, f"expected {written!r}, got {doc!r}")


def trace_from_doc(doc: dict) -> GameTrace:
    body = _body("result", RESULT_SCHEMA, doc)
    trace = _coerce("", body, GameTrace)
    # Read as written: the writer must write the body back. So the config
    # is whole, noise's too, and sigma's block is what its matrix writes.
    _written_back("", _writer(GameTrace)(trace), body)
    # What the game loop cannot write: no step (D records one in every game),
    # estimates of another shot count than the config's, a step index that
    # does not rise (snapshots look steps up by their index), or a round that
    # does not open at 1 or skips one. What run_game derives from the steps
    # is derived again and compared.
    steps = trace.steps
    if not steps:
        raise ConfigError("steps", "expected at least one step, got []")
    shots = None if trace.config.exact_mode else trace.config.shots
    if all(rec.estimate.shots != shots for rec in steps):  # then the config is named
        got = steps[0].estimate.shots
        field = "shots" if shots is not None and got is not None else "exact_mode"
        raise ConfigError(
            f"config.{field}",
            f"{getattr(trace.config, field)!r} does not match any step's estimate.shots, "
            f"the first being {got!r}",
        )
    previous = None
    for i, rec in enumerate(steps):
        if rec.estimate.shots != shots:
            raise ConfigError(
                f"steps[{i}].estimate.shots",
                f"expected {shots!r} as in the config, got {rec.estimate.shots!r}",
            )
        if previous is not None and rec.step_index <= previous.step_index:
            raise ConfigError(
                f"steps[{i}].step_index",
                f"expected more than the previous step's {previous.step_index}, "
                f"got {rec.step_index}",
            )
        rounds = (1,) if previous is None else (previous.round_index, previous.round_index + 1)
        if rec.round_index not in rounds:
            raise ConfigError(
                f"steps[{i}].round_index",
                f"expected {' or '.join(map(str, rounds))}, got {rec.round_index}",
            )
        previous = rec
    for name, field in (("c_step_total", "step_index"), ("final_fidelity", "fidelity_ideal")):
        want, got = getattr(previous, field), getattr(trace, name)
        if got != want:
            raise ConfigError(name, f"expected the last step's {want}, got {got}")
    # run_game's stop rule, asked after each turn (the steps of one round and
    # player) as the game loop asks it: D's turn hands back its largest d_hat,
    # G's its last. Only the last turn may end the game, as recorded.
    config, k = trace.config, -1
    for (_, turn), records in groupby(steps, key=lambda rec: (rec.round_index, rec.turn)):
        d_hats = [rec.estimate.d_hat for rec in records]
        k += len(d_hats)
        over = config.game_over(turn, max(d_hats) if turn == D_TURN else d_hats[-1],
                                steps[k].step_index)
        if over is not None and k < len(steps) - 1:
            raise ConfigError(f"steps[{k}]", f"expected no later step, as this turn ends the "
                                             f"game in {over!r}, got {len(steps) - 1 - k} more")
    want = over or TERMINATION_BUDGET
    if trace.termination != want:
        raise ConfigError(
            "termination", f"expected {want!r} by the last turn, got {trace.termination!r}"
        )
    if over is None:
        raise ConfigError(
            "termination",
            f"{want!r} needs c_step_total >= c_limit, got {trace.c_step_total} < {config.c_limit}",
        )
    return trace


def summary_to_doc(summary: BatchSummary) -> dict:
    return {"schema": SUMMARY_SCHEMA, **_writer(BatchSummary)(summary)}


def summary_from_doc(doc: dict) -> BatchSummary:
    summary = _coerce("", _body("summary", SUMMARY_SCHEMA, doc), BatchSummary)
    # What summarize_batch derives from the games is derived again from the
    # CDF values and compared; mean_fidelity is not, since summing the sorted
    # values can round differently from summing them in game order (its kind
    # holds it to [0, 1], where any mean of fidelities lies).
    for name in ("cdf_c_step", "cdf_fidelity"):
        pairs = getattr(summary, name)
        if len(pairs) != summary.games:
            raise ConfigError(
                name, f"expected one pair per game ({summary.games}), got {len(pairs)}"
            )
        for i, (got, want) in enumerate(zip(pairs, _empirical_cdf([v for v, _ in pairs]))):
            if got != want:
                raise ConfigError(f"{name}[{i}]", f"expected {list(want)}, got {list(got)}")
    counts = summary.termination_counts
    if sum(counts.values()) != summary.games:
        raise ConfigError(
            "termination_counts",
            f"expected counts summing to games ({summary.games}), got {sum(counts.values())}",
        )
    mean = float(np.mean([v for v, _ in summary.cdf_c_step]))
    if summary.mean_c_step != mean:
        raise ConfigError(
            "mean_c_step", f"expected cdf_c_step's mean {mean}, got {summary.mean_c_step}"
        )
    return summary


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
    v = trace.sigma.to_bloch()
    rows = (
        [str(rec.step_index), *map(_fmt, state_xyz(*rec.params_after[:3])),
         *map(_fmt, (v.x, v.y, v.z)), *map(_fmt, axis_xyz(*rec.params_after[3:]))]
        for rec in selected
    )
    _write_csv(path, SNAPSHOTS_HEADER, rows)


def write_cdf_csv(pairs: list[tuple[float, float]], path: str | Path) -> None:
    """Empirical CDF pairs (value, cumulative probability)."""
    rows = ([_fmt(v), _fmt(p)] for v, p in pairs)
    _write_csv(path, CDF_HEADER, rows)
