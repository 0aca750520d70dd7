"""Property tests for the document round trips and the replay the harness
promises.

A config document emitted for a spec reads back to the same spec, a result
or summary document re-parsed from its JSON text gives back the same trace
or summary (so every game the strategies draw meets the readers' rules),
and a batch plays the same games in parallel as serially, game k being the
single game at seed + k. A document with any one value replaced by a wrong one is read,
or rejected with a ValueError naming that value's path; fed to the CLI, a
document with one fault anywhere exits 0, or 2 with a one-line message.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
from dataclasses import replace
from functools import cache
from pathlib import Path

import numpy as np
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from qgan_sim import GameConfig, NoiseSettings
from qgan_sim.bloch import SIGMA_MODES
from qgan_sim.cli import main
from qgan_sim.harness import (
    ExperimentSpec,
    SigmaSpec,
    load_experiment,
    run_batch,
    run_experiment,
    spec_to_doc,
    summarize_batch,
    summary_from_doc,
    summary_to_doc,
    trace_from_doc,
    trace_to_doc,
)

unit = st.floats(0.0, 1.0)
positive = st.floats(1e-6, 1e3)
angles = st.floats(-1e3, 1e3)

configs = st.builds(
    GameConfig,
    shots=st.integers(1, 2**63 - 1),
    fd_delta_angle=positive,
    fd_delta_r=st.floats(1e-6, 0.5),
    learning_rate=positive,
    c_limit=st.integers(1, 10**6),
    d_bound=st.floats(1e-6, 0.999),
    stall_window=st.integers(2, 20),
    g_threshold_slope=st.floats(-1.0, 1.0),
    exact_mode=st.booleans(),
    count_per_partial=st.booleans(),
    branchwise=st.booleans(),
    noise=st.builds(
        NoiseSettings,
        depolarizing_eps=unit,
        amplitude_damping_gamma=unit,
        apply_to=st.sampled_from(("both", "generated-only")),
    ),
    seed=st.integers(0, 2**64),
)

fixed_vectors = st.builds(
    lambda rad, t, p: (
        rad * math.sin(t) * math.cos(p), rad * math.sin(t) * math.sin(p), rad * math.cos(t)
    ),
    unit, st.floats(0.0, math.pi), st.floats(0.0, 2 * math.pi),
)
sigmas = st.sampled_from([m for m in SIGMA_MODES if m != "fixed"]).map(SigmaSpec) | (
    fixed_vectors.map(lambda v: SigmaSpec("fixed", v))
)
initials = st.none() | st.tuples(unit, angles, angles, angles, angles)
specs = st.builds(ExperimentSpec, game=configs, sigma=sigmas, initial=initials)


@settings(max_examples=200, deadline=None)
@given(specs)
def test_config_document_reads_back_to_the_spec(spec):
    doc = json.loads(json.dumps(spec_to_doc(spec), allow_nan=False))
    assert load_experiment(doc) == spec


# Numbers as a caller may hold them: ints, floats and numpy scalars.
strengths = st.integers(0, 1) | unit | st.integers(0, 1).map(np.int64) | unit.map(np.float64)
components = st.integers(-1, 1) | st.floats(-1.0, 1.0) | st.floats(-1.0, 1.0).map(np.float64)
vectors = st.none() | st.tuples(components, components, components) | st.lists(
    components | st.integers(-1, 1).map(np.int64), min_size=3, max_size=3
)


@settings(max_examples=200, deadline=None)
@given(
    mode=st.sampled_from(SIGMA_MODES),
    bloch=vectors,
    noise=st.tuples(strengths, strengths, st.sampled_from(("both", "generated-only"))),
)
def test_a_directly_built_spec_reads_back_from_its_document(mode, bloch, noise):
    try:
        sigma = SigmaSpec(mode, bloch)
    except ValueError:  # what a config file refuses too
        reject()
    spec = ExperimentSpec(GameConfig(noise=NoiseSettings(*noise)), sigma)
    doc = json.loads(json.dumps(spec_to_doc(spec), allow_nan=False))
    assert load_experiment(doc) == spec


small_games = st.builds(
    GameConfig,
    shots=st.integers(1, 500),
    c_limit=st.integers(1, 40),
    exact_mode=st.booleans(),
    branchwise=st.booleans(),
    noise=st.just(NoiseSettings()) | st.builds(
        NoiseSettings,
        depolarizing_eps=unit,
        amplitude_damping_gamma=unit,
        apply_to=st.sampled_from(("both", "generated-only")),
    ),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=100, deadline=None)
@given(
    spec=st.builds(ExperimentSpec, game=small_games, sigma=sigmas),
    count_per_partial=st.booleans(),
    per_turn_cap=st.integers(1, 50),
)
def test_result_document_reparses_to_the_trace(spec, count_per_partial, per_turn_cap):
    game = replace(spec.game, count_per_partial=count_per_partial, per_turn_cap=per_turn_cap)
    trace = run_experiment(replace(spec, game=game))
    text = json.dumps(trace_to_doc(trace), indent=2, allow_nan=False)
    assert trace_from_doc(json.loads(text)) == trace


@settings(max_examples=50, deadline=None)
@given(st.builds(ExperimentSpec, game=small_games, sigma=sigmas), st.integers(1, 12))
def test_summary_document_reparses_to_the_summary(spec, count):
    summary = summarize_batch(run_batch(spec, count), spec)
    text = json.dumps(summary_to_doc(summary), indent=2, allow_nan=False)
    assert summary_from_doc(json.loads(text)) == summary


# Each example starts at most two worker processes.
@settings(max_examples=10, deadline=None)
@given(st.builds(ExperimentSpec, game=small_games, sigma=sigmas))
def test_batch_replays_serially_and_in_parallel(spec):
    serial = run_batch(spec, 3, jobs=1)
    assert run_batch(spec, 3, jobs=2) == serial
    for k, trace in enumerate(serial):
        game = replace(spec.game, seed=spec.game.seed + k)
        assert trace == run_experiment(replace(spec, game=game))


def _nodes(node, path=()):
    """(path, value) for ``node`` and every value under it."""
    yield path, node
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _nodes(child, (*path, key))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from _nodes(child, (*path, index))


def _leaves(node):
    """(path, value) for every value under ``node`` that is not a container."""
    return [(path, v) for path, v in _nodes(node) if not isinstance(v, (dict, list))]


def _path_name(path) -> str:
    """The name the readers give ``path``: ``steps[0].estimate.shots``, and
    ``document`` for the whole."""
    name = ""
    for part in path:
        name += f"[{part}]" if isinstance(part, int) else f".{part}" if name else part
    return name or "document"


def _names_leaf(message: str, path, kind: str) -> bool:
    """Whether ``message`` names the value at ``path``: by its own name, or
    by its block's name followed by the field's. The second form is how a
    constructor's check (``noise: apply_to must be ...``) and a missing field
    (``steps[0]: 'turn' is required``, also for a null) are reported."""
    if path == ("schema",):
        return message.startswith(f"unexpected {kind} schema")
    block, field = _path_name(path[:-1]), path[-1]
    return message.startswith(
        (f"{_path_name(path)}: ", f"{block}: {field} ", f"{block}: {field!r} ")
    )


def test_a_wrong_leaf_is_read_or_named():
    small = dict(c_limit=6, per_turn_cap=3)
    shot = GameConfig(shots=50, noise=NoiseSettings.decoherence_preset(), seed=5, **small)
    exact = GameConfig(exact_mode=True, seed=6, **small)
    batch = ExperimentSpec(game=GameConfig(shots=50, seed=7, **small))
    cases = [
        (trace_to_doc(run_experiment(ExperimentSpec(game=shot))), trace_from_doc, "result"),
        (
            trace_to_doc(run_experiment(ExperimentSpec(game=exact, sigma=SigmaSpec("bloch-ball")))),
            trace_from_doc,
            "result",
        ),
        (summary_to_doc(summarize_batch(run_batch(batch, 3), batch)), summary_from_doc, "summary"),
    ]
    unnamed = []
    for original, read, kind in cases:
        text = json.dumps(original)
        for path, _ in _leaves(original):
            for bad in ("x", None, [], {}, True):
                doc = json.loads(text)
                *parents, last = path
                target = doc
                for part in parents:
                    target = target[part]
                target[last] = bad
                try:
                    read(doc)
                except ValueError as exc:
                    if not _names_leaf(str(exc), path, kind):
                        unnamed.append((path, bad, str(exc)))
    assert not unnamed, unnamed[:5]


# One fault at one place in a document: a key deleted or an unknown key
# added, an array one item short or one item long, or a value of the wrong
# type or out of range put in.
BAD_VALUES = ("x", [], {}, True, None, math.nan, math.inf, -math.inf, 2**64)
# A config leaf that bounds a game's length; 2**64 there would let a game
# that never reaches equilibrium run on, so it is not put in.
_LENGTH_BOUNDS = {("c_limit",), ("per_turn_cap",)}


def _faults(doc, kind):
    """Every (path, fault) the net puts into ``doc``."""
    for path, node in _nodes(doc):
        if path:
            yield path, "delete"
        if isinstance(node, dict) or (isinstance(node, list) and node):
            yield path, "extend"
        for bad in BAD_VALUES:
            if not (kind == "config" and path in _LENGTH_BOUNDS and bad == 2**64):
                yield path, bad


def _with_fault(doc, path, fault):
    root = [copy.deepcopy(doc)]
    parent, last = root, 0
    for part in path:
        parent, last = parent[last], part
    node = parent[last]
    if fault == "delete":
        del parent[last]
    elif fault == "extend":
        if isinstance(node, dict):
            node["unknown"] = 0
        else:
            node.append(node[-1])
    else:
        parent[last] = fault
    return root[0]


@cache
def _cli_cases():
    """(kind, valid document, argv with {in} and {out} to fill, faults) for
    each leg: a short noisy game's config and its result, and a three-game
    summary."""
    game = GameConfig(shots=50, c_limit=12, per_turn_cap=4, seed=5,
                      noise=NoiseSettings.decoherence_preset())
    spec = ExperimentSpec(game=game, sigma=SigmaSpec("fixed", (0.1, -0.2, 0.3)),
                          initial=(0.8, 1.0, 2.0, 0.5, 0.25))
    result = trace_to_doc(run_experiment(spec))
    summary = summary_to_doc(summarize_batch(run_batch(spec, 3), spec))
    cases = [
        ("config", spec_to_doc(spec), ["run", "--config", "{in}", "--out", "{out}"]),
        ("result", result, ["plot-data", "--kind", "tracking", "--in", "{in}", "--out", "{out}"]),
        ("result", result,
         ["plot-data", "--kind", "bloch-snapshots", "--in", "{in}", "--out", "{out}"]),
        ("summary", summary, ["plot-data", "--kind", "cdf", "--in", "{in}", "--out", "{out}"]),
    ]
    return [(kind, doc, argv, list(_faults(doc, kind))) for kind, doc, argv in cases]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_the_cli_exits_cleanly_on_one_fault_anywhere(data):
    kind, doc, argv, faults = data.draw(st.sampled_from(_cli_cases()))
    path, fault = data.draw(st.sampled_from(faults))
    with tempfile.TemporaryDirectory() as tmp:
        infile, out = Path(tmp) / "in.json", Path(tmp) / "out"
        infile.write_text(json.dumps(_with_fault(doc, path, fault)))
        args = [arg.format_map({"in": infile, "out": out}) for arg in argv]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            status = main(args)
    message = stderr.getvalue()
    assert status in (0, 2), (kind, path, fault, status, message)
    if status == 2:
        assert message.startswith(("config error: ", "error: ")), message
        assert message.count("\n") == 1 and message.endswith("\n"), message
