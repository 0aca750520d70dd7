"""Property tests for the document round trips and the replay the harness
promises.

A config document emitted for a spec reads back to the same spec, a result
document re-parsed from its JSON text gives back the same trace, and a batch
plays the same games in parallel as serially, game k being the single game
at seed + k.
"""

import json
import math
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from qgan_sim import GameConfig, GeneratorParams, MeasurementParams, NoiseSettings
from qgan_sim.bloch import SIGMA_MODES
from qgan_sim.harness import (
    ExperimentSpec,
    SigmaSpec,
    load_experiment,
    run_batch,
    run_experiment,
    spec_to_doc,
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
initials = st.none() | st.tuples(
    st.builds(GeneratorParams, unit, angles, angles),
    st.builds(MeasurementParams, angles, angles),
)
specs = st.builds(ExperimentSpec, game=configs, sigma=sigmas, initial=initials)


@settings(max_examples=200, deadline=None)
@given(specs)
def test_config_document_reads_back_to_the_spec(spec):
    doc = json.loads(json.dumps(spec_to_doc(spec), allow_nan=False))
    assert load_experiment(doc) == spec


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from([m for m in SIGMA_MODES if m != "fixed"]),
    c_limit=st.integers(1, 30),
    count_per_partial=st.booleans(),
)
def test_result_document_reparses_to_the_trace(seed, mode, c_limit, count_per_partial):
    game = GameConfig(
        exact_mode=True, c_limit=c_limit, count_per_partial=count_per_partial, seed=seed
    )
    trace = run_experiment(ExperimentSpec(game=game, sigma=SigmaSpec(mode)))
    text = json.dumps(trace_to_doc(trace), indent=2, allow_nan=False)
    assert trace_from_doc(json.loads(text)) == trace


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


# Each example starts at most two worker processes.
@settings(max_examples=10, deadline=None)
@given(st.builds(ExperimentSpec, game=small_games, sigma=sigmas))
def test_batch_replays_serially_and_in_parallel(spec):
    serial = run_batch(spec, 3, jobs=1)
    assert run_batch(spec, 3, jobs=2) == serial
    for k, trace in enumerate(serial):
        game = replace(spec.game, seed=spec.game.seed + k)
        assert trace == run_experiment(replace(spec, game=game))
