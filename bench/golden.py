"""Per-game output checks for the benchmark.

Every game is reduced to one plain record, whether it was played in-process
(a ``GameTrace``) or read back from a CLI trace file (a result document).
At any seed the record must satisfy the estimator and game invariants; at
the default seed the first games must also reproduce the stored golden
outcomes: termination, step total and a SHA-256 over every ``params_after``
and every estimate must match exactly, fidelity values within 1e-12.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")
GOLDEN_SEED = 0
GOLDEN_GAMES = 20
FIDELITY_TOL = 1e-12
TERMINATIONS = ("equilibrium", "budget-exhausted")


def record_from_trace(trace) -> dict:
    return {
        "termination": trace.termination,
        "c_step_total": trace.c_step_total,
        "final_fidelity": trace.final_fidelity,
        "steps": [
            (
                rec.step_index, rec.round_index, rec.turn, list(rec.params_after),
                rec.estimate.p_rho_hat, rec.estimate.p_sigma_hat,
                rec.estimate.d_hat, rec.estimate.shots, rec.fidelity_ideal,
            )
            for rec in trace.steps
        ],
    }


def record_from_doc(doc: dict) -> dict:
    return {
        "termination": doc["termination"],
        "c_step_total": doc["c_step_total"],
        "final_fidelity": doc["final_fidelity"],
        "steps": [
            (
                s["step_index"], s["round_index"], s["turn"], list(s["params_after"]),
                s["estimate"]["p_rho_hat"], s["estimate"]["p_sigma_hat"],
                s["estimate"]["d_hat"], s["estimate"]["shots"], s["fidelity_ideal"],
            )
            for s in doc["steps"]
        ],
    }


def invariant_problems(rec: dict, shots: int | None, c_limit: int) -> list[str]:
    """Properties every game must have, whatever its seed."""
    problems = []
    last_index = 0
    for index, _round, _turn, _params, p_rho, p_sigma, d_hat, est_shots, f in rec["steps"]:
        if d_hat != p_rho - p_sigma:
            problems.append(f"step {index}: d_hat != p_rho_hat - p_sigma_hat")
        if not (0.0 <= p_rho <= 1.0 and 0.0 <= p_sigma <= 1.0):
            problems.append(f"step {index}: frequency outside [0, 1]")
        if est_shots != shots:
            problems.append(f"step {index}: estimate shots {est_shots} != {shots}")
        if not (0.0 <= f <= 1.0):
            problems.append(f"step {index}: fidelity {f} outside [0, 1]")
        if index <= last_index:
            problems.append(f"step {index}: step index not increasing")
        last_index = index
    if rec["steps"] and last_index != rec["c_step_total"]:
        problems.append(f"c_step_total {rec['c_step_total']} != last step index {last_index}")
    if rec["termination"] not in TERMINATIONS:
        problems.append(f"unknown termination {rec['termination']!r}")
    elif rec["termination"] == "budget-exhausted" and rec["c_step_total"] < c_limit:
        problems.append(f"budget exhausted at {rec['c_step_total']} < c_limit {c_limit}")
    if not (0.0 <= rec["final_fidelity"] <= 1.0):
        problems.append(f"final fidelity {rec['final_fidelity']} outside [0, 1]")
    return problems


def exact_digest(rec: dict) -> str:
    """SHA-256 over the fields that must repeat bit for bit."""
    exact = [
        rec["termination"],
        rec["c_step_total"],
        [list(step[:-1]) for step in rec["steps"]],
    ]
    return hashlib.sha256(json.dumps(exact).encode()).hexdigest()


def golden_entry(rec: dict) -> dict:
    return {
        "termination": rec["termination"],
        "c_step_total": rec["c_step_total"],
        "steps": len(rec["steps"]),
        "exact_sha256": exact_digest(rec),
        "final_fidelity": rec["final_fidelity"],
        "fidelity_ideal": [step[-1] for step in rec["steps"]],
    }


def golden_problems(rec: dict, entry: dict) -> list[str]:
    got = golden_entry(rec)
    problems = [
        f"golden {key}: {got[key]!r} != {entry[key]!r}"
        for key in ("termination", "c_step_total", "steps", "exact_sha256")
        if got[key] != entry[key]
    ]
    if problems:
        return problems
    fids = [got["final_fidelity"], *got["fidelity_ideal"]]
    want = [entry["final_fidelity"], *entry["fidelity_ideal"]]
    worst = max(abs(a - b) for a, b in zip(fids, want))
    if worst > FIDELITY_TOL:
        problems.append(f"golden fidelity differs by {worst:.3g} > {FIDELITY_TOL:g}")
    return problems


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def write_golden(entries: dict) -> None:
    with open(GOLDEN_PATH, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(entries, fh, separators=(",", ":"))
        fh.write("\n")
