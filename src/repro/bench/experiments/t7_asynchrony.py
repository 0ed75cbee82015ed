"""T7 — sensitivity to bounded asynchrony (extension experiment).

The synchronous model is an idealization; real networks deliver messages
with variable latency.  This experiment re-runs discovery with *delivery
jitter*: a message arrives 1 .. 1 + J rounds after it was sent (uniform,
deterministic in the seed).

Expected shape, and why it is interesting:

* gossip (namedropper, flooding) degrades mildly — its progress argument
  only needs messages to arrive *eventually*;
* the phase-structured core algorithm degrades roughly linearly in J —
  an invite that misses its phase's FORWARD step waits for the next
  phase — but **still completes** for every J, because all its handlers
  were built to tolerate off-schedule messages (the same healing paths
  that give loss tolerance).  Lockstep is a performance assumption, not
  a correctness assumption.

A second table runs the hostile delivery models of
:mod:`repro.sim.transport` at the same bound (D = 2, so every delivery
lands within 3 rounds of its send in all three rows):

* ``jitter:2`` — random delays, the baseline for comparison;
* ``adversarial:2`` — every message held the full 3 rounds, the
  worst-case stationary schedule a 3-bounded adversary can play;
* ``perlink:2`` — fixed heterogeneous per-link delays (slow links stay
  slow), the regime where a single slow link can gate a whole cluster
  merge.

The claim under test is the same: every algorithm still completes under
every model — the delivery schedule moves constants, not correctness.
"""

from __future__ import annotations

import statistics
from typing import Dict

from ..runner import Case, run_case
from ..seeds import Scale
from ..tables import ExperimentReport, Table

EXPERIMENT_ID = "T7"
TITLE = "Bounded asynchrony: rounds under delivery jitter"

JITTERS = (0, 1, 2, 4)
ALGORITHMS = ("sublog", "namedropper", "flooding")
SUBLOG_ASYNC_PARAMS = {"resilient": True, "stagnation_phases": 4}

#: Delivery models compared at the same delay bound (see module docstring).
DELIVERY_MODELS = ("jitter:2", "adversarial:2", "perlink:2")


def run(scale: Scale) -> ExperimentReport:
    report = ExperimentReport(EXPERIMENT_ID, TITLE)
    n = scale.focus_n
    table = Table(
        f"T7: median rounds under delivery jitter (kout, k=3, n={n})",
        ["jitter", *ALGORITHMS],
        caption="jitter J: messages take 1..1+J rounds to arrive",
    )
    summary: Dict[str, Dict[int, float]] = {a: {} for a in ALGORITHMS}
    for jitter in JITTERS:
        row: list[object] = [jitter]
        for algorithm in ALGORITHMS:
            params = (
                SUBLOG_ASYNC_PARAMS if (algorithm == "sublog" and jitter) else {}
            )
            rounds = []
            for seed in scale.seeds:
                case = Case(
                    algorithm=algorithm,
                    topology="kout",
                    n=n,
                    seed=seed,
                    params=params,
                    topology_params={"k": 3},
                )
                result = run_case(
                    case, delivery=f"jitter:{jitter}", max_rounds=4000
                )
                assert result.completed, (algorithm, jitter, seed)
                rounds.append(result.rounds)
            median = statistics.median(rounds)
            summary[algorithm][jitter] = median
            row.append(f"{median:.0f}")
        table.add_row(*row)
    report.add(table)

    model_table = Table(
        f"T7b: median rounds by delivery model, delay bound 3 (kout, k=3, n={n})",
        ["delivery", *ALGORITHMS],
        caption=(
            "same bound, three schedules: random (jitter:2), worst-case "
            "(adversarial:2), fixed-per-link (perlink:2)"
        ),
    )
    model_summary: Dict[str, Dict[str, float]] = {a: {} for a in ALGORITHMS}
    for delivery in DELIVERY_MODELS:
        row = [delivery]
        for algorithm in ALGORITHMS:
            params = SUBLOG_ASYNC_PARAMS if algorithm == "sublog" else {}
            rounds = []
            for seed in scale.seeds:
                case = Case(
                    algorithm=algorithm,
                    topology="kout",
                    n=n,
                    seed=seed,
                    params=params,
                    topology_params={"k": 3},
                    delivery=delivery,
                )
                result = run_case(case, max_rounds=4000)
                assert result.completed, (algorithm, delivery, seed)
                rounds.append(result.rounds)
            median = statistics.median(rounds)
            model_summary[algorithm][delivery] = median
            row.append(f"{median:.0f}")
        model_table.add_row(*row)
    report.add(model_table)

    report.note(
        "all algorithms complete at every jitter level; sublog's phase "
        "machine pays roughly linearly in J (an off-phase invite waits "
        "for the next phase) while gossip pays a small constant factor"
    )
    report.note(
        "every delivery model completes too: the adversarial schedule is "
        "the most expensive (every message maximally late), while fixed "
        "per-link delays cost about the same as random jitter of the same "
        "bound (slow links are at least predictable)"
    )
    report.summary = {"jitter": summary, "delivery": model_summary}
    return report
