"""The benchmark's workloads: inputs from a seed, reference outputs, timed runs.

A workload is a fixed mix of ``instances`` seed-derived problems (a graph,
plus a fault plan in the simulator and a lookup trace for the live read
phase).  A run executes the whole mix once per *pass* and repeats
passes until its time budget is spent, so each instance is measured
several times on identical inputs.  Each timed figure is the mean over the
mix of each instance's median over passes; lookup percentiles are taken
over all of an instance's lookups.  The end-to-end times are then scaled
to the speed of a reference box (see ``calibrate``).

Two choices keep the figures steady across seeds.  A mix rather than one
problem: one graph's message count moves by up to a tenth from seed to
seed.  And in the simulator the run's seed draws the graphs, while the
protocol's and the fault plan's random draws in the mix's ``j``-th slot
always use seed ``PROTOCOL_SEED + j`` (common random numbers): drawn from
the run's seed as well, one namedropper problem's pointer count moves by a
fifth from seed to seed, and even a mix of eight spreads by a tenth.  The
live host derives its graph and protocol draws from one seed, so there
both follow the run's seed.

Every instance run has up to three timed parts, each preceded by an
untimed ``gc.collect()`` (the collector stays enabled while timing):

* **setup** — building the inputs: the graph and fault plan for the
  simulator (its crash victims are worked out once per instance,
  untimed), the graph plus ``LiveCluster(spec)`` and ``start()`` live;
* **discover** — one ``repro.discover()`` or ``LiveCluster.run_discovery()``;
* **read** (live only) — one ``run_loadgen`` batch of ``succ`` lookups
  from a Zipf trace over 2 connections (a closed loop) against the
  converged cluster.  Lookup figures are per-layer, not end-to-end: on a
  2-core shared box their run-to-run spread was 0.13-0.51 of the median,
  wider than any regression bound the benchmark may set.

Outputs are checked on every run: the knowledge digest and the round,
message and pointer counts must equal a reference computed in a separate
process (the legacy engine backend for the simulator, ``reference_digest``
for the live host), and every lookup must succeed and form a valid ring.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import itertools
import os
import resource
import statistics
import traceback
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import repro
from repro import FaultPlan, Observer, crash_fraction_plan
from repro.graphs import KnowledgeGraph
from repro.live.cluster import ClusterSpec, LiveCluster, reference_digest
from repro.live.loadgen import run_loadgen

from calibrate import Calibrator
from tracing import Tracer

#: Closed-loop lookup connections per read batch (the box this was tuned
#: on has 2 cores; the count is fixed so figures compare across boxes).
CLIENTS = 2
#: Lookups per read batch; an instance's batch alone puts 10 samples
#: beyond its p99.
LOOKUPS = 1000
#: Out-degree of the k-out bootstrap graph every workload starts from.
KOUT = 3
#: Passes every run makes even when the time budget is already spent, so
#: each per-instance figure is a median of at least three.
MIN_PASSES = 3

#: Name and unit of every end-to-end metric, in output order.
END_TO_END = {
    "setup_s": "s",
    "discover_s": "s",
    "peak_rss_mb": "MB",
    "rounds": "count",
    "messages": "count",
    "pointers": "count",
    "success_frac": "ratio",
}

#: Per-layer metrics reported by a traced run, with units.
PER_LAYER = {
    "algorithms.run_round_s": "s",
    "algorithms.absorb_s": "s",
    "algorithms.absorb_calls": "count",
    "sim.engine.legality_s": "s",
    "sim.engine.learn_s": "s",
    "sim.engine.dispatch_s": "s",
    "sim.engine.goal_s": "s",
    "sim.transport.submit_calls": "count",
    "sim.transport.submit_s": "s",
    "sim.transport.deliver_s": "s",
    "sim.rss_setup_mb": "MB",
    "sim.rss_growth_mb": "MB",
    "sim.pointers_per_message": "ratio",
    "sim.dropped_fault": "count",
    "sim.dropped_crash": "count",
    "sim.useful_pointer_frac": "ratio",
    "live.wire.encode_s": "s",
    "live.wire.bytes_out": "B",
    "live.wire.frames_hello": "count",
    "live.wire.frames_ptrs": "count",
    "live.wire.frames_eor": "count",
    "live.wire.frames_query": "count",
    "live.wire.frames_in": "count",
    "live.marker_frame_frac": "ratio",
    "live.node.send_s": "s",
    "live.node.marker_wait_s": "s",
    "live.node.marker_wait_frac": "ratio",
    "live.node.query_s": "s",
    "live.node.suspects": "count",
    "live.node.dead": "count",
    "live.query_per_s": "1/s",
    "live.query_p50_ms": "ms",
    "live.query_p99_ms": "ms",
    "trace.overhead_s": "s",
}

#: Per-layer metrics a traced run takes from its untraced runs.
FROM_BASELINE = ("live.query_per_s", "live.query_p50_ms", "live.query_p99_ms", "trace.overhead_s")

#: Count metrics that double as an output check: identical on every run
#: of an instance and equal to the reference.
COUNTS = ("rounds", "messages", "pointers")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a mix of seed-derived problem instances."""

    name: str
    algorithm: str
    n: int
    instances: int
    live: bool = False
    delivery: Optional[str] = None
    goal: str = "strong"


WORKLOADS: Dict[str, Workload] = {
    # Every simulator layer: run_round, absorb, engine learning and
    # legality under ~300 pointers per message, plus loss, crashes and
    # jitter, which force the per-message sim.transport path.
    "sim-namedropper-faulty": Workload(
        "sim-namedropper-faulty",
        "namedropper",
        n=512,
        instances=12,
        delivery="jitter:2",
        goal="strong_alive",
    ),
    # The paper's algorithm on the live host: marker-paced rounds over
    # asyncio TCP loopback, then lookups on the same nodes.
    "live-sublog": Workload("live-sublog", "sublog", n=32, instances=6, live=True),
}

#: Protocol and fault seed of a sim workload's first slot; seed 11 is the
#: one the sim workloads were characterised with.
PROTOCOL_SEED = 11

#: Fault mix of the simulator workload: message loss, and a share of the
#: fleet crashing at the top of an early round.
LOSS_RATE = 0.05
CRASH_FRACTION = 0.1
CRASH_ROUND = 3


def instance_seeds(seed: int, count: int) -> List[int]:
    """Seeds of a run's instances; the first is the run's seed itself."""
    derived = [
        int.from_bytes(hashlib.sha256(f"perfbench:{seed}:{j}".encode()).digest()[:4], "little")
        for j in range(1, count)
    ]
    return [seed, *derived]


# -- inputs ---------------------------------------------------------------------------


def sim_victims(seed: int, slot: int, n: int) -> Dict[int, int]:
    """Crash victims of one sim instance; fixed by its graph and slot."""
    return survivable_crashes(repro.random_k_out(n, seed=seed, k=KOUT), PROTOCOL_SEED + slot)


def sim_inputs(
    workload: Workload, seed: int, slot: int, n: int, victims: Mapping[int, int]
) -> Tuple[Any, Dict[str, Any]]:
    """The graph and ``discover()`` keyword arguments of one sim instance."""
    graph = repro.random_k_out(n, seed=seed, k=KOUT)
    draws = PROTOCOL_SEED + slot
    faults = FaultPlan(loss_rate=LOSS_RATE, crash_rounds=dict(victims), seed=draws)
    return graph, {
        "seed": draws,
        "goal": workload.goal,
        "delivery": workload.delivery,
        "fault_plan": faults,
    }


def survivable_crashes(graph: KnowledgeGraph, seed: int) -> Dict[int, int]:
    """Crash victims whose loss leaves the survivors' initial graph connected.

    A survivor whose only contacts all crash, and whom no survivor knows,
    can never be discovered: such a draw (about one in twenty at n=512)
    is an unsolvable problem, not a slow one, so the victims are drawn
    again from the next seed.
    """
    for attempt in itertools.count():
        victims = crash_fraction_plan(
            graph.node_ids, CRASH_FRACTION, CRASH_ROUND, seed=seed + attempt
        ).crash_rounds
        crashed = set(victims)
        survivors = KnowledgeGraph(
            {node: graph.out(node) - crashed for node in graph if node not in crashed}
        )
        if survivors.is_weakly_connected():
            return dict(victims)


def live_spec(workload: Workload, seed: int, n: int) -> ClusterSpec:
    return ClusterSpec(n=n, topology="kout", algorithm=workload.algorithm, seed=seed)


# -- reference outputs -------------------------------------------------------------------


class _KeepEngine(Observer):
    """Keeps the engine of a ``discover()`` call for checks made after it.

    With *sample_rss* it also samples the resident set once the engine is
    set up and resets the process's peak there, so the peak read after
    the call is this call's own.
    """

    def __init__(self, sample_rss: bool = False) -> None:
        self.engine: Any = None
        self.sample_rss = sample_rss
        self.rss_setup_mb = 0.0
        self.known_setup = 0

    def on_setup(self, engine: Any) -> None:
        self.engine = engine
        if self.sample_rss:
            self.rss_setup_mb = current_rss_mb()
            reset_peak_rss()
            self.known_setup = sum(len(known) for known in engine.knowledge.values())


class _Digest(Observer):
    def on_finish(self, engine: Any, completed: bool) -> None:
        self.digest = engine.knowledge_digest()


def reference(workload: Workload, seed: int, slot: int, n: int) -> Dict[str, Any]:
    """Expected digest and counts of one instance, from an independent path."""
    if workload.live:
        spec = live_spec(workload, seed, n)
        digest, sim_rounds = reference_digest(spec)
        result = repro.discover(
            spec.build_graph(), workload.algorithm, seed=seed, backend="legacy"
        )
        # A live cluster flags closure one round after the simulator.
        rounds = sim_rounds + 1
    else:
        graph, kwargs = sim_inputs(workload, seed, slot, n, sim_victims(seed, slot, n))
        observer = _Digest()
        result = repro.discover(
            graph, workload.algorithm, backend="legacy", observers=[observer], **kwargs
        )
        digest, rounds = observer.digest, result.rounds
    if not result.completed:
        raise RuntimeError(f"{workload.name} seed {seed}: reference run did not complete")
    return {
        "digest": digest,
        "rounds": rounds,
        "messages": result.messages,
        "pointers": result.pointers,
    }


# -- measurement -----------------------------------------------------------------------


def current_rss_mb() -> float:
    """Resident set size of this process now (0 where /proc is absent)."""
    try:
        with open("/proc/self/statm") as statm:
            pages = int(statm.read().split()[1])
    except OSError:
        return 0.0
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def reset_peak_rss() -> None:
    """Reset this process's peak resident set to its current size (Linux)."""
    try:
        with open("/proc/self/clear_refs", "w") as clear_refs:
            clear_refs.write("5")
    except OSError:
        pass


def peak_rss_since_reset_mb() -> float:
    """Peak resident set since :func:`reset_peak_rss` (``VmHWM``; 0 without /proc)."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return 0.0


def _timed(call, *args, **kwargs):
    gc.collect()
    start = perf_counter()
    value = call(*args, **kwargs)
    return value, perf_counter() - start


async def _timed_async(awaitable_factory):
    gc.collect()
    start = perf_counter()
    value = await awaitable_factory()
    return value, perf_counter() - start


class Instance:
    """One problem of a workload's mix, with its reference and its run records."""

    def __init__(
        self, workload: Workload, seed: int, slot: int, n: int, expected: Mapping[str, Any]
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.slot = slot
        self.n = n
        self.expected = dict(expected)
        self.node_class = type(
            repro.get_algorithm(workload.algorithm).node_factory()(0)
        )
        #: The sim instance's crash victims; redrawing them is the
        #: benchmark's own filtering, so it stays out of ``setup_s``.
        self.victims = None if workload.live else sim_victims(seed, slot, n)
        #: The live read phase's lookups; the same trace on every pass.
        self.lookups = (
            repro.make_workload("zipf", n, seed=seed, requests=LOOKUPS) if workload.live else None
        )
        self.runs: List[Dict[str, Any]] = []
        self.baseline: List[Dict[str, Any]] = []

    def _check(self, outcome: Dict[str, Any], digest: str, counts: Mapping[str, int]) -> None:
        problems = []
        if digest != self.expected["digest"]:
            problems.append("digest differs from the reference")
        for key in COUNTS:
            if counts[key] != self.expected[key]:
                problems.append(f"{key} {counts[key]} != reference {self.expected[key]}")
        outcome.update(counts)
        outcome["problems"] = problems

    # -- simulator ------------------------------------------------------------------

    def run_sim(self, tracer: Optional[Tracer]) -> Dict[str, Any]:
        workload = self.workload
        (graph, kwargs), setup_s = _timed(
            sim_inputs, workload, self.seed, self.slot, self.n, self.victims
        )
        finish = _KeepEngine(sample_rss=tracer is not None)
        result, discover_s = _timed(
            repro.discover,
            graph,
            workload.algorithm,
            observers=[finish],
            profile=tracer is not None,
            **kwargs,
        )
        # Read before the checks below, whose allocations are not the call's.
        peak_after = peak_rss_since_reset_mb() if tracer is not None else 0.0
        engine = finish.engine
        outcome: Dict[str, Any] = {"setup_s": setup_s, "discover_s": discover_s}
        self._check(
            outcome,
            engine.knowledge_digest(),
            {"rounds": result.rounds, "messages": result.messages, "pointers": result.pointers},
        )
        if not result.completed:
            outcome["problems"].append("discovery did not complete")
        if tracer is not None:
            learned = sum(len(known) for known in engine.knowledge.values()) - finish.known_setup
            outcome["layers"] = sim_layers(tracer, result, finish, peak_after, learned)
        return outcome

    # -- live host --------------------------------------------------------------------

    def run_live(self, tracer: Optional[Tracer]) -> Dict[str, Any]:
        return asyncio.run(self._run_live(tracer))

    async def _run_live(self, tracer: Optional[Tracer]) -> Dict[str, Any]:
        spec = live_spec(self.workload, self.seed, self.n)
        gc.collect()
        start = perf_counter()
        cluster = LiveCluster(spec)
        try:
            await cluster.start()
            setup_s = perf_counter() - start
            report, discover_s = await _timed_async(cluster.run_discovery)
            runtimes = list(cluster.nodes.values())
            outcome: Dict[str, Any] = {"setup_s": setup_s, "discover_s": discover_s}
            self._check(
                outcome,
                report.digest,
                {
                    "rounds": report.rounds,
                    "messages": report.messages,
                    "pointers": sum(r.context.metrics.total_pointers for r in runtimes),
                },
            )
            suspects = sum(len(r.suspect_peers) for r in runtimes)
            dead = sum(len(r.dead_peers) for r in runtimes)
            if not report.complete:
                outcome["problems"].append("discovery did not complete")
            if suspects or dead:
                outcome["problems"].append(f"{suspects} suspect and {dead} dead peers")
            if tracer is not None:
                outcome["layers"] = live_discovery_layers(
                    tracer, len(runtimes), discover_s, suspects, dead
                )
            lookups, elapsed = await _timed_async(
                lambda: run_loadgen(
                    cluster.endpoints, trace=self.lookups, concurrency=CLIENTS, seed=self.seed
                )
            )
            outcome.update(
                read_s=elapsed,
                queries=lookups.requests,
                query_failed=lookups.errors if lookups.ring_valid else lookups.requests,
                latencies_ms=list(lookups.latencies_ms),
            )
        finally:
            await cluster.close()
        return outcome

    # -- one run ------------------------------------------------------------------------

    def run(self, traced: bool = False) -> Dict[str, Any]:
        """Run the instance once; failures are recorded, never raised."""
        tracer = Tracer().install(self.node_class) if traced else None
        try:
            runner = self.run_live if self.workload.live else self.run_sim
            outcome = runner(tracer)
        except Exception:  # one broken run must not hide the others' figures
            outcome = {"problems": ["raised:\n" + traceback.format_exc()]}
        finally:
            if tracer is not None:
                tracer.restore()
        if tracer is not None and not outcome["problems"]:
            layers = {name: 0.0 for name in PER_LAYER if name not in FROM_BASELINE}
            layers.update(outcome.get("layers", {}))
            layers.update(wire_layers(tracer))
            layers["live.node.query_s"] = tracer.total["query"]
            outcome["layers"] = layers
        return outcome


# -- per-layer figures -------------------------------------------------------------------


def sim_layers(tracer: Tracer, result: Any, finish: _KeepEngine, peak_mb: float, learned: int):
    """Per-layer figures of one traced ``discover()``.

    Engine learning is the profiled ``deliver`` phase less what the node's
    ``absorb`` and the delivery model spent inside it; engine dispatch is
    the ``dispatch`` phase less the delivery model's ``submit``.
    """
    phases = result.extra["phase_timings"]
    transport_deliver = tracer.self_time["transport_deliver"]
    return {
        "algorithms.run_round_s": tracer.self_time["run_round"],
        "algorithms.absorb_s": tracer.total["absorb"],
        "algorithms.absorb_calls": tracer.calls["absorb"],
        "sim.engine.legality_s": tracer.self_time["legality"],
        "sim.engine.learn_s": phases["deliver"] - tracer.total["absorb"] - transport_deliver,
        "sim.engine.dispatch_s": phases["dispatch"] - tracer.total["submit"],
        "sim.engine.goal_s": tracer.total["goal"],
        "sim.transport.submit_calls": tracer.calls["submit"],
        "sim.transport.submit_s": tracer.total["submit"],
        "sim.transport.deliver_s": transport_deliver,
        "sim.rss_setup_mb": finish.rss_setup_mb,
        "sim.rss_growth_mb": peak_mb - finish.rss_setup_mb,
        "sim.pointers_per_message": result.pointers / max(1, result.messages),
        "sim.dropped_fault": result.dropped_by_reason.get("fault", 0),
        "sim.dropped_crash": result.dropped_by_reason.get("crash", 0),
        "sim.useful_pointer_frac": learned / max(1, result.pointers),
    }


def live_discovery_layers(
    tracer: Tracer, nodes: int, discover_s: float, suspects: int, dead: int
) -> Dict[str, float]:
    """Live-node figures of one traced discovery, as a mean per node."""
    marker_wait = tracer.total["marker_wait"] / nodes
    return {
        "algorithms.run_round_s": tracer.self_time["run_round"],
        "algorithms.absorb_s": tracer.total["absorb"],
        "algorithms.absorb_calls": tracer.calls["absorb"],
        "live.node.send_s": tracer.total["send"] / nodes,
        "live.node.marker_wait_s": marker_wait,
        "live.node.marker_wait_frac": marker_wait / discover_s,
        "live.node.suspects": suspects,
        "live.node.dead": dead,
    }


def wire_layers(tracer: Tracer) -> Dict[str, float]:
    counts = tracer.counts
    round_frames = counts["frames_ptrs"] + counts["frames_eor"]
    return {
        "live.wire.encode_s": tracer.total["encode"],
        "live.wire.bytes_out": counts["bytes_out"],
        "live.wire.frames_hello": counts["frames_hello"],
        "live.wire.frames_ptrs": counts["frames_ptrs"],
        "live.wire.frames_eor": counts["frames_eor"],
        "live.wire.frames_query": counts["frames_query"],
        "live.wire.frames_in": counts["frames_in"],
        "live.marker_frame_frac": counts["frames_eor"] / round_frames if round_frames else 0.0,
    }


# -- a whole run ---------------------------------------------------------------------------


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    traced: bool,
    n: int,
    expected: Sequence[Mapping[str, Any]],
    calibrator: Optional[Calibrator] = None,
) -> List[Instance]:
    """Run passes over the workload's mix until *seconds* have been spent.

    The last pass stops when the time is up, once every instance has run
    ``MIN_PASSES`` times.  With a *calibrator*, the box's speed is sampled
    after every instance run.

    A traced run pairs each traced instance run with an untraced run of the
    same instance, alternating which goes first: the untraced runs give
    the tracing overhead under the same conditions, and the lookup figures
    without tracing cost.
    """
    seeds = instance_seeds(seed, workload.instances)
    instances = [
        Instance(workload, s, slot, n, ref)
        for slot, (s, ref) in enumerate(zip(seeds, expected))
    ]
    start = perf_counter()
    passes = 0
    while passes < MIN_PASSES or perf_counter() - start < seconds:
        for instance in instances:
            if passes >= MIN_PASSES and perf_counter() - start >= seconds:
                break
            if not traced:
                instance.runs.append(instance.run())
            elif passes % 2:
                instance.runs.append(instance.run(traced=True))
                instance.baseline.append(instance.run())
            else:
                instance.baseline.append(instance.run())
                instance.runs.append(instance.run(traced=True))
            if calibrator is not None:
                calibrator.sample()
        passes += 1
    return instances


def _percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile, the convention of ``LoadgenReport``."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def _mix(instances: Sequence[Instance], value, baseline: bool = False) -> float:
    """Mean over the mix of each instance's median over its (untraced) runs."""
    return statistics.fmean(
        statistics.median(value(run) for run in (instance.baseline if baseline else instance.runs))
        for instance in instances
    )


def _pooled_percentile(instances: Sequence[Instance], fraction: float) -> float:
    """Mean over the mix of each instance's percentile over all its lookups.

    Pooling an instance's batches puts three times as many samples beyond
    its p99 as one batch does.
    """
    return statistics.fmean(
        _percentile([ms for run in instance.baseline for ms in run["latencies_ms"]], fraction)
        for instance in instances
    )


def summarize(
    instances: Sequence[Instance], traced: bool, speed: float = 1.0
) -> Dict[str, Any]:
    """The run's result object: correctness, operation counts and metrics.

    An operation is one discovery or one lookup.  A run with any failed
    operation reports no timings.  The end-to-end times are multiplied by
    *speed* (see ``calibrate``); ``wall`` keeps them as measured.
    """
    attempted = failed = 0
    problems: List[str] = []
    for instance in instances:
        for run in (*instance.runs, *instance.baseline):
            attempted += 1 + run.get("queries", 0)
            failed += bool(run["problems"]) + run.get("query_failed", 0)
            problems.extend(f"seed {instance.seed}: {p}" for p in run["problems"])
            if run.get("query_failed"):
                problems.append(f"seed {instance.seed}: {run['query_failed']} lookups failed")
    values: Dict[str, float] = {"success_frac": 1 - failed / attempted}
    if not failed and traced:
        for name in PER_LAYER:
            if name not in FROM_BASELINE:
                values[name] = _mix(instances, lambda run: run["layers"][name])
        values["trace.overhead_s"] = _mix(instances, lambda run: run["discover_s"]) - _mix(
            instances, lambda run: run["discover_s"], baseline=True
        )
        live = instances[0].workload.live
        values["live.query_per_s"] = (
            _mix(instances, lambda run: run["queries"] / run["read_s"], baseline=True)
            if live
            else 0.0
        )
        for name, fraction in (("live.query_p50_ms", 0.50), ("live.query_p99_ms", 0.99)):
            values[name] = _pooled_percentile(instances, fraction) if live else 0.0
    elif not failed:
        wall = {
            "setup_s": _mix(instances, lambda run: run["setup_s"]),
            "discover_s": _mix(instances, lambda run: run["discover_s"]),
            "speed": speed,
        }
        values.update(setup_s=wall["setup_s"] * speed, discover_s=wall["discover_s"] * speed)
        values["peak_rss_mb"] = peak_rss_mb()
        for key in COUNTS:
            values[key] = statistics.fmean(instance.runs[0][key] for instance in instances)
    units = {**END_TO_END, **PER_LAYER}
    names = PER_LAYER if traced else END_TO_END
    if failed or traced:
        wall = {}
    return {
        "correct": not failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]}
            for name in names
            if name in values
        },
        "problems": problems,
        "wall": wall,
    }
