"""The synchronous round engine.

:class:`SynchronousEngine` executes a discovery protocol over an initial
knowledge graph, enforcing the communication model of DESIGN.md section 1:

* a machine may message only machines it currently knows;
* a message may carry only identifiers its sender currently knows;
* recipients learn the sender and every carried identifier at the end of
  the sending round, and act on the message in the following round.

The engine keeps *ground-truth* knowledge sets independently of the
protocol's own bookkeeping.  Ground truth drives the legality checks, the
goal predicates, and — via observers — the lower-bound experiments, so a
buggy or adversarial protocol cannot misreport its own progress.

Delivery semantics — which round a submitted message lands, and whether
it is filtered in flight — live in the pluggable delivery models of
:mod:`repro.sim.transport`.  The engine's round loop is *protocol step →
transport submit → transport deliver → absorb*; it owns the knowledge
ground truth and the legality guard, while the bound
:class:`~repro.sim.transport.DeliveryModel` owns scheduling (lockstep,
bounded jitter, per-link latency, adversarial delay) and delivery-time
vetoes (partition windows).  Bounded jitter is ``delivery="jitter:J"``;
``"jitter:0"`` delivers every message after exactly one round, as
lockstep does.

Three interchangeable execution backends are provided (selected by the
``backend`` constructor parameter — ``"legacy"``, ``"fast"``, or
``"vector"``) and proven equivalent by the differential suite under
``tests/sim/`` and the oracle's differential runner.  ``backend=None`` means
:func:`resolve_backend`, the one default rule for every entry point (the
engine, :func:`repro.discover`, the bench harness and the CLI): ``fast``
below :data:`VECTOR_DEFAULT_MIN_N` machines, ``vector`` from there up.
Callers that want the reference path pass ``backend="legacy"``.

* the **legacy path** (``backend="legacy"``) walks every
  carried pointer in interpreted per-id loops — simple, obviously
  correct, and the reference implementation;
* the **dense fast path** (``backend="fast"``) remaps the opaque machine
  ids onto ``[0, n)`` (:func:`repro.graphs.idspace.dense_index`) and
  represents each machine's ground-truth knowledge as an
  arbitrary-precision integer bitmask.  The bitmasks carry all the
  *counting* work — completion tracking via popcount, the weak-goal test
  via a word-parallel running AND, alive-coverage deltas via masked
  popcounts — replacing the legacy path's per-id counter maintenance.
  Delivery-time learning is bounded by the **candidate mask**
  ``(mask[sender] | sender_bit) & ~mask[recipient]``: for legal traffic
  the carried ids are a subset of the sender's knowledge, so the
  candidate mask upper-bounds what a delivery can teach.  A zero
  candidate mask proves the message teaches nothing in a handful of word
  operations; a small one is enumerated bit-by-bit and probed against the
  message; only a large one falls back to a C-level set difference.
  Complete recipients are skipped outright, and per-message metrics
  collapse into one
  :meth:`~repro.sim.metrics.MetricsCollector.record_batch` per round.

* the **vector backend** (``backend="vector"``) lifts the same dense
  remap into one bit-packed numpy ``uint8`` matrix of shape
  ``(n, ceil(n/8))`` (:mod:`repro.sim.vector_kernel`) so a whole round
  of pointer delivery becomes a handful of batched row-wise ``OR`` /
  ``AND``-``NOT`` operations: one boolean gather skips every delivery to
  an already-complete recipient, a chunked matrix screen proves which of
  the remaining messages can teach anything at all, and only those pay
  the ``np.packbits`` protocol-boundary translation.  It honours the
  exact same observer hooks, :meth:`knowledge_digest`, and delivery-model
  seam as the other two backends (every delivery model works, including
  :class:`~repro.sim.transport.AdversarialScheduler` — its non-uniform
  delays simply use the per-message dispatch loop), and the oracle's
  differential runner holds it per-round digest-identical to the fast
  path.

The fast path keeps the ground-truth *sets* behind :attr:`knowledge` in
one of two regimes.  With ``enforce_legality=True`` they are maintained
eagerly (the legality guard needs them for its one-``issuperset``-probe
per message).  With ``enforce_legality=False`` the bitmasks are the only
eagerly-maintained truth and the sets are materialized lazily — first
access after a round extracts just the newly-set bits — so a run that
never reads :attr:`knowledge` (the common benchmark case) never pays for
set maintenance at all.  Note the contract this rests on:
``enforce_legality=False`` is a *promise* that the protocol is legal,
not a license to cheat — an illegal protocol run without enforcement has
undefined ground truth on either path (the legacy path happens to learn
smuggled real ids; the fast path happens not to).  Run anything
untrusted with the default ``enforce_legality=True``, where all
backends raise identical :class:`ProtocolViolation`\\ s.  The vector
backend keeps the sets lazily in *both* regimes: with enforcement on
they are synchronized once at the start of every round (knowledge only
changes at round boundaries, so that is exactly when the legality guard
needs them current), and without enforcement only on external
:attr:`knowledge` reads.

See docs/PERF.md for the measured effect of each of these changes.
"""

from __future__ import annotations

import hashlib
import math
from operator import attrgetter
from time import perf_counter
from typing import (
    Any,
    Callable,
    Collection,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..graphs.idspace import dense_index
from ..graphs.knowledge import digest_knowledge
from .churn import JoinPlan
from .errors import EngineStateError, ProtocolViolation, UnknownNodeError
from .faults import FaultInjector, FaultPlan
from .messages import Message, tally_by_kind
from .metrics import DROP_CRASH, DROP_DORMANT, MetricsCollector, RunResult
from .node import ProtocolNode
from .observers import Observer
from .rng import derive_rng
from .transport import DeliveryModel, Lockstep, parse_delivery
from .vector_kernel import VectorState, np, pack_message_ids

NodeFactory = Callable[[int], ProtocolNode]
GoalPredicate = Callable[["SynchronousEngine"], bool]

#: Named goal predicates selectable by string.
GOALS = ("strong", "weak", "strong_alive")

#: Engine execution backends selectable by string.
BACKENDS = ("legacy", "fast", "vector")

#: Size at which the default backend switches from ``fast`` to
#: ``vector``.  The crossover point: below it the fast path's per-message
#: Python-int ops win on constant factors; above it the vector backend's
#: batched screens dominate (and the fast path's pow2 table ages out at
#: n > 2**14 anyway).  Gated on the oracle's vector-vs-fast differential
#: coverage — see :func:`repro.oracle.differential.diff_vector_vs_fast`.
VECTOR_DEFAULT_MIN_N = 8192

#: Phase keys reported by the ``profile=True`` timing hooks.
PROFILE_PHASES = ("protocol", "dispatch", "deliver", "observers")

_EMPTY_INBOX: Tuple[Message, ...] = ()

#: C-level field extractor for the batched recipient-existence screen.
_recipient_of = attrgetter("recipient")

#: Largest n for which the fast path keeps a per-id power-of-two table
#: (``{id: 1 << bit}``).  The table costs Θ(n²/8) bytes (32 MiB at the
#: cutoff); beyond it, masks are assembled through a byte buffer instead.
_POW2_TABLE_MAX_N = 1 << 14


def resolve_backend(n: int, backend: Optional[str] = None) -> str:
    """The engine backend a run over *n* machines executes on.

    An explicit *backend* wins; otherwise ``fast`` below
    :data:`VECTOR_DEFAULT_MIN_N` machines and ``vector`` from there up.
    """
    if backend is not None:
        return backend
    return "vector" if n >= VECTOR_DEFAULT_MIN_N else "fast"


def default_max_rounds(n: int) -> int:
    """A generous default round cap: far above every shipped algorithm's
    needs (which are polylogarithmic), yet low enough that a livelocked
    protocol fails fast in tests."""
    return 200 + 60 * max(1, math.ceil(math.log2(n + 1)))


def _normalize_graph(
    graph: Union[Mapping[int, Collection[int]], Any],
) -> Dict[int, frozenset[int]]:
    """Accept a KnowledgeGraph-like object or a plain adjacency mapping."""
    if hasattr(graph, "node_ids") and hasattr(graph, "out"):
        return {node: frozenset(graph.out(node)) for node in graph.node_ids}
    if isinstance(graph, Mapping):
        return {node: frozenset(neighbors) for node, neighbors in graph.items()}
    raise TypeError(f"unsupported graph type: {type(graph).__name__}")


class SynchronousEngine:
    """Runs one protocol instance per machine in lock-step rounds.

    Args:
        graph: Initial knowledge graph — a :class:`repro.graphs.KnowledgeGraph`
            or a mapping ``{node_id: out_neighbors}``.
        node_factory: Called once per node id to build its protocol node.
        seed: Master seed; all protocol and fault randomness derives from it.
        goal: ``"strong"`` (everyone knows everyone), ``"weak"`` (some node
            knows everyone and everyone knows it), ``"strong_alive"``
            (every non-crashed node knows every non-crashed node), or a
            custom predicate over the engine.
        fault_plan: Optional :class:`repro.sim.faults.FaultPlan`.
        join_plan: Optional :class:`repro.sim.churn.JoinPlan` — machines
            listed in it are dormant (not executing, unreachable) until
            their join round.
        delivery: Delivery model — a
            :class:`repro.sim.transport.DeliveryModel` instance or a spec
            string (``"lockstep"``, ``"jitter:2"``, ``"adversarial:3"``,
            ``"perlink:2"``, ``"partition:4-8"``; see
            :func:`repro.sim.transport.parse_delivery`).  ``None`` (the
            default) means lockstep.
        observers: Read-only observers notified per round.
        enforce_legality: Verify the ids of every message against the
            sender's ground-truth knowledge.  Costs O(total pointers) on
            both paths; benchmarks may disable it, tests keep it on.
        backend: Execution backend by name — ``"legacy"``, ``"fast"``,
            or ``"vector"`` (the bit-packed numpy kernel).  ``None`` (the
            default) means :func:`resolve_backend` of the graph size.
            Every backend produces bit-identical :class:`RunResult`\\ s;
            the differential test suite holds them equal.
        profile: Accumulate per-phase wall-clock timings (exposed as
            :attr:`phase_timings` and ``RunResult.extra["phase_timings"]``).
        algorithm_name / params: Metadata copied into the result.
    """

    def __init__(
        self,
        graph: Union[Mapping[int, Collection[int]], Any],
        node_factory: NodeFactory,
        *,
        seed: int = 0,
        goal: Union[str, GoalPredicate] = "strong",
        fault_plan: Optional[FaultPlan] = None,
        join_plan: Optional[JoinPlan] = None,
        delivery: Optional[Union[str, DeliveryModel]] = None,
        observers: Iterable[Observer] = (),
        enforce_legality: bool = True,
        backend: Optional[str] = None,
        profile: bool = False,
        algorithm_name: str = "custom",
        params: Optional[Mapping[str, Any]] = None,
    ) -> None:
        adjacency = _normalize_graph(graph)
        self.node_ids, self._index = dense_index(adjacency)
        if not self.node_ids:
            raise ValueError("cannot simulate an empty graph")
        self.n = len(self.node_ids)
        self._id_set = frozenset(self.node_ids)
        for node, neighbors in adjacency.items():
            stray = neighbors - self._id_set
            if stray:
                raise UnknownNodeError(
                    f"node {node} initially knows non-existent nodes {sorted(stray)[:5]}"
                )

        self.seed = seed
        self.goal = goal
        self._goal_fn = self._resolve_goal(goal)
        self.enforce_legality = enforce_legality
        backend = resolve_backend(self.n, backend)
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        self.backend = backend
        self.profile = bool(profile)
        self._phase_timings: Dict[str, float] = dict.fromkeys(PROFILE_PHASES, 0.0)
        self.algorithm_name = algorithm_name
        self.params: Dict[str, Any] = dict(params or {})
        self.metrics = MetricsCollector()
        self.observers: Tuple[Observer, ...] = tuple(observers)
        self._faults = FaultInjector(fault_plan, seed)
        self._joins = join_plan or JoinPlan()
        for node in self._joins.join_rounds:
            if node not in self._id_set:
                raise UnknownNodeError(f"join plan lists unknown node {node}")
        model = Lockstep() if delivery is None else parse_delivery(delivery)
        self.delivery: DeliveryModel = model.bind(self)
        self._wants_deliveries = any(
            getattr(observer, "wants_deliveries", False)
            for observer in self.observers
        )
        self._delivery_log: Optional[
            List[Tuple[Message, int, Optional[str]]]
        ] = [] if self._wants_deliveries else None

        # Ground-truth knowledge and its derived counters.  ``_ksets`` is
        # the storage behind the public ``knowledge`` property; on the
        # no-enforcement fast path it is synchronized lazily from the
        # bitmasks (``_ksets_stale`` / ``_kcache_masks``).
        self._ksets: Dict[int, Set[int]] = {}
        self._ksets_stale = False
        self._complete_nodes = 0
        self._alive: Set[int] = set(self.node_ids)
        for node in self.node_ids:
            initial = set(adjacency[node])
            initial.add(node)
            self._ksets[node] = initial
        if self.backend == "fast":
            self._init_fast_state()
        elif self.backend == "vector":
            self._init_vector_state()
        else:
            self._init_legacy_state()
        self._rebuild_alive_counters()

        # Protocol nodes.
        self.nodes: Dict[int, ProtocolNode] = {}
        for node in self.node_ids:
            protocol = node_factory(node)
            if protocol.node_id != node:
                raise EngineStateError(
                    f"factory returned node id {protocol.node_id} for {node}"
                )
            protocol.bind(adjacency[node], derive_rng(seed, "node", node))
            self.nodes[node] = protocol

        self.round_no = 0
        self._inboxes: Dict[int, List[Message]] = {}
        self._finished = False
        for observer in self.observers:
            observer.on_setup(self)

    # -- state initialization -----------------------------------------------------

    def _init_legacy_state(self) -> None:
        self._known_by: Dict[int, int] = {node: 0 for node in self.node_ids}
        for node in self.node_ids:
            for target in self._ksets[node]:
                self._known_by[target] += 1
        for node in self.node_ids:
            if len(self._ksets[node]) == self.n:
                self._complete_nodes += 1

    def _init_fast_state(self) -> None:
        n = self.n
        self._mask_nbytes = (n + 7) >> 3
        self._full_mask = (1 << n) - 1
        if n <= _POW2_TABLE_MAX_N:
            self._pow2: Optional[Dict[int, int]] = {
                node: 1 << bit for node, bit in self._index.items()
            }
        else:
            self._pow2 = None
        self._kmasks = [
            self._mask_from_ids(self._ksets[node]) for node in self.node_ids
        ]
        self._ksizes = [mask.bit_count() for mask in self._kmasks]
        self._complete_mask = 0
        for idx, size in enumerate(self._ksizes):
            if size == n:
                self._complete_nodes += 1
                self._complete_mask |= 1 << idx
        if not self.enforce_legality:
            # Mask-only regime: the sets are a lazily-synchronized cache.
            self._kcache_masks = list(self._kmasks)

    def _init_vector_state(self) -> None:
        state = VectorState(self.n)
        index = self._index
        for node in self.node_ids:
            state.seed_row(
                index[node], [index[target] for target in self._ksets[node]]
            )
        self._complete_nodes = int(state.complete.sum())
        self._vstate = state
        # ``{row_index: row value at the last knowledge-set sync}`` — the
        # vector analogue of ``_kcache_masks``, kept sparse so rows that
        # never change (the steady-state common case) cost nothing.
        self._vdirty: Dict[int, Any] = {}

    @property
    def knowledge(self) -> Dict[int, Set[int]]:
        """Ground-truth knowledge sets, keyed by machine id.

        Always current when read.  On the no-enforcement fast path the
        round loop maintains only the bitmasks; this accessor extracts
        the bits set since the last access before handing the dict out.
        """
        if self._ksets_stale:
            self._sync_knowledge_sets()
        return self._ksets

    def _sync_knowledge_sets(self) -> None:
        """Fold mask growth since the last sync back into the sets.

        Monotonicity makes this cheap: knowledge only ever grows, so each
        node costs one integer comparison plus one ``set.add`` per
        *newly*-set bit — O(total learning) over a whole run no matter
        how often it is called.
        """
        node_ids = self.node_ids
        ksets = self._ksets
        if self.backend == "vector":
            state = self._vstate
            for idx, cached_row in self._vdirty.items():
                known = ksets[node_ids[idx]]
                for bit in state.row_new_bits(idx, cached_row).tolist():
                    known.add(node_ids[bit])
            self._vdirty.clear()
            self._ksets_stale = False
            return
        kmasks = self._kmasks
        cache = self._kcache_masks
        for idx, mask in enumerate(kmasks):
            fresh = mask & ~cache[idx]
            if fresh:
                known = ksets[node_ids[idx]]
                while fresh:
                    low = fresh & -fresh
                    known.add(node_ids[low.bit_length() - 1])
                    fresh ^= low
                cache[idx] = mask
        self._ksets_stale = False

    @property
    def phase_timings(self) -> Dict[str, float]:
        """Accumulated per-phase seconds (all zero unless ``profile=True``)."""
        return dict(self._phase_timings)

    def _mask_from_ids(self, ids: Collection[int]) -> int:
        """Translate a duplicate-free collection of real machine ids into
        a dense bitmask.

        Only ever called on clean inputs (initial adjacencies, freshly
        computed new-knowledge sets, the alive set), so no stray filtering
        is needed.  With the power-of-two table the translation runs
        entirely in C loops (the ids are distinct, so summing their
        distinct powers of two equals a bitwise OR); past the table's
        memory cutoff a byte buffer is filled instead.
        """
        pow2 = self._pow2
        if pow2 is not None:
            return sum(map(pow2.__getitem__, ids))
        index = self._index
        buf = bytearray(self._mask_nbytes)
        for target in ids:
            bit = index[target]
            buf[bit >> 3] |= 1 << (bit & 7)
        return int.from_bytes(buf, "little")

    def _mask_from_message_ids(self, ids: Collection[int]) -> int:
        """Translate protocol-supplied message ids into a dense bitmask.

        Unlike :meth:`_mask_from_ids` this tolerates dirty input —
        duplicate entries (deduplicated through a set) and, with legality
        enforcement off, ids naming no simulated machine (silently
        skipped, mirroring the legacy learning rule for strays)."""
        if not isinstance(ids, (set, frozenset)):
            ids = set(ids)
        pow2 = self._pow2
        if pow2 is not None:
            try:
                return sum(map(pow2.__getitem__, ids))
            except KeyError:
                return sum(pow2[target] for target in ids if target in pow2)
        index = self._index
        buf = bytearray(self._mask_nbytes)
        for target in ids:
            bit = index.get(target)
            if bit is not None:
                buf[bit >> 3] |= 1 << (bit & 7)
        return int.from_bytes(buf, "little")

    # -- goal predicates ----------------------------------------------------------

    def _resolve_goal(self, goal: Union[str, GoalPredicate]) -> GoalPredicate:
        if callable(goal):
            return goal
        if goal == "strong":
            return lambda engine: engine._complete_nodes == engine.n
        if goal == "weak":
            return lambda engine: engine.weak_leader() is not None
        if goal == "strong_alive":
            return lambda engine: engine._alive_complete == len(engine._alive)
        raise ValueError(f"unknown goal {goal!r}; expected one of {GOALS} or a callable")

    def weak_leader(self) -> Optional[int]:
        """The first node satisfying the weak-discovery condition, if any.

        Weak discovery needs a node that knows everyone *and* is known by
        everyone.  Any such node is strongly complete, so the scan is
        skipped outright while the incremental complete-node counter is
        zero — which is every round until the very end of a run.
        """
        if self._complete_nodes == 0:
            return None
        if self.backend == "vector":
            # Same reduction, one numpy call: bit j of the running AND
            # survives iff everyone knows machine j.
            state = self._vstate
            common = state.common_knowledge_row()
            np.bitwise_and(common, state.complete_row, out=common)
            bit = state.first_set_bit(common)
            return None if bit is None else self.node_ids[bit]
        if self.backend == "fast":
            # Bit j survives the AND of all knowledge masks iff everyone
            # knows machine j; intersecting with the complete-node mask
            # and taking the lowest surviving bit yields the first
            # qualifying node in sorted-id order.
            common = self._complete_mask
            for mask in self._kmasks:
                common &= mask
                if not common:
                    return None
            return self.node_ids[(common & -common).bit_length() - 1]
        n = self.n
        known_by = self._known_by
        for node in self.node_ids:
            if len(self._ksets[node]) == n and known_by[node] == n:
                return node
        return None

    # -- knowledge bookkeeping -----------------------------------------------------

    def _learn(self, node: int, new_ids: Iterable[int]) -> None:
        """Legacy-path learning rule (per-id reference implementation)."""
        knowledge = self._ksets[node]
        before = len(knowledge)
        alive = self._alive
        alive_gain = 0
        for target in new_ids:
            if target in knowledge:
                continue
            if target not in self._id_set:
                # Only reachable with legality enforcement disabled: a
                # protocol smuggled an id that names no simulated machine.
                # Ignoring it keeps ground truth well-defined.
                continue
            knowledge.add(target)
            self._known_by[target] += 1
            if target in alive:
                alive_gain += 1
        if len(knowledge) == self.n and before < self.n:
            self._complete_nodes += 1
        if alive_gain and node in alive:
            count = self._alive_known[node] + alive_gain
            self._alive_known[node] = count
            if count == len(alive):
                self._alive_complete += 1

    def _apply_mask(self, recipient: int, idx: int, add: int) -> None:
        """Fast-path learning core: fold a non-zero mask of genuinely new
        machines into a recipient's bitmask and maintain every derived
        counter with word-parallel operations (OR, popcount deltas)."""
        old = self._kmasks[idx]
        new = old | add
        self._kmasks[idx] = new
        size = new.bit_count()
        old_size = self._ksizes[idx]
        self._ksizes[idx] = size
        if size == self.n and old_size < self.n:
            self._complete_nodes += 1
            self._complete_mask |= 1 << idx
        if recipient in self._alive:
            if self._alive_mask == self._full_mask:
                alive_gain = size - old_size
            else:
                alive_gain = (add & ~old & self._alive_mask).bit_count()
            if alive_gain:
                count = self._alive_known[recipient] + alive_gain
                self._alive_known[recipient] = count
                if count == len(self._alive):
                    self._alive_complete += 1

    def _apply_vector_deltas(self, old_rows: Mapping[int, Any]) -> None:
        """End-of-delivery counter maintenance for the vector backend.

        *old_rows* maps each row index that learned this round to a copy
        of its pre-round value; monotonicity makes ``new & ~old`` exactly
        what the round taught, from which every derived counter
        (completion, alive coverage, the lazy set cache) follows."""
        state = self._vstate
        node_ids = self.node_ids
        alive = self._alive
        alive_row = self._alive_row
        alive_target = len(alive)
        vdirty = self._vdirty
        for row_index, old_row in old_rows.items():
            gained = state.apply_delta(row_index, old_row)
            if gained == 0:
                continue
            if state.complete[row_index]:
                # A row that just gained bits cannot have been complete
                # before, so reaching completeness here is a transition.
                self._complete_nodes += 1
            self._ksets_stale = True
            if row_index not in vdirty:
                vdirty[row_index] = old_row
            node = node_ids[row_index]
            if node in alive:
                if alive_row is None:
                    alive_gain = gained
                else:
                    alive_gain = state.delta_alive_gain(
                        row_index, old_row, alive_row
                    )
                if alive_gain:
                    count = self._alive_known[node] + alive_gain
                    self._alive_known[node] = count
                    if count == alive_target:
                        self._alive_complete += 1

    def _rebuild_alive_counters(self) -> None:
        alive = self._alive
        if self.backend == "vector":
            state = self._vstate
            node_ids = self.node_ids
            if len(alive) == self.n:
                # Everyone alive: coverage of the alive set is plain
                # knowledge size, and the delta path can reuse its
                # popcounts directly (``_alive_row is None`` sentinel).
                self._alive_row = None
                self._alive_known = dict(
                    zip(node_ids, state.sizes.tolist())
                )
            else:
                index = self._index
                dense_alive = sorted(index[node] for node in alive)
                self._alive_row = state.pack_indices(dense_alive)
                counts = state.masked_popcounts(
                    np.asarray(dense_alive, dtype=np.intp), self._alive_row
                ).tolist()
                self._alive_known = {
                    node_ids[idx]: count
                    for idx, count in zip(dense_alive, counts)
                }
            target = len(alive)
            self._alive_complete = sum(
                1 for count in self._alive_known.values() if count == target
            )
            return
        if self.backend == "fast":
            alive_mask = self._mask_from_ids(alive)
            self._alive_mask = alive_mask
            kmasks = self._kmasks
            index = self._index
            self._alive_known = {
                node: (kmasks[index[node]] & alive_mask).bit_count() for node in alive
            }
        else:
            self._alive_known = {
                node: len(self._ksets[node] & alive) for node in alive
            }
        target = len(alive)
        self._alive_complete = sum(
            1 for count in self._alive_known.values() if count == target
        )

    def inject_knowledge(self, node: int, ids: Iterable[int]) -> bool:
        """Teach *node* the machine ids *ids* out of band, effective now.

        The sanctioned host-side injection seam (the protocol-node
        counterpart is :meth:`repro.sim.node.ProtocolNode.learn`): the
        dynamic-graph workload mode uses it to make new contact edges
        appear mid-run.  Ground truth is updated first and the protocol
        node second, so legality enforcement sees a consistent state and
        the node may immediately message its new contacts.  All three
        backends apply the same bits through their native learning seams
        (``_learn`` / ``_apply_mask`` / ``apply_delta``), keeping
        cross-backend knowledge digests identical.

        Call before :meth:`step` of the round the contact should exist
        in.  Ids naming no simulated machine are ignored (the legacy
        learning rule for strays).  Returns ``False`` without effect when
        *node* has crashed — fail-stop machines learn nothing; raises
        :class:`UnknownNodeError` for a *node* that never existed.
        """
        if self._finished:
            raise EngineStateError("engine already finished; build a new one")
        if node not in self._id_set:
            raise UnknownNodeError(f"unknown machine id {node}")
        if self._faults.is_crashed(node):
            return False
        new_ids = {
            target for target in ids if target in self._id_set and target != node
        }
        if new_ids:
            if self.backend == "vector":
                state = self._vstate
                index = self._index
                row_index = index[node]
                old_row = state.K[row_index].copy()
                state.or_into(
                    row_index,
                    state.pack_indices([index[target] for target in new_ids]),
                )
                self._apply_vector_deltas({row_index: old_row})
            elif self.backend == "fast":
                idx = self._index[node]
                add = self._mask_from_ids(new_ids) & ~self._kmasks[idx]
                if add:
                    if self.enforce_legality:
                        # Sets are maintained eagerly in legality mode.
                        self._ksets[node].update(new_ids)
                    else:
                        self._ksets_stale = True
                    self._apply_mask(node, idx, add)
            else:
                self._learn(node, new_ids)
        self.nodes[node].learn(new_ids)
        return True

    # -- execution -----------------------------------------------------------------

    def run(self, max_rounds: Optional[int] = None) -> RunResult:
        """Execute rounds until the goal holds or the cap is reached."""
        if self._finished:
            raise EngineStateError("engine already finished; build a new one")
        cap = max_rounds if max_rounds is not None else default_max_rounds(self.n)
        completed = self._goal_fn(self)
        while not completed and self.round_no < cap:
            self.step()
            completed = self._goal_fn(self)
        self._finished = True
        for observer in self.observers:
            observer.on_finish(self, completed)
        return self._build_result(completed)

    def step(self) -> None:
        """Execute exactly one synchronous round."""
        if self._finished:
            raise EngineStateError("engine already finished; build a new one")
        self.round_no += 1
        if self._delivery_log is not None:
            self._delivery_log = []
        newly_crashed = self._faults.apply_crashes(self.round_no)
        if newly_crashed:
            for node in newly_crashed:
                self._alive.discard(node)
                self._inboxes.pop(node, None)
            self._rebuild_alive_counters()

        if self.backend == "vector":
            self._step_vector()
        elif self.backend == "fast":
            self._step_fast()
        else:
            self._step_legacy()

        self.metrics.close_round(self.round_no)
        if self.observers:
            started = perf_counter() if self.profile else 0.0
            for observer in self.observers:
                observer.on_round_end(self, self.round_no)
            if self.profile:
                self._phase_timings["observers"] += perf_counter() - started

    def _step_legacy(self) -> None:
        """Reference round body: per-id loops, per-message metrics."""
        profile = self.profile
        tick = perf_counter() if profile else 0.0

        sends: List[Message] = []
        for node in self.node_ids:
            if self._faults.is_crashed(node):
                continue
            if self._joins.is_dormant(node, self.round_no):
                continue
            protocol = self.nodes[node]
            inbox = self._inboxes.pop(node, _EMPTY_INBOX)
            outbox = protocol.run_round(self.round_no, inbox)
            if outbox:
                if self.enforce_legality:
                    self._check_legality(node, outbox)
                sends.extend(outbox)

        if profile:
            now = perf_counter()
            self._phase_timings["protocol"] += now - tick
            tick = now

        delivery = self.delivery
        log = self._delivery_log
        for message in sends:
            if message.recipient not in self._id_set:
                raise UnknownNodeError(
                    f"node {message.sender} messaged non-existent node {message.recipient}"
                )
            reason = self._faults.send_drop_reason(message.sender, message.recipient)
            if reason is not None:
                self.metrics.record_send(message, dropped=True, reason=reason)
                if log is not None:
                    log.append((message, 0, reason))
                continue
            self.metrics.record_send(message)
            delivery.submit(message, self.round_no)

        if profile:
            now = perf_counter()
            self._phase_timings["dispatch"] += now - tick
            tick = now

        # Deliver everything scheduled for the start of the next round.
        # The delivery model re-checks crash and dormancy at delivery time
        # (a machine that died, or has not powered on, while a message was
        # in flight never receives it) and applies any model-specific
        # filtering; only surviving messages reach this loop.
        deliver_round = self.round_no + 1
        next_inboxes: Dict[int, List[Message]] = {}
        for message, _delay in delivery.deliver(deliver_round):
            recipient = message.recipient
            next_inboxes.setdefault(recipient, []).append(message)
            self._learn(recipient, message.ids)
            self._learn(recipient, (message.sender,))
            self.nodes[recipient].absorb(message)
        self._inboxes = next_inboxes

        if profile:
            self._phase_timings["deliver"] += perf_counter() - tick

    def _collect_sends_dense(
        self, crashed: Optional[Mapping[int, int]], joins: Optional[JoinPlan]
    ) -> List[Message]:
        """Protocol phase shared by the fast and vector backends: run
        every live, non-dormant node against its inbox and drain the
        outboxes, legality-checking each with the one-probe-per-message
        guard when enforcement is on."""
        round_no = self.round_no
        enforce = self.enforce_legality
        inboxes = self._inboxes
        sends: List[Message] = []
        for node, protocol in self.nodes.items():
            if crashed and node in crashed:
                continue
            if joins is not None and joins.is_dormant(node, round_no):
                continue
            inbox = inboxes.pop(node, _EMPTY_INBOX)
            outbox = protocol.run_round(round_no, inbox)
            if outbox:
                if enforce:
                    self._check_legality_fast(node, outbox)
                sends.extend(outbox)
        return sends

    def _dispatch_sends_dense(self, sends: List[Message]) -> None:
        """Dispatch phase shared by the fast and vector backends:
        batched per-kind accounting, the wholesale fault-free
        uniform-delay bucket hand-off, and the per-message fault/submit
        loop otherwise."""
        round_no = self.round_no
        enforce = self.enforce_legality
        delivery = self.delivery
        log = self._delivery_log
        if sends:
            messages_by_kind, pointers_by_kind = tally_by_kind(sends)
            dropped_fault = 0
            dropped_crash = 0
            faults = self._faults if self._faults.plan.has_faults else None
            id_set = self._id_set
            if faults is None and delivery.uniform_delay is not None:
                # Fault-free uniform delay (lockstep being the
                # overwhelmingly common case): the whole round's outbox
                # becomes one delivery bucket wholesale.  Legality
                # enforcement already proved every recipient real;
                # without it, one C-level superset probe screens the
                # batch and the per-message loop re-runs only to raise
                # the exact legacy error.
                if not enforce and not id_set.issuperset(
                    map(_recipient_of, sends)
                ):
                    for message in sends:
                        if message.recipient not in id_set:
                            raise UnknownNodeError(
                                f"node {message.sender} messaged "
                                f"non-existent node {message.recipient}"
                            )
                delivery.submit_bulk(sends, round_no)
            else:
                for message in sends:
                    recipient = message.recipient
                    # With legality enforcement on, the recipient is
                    # already known to be a real machine (it appears in
                    # the sender's ground truth, which only ever holds
                    # real ids).
                    if not enforce and recipient not in id_set:
                        raise UnknownNodeError(
                            f"node {message.sender} messaged non-existent node {recipient}"
                        )
                    if faults is not None:
                        reason = faults.send_drop_reason(message.sender, recipient)
                        if reason is not None:
                            if reason is DROP_CRASH:
                                dropped_crash += 1
                            else:
                                dropped_fault += 1
                            if log is not None:
                                log.append((message, 0, reason))
                            continue
                    delivery.submit(message, round_no)
            self.metrics.record_batch(
                messages_by_kind,
                pointers_by_kind,
                dropped_fault,
                dropped_by_reason=(
                    {DROP_CRASH: dropped_crash} if dropped_crash else None
                ),
            )

    def _screen_pending(
        self,
        pending: Sequence[Message],
        delays: Optional[Sequence[int]],
        next_round: int,
        crashed: Optional[Mapping[int, int]],
        joins: Optional[JoinPlan],
    ) -> List[Message]:
        """Delivery pre-pass shared by the fast and vector backends.

        Drops messages to crashed or dormant recipients and those the
        delivery model vetoes, counting each as an in-flight loss, logs
        every due message with its delay when an observer asked for
        deliveries, and returns the messages that will land."""
        metrics = self.metrics
        delivery = self.delivery
        log = self._delivery_log
        track = log is not None
        filters = delivery.filters_delivery
        delay = delivery.uniform_delay or 1
        delay_iter = iter(delays) if delays is not None else None
        kept: List[Message] = []
        keep = kept.append
        for message in pending:
            if delay_iter is not None:
                delay = next(delay_iter)
            recipient = message.recipient
            if crashed and recipient in crashed:
                reason = DROP_CRASH
            elif joins is not None and joins.is_dormant(recipient, next_round):
                reason = DROP_DORMANT
            elif filters:
                reason = delivery.drop_reason(message.sender, recipient, next_round)
            else:
                reason = None
            if reason is not None:
                metrics.record_in_flight_loss(reason)
            else:
                keep(message)
            if track:
                log.append((message, delay, reason))
        return kept

    def _step_fast(self) -> None:
        """Dense round body: bulk set operations, mask-mirrored counters,
        completion short-circuits, and batched accounting."""
        profile = self.profile
        tick = perf_counter() if profile else 0.0
        round_no = self.round_no
        enforce = self.enforce_legality

        crashed = self._faults.crashed_map
        joins = self._joins if self._joins.join_rounds else None
        nodes = self.nodes
        sends = self._collect_sends_dense(crashed, joins)

        if profile:
            now = perf_counter()
            self._phase_timings["protocol"] += now - tick
            tick = now

        next_round = round_no + 1
        delivery = self.delivery
        self._dispatch_sends_dense(sends)

        if profile:
            now = perf_counter()
            self._phase_timings["dispatch"] += now - tick
            tick = now

        next_inboxes: Dict[int, List[Message]] = {}
        pending, delays = delivery.pending(next_round)
        if pending:
            index = self._index
            kmasks = self._kmasks
            node_ids = self.node_ids
            pow2 = self._pow2
            full = self._full_mask
            ksets = self._ksets if enforce else None
            metrics = self.metrics
            learned = False
            if self._delivery_log is not None or delivery.filters_delivery:
                # Rare regime (tracing observer or filtering model):
                # resolve drops, delays, and logging in a pre-pass so the
                # learning loop below stays as lean as the plain case.
                pending = self._screen_pending(
                    pending, delays, next_round, crashed, joins
                )
                crashed = None
                joins = None
            for message in pending:
                recipient = message.recipient
                if crashed and recipient in crashed:
                    metrics.record_in_flight_loss(DROP_CRASH)
                    continue
                if joins is not None and joins.is_dormant(recipient, next_round):
                    metrics.record_in_flight_loss(DROP_DORMANT)
                    continue
                bucket = next_inboxes.get(recipient)
                if bucket is None:
                    next_inboxes[recipient] = [message]
                else:
                    bucket.append(message)
                # Learn, bounded by the candidate mask: everything this
                # delivery could teach is something the sender knows (it
                # is the sender, or legally carried) that the recipient
                # does not.  Knowledge is monotone, so the sender's
                # *current* mask still upper-bounds ids it sent earlier
                # (jitter) or before crashing.
                ri = index[recipient]
                kmr = kmasks[ri]
                if kmr != full:
                    sender = message.sender
                    si = index[sender]
                    sbit = pow2[sender] if pow2 is not None else 1 << si
                    cand = (kmasks[si] | sbit) & ~kmr
                    if cand:
                        ids = message.ids
                        setlike = isinstance(ids, (set, frozenset))
                        add = cand & sbit  # the sender itself is always learned
                        if setlike and cand.bit_count() * 4 <= len(ids):
                            # Few candidates, big message: enumerate the
                            # candidate bits and probe them against the
                            # message instead of scanning every pointer.
                            m = cand ^ add
                            if ksets is None:
                                while m:
                                    low = m & -m
                                    if node_ids[low.bit_length() - 1] in ids:
                                        add |= low
                                    m ^= low
                                if add:
                                    self._apply_mask(recipient, ri, add)
                                    learned = True
                            else:
                                fresh = [sender] if add else []
                                while m:
                                    low = m & -m
                                    nid = node_ids[low.bit_length() - 1]
                                    if nid in ids:
                                        add |= low
                                        fresh.append(nid)
                                    m ^= low
                                if add:
                                    ksets[recipient].update(fresh)
                                    self._apply_mask(recipient, ri, add)
                        elif ksets is None:
                            # Mask-only regime: translate the message once
                            # and intersect with the candidates.
                            add |= self._mask_from_message_ids(ids) & cand
                            if add:
                                self._apply_mask(recipient, ri, add)
                                learned = True
                        else:
                            # Sets are maintained eagerly (legality mode):
                            # one C-level difference yields the new ids.
                            known = ksets[recipient]
                            if setlike:
                                new_ids = ids - known
                            else:
                                new_ids = set(ids)
                                new_ids.difference_update(known)
                            if add:
                                # The difference of two frozensets is frozen.
                                if isinstance(new_ids, frozenset):
                                    new_ids = set(new_ids)
                                new_ids.add(sender)
                            if new_ids:
                                known |= new_ids
                                self._apply_mask(
                                    recipient, ri, self._mask_from_ids(new_ids)
                                )
                nodes[recipient].absorb(message)
            if learned:
                self._ksets_stale = True
        self._inboxes = next_inboxes

        if profile:
            self._phase_timings["deliver"] += perf_counter() - tick

    def _step_vector(self) -> None:
        """Bit-packed round body: one boolean gather and one chunked
        matrix screen decide which deliveries can teach; only those pay
        the packbits protocol-boundary translation and a row ``OR``.

        Per-message learning follows the exact fast-path candidate rule
        ``(ids | sender) & (K[sender] | sender) & ~K[recipient]``
        against the *current* rows, applied in delivery order, so the
        two backends stay digest-identical round by round.  The screen
        itself is evaluated against the rows as of the start of the
        delivery batch, which is sound because knowledge is monotone and
        legal traffic only carries ids its sender knew at send time (for
        illegal traffic with enforcement off, ground truth is undefined
        on every backend — see the module docstring)."""
        profile = self.profile
        tick = perf_counter() if profile else 0.0
        round_no = self.round_no

        if self.enforce_legality and self._ksets_stale:
            # The legality guard probes the knowledge *sets*; knowledge
            # last changed at the previous round boundary, so one sync
            # here makes them current for the whole protocol phase.
            self._sync_knowledge_sets()
        crashed = self._faults.crashed_map
        joins = self._joins if self._joins.join_rounds else None
        nodes = self.nodes
        sends = self._collect_sends_dense(crashed, joins)

        if profile:
            now = perf_counter()
            self._phase_timings["protocol"] += now - tick
            tick = now

        next_round = round_no + 1
        delivery = self.delivery
        self._dispatch_sends_dense(sends)

        if profile:
            now = perf_counter()
            self._phase_timings["dispatch"] += now - tick
            tick = now

        next_inboxes: Dict[int, List[Message]] = {}
        pending, delays = delivery.pending(next_round)
        if pending:
            state = self._vstate
            index = self._index
            if (
                self._delivery_log is not None
                or delivery.filters_delivery
                or crashed
                or joins is not None
            ):
                # Screening pre-pass: resolve crash/dormancy losses,
                # delivery-time filtering, and observer logging up front
                # so the batched phase below sees only messages that
                # will actually land.
                pending = self._screen_pending(
                    pending, delays, next_round, crashed, joins
                )
            if pending:
                count = len(pending)
                senders = np.fromiter(
                    (index[message.sender] for message in pending),
                    dtype=np.intp,
                    count=count,
                )
                recipients = np.fromiter(
                    (index[message.recipient] for message in pending),
                    dtype=np.intp,
                    count=count,
                )
                teaches = state.screen(senders, recipients).tolist()
                sender_list = senders.tolist()
                recipient_list = recipients.tolist()
                # ``{id(ids): packed row}`` for this batch: protocols
                # routinely send one snapshot object to many peers.
                pack_cache: Dict[int, Any] = {}
                # ``{row_index: pre-round row copy}`` for the delta pass.
                old_rows: Dict[int, Any] = {}
                for pos, message in enumerate(pending):
                    recipient = message.recipient
                    bucket = next_inboxes.get(recipient)
                    if bucket is None:
                        next_inboxes[recipient] = [message]
                    else:
                        bucket.append(message)
                    if teaches[pos]:
                        si = sender_list[pos]
                        ri = recipient_list[pos]
                        packed = pack_message_ids(
                            message.ids, si, index, state, pack_cache
                        )
                        add = state.message_add(si, ri, packed)
                        if add is not None:
                            if ri not in old_rows:
                                old_rows[ri] = state.K[ri].copy()
                            state.or_into(ri, add)
                    nodes[recipient].absorb(message)
                if old_rows:
                    self._apply_vector_deltas(old_rows)
        self._inboxes = next_inboxes

        if profile:
            self._phase_timings["deliver"] += perf_counter() - tick

    def _check_legality(self, node: int, outbox: Sequence[Message]) -> None:
        """Reference legality scan; raises on the first violation."""
        knowledge = self._ksets[node]
        for message in outbox:
            if message.recipient not in knowledge:
                raise ProtocolViolation(
                    node,
                    f"sent {message.kind!r} to unknown node {message.recipient}",
                )
            for target in message.ids:
                if target not in knowledge:
                    raise ProtocolViolation(
                        node,
                        f"{message.kind!r} message carries unknown id {target}",
                    )

    def _check_legality_fast(self, node: int, outbox: Sequence[Message]) -> None:
        """Whole-outbox legality guard for the fast path.

        Each message is validated with one C-level superset probe against
        the sender's ground truth instead of an interpreted per-id loop.
        On any suspected violation the reference scan re-runs to raise
        the exact legacy :class:`ProtocolViolation`.
        """
        known = self._ksets[node]
        for message in outbox:
            if message.recipient not in known or not known.issuperset(message.ids):
                self._check_legality(node, outbox)
                raise EngineStateError(  # pragma: no cover - defensive
                    f"legality fast path flagged node {node} but the "
                    "reference scan found no violation"
                )

    # -- results -------------------------------------------------------------------

    @property
    def alive_nodes(self) -> frozenset[int]:
        return frozenset(self._alive)

    @property
    def crashed_nodes(self) -> frozenset[int]:
        return self._faults.crashed_nodes

    def is_strongly_complete(self) -> bool:
        return self._complete_nodes == self.n

    def goal_reached(self) -> bool:
        """Whether the run's goal predicate holds right now.

        A read-only probe of the same predicate :meth:`run` consults after
        every step; external drivers (the differential runner, manual
        ``step()`` loops) use it to stop without calling :meth:`run`.
        """
        return bool(self._goal_fn(self))

    def knowledge_digest(self) -> str:
        """Canonical SHA-256 digest of the ground-truth knowledge state.

        Both execution paths digest the same byte string: each machine's
        knowledge rendered as a little-endian dense bitmask (bit ``i`` =
        ``node_ids[i]``), concatenated in sorted-id order — so a fast-path
        engine and a legacy engine in the same state produce the same
        digest, which is what the differential runner diffs round by
        round.  Ids naming no simulated machine (reachable only on the
        legacy path with legality enforcement off) are excluded, keeping
        the digest well-defined across paths.
        """
        digest = hashlib.sha256()
        nbytes = (self.n + 7) >> 3
        if self.backend == "vector":
            # The matrix *is* the canonical byte string: C-contiguous
            # little-endian packed rows in dense (sorted-id) order, so
            # one buffer-protocol update hashes the whole state without
            # materializing any intermediate bytes.
            digest.update(self._vstate.digest_view())
        elif self.backend == "fast":
            for mask in self._kmasks:
                digest.update(mask.to_bytes(nbytes, "little"))
        else:
            # The legacy path holds plain id sets — exactly the shape the
            # shared cross-host digest helper canonicalizes (the live
            # runtime digests its final state through the same function).
            return digest_knowledge({node: self._ksets[node] for node in self.node_ids})
        return digest.hexdigest()

    def _build_result(self, completed: bool) -> RunResult:
        extra: Dict[str, Any] = {}
        for observer in self.observers:
            extra.update(observer.extra())
        if self.profile:
            extra["phase_timings"] = dict(self._phase_timings)
        return RunResult(
            algorithm=self.algorithm_name,
            n=self.n,
            seed=self.seed,
            completed=completed,
            rounds=self.round_no,
            messages=self.metrics.total_messages,
            pointers=self.metrics.total_pointers,
            dropped_messages=self.metrics.total_dropped,
            messages_by_kind=dict(self.metrics.messages_by_kind),
            pointers_by_kind=dict(self.metrics.pointers_by_kind),
            dropped_by_reason=dict(self.metrics.dropped_by_reason),
            delivery_delays=dict(self.metrics.delivery_delays),
            round_stats=tuple(self.metrics.round_stats),
            params=dict(self.params),
            extra=extra,
        )
