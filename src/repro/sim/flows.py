"""Flow-level model of shared, capacitated resources.

Every ongoing activity in the simulated cluster — a compute phase burning
CPU cores, a local disk read, an HDFS transfer crossing two host links and
the switch backbone — is modelled as a *flow*: a fixed amount of work that
drains through a set of capacitated resources at a rate determined by
max-min fair sharing. This is the classic fluid approximation used by
flow-level network simulators, generalised so that CPU and disk bandwidth
are handled by the same solver:

* a **resource** has a capacity (cores, MB/s, ...);
* a **flow** traverses one or more resources and may carry a per-flow rate
  cap (e.g. a compute phase can use at most ``threads`` cores);
* rates are assigned by progressive filling: raise all unfrozen flows
  uniformly until some resource saturates (or a flow hits its cap), freeze
  the affected flows, repeat.

Whenever a flow starts or finishes, elapsed progress is settled; rates
are re-solved once per instant, by the flush that ends it, with the
*partitioned* solver (version ``partitioned-v3``). Work nobody waits
for is a *burn*: an instant's equal burns start at its flush as one
flow of ``count`` times the size, cap and weight, which weighted
max-min drains exactly like its separate members.

Resources whose flows could collectively exceed capacity are
*contended*. Each flow keeps the fill level at which it froze in its
last solve, and a change moves no freeze below its *reach*: the lowest
level a dropped flow froze at, or the lowest level at which a resource
that gained a flow can now saturate. A flush floods from each changed
resource across contended resources to the flows at or above its
reach, and refills just that region by progressive filling, each
resource's room net of the rates of the flows below the reach. Every
other flow keeps its rate — the change cannot reach it. Every
mutation settles all finite flows before rates change, so each fill
starts from the global settle clock, which is exact for
piecewise-constant rates. A flow whose resources are all uncontended
can never be bottlenecked: it belongs to no region and runs at
``min(weight * cap_level, cap)``. A flow that finishes or is cancelled
reports a rate of zero.

A rebalance keeps no utilisation books. A resource's usage is the sum of
its flows' rates, read on demand, and since a flow crosses each of its
resources at one rate, a resource's usage integral is the work of the
flows that crossed it: the network hands every flow it drops to the
attached recorder (``repro.sim.metrics``). A permanent flow has no
``size - remaining`` to read, so it banks ``rate * elapsed`` whenever
the solver resets its rate.

Every emitted table and service report carries the ``SOLVER_VERSION``
stamp. The region fills are checked against a from-scratch global
progressive fill kept in the test suite as a reference oracle (see
DESIGN.md).

The earliest upcoming completion is tracked by the environment's external
wake slot: re-aimed in place after every rebalance, it consumes a fresh
event id (ordering against same-instant kernel events exactly like a
freshly armed timeout) while leaving *zero* records in the kernel queue —
heavy churn no longer piles up stale timers. The model is deterministic
and exact for piecewise-constant rate sets.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Iterable, Optional, TYPE_CHECKING

from repro.errors import SimulationError
from repro.sim.engine import Environment

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.metrics import MetricRecorder

__all__ = ["Resource", "Flow", "FlowNetwork", "SOLVER_VERSION"]

#: Tolerance used when deciding a flow has fully drained.
_EPSILON = 1e-9

#: Version stamp of the rate solver, carried by every emitted table
#: and service report.
SOLVER_VERSION = "partitioned-v3"


_level_of = operator.attrgetter("_level")
_reach_of = operator.itemgetter(0)
_id_of = operator.attrgetter("id")


def _saturation_bound(resource: "Resource") -> float:
    """The lowest level at which ``resource`` can saturate while every
    solved flow keeps its level and rate and every unsolved flow rises
    from zero: a sweep over its flows in order of level."""
    flows = sorted(resource.flows, key=_level_of)
    weight = 0.0
    for flow in flows:
        weight += flow.weight
    room = resource.capacity
    for flow in flows:
        level = room / weight
        if level <= flow._level:
            return level
        room -= flow._rate
        weight -= flow.weight
    return math.inf


def _run_at_cap(flow: "Flow", now: float) -> None:
    """Set a flow that crosses no contended resource to its cap."""
    if flow.remaining is None:
        flow._banked += flow._rate * (now - flow._banked_at)
        flow._banked_at = now
    rate = flow.weight * flow._cap_level
    cap = flow.cap
    flow._rate = cap if cap < rate else rate
    flow._level = flow._cap_level


class Resource:
    """A capacitated resource flows drain through (a link, disk, or CPU)."""

    __slots__ = (
        "name",
        "capacity",
        "flows",
        "kind",
        "_network",
        "_contended",
        "_reach",
    )

    def __init__(self, name: str, capacity: float, kind: str = "generic"):
        if capacity <= 0:
            raise SimulationError(f"resource {name!r} needs positive capacity")
        self.name = name
        self.capacity = float(capacity)
        self.kind = kind
        # Insertion-ordered (dict-as-set) for deterministic iteration.
        self.flows: dict[Flow, None] = {}
        self._network: Optional["FlowNetwork"] = None
        #: Whether the flows crossing this resource at the last solve
        #: could collectively exceed its capacity (i.e. it can act as a
        #: bottleneck).
        self._contended = False
        #: The lowest fill level of a flow dropped from this resource since
        #: the last solve: no freeze below it can change.
        self._reach = math.inf

    @property
    def usage(self) -> float:
        """Aggregate rate of all flows currently crossing this resource."""
        if self._network is not None:
            self._network.flush()
        usage = 0.0
        for flow in self.flows:
            usage += flow._rate
        return usage

    def __repr__(self) -> str:
        return f"Resource({self.name!r}, cap={self.capacity:g}, kind={self.kind!r})"


class Flow:
    """A unit of work draining through a set of resources.

    ``size`` is in the same unit the resource capacities are expressed per
    second (bytes over a network link, core-seconds over a CPU). A flow
    with ``size=None`` never completes; these model permanent background
    load such as the paper's ``stress`` processes. Such a flow banks the
    work it did whenever the solver resets its rate, since it has no
    ``size - remaining`` to read its work from.
    """

    __slots__ = (
        "id",
        "resources",
        "size",
        "remaining",
        "cap",
        "weight",
        "_cap_level",
        "_level",
        "_rate",
        "_banked",
        "_banked_at",
        "done",
        "label",
        "_network",
    )

    _ids = itertools.count()

    def __init__(
        self,
        network: "FlowNetwork",
        resources: tuple[Resource, ...],
        size: Optional[float],
        cap: Optional[float],
        done: Optional["object"],
        label: str,
        weight: float = 1.0,
    ):
        self.id = next(Flow._ids)
        self.resources = resources
        self.size = None if size is None else float(size)
        self.remaining = self.size
        self.cap = cap
        self.weight = weight
        #: Fill level at which the cap binds; precomputed for the solver.
        self._cap_level = math.inf if cap is None else cap / weight
        #: Fill level at which the flow froze in its last solve; infinite
        #: until its first, so an unsolved flow sits above every reach.
        self._level = math.inf
        self._rate = 0.0
        #: Work a permanent flow did up to ``_banked_at``.
        self._banked = 0.0
        self._banked_at = network.env.now
        self.done = done
        self.label = label
        self._network = network

    @property
    def rate(self) -> float:
        """Current max-min fair rate (forces any pending rebalance)."""
        self._network.flush()
        return self._rate

    @property
    def work(self) -> float:
        """Work done so far, in units of ``size``.

        Progress since the network's last settle is computed on the side:
        settling here would change the float accumulation sequence of
        every live flow, and with it every completion time.
        """
        network = self._network
        now = network.env.now
        if self.remaining is None:
            return self._banked + self._rate * (now - self._banked_at)
        remaining = self.remaining - self._rate * (now - network._last_settle)
        return self.size - (remaining if remaining > 0.0 else 0.0)

    @property
    def permanent(self) -> bool:
        """Whether this flow never drains (background load)."""
        return self.remaining is None

    def cancel(self) -> None:
        """Remove the flow without firing its completion event."""
        self._network._remove(self, fire=False)

    def __repr__(self) -> str:
        # Formats from the raw ``_rate`` on purpose: reading the ``rate``
        # property forces a rebalance, and a __repr__ (e.g. printed from a
        # debugger) must never mutate solver state.
        return f"Flow({self.label!r}, rate={self._rate:g}, remaining={self.remaining})"


class FlowNetwork:
    """Max-min fair allocator over a set of shared resources.

    Rates are re-solved per contention group; see the module docstring.
    """

    def __init__(self, env: Environment):
        self.env = env
        self.resources: dict[str, Resource] = {}
        # Insertion-ordered (dict-as-set) for deterministic iteration.
        self._flows: dict[Flow, None] = {}
        # The finite (non-permanent) subset of _flows: the only flows the
        # settle/next-completion scans ever need to visit. On stressed
        # clusters permanent background flows dominate the population, so
        # scanning just this subset is a large constant-factor win.
        self._finite: dict[Flow, None] = {}
        #: The global settle clock: the last instant every finite flow's
        #: ``remaining`` was brought up to date.
        self._last_settle = env.now
        self._recorder: Optional["MetricRecorder"] = None
        self._dirty = False
        #: Resources whose flow set changed since the last solve, each
        #: with whether it gained a flow; the next solve re-derives
        #: contention for exactly these.
        self._retag: dict[Resource, bool] = {}
        #: Flows started since the last solve.
        self._new_flows: dict[Flow, None] = {}
        #: Burns of this instant not yet started: count per
        #: ``(resource, size)``.
        self._burns: dict[tuple[Resource, float], int] = {}
        # Pre-bound callbacks: scheduled on every rebalance and wake, so
        # avoid allocating a fresh bound method each time. The completion
        # timer itself is the environment's external wake slot (re-aimed
        # in place on every rebalance — zero queue entries).
        self._flush_cb = self.flush
        self._wake_cb = self._on_wake

    # -- construction ------------------------------------------------------

    def add_resource(self, name: str, capacity: float, kind: str = "generic") -> Resource:
        """Register a resource; names must be unique."""
        if name in self.resources:
            raise SimulationError(f"duplicate resource {name!r}")
        resource = Resource(name, capacity, kind)
        resource._network = self
        self.resources[name] = resource
        return resource

    def set_recorder(self, recorder: "MetricRecorder") -> None:
        """Attach a metrics recorder handed every flow that ends."""
        self._recorder = recorder

    # -- flow lifecycle ----------------------------------------------------

    def start_flow(
        self,
        size: Optional[float],
        resources: Iterable[Resource | str],
        cap: Optional[float] = None,
        label: str = "",
        weight: float = 1.0,
    ) -> Flow:
        """Begin draining ``size`` units through ``resources``.

        ``weight`` skews the fair share: a flow of weight w receives w
        times the rate of a weight-1 flow competing on the same
        bottleneck (subject to its cap). Weights < 1 model deprioritised
        background load such as non-containerised processes on a node
        whose cgroups favour YARN containers.

        Returns the :class:`Flow`; ``flow.done`` is an event that fires
        with the flow when it completes (absent for permanent flows).
        """
        resolved = tuple(resources)
        for item in resolved:
            if type(item) is str:
                resolved = tuple(
                    self.resources[r] if type(r) is str else r for r in resolved
                )
                break
        if not resolved:
            raise SimulationError("a flow needs at least one resource")
        if cap is not None and cap <= 0:
            raise SimulationError("flow cap must be positive")
        if size is not None and size < 0:
            raise SimulationError("flow size must be non-negative")
        if weight <= 0:
            raise SimulationError("flow weight must be positive")
        done = None if size is None else self.env.event()
        flow = Flow(self, resolved, size, cap, done, label, weight=weight)
        self._settle()
        if size is not None and size <= _EPSILON:
            # Zero-sized transfers complete immediately.
            flow.remaining = 0.0
            done.succeed(flow)
            return flow
        self._insert(flow)
        self._mark_dirty()
        return flow

    def burn(self, resource: Resource, size: float) -> None:
        """Drain ``size`` units through ``resource`` at up to one unit
        per second, with nobody waiting.

        Equal burns of one instant are counted until its flush, which
        starts each group as one flow of ``count`` times the size, cap
        and weight and no ``done`` event: each member would get
        ``min(1, level)``, the group exactly ``count`` times that.
        """
        if size <= _EPSILON:
            return
        key = (resource, size)
        burns = self._burns
        burns[key] = burns.get(key, 0) + 1
        self._mark_dirty()

    def _insert(self, flow: Flow) -> None:
        """Enter ``flow`` into the bookkeeping (the caller has settled)."""
        self._flows[flow] = None
        if flow.remaining is not None:
            self._finite[flow] = None
        retag = self._retag
        for resource in flow.resources:
            resource.flows[flow] = None
            retag[resource] = True
        self._new_flows[flow] = None

    def _drop(self, flow: Flow) -> None:
        """Detach ``flow`` from all bookkeeping (no settle, no event) and
        lower its resources' reach to the level it froze at."""
        self._flows.pop(flow, None)
        self._finite.pop(flow, None)
        self._new_flows.pop(flow, None)
        retag = self._retag
        level = flow._level
        for resource in flow.resources:
            resource.flows.pop(flow, None)
            if level < resource._reach:
                resource._reach = level
            retag.setdefault(resource, False)
        if self._recorder is not None:
            self._recorder.observe(flow)
        # A dead flow carries nothing: its rate must not outlive it.
        flow._rate = 0.0

    def _remove(self, flow: Flow, fire: bool) -> None:
        if flow not in self._flows:
            return
        # Settle first so peers (and the flow itself, if it tied with a
        # completion) account progress at the pre-removal rates.
        self._settle()
        self._drop(flow)
        if fire and flow.done is not None and not flow.done.triggered:
            flow.done.succeed(flow)
        self._mark_dirty()

    # -- mechanics ---------------------------------------------------------

    def _settle(self) -> None:
        """Account progress made since the last rate change.

        The settle clock is global on purpose: advancing ``remaining``
        for every live finite flow at every mutation instant keeps the
        floating-point accumulation sequence identical across runs and
        refactors, which pins completion times — and therefore whole
        experiment tables — bit for bit. Completions are normally
        handled by the wake timer; settling can still observe them when
        several flows tie exactly, and fires them in flow start order.

        Invariant: every live finite flow has ``remaining > _EPSILON``.
        Only this method lowers ``remaining``, and it drops a flow the
        moment it drains; a zero-sized flow is never inserted.
        """
        elapsed = self.env.now - self._last_settle
        if elapsed <= 0:
            return
        # Before the drops, so a dropped flow's work reads as settled.
        self._last_settle = self.env.now
        finished = None
        for flow in self._finite:
            rate = flow._rate
            if rate > 0:
                remaining = flow.remaining - rate * elapsed
                flow.remaining = remaining if remaining > 0.0 else 0.0
                if flow.remaining <= _EPSILON:
                    if finished is None:
                        finished = []
                    finished.append(flow)
        if finished:
            for flow in finished:
                self._drop(flow)
                if flow.done is not None and not flow.done.triggered:
                    flow.done.succeed(flow)

    def _classify(self, resource: Resource) -> bool:
        """Whether ``resource`` can bottleneck: its flows' caps sum past
        its capacity (an uncapped flow makes it contended outright)."""
        total = 0.0
        for flow in resource.flows:
            cap = flow.cap
            if cap is None:
                return True
            total += cap
        return total > resource.capacity + _EPSILON

    def _mark_dirty(self) -> None:
        """Defer the rebalance to the end of the current timestep.

        Several flows frequently start or finish at the same simulated
        instant (e.g. a task staging in all its inputs); since no time
        passes within a timestep, recomputing rates once afterwards is
        exact and much cheaper. Reading any rate before then forces the
        recomputation via :meth:`flush`.
        """
        if self._dirty:
            return
        self._dirty = True
        # Priority 2: after every ordinary event at this timestamp.
        self.env._schedule_deferred(self._flush_cb, priority=2)

    def flush(self, _arg: object = None) -> None:
        """Apply any deferred rebalance immediately.

        Every mutation but :meth:`burn` settles before marking, and the
        deferred flush runs within the same timestep, so this settles
        only when burns are pending, starts them, then re-solves the
        contention groups that changed.
        """
        if not self._dirty:
            return
        self._dirty = False
        burns = self._burns
        if burns:
            self._burns = {}
            self._settle()
            for (resource, size), count in burns.items():
                self._insert(Flow(
                    self, (resource,), count * size, float(count), None,
                    "burn", weight=count,
                ))
        self._rebalance_partitioned()

    def _rebalance_partitioned(self) -> None:
        """Re-solve the flows a change can reach.

        Contention is re-derived for each resource whose flow set
        changed. Progressive filling freezes flows in order of rising
        level, so a change to a resource moves no freeze below its
        *reach*: the lowest level a flow dropped from it froze at, or,
        if it gained a flow or became contended, the lowest level at
        which it can now saturate, whichever is lower. Each such
        resource that is contended now starts a solve at its reach; a
        resource that lost contention starts one from each of its flows
        at the lowest level among them.

        Starts are taken in increasing reach. Each floods across
        contended resources, but only to flows that are unsolved or
        froze at or above its reach (less ``_EPSILON``), and that region
        is refilled with each resource's room net of the rates of its
        flows outside the region, which froze below the reach and stand.
        Regions are disjoint: a start inside an earlier region was
        reached from a lower level, and no flow outside that region
        crosses one of its resources at or above a later start's reach.
        Every flow outside every region keeps its rate. A flow that
        crosses no contended resource runs at its cap (it has one: an
        uncapped flow contends every resource).
        """
        retagged = self._retag
        if retagged:
            self._retag = {}
            starts: list[tuple[float, Resource | Flow]] = []
            for resource, grew in retagged.items():
                reach = resource._reach
                resource._reach = math.inf
                if self._classify(resource):
                    if grew or not resource._contended:
                        resource._contended = True
                        bound = _saturation_bound(resource)
                        if bound < reach:
                            reach = bound
                    if reach < math.inf:
                        starts.append((reach, resource))
                elif resource._contended:
                    resource._contended = False
                    if resource.flows:
                        low = min(flow._level for flow in resource.flows)
                        starts += [(low, flow) for flow in resource.flows]
            starts.sort(key=_reach_of)
            now = self.env.now
            solved: set[Resource | Flow] = set()
            for reach, start in starts:
                if start in solved:
                    continue
                if type(start) is Flow:
                    stack = [r for r in start.resources if r._contended]
                    if not stack:
                        solved.add(start)
                        _run_at_cap(start, now)
                        continue
                else:
                    stack = [start]
                solved.update(stack)
                floor = reach - _EPSILON
                flows: dict[Flow, None] = {}
                rooms: dict[Resource, float] = {}
                while stack:
                    resource = stack.pop()
                    room = resource.capacity
                    for other in resource.flows:
                        if other._level < floor:
                            room -= other._rate
                        elif other not in flows:
                            flows[other] = None
                            for nxt in other.resources:
                                if nxt._contended and nxt not in solved:
                                    solved.add(nxt)
                                    stack.append(nxt)
                    rooms[resource] = room
                if flows:
                    solved.update(flows)
                    self._fill_component(sorted(flows, key=_id_of), rooms)
            # A new flow on a contended resource is in that resource's
            # region: it is unsolved, so above every reach.
            for flow in self._new_flows:
                if flow not in solved:
                    _run_at_cap(flow, now)
            self._new_flows = {}
        self._aim_wake()

    def _fill_component(
        self, flows: list[Flow], room: dict[Resource, float]
    ) -> None:
        """One progressive fill over a region: its ``flows``, in id
        order, and the contended resources linking them, each with its
        ``room`` net of the flows outside the region (consumed).

        Raises every unfrozen flow's fill level uniformly from zero until
        a resource saturates or a flow's cap binds, freezes those flows
        (recording the level) and repeats; a flow's rate at level ``lam``
        is ``min(cap, weight * lam)`` (weighted max-min). Every flow
        outside the region froze below any level the region's flows can
        freeze at, so counting it at its full rate from level zero moves
        no freeze. Uncontended resources are skipped outright —
        ``_classify`` already proved they can never bottleneck. A
        resource whose unfrozen weight is spent leaves the per-round
        scan for good: freezing only ever lowers that weight, so the
        scan would skip it in every later round anyway.
        """
        epsilon = _EPSILON
        # Per contended resource with unfrozen weight left (the scan, in
        # order): aggregate weight of unfrozen flows and headroom left
        # after already-frozen flows.
        weight_sum: dict[Resource, float] = dict.fromkeys(room, 0.0)
        now = self.env.now
        for flow in flows:
            if flow.remaining is None:
                flow._banked += flow._rate * (now - flow._banked_at)
                flow._banked_at = now
            flow._rate = 0.0
            weight = flow.weight
            for resource in flow.resources:
                if resource in weight_sum:
                    weight_sum[resource] += weight
        for resource in [r for r, w in weight_sum.items() if w <= epsilon]:
            del weight_sum[resource]
        unfrozen = dict.fromkeys(flows)
        # Capped flows ordered by the level at which their cap binds.
        capped = sorted(
            (f for f in unfrozen if f.cap is not None),
            key=lambda f: f._cap_level,
        )
        cap_count = len(capped)
        cap_index = 0
        level = 0.0
        while unfrozen:
            # Flows already frozen by a resource bottleneck must not
            # contribute a (stale) cap bound.
            while cap_index < cap_count and capped[cap_index] not in unfrozen:
                cap_index += 1
            delta = low = high = math.inf
            bottlenecks: list[Resource] = []
            for resource, active_weight in weight_sum.items():
                candidate = (room[resource] - level * active_weight) / active_weight
                if candidate < 0.0:
                    candidate = 0.0
                if candidate < low:
                    delta = candidate
                    low = delta - epsilon
                    high = delta + epsilon
                    bottlenecks = [resource]
                elif candidate <= high:
                    bottlenecks.append(resource)
            cap_bound = math.inf
            if cap_index < cap_count:
                cap_bound = capped[cap_index]._cap_level - level
            newly_frozen: list[Flow] = []
            if cap_bound < low:
                if cap_bound < 0.0:
                    cap_bound = 0.0
                level += cap_bound
            else:
                if not bottlenecks:
                    raise SimulationError("unconstrained flows in rebalance")
                level += delta
                for resource in bottlenecks:
                    newly_frozen += [f for f in resource.flows if f in unfrozen]
            # Every capped flow whose binding level has been reached
            # freezes too (this also covers the cap_bound branch above).
            while (
                cap_index < cap_count
                and capped[cap_index]._cap_level <= level + epsilon
            ):
                flow = capped[cap_index]
                cap_index += 1
                if flow in unfrozen:
                    newly_frozen.append(flow)
            if not newly_frozen:
                # Defensive: never loop forever on degenerate float input.
                newly_frozen = list(unfrozen)
            for flow in newly_frozen:
                if flow not in unfrozen:
                    continue
                weight = flow.weight
                rate = level * weight
                cap = flow.cap
                if cap is not None and cap < rate:
                    rate = cap
                flow._rate = rate
                flow._level = level
                del unfrozen[flow]
                for resource in flow.resources:
                    if resource in weight_sum:
                        room[resource] -= rate
                        active_weight = weight_sum[resource] - weight
                        if active_weight <= epsilon:
                            del weight_sum[resource]
                        else:
                            weight_sum[resource] = active_weight

    def _aim_wake(self) -> None:
        """Aim the environment's wake slot at the earliest completion.

        Each aim consumes a fresh event id, so the wake orders against
        same-instant kernel events exactly like a freshly armed timeout —
        but as an in-place slot update, not a queue entry, so heavy churn
        leaves nothing behind in the kernel heap. The delay is clamped a
        min-tick above ``now``: a sub-resolution delay would not advance
        the clock, the settle step would see zero elapsed time, and the
        wake would re-fire at the same instant forever.
        """
        next_in = math.inf
        for flow in self._finite:
            if flow._rate > _EPSILON:
                candidate = flow.remaining / flow._rate
                if candidate < next_in:
                    next_in = candidate
        if math.isinf(next_in):
            self.env.clear_wake()
            return
        min_tick = max(1.0, abs(self.env.now)) * 1e-12
        self.env.set_wake(self.env.now + max(next_in, min_tick), self._wake_cb)

    def _on_wake(self) -> None:
        """The completion timer: settle everyone (firing the flows that
        drained), then mark dirty unconditionally, so the instant's flush
        solves the completions with the flows started in reaction to
        them (and a min-tick wake that completed nothing re-aims)."""
        self._settle()
        self._mark_dirty()

    # -- introspection -----------------------------------------------------

    @property
    def active_flows(self) -> tuple[Flow, ...]:
        """Snapshot of the currently active flows."""
        return tuple(self._flows)
