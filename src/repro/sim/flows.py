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

Whenever a flow starts or finishes, elapsed progress is settled and rates
are recomputed by the *partitioned* solver (version ``partitioned-v2``).
Resources whose flows could collectively exceed capacity are *contended*,
and contended resources partition into connected components (a flow links
every contended resource it crosses). Components are rebuilt eagerly for
just the dirty region at each rebalance, and only the components whose
membership or contention changed are re-solved, each by an independent
progressive fill over its own flows and contended resources. Untouched
components keep their rates: their constraint set did not change, so
re-solving them would be pure waste — this is where the order-of-magnitude
win on churn-heavy clusters comes from. A component's effective settle
clock coincides with the global clock at each of its refill instants
(every mutation settles all finite flows before rates change), which is
exact for piecewise-constant rates; ``built_at`` stamps the instant the
component was last assembled.

Every emitted table and service report carries the ``SOLVER_VERSION``
stamp. The per-component fills are checked against a
from-scratch global progressive fill kept in the test suite as a
reference oracle (see DESIGN.md). Tables recorded under the retired
global solver stay in ``results/v1/``, next to the commit that
regenerates them.

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
SOLVER_VERSION = "partitioned-v2"


class Resource:
    """A capacitated resource flows drain through (a link, disk, or CPU)."""

    __slots__ = (
        "name",
        "capacity",
        "flows",
        "kind",
        "cached_usage",
        "_network",
        "_contended",
        "_component",
    )

    def __init__(self, name: str, capacity: float, kind: str = "generic"):
        if capacity <= 0:
            raise SimulationError(f"resource {name!r} needs positive capacity")
        self.name = name
        self.capacity = float(capacity)
        self.kind = kind
        # Insertion-ordered (dict-as-set) for deterministic iteration.
        self.flows: dict[Flow, None] = {}
        #: Aggregate rate, refreshed by the network on every rebalance.
        self.cached_usage = 0.0
        self._network: Optional["FlowNetwork"] = None
        #: Whether the flows crossing this resource could collectively
        #: exceed its capacity (i.e. it can act as a bottleneck).
        self._contended = False
        #: The contention component this resource belongs to, when contended.
        self._component: Optional["_Component"] = None

    @property
    def usage(self) -> float:
        """Aggregate rate of all flows currently crossing this resource."""
        if self._network is not None:
            self._network.flush()
        return self.cached_usage

    @property
    def utilization(self) -> float:
        """Fraction of capacity currently in use (0..1)."""
        return self.usage / self.capacity

    def __repr__(self) -> str:
        return f"Resource({self.name!r}, cap={self.capacity:g}, kind={self.kind!r})"


class Flow:
    """A unit of work draining through a set of resources.

    ``size`` is in the same unit the resource capacities are expressed per
    second (bytes over a network link, core-seconds over a CPU). A flow
    with ``size=None`` never completes; these model permanent background
    load such as the paper's ``stress`` processes.
    """

    __slots__ = (
        "id",
        "resources",
        "remaining",
        "cap",
        "weight",
        "_cap_level",
        "_rate",
        "done",
        "label",
        "_network",
        "_component",
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
        self.remaining = None if size is None else float(size)
        self.cap = cap
        self.weight = weight
        #: Fill level at which the cap binds; precomputed for the solver.
        self._cap_level = math.inf if cap is None else cap / weight
        self._rate = 0.0
        self.done = done
        self.label = label
        self._network = network
        #: The contention component this flow belongs to (None until the
        #: first flush, or when every crossed resource is uncontended).
        self._component: Optional["_Component"] = None

    @property
    def rate(self) -> float:
        """Current max-min fair rate (forces any pending rebalance)."""
        self._network.flush()
        return self._rate

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


class _Component:
    """A connected component of contended resources and their flows.

    Components answer "which flows transitively share a bottleneck?" and
    are rebuilt for just the dirty region when membership or contention
    changes. They are the unit of the solve: each fresh component is
    re-filled independently while untouched components keep their rates.
    ``built_at`` stamps the instant this component was assembled;
    unrelated churn elsewhere in the network never rebuilds it (the
    isolation a regression test asserts directly), which also makes it
    the component's effective settle clock: rates within the component
    have been constant since then.
    """

    __slots__ = ("flows", "resources", "built_at")

    def __init__(self, now: float):
        # Insertion-ordered (dict-as-set), sorted by flow id at build time
        # so introspection order is independent of traversal order.
        self.flows: dict[Flow, None] = {}
        #: The contended resources linking these flows.
        self.resources: dict[Resource, None] = {}
        self.built_at = now


class FlowNetwork:
    """Max-min fair allocator over a set of shared resources.

    Rates are re-solved per contention component; see the module
    docstring.
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
        #: Components whose flow membership (or contention) changed since
        #: the last structural rebuild; they are dissolved and re-flooded.
        self._dirty_components: dict[_Component, None] = {}
        #: Resources whose flow set changed; contention is re-derived for
        #: exactly these at rebuild time.
        self._retag: dict[Resource, None] = {}
        #: Flows added since the last rebuild (not yet in any component).
        self._new_flows: dict[Flow, None] = {}
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
        """Attach a metrics recorder notified on every rate change."""
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
        self._flows[flow] = None
        if size is not None:
            self._finite[flow] = None
        retag = self._retag
        dirty_components = self._dirty_components
        for resource in resolved:
            resource.flows[flow] = None
            retag[resource] = None
            component = resource._component
            if component is not None:
                dirty_components[component] = None
        self._new_flows[flow] = None
        self._mark_dirty()
        return flow

    def _drop(self, flow: Flow) -> None:
        """Detach ``flow`` from all bookkeeping (no settle, no event)."""
        self._flows.pop(flow, None)
        self._finite.pop(flow, None)
        self._new_flows.pop(flow, None)
        retag = self._retag
        dirty_components = self._dirty_components
        for resource in flow.resources:
            resource.flows.pop(flow, None)
            retag[resource] = None
            if resource._component is not None:
                dirty_components[resource._component] = None
        component = flow._component
        if component is not None:
            component.flows.pop(flow, None)
            dirty_components[component] = None
            flow._component = None

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
        """
        elapsed = self.env.now - self._last_settle
        if elapsed > 0:
            finished = None
            for flow in self._finite:
                rate = flow._rate
                if rate > 0:
                    flow.remaining = max(0.0, flow.remaining - rate * elapsed)
                    if flow.remaining <= _EPSILON:
                        if finished is None:
                            finished = []
                        finished.append(flow)
            if finished:
                for flow in finished:
                    self._drop(flow)
                    if flow.done is not None and not flow.done.triggered:
                        flow.done.succeed(flow)
        self._last_settle = self.env.now

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

        Progress was already settled at the instant the network went
        dirty (every mutation settles before marking, and the deferred
        flush runs within the same timestep), so this only refreshes the
        contention structure and re-solves.
        """
        if not self._dirty:
            return
        self._dirty = False
        self._rebalance_partitioned()

    def _rebuild_components(self) -> list[_Component]:
        """Bring the contention structure up to date for the dirty region.

        Pure bookkeeping — no float arithmetic, no event scheduling.
        Mutations only accumulate marks (`_retag`, `_dirty_components`,
        `_new_flows`); the dissolve/flood rebuild runs when the
        network rebalances or when introspection asks
        (:meth:`components`, :meth:`component_count`).
        Classification is re-derived only for resources whose
        membership changed; a contention flip drags the affected
        resource's flows (and their components) into the dirty region,
        which is then dissolved and re-partitioned by flooding across
        contended resources. Dirty-marking keeps the seed set closed
        under this traversal: a contended resource crossed by a seed
        flow always belongs to a dirty (dissolved) component, so no
        clean component is reached.

        Returns the freshly built components — exactly the ones whose
        flow rates the rebalance must recompute.
        """
        dirty_components = self._dirty_components
        retagged = self._retag
        new_flows = self._new_flows
        if not (retagged or dirty_components or new_flows):
            return []
        if retagged:
            self._retag = {}
            for resource in retagged:
                contended = self._classify(resource)
                if resource._contended != contended:
                    resource._contended = contended
                    for flow in resource.flows:
                        component = flow._component
                        if component is not None:
                            dirty_components[component] = None
        if dirty_components:
            seeds: dict[Flow, None] = {}
            for component in dirty_components:
                seeds.update(component.flows)
                for resource in component.resources:
                    if resource._component is component:
                        resource._component = None
            seeds.update(new_flows)
            for flow in seeds:
                flow._component = None
        else:
            # Pure additions: new flows have no component yet.
            seeds = new_flows
        now = self.env.now
        stack: list[Flow] = []
        fresh: list[_Component] = []
        for seed in seeds:
            if seed._component is not None or seed not in self._flows:
                continue
            component = _Component(now)
            fresh.append(component)
            seed._component = component
            component.flows[seed] = None
            stack.append(seed)
            while stack:
                flow = stack.pop()
                for resource in flow.resources:
                    if resource._contended and resource._component is not component:
                        resource._component = component
                        component.resources[resource] = None
                        for other in resource.flows:
                            if other._component is not component:
                                other._component = component
                                component.flows[other] = None
                                stack.append(other)
            if len(component.flows) > 1:
                ordered = sorted(component.flows, key=lambda f: f.id)
                component.flows = dict.fromkeys(ordered)
        dirty_components.clear()
        self._new_flows = {}
        return fresh

    def _rebalance_partitioned(self) -> None:
        """Re-solve only the contention components that changed.

        The structural rebuild runs eagerly (it is pure bookkeeping and
        already incremental), then each freshly built component is
        filled independently. Flows outside the fresh components keep
        their rates: no resource they cross changed membership or
        contention, so their max-min solution is untouched — this is the
        whole point of partitioning.
        """
        retagged = tuple(self._retag)
        fresh = self._rebuild_components()
        if fresh or retagged:
            touched: dict[Resource, None] = dict.fromkeys(retagged)
            for component in fresh:
                self._fill_component(component)
                for flow in component.flows:
                    for resource in flow.resources:
                        touched[resource] = None
            # An uncontended resource may carry flows from several
            # components, so its usage cannot be read off one fill's
            # ``room``; re-sum each touched resource from its (few)
            # flows. Resources that lost their last flow drop to zero.
            for resource in touched:
                usage = 0.0
                for flow in resource.flows:
                    usage += flow._rate
                resource.cached_usage = usage
            recorder = self._recorder
            if recorder is not None:
                recorder.observe(self.env.now, touched)
        self._aim_wake()

    def _fill_component(self, component: _Component) -> None:
        """One progressive fill restricted to ``component``.

        Raises every unfrozen flow's fill level uniformly until a
        resource saturates or a flow's cap binds, freezes those flows and
        repeats; a flow's rate at level ``lam`` is
        ``min(cap, weight * lam)`` (weighted max-min). The candidate
        resources are just the component's contended ones (every flow
        crossing a contended resource is in that resource's component,
        so the fill is closed) and uncontended resources are skipped
        outright — ``_classify`` already proved they can never
        bottleneck. A flow crossing only uncontended resources freezes at
        its cap (it must have one: an uncapped flow makes every crossed
        resource contended).
        """
        # Per contended resource: aggregate weight of unfrozen flows and
        # headroom left after already-frozen flows.
        weight_sum: dict[Resource, float] = {}
        room: dict[Resource, float] = {}
        for resource in component.resources:
            weight_sum[resource] = 0.0
            room[resource] = resource.capacity
        for flow in component.flows:
            flow._rate = 0.0
            weight = flow.weight
            for resource in flow.resources:
                if resource in weight_sum:
                    weight_sum[resource] += weight
        unfrozen = dict(component.flows)
        # Capped flows ordered by the level at which their cap binds.
        capped = sorted(
            (f for f in unfrozen if f.cap is not None),
            key=lambda f: f._cap_level,
        )
        cap_index = 0
        level = 0.0
        while unfrozen:
            # Flows already frozen by a resource bottleneck must not
            # contribute a (stale) cap bound.
            while cap_index < len(capped) and capped[cap_index] not in unfrozen:
                cap_index += 1
            delta = math.inf
            bottlenecks: list[Resource] = []
            for resource, active_weight in weight_sum.items():
                if active_weight <= _EPSILON:
                    continue
                candidate = max(
                    (room[resource] - level * active_weight) / active_weight, 0.0
                )
                if candidate < delta - _EPSILON:
                    delta = candidate
                    bottlenecks = [resource]
                elif candidate <= delta + _EPSILON:
                    bottlenecks.append(resource)
            cap_bound = math.inf
            if cap_index < len(capped):
                cap_bound = capped[cap_index]._cap_level - level
            newly_frozen: list[Flow] = []
            if cap_bound < delta - _EPSILON:
                level += max(cap_bound, 0.0)
            else:
                if not bottlenecks:
                    raise SimulationError("unconstrained flows in rebalance")
                level += delta
                for resource in bottlenecks:
                    newly_frozen.extend(
                        f for f in resource.flows if f in unfrozen
                    )
            # Every capped flow whose binding level has been reached
            # freezes too (this also covers the cap_bound branch above).
            while (
                cap_index < len(capped)
                and capped[cap_index]._cap_level <= level + _EPSILON
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
                rate = level * flow.weight
                if flow.cap is not None:
                    rate = min(rate, flow.cap)
                flow._rate = rate
                unfrozen.pop(flow, None)
                for resource in flow.resources:
                    if resource in room:
                        room[resource] -= rate
                        weight_sum[resource] -= flow.weight

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
        next_in = max(next_in, min_tick)
        self.env.set_wake(self.env.now + max(next_in, 0.0), self._wake_cb)

    def _on_wake(self) -> None:
        """The completion timer: settle everyone (firing the flows that
        drained), then rebalance unconditionally — even a min-tick wake
        that completed nothing recomputes from the just-settled
        remainders."""
        self._settle()
        done = [f for f in self._finite if f.remaining <= _EPSILON]
        for flow in done:
            self._drop(flow)
            if flow.done is not None and not flow.done.triggered:
                flow.done.succeed(flow)
        self._rebalance_partitioned()

    # -- introspection -----------------------------------------------------

    @property
    def active_flows(self) -> tuple[Flow, ...]:
        """Snapshot of the currently active flows."""
        return tuple(self._flows)

    def usage_of(self, name: str) -> float:
        """Current aggregate rate through resource ``name``."""
        return self.resources[name].usage

    def components(self) -> tuple[_Component, ...]:
        """Snapshot of the contention components (forces pending work).

        Flows crossing only uncontended resources form singleton
        components; this is an introspection/diagnostics hook.
        """
        self.flush()
        self._rebuild_components()
        seen: dict[int, _Component] = {}
        for flow in self._flows:
            component = flow._component
            if component is not None:
                seen[id(component)] = component
        return tuple(seen.values())

    def component_count(self) -> int:
        """Number of contention components (forces pending work)."""
        return len(self.components())
