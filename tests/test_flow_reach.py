"""Which flows a flush re-solves (``repro.sim.flows``).

A change moves no freeze below its reach: the lowest level a dropped
flow froze at, or the lowest level at which a resource that gained a
flow can saturate. A flush refills only the flows at or above that
reach that the change's resources connect to. The hand-built cases
below pin exactly which flows each kind of change refills; the
differential batches several changes into one flush, so their reaches
combine; and the scaling pin counts what a Table 2 run refills.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.table2 import Table2Config, run_weak_scaling_once
from repro.sim import Environment, FlowNetwork

from .test_flow_solver_contract import (
    _assert_matches_oracle,
    caps,
    capacities,
    sizes,
    weights,
)


def _net(**capacities):
    env = Environment()
    net = FlowNetwork(env)
    for name, capacity in capacities.items():
        net.add_resource(name, capacity)
    fills = []
    fill = net._fill_component

    def recorded(flows, rooms):
        fills.append(frozenset(flows))
        fill(flows, rooms)

    net._fill_component = recorded
    return net, fills


def _refilled(net, fills):
    """Check every rate against the oracle; return the flush's fills."""
    _assert_matches_oracle(net)
    done = list(fills)
    fills.clear()
    return done


def _standing_bottleneck():
    """``b`` (4) holds ``x`` and ``y`` at level 2; ``y`` also crosses
    ``a`` (10), where ``p`` and ``q`` share the rest at level 4."""
    net, fills = _net(a=10.0, b=4.0)
    x = net.start_flow(None, ["b"])
    y = net.start_flow(None, ["a", "b"])
    p = net.start_flow(None, ["a"])
    q = net.start_flow(None, ["a"])
    assert _refilled(net, fills) == [{x, y, p, q}]
    assert [f._level for f in (x, y, p, q)] == [2.0, 2.0, 4.0, 4.0]
    return net, fills, (x, y, p, q)


def test_a_removal_above_a_standing_bottleneck_leaves_it_alone():
    net, fills, (x, y, p, q) = _standing_bottleneck()
    p.cancel()
    # p froze at 4: x and y froze at 2 on "b" and stand.
    assert _refilled(net, fills) == [{q}]
    assert (x.rate, y.rate, q.rate) == (2.0, 2.0, 8.0)


def test_a_removal_below_a_standing_bottleneck_reaches_the_flows_above():
    net, fills, (x, y, p, q) = _standing_bottleneck()
    x.cancel()
    # x froze at 2 on "b": y can rise, and p and q share "a" with it.
    assert _refilled(net, fills) == [{y, p, q}]
    assert y.rate == pytest.approx(10.0 / 3.0)


def test_an_addition_that_saturates_a_slack_resource_refills_only_above():
    """``a`` is contended but slack: ``y`` is held at 1 by ``b`` and
    ``w`` by its cap of 2. A new flow saturates ``a`` at 7, above both,
    and a second one at 3.5, still above both."""
    net, fills = _net(a=10.0, b=2.0)
    x = net.start_flow(None, ["b"])
    y = net.start_flow(None, ["a", "b"])
    w = net.start_flow(None, ["a"], cap=2.0)
    assert _refilled(net, fills) == [{x, y, w}]
    assert net.resources["a"].usage == 3.0

    z = net.start_flow(None, ["a"])
    assert _refilled(net, fills) == [{z}]
    assert z.rate == 7.0

    z2 = net.start_flow(None, ["a"])
    assert _refilled(net, fills) == [{z, z2}]
    assert (x.rate, y.rate, w.rate, z.rate, z2.rate) == (1.0, 1.0, 2.0, 3.5, 3.5)


def test_a_contention_loss_refills_its_flows_across_their_resources():
    """Cancelling ``h`` leaves ``a`` with caps 6 + 3 <= 10: it loses
    contention. ``g1`` is no longer held at 3.5 on ``a`` and rises on
    ``b`` with ``k``; ``g2`` runs at its cap outside any fill, and
    ``m``, capped at 1 on ``b`` below the reach, stands."""
    net, fills = _net(a=10.0, b=20.0)
    g1 = net.start_flow(None, ["a", "b"], cap=6.0)
    g2 = net.start_flow(None, ["a"], cap=3.0)
    h = net.start_flow(None, ["a"])
    k = net.start_flow(None, ["b"])
    m = net.start_flow(None, ["b"], cap=1.0)
    assert _refilled(net, fills) == [{g1, g2, h, k, m}]
    assert (g1.rate, g2.rate, h.rate) == (3.5, 3.0, 3.5)

    h.cancel()
    assert _refilled(net, fills) == [{g1, k}]
    assert not net.resources["a"]._contended
    assert (g1.rate, g2.rate, k.rate, m.rate) == (6.0, 3.0, 13.0, 1.0)


# -- differential: several changes per flush ----------------------------------

mutations = st.tuples(
    st.integers(0, 3),  # 0-2: start a flow, 3: cancel a live one
    st.integers(0, 255),  # resource bitmask / removal index
    st.one_of(st.none(), sizes),  # size (None = permanent)
    caps,
    weights,
)
batches = st.lists(
    st.tuples(
        st.lists(mutations, min_size=1, max_size=5),
        st.one_of(st.none(), st.floats(min_value=0.05, max_value=20.0)),
    ),
    min_size=1,
    max_size=10,
)


@given(st.lists(capacities, min_size=2, max_size=8), batches)
@settings(max_examples=100, deadline=None)
def test_solvers_agree_after_batched_mutations(resource_caps, script):
    """One to five starts and cancels between flushes, so the reaches
    of several changes combine in one flush; after some batches time
    advances and finite flows drain. After every flush each rate and
    usage agrees with a from-scratch fill."""
    names = [f"r{i}" for i in range(len(resource_caps))]
    env = Environment()
    net = FlowNetwork(env)
    for name, capacity in zip(names, resource_caps):
        net.add_resource(name, capacity)
    live = []
    for batch, step in script:
        for kind, mask, size, cap, weight in batch:
            if kind == 3 and live:
                live.pop(mask % len(live)).cancel()
            else:
                chosen = [names[i] for i in range(len(names)) if mask >> i & 1]
                live.append(net.start_flow(
                    size, chosen or [names[mask % len(names)]],
                    cap=cap, weight=weight,
                ))
        _assert_matches_oracle(net)
        if step is not None:
            env.run(until=env.now + step)
            live = [f for f in live if f in net._flows]
            _assert_matches_oracle(net)


# -- scaling pin ---------------------------------------------------------------


def test_table2_refills_grow_slower_than_the_cluster(monkeypatch):
    """Flows refilled per task in one Table 2 run: 91 at 8 workers and
    163 at 16 (x1.8 per doubling). Refilling whole contention groups
    took 154 and 352 (x2.3)."""
    refilled = []
    fill = FlowNetwork._fill_component

    def counted(self, flows, rooms):
        refilled[-1] += len(flows)
        fill(self, flows, rooms)

    monkeypatch.setattr(FlowNetwork, "_fill_component", counted)
    per_task = {}
    for workers in (8, 16):
        refilled.append(0)
        run_weak_scaling_once(Table2Config(), workers, 0)
        per_task[workers] = refilled[-1] / (19 * workers)
    assert per_task[8] <= 100
    assert per_task[16] <= 180
    assert per_task[16] / per_task[8] <= 2.0
