"""Additional kernel edge cases found worth pinning down."""

import pytest

from repro.errors import Interrupt, SimulationError
from repro.sim import Environment, FlowNetwork


def test_all_of_fails_fast():
    env = Environment()
    finish_time = []

    def failing(env):
        yield env.timeout(1.0)
        raise RuntimeError("boom")

    def slow(env):
        yield env.timeout(100.0)

    def waiter(env):
        try:
            yield env.all_of([env.process(failing(env)), env.process(slow(env))])
        except RuntimeError:
            finish_time.append(env.now)

    env.process(waiter(env))
    env.run(until=2.0)
    assert finish_time == [1.0]  # did not wait for the slow process


def test_interrupt_before_first_step_is_catchable_by_watcher():
    env = Environment()

    def body(env):
        yield env.timeout(5.0)
        return "done"

    outcomes = []

    def watcher(env, victim):
        try:
            value = yield victim
            outcomes.append(("ok", value))
        except Interrupt as exc:
            outcomes.append(("interrupted", exc.cause))

    victim = env.process(body(env))
    env.process(watcher(env, victim))
    victim.interrupt("too early")
    env.run()
    assert outcomes == [("interrupted", "too early")]


def test_run_until_time_then_continue():
    env = Environment()
    log = []

    def proc(env):
        for _ in range(4):
            yield env.timeout(2.0)
            log.append(env.now)

    env.process(proc(env))
    env.run(until=3.0)
    assert log == [2.0]
    env.run()
    assert log == [2.0, 4.0, 6.0, 8.0]


def test_run_until_in_the_past_rejected():
    env = Environment()
    env.timeout(5.0)
    env.run(until=5.0)
    with pytest.raises(SimulationError):
        env.run(until=1.0)


def test_interrupt_before_first_step_fails_the_process():
    # A generator that has not run its first step cannot enter a try
    # block, so the interrupt surfaces as a process failure (and, with
    # nobody waiting to defuse it, escapes run()).
    env = Environment()
    ran = []

    def body(env):
        ran.append(True)
        yield env.timeout(5.0)

    victim = env.process(body(env))
    victim.interrupt("before bootstrap")
    with pytest.raises(Interrupt):
        env.run()
    assert not ran
    assert victim.triggered and not victim.ok
    assert isinstance(victim.value, Interrupt)


def test_waiting_on_already_processed_event_delivers_value():
    env = Environment()
    gate = env.event()
    gate.succeed("cargo")
    env.run()  # gate is fully processed, callbacks list recycled
    assert gate.processed
    seen = []

    def late(env):
        value = yield gate
        seen.append((value, env.now))

    env.process(late(env))
    env.run()
    assert seen == [("cargo", 0.0)]


def test_run_until_time_fires_events_at_that_exact_timestamp():
    env = Environment()
    log = []

    def proc(env):
        yield env.timeout(5.0)
        log.append(env.now)
        yield env.timeout(0.1)
        log.append(env.now)

    env.process(proc(env))
    env.run(until=5.0)
    # The event scheduled exactly at the stop time is processed; the
    # one strictly after it is not.
    assert log == [5.0]
    assert env.now == 5.0


def test_heap_tie_break_is_fifo_by_schedule_order():
    env = Environment()
    order = []

    def stamped(env, tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in range(20):
        env.process(stamped(env, tag))
    env.run()
    assert order == list(range(20))


def test_condition_results_computed_once_with_many_events():
    env = Environment()
    width = 200
    gates = [env.event() for _ in range(width)]
    condition = env.all_of(gates)
    calls = []
    original = type(condition)._results

    def counting(self):
        calls.append(1)
        return original(self)

    type(condition)._results = counting
    try:

        def firer(env):
            for index, gate in enumerate(gates):
                yield env.timeout(0.01)
                gate.succeed(index)

        env.process(firer(env))
        env.run()
    finally:
        type(condition)._results = original
    # One snapshot at trigger time, not one per constituent event.
    assert len(calls) == 1
    assert condition.value == {gate: i for i, gate in enumerate(gates)}


def test_flow_rate_read_forces_pending_rebalance():
    env = Environment()
    net = FlowNetwork(env)
    net.add_resource("r", 10.0)
    flow = net.start_flow(100.0, ["r"])
    # No event has been processed yet, but reading the rate must not
    # observe the stale pre-rebalance zero.
    assert flow.rate == pytest.approx(10.0)


def test_cancelled_flow_fires_no_completion():
    env = Environment()
    net = FlowNetwork(env)
    net.add_resource("r", 10.0)
    flow = net.start_flow(100.0, ["r"])
    env.run(until=1.0)
    flow.cancel()
    env.run()
    assert not flow.done.triggered


def test_flows_starting_same_instant_share_exactly():
    env = Environment()
    net = FlowNetwork(env)
    net.add_resource("r", 30.0)
    # Three flows created in one timestep: the deferred rebalance must
    # price them together (10 each), not give the first one the full 30.
    flows = [net.start_flow(30.0, ["r"]) for _ in range(3)]
    env.run(until=env.all_of([f.done for f in flows]))
    assert env.now == pytest.approx(3.0)
