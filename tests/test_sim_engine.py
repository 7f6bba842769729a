"""Unit tests for the discrete-event kernel."""

import pytest

from repro.errors import Interrupt, SimulationError
from repro.sim import Environment


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(5.0)
        return "done"

    process = env.process(proc(env))
    env.run()
    assert env.now == 5.0
    assert process.value == "done"


def test_processes_interleave_deterministically():
    env = Environment()
    log = []

    def ticker(env, name, period, count):
        for _ in range(count):
            yield env.timeout(period)
            log.append((env.now, name))

    env.process(ticker(env, "a", 2.0, 3))
    env.process(ticker(env, "b", 3.0, 2))
    env.run()
    # Ties at t=6 resolve in scheduling order: b scheduled its timeout at
    # t=3, before a re-armed at t=4.
    assert log == [(2.0, "a"), (3.0, "b"), (4.0, "a"), (6.0, "b"), (6.0, "a")]


def test_event_succeed_delivers_value():
    env = Environment()
    gate = env.event()
    seen = []

    def waiter(env):
        value = yield gate
        seen.append(value)

    def firer(env):
        yield env.timeout(1.0)
        gate.succeed(42)

    env.process(waiter(env))
    env.process(firer(env))
    env.run()
    assert seen == [42]
    assert gate.ok and gate.value == 42


def test_event_fail_raises_in_waiter():
    env = Environment()
    gate = env.event()
    caught = []

    def waiter(env):
        try:
            yield gate
        except ValueError as exc:
            caught.append(str(exc))

    def firer(env):
        yield env.timeout(1.0)
        gate.fail(ValueError("boom"))

    env.process(waiter(env))
    env.process(firer(env))
    env.run()
    assert caught == ["boom"]


def test_unhandled_failure_propagates_from_run():
    env = Environment()

    def failing(env):
        yield env.timeout(1.0)
        raise RuntimeError("unhandled")

    env.process(failing(env))
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc(env):
        yield env.timeout(100.0)

    env.process(proc(env))
    env.run(until=7.5)
    assert env.now == 7.5


def test_run_until_event_returns_its_value():
    env = Environment()

    def proc(env):
        yield env.timeout(3.0)
        return "result"

    process = env.process(proc(env))
    assert env.run(until=process) == "result"
    assert env.now == 3.0


def test_run_until_event_never_fires_raises():
    env = Environment()
    gate = env.event()

    def proc(env):
        yield env.timeout(1.0)

    env.process(proc(env))
    with pytest.raises(SimulationError):
        env.run(until=gate)


def test_all_of_waits_for_every_event():
    env = Environment()
    times = []

    def sleeper(env, delay):
        yield env.timeout(delay)
        return delay

    def waiter(env):
        procs = [env.process(sleeper(env, d)) for d in (1.0, 4.0, 2.0)]
        results = yield env.all_of(procs)
        times.append(env.now)
        return sorted(results.values())

    process = env.process(waiter(env))
    env.run()
    assert times == [4.0]
    assert process.value == [1.0, 2.0, 4.0]


def test_all_of_empty_fires_immediately():
    env = Environment()

    def waiter(env):
        yield env.all_of([])
        return env.now

    process = env.process(waiter(env))
    env.run()
    assert process.value == 0.0


def test_interrupt_throws_into_process():
    env = Environment()
    outcome = []

    def victim(env):
        try:
            yield env.timeout(100.0)
        except Interrupt as interrupt:
            outcome.append((env.now, interrupt.cause))

    def attacker(env, victim_proc):
        yield env.timeout(2.0)
        victim_proc.interrupt("preempted")

    victim_proc = env.process(victim(env))
    env.process(attacker(env, victim_proc))
    env.run()
    assert outcome == [(2.0, "preempted")]


def test_interrupt_finished_process_rejected():
    env = Environment()

    def quick(env):
        yield env.timeout(1.0)

    process = env.process(quick(env))
    env.run()
    with pytest.raises(SimulationError):
        process.interrupt()


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1.0)


def test_double_trigger_rejected():
    env = Environment()
    gate = env.event()
    gate.succeed(1)
    with pytest.raises(SimulationError):
        gate.succeed(2)


def test_waiting_on_processed_event_resumes():
    env = Environment()
    gate = env.event()
    gate.succeed("early")
    seen = []

    def late_waiter(env):
        value = yield gate
        seen.append(value)

    env.process(late_waiter(env))
    env.run()
    assert seen == ["early"]


def test_process_value_propagates_through_join():
    env = Environment()

    def child(env):
        yield env.timeout(1.0)
        return 99

    def parent(env):
        value = yield env.process(child(env))
        return value + 1

    process = env.process(parent(env))
    env.run()
    assert process.value == 100


def test_set_wake_hits_the_exact_absolute_instant():
    env = Environment()
    env.timeout(0.1)
    env.run()  # park the clock at a value where now+delta would round
    target = 0.1 + 1 / 3
    fired = []
    env.set_wake(target, lambda: fired.append(env.now))
    env.run()
    # The target is taken verbatim — no now+delay round trip.
    assert fired == [target]


def test_set_wake_in_the_past_runs_without_rewinding_the_clock():
    env = Environment()
    env.timeout(5.0)
    env.run()
    fired = []
    env.set_wake(1.0, lambda: fired.append(env.now))
    env.run()
    assert fired == [5.0]
    assert env.now == 5.0


def test_set_wake_fires_at_its_target_time():
    env = Environment()
    fired = []
    env.set_wake(4.0, lambda: fired.append(env.now))
    env.run()
    assert fired == [4.0]
    assert env.now == 4.0


def test_set_wake_reaim_replaces_the_previous_target():
    env = Environment()
    fired = []
    env.set_wake(10.0, lambda: fired.append(("late", env.now)))
    env.set_wake(2.0, lambda: fired.append(("early", env.now)))
    env.run()
    # One slot: the latest aim wins, nothing is left behind in the queue.
    assert fired == [("early", 2.0)]
    assert env._queue == []


def test_clear_wake_disarms():
    env = Environment()
    fired = []
    env.set_wake(1.0, lambda: fired.append(env.now))
    env.clear_wake()
    env.run()
    assert fired == []
    assert env.now == 0.0


def test_wake_orders_with_same_instant_timeouts_by_arm_order():
    env = Environment()
    log = []

    def proc(env):
        yield env.timeout(5.0)
        log.append("timeout")

    # Armed after the timeout: the wake's fresh event id is larger, so
    # at the shared instant the timeout's queue entry pops first —
    # exactly the order a freshly scheduled Timeout would take.
    env.process(proc(env))
    env.run(until=1.0)
    env.set_wake(5.0, lambda: log.append("wake"))
    env.run()
    assert log == ["timeout", "wake"]


def test_wake_rearmed_from_its_own_callback_keeps_firing():
    env = Environment()
    ticks = []

    def tick():
        ticks.append(env.now)
        if len(ticks) < 3:
            env.set_wake(env.now + 1.0, tick)

    env.set_wake(1.0, tick)
    env.run()
    assert ticks == [1.0, 2.0, 3.0]


def test_run_until_time_respects_a_pending_wake():
    env = Environment()
    fired = []
    env.set_wake(8.0, lambda: fired.append(env.now))
    env.run(until=3.0)
    assert fired == [] and env.now == 3.0
    env.run(until=9.0)
    assert fired == [8.0] and env.now == 9.0


def test_wake_fires_before_a_later_timeout():
    env = Environment()
    log = []

    def proc(env):
        yield env.timeout(5.0)
        log.append(("timeout", env.now))

    env.process(proc(env))
    env.set_wake(2.0, lambda: log.append(("wake", env.now)))
    env.run()
    assert log == [("wake", 2.0), ("timeout", 5.0)]
