"""Tests for the parallel grid runner."""

import os

import pytest

from repro.perf import default_jobs, run_grid


def square_with_pid(base, exponent):
    """Module-level so the process pool can pickle it by reference."""
    return (base ** exponent, os.getpid())


def failing_unit(value):
    if value == 3:
        raise ValueError("unit failure must surface, not vanish")
    return value


def test_default_jobs_is_positive():
    assert default_jobs() >= 1


def test_run_grid_serial_matches_parallel_order_and_values():
    params = [(i, 2) for i in range(12)]
    serial = [value for value, _ in run_grid(square_with_pid, params, jobs=1)]
    parallel = [value for value, _ in run_grid(square_with_pid, params, jobs=2)]
    assert serial == parallel == [i ** 2 for i in range(12)]


def test_run_grid_single_param_stays_inline():
    # One grid point never pays for a pool, whatever ``jobs`` says.
    [(value, pid)] = run_grid(square_with_pid, [(3, 3)], jobs=4)
    assert value == 27
    assert pid == os.getpid()


def test_run_grid_jobs_one_stays_inline():
    results = run_grid(square_with_pid, [(2, 2), (3, 2)], jobs=1)
    assert all(pid == os.getpid() for _, pid in results)


def test_run_grid_propagates_worker_exceptions():
    with pytest.raises(ValueError, match="unit failure"):
        run_grid(failing_unit, [(1,), (3,)], jobs=1)
    with pytest.raises(ValueError, match="unit failure"):
        run_grid(failing_unit, [(1,), (3,)], jobs=2)


def test_run_grid_empty_params():
    assert run_grid(square_with_pid, [], jobs=2) == []

