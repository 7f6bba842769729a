"""The pluggable allocation layer: policies, tenant queues, admission.

Covers the ``repro.yarn.allocation`` package (pure policy logic) plus
the ResourceManager behaviours that depend on it: fair/drf ordering,
tenant quota caps, admission queue/reject flows, and the bookkeeping
fixes (per-instance app ids, cancelled-request draining, held-container
retirement).
"""

from collections import Counter

import pytest

from repro.cluster import Cluster, ClusterSpec, M3_LARGE
from repro.errors import AdmissionError, YarnError
from repro.sim import Environment
from repro.yarn import ContainerResource, ResourceManager
from repro.yarn.allocation import (
    AdmissionController,
    ClusterShare,
    DrfPolicy,
    FairSharePolicy,
    FifoPolicy,
    POLICY_NAMES,
    TenantQueue,
    TenantSpec,
    make_policy,
)
from repro.yarn.records import ContainerRequest

SMALL = ContainerResource(vcores=1, memory_mb=1024.0)
WIDE = ContainerResource(vcores=2, memory_mb=1024.0)


def make_rm(workers=2, max_per_node=None, **rm_kwargs):
    env = Environment()
    cluster = Cluster(env, ClusterSpec(worker_spec=M3_LARGE,
                                       worker_count=workers))
    rm = ResourceManager(env, cluster, max_containers_per_node=max_per_node,
                         **rm_kwargs)
    return env, cluster, rm


# -- policy rank math ---------------------------------------------------------


def test_policy_registry():
    assert POLICY_NAMES == ("drf", "fair", "fifo")
    for name in POLICY_NAMES:
        assert make_policy(name).name == name
    # Instances pass through untouched.
    policy = FairSharePolicy()
    assert make_policy(policy) is policy
    with pytest.raises(YarnError, match="allocation policy"):
        make_policy("lottery")


def test_fifo_rank_is_pure_arrival_order():
    queue = TenantQueue("t")
    share = ClusterShare(total_vcores=8, total_memory_mb=8192.0)
    early = ContainerRequest(app_id="a", resource=SMALL)
    late = ContainerRequest(app_id="a", resource=SMALL)
    policy = FifoPolicy()
    assert policy.rank(early, queue, share) < policy.rank(late, queue, share)
    # Usage never matters under fifo.
    queue.charge(WIDE)
    assert policy.rank(early, queue, share) == (early.request_id,)


def test_fair_rank_prefers_fewest_weighted_containers():
    share = ClusterShare(total_vcores=8, total_memory_mb=8192.0)
    hungry = TenantQueue("hungry")
    modest = TenantQueue("modest")
    for _ in range(3):
        hungry.charge(SMALL)
    modest.charge(SMALL)
    early = ContainerRequest(app_id="h", resource=SMALL)
    late = ContainerRequest(app_id="m", resource=SMALL)
    policy = FairSharePolicy()
    # modest holds less, so its later request outranks hungry's earlier.
    assert policy.rank(late, modest, share) < policy.rank(early, hungry, share)
    # A weight-3 tenant tolerates 3 containers per 1 of a weight-1 peer.
    weighted = TenantQueue("weighted", TenantSpec(weight=3.0))
    for _ in range(3):
        weighted.charge(SMALL)
    assert (policy.rank(early, weighted, share)
            == policy.rank(early, modest, share))


def test_fair_rank_ties_break_by_request_id():
    share = ClusterShare(total_vcores=8, total_memory_mb=8192.0)
    a, b = TenantQueue("a"), TenantQueue("b")
    first = ContainerRequest(app_id="a", resource=SMALL)
    second = ContainerRequest(app_id="b", resource=SMALL)
    policy = FairSharePolicy()
    # Equal usage: arrival order decides, deterministically.
    assert policy.rank(first, a, share) < policy.rank(second, b, share)


def test_drf_rank_uses_dominant_resource():
    share = ClusterShare(total_vcores=10, total_memory_mb=10000.0)
    cpu_heavy = TenantQueue("cpu")
    mem_heavy = TenantQueue("mem")
    cpu_heavy.charge(ContainerResource(vcores=4, memory_mb=1000.0))
    mem_heavy.charge(ContainerResource(vcores=1, memory_mb=3000.0))
    request_cpu = ContainerRequest(app_id="c", resource=SMALL)
    request_mem = ContainerRequest(app_id="m", resource=SMALL)
    policy = DrfPolicy()
    # cpu tenant's dominant share is 4/10 vcores; mem tenant's is 3/10
    # memory: the memory-hungry tenant goes first even though it holds
    # more of *its* dominant resource than of vcores.
    cpu_rank = policy.rank(request_cpu, cpu_heavy, share)
    mem_rank = policy.rank(request_mem, mem_heavy, share)
    assert cpu_rank[0] == pytest.approx(0.4)
    assert mem_rank[0] == pytest.approx(0.3)
    assert mem_rank < cpu_rank


def test_drf_rank_on_empty_cluster_is_zero_share():
    share = ClusterShare(total_vcores=0, total_memory_mb=0.0)
    queue = TenantQueue("t")
    queue.charge(WIDE)
    request = ContainerRequest(app_id="a", resource=SMALL)
    assert DrfPolicy().rank(request, queue, share)[0] == 0.0


# -- tenant specs and quotas --------------------------------------------------


def test_tenant_spec_validation():
    with pytest.raises(ValueError, match="weight"):
        TenantSpec(weight=0.0)
    with pytest.raises(ValueError, match="max_containers"):
        TenantSpec(max_containers=0)
    with pytest.raises(ValueError, match="max_vcores"):
        TenantSpec(max_vcores=0)


def test_quota_blocks_on_containers_and_vcores():
    queue = TenantQueue("t", TenantSpec(max_containers=2, max_vcores=3))
    assert not queue.quota_blocks(SMALL)
    queue.charge(WIDE)  # 1 container, 2 vcores
    assert not queue.quota_blocks(SMALL)  # 2nd container, 3rd vcore: ok
    assert queue.quota_blocks(WIDE)  # would hit 4 vcores
    queue.charge(SMALL)  # 2 containers, 3 vcores
    assert queue.quota_blocks(SMALL)  # container cap reached
    queue.credit(WIDE)
    assert not queue.quota_blocks(SMALL)


def test_tenant_quota_caps_enforced_by_rm():
    env, cluster, rm = make_rm(workers=2)  # 4 vcores total
    rm.configure_tenant("capped", max_containers=1)
    app = rm.register_application("wf", tenant="capped")
    first = rm.request_container(app, SMALL)
    second = rm.request_container(app, SMALL)
    env.run()
    # Plenty of cluster capacity, but the tenant may hold only one.
    assert first.triggered and not second.triggered
    assert rm.tenant_usage("capped") == (1, 1, 1024.0)
    rm.release_container(first.value)
    env.run()
    assert second.triggered
    assert rm.tenant_usage("capped")[0] == 1


def test_quota_capped_tenant_does_not_block_others():
    env, cluster, rm = make_rm(workers=2)
    rm.configure_tenant("capped", max_containers=1)
    capped = rm.register_application("capped-wf", tenant="capped")
    free = rm.register_application("free-wf")
    held = rm.request_container(capped, SMALL)
    starved = rm.request_container(capped, SMALL)
    other = rm.request_container(free, SMALL)
    env.run()
    # The capped tenant's backlog must not head-of-line block the pool.
    assert held.triggered and other.triggered
    assert not starved.triggered


def test_shared_tenant_aggregates_usage_across_apps():
    env, cluster, rm = make_rm(workers=2)
    one = rm.register_application("wf-one", tenant="team")
    two = rm.register_application("wf-two", tenant="team")
    assert one.tenant == two.tenant == "team"
    a = rm.request_container(one, SMALL)
    b = rm.request_container(two, SMALL)
    env.run()
    assert a.triggered and b.triggered
    assert rm.tenant_usage("team") == (2, 2, 2048.0)


def test_tenant_defaults_to_app_id():
    env, cluster, rm = make_rm()
    app = rm.register_application("wf")
    assert app.tenant == app.app_id


# -- allocation behaviour under fair/drf --------------------------------------


def _saturate(rm, env, slots):
    """Fill every slot with a blocker app; return its held containers."""
    blocker = rm.register_application("blocker")
    held = [rm.request_container(blocker, SMALL) for _ in range(slots)]
    env.run()
    assert all(event.triggered for event in held)
    return [event.value for event in held]


def test_fair_mode_serves_zero_holders_in_arrival_order():
    env, cluster, rm = make_rm(workers=2, max_per_node=1, policy="fair")
    held = _saturate(rm, env, 2)
    first_app = rm.register_application("first")
    second_app = rm.register_application("second")
    first = rm.request_container(first_app, SMALL)
    second = rm.request_container(second_app, SMALL)
    env.run()
    rm.release_container(held[0])
    env.run()
    # Both tenants hold zero containers: the fair rank ties and the
    # request_id tiebreak preserves arrival order.
    assert first.triggered and not second.triggered


def test_strict_requests_survive_fair_reorder():
    env, cluster, rm = make_rm(workers=2, max_per_node=1, policy="fair")
    held = _saturate(rm, env, 2)
    pinned_node = held[1].node_id
    other_node = held[0].node_id
    app = rm.register_application("pinned")
    strict = rm.request_container(app, SMALL, preferred_node=pinned_node,
                                  strict=True)
    env.run()
    rm.release_container(held[0])  # frees the *other* node
    env.run()
    # The strict request must keep waiting for its named node, not be
    # lost or misplaced by the fair ordering pass.
    assert not strict.triggered
    assert rm.pending_request_count() == 1
    rm.release_container(held[1])
    env.run()
    assert strict.triggered and strict.value.node_id == pinned_node
    assert strict.value.node_id != other_node


def test_exhausted_size_skip_keeps_smaller_requests_flowing():
    env, cluster, rm = make_rm(workers=1)  # one m3.large: 2 vcores
    app = rm.register_application("wf")
    holder = rm.request_container(app, SMALL)
    env.run()
    assert holder.triggered  # 1 of 2 vcores busy
    wide_one = rm.request_container(app, WIDE)
    wide_two = rm.request_container(app, WIDE)
    narrow = rm.request_container(app, SMALL)
    env.run()
    # The first 2-vcore miss marks that size exhausted for the pass;
    # the second wide request is skipped without being dropped, and the
    # differently-sized narrow request behind them is still served.
    assert narrow.triggered
    assert not wide_one.triggered and not wide_two.triggered
    assert rm.pending_request_count() == 2
    rm.release_container(holder.value)
    rm.release_container(narrow.value)
    env.run()
    assert wide_one.triggered  # and arrival order held within the size
    assert not wide_two.triggered


def test_tenant_queue_counts_pending_requests_by_size():
    queue = TenantQueue("t")
    requests = [ContainerRequest(app_id="a", resource=size)
                for size in (SMALL, WIDE, SMALL)]
    for request in requests:
        queue.append(request, None)
    assert queue.sizes == Counter({SMALL: 2, WIDE: 1})
    queue.take()
    assert queue.sizes == Counter({SMALL: 1, WIDE: 1})
    requests[1].cancel()
    queue.current()  # drains the cancelled wide request
    assert queue.sizes == Counter({SMALL: 1})
    queue.advance()  # skipped, still pending
    assert queue.sizes == Counter({SMALL: 1})


def test_a_pass_ended_early_keeps_arrival_order(monkeypatch):
    env, cluster, rm = make_rm(workers=1)  # one m3.large: 2 vcores
    app = rm.register_application("wf")
    holder = rm.request_container(app, SMALL)
    env.run()
    node = holder.value.node_id
    advanced = []
    advance = TenantQueue.advance
    monkeypatch.setattr(TenantQueue, "advance",
                        lambda queue: advanced.append(advance(queue)))
    wide = [rm.request_container(app, WIDE) for _ in range(2)]
    # Each pass ends at the first wide miss: the granted size no
    # longer counts as pending.
    assert advanced == []
    monkeypatch.undo()
    pinned = rm.request_container(app, WIDE, preferred_node=node, strict=True)
    narrow = [rm.request_container(app, SMALL) for _ in range(2)]
    env.run()
    # The first narrow request takes the free vcore; every size is then
    # exhausted and the pass ends with the rest in arrival order.
    assert narrow[0].triggered
    assert not any(e.triggered for e in wide + [pinned, narrow[1]])
    queue = rm._pool.get(app.tenant)
    assert [r.resource for r, _ in queue._items] == [WIDE] * 3 + [SMALL]
    assert queue.sizes == Counter({WIDE: 3, SMALL: 1})
    rm.release_container(holder.value)
    env.run()
    assert narrow[1].triggered and not wide[0].triggered
    rm.release_container(narrow[0].value)
    rm.release_container(narrow[1].value)
    env.run()
    assert wide[0].triggered and not wide[1].triggered


def _advances_per_task(monkeypatch, workers):
    """Run one FCFS fan-out four tasks per worker wide, counting the RM
    pass's ``TenantQueue.advance`` calls."""
    from repro.core import HiWay
    from repro.workflow import StaticTaskSource, TaskSpec, WorkflowGraph

    calls = 0
    advance = TenantQueue.advance

    def counted(queue):
        nonlocal calls
        calls += 1
        advance(queue)

    monkeypatch.setattr(TenantQueue, "advance", counted)
    width = 4 * workers
    graph = WorkflowGraph("fan-out")
    for index in range(width):
        graph.add_task(TaskSpec(tool="sort", inputs=["/in/a"],
                                outputs=[f"/out/{index}"],
                                task_id=f"t{index:03d}"))
    env = Environment()
    hiway = HiWay(Cluster(env, ClusterSpec(worker_spec=M3_LARGE,
                                           worker_count=workers)))
    hiway.install_everywhere("sort")
    hiway.stage_inputs({"/in/a": 4.0})
    result = hiway.run(StaticTaskSource(graph), scheduler="fcfs")
    assert result.success and result.tasks_completed == width
    return calls / width


def test_rm_pass_work_per_task_stays_flat_as_the_cluster_grows(monkeypatch):
    narrow = _advances_per_task(monkeypatch, 16)
    wide = _advances_per_task(monkeypatch, 32)
    assert wide <= 1.1 * narrow


def test_unregister_drains_cancelled_requests():
    env, cluster, rm = make_rm(workers=1, max_per_node=1)
    held = _saturate(rm, env, 1)
    doomed = rm.register_application("doomed")
    survivor = rm.register_application("survivor")
    dead_events = [rm.request_container(doomed, SMALL) for _ in range(3)]
    live_event = rm.request_container(survivor, SMALL)
    env.run()
    rm.unregister_application(doomed)
    assert rm.pending_request_count() == 1  # cancelled asks don't count
    rm.release_container(held[0])
    env.run()
    # Freed capacity flows past the cancelled backlog to the live app.
    assert live_event.triggered
    assert not any(event.triggered for event in dead_events)
    assert rm.pending_request_count() == 0


def test_app_id_counter_is_per_instance():
    env1, _, rm1 = make_rm()
    for _ in range(3):
        rm1.register_application("wf")
    env2, _, rm2 = make_rm()
    app = rm2.register_application("wf")
    # A fresh RM starts its own numbering; the counter must not be
    # shared class state accumulating across installations.
    assert app.app_id == "application_0001"


def test_containers_held_retired_after_unregister():
    env, cluster, rm = make_rm(workers=1)
    app = rm.register_application("wf")
    event = rm.request_container(app, SMALL)
    env.run()
    container = event.value
    rm.unregister_application(app)  # still holding one container
    assert app.app_id in rm._containers_held
    rm.release_container(container)
    env.run()
    # The final release of an unregistered app retires its entry.
    assert rm._containers_held == {}


# -- admission control --------------------------------------------------------


def test_admission_controller_validation():
    with pytest.raises(ValueError, match="max_concurrent_apps"):
        AdmissionController(max_concurrent_apps=0)
    with pytest.raises(ValueError, match="overflow"):
        AdmissionController(max_concurrent_apps=1, overflow="drop")
    unbounded = AdmissionController()
    assert unbounded.decide(active=10_000) == "admit"


def test_admission_queue_flow():
    env, cluster, rm = make_rm(
        admission=AdmissionController(max_concurrent_apps=1))
    first = rm.submit_application("first")
    assert first.admitted
    second = rm.submit_application("second")
    assert not second.admitted and not second.rejected
    assert rm.admission_queue_depth() == 1
    env.run()
    assert not second.event.triggered  # still waiting for a slot
    rm.unregister_application(first.handle)
    assert second.event.triggered
    handle = second.event.value
    assert handle.name == "second"
    assert rm.admission_queue_depth() == 0


def test_admission_reject_flow():
    env, cluster, rm = make_rm(
        admission=AdmissionController(max_concurrent_apps=1,
                                      overflow="reject"))
    first = rm.submit_application("first")
    assert first.admitted
    second = rm.submit_application("second")
    assert second.rejected
    assert "admission limit" in second.reason
    assert rm.admission_queue_depth() == 0
    # A freed slot admits new submissions again (nothing was queued).
    rm.unregister_application(first.handle)
    assert rm.submit_application("third").admitted


def test_sync_register_raises_beyond_admission_limit():
    env, cluster, rm = make_rm(
        admission=AdmissionController(max_concurrent_apps=1))
    rm.register_application("first")
    with pytest.raises(AdmissionError, match="submit_application"):
        rm.register_application("second")
