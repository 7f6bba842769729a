"""The public API surface stays importable and coherent."""

import importlib

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.sim",
    "repro.cluster",
    "repro.hdfs",
    "repro.yarn",
    "repro.yarn.allocation",
    "repro.tools",
    "repro.workflow",
    "repro.langs",
    "repro.langs.cuneiform",
    "repro.core",
    "repro.core.schedulers",
    "repro.core.provenance",
    "repro.baselines",
    "repro.baselines.tez",
    "repro.baselines.cloudman",
    "repro.workloads",
    "repro.recipes",
    "repro.experiments",
    "repro.cli",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_package_imports_and_exports(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    if exported is not None:
        for symbol in exported:
            assert hasattr(module, symbol), f"{name}.{symbol} missing"


def test_version_string():
    assert repro.__version__ == "1.0.0"


def test_every_public_symbol_has_a_docstring():
    """Deliverable (e): doc comments on every public item."""
    missing = []
    for name in PACKAGES:
        module = importlib.import_module(name)
        if not (module.__doc__ or "").strip():
            missing.append(name)
        for symbol in getattr(module, "__all__", []) or []:
            obj = getattr(module, symbol)
            if callable(obj) and not (getattr(obj, "__doc__", "") or "").strip():
                missing.append(f"{name}.{symbol}")
    assert not missing, f"undocumented public items: {missing}"


def test_node_spec_helpers():
    from repro.cluster import Cluster, ClusterSpec, M3_LARGE, NodeSpec
    from repro.sim import Environment

    faster = M3_LARGE.scaled(2.0)
    assert isinstance(faster, NodeSpec)
    assert faster.speed == 2.0
    assert faster.cores == M3_LARGE.cores
    spec = ClusterSpec(worker_spec=M3_LARGE, worker_count=3, master_count=2)
    assert spec.hourly_cost() == pytest.approx(5 * 0.146)
    # Masters are the worker machine type.
    masters = Cluster(Environment(), spec).masters
    assert [node.spec for node in masters] == [spec.worker_spec] * 2
