"""What a process loads: package inits import only the run path.

Each check runs in a fresh interpreter, since this test session has
long since imported everything. The benchmark compiles its imports in
every rep, so a package init that pulls in an experiment runner, a
baseline engine or an offline view adds to every run's set-up time.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Modules no simulation run needs: the experiment runners other than
#: Table 2 (whose config the benchmark builds), the baseline engines,
#: the offline obs views, the CWL and trace frontends, failure
#: injection and the SQL provenance backend.
OFF_THE_RUN_PATH = (
    "repro.experiments.fig4",
    "repro.experiments.fig6",
    "repro.experiments.fig8",
    "repro.experiments.fig9",
    "repro.experiments.openloop",
    "repro.experiments.table1",
    "repro.baselines",
    "repro.obs.analysis",
    "repro.obs.live",
    "repro.obs.tracer",
    "repro.obs.timeline",
    "repro.obs.decisions",
    "repro.langs.cwl",
    "repro.langs.tracelang",
    "repro.cluster.failures",
    "sqlite3",
)

#: Prints every ``repro`` package's ``__all__`` name the package lacks.
UNRESOLVED_EXPORTS = """
import importlib, json, pkgutil, repro
print(json.dumps([f"{info.name}.{name}"
       for info in pkgutil.walk_packages(repro.__path__, "repro.") if info.ispkg
       for name in getattr(importlib.import_module(info.name), "__all__", ())
       if not hasattr(importlib.import_module(info.name), name)]))
"""


def fresh(code: str):
    """Run ``code`` in a new interpreter; decode the JSON it prints last."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "bench")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def loaded_after(statement: str) -> set[str]:
    """The modules a new interpreter holds after ``statement``."""
    return set(fresh(
        f"{statement}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"))


def test_benchmark_imports_load_only_the_run_path():
    modules = loaded_after("import workloads")  # bench/workloads.py
    assert "repro.service.runner" in modules
    assert sorted(
        name for name in modules for banned in OFF_THE_RUN_PATH
        if name == banned or name.startswith(banned + ".")
    ) == []


def test_cli_import_loads_no_baseline_engine():
    modules = loaded_after("import repro.cli")
    assert "repro.cli" in modules
    assert [name for name in modules if name.startswith("repro.baselines")] == []


@pytest.mark.parametrize("engine, other", [
    ("repro.baselines.tez", "repro.baselines.cloudman"),
    ("repro.baselines.cloudman", "repro.baselines.tez"),
])
def test_each_baseline_engine_loads_without_the_other(engine, other):
    modules = loaded_after(f"import {engine}")
    assert engine in modules
    assert [name for name in modules
            if name == other or name.startswith(other + ".")] == []


def test_every_exported_name_resolves():
    assert fresh(UNRESOLVED_EXPORTS) == []
