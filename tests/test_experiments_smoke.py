"""Smoke tests: every experiment module runs at reduced scale and shows
the paper's qualitative shape.

The full-shape assertions live in paper_checks/; these tests use the
smallest configurations that still exercise every code path, so that
``pytest tests/`` stays fast while covering the harness.
"""

import inspect
import os

import pytest

from repro.experiments import EXPERIMENTS, runner
from repro.experiments.common import ExperimentTable
from repro.experiments.fig4 import Fig4Config, run_fig4
from repro.experiments.fig6 import Fig6Config, run_fig6
from repro.experiments.fig8 import Fig8Config, run_fig8
from repro.experiments.fig9 import Fig9Config, run_fig9
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import Table2Config, run_table2

RESULTS = os.path.join(os.path.dirname(__file__), "..", "results")


def test_registry_covers_every_table_and_figure():
    """One experiment per committed table, and results/ holds only tables."""
    files = os.listdir(RESULTS)
    assert set(EXPERIMENTS) == {os.path.splitext(name)[0] for name in files}
    assert sorted(files) == sorted(
        name + suffix for name in EXPERIMENTS for suffix in (".txt", ".md"))


def test_every_registry_entry_resolves_to_a_runner():
    """Each stem names its module and a runner taking quick and jobs."""
    for name, (module, _) in EXPERIMENTS.items():
        run = runner(name)
        assert run.__module__ == f"repro.experiments.{module}"
        assert {"quick", "jobs"} <= set(inspect.signature(run).parameters)


def test_fig4_entries_run_their_committed_configs(monkeypatch):
    import repro.experiments.fig4 as fig4

    seen = []
    monkeypatch.setattr(fig4, "run_fig4",
                        lambda config, jobs: seen.append((config, jobs)))
    runner("fig4")(quick=False, jobs=3)
    runner("fig4_full")(quick=False, jobs=1)
    runner("fig4")(quick=True, jobs=1)
    runner("fig4_full")(quick=True, jobs=1)
    assert seen == [(Fig4Config.standard(), 3), (Fig4Config(runs=1), 1),
                    (Fig4Config.quick(), 1), (Fig4Config.quick(), 1)]


def test_fig4_standard_is_the_committed_scale():
    assert Fig4Config.standard() == Fig4Config(
        node_count=24,
        container_counts=(24, 48, 96, 192),
        samples=36,
        files_per_sample=8,
        mb_per_file=512.0,
        backbone_mb_s=30.0,
        runs=1,
    )


def test_table1_matches_paper_overview():
    table = run_table1()
    assert table.column("section") == ["4.1", "4.1", "4.2", "4.3"]
    assert table.column("language") == ["Cuneiform", "Cuneiform", "Galaxy", "DAX"]


def test_table_formatting_helpers():
    table = ExperimentTable("x", "demo", ["a", "b"])
    table.add_row(1, 2.5)
    text = table.format()
    assert "demo" in text and "2.50" in text
    markdown = table.to_markdown()
    assert markdown.startswith("| a | b |")
    with pytest.raises(ValueError):
        table.add_row(1)
    assert table.column("a") == [1]


def test_fig4_smoke():
    config = Fig4Config(
        node_count=4, container_counts=(8, 16), samples=4,
        files_per_sample=4, mb_per_file=96.0, backbone_mb_s=20.0, runs=1,
    )
    table = run_fig4(config)
    assert len(table.rows) == 2
    assert all(r > 0 for r in table.column("hiway_min"))
    # More containers -> faster.
    hiway = table.column("hiway_min")
    assert hiway[0] > hiway[1]


def test_table2_smoke_flat_runtime_and_falling_cost():
    table = run_table2(Table2Config(worker_counts=(1, 4), runs=1))
    runtimes = table.column("runtime_min")
    assert max(runtimes) / min(runtimes) < 1.1
    cost = table.column("cost_per_gb")
    assert cost[0] > cost[1]


def test_fig6_smoke_master_load_grows():
    table = run_fig6(Fig6Config(worker_counts=(1, 8)))
    hadoop = table.column("hadoop_cpu_load")
    assert hadoop[1] > hadoop[0]
    assert table.column("worker_cpu_load")[1] > 1.0


def test_fig8_smoke_hiway_wins():
    table = run_fig8(Fig8Config(node_counts=(2,), mb_per_replicate=250.0, runs=1))
    assert table.column("cloudman/hiway")[0] > 1.0


def test_fig9_smoke_provenance_helps():
    table = run_fig9(Fig9Config(consecutive_heft_runs=6, experiment_repeats=2))
    heft = table.column("heft_median_s")
    assert heft[-1] < heft[0]
    assert len(table.rows) == 6


def test_cli_main_runs_table1(capsys):
    from repro.experiments.__main__ import main

    assert main(["table1"]) == 0
    captured = capsys.readouterr()
    assert "Overview of conducted experiments" in captured.out
    # stdout is the committed table byte for byte; the timing is on stderr.
    with open(os.path.join(RESULTS, "table1.txt")) as fh:
        assert captured.out == fh.read()
    assert "(table1 regenerated in" in captured.err


def test_cli_outdir_writes_text_and_markdown(tmp_path, capsys):
    from repro.experiments.__main__ import main

    assert main(["table1"]) == 0
    stdout = capsys.readouterr().out
    outdir = tmp_path / "missing" / "out"
    assert main(["table1", "--outdir", str(outdir)]) == 0
    assert sorted(os.listdir(outdir)) == ["table1.md", "table1.txt"]
    assert (outdir / "table1.txt").read_text() == stdout
    assert (outdir / "table1.md").read_text() == run_table1().to_markdown() + "\n"


def test_statistics_helpers():
    from repro.experiments import mean, median, minutes, std

    assert mean([]) == 0.0
    assert mean([2.0, 4.0]) == 3.0
    assert std([5.0]) == 0.0
    assert std([2.0, 4.0]) == pytest.approx(2.0 ** 0.5)
    assert median([]) == 0.0
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 2.0, 3.0]) == 2.5
    assert minutes(120.0) == 2.0


def test_parallel_grid_is_byte_identical_to_serial():
    """--jobs N must change wall time only, never a single table byte."""
    config = Table2Config(worker_counts=(1, 2), runs=2)
    serial = run_table2(config, jobs=1)
    parallel = run_table2(config, jobs=2)
    assert repr(serial.rows) == repr(parallel.rows)
    assert serial.format() == parallel.format()


def test_cli_main_accepts_jobs_flag(capsys):
    from repro.experiments.__main__ import main

    assert main(["table1", "--jobs", "2"]) == 0
    assert "Overview" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["fig4_concurrent", "--quick", "--concurrent", "0"],
    ["fig4_concurrent", "--quick", "--concurrent", "-2"],
    ["table1", "--jobs", "0"],
    ["table1", "--jobs", "-3"],
], ids=["concurrent-0", "concurrent-neg", "jobs-0", "jobs-neg"])
def test_cli_rejects_non_positive_counts(argv, capsys):
    from repro.experiments.__main__ import main

    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert "must be a positive integer" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["fig4", "--quick", "--concurrent", "16"],
    ["all", "--quick", "--concurrent", "16"],
    ["table1", "--rm-policy", "drf"],
], ids=["fig4", "all", "rm-policy"])
def test_cli_rejects_concurrent_overrides_off_fig4_concurrent(argv, capsys):
    from repro.experiments.__main__ import main

    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert "apply to fig4_concurrent only" in captured.err
    assert captured.out == ""
