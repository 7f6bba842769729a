"""Paper check: regenerate Table 1 (experiment overview)."""

from repro.experiments import run_table1


def test_table1_overview():
    table = run_table1()
    print()
    print(table.format())
    assert len(table.rows) == 4
    assert table.column("workflow") == [
        "SNV Calling", "SNV Calling", "RNA-seq", "Montage",
    ]
    assert table.column("scheduler") == ["data-aware", "FCFS", "data-aware", "HEFT"]
