"""Paper check: regenerate Table 2 / Figure 5 (weak scaling, cost per GB).

Shape assertions: runtime stays flat (near-linear scalability) while the
cost per gigabyte falls monotonically toward ~$0.10.
"""

from repro.experiments import Table2Config, run_table2


def test_table2_weak_scaling(quick):
    config = Table2Config.quick() if quick else Table2Config()
    table = run_table2(config)
    print()
    print(table.format())
    runtimes = table.column("runtime_min")
    # Near-linear scalability: doubling data+workers leaves runtime flat.
    assert max(runtimes) / min(runtimes) < 1.15
    # The paper's single-node anchor: ~340 minutes per 8 GB sample.
    assert 250 < runtimes[0] < 430
    cost_per_gb = table.column("cost_per_gb")
    assert all(a >= b for a, b in zip(cost_per_gb, cost_per_gb[1:])), (
        "cost per GB must fall with scale"
    )
    assert cost_per_gb[0] > 1.5 * cost_per_gb[-1]
