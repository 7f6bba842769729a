"""Paper check: regenerate Figure 6 (master/worker resource utilisation).

Shape assertions: master-side load grows with cluster size yet stays far
below saturation, while workers remain CPU-bound near their core count.
"""

from repro.experiments import Fig6Config, run_fig6


def test_fig6_utilization(quick):
    config = Fig6Config.quick() if quick else Fig6Config()
    table = run_fig6(config)
    print()
    print(table.format())
    hadoop_cpu = table.column("hadoop_cpu_load")
    hiway_cpu = table.column("hiway_cpu_load")
    worker_cpu = table.column("worker_cpu_load")
    # Master load increases with scale ...
    assert hadoop_cpu[-1] > hadoop_cpu[0]
    assert hiway_cpu[-1] > hiway_cpu[0]
    # ... but stays far below the 2-core capacity (< 10 %).
    assert hadoop_cpu[-1] < 0.2
    assert hiway_cpu[-1] < 0.2
    # The Hi-WAY AM's load is the same order of magnitude as Hadoop's.
    assert hiway_cpu[-1] > hadoop_cpu[-1] / 20
    # Workers stay CPU-saturated (close to 2.0 on m3.large).
    assert all(load > 1.5 for load in worker_cpu)
