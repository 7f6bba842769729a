"""Paper check: regenerate Figure 9 (HEFT vs FCFS under heterogeneity).

Shape assertions:

* HEFT without provenance is no better than FCFS (static placement
  cannot react to stragglers);
* converged HEFT (complete estimates) clearly beats FCFS;
* runtimes become markedly more stable once estimates are complete.
"""

from repro.experiments import Fig9Config, mean, run_fig9


def test_fig9_heft_learning_curve(quick):
    config = (
        Fig9Config(consecutive_heft_runs=14, experiment_repeats=6)
        if quick
        else Fig9Config()
    )
    table = run_fig9(config)
    print()
    print(table.format())
    heft = table.column("heft_median_s")
    stds = table.column("heft_std_s")
    fcfs = table.column("fcfs_median_s")[0]
    assert heft[0] >= fcfs * 0.9, "HEFT without provenance must not beat FCFS"
    converged = mean(heft[-3:])
    assert converged < fcfs * 0.6, "converged HEFT must clearly beat FCFS"
    assert converged < heft[0] * 0.6, "provenance must improve HEFT markedly"
    # Stability: the last iterations' spread collapses vs the early ones.
    assert mean(stds[-3:]) < max(stds[:4]) / 2
