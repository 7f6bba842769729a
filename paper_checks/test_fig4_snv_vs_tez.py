"""Paper check: regenerate Figure 4 (SNV calling, Hi-WAY vs Tez).

Shape assertions (the reproduction target):

* at the smallest container count the two systems are comparable
  (within ~15 %);
* at the largest container count Hi-WAY's data-aware scheduling wins
  clearly (Tez at least 1.2x slower);
* the advantage grows with scale (network saturation).
"""

from repro.experiments import Fig4Config, run_fig4


def test_fig4_hiway_vs_tez(quick):
    config = Fig4Config.quick() if quick else Fig4Config()
    table = run_fig4(config)
    print()
    print(table.format())
    ratios = table.column("tez/hiway")
    assert 0.85 <= ratios[0] <= 1.2, "systems should be comparable at low scale"
    assert ratios[-1] >= 1.2, "Hi-WAY should win clearly once the network saturates"
    assert ratios[-1] >= ratios[0], "the gap should grow with scale"
    # Both systems get faster with more containers.
    hiway = table.column("hiway_min")
    assert hiway[0] > hiway[-1]
