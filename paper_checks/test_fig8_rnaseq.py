"""Paper check: regenerate Figure 8 (TRAPLINE RNA-seq, Hi-WAY vs CloudMan).

Shape assertions: Hi-WAY outperforms Galaxy CloudMan at every cluster
size (paper: by at least 25 %; we accept >= 15 % to leave calibration
head-room), and both systems speed up with more nodes.
"""

from repro.experiments import Fig8Config, run_fig8


def test_fig8_hiway_vs_cloudman(quick):
    config = Fig8Config.quick() if quick else Fig8Config()
    table = run_fig8(config)
    print()
    print(table.format())
    ratios = table.column("cloudman/hiway")
    assert all(r >= 1.15 for r in ratios), (
        "Hi-WAY must beat CloudMan at every cluster size"
    )
    hiway = table.column("hiway_min")
    cloudman = table.column("cloudman_min")
    assert hiway[0] > hiway[-1], "Hi-WAY must scale with nodes"
    assert cloudman[0] > cloudman[-1], "CloudMan must scale with nodes"
