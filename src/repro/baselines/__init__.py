"""Baseline systems the paper compares against: Tez and Galaxy CloudMan.

Import each engine from its own package, ``repro.baselines.tez`` or
``repro.baselines.cloudman``; this package imports neither, so a run
loads only the engine it uses.
"""
