"""Karamel-style orchestration (Sec. 3.6).

Karamel runs Chef recipes to bring up a complete Hi-WAY execution
environment — Hadoop, Hi-WAY, and selected execution-ready workflows,
including their input data — "with only a few clicks". The
:class:`Karamel` orchestrator does the same for the simulated substrate:
given a cluster definition and recipe names, it builds the cluster,
brings up HDFS + YARN + Hi-WAY, installs every package on every node,
and stages all declared data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cluster.cluster import Cluster
from repro.cluster.specs import ClusterSpec
from repro.core.client import HiWay
from repro.core.config import HiWayConfig
from repro.recipes.recipe import Recipe, RecipeBook
from repro.sim.engine import Environment

__all__ = ["ClusterDefinition", "Karamel"]


@dataclass
class ClusterDefinition:
    """The cluster section of a Karamel definition file."""

    name: str
    spec: ClusterSpec
    recipes: list[str] = field(default_factory=list)
    hiway_config: Optional[HiWayConfig] = None
    max_containers_per_node: Optional[int] = None


class Karamel:
    """Applies recipes to bring up ready-to-run Hi-WAY installations."""

    def __init__(self, book: RecipeBook):
        self.book = book

    def launch(
        self, definition: ClusterDefinition, env: Optional[Environment] = None
    ) -> HiWay:
        """Provision a cluster per ``definition`` and return Hi-WAY on it.

        Staging the declared input data advances the simulation clock
        (the writes go through the normal HDFS data path), mirroring the
        real setup cost; package installation is instantaneous, as in
        the paper it happens before the measured experiment.
        """
        env = env or Environment()
        cluster = Cluster(env, definition.spec)
        hiway = HiWay(
            cluster,
            config=definition.hiway_config,
            max_containers_per_node=definition.max_containers_per_node,
        )
        for recipe in self.book.resolve(definition.recipes):
            self.apply(recipe, hiway)
        return hiway

    def apply(self, recipe: Recipe, hiway: HiWay) -> None:
        """Apply one recipe to an existing installation."""
        if recipe.packages:
            hiway.install_everywhere(*recipe.packages)
        staged = {
            item.path: item.size_mb for item in recipe.data if not item.external
        }
        for item in recipe.data:
            if item.external:
                hiway.hdfs.register_external(item.path, item.size_mb)
        if staged:
            hiway.stage_inputs(staged)
