"""Built-in recipes for every workflow of the evaluation (Sec. 3.6).

Mirrors the public recipe collection on saasfee.io: one recipe per
execution-ready workflow, each declaring the software to install and the
input data to obtain, plus a base recipe for Hi-WAY itself.
"""

from __future__ import annotations

from repro.recipes.recipe import Recipe, RecipeBook
from repro.tools.generic import generic_registry
from repro.workloads.kmeans import KMEANS_TOOLS, kmeans_inputs
from repro.workloads.montage import MONTAGE_TOOLS, montage_inputs
from repro.workloads.rnaseq import RNASEQ_TOOLS, trapline_inputs
from repro.workloads.snv import SNV_TOOLS, sample_read_files

__all__ = ["builtin_recipe_book"]


def builtin_recipe_book(kmeans_partitions: int = 4) -> RecipeBook:
    """The default recipe collection: two SNV samples, the full Trapline
    replicates, a quarter-degree Montage mosaic and ``kmeans_partitions``
    point partitions."""
    book = RecipeBook()
    book.register(Recipe.build(
        name="hiway-base",
        packages=tuple(generic_registry().names()),
    ))
    book.register(Recipe.build(
        name="snv-calling",
        packages=SNV_TOOLS,
        data=sample_read_files(2),
        depends_on=("hiway-base",),
    ))
    book.register(Recipe.build(
        name="trapline",
        packages=RNASEQ_TOOLS,
        data=trapline_inputs(),
        depends_on=("hiway-base",),
    ))
    book.register(Recipe.build(
        name="montage",
        packages=MONTAGE_TOOLS,
        data=montage_inputs(),
        depends_on=("hiway-base",),
    ))
    book.register(Recipe.build(
        name="kmeans",
        packages=KMEANS_TOOLS,
        data=kmeans_inputs(partitions=kmeans_partitions),
        depends_on=("hiway-base",),
    ))
    return book
