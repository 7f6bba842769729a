"""Table 1: overview of the conducted experiments."""

from __future__ import annotations

from repro.experiments.common import ExperimentTable

__all__ = ["run_table1"]


def run_table1(jobs: int | None = 1) -> ExperimentTable:
    """Regenerate the experiment-overview table.

    Static metadata by nature; the rows double as an index into the
    other experiment modules. ``jobs`` is accepted for harness
    uniformity and ignored — there is nothing to parallelise.
    """
    table = ExperimentTable(
        experiment_id="table1",
        title="Overview of conducted experiments",
        columns=[
            "workflow", "domain", "language", "scheduler",
            "infrastructure", "runs", "evaluation", "section",
        ],
    )
    table.add_row(
        "SNV Calling", "genomics", "Cuneiform", "data-aware",
        "24 Xeon E5-2620", 3, "performance, scalability", "4.1",
    )
    table.add_row(
        "SNV Calling", "genomics", "Cuneiform", "FCFS",
        "128 EC2 m3.large", 3, "scalability", "4.1",
    )
    table.add_row(
        "RNA-seq", "bioinformatics", "Galaxy", "data-aware",
        "6 EC2 c3.2xlarge", 5, "performance", "4.2",
    )
    table.add_row(
        "Montage", "astronomy", "DAX", "HEFT",
        "8 EC2 m3.large", 80, "adaptive scheduling", "4.3",
    )
    table.notes = (
        "Paper Table 1 reproduced verbatim; the Montage row says '8 EC2 "
        "m3.large' in the paper although Sec. 4.3's text provisions 11 "
        "workers + 1 master (we follow the text)."
    )
    return table
