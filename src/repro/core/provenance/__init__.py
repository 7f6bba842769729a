"""Provenance recording, storage backends, and scheduler statistics.

The trace is a fold over the observability bus: the manager's handlers
build every record from one bus event, so the same handlers rebuild the
trace from a decoded event journal.
"""

from repro.core.provenance.events import FILE_EVENT, TASK_EVENT, WORKFLOW_EVENT
from repro.core.provenance.manager import ProvenanceManager
from repro.core.provenance.stores import (
    DocumentProvenanceStore,
    ProvenanceStore,
    SqlProvenanceStore,
    TraceFileStore,
)

__all__ = [
    "ProvenanceManager",
    "ProvenanceStore",
    "TraceFileStore",
    "SqlProvenanceStore",
    "DocumentProvenanceStore",
    "WORKFLOW_EVENT",
    "TASK_EVENT",
    "FILE_EVENT",
]
