"""Unified terminal report of one workflow execution, on any engine."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ExecutionResult"]


@dataclass
class ExecutionResult:
    """Terminal report of one workflow execution."""

    workflow_id: str = ""
    name: str = "workflow"
    scheduler: str = ""
    success: bool = False
    started_at: float = 0.0
    finished_at: float = 0.0
    tasks_completed: int = 0
    task_failures: int = 0
    output_files: dict[str, float] = field(default_factory=dict)
    diagnostics: list[str] = field(default_factory=list)
    engine: str = "core"

    @property
    def runtime_seconds(self) -> float:
        return self.finished_at - self.started_at

