"""The multilingual Workflow Language Interface (Sec. 3.2).

Hi-WAY sunders the tight coupling of workflow languages and execution
engines: the Workflow Driver accepts any language for which a frontend
exists. This module keeps a registry of frontends and offers best-effort
format detection, so ``parse_workflow(text)`` does the right thing for
all five built-in languages. Registering a new non-iterative language
takes one function that parses text into a task source. A built-in
frontend's module is imported the first time its language is parsed.
"""

from __future__ import annotations

import importlib
import json
from typing import Callable, Optional

from repro.errors import LanguageError
from repro.workflow.model import TaskSource

__all__ = ["register_language", "parse_workflow", "detect_language", "LANGUAGES"]

#: language name -> frontend(text, **kwargs) -> TaskSource
LANGUAGES: dict[str, Callable[..., TaskSource]] = {}


def register_language(name: str, frontend: Callable[..., TaskSource]) -> None:
    """Add a language frontend (extensibility hook of Sec. 3.2)."""
    LANGUAGES[name] = frontend


def _builtin(module: str, source: str) -> Callable[..., TaskSource]:
    """A frontend that builds ``repro.langs.<module>.<source>``."""

    def frontend(text: str, **kwargs) -> TaskSource:
        cls = getattr(importlib.import_module(f"repro.langs.{module}"), source)
        return cls(text, **kwargs)

    return frontend


register_language("cuneiform", _builtin("cuneiform", "CuneiformSource"))
register_language("dax", _builtin("dax", "DaxSource"))
register_language("cwl", _builtin("cwl", "CwlSource"))
register_language("galaxy", _builtin("galaxy", "GalaxySource"))
register_language("trace", _builtin("tracelang", "TraceSource"))


def detect_language(text: str) -> str:
    """Best-effort detection of the workflow language of ``text``."""
    stripped = text.lstrip()
    if not stripped:
        raise LanguageError("empty workflow file")
    if stripped.startswith("<"):
        return "dax"
    if stripped.startswith("{"):
        # Both Galaxy exports and JSON-lines traces start with a brace;
        # trace lines are self-contained objects carrying a "kind" field.
        first_line = stripped.splitlines()[0].strip()
        try:
            record = json.loads(first_line)
        except json.JSONDecodeError:
            record = None  # pretty-printed (multi-line) JSON document
        if isinstance(record, dict) and "kind" in record:
            return "trace"
        try:
            document = json.loads(text)
        except json.JSONDecodeError:
            return "galaxy"  # fragments; let the frontend report details
        if isinstance(document, dict) and document.get("class") == "Workflow":
            return "cwl"
        return "galaxy"
    return "cuneiform"


def parse_workflow(
    text: str, language: Optional[str] = None, **kwargs
) -> TaskSource:
    """Parse ``text`` in the given (or detected) language."""
    name = language or detect_language(text)
    try:
        frontend = LANGUAGES[name]
    except KeyError:
        raise LanguageError(
            f"unknown workflow language {name!r}; known: {sorted(LANGUAGES)}"
        ) from None
    return frontend(text, **kwargs)
