"""Workflow language frontends: Cuneiform, DAX, Galaxy, CWL, traces.

The package exports the registry and the sources that runs build
directly; :func:`parse_workflow` imports any other frontend on first
use. Import the CWL and trace sources from :mod:`repro.langs.cwl` and
:mod:`repro.langs.tracelang`.
"""

from repro.langs.base import (
    LANGUAGES,
    detect_language,
    parse_workflow,
    register_language,
)
from repro.langs.cuneiform import CuneiformSource
from repro.langs.dax import DaxSource, parse_dax
from repro.langs.galaxy import GalaxySource, parse_galaxy

__all__ = [
    "parse_workflow",
    "detect_language",
    "register_language",
    "LANGUAGES",
    "CuneiformSource",
    "DaxSource",
    "parse_dax",
    "GalaxySource",
    "parse_galaxy",
]
