"""Elimination-scheme machinery: state, search, steps, certifier, colorer."""

from .build import build_scheme
from .certify import CertReport, SchemeReport, certify_entry, certify_scheme
from .colorer import color_from_scheme
from .entry import Hyperedge, SchemeEntry, StepMeta, WitnessNode, initial_entry
from .homogeneous import HomogeneousTriple, find_homogeneous
from .params import SchemeParams
from .serialize import scheme_from_json, scheme_to_json
from .split import SplitResult, geodesic_split
from .steps import step

__all__ = [
    "build_scheme",
    "CertReport",
    "SchemeReport",
    "certify_entry",
    "certify_scheme",
    "color_from_scheme",
    "Hyperedge",
    "SchemeEntry",
    "StepMeta",
    "WitnessNode",
    "initial_entry",
    "HomogeneousTriple",
    "find_homogeneous",
    "SchemeParams",
    "scheme_from_json",
    "scheme_to_json",
    "SplitResult",
    "geodesic_split",
    "step",
]
