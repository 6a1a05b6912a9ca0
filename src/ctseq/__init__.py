"""Constant term sequences ct(P^n Q) modulo prime powers.

Exact tools for the digit-indexed matrix representation of these
sequences, the associated forward and reverse automata, the fixed-point
letter stream, the prime-power reduction, and the recurrence
classification, all cross-checked against a brute-force oracle.
"""

from .classify import (
    GapReport,
    ScanReport,
    Verdict,
    combine,
    combine_components,
    conjecture_scan,
    gap_stats,
    reachable_states,
    verdict,
    zero_frequency,
    zero_witness,
)
from .dfao import Dfao, build_forward, build_reverse
from .errors import CtseqError, ParseError, ResourceLimitError, RingMismatchError
from .laurent import LaurentPoly
from .linrep import IndexSet, LinRep, StateVector, build_index
from .morphism import MorphicStream
from .primepower import TildeReduction, build_reduction, reduce_p_tilde
from .textio import PRESETS, format_poly, parse_poly, preset

__version__ = "0.1.0"

__all__ = [
    "CtseqError",
    "Dfao",
    "GapReport",
    "IndexSet",
    "LaurentPoly",
    "LinRep",
    "MorphicStream",
    "ParseError",
    "PRESETS",
    "ResourceLimitError",
    "RingMismatchError",
    "ScanReport",
    "StateVector",
    "TildeReduction",
    "Verdict",
    "build_forward",
    "build_index",
    "build_reduction",
    "build_reverse",
    "combine",
    "combine_components",
    "conjecture_scan",
    "format_poly",
    "gap_stats",
    "parse_poly",
    "preset",
    "reachable_states",
    "reduce_p_tilde",
    "verdict",
    "zero_frequency",
    "zero_witness",
    "__version__",
]
