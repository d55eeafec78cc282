"""Exact structure constant tables for pseudo H-type Lie algebras."""

from .words import Signature
from .lie_algebra import derive_table, generate_table, verify_htype
from .golden import build_n07, match_generated

__version__ = "0.1.0"

__all__ = [
    "Signature",
    "generate_table",
    "derive_table",
    "verify_htype",
    "match_generated",
    "build_n07",
    "__version__",
]
