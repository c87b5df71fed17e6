"""Grammar-compressed self-index for highly repetitive texts.

Builds a binary grammar by edit-sensitive parsing, encodes it with
rank/select dictionaries, and answers count/locate/extract queries directly
on the compressed representation.
"""

from .succinct import BitVector, LargeAlphabetSequence
from .esp import Grammar, build_grammar, expand, log_star
from .index import (
    EspIndex,
    Evidence,
    ChecksumError,
    IndexLoadError,
    MagicError,
    TruncationError,
    VersionError,
    encode,
)

__all__ = [
    "BitVector",
    "LargeAlphabetSequence",
    "Grammar",
    "build_grammar",
    "expand",
    "log_star",
    "EspIndex",
    "Evidence",
    "encode",
    "IndexLoadError",
    "MagicError",
    "VersionError",
    "TruncationError",
    "ChecksumError",
]

__version__ = "0.1.0"
