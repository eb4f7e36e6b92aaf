"""Error types shared across the package.

Class names double as the error identifiers printed by the CLI and listed
in docs/format.md, so they are spelled without an ``Error`` suffix.
"""


class MuxnetError(Exception):
    """Base class for every error raised by this package."""


# quantizer / static table
class NonFiniteWeight(MuxnetError):
    pass


class EnumerationTooLarge(MuxnetError):
    pass


class ModeMismatch(MuxnetError):
    pass


class OddSplitUnsupported(MuxnetError):
    pass


# processing engine
class BadLineIndex(MuxnetError):
    pass


class AccumulatorOverflow(MuxnetError):
    pass


class ShapeError(MuxnetError):
    pass


# compiler / artifacts
class BadBNParams(MuxnetError):
    pass


class UnsupportedLayer(MuxnetError):
    pass


class BadArtifact(MuxnetError):
    pass


class CorruptArtifact(MuxnetError):
    pass


# pipeline / closed loop
class SegmentLengthError(MuxnetError):
    pass


class LoopConfigError(MuxnetError):
    pass
