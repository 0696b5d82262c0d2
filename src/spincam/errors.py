"""Exception types shared across the toolkit."""


class SpincamError(Exception):
    """Base class for all toolkit errors."""


class NonPositiveDepth(SpincamError, ValueError):
    """Point lies on or behind the camera plane (z <= 0)."""


class OutOfRange(SpincamError, ValueError):
    """Query outside a model's domain: a time outside the span of a pose
    track (no extrapolation), or a pixel at or past a barrel lens's fold."""


class NoObservations(SpincamError, ValueError):
    """Extrinsic refinement called without any usable correspondences."""


class InfeasibleWrench(SpincamError, ValueError):
    """Requested wrench needs a negative squared motor speed."""


class InvalidConfig(SpincamError, ValueError):
    """Scenario or run configuration fails validation."""


class DegenerateBox(SpincamError, ValueError):
    """Bounding box subtends a zero angle; distance is undefined."""


class CardinalityMismatch(SpincamError, ValueError):
    """Prediction and ground-truth lists differ in length."""


class ParseError(SpincamError, ValueError):
    """A data file is malformed; message carries line/record context."""


class VersionMismatch(SpincamError, ValueError):
    """File schema version is not supported by this toolkit build."""


class NonFiniteValue(SpincamError, ValueError):
    """A numeric field in an input file is NaN, infinite, or degenerate."""


class InsufficientOverlap(SpincamError, ValueError):
    """Two sequences do not overlap enough for offset estimation."""
