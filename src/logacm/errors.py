"""Exception types shared across the engine."""


class EngineError(Exception):
    """Base class for all engine errors."""


class InputError(EngineError):
    """Malformed input: rank mismatch, bad class vector, unknown field."""


class NotAmple(EngineError):
    """Polarization fails the ampleness test of its catalog variety."""


class NotVeryAmple(EngineError):
    """Polarization fails the catalog very-ampleness rule required for
    regularity certification."""


class NonGeneralConfig(EngineError):
    """Blow-up point configuration violates the k<=4 generality assumption."""


class NotRulingArrangement(EngineError):
    """Quadric splitting shortcut called on a non-ruling arrangement."""


class InconsistentHints(EngineError):
    """No admissible connecting-rank assignment exists; the sequence model
    or a fact its rule gives is wrong."""


class WindowNotFound(EngineError):
    """Regularity search exhausted its cap without certifying a vanishing
    window."""

    def __init__(self, cap, detail=""):
        self.cap = cap
        super().__init__(f"no certified window within cap={cap}" + (f": {detail}" if detail else ""))


class IntervalPresent(EngineError):
    """An operation that requires a fully exact table met an inexact entry."""


class OutOfScope(EngineError):
    """Requested computation lies outside the supported catalog."""
