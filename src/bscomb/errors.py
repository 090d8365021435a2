"""Exception hierarchy shared by all modules, and the resource bounds.

Each exhaustive walk, and each polynomial expansion, is bounded by one
constant below and refuses through `check_bound`.  A caller (the CLI's
--max-weyl and --max-length) may check a tighter bound first; it cannot
loosen these.
"""

MAX_RANK = 30              # simple roots of a root system
MAX_WEYL = 100_000         # |W| of a Weyl group enumerated in full
MAX_LENGTH = 20            # positions of a sequence whose 2^n galleries are walked
MAX_BASIS_LENGTH = 10      # positions of a sequence given a triangular basis
MAX_MORPHISM_LENGTH = 12   # positions of a morphism's source or target
MAX_TERMS = 10_000         # terms of a polynomial product or quotient
MAX_CANDIDATES = 20_000    # (p, w, seed) candidates of one morphism enumeration
MAX_LEVEL_TERMS = 100_000  # product terms of one level of a triangular basis


class BscombError(Exception):
    """Base class for errors raised by this package."""


class InvalidInputError(BscombError):
    """An argument violates a documented precondition."""


class ResourceLimitError(BscombError):
    """An enumeration would exceed a configured bound."""


def check_bound(what: str, value: int, bound: int) -> None:
    """Refuse value above bound: "<what> <value> exceeds bound <bound>"."""
    if value > bound:
        raise ResourceLimitError(f"{what} {value} exceeds bound {bound}")


class ParseError(BscombError):
    """A textual input could not be parsed."""


class NotInSpanError(BscombError):
    """A fixed-point function is not in the span of the triangular basis.

    Carries the first failing subset and the non-divisible remainder.
    """

    def __init__(self, subset, remainder, message=None):
        self.subset = subset
        self.remainder = remainder
        super().__init__(message or f"not in span: division fails at {sorted(subset)}")


class VerificationError(BscombError):
    """A certificate or morphism failed re-verification."""


class PropertyViolationError(BscombError):
    """An exhaustive check falsified an expected structural property.

    This indicates a bug in the implementation, not in the mathematics.
    """
