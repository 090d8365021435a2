"""Exception hierarchy shared by all modules, the resource bounds, the
numeral rule, and the base of the library's immutable value types.

Each exhaustive walk, and each polynomial expansion, is bounded by one
constant below and refuses through `check_bound`.  `MAX_EXPONENT` keeps
the top bit of each variable's 64-bit field of a packed monomial (`poly`)
clear, so a product's exponent past it shows as that bit.  A caller (the
CLI's --max-weyl and --max-length) may check a tighter bound first; it
cannot loosen these.  Every layer imports this module, and the CLI loads it even
for a usage error, so what lives here adds no module to any command.
Each error class carries the CLI's exit status for it, `exit_code` (2 where
a class names none), so a new class has one where it is defined.
"""

from operator import attrgetter

MAX_RANK = 30              # simple roots of a root system
MAX_WEYL = 100_000         # |W| of a Weyl group enumerated in full
MAX_LENGTH = 20            # positions of a sequence whose 2^n galleries are walked
MAX_BASIS_LENGTH = 10      # positions of a sequence given a triangular basis
MAX_MORPHISM_LENGTH = 12   # positions of a morphism's source or target
MAX_TERMS = 10_000         # terms of a polynomial product or quotient
MAX_CANDIDATE_GALLERIES = 100_000  # morphism candidates times the 2^n galleries each verifies
MAX_LEVEL_TERMS = 100_000  # product terms of one level of a triangular basis
MAX_EXPONENT = 2**63 - 1   # exponent of one variable: a polynomial's 64-bit packed field


# the one numeral of every grammar and of the CLI's bound flags: ASCII
# digits without a leading zero, as str(int) writes them
NUMERAL = "(?:0|[1-9][0-9]*)"


class Value:
    """Base of the library's immutable value types.

    A subclass names its fields in `__slots__`, with "__dict__" where a
    `cached_property` needs one.  For each subclass two functions are
    written from those names, as `collections.namedtuple` writes its
    `__new__`: the setter `_fill(self, f1, ..., fk)`, which sets each field
    once past the `__setattr__` that refuses assignment, and the maker
    `_trusted(f1, ..., fk)`, which makes a new value from fields the
    library has made valid itself, not checked and not copied.  A subclass
    without its own `__init__` takes `_fill` as its constructor, so its
    signature lists the fields in order; one that checks its arguments
    stores them in one `self._fill(...)`.  Equality and the hash read one
    tuple of fields, the class's key: every field, or those the class
    statement names (`compare=`), so the hash is the hash of that tuple.
    `copy`, `deepcopy` and `pickle` rebuild a value through `_trusted`,
    with no `__dict__`, unless its class has its own `__reduce__`.
    """

    __slots__ = ()

    def __init_subclass__(cls, compare=None):
        fields = [name for name in cls.__slots__ if name != "__dict__"]
        names = compare or fields
        # an attrgetter is not a descriptor, so self._key(v) reads v's key;
        # of one name it returns the bare field, hashed as a 1-tuple
        cls._key, cls._one = attrgetter(*names), len(names) == 1
        cls._fields, args = tuple(fields), ", ".join(fields)
        body = "".join(f"\n    _set(self, {name!r}, {name})" for name in fields)
        namespace = {"_set": object.__setattr__, "_new": object.__new__, "_cls": cls,
                     "__name__": cls.__module__}
        exec(f"def _fill(self, {args}):{body}\n"
             f"def _trusted({args}):\n    self = _new(_cls){body}\n    return self", namespace)
        for name in ("_fill", "_trusted"):
            namespace[name].__qualname__ = f"{cls.__qualname__}.{name}"
        cls._fill, cls._trusted = namespace["_fill"], staticmethod(namespace["_trusted"])
        if "__init__" not in cls.__dict__:
            cls.__init__ = cls._fill

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        key = self._key(self)
        return hash((key,) if self._one else key)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self._trusted, tuple(getattr(self, name) for name in self._fields)

    def __repr__(self):
        fields = (f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({', '.join(fields)})"


class BscombError(Exception):
    """Base class for errors raised by this package."""
    exit_code = 2


class InvalidInputError(BscombError):
    """An argument violates a documented precondition."""


class ResourceLimitError(BscombError):
    """An enumeration would exceed a configured bound."""
    exit_code = 3


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
    exit_code = 4

    def __init__(self, subset, remainder):
        self.subset = subset
        self.remainder = remainder
        super().__init__(f"not in span: division fails at {sorted(subset)}")


class VerificationError(BscombError):
    """A certificate or morphism failed re-verification."""
    exit_code = 4


class PropertyViolationError(BscombError):
    """An exhaustive check falsified an expected structural property.

    This indicates a bug in the implementation, not in the mathematics.
    """
