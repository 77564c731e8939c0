"""Exception types shared across the package, and ``Record``, the base of
its immutable value classes: every module that defines one already imports
this module, and ``dataclasses`` (with the ``inspect``, ``ast`` and ``dis``
it loads) stays out of every command's start-up."""

from operator import attrgetter

# sets a Record field from its __init__, past the frozen __setattr__
_set = object.__setattr__


class Record:
    """Base of the package's immutable value classes.

    A subclass names its fields in ``__slots__`` and sets each of them once,
    with ``_set``, in an ``__init__`` that takes them in the same order.
    After that, assigning or deleting a field raises AttributeError.  Two
    records are equal when they have the same type and equal fields, the
    hash follows the class name and the fields, and the repr is
    ``Name(field=value, ...)``.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        # what == and hash() read, in one C call: the class name, then the
        # fields
        cls._type_name = cls.__qualname__
        cls._key = attrgetter("_type_name", *cls.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is type(self):
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def _values(self):
        return self._key(self)[1:]

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}"
                           for f, v in zip(self.__slots__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def _replace(self, **changes):
        """A copy with the named fields changed."""
        return type(self)(*[changes.pop(f, v) for f, v
                            in zip(self.__slots__, self._values())], **changes)


class PosetOperadError(Exception):
    """Base class for all package-specific errors."""


class DuplicateLabel(PosetOperadError):
    pass


class UnknownLabel(PosetOperadError):
    pass


class CycleDetected(PosetOperadError):
    """Transitive closure would force a < a (includes antisymmetry breaks)."""


class ArityMismatch(PosetOperadError):
    pass


class EnumerationGuard(PosetOperadError):
    """Requested enumeration exceeds the configured size cap."""


class ModeMismatch(PosetOperadError):
    pass


class MissingProvenance(PosetOperadError):
    """Operation needs the poset that generated the series/number."""


class IndexOutOfRange(PosetOperadError):
    pass


class DivergentParameter(PosetOperadError):
    pass


class PrecisionUnachievable(PosetOperadError):
    pass


class UnknownIdentity(PosetOperadError):
    pass


class ExprSyntaxError(PosetOperadError):
    """DSL parse error with 1-based source position."""

    def __init__(self, line, col, expected, found=None):
        self.line = line
        self.col = col
        self.expected = expected
        self.found = found
        detail = f"expected {expected}" + (f", found {found!r}" if found else "")
        super().__init__(f"{line}:{col}: {detail}")


class ArityError(PosetOperadError):
    def __init__(self, line, col, message):
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: {message}")


class UnknownName(PosetOperadError):
    pass
