"""Exception types shared across the package, ``MAX_DIGITS``, and
``Record``, the base of its immutable value classes: every module that
defines one already imports this module, and ``dataclasses`` (with the
``inspect``, ``ast`` and ``dis`` it loads) stays out of each command."""

from operator import attrgetter

# past these working digits zeta values raise PrecisionUnachievable and the
# CLI exits 2: a zeta pass holds about 1.2 d^2 bytes (120 MB at 10^4 digits)
MAX_DIGITS = 10_000

# sets a Record field past the frozen __setattr__
_set = object.__setattr__


class _FieldSignature:
    """``inspect.signature`` of a Record class: its fields, in order, with
    their defaults.  ``inspect`` is imported only when this is read."""

    def __get__(self, instance, owner):
        from inspect import Parameter, Signature
        kind, empty = Parameter.POSITIONAL_OR_KEYWORD, Parameter.empty
        return Signature([Parameter(f, kind,
                                    default=owner._defaults.get(f, empty))
                          for f in owner.__slots__])


class Record:
    """Base of the package's immutable value classes.

    A subclass declares its fields, in constructor order, in ``__slots__``;
    the fields that may be left out get their values from a class-level
    ``_defaults`` dict, and a subclass that validates its values overrides
    ``_check``, which runs after every construction (``_replace`` too).
    ``Record.__init__`` takes the fields by position or by keyword and
    raises TypeError where a plain ``__init__`` would.  After that,
    assigning or deleting a field raises AttributeError.  Two records are
    equal when they have the same type and equal fields, the hash follows
    the class name and the fields, and the repr is
    ``Name(field=value, ...)``.
    """

    __slots__ = ()
    _defaults = {}
    __signature__ = _FieldSignature()

    def __init_subclass__(cls):
        # what == and hash() read, in one C call: the class name, then the
        # fields
        cls._type_name = cls.__qualname__
        cls._key = attrgetter("_type_name", *cls.__slots__)

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for f, v in zip(fields, args):
            _set(self, f, v)
        self._check()

    @classmethod
    def _bind(cls, args, kwargs):
        """The field values of a call with keywords or left-out fields."""
        name, fields = cls.__qualname__, cls.__slots__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but "
                            f"{len(args)} were given")
        values = list(args)
        for f in fields[len(args):]:
            if f in kwargs:
                values.append(kwargs.pop(f))
            elif f in cls._defaults:
                values.append(cls._defaults[f])
            else:
                raise TypeError(f"{name}() missing argument {f!r}")
        if kwargs:  # what is left was given twice, or is no field
            f = next(iter(kwargs))
            what = "multiple values for" if f in fields else "an unexpected"
            raise TypeError(f"{name}() got {what} argument {f!r}")
        return values

    def _check(self):
        """Validate the fields; a subclass raises here to refuse them."""

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
