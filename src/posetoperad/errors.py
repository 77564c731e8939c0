"""Exception types shared across the package."""


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
