"""Exception hierarchy shared by all cgm modules."""


class CgmError(Exception):
    """Base class for every error raised by this package."""

    span = None   # where in the source, when raised while parsing


class BiasOutOfRange(CgmError):
    """A flip bias outside [0, 1]."""


class NonFiniteParam(CgmError):
    """A float generator parameter, component weight or input point that
    is infinite or NaN."""


class NonFiniteResult(CgmError):
    """Float arithmetic gave an infinite or NaN matrix entry."""


class InvalidParam(CgmError, TypeError):
    """A generator parameter or matrix entry that is not a number (a bool,
    a string, ...)."""


class MissingParam(CgmError):
    """A generator that requires a parameter was built without one."""


class UnexpectedParam(CgmError):
    """A parameter was supplied to a generator that takes none."""


class TypeMismatch(CgmError):
    """Boundary words do not line up.

    Carries the two offending words and, when raised during parsing, the
    source span of the composition operator.
    """

    def __init__(self, message, expected=None, actual=None, span=None):
        super().__init__(message)
        self.expected = expected
        self.actual = actual
        self.span = span


class DimensionMismatch(CgmError):
    """Matrix or vector dimensions are not conformable."""


class NotPSD(CgmError):
    """A matrix handed to `ldlt`, or a variance to split into squares, is not
    positive semi-definite."""


class InputCapExceeded(CgmError):
    """A circuit has more Boolean inputs than the configured cap allows."""


class InvalidDrawCount(CgmError):
    """A sampler or the soundness harness was asked for a count that is
    not a non-negative integer."""


class InvalidSeed(CgmError):
    """A sampler was given a seed that is not a non-negative integer."""


class InvalidBits(CgmError, ValueError):
    """A bit string holds a character other than 0 and 1."""


class InvalidTerm(CgmError, ValueError):
    """An unknown generator name, or a sequential composite of no terms."""


class InvalidGadget(CgmError, ValueError):
    """A gadget builder was given a negative width, no guard, or a
    destination list that is not a permutation."""


class UnknownBackend(CgmError, ValueError):
    """An evaluation backend other than auto, rational and float."""


class InvalidWeight(CgmError):
    """A mixture weight is negative, or a row's weights have no positive
    finite sum to draw from."""


class ParseError(CgmError):
    """Syntax error in circuit text; carries a span and the expected tokens."""

    def __init__(self, message, span, expected=()):
        super().__init__(message)
        self.span = span
        self.expected = frozenset(expected)


class InadmissibleBinding(CgmError):
    """An axiom-schema binding violates one of the schema's constraints."""

    def __init__(self, message, constraint=None):
        super().__init__(message)
        self.constraint = constraint


class NoMatch(CgmError):
    """A rewrite was attempted at a subterm that does not match the pattern."""

    def __init__(self, message, position=()):
        super().__init__(message)
        self.position = tuple(position)


class InvalidPath(CgmError):
    """A rewrite path does not denote a subterm."""
