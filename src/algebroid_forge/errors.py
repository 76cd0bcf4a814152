"""Exception types shared across the package, and the clip of echoed input."""

CLIP = 40


def clip(text: str) -> str:
    """Input text as an error message echoes it: its first CLIP characters, then "..."."""
    return text if len(text) <= CLIP else text[:CLIP] + "..."


class ForgeError(Exception):
    """Base class for all errors raised by this package."""


class DivisionByZero(ForgeError):
    """Division by a zero rational function."""


class DegreeOverflow(ForgeError):
    """A polynomial degree beyond rational.MAX_DEGREE, the packed-monomial bound."""

    def __init__(self, degree, bound):
        super().__init__(f"polynomial degree {degree} exceeds {bound}")
        self.degree = degree


class TermOverflow(ForgeError):
    """A polynomial product whose term bound exceeds rational.MAX_TERMS."""

    def __init__(self, terms, bound):
        super().__init__(f"polynomial product of up to {terms} terms exceeds {bound}")
        self.terms = terms


class GcdGiveUp(ForgeError):
    """A polynomial gcd that GCDHEU did not find at rational.GCD_POINTS evaluation points."""


class UnknownCoordinate(ForgeError):
    """A coordinate name outside the chart's coordinate list."""


class VarianceMismatch(ForgeError):
    """Mixed multivector/form arguments where one variance is required."""


class DegreeMismatch(ForgeError):
    """Graded arguments of incompatible degrees."""


class ParentMismatch(ForgeError):
    """Sections attached to different presentations."""


class MalformedPresentation(ForgeError):
    """Shape errors in algebroid structure data."""


class MalformedMorphism(ForgeError):
    """Shape errors in bundle-morphism data."""


class HypothesisNotSatisfied(ForgeError):
    """A constructor's precondition failed; the message names what failed."""


class ParseError(ForgeError):
    """Syntax error with source position."""

    def __init__(self, line, column, expected, found=""):
        self.line = line
        self.column = column
        self.expected = expected
        self.found = found
        msg = f"{line}:{column}: expected {expected}"
        if found:
            msg += f", found {clip(found)!r}"
        super().__init__(msg)


class SemanticError(ForgeError):
    """Well-formed syntax with invalid meaning (unknown name, bad index)."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{line}:{column}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column
