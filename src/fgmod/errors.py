"""Exception types raised across the package."""


class FgmodError(Exception):
    """Base class for all package-specific errors."""


class EmptyGeneratorList(FgmodError):
    """An ideal needs at least one generator."""


class DimensionMismatch(FgmodError):
    """Matrix or vector shapes are incompatible."""


class RingMismatch(FgmodError):
    """Operands live over different base rings."""


class AmbientMismatch(FgmodError):
    """Submodules being compared sit inside different ambient modules."""


class FreePartNotSupported(FgmodError):
    """The duality functor is only defined on torsion modules over Z."""


class NonStabilizing(FgmodError):
    """An adic limit is not a finitely generated module over the base ring.

    Raised instead of returning a wrong value.  Over Z and Z/n this happens
    only when a free Z summand is completed along a generator that is
    neither 0 nor a unit: completing Z at (2) gives the 2-adic integers.
    """


class InfiniteModule(FgmodError):
    """Element enumeration requires a finite module."""


class UnsupportedShape(FgmodError):
    """The closed-form oracle only covers torsion first arguments over Z."""


class UnknownClaim(FgmodError):
    """The claim identifier is not registered with the harness."""

    def __init__(self, claim_id: str):
        self.claim_id = claim_id
        super().__init__(f"unknown claim {claim_id!r}; `fgmod verify --list-claims` lists the known ids")


class AnswerTooLong(FgmodError):
    """An answer has a modulus too long to print in decimal."""


class InvalidGrid(FgmodError):
    """A verification grid description is missing a field or out of range."""


class GrammarError(FgmodError):
    """Unparseable ring, ideal, or module expression.

    Raised by `fgmod.grammar`, which re-exports it; it is defined here so
    that the command line catches it without loading the grammar."""
