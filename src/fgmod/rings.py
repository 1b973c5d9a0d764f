"""Base rings Z and Z/n, element arithmetic, and ideal canonicalization.

Both supported rings are principal ideal rings, so every finitely generated
ideal collapses to a single canonical generator: the gcd of the generators,
further gcd'd with the modulus over Z/n.  Canonical representatives are
nonnegative, and lie in [0, n) over Z/n.
"""

from __future__ import annotations

import math

from .errors import EmptyGeneratorList

__all__ = ["RingSpec", "Ideal", "ZZ", "canonicalize_ideal", "ideal_power"]


class _Record:
    """An immutable value with the fields `_fields`, printed like a dataclass.

    A record is built from its fields in `_fields` order; one that checks
    them writes its own `__init__`, ending in `_fill`.  It equals a value of
    its own type with equal fields and hashes by them; a slot outside
    `_fields`, such as a cache, takes no part in equality, hash, repr or
    pickling.  An interned record, like `cyclic.CanonicalForm`, whose
    constructor returns the one live object of each value, keeps the
    identity's equality and hash instead."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__qualname__} takes {len(self._fields)} fields, got {len(values)}")
        self._fill(*values)

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def _fill(self, *values) -> None:
        for f, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, f, value)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class RingSpec(_Record):
    """The base ring: Z when modulus is None, otherwise Z/modulus."""

    __slots__ = _fields = ("modulus",)

    def __init__(self, modulus: int | None = None):
        if modulus is not None and modulus < 2:
            raise ValueError("modulus must be >= 2")
        self._fill(modulus)

    @staticmethod
    def integers() -> "RingSpec":
        return RingSpec(None)

    @staticmethod
    def mod(n: int) -> "RingSpec":
        return RingSpec(n)

    @property
    def is_integers(self) -> bool:
        return self.modulus is None

    def reduce(self, x: int) -> int:
        """Canonical representative of x in this ring."""
        if self.modulus is None:
            return x
        return x % self.modulus

    def __str__(self) -> str:
        return "Z" if self.modulus is None else f"Z/{self.modulus}"


ZZ = RingSpec.integers()


class Ideal(_Record):
    """A finitely generated ideal with its canonical principal generator."""

    __slots__ = _fields = ("ring", "generators", "canonical")

    def __str__(self) -> str:
        return f"({self.canonical})"


def canonicalize_ideal(ring: RingSpec, generators: list[int] | tuple[int, ...]) -> Ideal:
    """Collapse a generator list to the ideal's canonical single generator.

    Over Z the canonical generator is gcd of the generators; over Z/n it is
    additionally gcd'd with n and reduced into [0, n).  The zero ideal has
    canonical generator 0.
    """
    if len(generators) == 0:
        raise EmptyGeneratorList("an ideal needs at least one generator")
    g = 0
    for x in generators:
        g = math.gcd(g, x)
    if ring.modulus is not None:
        g = math.gcd(g, ring.modulus) % ring.modulus
    return Ideal(ring, tuple(ring.reduce(x) for x in generators), g)


def principal(ring: RingSpec, d: int) -> Ideal:
    """The ideal generated by a single element."""
    return canonicalize_ideal(ring, [d])


def ideal_power(a: Ideal, k: int) -> Ideal:
    """The k-th power; k = 0 gives the unit ideal."""
    if k < 0:
        raise ValueError("exponent must be nonnegative")
    if k == 0:
        return canonicalize_ideal(a.ring, [1])
    return canonicalize_ideal(a.ring, [a.canonical**k])
