"""Finitely presented modules: canonical forms, isomorphism tests, maps.

A module is the cokernel of its relation matrix: `gens` generators, one
relation per *column* of `rels`.  The invariant-factor decomposition computed
from the Smith normal form of the relations is a complete isomorphism
invariant over both supported rings, so every "is isomorphic" question in the
package reduces to equality of canonical forms.

Submodules are carried as (ambient, generator columns) pairs so that
membership tests stay exact; converting one to a standalone presentation
computes the relations of its span.

Every function that takes an ideal, here and in `adic` and `cohomology`,
reads it through `_generator`, so an ideal over another ring raises
RingMismatch in all of them.  One adapter, `_by_invariants`, makes every
value function of `adic`, `functors` and `cohomology` that only asks `cyclic`.

`CanonicalForm`, which interns its values, lives in `cyclic`, which needs
no matrix; it is re-exported here.
"""

from __future__ import annotations

import inspect
from functools import lru_cache

from . import cyclic
from .cyclic import CanonicalForm
from .elimination import cokernel_orders
from .errors import AmbientMismatch, RingMismatch
from .linalg import (
    MatrixR,
    block_diag,
    from_columns,
    hstack,
    kernel_generators,
    solve_columns,
    spans_include,
)
from .rings import Ideal, RingSpec, _Record

__all__ = [
    "Presentation",
    "CanonicalForm",
    "ModuleMap",
    "Submodule",
    "canonical_form",
    "canonical_presentation",
    "canonicalize",
    "iso_test",
    "direct_sum",
    "quotient_by_ideal",
    "ideal_multiple",
    "kernel_of_map",
    "kernel_submodule",
    "mult_map",
    "identity_map",
    "submodule_equal",
    "quotient_by_submodule",
    "scaled_submodule",
    "module_order",
    "is_zero_module",
    "express_in_span",
]


class Presentation(_Record):
    """A finitely presented module: cokernel of the relation matrix."""

    __slots__ = _fields = ("ring", "gens", "rels")

    def __init__(self, ring: RingSpec, gens: int, rels: MatrixR):
        if rels.rows != gens:
            raise ValueError("relation matrix must have one row per generator")
        if rels.ring != ring:
            raise RingMismatch("relations live over the wrong ring")
        self._fill(ring, gens, rels)

    def __hash__(self) -> int:
        return hash((self.ring.modulus or 0, self.gens, self.rels))

    @staticmethod
    def free(ring: RingSpec, rank: int) -> "Presentation":
        return Presentation(ring, rank, MatrixR(ring, rank, 0, ((),) * rank))

    @staticmethod
    def zero(ring: RingSpec) -> "Presentation":
        return Presentation(ring, 0, MatrixR(ring, 0, 0, ()))

    @staticmethod
    def cyclic(ring: RingSpec, d: int) -> "Presentation":
        """The module R/(d)."""
        return Presentation(ring, 1, MatrixR.from_rows(ring, [[d]]))

    @staticmethod
    def from_relations(ring: RingSpec, rows: list[list[int]]) -> "Presentation":
        m = MatrixR.from_rows(ring, rows)
        return Presentation(ring, m.rows, m)


# a library caller asks for the same presentations' forms again and again:
# every value function and `iso_test` of the matrix route starts here
@lru_cache(maxsize=4096)
def canonical_form(P: Presentation) -> CanonicalForm:
    """Invariant factors read off the Smith normal form of the relations."""
    factors, free_rank = cokernel_orders(P.rels.entries, P.rels.cols, P.ring.modulus)
    return CanonicalForm(P.ring, factors, free_rank)


@lru_cache(maxsize=1024)
def canonical_presentation(C: CanonicalForm) -> Presentation:
    """The diagonal presentation realizing a canonical form.

    Equal forms give the same object, so memo tables keyed on it find their
    entries by identity."""
    ring = C.ring
    k = len(C.torsion_factors)
    g = k + C.free_rank
    rows = [[C.torsion_factors[i] if j == i else 0 for j in range(k)] for i in range(k)]
    rows += [[0] * k for _ in range(C.free_rank)]
    rels = MatrixR.from_rows(ring, rows) if g else MatrixR(ring, 0, k, ())
    return Presentation(ring, g, rels)


def canonicalize(P: Presentation) -> Presentation:
    """An isomorphic diagonal presentation (shrinks intermediate results)."""
    return canonical_presentation(canonical_form(P))


def module_order(P: Presentation) -> int | None:
    return canonical_form(P).order()


def is_zero_module(P: Presentation) -> bool:
    return canonical_form(P).is_trivial


def iso_test(P: Presentation, Q: Presentation) -> bool:
    """Whether two presentations define isomorphic modules."""
    if P.ring != Q.ring:
        raise RingMismatch("cannot compare modules over different rings")
    return canonical_form(P) == canonical_form(Q)


def direct_sum(ring: RingSpec, parts: list[Presentation]) -> Presentation:
    """Block-diagonal sum; the empty sum is the zero module."""
    for p in parts:
        if p.ring != ring:
            raise RingMismatch("direct sum across rings")
    gens = sum(p.gens for p in parts)
    rels = block_diag(ring, [p.rels for p in parts])
    return Presentation(ring, gens, rels)


class ModuleMap(_Record):
    """A homomorphism given on generators, certified well-defined.

    The matrix has target.gens rows and source.gens columns; construction
    verifies that every relation of the source maps into the relation span of
    the target.  Maps the library builds from maps it already has (induced,
    inclusion, scalar and quotient maps) come from `_trusted` instead.
    """

    __slots__ = _fields = ("source", "target", "matrix")

    def __init__(self, source: Presentation, target: Presentation, matrix: MatrixR):
        self._fill(source, target, matrix)
        self.__post_init__()

    # a method of its own, looked up on the class, so that perfbench's traced
    # runs can wrap it and time certification as `modules.map_certify`
    def __post_init__(self):
        if self.source.ring != self.target.ring:
            raise RingMismatch("map endpoints live over different rings")
        if self.matrix.rows != self.target.gens or self.matrix.cols != self.source.gens:
            raise ValueError("map matrix has the wrong shape")
        if self.source.rels.cols:
            moved = self.matrix @ self.source.rels
            if not spans_include(self.target.rels, moved):
                raise ValueError("map does not respect the source relations")

    @classmethod
    def _trusted(cls, source: Presentation, target: Presentation, matrix: MatrixR) -> "ModuleMap":
        """A map the library built and knows to be well defined (an induced,
        inclusion, scalar or quotient map): no certification."""
        f = object.__new__(cls)
        f._fill(source, target, matrix)
        return f

    def image(self) -> "Submodule":
        return Submodule(self.target, self.matrix)

    def is_zero_map(self) -> bool:
        return spans_include(self.target.rels, self.matrix)


def mult_map(P: Presentation, r: int) -> ModuleMap:
    """The endomorphism x -> r*x."""
    return ModuleMap._trusted(P, P, MatrixR.identity(P.ring, P.gens).scale(r))


def identity_map(P: Presentation) -> ModuleMap:
    return mult_map(P, 1)


class Submodule(_Record):
    """A submodule of a presented module, spanned by generator columns."""

    __slots__ = _fields = ("ambient", "columns")

    def __init__(self, ambient: Presentation, columns: MatrixR):
        if columns.rows != ambient.gens:
            raise ValueError("generator columns must match the ambient generator count")
        if columns.ring != ambient.ring:
            raise RingMismatch("columns live over the wrong ring")
        self._fill(ambient, columns)

    def contains(self, other: "Submodule") -> bool:
        if other.ambient != self.ambient:
            raise AmbientMismatch("submodules sit inside different ambient modules")
        return spans_include(hstack(self.columns, self.ambient.rels), other.columns)

    def is_zero(self) -> bool:
        return spans_include(self.ambient.rels, self.columns)

    def to_presentation(self) -> Presentation:
        """The span as a standalone module on these generators, computed on
        each call."""
        return _present_subquotient(self.columns, self.ambient.rels)

    def inclusion_map(self) -> ModuleMap:
        return ModuleMap._trusted(self.to_presentation(), self.ambient, self.columns)


def submodule_equal(S1: Submodule, S2: Submodule) -> bool:
    """Mutual membership of generators, solved modulo the ambient relations."""
    return S1.contains(S2) and S2.contains(S1)


def quotient_by_submodule(P: Presentation, S: Submodule) -> Presentation:
    if S.ambient != P:
        raise AmbientMismatch("submodule does not sit inside this module")
    return Presentation(P.ring, P.gens, hstack(P.rels, S.columns))


def scaled_submodule(P: Presentation, c: int) -> Submodule:
    """The submodule c*P spanned by c times each generator."""
    return Submodule(P, MatrixR.identity(P.ring, P.gens).scale(c))


def _generator(P: Presentation, a: Ideal) -> int:
    """The canonical generator d of a, so aP = dP; a must live over P's ring."""
    if a.ring != P.ring:
        raise RingMismatch("ideal lives over a different ring")
    return a.canonical


def _by_invariants(home: str, name: str, params: str, statement: str, attr: str = ""):
    """The public function `name(<params>)` of module `home`, documented by
    `statement` and answered by `cyclic.<attr or name>`, looked up at each
    call so that a patched or traced `cyclic` sees it.  It passes a degree
    `i` as given, a trailing ideal `a` as its generator against the module
    before it and any other operand as its canonical form, and presents an
    answer that is a canonical form."""
    names = params.split()
    signature = inspect.Signature([inspect.Parameter(p, inspect.Parameter.POSITIONAL_OR_KEYWORD) for p in names])

    def value(*args, **kwargs):
        given = signature.bind(*args, **kwargs).args
        operands = [x if p == "i" else canonical_form(x) for p, x in zip(names, given) if p != "a"]
        if names[-1] == "a":
            operands.append(_generator(given[-2], given[-1]))
        answer = getattr(cyclic, attr or name)(*operands)
        return canonical_presentation(answer) if isinstance(answer, CanonicalForm) else answer

    value.__module__, value.__name__, value.__qualname__ = home, name, name
    value.__doc__, value.__signature__ = statement, signature
    return value


def quotient_by_ideal(P: Presentation, a: Ideal) -> Presentation:
    """P / aP, realized by appending d*e_i relations."""
    return quotient_by_submodule(P, scaled_submodule(P, _generator(P, a)))


def ideal_multiple(P: Presentation, a: Ideal) -> tuple[Presentation, ModuleMap]:
    """The submodule aP together with its inclusion into P."""
    sub = scaled_submodule(P, _generator(P, a))
    pres = sub.to_presentation()  # computed once, for the module and its inclusion
    return pres, ModuleMap._trusted(pres, P, sub.columns)


def kernel_submodule(f: ModuleMap) -> Submodule:
    """{x in source : f(x) = 0 in target} as a submodule of the source."""
    src = f.source
    return Submodule(src, _project_kernel(hstack(f.matrix, f.target.rels), src.gens, src.ring))


def _project_kernel(cond: MatrixR, keep: int, ambient_ring: RingSpec) -> MatrixR:
    """First `keep` coordinates of each kernel generator, zeros dropped."""
    ker = kernel_generators(cond)
    cols = []
    for j in range(ker.cols):
        col = ker.column(j)[:keep]
        if any(col):
            cols.append(col)
    return from_columns(ambient_ring, cols, keep)


def _present_subquotient(Z: MatrixR, W: MatrixR) -> Presentation:
    """span(Z)/span(W) presented on the columns of Z (requires W <= span Z)."""
    return Presentation(Z.ring, Z.cols, _project_kernel(hstack(Z, W), Z.cols, Z.ring))


def kernel_of_map(f: ModuleMap) -> tuple[Presentation, ModuleMap]:
    """The kernel of f as a module, with its inclusion."""
    sub = kernel_submodule(f)
    pres = sub.to_presentation()
    return pres, ModuleMap._trusted(pres, f.source, sub.columns)


def express_in_span(columns: MatrixR, rels: MatrixR, vectors: MatrixR) -> MatrixR | None:
    """Coefficients writing each vector as a combination of the columns,
    modulo the relation span; None when some vector is not in the span."""
    sol = solve_columns(hstack(columns, rels), vectors)
    if sol is None:
        return None
    return MatrixR(columns.ring, columns.cols, vectors.cols, sol.entries[: columns.cols])
