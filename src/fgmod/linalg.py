"""Exact matrix algebra over Z and Z/n.

The matrix route's three primitives: Smith normal form, linear solving and
kernel generators; `_Solver` alone reads span membership off the Smith form.
`modules` builds maps, submodules and subquotients on them, and `functors`
the Hom and tensor modules, their induced maps and free resolutions.  Values
up to isomorphism (canonical forms, Hom, tensor, Ext, Tor, the adic functors)
do not come from here: `fgmod.cyclic` reads them off invariant factors, which
`elimination.cokernel_orders` reads off a relation matrix.  All arithmetic is
arbitrary-precision: Smith normal form intermediates can overflow
fixed-width words even for small inputs.

Computations over Z/n are lifted to Z by augmenting with n*I (one audited
elimination kernel, `fgmod.elimination`, and no separate modular path).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter, mul

from .elimination import augment, eliminate
from .errors import DimensionMismatch, RingMismatch
from .rings import RingSpec, ZZ

__all__ = [
    "MatrixR",
    "SmithDecomposition",
    "smith_normal_form",
    "smith_diagonal",
    "solve_linear",
    "solve_columns",
    "spans_include",
    "kernel_generators",
    "determinant",
]


@dataclass(frozen=True)
class MatrixR:
    """Immutable matrix over Z or Z/n, entries stored row-major."""

    ring: RingSpec
    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.rows:
            raise DimensionMismatch("row count does not match entries")
        cols = self.cols
        if any(len(row) != cols for row in self.entries):
            raise DimensionMismatch("ragged rows")
        n = self.ring.modulus
        if n is not None and any(row and (min(row) < 0 or max(row) >= n) for row in self.entries):
            object.__setattr__(self, "entries", tuple(tuple(x % n for x in r) for r in self.entries))

    @classmethod
    def _unchecked(cls, ring: RingSpec, rows: int, cols: int, entries: tuple) -> "MatrixR":
        """A matrix built by an operation of this module on valid matrices:
        its rows are tuples of the right length with entries already reduced,
        so the scans of `__post_init__` are skipped."""
        m = object.__new__(cls)
        m.__dict__.update(ring=ring, rows=rows, cols=cols, entries=entries)
        return m

    def __hash__(self) -> int:
        # computed once: matrices key memo tables, and rehashing every entry
        # on each lookup costs more than the lookup itself
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.ring.modulus or 0, self.rows, self.cols, self.entries))
            object.__setattr__(self, "_hash", h)
        return h

    @staticmethod
    def from_rows(ring: RingSpec, rows: list[list[int]]) -> "MatrixR":
        r = len(rows)
        c = len(rows[0]) if rows else 0
        return MatrixR(ring, r, c, tuple(tuple(row) for row in rows))

    @staticmethod
    def zeros(ring: RingSpec, rows: int, cols: int) -> "MatrixR":
        return MatrixR(ring, rows, cols, tuple((0,) * cols for _ in range(rows)))

    @staticmethod
    def identity(ring: RingSpec, k: int) -> "MatrixR":
        return MatrixR(
            ring, k, k, tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))
        )

    @staticmethod
    def diagonal(ring: RingSpec, diag: list[int] | tuple[int, ...]) -> "MatrixR":
        k = len(diag)
        return MatrixR(
            ring, k, k, tuple(tuple(diag[i] if i == j else 0 for j in range(k)) for i in range(k))
        )

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(map(itemgetter(j), self.entries))

    def columns(self) -> list[tuple[int, ...]]:
        return list(zip(*self.entries)) if self.rows else [()] * self.cols

    def transpose(self) -> "MatrixR":
        return MatrixR._unchecked(self.ring, self.cols, self.rows, tuple(self.columns()))

    def scale(self, c: int) -> "MatrixR":
        red = self.ring.reduce
        return MatrixR(
            self.ring, self.rows, self.cols, tuple(tuple(red(c * x) for x in r) for r in self.entries)
        )

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def lift(self) -> "MatrixR":
        """The same entries viewed over Z."""
        return MatrixR(ZZ, self.rows, self.cols, self.entries)

    def __matmul__(self, other: "MatrixR") -> "MatrixR":
        if self.ring != other.ring:
            raise RingMismatch("matrix product across rings")
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        bt = other.columns()
        n = self.ring.modulus
        if n is None:
            out = tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in self.entries)
        else:
            out = tuple(tuple(sum(map(mul, row, col)) % n for col in bt) for row in self.entries)
        return MatrixR._unchecked(self.ring, self.rows, other.cols, out)

    def apply(self, vec: tuple[int, ...] | list[int]) -> tuple[int, ...]:
        if len(vec) != self.cols:
            raise DimensionMismatch("vector length does not match column count")
        n = self.ring.modulus
        if n is None:
            return tuple(sum(map(mul, row, vec)) for row in self.entries)
        return tuple(sum(map(mul, row, vec)) % n for row in self.entries)


def hstack(a: MatrixR, b: MatrixR) -> MatrixR:
    if a.ring != b.ring:
        raise RingMismatch("hstack across rings")
    if a.rows != b.rows:
        raise DimensionMismatch("hstack needs equal row counts")
    return MatrixR._unchecked(
        a.ring, a.rows, a.cols + b.cols, tuple(ra + rb for ra, rb in zip(a.entries, b.entries))
    )


def from_columns(ring: RingSpec, cols: list[tuple[int, ...]], nrows: int) -> MatrixR:
    return MatrixR(ring, nrows, len(cols), tuple(zip(*cols)) if cols else ((),) * nrows)


def block_diag(ring: RingSpec, blocks: list[MatrixR]) -> MatrixR:
    rows = sum(b.rows for b in blocks)
    cols = sum(b.cols for b in blocks)
    out = [[0] * cols for _ in range(rows)]
    r0 = c0 = 0
    for b in blocks:
        for i in range(b.rows):
            out[r0 + i][c0 : c0 + b.cols] = list(b.entries[i])
        r0 += b.rows
        c0 += b.cols
    return MatrixR.from_rows(ring, out) if rows else MatrixR(ring, 0, cols, ())


def kron(a: MatrixR, b: MatrixR) -> MatrixR:
    """Kronecker product; (a ⊗ b)[r*rb+i][c*cb+j] = a[r][c] * b[i][j]."""
    if a.ring != b.ring:
        raise RingMismatch("kron across rings")
    n = a.ring.modulus
    out = []
    for arow in a.entries:
        for brow in b.entries:
            row = tuple(x * y for x in arow for y in brow)
            out.append(row if n is None else tuple(v % n for v in row))
    return MatrixR._unchecked(a.ring, a.rows * b.rows, a.cols * b.cols, tuple(out))


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ A @ V = D with U, V unimodular and D diagonal, d1 | d2 | ..."""

    U: MatrixR
    D: MatrixR
    V: MatrixR

    def diagonal(self) -> list[int]:
        k = min(self.D.rows, self.D.cols)
        return [self.D.entries[i][i] for i in range(k)]


def _eliminate(A: MatrixR, track_u: bool, track_v: bool):
    """Smith elimination of A over Z by `elimination.eliminate`, whose
    docstring gives the results and the pivot rule."""
    if not A.ring.is_integers:
        raise RingMismatch("Smith normal form is computed over Z; lift Z/n inputs first")
    return eliminate(A.entries, A.cols, track_u, track_v)


def smith_normal_form(A: MatrixR) -> SmithDecomposition:
    """Smith normal form over Z with both transforms."""
    m, n = A.rows, A.cols
    a, U, V = _eliminate(A, track_u=True, track_v=True)
    return SmithDecomposition(MatrixR(ZZ, m, m, U), MatrixR(ZZ, m, n, a), MatrixR(ZZ, n, n, V))


def smith_diagonal(A: MatrixR) -> list[int]:
    """The diagonal of the Smith normal form over Z, tracking no transform."""
    a, _, _ = _eliminate(A, track_u=False, track_v=False)
    return [a[i][i] for i in range(min(A.rows, A.cols))]


def _over_integers(A: MatrixR) -> MatrixR:
    """A itself over Z; over Z/n the lift [A | n*I] (`elimination.augment`)."""
    if A.ring.is_integers:
        return A
    return MatrixR(ZZ, A.rows, A.cols + A.rows, augment(A.entries, (A.ring.modulus,) * A.rows))


class _Solver:
    """Span membership and solves against a fixed A, by the one span rule:
    with U A V = D over Z (A lifted to [A | n*I] over Z/n), A x = b is
    solvable exactly when each d_i divides (U b)_i, 0 dividing only 0 (past
    the rank too); then x = V y, y_i = (U b)_i / d_i (0 past V's columns).
    `contains` needs no V, so a solver built with `track_v=False` has none."""

    def __init__(self, A: MatrixR, track_v: bool = True):
        self.ring = A.ring
        self.cols = A.cols
        lifted = _over_integers(A)
        a, U, self._V = _eliminate(lifted, track_u=True, track_v=track_v)
        k = min(lifted.rows, lifted.cols)
        self._rows = [(u, a[i][i] if i < k else 0) for i, u in enumerate(U)]

    def _quotients(self, b: tuple[int, ...]) -> list[int] | None:
        """y with y_i = (U b)_i / d_i, or None when b breaks the rule."""
        y = []
        for u, d in self._rows:
            c = sum(map(mul, u, b))
            if c % d if d else c:
                return None
            y.append(c // d if d else 0)
        return y

    def contains(self, b: tuple[int, ...]) -> bool:
        return self._quotients(b) is not None

    def solve(self, b: tuple[int, ...]) -> tuple[int, ...] | None:
        y = self._quotients(b)
        if y is None:
            return None
        red = self.ring.reduce
        return tuple(red(sum(map(mul, v, y))) for v in self._V[: self.cols])


def solve_linear(A: MatrixR, b: tuple[int, ...] | list[int]) -> tuple[int, ...] | None:
    """A solution x with A x = b exactly in the ring, or None if none exists."""
    if len(b) != A.rows:
        raise DimensionMismatch("right-hand side length does not match row count")
    return _Solver(A).solve(tuple(b))


def solve_columns(A: MatrixR, B: MatrixR) -> MatrixR | None:
    """Solve A X = B column by column; None if any column is unsolvable."""
    if A.rows != B.rows:
        raise DimensionMismatch("A and B need equal row counts")
    solver = _Solver(A)
    xs = []
    for j in range(B.cols):
        x = solver.solve(B.column(j))
        if x is None:
            return None
        xs.append(x)
    return from_columns(A.ring, xs, A.cols)


def spans_include(A: MatrixR, B: MatrixR) -> bool:
    """Whether every column of B lies in the column span of A (asks
    `_Solver.contains` on a solver that tracks no V)."""
    if A.rows != B.rows:
        raise DimensionMismatch("A and B need equal row counts")
    targets = [b for b in B.columns() if any(b)]
    if not targets:
        return True
    return all(map(_Solver(A, track_v=False).contains, targets))


def kernel_generators(A: MatrixR) -> MatrixR:
    """Columns generating {x : A x = 0} over the ring.

    Over Z the result is a basis of the (free) kernel.  Over Z/n the kernel of
    the lifted matrix [A | n*I] is projected back and reduced.
    """
    a, _, V = _eliminate(_over_integers(A), track_u=False, track_v=True)
    rows = len(a)
    v_cols = list(zip(*V))
    free = [j for j in range(len(V)) if j >= rows or a[j][j] == 0]
    if A.ring.is_integers:
        return from_columns(ZZ, [v_cols[j] for j in free], A.cols)
    n = A.ring.modulus
    cols = []
    for j in free:
        col = tuple(x % n for x in v_cols[j][: A.cols])
        if any(col):
            cols.append(col)
    return from_columns(A.ring, cols, A.cols)


def determinant(A: MatrixR) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if A.rows != A.cols:
        raise DimensionMismatch("determinant needs a square matrix")
    k = A.rows
    if k == 0:
        return A.ring.reduce(1)
    a = [list(r) for r in A.lift().entries]
    sign = 1
    prev = 1
    for t in range(k - 1):
        if a[t][t] == 0:
            for i in range(t + 1, k):
                if a[i][t]:
                    a[t], a[i] = a[i], a[t]
                    sign = -sign
                    break
            else:
                return A.ring.reduce(0)
        for i in range(t + 1, k):
            for j in range(t + 1, k):
                a[i][j] = (a[i][j] * a[t][t] - a[i][t] * a[t][j]) // prev
            a[i][t] = 0
        prev = a[t][t]
    return A.ring.reduce(sign * a[k - 1][k - 1])
