"""Smith elimination of an integer matrix, the one implementation.

`linalg` builds its Smith normal form, solves and kernels on it, and the
verification harness reads its sequences and orders off it directly.
`cokernel_orders` is the one reading of a relation matrix's invariant
factors, for `modules.canonical_form` and for the grammar's `coker` atoms.
It works on tuples of integer rows and imports nothing, so the harness and
a one-shot query run it without loading the matrix route.  It keeps no memo
and checks no ring: `linalg._eliminate` adds the ring check.  All arithmetic
is arbitrary-precision.
"""

from __future__ import annotations

__all__ = ["eliminate", "augment", "cokernel_orders"]

Rows = tuple[tuple[int, ...], ...]


def _axpy_row(mat: list[list[int]], dst: int, src: int, c: int, start: int = 0):
    md, ms = mat[dst], mat[src]
    for j in range(start, len(md)):
        md[j] += c * ms[j]


def _axpy_col(mat: list[list[int]], dst: int, src: int, c: int, start: int = 0):
    for i in range(start, len(mat)):
        row = mat[i]
        row[dst] += c * row[src]


def _swap_col(mat: list[list[int]], a: int, b: int):
    for row in mat:
        row[a], row[b] = row[b], row[a]


def eliminate(rows: Rows, cols: int, track_u: bool = False, track_v: bool = False) -> tuple[Rows, Rows | None, Rows | None]:
    """Smith elimination over Z of the matrix with the given rows, each of
    length `cols`.

    Returns the diagonalized working matrix D and the row and column
    transforms U and V with U @ A @ V = D, as tuples of row tuples, each
    transform None when not tracked.  D's diagonal is d1 | d2 | ..., each
    nonnegative.  Pivot choice is the smallest nonzero absolute value, found
    by a deterministic row-major scan of the working matrix alone, so D and
    the tracked transforms do not depend on which transforms are tracked.
    """
    m, n = len(rows), cols
    a = [list(r) for r in rows]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)] if track_u else None
    # V is kept transposed: its column operations become row operations
    Vt = [[1 if i == j else 0 for j in range(n)] for i in range(n)] if track_v else None

    for t in range(min(m, n)):
        # locate the smallest nonzero entry of the trailing block
        best = None
        pi = pj = -1
        for i in range(t, m):
            ai = a[i]
            for j in range(t, n):
                v = ai[j]
                if v and (best is None or -best < v < best):
                    best = abs(v)
                    pi, pj = i, j
                    if best == 1:
                        break
            if best == 1:
                break
        if best is None:
            break
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            if U is not None:
                U[t], U[pi] = U[pi], U[t]
        if pj != t:
            _swap_col(a, t, pj)
            if Vt is not None:
                Vt[t], Vt[pj] = Vt[pj], Vt[t]

        while True:
            # clear column t below the pivot
            i = t + 1
            while i < m:
                v = a[i][t]
                if v:
                    q = v // a[t][t]
                    if q:
                        _axpy_row(a, i, t, -q, start=t)
                        if U is not None:
                            _axpy_row(U, i, t, -q)
                    if a[i][t]:
                        # nonzero remainder: it becomes the (smaller) pivot
                        a[t], a[i] = a[i], a[t]
                        if U is not None:
                            U[t], U[i] = U[i], U[t]
                        i = t + 1
                        continue
                i += 1
            # clear row t right of the pivot
            swapped = False
            j = t + 1
            while j < n:
                v = a[t][j]
                if v:
                    q = v // a[t][t]
                    if q:
                        _axpy_col(a, j, t, -q, start=t)
                        if Vt is not None:
                            _axpy_row(Vt, j, t, -q)
                    if a[t][j]:
                        _swap_col(a, t, j)
                        if Vt is not None:
                            Vt[t], Vt[j] = Vt[j], Vt[t]
                        swapped = True
                        j = t + 1
                        continue
                j += 1
            if swapped:
                continue  # column t may be dirty again
            # pivot must divide every entry of the trailing block (a unit does)
            p = a[t][t]
            fold = -1
            if p != 1 and p != -1:
                for i in range(t + 1, m):
                    ai = a[i]
                    for j in range(t + 1, n):
                        if ai[j] % p:
                            fold = i
                            break
                    if fold >= 0:
                        break
            if fold < 0:
                break
            _axpy_row(a, t, fold, 1, start=t)
            if U is not None:
                _axpy_row(U, t, fold, 1)

        if a[t][t] < 0:
            for j in range(t, n):
                a[t][j] = -a[t][j]
            if U is not None:
                for j in range(m):
                    U[t][j] = -U[t][j]

    return (
        tuple(map(tuple, a)),
        None if U is None else tuple(map(tuple, U)),
        None if Vt is None else tuple(zip(*Vt)),
    )


def augment(rows: Rows, moduli: tuple[int, ...]) -> Rows:
    """The rows of [A | diag(moduli)], one modulus per row, for the matrix A
    with the given rows, its i-th row over Z/n_i: the integer column span is
    the preimage of the span of A, so entries of A need not be reduced."""
    m = len(moduli)
    return tuple(tuple(r) + (0,) * i + (n,) + (0,) * (m - 1 - i) for i, (r, n) in enumerate(zip(rows, moduli)))


def cokernel_orders(rows: Rows, cols: int, modulus: int | None = None) -> tuple[tuple[int, ...], int]:
    """The invariant factors d1 | d2 | ... greater than 1 and the free rank of
    the cokernel of the relation matrix with the given rows (one generator per
    row, one relation per column), over Z or over Z/modulus.

    Over Z/n the `augment`ed rows are eliminated, so every factor divides n
    and the free rank is 0.  Only the diagonal is read, so no transform is
    tracked.
    """
    m = len(rows)
    if modulus is not None:
        rows = augment(rows, (modulus,) * m)
        cols += m
    d = eliminate(rows, cols)[0]
    diagonal = [d[i][i] for i in range(min(m, cols))]
    return tuple(x for x in diagonal if x > 1), m - sum(1 for x in diagonal if x)
