"""The eliminations that track fewer transforms, checked against the full
Smith normal form and, for membership, against sympy's Hermite normal form
and against solutions X of A X = B.

Inputs are seeded random matrices over Z and Z/n, including the nearly
diagonal `[D | n*I]` shapes that dominate the verification harness.
"""

import random

import pytest
from sympy import Matrix
from sympy.matrices.normalforms import hermite_normal_form

from fgmod.linalg import (
    MatrixR,
    _eliminate,
    from_columns,
    hstack,
    kernel_generators,
    smith_diagonal,
    smith_normal_form,
    solve_columns,
    spans_include,
)
from fgmod.modules import (
    Presentation,
    Submodule,
    ideal_multiple,
    kernel_of_map,
    kernel_submodule,
    mult_map,
    scaled_submodule,
)
from fgmod.rings import RingSpec, ZZ, principal

RINGS = [ZZ, RingSpec.mod(4), RingSpec.mod(6), RingSpec.mod(8), RingSpec.mod(12)]


def random_matrix(rng: random.Random, ring: RingSpec, rows: int, cols: int) -> MatrixR:
    if not rows:
        return MatrixR(ring, 0, cols, ())
    bound = ring.modulus or 9
    entries = [[rng.randint(-bound, bound) if rng.random() < 0.6 else 0 for _ in range(cols)]
               for _ in range(rows)]
    return MatrixR.from_rows(ring, entries)


def diagonal_block(rng: random.Random, ring: RingSpec, rows: int) -> MatrixR:
    """`[D | k*I]`: a random diagonal beside a multiple of the identity; over
    Z/n the lift appends a further `n*I`."""
    diag = [rng.choice([0, 1, 2, 3, 4, 6, 8, 12]) for _ in range(rows)]
    k = rng.choice([0, 2, 4, 6]) if ring.is_integers else rng.randint(0, ring.modulus - 1)
    return hstack(MatrixR.diagonal(ring, diag), MatrixR.diagonal(ring, [k] * rows))


def samples(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        ring = rng.choice(RINGS)
        rows = rng.randint(0, 5)
        if rows and rng.random() < 0.35:
            A = diagonal_block(rng, ring, rows)
        else:
            A = random_matrix(rng, ring, rows, rng.randint(0, 5))
        yield rng, A


def targets(rng: random.Random, A: MatrixR) -> MatrixR:
    """Columns some of which lie in the span of A (images of random vectors)
    and some of which are random, so mostly outside it."""
    cols = []
    for _ in range(rng.randint(1, 3)):
        if A.cols and rng.random() < 0.5:
            x = tuple(rng.randint(-3, 3) for _ in range(A.cols))
            cols.append(A.apply(x))
        else:
            cols.append(tuple(A.ring.reduce(rng.randint(-5, 5)) for _ in range(A.rows)))
    return from_columns(A.ring, cols, A.rows)


def integer_lattice(A: MatrixR) -> Matrix:
    """Columns whose integer span is the preimage of the span of A."""
    M = Matrix(A.rows, A.cols, [x for row in A.entries for x in row])
    if A.ring.modulus is not None:
        M = M.row_join(A.ring.modulus * Matrix.eye(A.rows))
    return M


def hnf_contains(A: MatrixR, b: tuple[int, ...]) -> bool:
    L = integer_lattice(A)
    return hermite_normal_form(L) == hermite_normal_form(L.row_join(Matrix(b)))


@pytest.mark.parametrize("seed", range(4))
def test_membership_agrees_with_solving_and_hermite_form(seed):
    for rng, A in samples(seed, 60):
        B = targets(rng, A)
        got = spans_include(A, B)
        X = solve_columns(A, B)
        assert got == (X is not None)
        if X is not None:
            assert A @ X == B
        if A.rows:
            assert got == all(hnf_contains(A, b) for b in B.columns())


def test_membership_of_no_columns_and_zero_columns():
    A = MatrixR.from_rows(RingSpec.mod(6), [[2, 0], [0, 3]])
    assert spans_include(A, MatrixR(A.ring, 2, 0, ((), ())))
    assert spans_include(A, MatrixR.zeros(A.ring, 2, 3))
    assert not spans_include(A, MatrixR.from_rows(A.ring, [[0], [1]]))
    assert spans_include(A, MatrixR.from_rows(A.ring, [[4], [3]]))


@pytest.mark.parametrize("seed", range(4))
def test_partial_eliminations_match_the_full_smith_form(seed):
    for _, A in samples(100 + seed, 60):
        Z = A.lift()
        full = smith_normal_form(Z)
        D, U, V = full.D.entries, full.U.entries, full.V.entries
        assert _eliminate(Z, track_u=False, track_v=False) == (D, None, None)
        assert _eliminate(Z, track_u=True, track_v=False) == (D, U, None)
        assert _eliminate(Z, track_u=False, track_v=True) == (D, None, V)
        assert smith_diagonal(Z) == full.diagonal()


@pytest.mark.parametrize("seed", range(2))
def test_kernel_generators_are_the_free_columns_of_v(seed):
    for _, A in samples(200 + seed, 60):
        ker = kernel_generators(A)
        assert (A @ ker).is_zero()
        if A.ring.is_integers:
            full = smith_normal_form(A)
            free = [j for j in range(A.cols) if j >= A.rows or full.D.entries[j][j] == 0]
            assert ker.columns() == [full.V.column(j) for j in free]


def test_submodule_presentation_is_equal_on_each_call_and_for_equal_submodules():
    ring = RingSpec.mod(8)
    P = Presentation.from_relations(ring, [[2, 0], [0, 4]])
    sub = scaled_submodule(P, 2)
    pres = sub.to_presentation()
    assert sub.to_presentation() == pres
    assert sub.inclusion_map().source == pres
    # an equal submodule built separately computes an equal presentation
    assert Submodule(P, sub.columns).to_presentation() == pres


def test_kernel_submodule_underlies_kernel_of_map():
    for ring in (ZZ, RingSpec.mod(12)):
        P = Presentation.from_relations(ring, [[4, 0], [0, 6]])
        f = mult_map(P, 2)
        sub = kernel_submodule(f)
        pres, incl = kernel_of_map(f)
        assert incl.matrix == sub.columns
        assert pres == sub.to_presentation()
        assert spans_include(P.rels, f.matrix @ sub.columns)


def test_ideal_multiple_shares_the_presentation_with_its_inclusion():
    P = Presentation.from_relations(ZZ, [[4, 2], [0, 6]])
    pres, incl = ideal_multiple(P, principal(ZZ, 2))
    assert incl.source is pres
