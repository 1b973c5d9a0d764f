"""`coker` atoms against sympy's Smith normal form, an independent oracle.

The grammar and `modules.canonical_form` read invariant factors through the
same helper, so neither checks the other; here sympy eliminates instead.
Over Z/n the oracle lifts the relation matrix A to [A | n*I] over Z, whose
column span is the preimage of the span of A, so entries may be negative or
unreduced.  A matrix with no relation column is free over Z (and the lift
alone, n*I, over Z/n), which sympy is not asked to eliminate.
"""

import random

import pytest
from sympy import Matrix, ZZ as SZZ
from sympy.matrices.normalforms import smith_normal_form

from fgmod.grammar import parse_module_expr
from fgmod.rings import RingSpec, ZZ

RINGS = [ZZ] + [RingSpec.mod(n) for n in (2, 4, 6, 8, 9, 12, 30, 36)]


def oracle(ring: RingSpec, rows: list[list[int]]) -> tuple[tuple[int, ...], int]:
    """(invariant factors > 1, free rank) of the cokernel of the rows."""
    gens = len(rows)
    n = ring.modulus
    if n is not None:
        rows = [row + [n if j == i else 0 for j in range(gens)] for i, row in enumerate(rows)]
    if not gens or not rows[0]:
        return (), gens
    snf = smith_normal_form(Matrix(rows), domain=SZZ)
    diag = [abs(int(snf[i, i])) for i in range(min(snf.shape))]
    return tuple(sorted(d for d in diag if d > 1)), gens - sum(1 for d in diag if d)


def parsed(ring: RingSpec, rows: list[list[int]]) -> tuple[tuple[int, ...], int]:
    form = parse_module_expr(ring, f"coker{rows!r}")
    return form.torsion_factors, form.free_rank


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_empty_relation_matrices(ring):
    n = ring.modulus
    assert parsed(ring, []) == oracle(ring, []) == ((), 0)
    assert parsed(ring, [[]]) == oracle(ring, [[]]) == (((), 1) if n is None else ((n,), 0))
    assert parsed(ring, [[], []]) == oracle(ring, [[], []]) == (((), 2) if n is None else ((n, n), 0))


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_random_relation_matrices(ring):
    n = ring.modulus or 12
    rng = random.Random(f"coker-oracle:{ring}")
    for _ in range(60):
        gens, rels = rng.randint(1, 4), rng.randint(0, 4)
        # negative entries, and over Z/n entries past the modulus
        rows = [[rng.randint(-3 * n, 3 * n) if rng.random() < 0.7 else 0 for _ in range(rels)] for _ in range(gens)]
        assert parsed(ring, rows) == oracle(ring, rows), rows


def test_a_few_answers_by_hand():
    Z8 = RingSpec.mod(8)
    assert parsed(ZZ, [[2, 4], [6, 8]]) == ((2, 4), 0)
    assert parsed(ZZ, [[3], [0]]) == ((3,), 1)
    assert parsed(Z8, [[-2, 12], [6, 8]]) == ((2, 4), 0)
    assert parsed(Z8, [[17]]) == ((), 0)
    assert parsed(Z8, [[-6]]) == ((2,), 0)
