"""The integer Smith elimination that `linalg` and the verification harness
share, checked against sympy's Smith normal form.

On seeded random integer matrices, and on the `[G | D]` shapes of the
harness's sequences (generator columns beside a diagonal of orders), the
diagonal must be sympy's, and the transforms must be unimodular with
U·A·V = D.  Tracking fewer transforms changes neither D nor the ones
tracked.
"""

import random

import pytest
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form

from fgmod.elimination import eliminate


def random_rows(rng: random.Random, rows: int, cols: int) -> tuple:
    return tuple(
        tuple(rng.randint(-9, 9) if rng.random() < 0.6 else 0 for _ in range(cols)) for _ in range(rows)
    )


def generators_beside_orders(rng: random.Random) -> tuple:
    """`[G | D]` for up to three orders and up to three generators, entries
    of G below each order or negative, as a sequence of the harness builds."""
    orders = [rng.choice([2, 3, 4, 6, 8, 12]) for _ in range(rng.randint(0, 3))]
    k = rng.randint(0, 3)
    return tuple(
        tuple(rng.randint(-o, o - 1) for _ in range(k)) + tuple(o if j == i else 0 for j in range(len(orders)))
        for i, o in enumerate(orders)
    ), k + len(orders)


def samples(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        if rng.random() < 0.4:
            yield generators_beside_orders(rng)
        else:
            rows, cols = rng.randint(0, 5), rng.randint(0, 5)
            yield random_rows(rng, rows, cols), cols


def matrix(rows: tuple, cols: int) -> Matrix:
    return Matrix(len(rows), cols, [x for row in rows for x in row])


@pytest.mark.parametrize("seed", range(4))
def test_eliminate_matches_sympy_and_its_transforms(seed):
    for rows, n in samples(500 + seed, 60):
        m = len(rows)
        d, u, v = eliminate(rows, n, track_u=True, track_v=True)
        D = matrix(d, n)
        assert all(D[i, j] == 0 for i in range(m) for j in range(n) if i != j), rows
        diag = [d[i][i] for i in range(min(m, n))]
        assert all(x >= 0 for x in diag), rows
        assert all((b % a == 0) if a else b == 0 for a, b in zip(diag, diag[1:])), rows
        U, V = matrix(u, m), matrix(v, n)
        assert U * matrix(rows, n) * V == D, rows
        assert abs(U.det()) == 1 and abs(V.det()) == 1, rows
        if m and n:
            want = smith_normal_form(matrix(rows, n), domain=ZZ)
            assert diag == [abs(want[i, i]) for i in range(min(m, n))], rows
        assert eliminate(rows, n) == (d, None, None)
        assert eliminate(rows, n, track_u=True) == (d, u, None)
        assert eliminate(rows, n, track_v=True) == (d, None, v)


def test_empty_shapes_have_identity_transforms():
    assert eliminate((), 0, True, True) == ((), (), ())
    assert eliminate((), 2, True, True) == ((), (), ((1, 0), (0, 1)))
    assert eliminate(((), ()), 0, True, True) == (((), ()), ((1, 0), (0, 1)), ())
