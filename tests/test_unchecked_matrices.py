"""Matrix operations build their results without re-validating them.

`@`, `hstack`, `kron` and `transpose` of valid matrices skip the
scans of `MatrixR.__init__`; each result must still equal, with the
same hash, the matrix the validating constructor builds from its entries,
and over Z/n every entry must already lie in [0, n).
"""

import random

import pytest

from fgmod.errors import RingMismatch
from fgmod.linalg import MatrixR, hstack, kron
from fgmod.rings import RingSpec, ZZ

RINGS = [ZZ, RingSpec.mod(6), RingSpec.mod(8)]


def random_matrix(rng: random.Random, ring: RingSpec, rows: int, cols: int) -> MatrixR:
    # out-of-range and negative entries, reduced by the validating constructor
    entries = tuple(tuple(rng.randint(-20, 20) for _ in range(cols)) for _ in range(rows))
    return MatrixR(ring, rows, cols, entries)


def results(rng: random.Random, ring: RingSpec):
    r, k, c, s = (rng.randint(0, 4) for _ in range(4))
    a = random_matrix(rng, ring, r, k)
    yield "@", a @ random_matrix(rng, ring, k, c)
    yield "hstack", hstack(a, random_matrix(rng, ring, r, c))
    yield "kron", kron(a, random_matrix(rng, ring, s, c))
    yield "transpose", a.transpose()


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_operation_results_equal_their_validated_rebuild(ring):
    rng = random.Random(ring.modulus or 0)
    seen = set()
    for _ in range(150):
        for op, m in results(rng, ring):
            seen.add(op)
            rebuilt = MatrixR(ring, m.rows, m.cols, m.entries)
            assert m == rebuilt and hash(m) == hash(rebuilt), op
            assert len(m.entries) == m.rows and all(len(row) == m.cols for row in m.entries), op
            assert all(isinstance(row, tuple) for row in m.entries), op
            if ring.modulus is not None:
                assert all(0 <= x < ring.modulus for row in m.entries for x in row), op
    assert seen == {"@", "hstack", "kron", "transpose"}


def test_stacking_across_rings_is_refused():
    a = MatrixR.from_rows(RingSpec.mod(6), [[5]])
    b = MatrixR.from_rows(ZZ, [[7]])
    with pytest.raises(RingMismatch):
        hstack(a, b)
