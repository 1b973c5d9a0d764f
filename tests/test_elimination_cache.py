"""The bounded memo in front of the Smith elimination.

Every kernel question answered through the cache must match the uncached
elimination (`_eliminate.__wrapped__`) on the first call, on a repeated call
that hits the cache, and after the cache is cleared.  Inputs are seeded Z and
Z/n matrices, including the `[D | n*I]` shapes of the verification harness.
"""

import pytest
from test_kernel_paths import samples, targets

from fgmod import linalg
from fgmod.linalg import (
    MatrixR,
    kernel_generators,
    smith_diagonal,
    smith_normal_form,
    spans_include,
)
from fgmod.rings import RingSpec, ZZ


def answers(A: MatrixR, B: MatrixR):
    """Every public answer that goes through the elimination."""
    Z = A.lift()
    snf = smith_normal_form(Z)
    return (
        (snf.U, snf.D, snf.V),
        smith_diagonal(Z),
        spans_include(A, B),
        kernel_generators(A),
    )


def uncached_answers(monkeypatch, A: MatrixR, B: MatrixR):
    with monkeypatch.context() as m:
        m.setattr(linalg, "_eliminate", linalg._eliminate.__wrapped__)
        return answers(A, B)


@pytest.mark.parametrize("seed", range(3))
def test_cached_answers_match_the_uncached_elimination(monkeypatch, seed):
    cases = [(A, targets(rng, A)) for rng, A in samples(300 + seed, 40)]
    expected = [uncached_answers(monkeypatch, A, B) for A, B in cases]
    linalg._eliminate.cache_clear()
    first = [answers(A, B) for A, B in cases]
    hits = linalg._eliminate.cache_info().hits
    repeated = [answers(A, B) for A, B in cases]
    assert linalg._eliminate.cache_info().hits > hits
    linalg._eliminate.cache_clear()
    cleared = [answers(A, B) for A, B in cases]
    assert first == expected
    assert repeated == expected
    assert cleared == expected


def test_results_survive_eviction():
    maxsize = linalg._eliminate.cache_info().maxsize
    linalg._eliminate.cache_clear()
    probe = MatrixR.from_rows(ZZ, [[4, 6], [6, 9]])
    want = smith_normal_form(probe)
    for k in range(maxsize + 8):  # push the probe out of the cache
        smith_diagonal(MatrixR.from_rows(ZZ, [[k + 2, 1], [0, k + 3]]))
    assert linalg._eliminate.cache_info().currsize <= maxsize
    assert smith_normal_form(probe) == want


def test_mutating_returned_values_changes_no_later_answer():
    A = MatrixR.from_rows(RingSpec.mod(8), [[2, 4, 0], [0, 6, 2]])
    B = MatrixR.from_rows(A.ring, [[2], [6]])
    linalg._eliminate.cache_clear()
    before = answers(A, B)

    # the cached elimination hands out tuples only
    for track_u in (False, True):
        for track_v in (False, True):
            for part in linalg._eliminate(A.lift(), track_u, track_v):
                assert part is None or (
                    isinstance(part, tuple) and all(isinstance(r, tuple) for r in part)
                )

    # the one mutable value handed out is a fresh list
    diag = smith_diagonal(A.lift())
    diag[0] = 99
    diag.append(7)
    assert answers(A, B) == before


def test_the_cache_is_bounded():
    assert linalg._eliminate.cache_info().maxsize is not None
