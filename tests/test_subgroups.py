"""The harness's subgroups by their row Hermite normal forms.

`verify._sequences_in` lists the subgroups X of a finite Y = sum of Z/h_i by
the one row Hermite normal form of each lattice between diag(h)Z^m and Z^m.
It must give what the closure search it replaced gives
(`subgroup_reference`), position by position: the same forms of X and Y/X
and the same subgroup of Y, read as the elements the inclusion's columns
span.  That covers every finite form of order at most 32 over Z, the finite
forms of the default `Z/6` and `Z/8` grids, and three larger forms.  Over
(Z/p)^k the subgroups of order p^j are the j-dimensional subspaces of F_p^k,
counted by a Gaussian binomial.  `Z/25 + Z/25` and `Z/49 + Z/49`, which the
closure search took 20 s and more than a minute on, answer within a deadline,
and each of their sequences certifies through the public `ModuleMap` and is
exact.
"""

import math
import time
from collections import Counter

import pytest
from subgroup_reference import sequences_by_closure
from test_ambient_exactness import assert_exact_on_summands

from fgmod import verify
from fgmod.cyclic import CanonicalForm
from fgmod.rings import ZZ, RingSpec


def form(*orders: int) -> CanonicalForm:
    return CanonicalForm(ZZ, orders, 0)


def finite_forms(ring: RingSpec, order: int) -> list[CanonicalForm]:
    return [c for c in verify.enumerate_forms(verify.GridSpec(ring, order, 0, (0,))) if not c.free_rank]


def default_finite_forms(label: str) -> list[CanonicalForm]:
    (grid,) = [g for g in verify.default_grids() if g.label == label]
    return [c for c in verify.enumerate_forms(grid) if not c.free_rank]


def subgroup(seq) -> frozenset:
    """The elements of Y that the columns of the inclusion span."""
    h = seq.y.torsion_factors
    elements = {(0,) * len(h)}
    for column in zip(*seq.incl):
        multiples = [tuple(a * c % o for c, o in zip(column, h)) for a in range(max(h))]
        elements = {tuple((x + v) % o for x, v, o in zip(e, m, h)) for e in elements for m in multiples}
    return frozenset(elements)


def gaussian_binomial(k: int, j: int, p: int) -> int:
    """The number of j-dimensional subspaces of F_p^k."""
    top = bottom = 1
    for i in range(j):
        top *= p ** (k - i) - 1
        bottom *= p ** (i + 1) - 1
    return top // bottom


@pytest.mark.parametrize(
    "ys, count",
    [
        (finite_forms(ZZ, 32), 55),
        (default_finite_forms("Z/6"), 9),
        (default_finite_forms("Z/8"), 11),
        ([form(9, 9), form(3, 27), form(4, 4, 4)], 3),
    ],
    ids=["Z-order-32", "Z/6-grid", "Z/8-grid", "larger"],
)
def test_sequences_match_the_closure_search_position_by_position(ys, count):
    assert len(ys) == count
    for y in ys:
        ours, reference = verify._sequences_in(y), sequences_by_closure(y)
        assert len(ours) == len(reference), y
        for position, (seq, ref) in enumerate(zip(ours, reference)):
            assert (seq.y, seq.x, seq.z) == (ref.y, ref.x, ref.z), (y, position)
            assert subgroup(seq) == subgroup(ref), (y, position)


@pytest.mark.parametrize("p, top", [(2, 5), (3, 4), (5, 3)])
def test_elementary_abelian_counts_are_sums_of_gaussian_binomials(p, top):
    for k in range(top + 1):
        orders = Counter(math.prod(s.x.torsion_factors) for s in verify._sequences_in(form(*(p,) * k)))
        assert orders == {p**j: gaussian_binomial(k, j, p) for j in range(k + 1)}, (p, k)
    # 374, 212 and 64 at the top
    assert sum(orders.values()) == {2: 374, 3: 212, 5: 64}[p]


@pytest.mark.parametrize("orders, count", [((25, 25), 45), ((49, 49), 75)])
def test_large_squares_answer_within_a_deadline_and_certify(orders, count):
    y = form(*orders)
    verify._sequences_in.cache_clear()
    start = time.perf_counter()
    seqs = verify._sequences_in(y)
    elapsed = time.perf_counter() - start
    assert len(seqs) == count
    assert elapsed < 2.0, elapsed
    for seq in seqs:
        assert_exact_on_summands(seq)
