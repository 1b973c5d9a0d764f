"""Maps between canonical forms: a `SummandMap` is the orders of the source's
and the target's cyclic summands (0 for a free Z summand) and the integer
matrix between them.  `hom_postcompose` and `tensor_postcompose` give the
maps one induces on Hom(M, -) and M (x) -, on the pair summands whose orders
`cyclic.hom` and `cyclic.tensor` merge, and `_span_order` reads the order of
an image.  Only the harness's exactness claims use them, so no value query
runs this module; `cyclic` resolves the two functions here on first read.
"""

from __future__ import annotations

from math import gcd, prod

from .cyclic import CanonicalForm, _hom_order, _orders, _same_ring
from .elimination import augment, cokernel_orders

__all__ = ["SummandMap", "hom_postcompose", "tensor_postcompose"]

SummandMap = tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, ...], ...]]


def _hom_generator(a: int, b: int) -> int:
    """The image of 1 under the generator of Hom(Z/a, Z/b): b/gcd(a, b), and
    1 for Hom(Z, Z)."""
    return b // gcd(a, b) if b else 1


def _pair_map(M, A, B, F, order, entry) -> SummandMap:
    """The map that F: A -> B induces on the pair summands of M and A and of
    M and B of nontrivial `order`, M's summands outer; `entry(m, a, b, x)`
    carries the generator of the (m, a) summand, through the entry x of F,
    to a multiple of the generator of (m, b).  Distinct summands of M do not
    meet."""
    _same_ring(M, A, "induced map")
    _same_ring(A, B, "induced map")
    ms, sources, targets = _orders(M), _orders(A), _orders(B)
    src = [(k, i, h) for k, m in enumerate(ms) for i, a in enumerate(sources) if (h := order(m, a)) != 1]
    tgt = [(k, j, h) for k, m in enumerate(ms) for j, b in enumerate(targets) if (h := order(m, b)) != 1]
    matrix = tuple(
        tuple(entry(ms[k], sources[i], targets[j], F[j][i]) if k == l else 0 for l, i, _ in src)
        for k, j, _ in tgt
    )
    return tuple(h for *_, h in src), tuple(h for *_, h in tgt), matrix


def _hom_entry(m: int, a: int, b: int, x: int) -> int:
    y = x * _hom_generator(m, a)
    return (y % b if b else y) // _hom_generator(m, b)


def _tensor_entry(m: int, a: int, b: int, x: int) -> int:
    g = gcd(m, b)
    return x % g if g else x


def hom_postcompose(M: CanonicalForm, A: CanonicalForm, B: CanonicalForm, F) -> SummandMap:
    """Hom(M, f) for the map f: A -> B that sends the generator of A's i-th
    cyclic summand to F[j][i] times that of B's j-th, summed over j; F is the
    matrix of f between the canonical presentations of A and B.

    Hom(M, A) is the sum of the pair summands Hom(Z/m, Z/a) = Z/g, g the
    `hom` order, generated by 1 |-> a/g.  f carries that generator to
    1 |-> (a/g)·F[j][i] in Z/b, which is ((a/g)·F[j][i] mod b) / (b/g')
    times the generator of Hom(Z/m, Z/b) = Z/g'.  Returns the orders of the
    nonzero pair summands of Hom(M, A) and Hom(M, B), M's summands outer,
    and the matrix between them, one row per target pair.
    """
    return _pair_map(M, A, B, F, _hom_order, _hom_entry)


def tensor_postcompose(M: CanonicalForm, A: CanonicalForm, B: CanonicalForm, F) -> SummandMap:
    """M (x) f for f as in `hom_postcompose`: 1 (x) 1 in Z/m (x) Z/a goes
    to F[j][i] mod gcd(m, b) times 1 (x) 1 in Z/m (x) Z/b.  Returns the
    orders of the nonzero pair summands, M's summands outer, and the matrix."""
    return _pair_map(M, A, B, F, gcd, _tensor_entry)


def _span_order(f: SummandMap) -> int:
    """The order of the image of f in the sum of the Z/h, h its target
    orders: the index of the integer span of [F | diag(orders)] (`augment`)
    over that of diag(orders)."""
    source, target, matrix = f
    return prod(target) // prod(cokernel_orders(augment(matrix, target), len(source) + len(target))[0])
