"""Values of the module functors, read off invariant factors.

Over Z and Z/n every finitely generated module is a direct sum of cyclic
modules, and its canonical form lists them.  Hom, tensor, Ext, Tor, the
torsion and completion along (d), the quotient N/cN and the (co)reduced
predicates are all additive over cyclic summands, with a gcd closed form for
each summand or pair of summands.  This module evaluates them on canonical
forms and eliminates no matrix, so its cost is bounded by the number of
summands and the length of their moduli, and memoizes each formula in one
bounded table (Ext and Tor share one for all positive degrees).  The rest,
`is_coreduced`, two-argument torsion and completion, relative predicates,
local (co)homology and direct sums, compose these and keep no table; the
library's public value functions and the CLI all call them.

A summand is named by its order: m >= 2 for Z/m, and 0 for a free Z summand
(over Z/n a free summand is Z/n).  Results are merged back into invariant
factors by inserting their orders into a divisibility chain with gcd and
lcm: no integer is factored, so moduli may have thousands of digits.

A map between canonical forms is a matrix of integers between their cyclic
summands.  `hom_postcompose` and `tensor_postcompose` give the maps that one
induces on Hom(M, -) and M (x) -, on the pair summands whose orders `hom` and
`tensor` merge, so their entries too are bounded by the orders.  Maps
between arbitrary presentations, submodules and quotients by submodules
live in `functors`, `adic` and `modules`.

`CanonicalForm` is defined here, so that a question about sums of cyclic
atoms never loads the matrix route; `modules` re-exports it.  Forms are
interned: the constructor hands out one live object per value, so equality is
identity and every memo table hashes and compares its keys in C.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, prod
from weakref import WeakValueDictionary

from .errors import FreePartNotSupported, NonStabilizing, RingMismatch
from .rings import RingSpec, _Record

__all__ = [
    "CanonicalForm",
    "hom",
    "tensor",
    "hom_postcompose",
    "tensor_postcompose",
    "ext",
    "tor",
    "torsion",
    "completion",
    "is_reduced",
    "is_coreduced",
    "torsion_wrt",
    "completion_wrt",
    "is_reduced_wrt",
    "is_coreduced_wrt",
    "local_cohomology",
    "local_homology",
    "quotient",
    "direct_sum",
    "dual",
]

# entries per formula's memo table: the default verify suite asks about
# 35,000 distinct Hom questions, the most of any of the seven, so this never evicts
_MEMO = 1 << 16


class CanonicalForm(_Record):
    """Invariant factors d1 | d2 | ... (each >= 2) plus a free rank.

    Over Z/n the free rank is always zero: free summands appear as torsion
    factor n.  Two presentations are isomorphic iff their canonical forms are
    equal.  Equal forms are one object: the constructor returns the live form
    of its value when there is one, so `==` and `hash` are the identity's.
    """

    _fields = ("ring", "torsion_factors", "free_rank")
    __slots__ = _fields + ("__weakref__",)

    def __new__(cls, ring: RingSpec, torsion_factors: tuple[int, ...], free_rank: int):
        key = (ring.modulus, torsion_factors, free_rank)
        self = _live_forms.get(key)
        if self is None:
            self = object.__new__(cls)
            self._fill(ring, torsion_factors, free_rank)
            _live_forms[key] = self
        return self

    __init__ = object.__init__  # `__new__` filled the form, once
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    @property
    def is_trivial(self) -> bool:
        return not self.torsion_factors and self.free_rank == 0

    def order(self) -> int | None:
        """Number of elements, or None when infinite."""
        if self.free_rank:
            return None
        return prod(self.torsion_factors) if self.torsion_factors else 1


# the live form of each value, by (modulus, torsion factors, free rank); a
# form leaves when its last reference dies, so no live form is ever evicted
_live_forms: WeakValueDictionary = WeakValueDictionary()


def _orders(C: CanonicalForm) -> tuple[int, ...]:
    """The orders of C's summands in the generator order of
    `canonical_presentation`: the invariant factors, then the free summands."""
    return C.torsion_factors + (0,) * C.free_rank


def _same_ring(M: CanonicalForm, N: CanonicalForm, what: str) -> None:
    if M.ring.modulus != N.ring.modulus:
        raise RingMismatch(f"{what} of modules over different rings")


def _form(ring, orders) -> CanonicalForm:
    """The canonical form of the direct sum of cyclic summands of these orders."""
    return _merged(ring.modulus, tuple(sorted(orders)))


# a cold verify run asks for about 4,200 forms of about 500 multisets of
# orders; the key holds the modulus, since a `RingSpec` hashes in Python code
@lru_cache(maxsize=_MEMO)
def _merged(modulus: int | None, orders: tuple[int, ...]) -> CanonicalForm:
    """`_form` of sorted orders, merged once per multiset."""
    return CanonicalForm(RingSpec(modulus), _invariant_factors([m for m in orders if m > 1]), orders.count(0))


def _invariant_factors(orders: list[int]) -> tuple[int, ...]:
    """d1 | d2 | ... whose cyclic groups sum to those of the given orders
    (each >= 2), inserted in increasing order into a chain.

    An order c that the top entry divides goes on top.  Otherwise c walks
    down from the top: each entry d becomes lcm(d, c), c becomes gcd(d, c),
    and a c > 1 left past the bottom becomes the new bottom entry.  At each
    prime, gcd and lcm take the smaller and the larger exponent, so the walk
    insertion-sorts every prime's exponents at once: each prime keeps its
    multiset of exponents, which fixes the group, and its exponents rise
    along the chain, which makes it a divisibility chain.  Invariant factors
    are unique, so no answer depends on the route, and no integer is factored.
    """
    chain: list[int] = []
    for c in sorted(orders):
        if chain and c % chain[-1]:
            for j in reversed(range(len(chain))):
                g = gcd(chain[j], c)
                chain[j] = chain[j] // g * c
                c = g
                if c == 1:
                    break
            else:
                chain.insert(0, c)
        else:
            chain.append(c)
    return tuple(chain)


def _hom_order(a: int, b: int) -> int:
    """The order of Hom(Z/a, Z/b): gcd(a, b), and 1 for Hom(Z/a, Z) with a != 0."""
    return 1 if a and not b else gcd(a, b)


def _hom_generator(a: int, b: int) -> int:
    """The image of 1 under the generator of Hom(Z/a, Z/b): b/gcd(a, b), and
    1 for Hom(Z, Z)."""
    return b // gcd(a, b) if b else 1


@lru_cache(maxsize=_MEMO)
def hom(M: CanonicalForm, N: CanonicalForm) -> CanonicalForm:
    """Hom(Z/a, Z/b) = Z/gcd(a, b), with Hom(Z/a, Z) = 0."""
    _same_ring(M, N, "Hom")
    return _form(M.ring, [_hom_order(a, b) for a in _orders(M) for b in _orders(N)])


@lru_cache(maxsize=_MEMO)
def tensor(M: CanonicalForm, N: CanonicalForm) -> CanonicalForm:
    """Z/a (x) Z/b = Z/gcd(a, b)."""
    _same_ring(M, N, "tensor")
    return _form(M.ring, [gcd(a, b) for a in _orders(M) for b in _orders(N)])


SummandMap = tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, ...], ...]]


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


@lru_cache(maxsize=_MEMO)
def _positive_degree(M: CanonicalForm, N: CanonicalForm, sees_free: bool) -> CanonicalForm:
    """Ext^i and Tor_i for i >= 1 (only i = 1 over Z), summand by summand.

    Over Z/n, Z/a has the 2-periodic resolution
    ... -> R --a--> R --n/a--> R --a--> R; against Z/b both complexes have
    cyclic homology of order gcd(a, b) * gcd(n/a, b) / b in every positive
    degree.  Z is hereditary: only degree 1 survives, as Z/gcd(a, b) for
    each torsion summand Z/a of M and each summand Z/b of N, a free one
    only when `sees_free` (Ext sees a free summand of N, Tor does not).
    """
    bs = _orders(N) if sees_free else N.torsion_factors
    if M.ring.is_integers:
        return _form(M.ring, [gcd(a, b) for a in M.torsion_factors for b in bs])
    return _form(M.ring, [gcd(a, b) * gcd(M.ring.modulus // a, b) // b for a in M.torsion_factors for b in bs])


def _graded(i: int, M: CanonicalForm, N: CanonicalForm, what: str, degree_zero, sees_free: bool) -> CanonicalForm:
    """Ext or Tor: `degree_zero` at i = 0, then the one degree-free table; 0 past i = 1 over Z."""
    if i < 0:
        raise ValueError("degree must be nonnegative")
    _same_ring(M, N, what)
    if i == 0:
        return degree_zero(M, N)
    return _positive_degree(M, N, sees_free) if i == 1 or not M.ring.is_integers else CanonicalForm(M.ring, (), 0)


def ext(i: int, M: CanonicalForm, N: CanonicalForm) -> CanonicalForm:
    """Ext^i(M, N); Ext^0 is Hom."""
    return _graded(i, M, N, "Ext", hom, N.free_rank > 0)


def tor(i: int, M: CanonicalForm, N: CanonicalForm) -> CanonicalForm:
    """Tor_i(M, N); Tor_0 is the tensor product."""
    return _graded(i, M, N, "Tor", tensor, False)


def _settled(d: int, m: int) -> tuple[int, int]:
    """gcd(d^k, m) at the least k with gcd(d^k, m) = gcd(d^(k+1), m), and
    that k.  The chain grows in divisibility, so it has settled at k once
    gcd(d^k, m) = gcd(d^(2k), m): double k until it has, then bisect below.
    That is O(log k) powers mod m, where one gcd per step would be O(k)."""

    def at(k: int) -> int:
        return gcd(pow(d, k, m), m)

    hi, top = 1, at(1)
    while top != (nxt := at(2 * hi)):
        hi, top = 2 * hi, nxt
    lo = hi // 2
    while lo < hi:
        mid = (lo + hi) // 2
        if at(mid) == top:
            hi = mid
        else:
            lo = mid + 1
    return top, hi


@lru_cache(maxsize=_MEMO)
def torsion(C: CanonicalForm, d: int) -> tuple[CanonicalForm, int]:
    """The elements killed by a power of d, and the least k with
    ker d^k = ker d^(k+1).  Z/m settles at Z/gcd(d^k, m), worked out once
    per distinct m; Z settles at Z when d = 0 (k = 1) and at 0 otherwise
    (k = 0).  The module's exponent is the largest k."""
    settled = {m: _settled(d, m) for m in set(C.torsion_factors)}
    if C.free_rank:
        settled[0] = (0, 1) if d == 0 else (1, 0)
    exponent = max((k for _, k in settled.values()), default=0)
    return _form(C.ring, [settled[m][0] for m in _orders(C)]), exponent


def completion(C: CanonicalForm, d: int) -> tuple[CanonicalForm, int]:
    """The limit of C/d^kC, and the least k with d^kC = d^(k+1)C.  Both are
    the torsion's: Z/m/d^k and Z/m[d^k] are Z/gcd(d^k, m), and Z/d^kZ is Z
    at d = 0 and 0 at a unit.  Along any other d, Z completes to the d-adic
    integers, which are not finitely generated."""
    if C.free_rank and abs(d) > 1:
        raise NonStabilizing(
            f"chain of ideal multiples of ({d}) never stabilizes: a free summand"
            " completed along a nonzero non-unit is not finitely generated"
        )
    return torsion(C, d)


@lru_cache(maxsize=_MEMO)
def is_reduced(C: CanonicalForm, d: int) -> bool:
    """Whether d^2 x = 0 forces d x = 0: gcd(d, m) = gcd(d^2, m) on every
    finite summand (a free Z summand has no torsion)."""
    d2 = d * d
    return all(gcd(d, m) == gcd(d2, m) for m in C.torsion_factors)


def is_coreduced(C: CanonicalForm, d: int) -> bool:
    """Whether dC = d^2C: the same test on finite summands, and a free Z
    summand passes only when d is 0 or a unit."""
    return (not C.free_rank or abs(d) <= 1) and is_reduced(C, d)


def torsion_wrt(M: CanonicalForm, N: CanonicalForm, d: int) -> CanonicalForm:
    """Two-argument torsion: the torsion of Hom(M, N) along (d)."""
    return torsion(hom(M, N), d)[0]


def completion_wrt(M: CanonicalForm, N: CanonicalForm, d: int) -> CanonicalForm:
    """Two-argument completion: the completion of M (x) N along (d)."""
    return completion(tensor(M, N), d)[0]


def is_reduced_wrt(M: CanonicalForm, N: CanonicalForm, d: int) -> bool:
    """Whether Hom(M, N) is reduced along (d)."""
    return is_reduced(hom(M, N), d)


def is_coreduced_wrt(M: CanonicalForm, N: CanonicalForm, d: int) -> bool:
    """Whether M (x) N is coreduced along (d)."""
    return is_coreduced(tensor(M, N), d)


def local_cohomology(i: int, M: CanonicalForm, N: CanonicalForm, d: int) -> CanonicalForm:
    """lim-> Ext^i(M/d^kM, N).

    In degree 0 the colimit of Hom(M/d^kM, N) is the d-torsion of Hom(M, N)
    for every finitely generated M.  In positive degree it is the term at
    the exponent where the chain d^kM stabilizes: from there on every
    transition map is an identity.  That term is M/d^kM, the completion of M.
    """
    if i < 0:
        raise ValueError("degree must be nonnegative")
    if i == 0:
        return torsion_wrt(M, N, d)
    return ext(i, completion(M, d)[0], N)


def local_homology(i: int, M: CanonicalForm, N: CanonicalForm, d: int) -> CanonicalForm:
    """lim<- Tor_i(M/d^kM, N); degree 0 is the completion of M (x) N, and
    positive degrees are read at the stabilized chain, as in
    `local_cohomology`."""
    if i < 0:
        raise ValueError("degree must be nonnegative")
    if i == 0:
        return completion_wrt(M, N, d)
    return tor(i, completion(M, d)[0], N)


@lru_cache(maxsize=_MEMO)
def quotient(C: CanonicalForm, c: int) -> CanonicalForm:
    """C/cC: Z/m becomes Z/gcd(c, m)."""
    return _form(C.ring, [gcd(c, m) for m in _orders(C)])


def direct_sum(parts: list[CanonicalForm]) -> CanonicalForm:
    """The direct sum of nonempty `parts`."""
    if not parts:
        raise ValueError("a direct sum needs at least one part")
    for p in parts:
        _same_ring(parts[0], p, "direct sum")
    return _form(parts[0].ring, [m for p in parts for m in _orders(p)])


def dual(C: CanonicalForm) -> CanonicalForm:
    """Hom into the injective cogenerator keeps every invariant factor:
    Hom(Z/m, Q/Z) = Z/m over Z, and Hom(Z/m, Z/n) = Z/m for m | n."""
    if C.free_rank:
        raise FreePartNotSupported("dual of a module with free part is not finitely generated")
    return C
