"""Equal values hash equal for every type that keys a memo table.

`RingSpec`, `Ideal`, `CanonicalForm`, `MatrixR` and `Presentation` hash from
plain ints and tuples (some cache the hash), while equality stays the
field-by-field dataclass comparison.  Values are drawn from small domains so
that equal pairs built along different paths are frequent.
"""

from hypothesis import given, settings, strategies as st

from fgmod.linalg import MatrixR
from fgmod.modules import CanonicalForm, Presentation, canonical_form, canonical_presentation
from fgmod.rings import RingSpec, ZZ, canonicalize_ideal

rings = st.sampled_from([None, 2, 4, 6]).map(RingSpec)


@st.composite
def matrices(draw):
    ring = draw(rings)
    rows = draw(st.integers(0, 2))
    cols = draw(st.integers(0, 2))
    entries = [[draw(st.integers(-7, 7)) for _ in range(cols)] for _ in range(rows)]
    return MatrixR(ring, rows, cols, tuple(map(tuple, entries)))


@st.composite
def ideals(draw):
    ring = draw(rings)
    gens = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=2))
    return canonicalize_ideal(ring, gens)


@st.composite
def forms(draw):
    ring = draw(rings)
    if draw(st.booleans()):
        return canonical_form(draw(presentations_over(ring)))
    chains = [(), (2,), (2, 2), (2, 4), (3,), (2, 6)]
    if not ring.is_integers:  # over Z/n every invariant factor divides n
        chains = [c for c in chains if all(ring.modulus % d == 0 for d in c)]
    factors = draw(st.sampled_from(chains))
    return CanonicalForm(ring, factors, draw(st.integers(0, 1)) if ring.is_integers else 0)


def presentations_over(ring):
    @st.composite
    def build(draw):
        gens = draw(st.integers(0, 2))
        rels = draw(st.integers(0, 2))
        entries = [[draw(st.integers(-4, 4)) for _ in range(rels)] for _ in range(gens)]
        return Presentation(ring, gens, MatrixR(ring, gens, rels, tuple(map(tuple, entries))))

    return build()


presentations = rings.flatmap(presentations_over)


def assert_contract(a, b):
    assert (a == b) == (b == a)
    if a == b:
        assert hash(a) == hash(b)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.tuples(rings, rings),
        st.tuples(ideals(), ideals()),
        st.tuples(forms(), forms()),
        st.tuples(matrices(), matrices()),
        st.tuples(presentations, presentations),
    )
)
def test_equal_values_hash_equal(pair):
    a, b = pair
    assert_contract(a, b)
    assert hash(a) == hash(a)


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_a_matrix_rebuilt_from_its_entries_is_equal_and_hashes_equal(A):
    # reduction into [0, n) happens on construction, before any hash
    shifted = tuple(tuple(x + 3 * (A.ring.modulus or 0) for x in row) for row in A.entries)
    B = MatrixR(A.ring, A.rows, A.cols, shifted)
    assert A == B and hash(A) == hash(B)
    P = Presentation(A.ring, A.rows, A)
    Q = Presentation(RingSpec(A.ring.modulus), B.rows, B)
    assert P == Q and hash(P) == hash(Q)


@settings(max_examples=100, deadline=None)
@given(forms())
def test_a_form_rebuilt_from_its_fields_is_equal_and_hashes_equal(C):
    D = CanonicalForm(RingSpec(C.ring.modulus), tuple(C.torsion_factors), C.free_rank)
    assert C == D and hash(C) == hash(D)
    assert canonical_presentation(C) == canonical_presentation(D)
    assert canonical_form(canonical_presentation(D)) == C


def test_ideals_with_one_canonical_generator_but_different_generators_differ():
    for ring in (ZZ, RingSpec.mod(12)):
        a = canonicalize_ideal(ring, [2])
        b = canonicalize_ideal(ring, [4, 6])
        assert a.canonical == b.canonical == 2
        assert a != b
        assert_contract(a, b)
        assert canonicalize_ideal(ring, [4, 6]) == b
        assert hash(canonicalize_ideal(ring, [4, 6])) == hash(b)


def test_integer_and_modular_forms_with_the_same_factors_differ():
    for factors in ((), (2,), (2, 2)):
        over_z = CanonicalForm(ZZ, factors, 0)
        over_zn = CanonicalForm(RingSpec.mod(2), factors, 0)
        assert over_z != over_zn
        assert_contract(over_z, over_zn)
        assert canonical_presentation(over_z) != canonical_presentation(over_zn)
    assert RingSpec(None) != RingSpec(2)
    assert MatrixR(ZZ, 1, 1, ((1,),)) != MatrixR(RingSpec.mod(2), 1, 1, ((1,),))
