"""Equal values hash equal for every type that keys a memo table.

`RingSpec`, `Ideal`, `MatrixR` and `Presentation` hash from plain ints and
tuples (some cache the hash), while equality stays the field-by-field
comparison of values of the same type.  `CanonicalForm` is interned: equal
forms are one object, however they were built, so its equality and hash are
the identity's.  `RingSpec`, `Ideal` and `CanonicalForm` are hand-written
immutable records rather than dataclasses, and keep a dataclass's
immutability and repr.  Values are drawn from small domains so that equal
pairs built along different paths are frequent.
"""

import copy
import gc
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from fgmod import cyclic, oracle
from fgmod.grammar import parse_module_expr
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


def test_records_equal_only_values_of_their_own_type():
    C = CanonicalForm(ZZ, (2, 4), 1)
    assert C != (ZZ, (2, 4), 1) and (ZZ, (2, 4), 1) != C
    assert RingSpec(None) != (None,) and (None,) != RingSpec(None)
    a = canonicalize_ideal(ZZ, [4, 6])
    assert a != (ZZ, (4, 6), 2)
    assert C == CanonicalForm(RingSpec(None), (2, 4), 1)


def test_record_fields_cannot_be_assigned_or_deleted():
    values = [
        (RingSpec.mod(6), "modulus"),
        (canonicalize_ideal(ZZ, [4, 6]), "canonical"),
        (CanonicalForm(ZZ, (2,), 0), "free_rank"),
    ]
    for value, field in values:
        before = hash(value)
        with pytest.raises(AttributeError):
            setattr(value, field, 3)
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert hash(value) == before


def test_record_reprs_read_like_dataclasses():
    assert repr(RingSpec(None)) == "RingSpec(modulus=None)"
    assert repr(canonicalize_ideal(RingSpec.mod(12), [4, 6])) == (
        "Ideal(ring=RingSpec(modulus=12), generators=(4, 6), canonical=2)"
    )
    assert repr(CanonicalForm(ZZ, (2, 4), 1)) == (
        "CanonicalForm(ring=RingSpec(modulus=None), torsion_factors=(2, 4), free_rank=1)"
    )


def test_records_survive_pickling():
    for value in (RingSpec.mod(6), canonicalize_ideal(ZZ, [4, 6]), CanonicalForm(RingSpec.mod(6), (2, 6), 0)):
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and hash(copy) == hash(value)


def test_equal_forms_built_along_different_paths_are_one_object():
    for ring in (ZZ, RingSpec.mod(12)):
        direct = CanonicalForm(RingSpec(ring.modulus), (2, 6), 0)
        assert parse_module_expr(ring, "Z/6 + Z/2") is direct
        assert parse_module_expr(ring, "coker[[2,0],[0,6]]") is direct
        assert canonical_form(Presentation.from_relations(ring, [[0, 2], [6, 0]])) is direct
        assert cyclic._form(ring, [6, 2, 1]) is direct
        assert canonical_form(canonical_presentation(direct)) is direct
    Z2, Z4 = CanonicalForm(ZZ, (2,), 0), CanonicalForm(ZZ, (4,), 0)
    assert oracle.formula_hom(Z2, Z4) is cyclic.hom(Z2, Z4) is Z2
    assert oracle.formula_ext1(Z4, Z2) is cyclic.ext(1, Z4, Z2) is Z2


def test_pickling_and_copying_return_the_interned_form():
    for C in (CanonicalForm(ZZ, (2, 4), 1), CanonicalForm(RingSpec.mod(6), (2, 6), 0)):
        assert pickle.loads(pickle.dumps(C)) is C
        assert copy.copy(C) is C
        assert copy.deepcopy(C) is C
        assert copy.deepcopy([C, C]) == [C, C]


def test_a_form_leaves_the_table_when_its_last_reference_dies():
    key = (None, (7**30,), 0)
    C = CanonicalForm(ZZ, (7**30,), 0)
    assert cyclic._live_forms[key] is C
    del C
    gc.collect()
    assert key not in cyclic._live_forms
    rebuilt = CanonicalForm(ZZ, (7**30,), 0)
    fresh = CanonicalForm(RingSpec(None), (7**30,), 0)
    assert rebuilt is fresh and rebuilt == fresh and hash(rebuilt) == hash(fresh)
    assert cyclic._live_forms[key] is rebuilt


def test_a_form_is_not_a_tuple_of_its_fields_and_reads_as_before():
    C = CanonicalForm(ZZ, (2, 4), 1)
    assert C != (ZZ, (2, 4), 1) and C != (None, (2, 4), 1)
    assert hash(C) == object.__hash__(C)
    assert repr(C) == "CanonicalForm(ring=RingSpec(modulus=None), torsion_factors=(2, 4), free_rank=1)"
