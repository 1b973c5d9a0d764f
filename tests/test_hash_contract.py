"""Equal values hash equal for every type that keys a memo table.

`RingSpec`, `Ideal`, `MatrixR` and `Presentation` hash from plain ints and
tuples (some cache the hash), while equality stays the field-by-field
comparison of values of the same type.  `CanonicalForm` is interned: equal
forms are one object, however they were built, so its equality and hash are
the identity's.  Every value type of the package is a `rings._Record`: the
rings, ideals and forms, the matrix route's matrices, presentations, maps,
submodules and results, and the harness's `GridSpec`, `ClaimReport` and
`SuiteReport`.  Each is immutable, equals only values of its own type, is
rebuilt from its fields in order, survives pickling and prints like a
dataclass, and no module of the package imports `dataclasses`.  Values are
drawn from small domains so that equal pairs built along different paths
are frequent.
"""

import copy
import gc
import importlib
import pickle
from pathlib import Path

import pytest
from fresh_interpreter import python
from hypothesis import given, settings, strategies as st

import fgmod
from fgmod import adic, cyclic, oracle
from fgmod.functors import free_resolution_prefix, hom_data
from fgmod.grammar import parse_module_expr
from fgmod.linalg import MatrixR, smith_normal_form
from fgmod.modules import (
    CanonicalForm,
    ModuleMap,
    Presentation,
    Submodule,
    canonical_form,
    canonical_presentation,
)
from fgmod.rings import RingSpec, ZZ, _Record, canonicalize_ideal, principal
from fgmod.verify import ClaimReport, GridSpec, SuiteReport

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

GRID = GridSpec(RingSpec.mod(6), 6, 0, (0, 2), ("Z/2", "Z/3"), "g6")
REPORT = ClaimReport("gamma-dual", "g6", "a statement", "pass", "pass", 4, (), 0, ("M=Z/2, a=(2)",), 1)
SUITE = SuiteReport((REPORT,))
# each harness record with the field it is tested on
HARNESS_RECORDS = [(GRID, "label"), (REPORT, "verdict"), (SUITE, "reports")]

Z2, Z4 = Presentation.cyclic(ZZ, 2), Presentation.cyclic(ZZ, 4)
TWO = MatrixR(ZZ, 1, 1, ((2,),))
# each record of the matrix route with the field it is tested on
MATRIX_ROUTE_RECORDS = [
    (MatrixR(RingSpec.mod(6), 1, 2, ((1, -1),)), "entries"),
    (smith_normal_form(MatrixR(ZZ, 1, 2, ((4, 6),))), "D"),
    (Z4, "gens"),
    (ModuleMap(Z2, Z4, TWO), "matrix"),
    (Submodule(Z4, TWO), "columns"),
    (adic.torsion(Z4, principal(ZZ, 2)), "exponent"),
    (hom_data(Z2, Z4), "presentation"),
    (free_resolution_prefix(Z4, 2), "length"),
]
RECORDS = MATRIX_ROUTE_RECORDS + HARNESS_RECORDS


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
    # reduction into [0, n) happens on construction, before any hash, and
    # rows given as lists are kept as tuples
    shifted = [[x + 3 * (A.ring.modulus or 0) for x in row] for row in A.entries]
    B = MatrixR(A.ring, A.rows, A.cols, shifted)
    assert A == B and hash(A) == hash(B) and all(type(row) is tuple for row in B.entries)
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
    for value, _ in RECORDS:
        fields = value._values()
        assert value != fields and fields != value
        rebuilt = type(value)(*fields)
        assert rebuilt == value and hash(rebuilt) == hash(value)
    # records of different types with equal fields differ
    assert RingSpec(None) != SuiteReport((None,))


def test_record_fields_cannot_be_assigned_or_deleted():
    values = [
        (RingSpec.mod(6), "modulus"),
        (canonicalize_ideal(ZZ, [4, 6]), "canonical"),
        (CanonicalForm(ZZ, (2,), 0), "free_rank"),
        *RECORDS,
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
    assert repr(GRID) == (
        "GridSpec(ring=RingSpec(modulus=6), max_torsion_order=6, max_free_rank=0,"
        " ideal_generators=(0, 2), module_whitelist=('Z/2', 'Z/3'), label='g6')"
    )
    report = (
        "ClaimReport(claim_id='gamma-dual', grid='g6', statement='a statement', verdict='pass',"
        " expected='pass', instances_checked=4, counterexamples=(), counterexample_count=0,"
        " skipped=('M=Z/2, a=(2)',), skipped_count=1)"
    )
    assert repr(REPORT) == report
    assert repr(SUITE) == f"SuiteReport(reports=({report},))"

    # the matrix route's records print what they printed as frozen dataclasses
    def matrix(rows, cols, entries, ring="RingSpec(modulus=None)"):
        return f"MatrixR(ring={ring}, rows={rows}, cols={cols}, entries={entries})"

    def cyclic_group(d):
        return f"Presentation(ring=RingSpec(modulus=None), gens=1, rels={matrix(1, 1, f'(({d},),)')})"

    two = matrix(1, 1, "((2,),)")
    assert [repr(value) for value, _ in MATRIX_ROUTE_RECORDS] == [
        matrix(1, 2, "((1, 5),)", ring="RingSpec(modulus=6)"),
        f"SmithDecomposition(U={matrix(1, 1, '((1,),)')}, D={matrix(1, 2, '((2, 0),)')},"
        f" V={matrix(2, 2, '((-1, 3), (1, -2))')})",
        cyclic_group(4),
        f"ModuleMap(source={cyclic_group(2)}, target={cyclic_group(4)}, matrix={two})",
        f"Submodule(ambient={cyclic_group(4)}, columns={two})",
        f"StabilizationResult(value={cyclic_group(4)}, exponent=2)",
        f"HomData(source={cyclic_group(2)}, target={cyclic_group(4)}, presentation={cyclic_group(2)},"
        f" generators={matrix(1, 1, '((-2,),)')}, ambient_rels={matrix(1, 1, '((4,),)')})",
        f"FreeResolutionPrefix(target={cyclic_group(4)}, length=2,"
        f" differentials=({matrix(1, 1, '((4,),)')}, {matrix(1, 0, '((),)')}))",
    ]


def test_cached_slots_stay_out_of_equality_hash_repr_and_pickling():
    # the only slots outside the records' fields are a matrix's cached hash
    # and the weak reference an interned form needs for its table
    for path in Path(fgmod.__path__[0]).glob("[!_]*.py"):
        importlib.import_module(f"fgmod.{path.stem}")

    def subclasses(cls):
        return [s for sub in cls.__subclasses__() for s in (sub, *subclasses(sub))]

    records = [r for r in subclasses(_Record) if r.__module__.startswith("fgmod.")]
    assert {MatrixR, Submodule, Presentation, CanonicalForm, RingSpec, GridSpec} <= set(records)
    extra = {MatrixR: {"_hash"}, CanonicalForm: {"__weakref__"}}
    for record in records:
        slots = {s for c in record.__mro__ if c is not object for s in c.__dict__.get("__slots__", ())}
        assert slots == set(record._fields) | extra.get(record, set()), record.__qualname__
    S = Submodule(Z4, TWO)
    assert S.to_presentation() == S.to_presentation() == pickle.loads(pickle.dumps(S)).to_presentation()
    A = MatrixR(ZZ, 1, 2, ((1, 2),))
    h = hash(A)
    assert A._hash == h and A._values() == (ZZ, 1, 2, ((1, 2),)) and repr(A) == repr(MatrixR(ZZ, 1, 2, ((1, 2),)))
    copied = pickle.loads(pickle.dumps(A))
    assert copied == A and getattr(copied, "_hash", None) is None


def test_no_fgmod_module_imports_dataclasses():
    # every module of the package, the lazily registered ones run too
    proc = python(
        "-c",
        "import importlib, pathlib, sys\n"
        "import fgmod\n"
        "names = sorted(p.stem for p in pathlib.Path(fgmod.__path__[0]).glob('*.py') if p.stem != '__init__')\n"
        "for name in names:\n"
        "    importlib.import_module('fgmod.' + name).__doc__\n"
        "ran = [n for n in names if '__builtins__' in object.__getattribute__(sys.modules['fgmod.' + n], '__dict__')]\n"
        "print(ran == names, len(names), 'dataclasses' in sys.modules)\n",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "16", "False"]


def test_records_survive_pickling():
    for value in (
        RingSpec.mod(6),
        canonicalize_ideal(ZZ, [4, 6]),
        CanonicalForm(RingSpec.mod(6), (2, 6), 0),
        *(value for value, _ in RECORDS),
    ):
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
