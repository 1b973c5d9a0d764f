"""Property tests for the text grammar.

Any string over the grammar's alphabet either parses or raises an
`FgmodError`, and `fgmod canon` answers it with exit 0 or 2 and never a
traceback.  Printed canonical forms are valid inputs that parse back to the
same form, over Z and over Z/n.  The parser reads sums of cyclic atoms
straight to their canonical form; on random expressions that form is the
Smith normal form of the block-diagonal presentation of the whole sum.  A
`coker` atom and `modules.canonical_form` read invariant factors through the
same `elimination.cokernel_orders`, so that comparison checks the merging
of summands; `test_coker_oracle.py` checks the atoms against sympy.
"""

import ast
import contextlib
import io
import math
import random

from hypothesis import given, settings, strategies as st

from fgmod.cli import main
from fgmod.errors import FgmodError
from fgmod.grammar import _split_terms, format_canonical, parse_ideal, parse_module_expr, parse_ring
from fgmod.modules import CanonicalForm, Presentation, canonical_form, direct_sum
from fgmod.rings import RingSpec, ZZ

ALPHABET = "Z/0123456789+^,[]- coker"
TOKENS = ["Z", "Z/", "/", "+", "^", "0", "1", "2", "4", "6", "12", "-", ",", " ", "[", "]", "[[", "]]", "coker"]
RINGS = [ZZ, RingSpec.mod(6), RingSpec.mod(8)]

strings = st.one_of(
    st.text(alphabet=ALPHABET, max_size=16),
    st.lists(st.sampled_from(TOKENS), max_size=10).map("".join),
)


def parses_or_raises(parse, *args) -> None:
    try:
        parse(*args)
    except FgmodError:
        pass


@settings(max_examples=300, deadline=None)
@given(strings)
def test_every_string_parses_or_raises_an_fgmod_error(text):
    parses_or_raises(parse_ring, text)
    for ring in RINGS:
        parses_or_raises(parse_ideal, ring, text)
        parses_or_raises(parse_module_expr, ring, text)


@settings(max_examples=150, deadline=None)
@given(strings, st.sampled_from(["Z", "Z/6", "Z/8"]))
def test_canon_exits_0_or_2_without_a_traceback(text, ring):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(["canon", "--ring", ring, text])
        except SystemExit as exc:  # argparse rejects option-like arguments
            code = exc.code
    assert code in (0, 2), (text, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert bool(out.getvalue()) == (code == 0)


@st.composite
def canonical_forms(draw):
    chain = [draw(st.integers(2, 10**30))]
    for _ in range(draw(st.integers(0, 3))):
        chain.append(chain[-1] * draw(st.integers(1, 12)))
    if draw(st.booleans()):
        chain = chain[: draw(st.integers(0, len(chain)))]
        return CanonicalForm(ZZ, tuple(chain), draw(st.integers(0, 3)))
    n = chain[-1] * draw(st.integers(1, 12))
    return CanonicalForm(RingSpec.mod(n), tuple(chain), 0)


@settings(max_examples=200, deadline=None)
@given(canonical_forms())
def test_format_canonical_round_trips(C):
    text = format_canonical(C)
    assert parse_module_expr(C.ring, text) == C, text


def reference_presentation(ring, text):
    """The block-diagonal presentation of a valid expression, one block per
    atom and power, as the parser built it before it read canonical forms
    directly."""
    parts = []
    for term in _split_terms(text):
        atom, _, power = term.partition("^")
        atom = atom.strip()
        if atom == "0":
            block = Presentation.zero(ring)
        elif atom == "Z":
            block = Presentation.free(ring, 1)
        elif atom.startswith("Z/"):
            block = Presentation.cyclic(ring, int(atom[2:]))
        else:
            block = Presentation.from_relations(ring, ast.literal_eval(atom[len("coker") :]))
        if block.gens:
            parts.extend([block] * int(power or 1))
    return direct_sum(ring, parts)


def random_term(rng, ring):
    """One term: an atom and maybe a power, and the generators it adds."""
    n = ring.modulus or rng.choice([6, 8, 12])
    kind = rng.choice(["0", "1", "Z", "multiple", "coprime", "shared", "coker"])
    if kind == "0":
        return rng.choice(["0", "0^0", f"0^{10**21}", "0^3"]), 0
    if kind == "Z" and ring.is_integers:
        atom, gens = "Z", 1
    elif kind == "coker":
        rows = rng.randint(0, 3)
        cols = rng.randint(0, 3)
        matrix = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        atom, gens = f"coker{matrix}", rows
    else:
        if kind == "1":
            m = 1
        elif kind == "multiple":
            m = n * rng.randint(1, 4)
        elif kind == "coprime":
            m = rng.choice([m for m in range(2, 40) if math.gcd(m, n) == 1])
        else:
            m = rng.choice([m for m in range(2, 40) if 1 < math.gcd(m, n) and m % n])
        atom, gens = f"Z/{m}", 1
    power = rng.choice([None, None, 0, 1, 2, 3, 24])
    if power is None:
        return atom, gens
    return f"{atom}^{power}", gens * power


def test_parsed_sums_equal_the_smith_form_of_their_presentation():
    rng = random.Random(20261018)
    rings = [ZZ, RingSpec.mod(6), RingSpec.mod(8), RingSpec.mod(12)]
    for _ in range(400):
        ring = rng.choice(rings)
        terms, gens = [], 0
        while not terms or (gens < 40 and rng.random() < 0.7):
            term, added = random_term(rng, ring)
            terms.append(term)
            gens += added
        text = " + ".join(terms)
        assert parse_module_expr(ring, text) == canonical_form(reference_presentation(ring, text)), (ring, text)
