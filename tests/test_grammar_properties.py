"""Property tests for the text grammar.

Any string over the grammar's alphabet either parses or raises an
`FgmodError`, and `fgmod canon` answers it with exit 0 or 2 and never a
traceback.  Printed canonical forms are valid inputs that parse back to the
same form, over Z and over Z/n.
"""

import contextlib
import io

from hypothesis import given, settings, strategies as st

from fgmod.cli import main
from fgmod.errors import FgmodError
from fgmod.grammar import format_canonical, parse_ideal, parse_module_expr, parse_ring
from fgmod.modules import CanonicalForm, canonical_form
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
    assert canonical_form(parse_module_expr(C.ring, text)) == C, text
