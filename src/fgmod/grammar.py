"""Text syntax for rings, ideals, and module expressions.

    ring  := 'Z' | 'Z/<n>'
    ideal := '<d>' | '<d1>,<d2>,...'
    expr  := term ('+' term)*
    term  := atom ('^' k)?
    atom  := 'Z' | 'Z/<m>' | '0' | 'coker[[..],[..],..]'

`Z` atoms are only legal when the ring is Z.  `0` names the zero module so
that printed canonical forms always re-parse.  A `coker` literal lists the
rows of a relation matrix (one generator per row, one relation per column).

Canonical forms print as `Z^r + Z/d1 + Z/d2 + ...` with the invariant factors
in ascending divisibility order, `Z` for a single free summand, and `0` for
the zero module, so outputs are valid inputs.

A module expression parses straight to its canonical form.  Each cyclic
atom is one summand order (`Z` is 0, `Z/m` is m over Z and gcd(m, n) over
Z/n, `0` is none), and the orders are merged by `cyclic`.  Only a `coker`
atom is eliminated, on its own, by `elimination.cokernel_orders`, the
reading of invariant factors that `modules.canonical_form` shares; only such
an atom imports `elimination`, and none loads the matrix route.

An expression may have at most MAX_GENERATORS generators in all, counting
`^` powers and `coker` rows, and a string such as `Z/2^20000` is refused.
Only `coker` atoms are eliminated, and the cap is checked before any is,
so dense elimination, cubic in the generator count, never meets more; the
cap also bounds the summand counts whose products two-argument functors
read.
"""

from __future__ import annotations

import re
from math import gcd

from . import cyclic
from .errors import AnswerTooLong, GrammarError
from .rings import Ideal, RingSpec, canonicalize_ideal

__all__ = [
    "GrammarError",
    "MAX_GENERATORS",
    "parse_ring",
    "parse_ideal",
    "parse_module_expr",
    "format_canonical",
    "GRAMMAR_HELP",
]

GRAMMAR_HELP = """\
ring   := Z | Z/<n>                      (n >= 2)
ideal  := <d> | <d1>,<d2>,...            (integer generators)
module := term (+ term)*
term   := atom (^ k)?
atom   := Z | Z/<m> | 0 | coker[[..],[..]]
examples: Z/4 + Z/2^2   Z^2 + Z/6   coker[[2,4],[6,8]]
(`Z` atoms are illegal when the ring is Z/n)"""

MAX_GENERATORS = 256


def _modulus(digits: str) -> int:
    """The value of a matched run of digits.  Python refuses to convert very
    long decimal strings (about 4300 digits by default); that is a usage
    error here, not a crash."""
    try:
        return int(digits)
    except ValueError:
        raise GrammarError(f"modulus with {len(digits)} digits is too long") from None


def parse_ring(text: str) -> RingSpec:
    text = text.strip()
    if text == "Z":
        return RingSpec.integers()
    m = re.fullmatch(r"Z/(\d+)", text)
    if m:
        n = _modulus(m.group(1))
        if n < 2:
            raise GrammarError(f"modulus must be >= 2, got {n}")
        return RingSpec.mod(n)
    raise GrammarError(f"cannot parse ring {text!r}; expected Z or Z/<n>")


def parse_ideal(ring: RingSpec, text: str) -> Ideal:
    try:
        gens = [int(part.strip()) for part in text.split(",") if part.strip()]
    except ValueError:
        raise GrammarError(f"cannot parse ideal generators {text!r}") from None
    if not gens:
        raise GrammarError("ideal needs at least one generator")
    return canonicalize_ideal(ring, gens)


def _split_terms(text: str) -> list[str]:
    """Split on '+' at bracket depth zero."""
    terms = []
    depth = 0
    cur = []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "+" and depth == 0:
            terms.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    terms.append("".join(cur))
    return terms


def _parse_atom(ring: RingSpec, text: str) -> tuple[int, ...] | list[list[int]]:
    """The summand orders of a cyclic atom, or the relation rows of a `coker`
    atom; either way one entry per generator."""
    text = text.strip()
    if text == "0":
        return ()
    if text == "Z":
        if not ring.is_integers:
            raise GrammarError("atom Z is illegal over Z/n; use Z/<m> summands")
        return (0,)
    m = re.fullmatch(r"Z/(\d+)", text)
    if m:
        d = _modulus(m.group(1))
        if d < 1:
            raise GrammarError("cyclic modulus must be >= 1")
        return (d if ring.is_integers else gcd(d, ring.modulus),)
    if text.startswith("coker"):
        import ast

        body = text[len("coker") :].strip()
        try:
            rows = ast.literal_eval(body)
        except (ValueError, SyntaxError):
            raise GrammarError(f"cannot parse relation matrix in {text!r}") from None
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise GrammarError("coker expects a list of rows")
        if rows and len({len(r) for r in rows}) > 1:
            raise GrammarError("coker rows must all have the same length")
        for r in rows:
            if not all(isinstance(x, int) and not isinstance(x, bool) for x in r):
                raise GrammarError("coker entries must be integers")
        return rows
    raise GrammarError(f"cannot parse module atom {text!r}")


def _coker_orders(ring: RingSpec, rows: list[list[int]]) -> tuple[int, ...]:
    """The summand orders of a cokernel, by elimination of its relations."""
    from .elimination import cokernel_orders  # only a `coker` atom loads it

    factors, free_rank = cokernel_orders(rows, len(rows[0]), ring.modulus)
    return factors + (0,) * free_rank


def parse_module_expr(ring: RingSpec, text: str) -> cyclic.CanonicalForm:
    """Parse a module expression into its canonical form over the given ring."""
    text = text.strip()
    if not text:
        raise GrammarError("empty module expression")
    orders: list[int] = []
    gens = 0
    for term in _split_terms(text):
        term = term.strip()
        if not term:
            raise GrammarError(f"empty summand in {text!r}")
        power = 1
        if "^" in term:
            base, _, exp = term.rpartition("^")
            try:
                power = int(exp.strip())
            except ValueError:
                raise GrammarError(f"bad exponent in {term!r}") from None
            if power < 0:
                raise GrammarError("exponent must be nonnegative")
            term = base
        atom = _parse_atom(ring, term)
        gens += len(atom) * power
        if gens > MAX_GENERATORS:
            raise GrammarError(f"module expression has more than {MAX_GENERATORS} generators")
        if atom and power:  # zero summands add nothing, however many
            if isinstance(atom, list):
                atom = _coker_orders(ring, atom)
            orders.extend(atom * power)
    return cyclic._form(ring, orders)


def format_canonical(C: cyclic.CanonicalForm) -> str:
    """Render a canonical form in the input grammar.

    A modulus too long for Python to print in decimal (the same limit the
    parser has) raises AnswerTooLong instead of crashing."""
    parts = []
    if C.free_rank == 1:
        parts.append("Z")
    elif C.free_rank > 1:
        parts.append(f"Z^{C.free_rank}")
    try:
        parts.extend(f"Z/{d}" for d in C.torsion_factors)
    except ValueError:
        digits = max(C.torsion_factors).bit_length() * 30103 // 100000
        raise AnswerTooLong(f"the answer has a modulus of about {digits} digits, too long to print") from None
    return " + ".join(parts) if parts else "0"
