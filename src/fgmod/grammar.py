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

An expression may have at most MAX_GENERATORS generators in all, counting
`^` powers and `coker` rows: dense elimination is cubic in the generator
count, so a short string such as `Z/2^20000` would otherwise never finish.
"""

from __future__ import annotations

import ast
import re

from .errors import FgmodError
from .modules import CanonicalForm, Presentation, direct_sum
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


class GrammarError(FgmodError):
    """Unparseable ring, ideal, or module expression."""


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


def _parse_atom(ring: RingSpec, text: str) -> Presentation:
    text = text.strip()
    if text == "0":
        return Presentation.zero(ring)
    if text == "Z":
        if not ring.is_integers:
            raise GrammarError("atom Z is illegal over Z/n; use Z/<m> summands")
        return Presentation.free(ring, 1)
    m = re.fullmatch(r"Z/(\d+)", text)
    if m:
        d = _modulus(m.group(1))
        if d < 1:
            raise GrammarError("cyclic modulus must be >= 1")
        return Presentation.cyclic(ring, d)
    if text.startswith("coker"):
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
        return Presentation.from_relations(ring, rows)
    raise GrammarError(f"cannot parse module atom {text!r}")


def parse_module_expr(ring: RingSpec, text: str) -> Presentation:
    """Parse a module expression into a presentation over the given ring."""
    text = text.strip()
    if not text:
        raise GrammarError("empty module expression")
    parts = []
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
        gens += atom.gens * power
        if gens > MAX_GENERATORS:
            raise GrammarError(f"module expression has more than {MAX_GENERATORS} generators")
        if atom.gens:  # zero summands add nothing, however many
            parts.extend([atom] * power)
    return direct_sum(ring, parts)


def format_canonical(C: CanonicalForm) -> str:
    """Render a canonical form in the input grammar."""
    parts = []
    if C.free_rank == 1:
        parts.append("Z")
    elif C.free_rank > 1:
        parts.append(f"Z^{C.free_rank}")
    parts.extend(f"Z/{d}" for d in C.torsion_factors)
    return " + ".join(parts) if parts else "0"
