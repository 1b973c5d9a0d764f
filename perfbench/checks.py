"""Answer checks, run after the timed loop.

A query is checked by running it again, in this process, on the diagonal
presentations of its operands, whose invariant factors come from sympy's
Smith normal form rather than fgmod's kernel; where a closed form in
`fgmod.oracle` covers the query, its answer is checked against that too.
A verify run is checked byte for byte against the committed reference.
"""

from __future__ import annotations

import ast
import contextlib
import io

from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form

from fgmod import cli, oracle
from fgmod.modules import CanonicalForm
from fgmod.rings import RingSpec


def split_argv(argv: list[str]) -> tuple[list[str], str, list[str]]:
    """(everything before the operands, ring, operand expressions).  The
    generated argv always ends with its module operands after the flags."""
    i = argv.index("--ring")
    head_end = i + 2
    if head_end < len(argv) and argv[head_end] == "--ideal":
        head_end += 2
    return argv[:head_end], argv[i + 1], argv[head_end:]


def cyclic_orders(ring: str, expr: str) -> tuple[list[int], int]:
    """(orders of the nontrivial cyclic torsion summands, free rank) of a
    module expression made of `Z`, `Z/m` and `coker[[..]]` atoms."""
    n = None if ring == "Z" else int(ring[2:])
    orders: list[int] = []
    free = 0
    for atom in (a.strip() for a in expr.split(" + ")):
        if atom == "Z":
            free += 1
            continue
        if atom.startswith("Z/"):
            rows = [[int(atom[2:])]]
        else:
            rows = ast.literal_eval(atom[len("coker"):])
        gens = len(rows)
        if n is not None:  # lift a Z/n presentation to Z by appending n*I
            rows = [row + [n if j == i else 0 for j in range(gens)] for i, row in enumerate(rows)]
        snf = smith_normal_form(Matrix(rows), domain=ZZ)
        diag = [abs(int(snf[i, i])) for i in range(min(snf.shape))]
        free += gens - len(diag) + diag.count(0)
        orders += [d for d in diag if d > 1]
    return orders, free


def diagonal_expr(ring: str, expr: str) -> str:
    orders, free = cyclic_orders(ring, expr)
    parts = ["Z"] * free + [f"Z/{d}" for d in orders]
    return " + ".join(parts) if parts else "0"


def canonical_text(ring: str, orders: list[int], free: int) -> str:
    """The CLI's printed canonical form of the direct sum of cyclic groups."""
    factors = oracle.invariant_factors_from_cyclic(orders)
    parts = (["Z"] if free == 1 else [f"Z^{free}"] if free else []) + [f"Z/{d}" for d in factors]
    return " + ".join(parts) if parts else "0"


def run_inprocess(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def oracle_answer(argv: list[str]) -> str | None:
    """The closed-form answer of a Z query the oracle covers, else None."""
    head, ring, operands = split_argv(argv)
    if ring != "Z" or "--format" in head:
        return None
    forms = [cyclic_orders(ring, e) for e in operands]
    cmd = head[0]
    if cmd == "canon":
        return canonical_text(ring, *forms[0])
    if cmd not in ("hom", "tensor", "ext", "tor") or forms[0][1]:
        return None  # the closed forms need a finite first argument
    M, N = (CanonicalForm(RingSpec.integers(), oracle.invariant_factors_from_cyclic(o), r) for o, r in forms)
    degree = int(head[1]) if cmd in ("ext", "tor") else 0
    if degree >= 2:  # Z is hereditary: Ext and Tor vanish above degree one
        return "0"
    if degree == 1:
        C = (oracle.formula_ext1 if cmd == "ext" else oracle.formula_tor1)(M, N)
    elif N.free_rank:
        return None
    else:
        C = oracle.formula_hom(M, N)  # also the tensor product of finite groups
    return canonical_text(ring, list(C.torsion_factors), 0)


class QueryChecker:
    """Expected (exit code, stdout) per argv, computed once and reused."""

    def __init__(self):
        self._expected: dict[tuple[str, ...], tuple[int, str, str | None]] = {}

    def expected(self, argv: list[str]) -> tuple[int, str, str | None]:
        key = tuple(argv)
        if key not in self._expected:
            head, ring, operands = split_argv(argv)
            diag = head + [diagonal_expr(ring, e) for e in operands]
            code, out = run_inprocess(diag)
            self._expected[key] = (code, out, oracle_answer(argv))
        return self._expected[key]

    def problems(self, argv: list[str], exit_code: int, stdout: str) -> list[str]:
        want_code, want_out, closed = self.expected(argv)
        found = []
        if (exit_code, stdout) != (want_code, want_out):
            found.append(
                f"diagonal re-run gave exit {want_code} {want_out.strip()!r}, "
                f"query gave exit {exit_code} {stdout.strip()!r}"
            )
        if closed is not None and (exit_code != 0 or stdout.strip() != closed):
            found.append(f"closed form {closed!r}, query gave exit {exit_code} {stdout.strip()!r}")
        return found


def verify_problems(reference: str, exit_code: int, stdout: str) -> list[str]:
    found = []
    if exit_code != 0:
        found.append(f"verify exited {exit_code}")
    if stdout != reference:
        a, b = reference.splitlines(), stdout.splitlines()
        first = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        found.append(f"report differs from the reference at line {first + 1}")
    return found
