"""Exhaustive verification of the package's structural claims.

The harness enumerates module/ideal grids, checks each claim of one table
over every instance in scope, and reports a verdict per claim and grid:

  pass     every instance checked out,
  fail     at least one counterexample (some claims are *expected* to fail:
           neither (co)reduced class is closed under extension, and the
           collapse formula has known counterexamples),
  partial  no counterexample, but some instances were skipped because a
           completion chain provably never stabilizes (these always involve a
           free summand and a generator outside {0, +-1}).

`_REGISTRY` declares each claim once, in report order: its id, statement,
expected verdict (or a function of the grid, where that depends on the
ring), the rings it applies to, its loop variables inside a loop over the
grid's ideals (each with a label name, a domain and an optional guard that
prunes at its depth), and a check that returns True, False, an (outcome,
note) pair, or (None, note) for a skip.  A check skips only where its guards
admit an undefined completion; where the paper's classes make the value
exist (a finite N, an N or P in the class, a coreduced M, a ring Z/n), it
computes the value without a test for None.  Over Z and Z/n every value
depends on an ideal only through its canonical generator d, so guards and
checks get d, an int.  One walker, `_walk`, runs the loops of every claim
with one loop body: bind a value, ask the guard, then descend or check.  A
guard may also count a skip: the inherit pair's where the classical value
is undefined, and the dual pair's where X has a free part.  A pass costs its check and a count, and a label such as
`M=Z/2, N=Z, a=(2)` is formatted only for the samples a report keeps.
Mirrored claims are one shape over a `_Side`: reduced (R^M_a, torsion, Hom,
Ext, local cohomology) or coreduced (C^M_a, completion, tensor, Tor, local
homology).  The harness's local (co)homology, `_collapsed`, is one graded
value, a tuple over every degree a claim compares: the public `cyclic`
value read at M/aM on the class relative to M, which is the collapse
formula, and at M elsewhere; the fast-path claims compare the two readings.

Every walk is deterministic, so identical inputs produce byte-identical
reports, also when `run_suite` shares its (claim, grid) jobs with forked
worker processes.  Modules are enumerated as canonical forms, and every
value a claim compares is read off their invariant factors by
`fgmod.cyclic`, the layer the library's value functions use.  Each short
exact sequence carries its inclusion and projection as integer matrices on
cyclic summands (see `_sequence`), and the exactness pair compares the
orders of the maps they induce on one stable quotient Q, once per
(sequence, Q) (see `_exact_on`).  Every Smith form comes from
`fgmod.elimination` and every record is a `rings._Record`, so a run loads
neither `linalg`, `modules` nor `dataclasses`, also when a whitelist names
a `coker` module.  Only the public `enumerate_modules`, which returns
presentations, loads `modules`, and only json-lines output loads `json`.
"""

from __future__ import annotations

import itertools
import math
import os
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, NamedTuple

from . import cyclic
from .cyclic import CanonicalForm
from .elimination import cokernel_orders, eliminate
from .errors import InvalidGrid, NonStabilizing, UnknownClaim
from .grammar import format_canonical, parse_module_expr
from .rings import RingSpec, _Record, principal

if TYPE_CHECKING:
    from .modules import Presentation

__all__ = [
    "GridSpec",
    "ClaimReport",
    "SuiteReport",
    "enumerate_modules",
    "check_claim",
    "run_suite",
    "default_grids",
    "grid_from_dict",
    "registered_claims",
    "claim_expectation",
    "format_reports_text",
    "format_reports_jsonl",
    "REPORT_NOTES",
]

REPORT_NOTES = (
    "exactness claims quantify over short exact sequences all of whose terms "
    "lie in the relevant class within the grid",
    "completion-dependent checks skip instances whose ideal-multiple chain "
    "provably never stabilizes; skips are reported, never silently dropped",
)


# ---------------------------------------------------------------------------
# grids


# bounds the cost of `_is_vnr`, a trial division up to the cube root
_MAX_GRID_MODULUS = 2**64


class GridSpec(_Record):
    """Enumeration bounds for one verification grid.  A whitelist, when
    given, replaces the bounds: the grid's modules are the forms it names."""

    __slots__ = _fields = (
        "ring", "max_torsion_order", "max_free_rank", "ideal_generators", "module_whitelist", "label",
    )

    def __init__(
        self,
        ring: RingSpec,
        max_torsion_order: int,
        max_free_rank: int,
        ideal_generators: tuple[int, ...],
        module_whitelist: tuple[str, ...] | None = None,
        label: str = "",
    ):
        for key, bound in (("max_torsion_order", max_torsion_order), ("max_free_rank", max_free_rank)):
            if bound < 0:
                raise InvalidGrid(f"grid {key!r} must be nonnegative, got {bound}")
        if ring.modulus is not None and ring.modulus >= _MAX_GRID_MODULUS:
            raise InvalidGrid(
                f"grid ring modulus must be below 2**64 (it has {len(str(ring.modulus))} digits):"
                " the claims on von Neumann regular rings test it for square factors by trial division"
            )
        if not ideal_generators:
            raise InvalidGrid("a grid needs at least one ideal generator")
        if module_whitelist is not None and not module_whitelist:
            raise InvalidGrid("a grid's module whitelist needs at least one module")
        if max_free_rank and not ring.is_integers:
            raise InvalidGrid(f"a grid over {ring} needs max_free_rank 0: max_torsion_order bounds its free modules")
        self._fill(ring, max_torsion_order, max_free_rank, ideal_generators, module_whitelist, label)

    def name(self) -> str:
        """The label, or the ring and the bounds, or for a whitelist the ring
        and its forms, so that spellings of the same forms share a name."""
        if self.label:
            return self.label
        if self.module_whitelist is None:
            return f"{self.ring}(o<={self.max_torsion_order},r<={self.max_free_rank})"
        return f"{self.ring}[{'; '.join(map(format_canonical, enumerate_forms(self)))}]"


def _divisor_chains(budget: int, modulus: int | None) -> list[tuple[int, ...]]:
    """All chains d1 | d2 | ... with di >= 2 and product <= budget."""
    out = []
    stack = [((), 1)]
    while stack:
        chain, size = stack.pop()
        out.append(chain)
        step = chain[-1] if chain else 1
        for d in range(max(step, 2), budget // size + 1, step):
            if modulus is None or modulus % d == 0:
                stack.append((chain + (d,), size * d))
    return sorted(out, key=lambda c: (math.prod(c), len(c), c))


def enumerate_forms(grid: GridSpec) -> tuple[CanonicalForm, ...]:
    """Canonical forms of every isomorphism class within the grid bounds."""
    ring = grid.ring
    if grid.module_whitelist is not None:
        # dict keys keep the first of equal forms, in order
        return tuple(dict.fromkeys(parse_module_expr(ring, e) for e in grid.module_whitelist))
    chains = _divisor_chains(grid.max_torsion_order, ring.modulus)
    return tuple(CanonicalForm(ring, chain, r) for r in range(grid.max_free_rank + 1) for chain in chains)


def enumerate_modules(grid: GridSpec) -> list[Presentation]:
    """One canonical presentation per isomorphism class, deterministic order."""
    from .modules import canonical_presentation  # the claims themselves run on forms

    return [canonical_presentation(c) for c in enumerate_forms(grid)]


def default_grids() -> list[GridSpec]:
    """The grids every claim is checked on, each with its expected verdict:
    Z with small torsion and rank one, plus Z/6 and Z/8 with every
    principal ideal."""
    return [
        GridSpec(RingSpec.integers(), 16, 1, (0, 2, 3, 4, 6), label="Z"),
        GridSpec(RingSpec.mod(6), 16, 0, (0, 1, 2, 3), label="Z/6"),
        GridSpec(RingSpec.mod(8), 16, 0, (0, 1, 2, 4), label="Z/8"),
    ]


def grid_from_dict(data: dict) -> GridSpec:
    """A grid from its JSON description; raises InvalidGrid on a missing or
    malformed field."""
    from .grammar import parse_ring

    if not isinstance(data, dict):
        raise InvalidGrid("a grid must be a JSON object")
    if unknown := sorted(set(data) - set(GridSpec._fields)):
        raise InvalidGrid(f"grid has unknown keys {unknown}; its keys are {list(GridSpec._fields)}")
    for key in ("ring", "ideal_generators"):
        if key not in data:
            raise InvalidGrid(f"grid has no {key!r}")
    if not isinstance(data["ring"], str):
        raise InvalidGrid("grid 'ring' must be a string such as \"Z/6\"")
    ring = parse_ring(data["ring"])

    def is_int(value) -> bool:
        return isinstance(value, int) and not isinstance(value, bool)

    def count(key: str, default: int) -> int:
        value = data.get(key, default)
        if not is_int(value):
            raise InvalidGrid(f"grid {key!r} must be an integer")
        return value

    ideal_generators = data["ideal_generators"]
    if not (isinstance(ideal_generators, list) and all(map(is_int, ideal_generators))):
        raise InvalidGrid("grid 'ideal_generators' must be a list of integers")
    wl = data.get("module_whitelist")
    if wl is not None and (not isinstance(wl, list) or not all(isinstance(e, str) for e in wl)):
        raise InvalidGrid("grid 'module_whitelist' must be a list of module expressions")
    label = data.get("label")
    if label is not None and not isinstance(label, str):
        raise InvalidGrid("grid 'label' must be a string")
    return GridSpec(
        ring,
        count("max_torsion_order", 16),
        count("max_free_rank", 1 if ring.is_integers else 0),
        tuple(ideal_generators),
        tuple(wl) if wl is not None else None,
        label or "",
    )


# ---------------------------------------------------------------------------
# values on canonical forms, read off invariant factors by fgmod.cyclic


def _cboth(m: CanonicalForm, n: CanonicalForm, d: int) -> bool:
    return cyclic.is_reduced_wrt(m, n, d) and cyclic.is_coreduced_wrt(m, n, d)


def _reflexive(c: CanonicalForm) -> bool:
    # asked only over Z/n, where every form is finite and so has a dual
    return cyclic.dual(cyclic.dual(c)) == c


def _graded(s: _Side, m: CanonicalForm, n: CanonicalForm, d: int) -> tuple[CanonicalForm, ...] | None:
    """`cyclic`'s local cohomology (homology on the coreduced side) in every
    degree of `_degrees`, or None where the chain a^kM never stabilizes."""
    try:
        return tuple(s.public(i, m, n, d) for i in _degrees(m.ring))
    except NonStabilizing:
        return None


@lru_cache(maxsize=cyclic._MEMO)
def _collapsed(s: _Side, m: CanonicalForm, n: CanonicalForm, d: int) -> tuple[CanonicalForm, ...] | None:
    """The harness's local (co)homology: `_graded` read at M/aM on the class
    of N relative to M, and at M elsewhere.  M/aM is killed by a, so it is
    its own torsion and completion along a, and its value is the collapse
    formula Ext^i(M/aM, N) (Tor_i) in every degree; it has a free part only
    at d = 0, where nothing raises."""
    return _graded(s, cyclic.quotient(m, d) if s.in_class(m, n, d) else m, n, d)


def _cf_projective(c: CanonicalForm) -> bool:
    """Projectivity over the base ring: free over Z; over Z/n each factor d
    must split off, i.e. gcd(d, n/d) = 1."""
    if c.ring.is_integers:
        return not c.torsion_factors
    n = c.ring.modulus
    return all(math.gcd(d, n // d) == 1 for d in c.torsion_factors)


def _degrees(ring: RingSpec) -> range:
    """The degrees the derived claims compare: Z is hereditary, so 0 and 1;
    over Z/n the 2-periodic resolutions repeat from degree 1, so up to 3."""
    return range((1 if ring.is_integers else 3) + 1)


def _free_form(ring: RingSpec) -> CanonicalForm:
    if ring.is_integers:
        return CanonicalForm(ring, (), 1)
    return CanonicalForm(ring, (ring.modulus,), 0)


# ---------------------------------------------------------------------------
# submodules and short exact sequences of finite modules


class _Seq(NamedTuple):
    """0 -> X -> Y -> Z -> 0 for a submodule X of Y and Z = Y/X: Y's form,
    the forms of X and Z, and the inclusion and the projection as integer
    matrices on their cyclic summands, one row per summand of the target
    (see `cyclic.hom_postcompose`); the columns of the inclusion generate X.
    Every field is an int, a tuple or an interned form, so a sequence hashes
    in C."""

    y: CanonicalForm
    x: CanonicalForm
    z: CanonicalForm
    incl: tuple[tuple[int, ...], ...]
    proj: tuple[tuple[int, ...], ...]


def _sequence(y: CanonicalForm, gens: tuple[tuple[int, ...], ...]) -> _Seq:
    """0 -> X -> Y -> Y/X -> 0 for the submodule X of a finite Y that `gens`
    generate.

    Every term is finite, and over Z/n its submodules are its subgroups, so
    the summands are read off Smith forms over Z.  One elimination
    U A V = D of A = [G | D_Y], for the m x k matrix G of generator columns
    and the diagonal D_Y of Y's orders, gives both ends.  Z = Y/X is the
    cokernel of A: its summands sit at the non-unit entries of D, and the
    rows of U there give the projection.  A has rank m, so the last k
    columns of V span its kernel, and their first k rows R present X on G.
    A second elimination U_R R V_R = D_R puts X's summands at the non-unit
    entries e_j of D_R, generated by G U_R^-1 e_j.  The j-th column of
    R V_R = U_R^-1 D_R is e_j U_R^-1 e_j, so dividing it by e_j and applying
    G gives the inclusion without inverting U_R."""
    h = y.torsion_factors
    m, k = len(h), len(gens)
    a = tuple(tuple(g[i] for g in gens) + (0,) * i + (o,) + (0,) * (m - 1 - i) for i, o in enumerate(h))
    d, u, v = eliminate(a, k + m, track_u=True, track_v=True)
    z = [(i, d[i][i]) for i in range(m) if d[i][i] != 1]
    r = tuple(row[m:] for row in v[:k])
    dr, _, vr = eliminate(r, k, track_v=True)
    x = [(j, dr[j][j]) for j in range(k) if dr[j][j] != 1]
    cols = [[sum(rt * vr[t][j] for t, rt in enumerate(row)) // e for row in r] for j, e in x]
    incl = tuple(tuple(sum(g[i] * c for g, c in zip(gens, col)) % o for col in cols) for i, o in enumerate(h))
    proj = tuple(tuple(w % e for w in u[i]) for i, e in z)
    x_form, z_form = (CanonicalForm(y.ring, tuple(e for _, e in places), 0) for places in (x, z))
    return _Seq(y, x_form, z_form, incl, proj)


@lru_cache(maxsize=256)
def _sequences_in(y: CanonicalForm) -> tuple[_Seq, ...]:
    """One sequence per submodule X of a finite Y, by |X| and then by X's
    elements, as shared objects computed once for all ideals and claims.

    A closure search over Y's elements finds the subgroups, which are the
    submodules, since Z and Z/n act by repeated addition.  Each subgroup is
    first reached from a smaller one and an element outside it, so that
    one's generators and the element generate it."""
    factors = y.torsion_factors
    exponent = max(factors, default=1)
    elements = list(itertools.product(*(range(d) for d in factors)))

    def add(x, z):
        return tuple((a + b) % d for a, b, d in zip(x, z, factors))

    def closure(group: frozenset, x) -> frozenset:
        multiples = {tuple(k * a % d for a, d in zip(x, factors)) for k in range(exponent)}
        return frozenset(add(s, m) for s in group for m in multiples)

    gens = {frozenset({(0,) * len(factors)}): ()}
    frontier = list(gens)
    while frontier:
        group = frontier.pop()
        for x in elements:
            if x not in group:
                bigger = closure(group, x)
                if bigger not in gens:
                    gens[bigger] = gens[group] + (x,)
                    frontier.append(bigger)
    return tuple(_sequence(y, gens[g]) for g in sorted(gens, key=lambda s: (len(s), sorted(s))))


# ---------------------------------------------------------------------------
# reports


class ClaimReport(_Record):
    """One claim's verdict on one grid, with its counts and the samples kept."""

    __slots__ = _fields = (
        "claim_id", "grid", "statement", "verdict", "expected", "instances_checked",
        "counterexamples", "counterexample_count", "skipped", "skipped_count",
    )

    def __init__(
        self,
        claim_id: str,
        grid: str,
        statement: str,
        verdict: str,
        expected: str,
        instances_checked: int,
        counterexamples: tuple[str, ...],
        counterexample_count: int,
        skipped: tuple[str, ...],
        skipped_count: int,
    ):
        self._fill(
            claim_id, grid, statement, verdict, expected, instances_checked,
            counterexamples, counterexample_count, skipped, skipped_count,
        )

    @property
    def as_expected(self) -> bool:
        if self.expected == "fail":
            return self.verdict == "fail"
        return self.verdict in ("pass", "partial")

    def to_dict(self) -> dict:
        return {
            "claim": self.claim_id,
            "grid": self.grid,
            "statement": self.statement,
            "verdict": self.verdict,
            "expected": self.expected,
            "instances_checked": self.instances_checked,
            "counterexample_count": self.counterexample_count,
            "counterexamples": list(self.counterexamples),
            "skipped_count": self.skipped_count,
            "skipped": list(self.skipped),
        }


class SuiteReport(_Record):
    """The reports of one suite run, sorted by claim and grid."""

    __slots__ = _fields = ("reports",)

    def __init__(self, reports: tuple[ClaimReport, ...]):
        self._fill(reports)

    def unexpected(self) -> list[ClaimReport]:
        return [r for r in self.reports if not r.as_expected]

    @property
    def all_expected(self) -> bool:
        return not self.unexpected()


_SAMPLE_CAP = 8


class _Ctx(NamedTuple):
    grid: GridSpec
    ideals: tuple[int, ...]  # the canonical generator d of each grid ideal
    forms: tuple[CanonicalForm, ...]
    finite: tuple[CanonicalForm, ...]
    small: tuple[CanonicalForm, ...]
    finite_small: tuple[CanonicalForm, ...]
    tiny: tuple[CanonicalForm, ...]


@lru_cache(maxsize=16)
def _make_ctx(grid: GridSpec) -> _Ctx:
    """The grid's forms and ideals, built once per grid: every claim on the
    grid reads them, and `_run_jobs` builds them before it forks, so that
    workers inherit them.  (Forms are interned, so a rebuild would give the
    same objects; it would only cost the enumeration again.)  Generators of
    one ideal, such as 2 and 4 over Z/6, give it once, at the first."""
    forms = enumerate_forms(grid)
    ideals = tuple(dict.fromkeys(principal(grid.ring, g).canonical for g in grid.ideal_generators))
    finite = tuple(c for c in forms if c.free_rank == 0)

    def torsion_order(c):
        return math.prod(c.torsion_factors) if c.torsion_factors else 1

    small = tuple(c for c in forms if torsion_order(c) <= 8 and (c.free_rank == 0 or torsion_order(c) <= 2))
    finite_small = tuple(c for c in finite if torsion_order(c) <= 8)
    tiny = tuple(c for c in forms if (c.free_rank == 0 and torsion_order(c) <= 4) or (c.free_rank == 1 and not c.torsion_factors))
    return _Ctx(grid, ideals, forms, finite, small, finite_small, tiny)


class _Var(NamedTuple):
    """One loop of a claim.  `domain` is a `_Ctx` field, or a function of the
    context, the values bound so far and the ideal's generator d; `guard`,
    given the values bound so far, this one included, and d, prunes at this
    depth: it returns True to go on, False to prune, or (None, note) to count
    a skip for the values bound so far and prune.  A tail variable is
    labelled after the ideal."""

    name: str
    domain: str | Callable = "forms"
    guard: Callable | None = None
    tail: bool = False

    def values(self, ctx: _Ctx, bound: tuple, d: int):
        dom = self.domain
        return getattr(ctx, dom) if isinstance(dom, str) else dom(ctx, *bound, d)


def _walk(loops: tuple[_Var, ...], check: Callable, ctx: _Ctx, tally: _Tally) -> None:
    """Check each instance, depth first in declaration order inside a loop
    over the ideals.  Each depth binds a value and asks its guard, then
    descends or, at the innermost depth, checks.  A result of True only adds
    to a local count, added to `tally.checked` once per loop; any other
    result, and a guard's skip, goes to `tally.record` with the instance's
    values, which end with the ideal's generator d."""
    last = len(loops) - 1

    def descend(bound: tuple, d: int) -> None:
        var = loops[len(bound)]
        guard = var.guard
        inner = len(bound) < last
        checked = 0
        for x in var.values(ctx, bound, d):
            values = bound + (x,)
            if guard is not None and (ok := guard(*values, d)) is not True:
                if isinstance(ok, tuple):
                    tally.record(values + (d,), ok)
            elif inner:
                descend(values, d)
            elif (result := check(*values, d)) is True:
                checked += 1
            else:
                tally.record(values + (d,), result)
        tally.checked += checked

    for d in ctx.ideals:
        descend((), d)
    del descend  # the closure refers to itself; `cli.run` collects no cycles


def _label(loops: tuple[_Var, ...], values: tuple) -> str:
    """`q=1, M=..., N=..., a=(d), X=...`: a degree first, then the modules by
    name, the ideal, and a short exact sequence (as 0->X->Y->Z->0) or a tail
    variable.  `values` may stop short of the innermost loops."""
    *xs, d = values
    bound = list(zip(loops, xs))
    parts = [f"{v.name}={x}" for v, x in bound if isinstance(x, int)]
    parts += [
        f"{v.name}={format_canonical(x)}"
        for v, x in sorted(bound, key=lambda vx: vx[0].name)
        if isinstance(x, CanonicalForm) and not v.tail
    ]
    parts.append(f"a=({d})")
    for v, x in bound:
        if isinstance(x, _Seq):
            parts.append(f"0->{format_canonical(x.x)}->{format_canonical(x.y)}->{format_canonical(x.z)}->0")
        elif v.tail:
            parts.append(f"{v.name}={format_canonical(x)}")
    return ", ".join(parts)


class _Tally:
    """One claim's counts on one grid, and the labels of the samples it keeps."""

    __slots__ = ("loops", "checked", "counterexamples", "n_counter", "skipped", "n_skipped")

    def __init__(self, loops: tuple[_Var, ...]):
        self.loops = loops
        self.checked = self.n_counter = self.n_skipped = 0
        self.counterexamples: list[str] = []
        self.skipped: list[str] = []

    def record(self, values: tuple, result):
        """Count one check result: True, False, (outcome, note), or
        (None, note) for a skip.  Labels only the samples it keeps."""
        outcome, note = result if isinstance(result, tuple) else (result, "")
        if outcome is None:
            self.n_skipped += 1
            kept = self.skipped
        else:
            self.checked += 1
            if outcome:
                return
            self.n_counter += 1
            kept = self.counterexamples
        if len(kept) < _SAMPLE_CAP:
            kept.append(_label(self.loops, values) + (f" : {note}" if note else ""))


@lru_cache(maxsize=16)
def _is_vnr(ring: RingSpec) -> bool:
    """Finite products of fields among the supported rings: Z/n, n squarefree.

    Trial division divides out every p up to the cube root of n.  What is
    left has no smaller prime factor, so at most two, and is squarefree
    unless it is a square.  Grid moduli stay below `_MAX_GRID_MODULUS`, so
    this takes at most about 2.6 million divisions, once per ring: the claim
    table asks it of each grid several times."""
    if ring.is_integers:
        return False
    n = m = ring.modulus
    for p in range(2, int(n ** (1 / 3)) + 2):
        if m % p == 0:
            m //= p
            if m % p == 0:
                return False
            if p * p * p > m:
                break
    r = math.isqrt(m)
    return m == 1 or r * r != m


class _Claim(NamedTuple):
    """One entry of the claim table; see the module docstring."""

    claim_id: str
    statement: str
    loops: tuple[_Var, ...]
    check: Callable
    rings: str = "all"  # "all", "modular", "vnr"
    expected: str = "pass"  # "pass" or "fail" on grids where the claim has content
    expected_on: Callable[[GridSpec], str] | None = None

    def applies(self, grid: GridSpec) -> bool:
        if self.rings == "all":
            return True
        if grid.ring.is_integers:
            return False
        if self.rings == "modular":
            return True
        return _is_vnr(grid.ring)

    def expected_for(self, grid: GridSpec) -> str:
        """Expected verdict on this grid."""
        return self.expected if self.expected_on is None else self.expected_on(grid)


# ---------------------------------------------------------------------------
# claim shapes: the loops and check of a claim, mirrored ones over a _Side


class _Side(NamedTuple):
    """One side of the paper's duality, as the operations a mirrored claim
    names: reduced (R^M_a, two-argument torsion, Hom, Ext, local cohomology)
    or coreduced (C^M_a, two-argument completion, tensor, Tor, local
    homology).  Each operation that depends on the ideal takes it as its
    canonical generator d.  The two sides are the only ones, so a side
    compares and hashes by identity, as a `CanonicalForm` does: a memo table
    keyed on it hashes one pointer, not its operations."""

    in_class: Callable  # (M, N, d): is N in R^M_a (C^M_a)
    adic: Callable  # (M, N, d): two-argument torsion (completion; raises NonStabilizing if no limit)
    adic_name: str
    absolute: Callable  # (N, d): is N itself reduced (coreduced)
    functor: Callable  # Hom (tensor)
    public: Callable  # (i, M, N, d): cyclic's local cohomology (homology)
    postcompose: Callable  # (M, A, B, F): the map F: A -> B induces on Hom(M, -) (M (x) -)
    exact: Callable  # (first, second induced on Q; see _exact_on): left (right) exact

    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__


def _equiv(s: _Side) -> dict:
    # the class, Hom (tensor) against M/aM and M/a^2M, the two-argument
    # torsion (completion) and its ideal multiples must all agree; N ranges
    # over free forms too, so the completion may not exist
    def check(m, n, d):
        mq = cyclic.quotient(m, d)
        b1 = s.in_class(m, n, d)
        b2 = s.functor(mq, n) == s.functor(cyclic.quotient(m, d * d), n)
        try:
            g = s.adic(m, n, d)
        except NonStabilizing:
            return (False, f"({b1},{b2})") if b1 != b2 else (None, "completion chain does not stabilize")
        b3 = g == s.functor(mq, n)
        b4 = cyclic.quotient(g, d) is g  # dG = 0
        b5 = s.absolute(g, d)
        ok = b1 == b2 == b3 == b4 == b5
        return ok, "" if ok else f"({b1},{b2},{b3},{b4},{b5})"

    return dict(loops=(_Var("M"), _Var("N")), check=check)


def _gamma_compose(m, n, d):
    # two-argument torsion per its limit definition vs torsion of the hom module
    try:
        mk = cyclic.completion(m, d)[0]
    except NonStabilizing:
        return None, "ideal-multiple chain of M does not stabilize"
    return cyclic.hom(mk, n) == cyclic.torsion_wrt(m, n, d)


def _functor_stays(s: _Side) -> dict:
    # Hom lands in the reduced class, tensor stays in the coreduced class
    return dict(
        loops=(_Var("M", "small"), _Var("X", "small", cyclic.is_coreduced_wrt), _Var("Y", "small")),
        check=lambda m, x, y, d: s.in_class(m, s.functor(x, y), d),
    )


def _closure_sums(s: _Side) -> dict:
    # finite products and finite sums are both direct sums
    return dict(
        loops=(
            _Var("M", "small"),
            _Var("N1", "small", s.in_class),
            _Var("N2", "small", lambda m, n1, n2, d: s.in_class(m, n2, d)),
        ),
        check=lambda m, n1, n2, d: s.in_class(m, cyclic.direct_sum([n1, n2]), d),
    )


def _quotient_sources(ctx: _Ctx, d: int):
    # finite modules by submodules, then modules with free part by scalars
    return ctx.finite_small + tuple(n for n in ctx.forms if n.free_rank)


def _quotients(ctx: _Ctx, n: CanonicalForm, m: CanonicalForm, d: int):
    if n.free_rank:
        return tuple(cyclic.quotient(n, c) for c in (2, 3, 4))
    return tuple(s.z for s in _sequences_in(n))


def _sequences(ctx: _Ctx, d: int):
    return [s for y in ctx.finite_small for s in _sequences_in(y)]


def _extension_closure(s: _Side) -> dict:
    def check(seq, m, d):
        ok = s.in_class(m, seq.y, d)
        return ok, "" if ok else "middle term leaves the class"

    return dict(
        loops=(
            _Var("S", _sequences),
            _Var("M", "tiny", lambda seq, m, d: s.in_class(m, seq.x, d) and s.in_class(m, seq.z, d)),
        ),
        check=check,
        expected="fail",
        # over a von Neumann regular ring both classes are all modules
        expected_on=lambda grid: "pass" if _is_vnr(grid.ring) else "fail",
    )


def _dual_defined(m, x, d):
    # the dual of a module with a free part is not finitely generated
    return not x.free_rank or (None, "dual undefined on free part")


def _adic_dual(s: _Side) -> dict:
    # the dual of one two-argument functor against the other one of the dual;
    # N is finite, so it and its dual lie in both classes and both exist
    return dict(
        loops=(_Var("M"), _Var("N", "finite", s.in_class)),
        check=lambda m, n, d: cyclic.dual(s.adic(m, n, d)) == _other(s).adic(m, cyclic.dual(n), d),
    )


def _reflexive_values(m, n, d):
    return _reflexive(cyclic.torsion_wrt(m, n, d)) and _reflexive(cyclic.completion_wrt(m, n, d))


def _gm_adjunction(m, n, p, d):
    # P is coreduced relative to M, so the completion exists
    return cyclic.hom(cyclic.completion_wrt(m, p, d), n) == cyclic.hom(p, cyclic.torsion_wrt(m, n, d))


def _exactness(s: _Side) -> dict:
    loops = (
        _Var("S", _sequences),
        _Var("M", "tiny", lambda seq, m, d: all(s.in_class(m, c, d) for c in (seq.x, seq.y, seq.z))),
    )

    def check(seq, m, d):
        q = cyclic.completion(cyclic.quotient(m, math.lcm(*seq.y.torsion_factors)), d)[0]
        return _exact_on(s, seq, q)

    return dict(loops=loops, check=check)


# the default suite checks 772 distinct (side, sequence, Q), so this bound
# never evicts there
@lru_cache(maxsize=2048)
def _exact_on(s: _Side, seq: _Seq, q: CanonicalForm) -> tuple[bool, str]:
    """Torsion left (completion right) exactness on the sequence, read on Q.
    E, the exponent of Y, kills each term T, so Hom(M, T)[d^k] is
    Hom(M/d^kM, T) = Hom((M/EM)/d^k, T), and (M (x) T)/d^k is
    (M/EM)/d^k (x) T, naturally in T; the chain of the finite M/EM settles
    at Q, the completion of M/EM along (d)."""
    return s.exact(s.postcompose(q, seq.x, seq.y, seq.incl), s.postcompose(q, seq.y, seq.z, seq.proj))


# The induced maps of the exactness pair act between finite sums of cyclic
# pair summands Z/h (see cyclic.hom_postcompose), and hp·hi = 0 (tp·ti = 0),
# so each question is a comparison of orders: a map is injective iff its
# image is as large as its source, onto iff as large as its target, and the
# pair is exact in the middle iff the kernel of the second, of order
# |middle| / |image|, is no larger than the image of the first.


def _span_order(f: cyclic.SummandMap) -> int:
    """The order of the image of f in the sum of the Z/h, h its target
    orders: the index of the integer span of [F | diag(orders)] over that
    of diag(orders)."""
    source, target, matrix = f
    rows = tuple(
        row + (0,) * i + (h,) + (0,) * (len(target) - 1 - i) for i, (row, h) in enumerate(zip(matrix, target))
    )
    return math.prod(target) // math.prod(cokernel_orders(rows, len(source) + len(target))[0])


def _gamma_exact(hi: cyclic.SummandMap, hp: cyclic.SummandMap):
    image = _span_order(hi)
    injective = image == math.prod(hi[0])
    exact_mid = math.prod(hi[1]) == _span_order(hp) * image
    ok = injective and exact_mid
    return ok, "" if ok else f"injective={injective}, exact={exact_mid}"


def _lambda_exact(ti: cyclic.SummandMap, tp: cyclic.SummandMap):
    onto = _span_order(tp)
    surjective = onto == math.prod(tp[1])
    exact_mid = math.prod(ti[1]) == onto * _span_order(ti)
    ok = surjective and exact_mid
    return ok, "" if ok else f"surjective={surjective}, exact={exact_mid}"


def _both_classes(m, n, d):
    mq = cyclic.quotient(m, d)
    return _cboth(m, cyclic.tensor(mq, n), d) and _cboth(m, cyclic.hom(mq, n), d)


def _fastpath(s: _Side) -> dict:
    # the public value at M/aM, the collapse formula, against the one at M,
    # which reads the stabilized chain; degree 0 always agrees on the class
    def check(m, n, d):
        at_m = _graded(s, m, n, d)
        return (None, "stabilized path undefined") if at_m is None else _collapsed(s, m, n, d) == at_m

    return dict(loops=(_Var("M"), _Var("N", guard=s.in_class)), check=check)


def _glc_fastpath_expected(grid: GridSpec) -> str:
    # the collapse formula's known counterexamples: a free second argument
    # over Z, and non-semisimple Z/n, where a stabilized chain can reach a
    # free quotient while the collapsed quotient is not projective
    if _is_vnr(grid.ring):
        return "pass"
    if grid.ring.is_integers:
        return "fail" if grid.max_free_rank >= 1 else "pass"
    return "fail"


def _glh_fastpath_expected(grid: GridSpec) -> str:
    return "pass" if (grid.ring.is_integers or _is_vnr(grid.ring)) else "fail"


def _positive_degrees_vanish(s: _Side) -> dict:
    # N in the class selects the collapse formula, which is always defined
    return dict(
        loops=(
            _Var("M", guard=lambda m, d: _cf_projective(cyclic.quotient(m, d))),
            _Var("N", guard=s.in_class),
        ),
        check=lambda m, n, d: all(v.is_trivial for v in _collapsed(s, m, n, d)[1:]),
    )


def _finiteness(m, n, d):
    defined = [h for h in (_collapsed(_RED, m, n, d), _collapsed(_COR, m, n, d)) if h is not None]
    if not defined:
        return None, "no stabilizing path"
    return all(v.free_rank == 0 for h in defined for v in h)


def _local_dual(s: _Side) -> dict:
    # the dual of one local (co)homology against the other one of the dual;
    # N is finite, so it and its dual lie in both classes, both sides take
    # the collapse formula, and every value is finite
    def check(m, n, d):
        dn = cyclic.dual(n)
        return tuple(map(cyclic.dual, _collapsed(s, m, n, d))) == _collapsed(_other(s), m, dn, d)

    return dict(loops=(_Var("M"), _Var("N", "finite", s.in_class)), check=check)


def _b_class_membership(m, n, d):
    # coreduced M makes both fast paths total
    return all(_cboth(m, v, d) for s in (_RED, _COR) for v in _collapsed(s, m, n, d))


def _inherit(s: _Side) -> dict:
    # the classical value H(R, N) gates M, and is undefined once per (q, N)
    def classical(q, n, d):
        h = _collapsed(s, _free_form(n.ring), n, d)
        return None if h is None else h[q]

    def gated(ctx: _Ctx, q, n, d):
        hq = classical(q, n, d)
        return [m for m in ctx.forms if s.in_class(m, hq, d)]

    def check(q, n, m, d):
        hmn = _collapsed(s, m, n, d)
        return (None, "no stabilizing path") if hmn is None else s.in_class(m, hmn[q], d)

    loops = (
        _Var("q", lambda ctx, d: _degrees(ctx.grid.ring)),
        _Var("N", guard=lambda q, n, d: classical(q, n, d) is not None or (None, "classical value undefined (chain)")),
        _Var("M", gated),
    )
    return dict(loops=loops, check=check)


def _vnr_vanish(s: _Side) -> dict:
    # iterated local (co)homology is the double completion (torsion) at (0,0);
    # the claim runs only over Z/n, where every value is defined
    def check(m, n, d):
        for q, inner in enumerate(_collapsed(s, m, n, d)):
            note = ""  # the last failure in row q
            for p, outer in enumerate(_collapsed(s, m, inner, d)):
                if (p, q) == (0, 0):
                    if outer != s.adic(m, s.adic(m, n, d), d):
                        note = f"double {s.adic_name} mismatch at (0,0)"
                elif not outer.is_trivial:
                    note = f"nonzero at ({p},{q})"
            if note:
                return False, note
        return True

    return dict(loops=(_Var("M"), _Var("N")), check=check, rings="vnr")


# ---------------------------------------------------------------------------
# the claim table, in report order


_RED = _Side(
    cyclic.is_reduced_wrt, cyclic.torsion_wrt, "torsion", cyclic.is_reduced, cyclic.hom,
    cyclic.local_cohomology, cyclic.hom_postcompose, _gamma_exact,
)
_COR = _Side(
    cyclic.is_coreduced_wrt, cyclic.completion_wrt, "completion", cyclic.is_coreduced, cyclic.tensor,
    cyclic.local_homology, cyclic.tensor_postcompose, _lambda_exact,
)


def _other(s: _Side) -> _Side:
    return _COR if s is _RED else _RED


def _mirrored(shape: Callable[[_Side], dict], *entries: tuple[_Side, str, str]) -> list[_Claim]:
    """One entry per (side, claim id, statement), all of one shape."""
    return [_Claim(cid, statement, **shape(side)) for side, cid, statement in entries]


_M, _N = _Var("M"), _Var("N")

_REGISTRY: list[_Claim] = [
    *_mirrored(
        _equiv,
        (_RED, "equiv-reduced-wrt", "the five characterizations of 'reduced relative to M' agree on every instance"),
        (_COR, "equiv-coreduced-wrt", "the five characterizations of 'coreduced relative to M' agree on every instance"),
    ),
    _Claim("gamma-compose",
           "two-argument torsion computed from its limit definition equals the torsion of the hom module",
           (_M, _N), _gamma_compose),
    _Claim("gamma-hom-commute", "two-argument torsion equals Hom(M, torsion of N)",
           (_N, _M), lambda n, m, d: cyclic.torsion_wrt(m, n, d) == cyclic.hom(m, cyclic.torsion(n, d)[0])),
    _Claim("gamma-reflect", "N is reduced relative to M iff the torsion of N is",
           (_N, _M),
           lambda n, m, d: cyclic.is_reduced_wrt(m, n, d) == cyclic.is_reduced_wrt(m, cyclic.torsion(n, d)[0], d)),
    _Claim("reduced-implies-wrt", "a reduced module is reduced relative to every module",
           (_Var("N", guard=cyclic.is_reduced), _Var("K")),
           lambda n, k, d: cyclic.is_reduced_wrt(k, n, d)),
    _Claim("coreduced-M-absorbs", "a coreduced M makes every module reduced relative to M",
           (_Var("M", guard=cyclic.is_coreduced), _N), cyclic.is_reduced_wrt),
    _Claim("tensor-coreduced", "a tensor product with a coreduced factor is coreduced",
           (_M, _Var("N", guard=lambda m, n, d: cyclic.is_coreduced(m, d) or cyclic.is_coreduced(n, d))),
           lambda m, n, d: cyclic.is_coreduced(cyclic.tensor(m, n), d)),
    *_mirrored(
        _functor_stays,
        (_RED, "hom-into-reduced", "Hom out of a module coreduced relative to M lands in the reduced class"),
        (_COR, "tensor-stays", "tensoring a module coreduced relative to M stays in the coreduced class"),
    ),
    *_mirrored(
        _closure_sums,
        (_RED, "closure-products", "finite products stay reduced relative to M"),
        (_COR, "closure-sums", "finite sums stay coreduced relative to M"),
    ),
    _Claim("closure-sub", "submodules stay reduced relative to M",
           (_Var("N", "finite_small"), _Var("M", "small", lambda n, m, d: cyclic.is_reduced_wrt(m, n, d)),
            _Var("X", lambda ctx, n, m, d: [s.x for s in _sequences_in(n)], tail=True)),
           lambda n, m, x, d: cyclic.is_reduced_wrt(m, x, d)),
    _Claim("closure-quot", "quotients stay coreduced relative to M",
           (_Var("N", _quotient_sources), _Var("M", "small", lambda n, m, d: cyclic.is_coreduced_wrt(m, n, d)),
            _Var("Q", _quotients, tail=True)),
           lambda n, m, q, d: cyclic.is_coreduced_wrt(m, q, d)),
    *_mirrored(
        _extension_closure,
        (_RED, "extension-closure-R",
         "the reduced-relative-to-M class is closed under extensions (expected counterexample)"),
        (_COR, "extension-closure-C",
         "the coreduced-relative-to-M class is closed under extensions (expected counterexample)"),
    ),
    _Claim("dual-cor-iff-red", "X is coreduced relative to M iff its dual is reduced relative to M",
           (_M, _Var("X", guard=_dual_defined)),
           lambda m, x, d: cyclic.is_coreduced_wrt(m, x, d) == cyclic.is_reduced_wrt(m, cyclic.dual(x), d)),
    _Claim("dual-red-then-cor", "the dual of a module reduced relative to M is coreduced relative to M",
           (_M, _Var("X", guard=lambda m, x, d: cyclic.is_reduced_wrt(m, x, d) and _dual_defined(m, x, d))),
           lambda m, x, d: cyclic.is_coreduced_wrt(m, cyclic.dual(x), d)),
    *_mirrored(
        _adic_dual,
        (_RED, "gamma-dual", "dual of two-argument torsion equals two-argument completion of the dual"),
        (_COR, "lambda-dual", "dual of two-argument completion equals two-argument torsion of the dual"),
    ),
    _Claim("reflexive", "torsion and completion of a reflexive module in both classes are reflexive",
           (_M, _Var("N", guard=lambda m, n, d: _cboth(m, n, d) and _reflexive(n))),
           _reflexive_values, rings="modular"),
    _Claim("gm-adjunction", "Hom(completion(M,P), N) matches Hom(P, torsion(M,N)) on the two classes",
           (_M, _Var("N", guard=cyclic.is_reduced_wrt), _Var("P", guard=lambda m, n, p, d: cyclic.is_coreduced_wrt(m, p, d))),
           _gm_adjunction),
    *_mirrored(
        _exactness,
        (_RED, "gamma-left-exact", "two-argument torsion preserves kernels on in-class short exact sequences"),
        (_COR, "lambda-right-exact",
         "two-argument completion preserves cokernels on in-class short exact sequences"),
    ),
    _Claim("both-classes", "tensor and Hom against M/aM land in both classes relative to M",
           (_M, _N), _both_classes),
    _Claim("glc-fastpath",
           "collapsed and stabilized-chain local cohomology agree where both are defined "
           "(known counterexamples: free second argument over Z, and non-semisimple Z/n)",
           **_fastpath(_RED), expected_on=_glc_fastpath_expected),
    _Claim("glc-proj-vanish", "local cohomology vanishes in positive degrees when M/aM is projective",
           **_positive_degrees_vanish(_RED)),
    _Claim("glh-fastpath",
           "collapsed and stabilized-chain local homology agree where both are defined "
           "(known counterexamples over non-semisimple Z/n)",
           **_fastpath(_COR), expected_on=_glh_fastpath_expected),
    _Claim("glh-flat-vanish", "local homology vanishes in positive degrees when M/aM is flat",
           **_positive_degrees_vanish(_COR)),
    _Claim("glh-symmetry", "local homology is symmetric in its two coreduced arguments",
           (_Var("M", guard=cyclic.is_coreduced), _Var("N", guard=lambda m, n, d: cyclic.is_coreduced(n, d))),
           lambda m, n, d: _collapsed(_COR, m, n, d) == _collapsed(_COR, n, m, d),
           rings="modular"),
    _Claim("finiteness", "local (co)homology of finite inputs is finite",
           (_M, _Var("N", "finite")), _finiteness),
    *_mirrored(
        _local_dual,
        (_COR, "glh-glc-dual", "dual of local homology equals local cohomology of the dual"),
        (_RED, "glc-glh-dual", "local homology of the dual equals the dual of local cohomology"),
    ),
    _Claim("b-class-membership", "for coreduced M, local (co)homology values land in both classes",
           (_Var("M", guard=cyclic.is_coreduced), _N), _b_class_membership),
    *_mirrored(
        _inherit,
        (_RED, "inherit-reduced", "if the classical value is reduced relative to M, so is the two-argument value"),
        (_COR, "inherit-coreduced",
         "if the classical value is coreduced relative to M, so is the two-argument value"),
    ),
    *_mirrored(
        _vnr_vanish,
        (_COR, "vnr-homology-vanish", "over a von Neumann regular ring iterated local homology vanishes off (0,0)"),
        (_RED, "vnr-cohomology-vanish",
         "over an Artinian von Neumann regular ring iterated local cohomology vanishes off (0,0)"),
    ),
]

_BY_ID = {c.claim_id: c for c in _REGISTRY}


def registered_claims() -> list[str]:
    return [c.claim_id for c in _REGISTRY]


def claim_expectation(claim_id: str, grid: GridSpec | None = None) -> str:
    """The verdict a claim is expected to reach on `grid`.  Without a grid it
    is the claim's declared default, which the per-grid answer overrides for
    `extension-closure-*` (pass on von Neumann regular rings) and for the
    fast-path claims (which follow the ring and, over Z, the free rank)."""
    if claim_id not in _BY_ID:
        raise UnknownClaim(claim_id)
    if grid is None:
        return _BY_ID[claim_id].expected
    return _BY_ID[claim_id].expected_for(grid)


def check_claim(claim_id: str, grid: GridSpec) -> ClaimReport:
    """Evaluate one claim over one grid; raises InvalidGrid if the claim does
    not apply over the grid's ring."""
    if claim_id not in _BY_ID:
        raise UnknownClaim(claim_id)
    cdef = _BY_ID[claim_id]
    if not cdef.applies(grid):
        raise InvalidGrid(f"claim {claim_id!r} does not apply over {grid.ring} (grid {grid.name()!r})")
    ctx = _make_ctx(grid)
    tally = _Tally(cdef.loops)
    _walk(cdef.loops, cdef.check, ctx, tally)
    if tally.n_counter:
        verdict = "fail"
    elif tally.n_skipped:
        verdict = "partial"
    else:
        verdict = "pass"
    return ClaimReport(
        claim_id,
        grid.name(),
        cdef.statement,
        verdict,
        cdef.expected_for(grid),
        tally.checked,
        tuple(tally.counterexamples),
        tally.n_counter,
        tuple(tally.skipped),
        tally.n_skipped,
    )


def run_suite(
    grids: list[GridSpec] | None = None, claims: list[str] | None = None, processes: int = 1
) -> SuiteReport:
    """Evaluate claims over grids; reports come back sorted and deterministic.
    Each claim is checked on the grids it applies to.  A selection that
    leaves nothing to check raises InvalidGrid, and so do two grids of one
    name that differ in their forms, their ideals or an expected verdict,
    whose reports no reader could tell apart.  With
    `processes` > 1 the (claim, grid) jobs are shared with forked workers
    (see `_run_jobs`); each job still runs whole in one process, so the
    reports are those of a serial run."""
    # a grid given twice, in any spelling, is checked once, as a repeated id is
    by_name: dict[str, tuple] = {}
    for grid in default_grids() if grids is None else grids:
        ctx = _make_ctx(grid)
        key = (ctx.forms, ctx.ideals, tuple(c.expected_for(grid) for c in _REGISTRY))
        if by_name.setdefault(name := grid.name(), (grid, key))[1] != key:
            raise InvalidGrid(f"two different grids are named {name!r}: give them distinct labels")
    grids = [grid for grid, _ in by_name.values()]
    if not grids:
        raise InvalidGrid("no grid to check the claims on")
    claim_ids = registered_claims() if claims is None else list(dict.fromkeys(claims))
    for cid in claim_ids:
        if cid not in _BY_ID:
            raise UnknownClaim(cid)
    jobs = [(cid, grid) for cid in claim_ids for grid in grids if _BY_ID[cid].applies(grid)]
    if not jobs:
        raise InvalidGrid("no selected claim applies over the grids' rings" if claim_ids else "no claim to check")
    reports = _run_jobs(jobs, processes)
    reports.sort(key=lambda r: (r.claim_id, r.grid))
    return SuiteReport(tuple(reports))


def _run_jobs(jobs: list[tuple[str, GridSpec]], processes: int) -> list[ClaimReport]:
    """`check_claim` of every (claim, grid) job, in job order.

    The jobs share no state, so k = min(processes, len(jobs)) processes run
    them: process w runs the jobs w, w + k, w + 2k, ...  This process runs
    share 0, and k - 1 workers forked from it run the others; each worker
    sends back its reports, or the exception that stopped it, through a pipe.
    Where `os.fork` is missing, k is 1 and the same loop forks no worker.
    Every grid's context is built before the fork, so the workers inherit
    each grid's forms instead of enumerating them again.  Workers are forked
    rather than spawned: a spawned one would start an interpreter and load
    the harness again, and fgmod starts no thread that a fork could cut off.
    No worker outlives the call: on any exception, KeyboardInterrupt
    included, the workers still running are killed and reaped before it
    propagates."""
    if processes < 1:
        raise ValueError(f"processes must be at least 1, got {processes}")
    k = min(processes, len(jobs)) if hasattr(os, "fork") else 1
    if k > 1:
        import pickle  # only a run with workers needs it; they inherit it loaded
    for grid in dict.fromkeys(grid for _, grid in jobs):
        _make_ctx(grid)
    reports: list = [None] * len(jobs)
    workers = {}  # pid -> (its share w, the read end of its pipe)
    try:
        for w in range(1, k):
            read, write = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _work(jobs[w::k], write)
            except BaseException:
                os.close(read)
                raise
            finally:
                os.close(write)
            workers[pid] = (w, open(read, "rb"))
        reports[::k] = [check_claim(cid, grid) for cid, grid in jobs[::k]]
        for pid, (w, pipe) in list(workers.items()):
            with pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del workers[pid]
            if code:
                raise RuntimeError(f"verify worker {pid} exited with status {code}")
            result = pickle.loads(data)
            if isinstance(result, BaseException):
                raise result
            reports[w::k] = result
    except BaseException:
        import signal

        for pid, (_, pipe) in workers.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    return reports


def _work(jobs: list[tuple[str, GridSpec]], write: int):
    """The body of a forked worker: check `jobs` and write the pickled list
    of reports, or the exception that stopped them, to the pipe end `write`.
    It never returns: `os._exit` ends the worker, so it neither unwinds into
    the caller's stack nor flushes buffers it shares with the parent."""
    code = 1
    try:
        import pickle  # the parent loaded it before the fork: a lookup, not an import

        try:
            result = [check_claim(cid, grid) for cid, grid in jobs]
        except BaseException as exc:
            result = exc
        with open(write, "wb") as pipe:
            pickle.dump(result, pipe)
        code = 0
    finally:
        os._exit(code)


def format_reports_text(suite: SuiteReport) -> str:
    lines = [f"note: {note}" for note in REPORT_NOTES]
    for r in suite.reports:
        status = r.verdict.upper()
        flag = ""
        if not r.as_expected:
            flag = " (UNEXPECTED)"
        elif r.expected == "fail":
            flag = " (expected failure)"
        lines.append(
            f"{status:<8}{r.claim_id} [{r.grid}] checked={r.instances_checked}"
            f" skipped={r.skipped_count}{flag}"
        )
        for ce in r.counterexamples:
            lines.append(f"         counterexample: {ce}")
    bad = suite.unexpected()
    lines.append(
        f"summary: {len(suite.reports)} reports, "
        f"{'all verdicts as expected' if not bad else str(len(bad)) + ' unexpected verdicts'}"
    )
    return "\n".join(lines) + "\n"


def format_reports_jsonl(suite: SuiteReport) -> str:
    import json  # only json-lines output needs it

    lines = [json.dumps({"notes": list(REPORT_NOTES)})]
    for r in suite.reports:
        lines.append(json.dumps(r.to_dict()))
    lines.append(
        json.dumps({"summary": {"reports": len(suite.reports), "all_expected": suite.all_expected}})
    )
    return "\n".join(lines) + "\n"
