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
expected verdict, rings, loop variables (see `_Var`) and row check.  Over Z
and Z/n a value depends on an ideal only through its canonical generator d,
an int.  One walker, `_walk`, runs every claim inside a loop over the
ideals: an outer loop binds each value of its domain and descends, and the
innermost calls the check once per prefix with all its values, a row, and
gets one result per value: True for a pass, False or (False, note) for a
counterexample, (None, note) for a skip.  Checks and relative domains read
their values off the grid's rows (see `_Rows`), such as the forms N in
R^M_a for one (M, d), computed once per run for every claim on the grid.
Only the kept samples format a label such as `M=Z/2, N=Z, a=(2)`.
Mirrored claims are one shape over a `_Side`, reduced or coreduced.  The
exactness claims decide a sequence once per cyclic summand of the stable
quotient they read it on (see `_exact_on`).

Every walk is deterministic, so identical inputs give byte-identical
reports.  Every value is read off invariant factors by `fgmod.cyclic`, and
every Smith form comes from `fgmod.elimination`, so a run loads neither
`linalg`, `modules` nor `dataclasses`; only json-lines output loads `json`.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache, partial
from itertools import repeat
from operator import eq
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
# bounds a grid's enumerated forms: gm-adjunction, the slowest claim, takes
# 23 s on 2 vCPUs on the 250 forms of Z up to order 71 and rank 1, 5 ideals
_MAX_GRID_FORMS = 256
# bounds the trial division listing a grid modulus's divisors (10**6 trials: 0.04 s on 2 vCPUs)
_MAX_GRID_TRIALS = 2**20


class GridSpec(_Record):
    """Enumeration bounds for one verification grid.  A whitelist, when
    given, replaces the bounds: the grid's modules are the forms it names.
    The constructor is the one judge of the fields, for grid files too; it
    takes the ideal generators and the whitelist as lists or tuples."""

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
        if not isinstance(ring, RingSpec):
            raise InvalidGrid(f"grid ring must be a RingSpec, got {ring!r}")
        if not (isinstance(ideal_generators, (list, tuple)) and all(type(g) is int for g in ideal_generators)):
            raise InvalidGrid("grid 'ideal_generators' must be a list of integers")
        wl = module_whitelist
        if wl is not None and not (isinstance(wl, (list, tuple)) and all(isinstance(e, str) for e in wl)):
            raise InvalidGrid("grid 'module_whitelist' must be a list of module expressions")
        if not isinstance(label, str):
            raise InvalidGrid("grid 'label' must be a string")
        bounds = {"max_torsion_order": max_torsion_order, "max_free_rank": max_free_rank}
        for key, bound in bounds.items():
            if type(bound) is not int:  # True is an int, but not a bound
                raise InvalidGrid(f"grid {key!r} must be an integer")
        for key, bound in bounds.items():
            if bound < 0:
                raise InvalidGrid(f"grid {key!r} must be nonnegative, got {bound}")
        if ring.modulus is not None and ring.modulus >= _MAX_GRID_MODULUS:
            raise InvalidGrid(
                f"grid ring modulus must be below 2**64 (it has {len(str(ring.modulus))} digits):"
                " the claims on von Neumann regular rings test it for square factors by trial division"
            )
        if not ideal_generators:
            raise InvalidGrid("a grid needs at least one ideal generator")
        if wl is not None and not wl:
            raise InvalidGrid("a grid's module whitelist needs at least one module")
        if max_free_rank and not ring.is_integers:
            raise InvalidGrid(f"a grid over {ring} needs max_free_rank 0: max_torsion_order bounds its free modules")
        self._fill(ring, max_torsion_order, max_free_rank, tuple(ideal_generators), wl if wl is None else tuple(wl), label)

    def name(self, forms: tuple[CanonicalForm, ...] = ()) -> str:
        """The label, or the ring and the bounds, or for a whitelist the ring
        and its forms (`forms`, where the caller has them), so that spellings
        of the same forms share a name."""
        if self.label:
            return self.label
        if self.module_whitelist is None:
            return f"{self.ring}(o<={self.max_torsion_order},r<={self.max_free_rank})"
        return f"{self.ring}[{'; '.join(map(format_canonical, forms or enumerate_forms(self)))}]"


def _divisors(n: int, budget: int) -> list[int]:
    """The divisors d >= 2 of n with d <= budget, ascending.  Trial division
    up to min(budget, sqrt(n)) finds the small ones and their cofactors the
    rest; past `_MAX_GRID_TRIALS` trials it raises instead."""
    root = math.isqrt(n)
    if min(budget, root) > _MAX_GRID_TRIALS:
        raise InvalidGrid(f"grid bounds take more than {_MAX_GRID_TRIALS} trial divisions: lower max_torsion_order")
    small = [e for e in range(1, min(budget, root) + 1) if n % e == 0]
    return small[1:] + [n // e for e in reversed(small) if root < n // e <= budget]


def _divisor_chains(budget: int, modulus: int | None, cap: int) -> list[tuple[int, ...]]:
    """All chains d1 | d2 | ... of di >= 2 dividing the modulus (so at most
    it) with product <= budget; past `cap` of them the walk stops and raises.
    Over Z, where every d divides, the chains () and (d) alone pass the cap
    once budget > cap, so no d above cap + 1 is tried."""
    divisors = range(2, min(budget, cap + 1) + 1) if modulus is None else _divisors(modulus, budget)
    out = []
    stack = [((), 1)]
    while len(out) + len(stack) <= cap and stack:
        chain, size = stack.pop()
        out.append(chain)
        step = chain[-1] if chain else 1
        for d in itertools.takewhile((budget // size).__ge__, divisors):
            if d % step == 0:
                stack.append((chain + (d,), size * d))
                if len(out) + len(stack) > cap:
                    break
    if stack:
        raise InvalidGrid(f"grid bounds give more than {_MAX_GRID_FORMS} modules: lower max_torsion_order or max_free_rank")
    return sorted(out, key=lambda c: (math.prod(c), len(c), c))


def enumerate_forms(grid: GridSpec) -> tuple[CanonicalForm, ...]:
    """Canonical forms of every isomorphism class within the grid bounds."""
    ring = grid.ring
    if grid.module_whitelist is not None:
        # dict keys keep the first of equal forms, in order
        return tuple(dict.fromkeys(parse_module_expr(ring, e) for e in grid.module_whitelist))
    chains = _divisor_chains(grid.max_torsion_order, ring.modulus, _MAX_GRID_FORMS // (grid.max_free_rank + 1))
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
    malformed field.  A null whitelist or label is absent."""
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
    label = data.get("label")
    return GridSpec(
        ring,
        data.get("max_torsion_order", 16),
        data.get("max_free_rank", 1 if ring.is_integers else 0),
        data["ideal_generators"],
        data.get("module_whitelist"),
        "" if label is None else label,
    )


# ---------------------------------------------------------------------------
# values on canonical forms, read off invariant factors by fgmod.cyclic


def _reflexive(c: CanonicalForm) -> bool:
    # asked only over Z/n, where every form is finite and so has a dual
    return cyclic.dual(cyclic.dual(c)) == c


@lru_cache(maxsize=cyclic._MEMO)
def _collapsed(s: _Side, m: CanonicalForm, n: CanonicalForm, d: int) -> tuple[CanonicalForm, ...] | None:
    """The harness's local (co)homology: `cyclic`'s local cohomology
    (homology) in every degree of `_degrees`, read at M/aM on the class of N
    relative to M and at M elsewhere, None where a^kM never stabilizes.
    M/aM is its own torsion and completion along a, so its value is the
    collapse formula Ext^i(M/aM, N) (Tor_i), defined at every d."""
    at = cyclic.quotient(m, d) if s.in_class(m, n, d) else m
    try:
        return tuple(map(s.public, _degrees(m.ring), repeat(at), repeat(n), repeat(d)))
    except NonStabilizing:
        return None


def _sum(x: CanonicalForm, y: CanonicalForm) -> CanonicalForm:
    return cyclic.direct_sum([x, y])


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


def _classical(s: _Side, n: CanonicalForm, d: int) -> tuple[CanonicalForm, ...] | None:
    """The classical value H(R, N), the harness's value at R itself."""
    return _collapsed(s, cyclic._form(n.ring, [n.ring.modulus or 0]), n, d)


# ---------------------------------------------------------------------------
# submodules and short exact sequences of finite modules


class _Seq(NamedTuple):
    """0 -> X -> Y -> Z -> 0 for a submodule X of Y and Z = Y/X: the forms,
    and the inclusion and the projection as integer matrices on cyclic
    summands, one row per target summand (see `cyclic.hom_postcompose`); the
    inclusion's columns generate X.  Every field hashes in C."""

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
    elements, computed once for all ideals and claims.  A closure search over
    Y's elements finds the subgroups, which are the submodules; each is first
    reached from a smaller one and an element that, with its generators,
    generates it."""
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
    name: str  # the grid's name in reports
    vnr: bool  # whether the grid's ring is von Neumann regular
    rows: _Rows


def _make_ctx(grid: GridSpec) -> _Ctx:
    """What every claim on the grid reads, built once per grid and run: its
    forms, ideals (one per ideal), name, ring regularity and rows."""
    forms = enumerate_forms(grid)
    ideals = tuple(dict.fromkeys(principal(grid.ring, g).canonical for g in grid.ideal_generators))
    finite = tuple(c for c in forms if c.free_rank == 0)
    torsion_order = {c: math.prod(c.torsion_factors) for c in forms}
    small = tuple(c for c in forms if torsion_order[c] <= 8 and (c.free_rank == 0 or torsion_order[c] <= 2))
    finite_small = tuple(c for c in finite if torsion_order[c] <= 8)
    tiny = tuple(c for c in forms if (c.free_rank == 0 and torsion_order[c] <= 4) or (c.free_rank == 1 and not c.torsion_factors))
    return _Ctx(grid, ideals, forms, finite, small, finite_small, tiny, grid.name(forms), _is_vnr(grid.ring), _Rows(forms))


class _Row(dict):
    """The row of `_Rows` under (f, i, *fixed), by f's i-th argument."""

    __slots__ = ("key",)

    def __missing__(self, x):
        f, i, *args = self.key
        args.insert(i, x)
        try:
            value = f(*args)
        except NonStabilizing:
            value = None
        self[x] = value
        return value


class _Rows(dict):
    """A grid's rows: `ctx.rows[f, i, *fixed][x]` is f's value with x as its
    i-th argument and the others fixed, None where f raises NonStabilizing;
    `ctx.rows[s.in_class, 1, m, d][n]` says whether N lies in R^M_a (C^M_a).
    A row is computed at every grid form when first asked for, and at another
    argument when first read; every claim on the grid shares it for the run."""

    __slots__ = ("forms",)

    def __init__(self, forms: tuple[CanonicalForm, ...]):
        self.forms = forms

    def __missing__(self, key: tuple) -> _Row:
        f, i, *fixed = key
        args = [repeat(a) for a in fixed]
        args.insert(i, self.forms)
        row = self[key] = _Row()
        row.key = key
        try:
            row.update(zip(self.forms, map(f, *args)))
        except NonStabilizing:  # None at the form that raised, then one at a time
            row[self.forms[len(row)]] = None
            for x in self.forms:
                row[x]
        return row


class _Var(NamedTuple):
    """One loop of a claim: a `_Ctx` field, or a function of the context,
    the values bound so far and d, or `within`, a function of the context,
    the first value and d, read once per (first value, d).  A function gives
    the values in order, or (None, note) to skip the values bound so far."""

    name: str
    domain: str | Callable = "forms"
    within: Callable | None = None


def _where(field: str, admits: Callable) -> Callable:
    """The values x of a `_Ctx` field with admits(x, d), in order."""
    return lambda ctx, d: [x for x in getattr(ctx, field) if admits(x, d)]


def _relative(field: str, admits: Callable) -> Callable:
    """The values x of a `_Ctx` field with admits(first, x, d), in order."""
    return lambda ctx, first, d: [x for x in getattr(ctx, field) if admits(first, x, d)]


def _classed(s: _Side, field: str = "forms", i: int = 1, *terms: str) -> Callable:
    """The relative domain of the x of a field in the class of `s`, as M
    (i = 0) or N (i = 1), with the first value, or each named term, as the other."""

    def within(ctx, first, d):
        xs = getattr(ctx, field)
        for y in map(getattr, repeat(first), terms) if terms else (first,):
            held = ctx.rows[s.in_class, i, y, d]
            xs = [x for x in xs if held[x]]
        return xs

    return within


def _each(check: Callable) -> Callable:
    """The row check of a check of one instance, check(*values, d)."""
    return lambda ctx, bound, xs, d: [check(*bound, x, d) for x in xs]


def _walk(loops: tuple[_Var, ...], check: Callable, ctx: _Ctx, tally: _Tally) -> None:
    """Check each instance, depth first in declaration order inside a loop
    over the ideals.  An outer depth binds each value of its domain and
    descends; the innermost calls check(ctx, bound, xs, d) once with all its
    values xs and gets a list of one result per value.  True is only counted;
    other results and domains' skips go to `tally.record` in walk order."""
    last = len(loops) - 1
    relative: dict = {}

    def descend(bound: tuple, d: int) -> None:
        depth = len(bound)
        var = loops[depth]
        if depth == 1:
            relative.clear()
        if var.within is None:
            dom = var.domain
            xs = getattr(ctx, dom) if isinstance(dom, str) else dom(ctx, *bound, d)
        elif (xs := relative.get(depth)) is None:
            xs = relative[depth] = var.within(ctx, bound[0], d)
        if xs and xs[0] is None:
            tally.record(bound + (d,), xs)
            return
        if depth == last:
            results = check(ctx, bound, xs, d)
            if (checked := results.count(True)) < len(results):
                checked = sum(result is True for result in results)  # `record` counts the rest, 1 included
                for x, result in zip(xs, results):
                    if result is not True:
                        tally.record(bound + (x, d), result)
            tally.checked += checked
            return
        for x in xs:
            descend(bound + (x,), d)

    for d in ctx.ideals:
        descend((), d)
    del descend  # the closure refers to itself; `cli.run` collects no cycles


def _label(loops: tuple[_Var, ...], values: tuple) -> str:
    """`q=1, M=..., N=..., a=(d), 0->X->Y->Z->0`: a degree first, then the
    modules by name, the ideal, and a short exact sequence.  `values` may
    stop short of the innermost loops."""
    *xs, d = values
    bound = list(zip(loops, xs))
    parts = [f"{v.name}={x}" for v, x in bound if isinstance(x, int)]
    parts += [
        f"{v.name}={format_canonical(x)}"
        for v, x in sorted(bound, key=lambda vx: vx[0].name)
        if isinstance(x, CanonicalForm)
    ]
    parts.append(f"a=({d})")
    parts += [f"0->{format_canonical(x.x)}->{format_canonical(x.y)}->{format_canonical(x.z)}->0"
              for x in xs if isinstance(x, _Seq)]
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
        """Count one result other than True, which `_walk` counts itself: False
        or (False, note), a counterexample, (None, note), a skip, and any other
        truthy one, checked."""
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
    Trial division divides out every p up to the cube root of n; what is left
    has at most two prime factors, so it is squarefree unless it is a square.
    Below `_MAX_GRID_MODULUS` that is at most about 2.6 million divisions."""
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
    expected_on: Callable[[_Ctx], str] | None = None

    def applies(self, ctx: _Ctx) -> bool:
        if self.rings == "all":
            return True
        if ctx.grid.ring.is_integers:
            return False
        return self.rings == "modular" or ctx.vnr

    def expected_for(self, ctx: _Ctx) -> str:
        """Expected verdict on the grid of `ctx`."""
        return self.expected if self.expected_on is None else self.expected_on(ctx)


# ---------------------------------------------------------------------------
# claim shapes: the loops and check of a claim, mirrored ones over a _Side


class _Side(NamedTuple):
    """One side of the paper's duality, as the operations a mirrored claim
    names: reduced (R^M_a, two-argument torsion, Hom, Ext, local cohomology)
    or coreduced (C^M_a, completion, tensor, Tor, local homology).  A side
    compares and hashes by identity: a memo table or row keyed on it hashes a pointer."""

    in_class: Callable  # (M, N, d): is N in R^M_a (C^M_a)
    adic: Callable  # (M, N, d): two-argument torsion (completion; raises NonStabilizing if no limit)
    adic_name: str
    absolute: Callable  # (N, d): is N itself reduced (coreduced)
    functor: Callable  # Hom (tensor)
    public: Callable  # (i, M, N, d): cyclic's local cohomology (homology)
    postcompose: Callable  # (M, A, B, F): the map F: A -> B induces on Hom(M, -) (M (x) -)
    end: str  # "injective" ("surjective"): what exactness asks of the first (second) map

    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__


def _equiv(s: _Side) -> dict:
    # the class, Hom (tensor) against M/aM and M/a^2M, the two-argument torsion
    # (completion) and its ideal multiples agree; free N may have no completion
    def agree(b1, b2, g, at_mq, d):
        if g is None:
            return (False, f"({b1},{b2})") if b1 != b2 else (None, "completion chain does not stabilize")
        b3 = g == at_mq
        b4 = cyclic.quotient(g, d) is g  # dG = 0
        b5 = s.absolute(g, d)
        return b1 == b2 == b3 == b4 == b5 or (False, f"({b1},{b2},{b3},{b4},{b5})")

    def check(ctx, bound, ns, d):
        (m,) = bound
        at_mq, at_mq2 = (ctx.rows[s.functor, 1, cyclic.quotient(m, c)] for c in (d, d * d))
        member, adic = ctx.rows[s.in_class, 1, m, d], ctx.rows[s.adic, 1, m, d]
        return [agree(member[n], at_mq[n] == at_mq2[n], adic[n], at_mq[n], d) for n in ns]

    return dict(loops=(_M, _N), check=check)


def _gamma_compose(ctx: _Ctx, bound: tuple, ns, d: int) -> list:
    # two-argument torsion per its limit definition vs torsion of the hom module
    (m,) = bound
    mk = ctx.rows[cyclic.completion, 0, d][m]
    if mk is None:
        return [(None, "ideal-multiple chain of M does not stabilize")] * len(ns)
    hom, gamma = ctx.rows[cyclic.hom, 1, mk[0]], ctx.rows[cyclic.torsion_wrt, 1, m, d]
    return [hom[n] == gamma[n] for n in ns]


def _in_class_of(s: _Side, i: int) -> Callable:
    """The row check of: x, as N (i = 1) or M (i = 0), and the last value
    bound, as the other, lie in the class of `s`."""
    return lambda ctx, bound, xs, d: list(map(ctx.rows[s.in_class, i, bound[-1], d].__getitem__, xs))


def _lands(s: _Side, f: Callable) -> Callable:
    """The row check of: f(X, Y) lies in the class of `s` relative to M."""

    def check(ctx, bound, ys, d):
        m, x = bound
        return list(map(ctx.rows[s.in_class, 1, m, d].__getitem__, map(ctx.rows[f, 1, x].__getitem__, ys)))

    return check


def _functor_stays(s: _Side) -> dict:
    # Hom lands in the reduced class, tensor stays in the coreduced class
    loops = (_Var("M", "small"), _Var("X", within=_classed(_COR, "small")), _Var("Y", "small"))
    return dict(loops=loops, check=_lands(s, s.functor))


def _closure_sums(s: _Side) -> dict:
    # finite products and finite sums are both direct sums
    loops = (_Var("M", "small"), _Var("N1", within=_classed(s, "small")), _Var("N2", within=_classed(s, "small")))
    return dict(loops=loops, check=_lands(s, _sum))


def _quotients(ctx: _Ctx, n: CanonicalForm, d: int):
    # finite modules by submodules, modules with free part by scalars
    return tuple(cyclic.quotient(n, c) for c in (2, 3, 4)) if n.free_rank else tuple(s.z for s in _sequences_in(n))


def _sequences(ctx: _Ctx, d: int):
    return [s for y in ctx.finite_small for s in _sequences_in(y)]


def _extension_closure(s: _Side) -> dict:
    def check(ctx, bound, ms, d):
        held = ctx.rows[s.in_class, 0, bound[0].y, d]
        return [held[m] or (False, "middle term leaves the class") for m in ms]

    return dict(
        loops=(_Var("S", _sequences), _Var("M", within=_classed(s, "tiny", 0, "x", "z"))),
        check=check,
        expected="fail",
        # over a von Neumann regular ring both classes are all modules
        expected_on=lambda ctx: "pass" if ctx.vnr else "fail",
    )


def _on_dual(check: Callable) -> Callable:
    # the row check of check(M, X, d); the dual of a free part is not finitely generated
    undefined = (None, "dual undefined on free part")
    return lambda ctx, bound, xs, d: [undefined if x.free_rank else check(bound[0], x, d) for x in xs]


def _dual(value: Callable, dual: Callable, s: _Side) -> dict:
    # the dual of one value(side, M, N, d) against the other side's value of
    # the dual; N is finite, so it and its dual lie in both classes, both
    # values exist, and local (co)homology takes the collapse formula
    other = _COR if s is _RED else _RED

    def check(ctx, bound, ns, d):
        m = bound[0]
        return [dual(value(s, m, n, d)) == value(other, m, cyclic.dual(n), d) for n in ns]

    return dict(loops=(_M, _Var("N", within=_classed(s, "finite"))), check=check)


def _gm_adjunction(ctx: _Ctx, bound: tuple, ps, d: int) -> list:
    # Hom(Λ(M, P), N) against Hom(P, Γ(M, N)), read off the rows of Hom into
    # N and into Γ(M, N); P is coreduced relative to M, so Λ(M, P) exists
    m, n = bound
    lam, into_n = ctx.rows[cyclic.completion_wrt, 1, m, d], ctx.rows[cyclic.hom, 0, n]
    into_gamma = ctx.rows[cyclic.hom, 0, ctx.rows[cyclic.torsion_wrt, 1, m, d][n]]
    return list(map(eq, map(into_n.__getitem__, map(lam.__getitem__, ps)), map(into_gamma.__getitem__, ps)))


def _exactness(s: _Side) -> dict:
    loops = (_Var("S", _sequences), _Var("M", within=_classed(s, "tiny", 0, "x", "y", "z")))

    def check(ctx, bound, ms, d):
        (seq,) = bound
        quotients = ctx.rows[cyclic.quotient, 0, math.lcm(*seq.y.torsion_factors)]
        completed = ctx.rows[cyclic.completion, 0, d]
        return [_exact_on(s, seq, completed[quotients[m]][0]) for m in ms]

    return dict(loops=loops, check=check)


@lru_cache(maxsize=2048)  # the default suite asks 772
def _exact_on(s: _Side, seq: _Seq, q: CanonicalForm) -> bool | tuple[bool, str]:
    """Torsion left (completion right) exactness on the sequence, read on Q:
    E, Y's exponent, kills each term T, so Hom(M, T)[d^k] = Hom((M/EM)/d^k, T)
    and (M (x) T)/d^k = (M/EM)/d^k (x) T, and M/EM settles at Q along (d).
    Q is finite, and the induced pair, a complex, is block diagonal over its
    cyclic summands (see `cyclic._pair_map`): it is exact iff every block is."""
    answers = [_exact_on_summand(s, seq, o) for o in q.torsion_factors]
    at_end, exact_mid = all(a for a, _ in answers), all(b for _, b in answers)
    return at_end and exact_mid or (False, f"{s.end}={at_end}, exact={exact_mid}")


def _span_order(f: cyclic.SummandMap) -> int:
    """The order of the image of f in the sum of the Z/h, h its target
    orders: the index of the integer span of [F | diag(orders)] over that
    of diag(orders)."""
    source, target, matrix = f
    rows = tuple(
        row + (0,) * i + (h,) + (0,) * (len(target) - 1 - i) for i, (row, h) in enumerate(zip(matrix, target))
    )
    return math.prod(target) // math.prod(cokernel_orders(rows, len(source) + len(target))[0])


@lru_cache(maxsize=1024)  # the default suite asks 322
def _exact_on_summand(s: _Side, seq: _Seq, o: int) -> tuple[bool, bool]:
    """Whether the pair induced on Z/o is exact at the end `s.end` names, and
    in the middle.  Both maps act between sums of cyclic pair summands, and
    hp·hi = 0 (tp·ti = 0), so orders decide: a map is injective (onto) iff
    its image is as large as its source (target), and the pair is exact in
    the middle iff |middle| = |image of the first| · |image of the second|."""
    z = CanonicalForm(seq.y.ring, (o,), 0)
    first, second = s.postcompose(z, seq.x, seq.y, seq.incl), s.postcompose(z, seq.y, seq.z, seq.proj)
    image, onto = _span_order(first), _span_order(second)
    at_end = image == math.prod(first[0]) if s.end == "injective" else onto == math.prod(second[1])
    return at_end, math.prod(first[1]) == onto * image


def _both_classes(ctx: _Ctx, bound: tuple, ns, d: int) -> list:
    (m,) = bound
    red, cor = (ctx.rows[s.in_class, 1, m, d] for s in (_RED, _COR))
    tensors, homs = (ctx.rows[f, 1, cyclic.quotient(m, d)] for f in (cyclic.tensor, cyclic.hom))
    return [red[t] and cor[t] and red[h] and cor[h] for t, h in zip(map(tensors.__getitem__, ns), map(homs.__getitem__, ns))]


def _fastpath(s: _Side) -> dict:
    # the public value at M/aM, the collapse formula, against the one at M,
    # defined where M's completion is; degree 0 always agrees on the class
    def check(ctx, bound, ns, d):
        (m,) = bound
        if ctx.rows[cyclic.completion, 0, d][m] is None:
            return [(None, "stabilized path undefined")] * len(ns)
        at_m = zip(*(map(s.public, repeat(i), repeat(m), ns, repeat(d)) for i in _degrees(m.ring)))
        return list(map(eq, map(ctx.rows[_collapsed, 2, s, m, d].__getitem__, ns), at_m))

    return dict(loops=(_M, _Var("N", within=_classed(s))), check=check)


def _glc_fastpath_expected(ctx: _Ctx) -> str:
    # the collapse formula's known counterexamples: a free second argument
    # over Z, and non-semisimple Z/n, where a stabilized chain can reach a
    # free quotient while the collapsed quotient is not projective
    return "pass" if ctx.vnr or (ctx.grid.ring.is_integers and not ctx.grid.max_free_rank) else "fail"


def _glh_fastpath_expected(ctx: _Ctx) -> str:
    return "pass" if (ctx.grid.ring.is_integers or ctx.vnr) else "fail"


def _positive_degrees_vanish(s: _Side) -> dict:
    # N in the class selects the collapse formula, which is always defined
    projective_mq = _Var("M", _where("forms", lambda m, d: _cf_projective(cyclic.quotient(m, d))))
    check = _each(lambda m, n, d: all(v.is_trivial for v in _collapsed(s, m, n, d)[1:]))
    return dict(loops=(projective_mq, _Var("N", within=_classed(s))), check=check)


def _finiteness(m, n, d):
    defined = [h for h in (_collapsed(_RED, m, n, d), _collapsed(_COR, m, n, d)) if h is not None]
    if not defined:
        return None, "no stabilizing path"
    return all(v.free_rank == 0 for h in defined for v in h)


def _b_class_membership(ctx: _Ctx, bound: tuple, ns, d: int) -> list:
    # coreduced M makes both fast paths total
    red, cor = (ctx.rows[s.in_class, 1, bound[0], d] for s in (_RED, _COR))
    values = [ctx.rows[_collapsed, 2, s, bound[0], d] for s in (_RED, _COR)]
    return [all(red[v] and cor[v] for local in values for v in local[n]) for n in ns]


def _inherit(s: _Side) -> dict:
    # the classical value H(R, N), read off its row, gates M; where it is
    # undefined, M's domain skips (q, N)
    def gated(ctx: _Ctx, q, n, d):
        h = ctx.rows[_classical, 1, s, d][n]
        if h is None:
            return None, "classical value undefined (chain)"
        held = ctx.rows[s.in_class, 0, h[q], d]
        return [m for m in ctx.forms if held[m]]

    def check(ctx, bound, ms, d):
        q, n = bound
        return [(None, "no stabilizing path") if (h := _collapsed(s, m, n, d)) is None else s.in_class(m, h[q], d) for m in ms]

    return dict(loops=(_Var("q", lambda ctx, d: _degrees(ctx.grid.ring)), _N, _Var("M", gated)), check=check)


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

    return dict(loops=(_Var("M"), _Var("N")), check=_each(check), rings="vnr")


# ---------------------------------------------------------------------------
# the claim table, in report order


_RED = _Side(
    cyclic.is_reduced_wrt, cyclic.torsion_wrt, "torsion", cyclic.is_reduced, cyclic.hom,
    cyclic.local_cohomology, cyclic.hom_postcompose, "injective",
)
_COR = _Side(
    cyclic.is_coreduced_wrt, cyclic.completion_wrt, "completion", cyclic.is_coreduced, cyclic.tensor,
    cyclic.local_homology, cyclic.tensor_postcompose, "surjective",
)


def _mirrored(shape: Callable[[_Side], dict], *entries: tuple[_Side, str, str]) -> list[_Claim]:
    """One entry per (side, claim id, statement), all of one shape."""
    return [_Claim(cid, statement, **shape(side)) for side, cid, statement in entries]


_M, _N, _X = _Var("M"), _Var("N"), _Var("X")
_COREDUCED_M = _Var("M", _where("forms", cyclic.is_coreduced))

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
           (_N, _M), _each(lambda n, m, d: cyclic.torsion_wrt(m, n, d) == cyclic.hom(m, cyclic.torsion(n, d)[0]))),
    _Claim("gamma-reflect", "N is reduced relative to M iff the torsion of N is",
           (_N, _M),
           _each(lambda n, m, d: cyclic.is_reduced_wrt(m, n, d) == cyclic.is_reduced_wrt(m, cyclic.torsion(n, d)[0], d))),
    _Claim("reduced-implies-wrt", "a reduced module is reduced relative to every module",
           (_Var("N", _where("forms", cyclic.is_reduced)), _Var("K")),
           _in_class_of(_RED, 0)),
    _Claim("coreduced-M-absorbs", "a coreduced M makes every module reduced relative to M",
           (_COREDUCED_M, _N), _in_class_of(_RED, 1)),
    _Claim("tensor-coreduced", "a tensor product with a coreduced factor is coreduced",
           (_M, _Var("N", within=_relative(
               "forms", lambda m, n, d: cyclic.is_coreduced(m, d) or cyclic.is_coreduced(n, d)))),
           _in_class_of(_COR, 1)),  # M (x) N coreduced: N in the coreduced class relative to M
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
           (_Var("N", "finite_small"),
            _Var("M", within=_classed(_RED, "small", 0)),
            _Var("X", within=lambda ctx, n, d: [s.x for s in _sequences_in(n)])),
           _in_class_of(_RED, 1)),
    _Claim("closure-quot", "quotients stay coreduced relative to M",
           (_Var("N", lambda ctx, d: ctx.finite_small + tuple(n for n in ctx.forms if n.free_rank)),
            _Var("M", within=_classed(_COR, "small", 0)),
            _Var("Q", within=_quotients)),
           _in_class_of(_COR, 1)),
    *_mirrored(
        _extension_closure,
        (_RED, "extension-closure-R",
         "the reduced-relative-to-M class is closed under extensions (expected counterexample)"),
        (_COR, "extension-closure-C",
         "the coreduced-relative-to-M class is closed under extensions (expected counterexample)"),
    ),
    _Claim("dual-cor-iff-red", "X is coreduced relative to M iff its dual is reduced relative to M",
           (_M, _X),
           _on_dual(lambda m, x, d: cyclic.is_coreduced_wrt(m, x, d) == cyclic.is_reduced_wrt(m, cyclic.dual(x), d))),
    _Claim("dual-red-then-cor", "the dual of a module reduced relative to M is coreduced relative to M",
           (_M, _Var("X", within=_classed(_RED))),
           _on_dual(lambda m, x, d: cyclic.is_coreduced_wrt(m, cyclic.dual(x), d))),
    *_mirrored(
        partial(_dual, lambda s, m, n, d: s.adic(m, n, d), cyclic.dual),
        (_RED, "gamma-dual", "dual of two-argument torsion equals two-argument completion of the dual"),
        (_COR, "lambda-dual", "dual of two-argument completion equals two-argument torsion of the dual"),
    ),
    _Claim("reflexive", "torsion and completion of a reflexive module in both classes are reflexive",
           (_M, _Var("N", within=_relative("forms", lambda m, n, d: cyclic.is_reduced_wrt(m, n, d)
                                            and cyclic.is_coreduced_wrt(m, n, d) and _reflexive(n)))),
           _each(lambda m, n, d: _reflexive(cyclic.torsion_wrt(m, n, d)) and _reflexive(cyclic.completion_wrt(m, n, d))),
           rings="modular"),
    _Claim("gm-adjunction", "Hom(completion(M,P), N) matches Hom(P, torsion(M,N)) on the two classes",
           (_M, _Var("N", within=_classed(_RED)), _Var("P", within=_classed(_COR))), _gm_adjunction),
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
           (_COREDUCED_M,
            _Var("N", within=_relative("forms", lambda m, n, d: cyclic.is_coreduced(n, d)))),
           _each(lambda m, n, d: _collapsed(_COR, m, n, d) == _collapsed(_COR, n, m, d)),
           rings="modular"),
    _Claim("finiteness", "local (co)homology of finite inputs is finite",
           (_M, _Var("N", "finite")), _each(_finiteness)),
    *_mirrored(
        partial(_dual, _collapsed, lambda h: tuple(map(cyclic.dual, h))),
        (_COR, "glh-glc-dual", "dual of local homology equals local cohomology of the dual"),
        (_RED, "glc-glh-dual", "local homology of the dual equals the dual of local cohomology"),
    ),
    _Claim("b-class-membership", "for coreduced M, local (co)homology values land in both classes",
           (_COREDUCED_M, _N), _b_class_membership),
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
    """The verdict a claim is expected to reach on `grid`, or without a grid
    its declared default, which `extension-closure-*` (von Neumann regular
    rings) and the fast-path claims (the ring and free rank) override."""
    if claim_id not in _BY_ID:
        raise UnknownClaim(claim_id)
    if grid is None:
        return _BY_ID[claim_id].expected
    return _BY_ID[claim_id].expected_for(_make_ctx(grid))


def check_claim(claim_id: str, grid: GridSpec, ctx: _Ctx | None = None) -> ClaimReport:
    """Evaluate one claim over one grid; raises InvalidGrid if the claim does
    not apply over the grid's ring.  `ctx`, the grid's context where a run
    has built it, saves building it again."""
    if claim_id not in _BY_ID:
        raise UnknownClaim(claim_id)
    cdef = _BY_ID[claim_id]
    ctx = _make_ctx(grid) if ctx is None else ctx
    if not cdef.applies(ctx):
        raise InvalidGrid(f"claim {claim_id!r} does not apply over {grid.ring} (grid {ctx.name!r})")
    tally = _Tally(cdef.loops)
    _walk(cdef.loops, cdef.check, ctx, tally)
    verdict = "fail" if tally.n_counter else "partial" if tally.n_skipped else "pass"
    return ClaimReport(
        cdef.claim_id, ctx.name, cdef.statement, verdict, cdef.expected_for(ctx), tally.checked,
        tuple(tally.counterexamples), tally.n_counter, tuple(tally.skipped), tally.n_skipped,
    )


def run_suite(grids: list[GridSpec] | None = None, claims: list[str] | None = None) -> SuiteReport:
    """Evaluate claims over grids; reports come back sorted and deterministic.
    Each claim is checked on the grids it applies to, through `check_claim`,
    with one context per grid.  A selection that leaves nothing to check
    raises InvalidGrid, and so do two grids of one name that differ in their
    forms, their ideals or an expected verdict."""
    # a grid given twice, in any spelling, is checked once, as a repeated id is
    by_name: dict[str, tuple] = {}
    for grid in default_grids() if grids is None else grids:
        ctx = _make_ctx(grid)
        key = (ctx.forms, ctx.ideals, tuple(c.expected_for(ctx) for c in _REGISTRY))
        if by_name.setdefault(ctx.name, (ctx, key))[1] != key:
            raise InvalidGrid(f"two different grids are named {ctx.name!r}: give them distinct labels")
    if not by_name:
        raise InvalidGrid("no grid to check the claims on")
    claim_ids = registered_claims() if claims is None else list(dict.fromkeys(claims))
    for cid in claim_ids:
        if cid not in _BY_ID:
            raise UnknownClaim(cid)
    jobs = [(cid, ctx) for cid in claim_ids for ctx, _ in by_name.values() if _BY_ID[cid].applies(ctx)]
    if not jobs:
        raise InvalidGrid("no selected claim applies over the grids' rings" if claim_ids else "no claim to check")
    reports = [check_claim(cid, ctx.grid, ctx) for cid, ctx in jobs]
    reports.sort(key=lambda r: (r.claim_id, r.grid))
    return SuiteReport(tuple(reports))


def format_reports_text(suite: SuiteReport) -> str:
    lines = [f"note: {note}" for note in REPORT_NOTES]
    for r in suite.reports:
        flag = ""
        if not r.as_expected:
            flag = " (UNEXPECTED)"
        elif r.expected == "fail":
            flag = " (expected failure)"
        lines.append(
            f"{r.verdict.upper():<8}{r.claim_id} [{r.grid}] checked={r.instances_checked}"
            f" skipped={r.skipped_count}{flag}"
        )
        lines += [f"         counterexample: {ce}" for ce in r.counterexamples]
    bad = suite.unexpected()
    lines.append(
        f"summary: {len(suite.reports)} reports, "
        f"{'all verdicts as expected' if not bad else str(len(bad)) + ' unexpected verdicts'}"
    )
    return "\n".join(lines) + "\n"


def format_reports_jsonl(suite: SuiteReport) -> str:
    import json  # only json-lines output needs it

    lines = [json.dumps({"notes": list(REPORT_NOTES)})]
    lines += [json.dumps(r.to_dict()) for r in suite.reports]
    lines.append(json.dumps({"summary": {"reports": len(suite.reports), "all_expected": suite.all_expected}}))
    return "\n".join(lines) + "\n"
