"""Exhaustive verification of the package's structural properties.

The harness enumerates module/ideal grids, evaluates one registered claim at
a time over every instance in scope, and reports a verdict per claim:

  pass     every instance checked out,
  fail     at least one counterexample (two claims are *expected* to fail:
           neither (co)reduced class is closed under extension),
  partial  no counterexample, but some instances were skipped because a
           completion chain provably never stabilizes (these always involve a
           free summand and a generator outside {0, +-1}).

All grid walks are deterministic, so identical inputs produce byte-identical
reports.  Modules are enumerated as canonical forms, and every value a claim
compares (Hom, tensor, Ext, Tor, torsion, completion, duals and the
(co)reduced predicates) is read off their invariant factors by
`fgmod.cyclic`, the same layer the library's value functions use.  The
characterizations that must not share that arithmetic (the ideal-multiple
route of the equivalence claims) and the exactness claims, which need
induced maps, run on presentations with `functors` and `modules`.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import lru_cache, partial

from . import cyclic
from .adic import DEFAULT_KMAX, completion_exponent, power_quotient, torsion_submodule
from .errors import FreePartNotSupported, InvalidGrid, NonStabilizing, UnknownClaim
from .functors import hom_postcompose, tensor_postcompose
from .grammar import format_canonical, parse_module_expr
from .linalg import MatrixR, from_columns
from .modules import (
    CanonicalForm,
    ModuleMap,
    Presentation,
    Submodule,
    _shared_form,
    canonical_form,
    canonical_presentation,
    ideal_multiple,
    kernel_of_map,
    quotient_by_submodule,
    restrict_map,
    submodule_equal,
)
from .rings import Ideal, RingSpec, ideal_power, principal

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


@dataclass(frozen=True)
class GridSpec:
    """Enumeration bounds for one verification grid."""

    ring: RingSpec
    max_torsion_order: int
    max_free_rank: int
    ideal_generators: tuple[int, ...]
    module_whitelist: tuple[str, ...] | None = None
    label: str = ""

    def name(self) -> str:
        return self.label or f"{self.ring}(o<={self.max_torsion_order},r<={self.max_free_rank})"


def _divisor_chains(budget: int, modulus: int | None) -> list[tuple[int, ...]]:
    """All chains d1 | d2 | ... with di >= 2 and product <= budget."""
    out = []

    def extend(chain: tuple[int, ...], prod: int):
        out.append(chain)
        start = chain[-1] if chain else 2
        d = start
        while prod * d <= budget:
            if d >= 2 and (chain == () or d % chain[-1] == 0):
                if modulus is None or modulus % d == 0:
                    extend(chain + (d,), prod * d)
            d += 1

    extend((), 1)
    return sorted(set(out), key=lambda c: (math.prod(c) if c else 1, len(c), c))


def enumerate_forms(grid: GridSpec) -> tuple[CanonicalForm, ...]:
    """Canonical forms of every isomorphism class within the grid bounds."""
    ring = grid.ring
    if grid.module_whitelist is not None:
        forms = tuple(
            canonical_form(parse_module_expr(ring, expr)) for expr in grid.module_whitelist
        )
        return forms
    chains = _divisor_chains(grid.max_torsion_order, ring.modulus)
    ranks = range(grid.max_free_rank + 1) if ring.is_integers else (0,)
    return tuple(_shared_form(CanonicalForm(ring, chain, r)) for r in ranks for chain in chains)


def enumerate_modules(grid: GridSpec) -> list[Presentation]:
    """One canonical presentation per isomorphism class, deterministic order."""
    return [canonical_presentation(c) for c in enumerate_forms(grid)]


def default_grids() -> list[GridSpec]:
    """The grids every claim is expected to hold on (or fail on, for the
    extension claims): Z with small torsion and rank one, plus Z/6 and Z/8
    with every principal ideal."""
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
    for key in ("ring", "ideal_generators"):
        if key not in data:
            raise InvalidGrid(f"grid has no {key!r}")
    if not isinstance(data["ring"], str):
        raise InvalidGrid("grid 'ring' must be a string such as \"Z/6\"")
    ring = parse_ring(data["ring"])

    def count(key: str, default: int) -> int:
        try:
            value = int(data.get(key, default))
        except (TypeError, ValueError):
            raise InvalidGrid(f"grid {key!r} must be an integer") from None
        if value < 0:
            raise InvalidGrid(f"grid {key!r} must be nonnegative, got {value}")
        return value

    try:
        if not isinstance(data["ideal_generators"], list):
            raise TypeError
        ideal_generators = tuple(int(d) for d in data["ideal_generators"])
    except (TypeError, ValueError):
        raise InvalidGrid("grid 'ideal_generators' must be a list of integers") from None
    wl = data.get("module_whitelist")
    if wl is not None and (not isinstance(wl, list) or not all(isinstance(e, str) for e in wl)):
        raise InvalidGrid("grid 'module_whitelist' must be a list of module expressions")
    return GridSpec(
        ring,
        count("max_torsion_order", 16),
        count("max_free_rank", 1 if ring.is_integers else 0),
        ideal_generators,
        tuple(wl) if wl is not None else None,
        str(data.get("label", "")),
    )


# ---------------------------------------------------------------------------
# values on canonical forms, read off invariant factors by fgmod.cyclic


def _P(c: CanonicalForm) -> Presentation:
    return canonical_presentation(c)


def _torsion(c: CanonicalForm, ideal: Ideal) -> CanonicalForm:
    return cyclic.torsion(c, ideal.canonical, DEFAULT_KMAX)[0]


def _completion(c: CanonicalForm, ideal: Ideal) -> CanonicalForm | None:
    """The completion, or None where the chain of ideal multiples never
    stabilizes (a free Z-summand and a generator outside {0, +-1})."""
    try:
        return cyclic.completion(c, ideal.canonical, DEFAULT_KMAX)[0]
    except NonStabilizing:
        return None


def _ctorsion_wrt(m: CanonicalForm, n: CanonicalForm, ideal: Ideal) -> CanonicalForm:
    return _torsion(cyclic.hom(m, n), ideal)


def _ccompletion_wrt(m: CanonicalForm, n: CanonicalForm, ideal: Ideal) -> CanonicalForm | None:
    return _completion(cyclic.tensor(m, n), ideal)


def _cred_wrt(m: CanonicalForm, n: CanonicalForm, ideal: Ideal) -> bool:
    return cyclic.is_reduced(cyclic.hom(m, n), ideal.canonical)


def _ccored_wrt(m: CanonicalForm, n: CanonicalForm, ideal: Ideal) -> bool:
    return cyclic.is_coreduced(cyclic.tensor(m, n), ideal.canonical)


def _cboth(m: CanonicalForm, n: CanonicalForm, ideal: Ideal) -> bool:
    return _cred_wrt(m, n, ideal) and _ccored_wrt(m, n, ideal)


def _dual(c: CanonicalForm) -> CanonicalForm | None:
    """The dual, or None where a free part leaves it undefined."""
    try:
        return cyclic.dual(c)
    except FreePartNotSupported:
        return None


# _cglc and _cglh still take the collapsed branch in every degree, where the
# public local_cohomology and local_homology take it only in degree 0.  On the
# collapse formula's counterexample family (see the glc-fastpath and
# glh-fastpath claims) their positive-degree values therefore differ from the
# public functions.  The claims built on them, and so the verify report, are
# pinned to these values; merging the two implementations is a separate change.
@lru_cache(maxsize=None)
def _cglc(i: int, m: CanonicalForm, n: CanonicalForm, ideal: Ideal) -> CanonicalForm | None:
    if _cred_wrt(m, n, ideal):
        return cyclic.ext(i, cyclic.quotient(m, ideal.canonical), n)
    mk = _completion(m, ideal)
    if mk is None:
        return None
    return cyclic.ext(i, mk, n)


# collapsed in every degree, unlike local_homology: see the note on _cglc
@lru_cache(maxsize=None)
def _cglh(i: int, m: CanonicalForm, n: CanonicalForm, ideal: Ideal) -> CanonicalForm | None:
    if _ccored_wrt(m, n, ideal):
        return cyclic.tor(i, cyclic.quotient(m, ideal.canonical), n)
    mk = _completion(m, ideal)
    if mk is None:
        return None
    return cyclic.tor(i, mk, n)


def _cf_projective(c: CanonicalForm) -> bool:
    """Projectivity over the base ring: free over Z; over Z/n each factor d
    must split off, i.e. gcd(d, n/d) = 1."""
    if c.ring.is_integers:
        return not c.torsion_factors
    n = c.ring.modulus
    return all(math.gcd(d, n // d) == 1 for d in c.torsion_factors)


# ---------------------------------------------------------------------------
# submodule enumeration for finite modules


@lru_cache(maxsize=None)
def _submodule_generator_sets(c: CanonicalForm) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Generating tuples for every submodule of a finite module.

    Subgroup closure search over the element set; subgroups of a Z or Z/n
    module coincide with its submodules since the scalar action is repeated
    addition.  Each subgroup is returned as a short greedy generating set.
    """
    factors = c.torsion_factors
    k = len(factors)
    zero = (0,) * k
    elements = [tuple(t) for t in itertools.product(*(range(d) for d in factors))]

    def add(x, y):
        return tuple((a + b) % d for a, b, d in zip(x, y, factors))

    def closure(group: frozenset, x) -> frozenset:
        multiples = [zero]
        y = x
        while y != zero:
            multiples.append(y)
            y = add(y, x)
        return frozenset(add(s, m) for s in group for m in multiples)

    base = frozenset({zero})
    seen = {base}
    frontier = [base]
    while frontier:
        group = frontier.pop()
        for x in elements:
            if x not in group:
                bigger = closure(group, x)
                if bigger not in seen:
                    seen.add(bigger)
                    frontier.append(bigger)

    result = []
    for group in sorted(seen, key=lambda s: (len(s), sorted(s))):
        gens: list[tuple[int, ...]] = []
        span = frozenset({zero})
        for x in sorted(group):
            if x not in span:
                gens.append(x)
                span = closure(span, x)
        result.append(tuple(gens))
    return tuple(result)


@lru_cache(maxsize=256)
def _submodules_of(c: CanonicalForm) -> tuple[Submodule, ...]:
    """Every submodule of a finite module, as shared objects: each one's
    presentation is computed once for all ideals and claims."""
    ambient = _P(c)
    return tuple(
        Submodule(ambient, from_columns(ambient.ring, [tuple(g) for g in gens], ambient.gens))
        for gens in _submodule_generator_sets(c)
    )


# ---------------------------------------------------------------------------
# claim machinery


@dataclass(frozen=True)
class ClaimReport:
    claim_id: str
    grid: str
    statement: str
    verdict: str
    expected: str
    instances_checked: int
    counterexamples: tuple[str, ...]
    counterexample_count: int
    skipped: tuple[str, ...]
    skipped_count: int

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


@dataclass(frozen=True)
class SuiteReport:
    reports: tuple[ClaimReport, ...]

    def unexpected(self) -> list[ClaimReport]:
        return [r for r in self.reports if not r.as_expected]

    @property
    def all_expected(self) -> bool:
        return not self.unexpected()


_SAMPLE_CAP = 8


@dataclass
class _Tally:
    checked: int = 0
    counterexamples: list[str] = field(default_factory=list)
    n_counter: int = 0
    skipped: list[str] = field(default_factory=list)
    n_skipped: int = 0

    def record(self, label: str, outcome: bool | None, note: str = ""):
        if outcome is None:
            self.n_skipped += 1
            if len(self.skipped) < _SAMPLE_CAP:
                self.skipped.append(f"{label}{(' : ' + note) if note else ''}")
            return
        self.checked += 1
        if not outcome:
            self.n_counter += 1
            if len(self.counterexamples) < _SAMPLE_CAP:
                self.counterexamples.append(f"{label}{(' : ' + note) if note else ''}")


@dataclass(frozen=True)
class _Ctx:
    grid: GridSpec
    ideals: tuple[Ideal, ...]
    forms: tuple[CanonicalForm, ...]
    finite: tuple[CanonicalForm, ...]
    small: tuple[CanonicalForm, ...]
    finite_small: tuple[CanonicalForm, ...]
    tiny: tuple[CanonicalForm, ...]
    deg: int


@lru_cache(maxsize=16)
def _make_ctx(grid: GridSpec) -> _Ctx:
    """The grid's forms and ideals, built once per grid so that every claim
    keys the memo tables on the same objects."""
    forms = enumerate_forms(grid)
    ideals = tuple(principal(grid.ring, d) for d in grid.ideal_generators)
    finite = tuple(c for c in forms if c.free_rank == 0)

    def torsion_order(c):
        return math.prod(c.torsion_factors) if c.torsion_factors else 1

    small = tuple(c for c in forms if torsion_order(c) <= 8 and (c.free_rank == 0 or torsion_order(c) <= 2))
    finite_small = tuple(c for c in finite if torsion_order(c) <= 8)
    tiny = tuple(c for c in forms if (c.free_rank == 0 and torsion_order(c) <= 4) or (c.free_rank == 1 and not c.torsion_factors))
    deg = 1 if grid.ring.is_integers else 3
    return _Ctx(grid, ideals, forms, finite, small, finite_small, tiny, deg)


@lru_cache(maxsize=1024)
def _fmt(c: CanonicalForm) -> str:
    return format_canonical(c)


def _lbl(ideal: Ideal, **mods: CanonicalForm) -> str:
    parts = [f"{k}={_fmt(v)}" for k, v in mods.items()]
    parts.append(f"a=({ideal.canonical})")
    return ", ".join(parts)


# --- claim runners: each yields (label, outcome, note); outcome None = skip


def _run_equiv_reduced(ctx: _Ctx):
    for a in ctx.ideals:
        a2 = ideal_power(a, 2)
        for m in ctx.forms:
            mq, mq2 = cyclic.quotient(m, a.canonical), cyclic.quotient(m, a2.canonical)
            for n in ctx.forms:
                b1 = _cred_wrt(m, n, a)
                b2 = cyclic.hom(mq, n) == cyclic.hom(mq2, n)
                g = _ctorsion_wrt(m, n, a)
                b3 = g == cyclic.hom(mq, n)
                b4 = canonical_form(ideal_multiple(_P(g), a)[0]).is_trivial
                b5 = cyclic.is_reduced(g, a.canonical)
                ok = b1 == b2 == b3 == b4 == b5
                yield _lbl(a, M=m, N=n), ok, "" if ok else f"({b1},{b2},{b3},{b4},{b5})"


def _run_equiv_coreduced(ctx: _Ctx):
    for a in ctx.ideals:
        a2 = ideal_power(a, 2)
        for m in ctx.forms:
            mq, mq2 = cyclic.quotient(m, a.canonical), cyclic.quotient(m, a2.canonical)
            for n in ctx.forms:
                b1 = _ccored_wrt(m, n, a)
                b2 = cyclic.tensor(mq, n) == cyclic.tensor(mq2, n)
                if b1 != b2:
                    yield _lbl(a, M=m, N=n), False, f"({b1},{b2})"
                    continue
                lam = _ccompletion_wrt(m, n, a)
                if lam is None:
                    yield _lbl(a, M=m, N=n), None, "completion chain does not stabilize"
                    continue
                b3 = lam == cyclic.tensor(mq, n)
                b4 = canonical_form(ideal_multiple(_P(lam), a)[0]).is_trivial
                b5 = cyclic.is_coreduced(lam, a.canonical)
                ok = b1 == b2 == b3 == b4 == b5
                yield _lbl(a, M=m, N=n), ok, "" if ok else f"({b1},{b2},{b3},{b4},{b5})"


def _run_gamma_compose(ctx: _Ctx):
    # two-argument torsion per its limit definition vs torsion of the hom module
    for a in ctx.ideals:
        for m in ctx.forms:
            mk = _completion(m, a)
            for n in ctx.forms:
                if mk is None:
                    yield _lbl(a, M=m, N=n), None, "ideal-multiple chain of M does not stabilize"
                    continue
                lhs = cyclic.hom(mk, n)
                rhs = _ctorsion_wrt(m, n, a)
                yield _lbl(a, M=m, N=n), lhs == rhs, ""


def _run_gamma_hom_commute(ctx: _Ctx):
    for a in ctx.ideals:
        for n in ctx.forms:
            gn = _torsion(n, a)
            for m in ctx.forms:
                yield _lbl(a, M=m, N=n), _ctorsion_wrt(m, n, a) == cyclic.hom(m, gn), ""


def _run_gamma_reflect(ctx: _Ctx):
    for a in ctx.ideals:
        for n in ctx.forms:
            gn = _torsion(n, a)
            for m in ctx.forms:
                yield _lbl(a, M=m, N=n), _cred_wrt(m, n, a) == _cred_wrt(m, gn, a), ""


def _run_reduced_implies_wrt(ctx: _Ctx):
    for a in ctx.ideals:
        for n in ctx.forms:
            if not cyclic.is_reduced(n, a.canonical):
                continue
            for k in ctx.forms:
                yield _lbl(a, K=k, N=n), _cred_wrt(k, n, a), ""


def _run_coreduced_m_absorbs(ctx: _Ctx):
    for a in ctx.ideals:
        for m in ctx.forms:
            if not cyclic.is_coreduced(m, a.canonical):
                continue
            for n in ctx.forms:
                yield _lbl(a, M=m, N=n), _cred_wrt(m, n, a), ""


def _run_tensor_coreduced(ctx: _Ctx):
    for a in ctx.ideals:
        for m in ctx.forms:
            for n in ctx.forms:
                if cyclic.is_coreduced(m, a.canonical) or cyclic.is_coreduced(n, a.canonical):
                    yield _lbl(a, M=m, N=n), cyclic.is_coreduced(cyclic.tensor(m, n), a.canonical), ""


def _run_functor_stays(in_class, functor, ctx: _Ctx):
    # Hom lands in the reduced class, tensor stays in the coreduced class
    for a in ctx.ideals:
        for m in ctx.small:
            for x in ctx.small:
                if not _ccored_wrt(m, x, a):
                    continue
                for y in ctx.small:
                    yield _lbl(a, M=m, X=x, Y=y), in_class(m, functor(x, y), a), ""


def _run_closure_sums(in_class, ctx: _Ctx):
    # finite products and finite sums are both direct sums
    for a in ctx.ideals:
        for m in ctx.small:
            for n1 in ctx.small:
                if not in_class(m, n1, a):
                    continue
                for n2 in ctx.small:
                    if not in_class(m, n2, a):
                        continue
                    yield _lbl(a, M=m, N1=n1, N2=n2), in_class(m, cyclic.direct_sum([n1, n2]), a), ""


def _run_closure_sub(ctx: _Ctx):
    for a in ctx.ideals:
        for n in ctx.finite_small:
            subs = _submodules_of(n)
            for m in ctx.small:
                if not _cred_wrt(m, n, a):
                    continue
                for sub in subs:
                    x = canonical_form(sub.to_presentation())
                    yield (
                        _lbl(a, M=m, N=n) + f", X={_fmt(x)}",
                        _cred_wrt(m, x, a),
                        "",
                    )


def _run_closure_quot(ctx: _Ctx):
    for a in ctx.ideals:
        for n in ctx.finite_small:
            subs = _submodules_of(n)
            for m in ctx.small:
                if not _ccored_wrt(m, n, a):
                    continue
                for sub in subs:
                    q = canonical_form(quotient_by_submodule(_P(n), sub))
                    yield (
                        _lbl(a, M=m, N=n) + f", Q={_fmt(q)}",
                        _ccored_wrt(m, q, a),
                        "",
                    )
        # quotients of infinite modules by scalar multiples
        if ctx.grid.ring.is_integers:
            for n in ctx.forms:
                if n.free_rank == 0:
                    continue
                for m in ctx.small:
                    if not _ccored_wrt(m, n, a):
                        continue
                    for c in (2, 3, 4):
                        q = cyclic.quotient(n, c)
                        yield (
                            _lbl(a, M=m, N=n) + f", Q={_fmt(q)}",
                            _ccored_wrt(m, q, a),
                            "",
                        )


@lru_cache(maxsize=16)
def _ses_instances(ambients: tuple[CanonicalForm, ...]):
    """(ambient form, submodule, X form, quotient form) over the ambients."""
    return tuple(
        (yc, sub, canonical_form(sub.to_presentation()), canonical_form(quotient_by_submodule(_P(yc), sub)))
        for yc in ambients
        for sub in _submodules_of(yc)
    )


@lru_cache(maxsize=256)
def _ses_maps(sub: Submodule) -> tuple[ModuleMap, ModuleMap]:
    """The inclusion X -> Y and the projection Y -> Y/X of 0 -> X -> Y -> Y/X -> 0."""
    Y = sub.ambient
    proj = ModuleMap(Y, quotient_by_submodule(Y, sub), MatrixR.identity(Y.ring, Y.gens))
    return sub.inclusion_map(), proj


def _run_extension_closure(in_class, ctx: _Ctx):
    for a in ctx.ideals:
        for yc, sub, xc, zc in _ses_instances(ctx.finite_small):
            for m in ctx.tiny:
                if in_class(m, xc, a) and in_class(m, zc, a):
                    ok = in_class(m, yc, a)
                    yield (
                        _lbl(a, M=m) + f", 0->{_fmt(xc)}->{_fmt(yc)}->{_fmt(zc)}->0",
                        ok,
                        "" if ok else "middle term leaves the class",
                    )


def _run_dual_cor_iff_red(ctx: _Ctx):
    for a in ctx.ideals:
        for m in ctx.forms:
            for x in ctx.forms:
                dx = _dual(x)
                if dx is None:
                    yield _lbl(a, M=m, X=x), None, "dual undefined on free part"
                    continue
                yield _lbl(a, M=m, X=x), _ccored_wrt(m, x, a) == _cred_wrt(m, dx, a), ""


def _run_dual_red_then_cor(ctx: _Ctx):
    for a in ctx.ideals:
        for m in ctx.forms:
            for x in ctx.forms:
                if not _cred_wrt(m, x, a):
                    continue
                dx = _dual(x)
                if dx is None:
                    yield _lbl(a, M=m, X=x), None, "dual undefined on free part"
                    continue
                yield _lbl(a, M=m, X=x), _ccored_wrt(m, dx, a), ""


def _run_gamma_dual(ctx: _Ctx):
    for a in ctx.ideals:
        for m in ctx.forms:
            for n in ctx.finite:
                if not _cred_wrt(m, n, a):
                    continue
                lhs = _dual(_ctorsion_wrt(m, n, a))
                rhs = _ccompletion_wrt(m, _dual(n), a)
                if rhs is None:
                    yield _lbl(a, M=m, N=n), None, "completion chain does not stabilize"
                    continue
                yield _lbl(a, M=m, N=n), lhs == rhs, ""


def _run_lambda_dual(ctx: _Ctx):
    for a in ctx.ideals:
        for m in ctx.forms:
            for n in ctx.finite:
                if not _ccored_wrt(m, n, a):
                    continue
                lam = _ccompletion_wrt(m, n, a)
                if lam is None:
                    yield _lbl(a, M=m, N=n), None, "completion chain does not stabilize"
                    continue
                yield _lbl(a, M=m, N=n), _dual(lam) == _ctorsion_wrt(m, _dual(n), a), ""


def _run_reflexive(ctx: _Ctx):
    def reflexive(c: CanonicalForm) -> bool:
        d = _dual(c)
        return d is not None and _dual(d) == c

    for a in ctx.ideals:
        for m in ctx.forms:
            for n in ctx.forms:
                if not (_cboth(m, n, a) and reflexive(n)):
                    continue
                g = _ctorsion_wrt(m, n, a)
                lam = _ccompletion_wrt(m, n, a)
                if lam is None:
                    yield _lbl(a, M=m, N=n), None, "completion chain does not stabilize"
                    continue
                yield _lbl(a, M=m, N=n), reflexive(g) and reflexive(lam), ""


def _run_gm_adjunction(ctx: _Ctx):
    for a in ctx.ideals:
        for m in ctx.forms:
            for n in ctx.forms:
                if not _cred_wrt(m, n, a):
                    continue
                g = _ctorsion_wrt(m, n, a)
                for p in ctx.forms:
                    if not _ccored_wrt(m, p, a):
                        continue
                    lam = _ccompletion_wrt(m, p, a)
                    if lam is None:
                        yield _lbl(a, M=m, N=n, P=p), None, "completion chain does not stabilize"
                        continue
                    yield _lbl(a, M=m, N=n, P=p), cyclic.hom(lam, n) == cyclic.hom(p, g), ""


def _run_gamma_left_exact(ctx: _Ctx):
    # the induced maps on Hom do not depend on the ideal
    induced: dict[tuple[int, CanonicalForm], tuple[ModuleMap, ModuleMap]] = {}
    for a in ctx.ideals:
        for s, (yc, sub, xc, zc) in enumerate(_ses_instances(ctx.finite_small)):
            for mc in ctx.tiny:
                if not (_cred_wrt(mc, xc, a) and _cred_wrt(mc, yc, a) and _cred_wrt(mc, zc, a)):
                    continue
                if (s, mc) not in induced:
                    incl, proj = _ses_maps(sub)
                    M = _P(mc)
                    induced[s, mc] = hom_postcompose(M, incl), hom_postcompose(M, proj)
                hi, hp = induced[s, mc]
                sx, _ = torsion_submodule(hi.source, a)
                sy, _ = torsion_submodule(hi.target, a)
                sz, _ = torsion_submodule(hp.target, a)
                gi = restrict_map(hi, sx, sy)
                gp = restrict_map(hp, sy, sz)
                ker_i, _ = kernel_of_map(gi)
                injective = canonical_form(ker_i).is_trivial
                _, ker_incl = kernel_of_map(gp)
                exact_mid = submodule_equal(
                    Submodule(gp.source, ker_incl.matrix), Submodule(gp.source, gi.matrix)
                )
                ok = injective and exact_mid
                yield (
                    _lbl(a, M=mc) + f", 0->{_fmt(xc)}->{_fmt(yc)}->{_fmt(zc)}->0",
                    ok,
                    "" if ok else f"injective={injective}, exact={exact_mid}",
                )


def _run_lambda_right_exact(ctx: _Ctx):
    # the induced maps on tensors do not depend on the ideal
    induced: dict[tuple[int, CanonicalForm], tuple[ModuleMap, ModuleMap]] = {}
    for a in ctx.ideals:
        for s, (yc, sub, xc, zc) in enumerate(_ses_instances(ctx.finite_small)):
            for mc in ctx.tiny:
                if not (_ccored_wrt(mc, xc, a) and _ccored_wrt(mc, yc, a) and _ccored_wrt(mc, zc, a)):
                    continue
                if (s, mc) not in induced:
                    incl, proj = _ses_maps(sub)
                    M = _P(mc)
                    induced[s, mc] = tensor_postcompose(M, incl), tensor_postcompose(M, proj)
                ti, tp = induced[s, mc]
                try:
                    k = max(
                        completion_exponent(ti.source, a),
                        completion_exponent(ti.target, a),
                        completion_exponent(tp.target, a),
                    )
                except NonStabilizing:
                    yield _lbl(a, M=mc, Y=yc), None, "completion chain does not stabilize"
                    continue
                lx = power_quotient(ti.source, a, k)
                ly = power_quotient(ti.target, a, k)
                lz = power_quotient(tp.target, a, k)
                li = ModuleMap(lx, ly, ti.matrix)
                lp = ModuleMap(ly, lz, tp.matrix)
                surjective = Submodule(lz, lp.matrix).contains(
                    Submodule(lz, MatrixR.identity(lz.ring, lz.gens))
                )
                _, ker_incl = kernel_of_map(lp)
                exact_mid = submodule_equal(
                    Submodule(ly, ker_incl.matrix), Submodule(ly, li.matrix)
                )
                ok = surjective and exact_mid
                yield (
                    _lbl(a, M=mc) + f", 0->{_fmt(xc)}->{_fmt(yc)}->{_fmt(zc)}->0",
                    ok,
                    "" if ok else f"surjective={surjective}, exact={exact_mid}",
                )


def _run_both_classes(ctx: _Ctx):
    for a in ctx.ideals:
        for m in ctx.forms:
            mq = cyclic.quotient(m, a.canonical)
            for n in ctx.forms:
                ok = _cboth(m, cyclic.tensor(mq, n), a) and _cboth(m, cyclic.hom(mq, n), a)
                yield _lbl(a, M=m, N=n), ok, ""


def _run_fastpath(in_class, derived, ctx: _Ctx):
    # collapsed (M/aM) against stabilized-chain values of Ext or Tor
    for a in ctx.ideals:
        for m in ctx.forms:
            mk = _completion(m, a)
            for n in ctx.forms:
                if not in_class(m, n, a):
                    continue
                if mk is None:
                    yield _lbl(a, M=m, N=n), None, "stabilized path undefined"
                    continue
                mq = cyclic.quotient(m, a.canonical)
                ok = all(derived(i, mq, n) == derived(i, mk, n) for i in range(ctx.deg + 1))
                yield _lbl(a, M=m, N=n), ok, ""


def _run_positive_degrees_vanish(in_class, local, ctx: _Ctx):
    for a in ctx.ideals:
        for m in ctx.forms:
            mq = cyclic.quotient(m, a.canonical)
            if not _cf_projective(mq):
                continue
            for n in ctx.forms:
                if not in_class(m, n, a):
                    continue
                ok = all(
                    (v := local(i, m, n, a)) is not None and v.is_trivial
                    for i in range(1, ctx.deg + 1)
                )
                yield _lbl(a, M=m, N=n), ok, ""


def _run_glh_symmetry(ctx: _Ctx):
    for a in ctx.ideals:
        for m in ctx.forms:
            if not cyclic.is_coreduced(m, a.canonical):
                continue
            for n in ctx.forms:
                if not cyclic.is_coreduced(n, a.canonical):
                    continue
                ok = all(_cglh(i, m, n, a) == _cglh(i, n, m, a) for i in range(ctx.deg + 1))
                yield _lbl(a, M=m, N=n), ok, ""


def _run_finiteness(ctx: _Ctx):
    for a in ctx.ideals:
        for m in ctx.forms:
            for n in ctx.finite:
                finite = True
                any_defined = False
                for i in range(ctx.deg + 1):
                    for v in (_cglc(i, m, n, a), _cglh(i, m, n, a)):
                        if v is not None:
                            any_defined = True
                            finite = finite and v.free_rank == 0
                if not any_defined:
                    yield _lbl(a, M=m, N=n), None, "no stabilizing path"
                    continue
                yield _lbl(a, M=m, N=n), finite, ""


def _run_local_dual(in_class, local, dual_local, ctx: _Ctx):
    # the dual of one local (co)homology against the other one of the dual
    for a in ctx.ideals:
        for m in ctx.forms:
            for n in ctx.finite:
                if not in_class(m, n, a):
                    continue
                dn = _dual(n)
                ok = True
                skip = False
                for i in range(ctx.deg + 1):
                    v = local(i, m, n, a)
                    w = dual_local(i, m, dn, a)
                    if v is None or w is None:
                        skip = True
                        break
                    ok = ok and _dual(v) == w
                if skip:
                    yield _lbl(a, M=m, N=n), None, "no stabilizing path"
                else:
                    yield _lbl(a, M=m, N=n), ok, ""


def _run_b_class_membership(ctx: _Ctx):
    for a in ctx.ideals:
        for m in ctx.forms:
            if not cyclic.is_coreduced(m, a.canonical):
                continue
            for n in ctx.forms:
                ok = True
                for p in range(ctx.deg + 1):
                    hc = _cglc(p, m, n, a)
                    hh = _cglh(p, m, n, a)
                    # coreduced M makes both fast paths total
                    if hc is None or hh is None:
                        ok = False
                        break
                    if not (_cboth(m, hc, a) and _cboth(m, hh, a)):
                        ok = False
                        break
                yield _lbl(a, M=m, N=n), ok, ""


def _free_form(ring: RingSpec) -> CanonicalForm:
    if ring.is_integers:
        return _shared_form(CanonicalForm(ring, (), 1))
    return _shared_form(CanonicalForm(ring, (ring.modulus,), 0))


def _run_inherit(in_class, local, ctx: _Ctx):
    r1 = _free_form(ctx.grid.ring)
    for a in ctx.ideals:
        for q in range(ctx.deg + 1):
            for n in ctx.forms:
                hq = local(q, r1, n, a)
                if hq is None:
                    yield f"q={q}, " + _lbl(a, N=n), None, "classical value undefined (chain)"
                    continue
                for m in ctx.forms:
                    if not in_class(m, hq, a):
                        continue
                    hmn = local(q, m, n, a)
                    if hmn is None:
                        yield f"q={q}, " + _lbl(a, M=m, N=n), None, "no stabilizing path"
                        continue
                    yield f"q={q}, " + _lbl(a, M=m, N=n), in_class(m, hmn, a), ""


def _double_completion(m: CanonicalForm, n: CanonicalForm, ideal: Ideal) -> CanonicalForm | None:
    lam = _ccompletion_wrt(m, n, ideal)
    return None if lam is None else _ccompletion_wrt(m, lam, ideal)


def _double_torsion(m: CanonicalForm, n: CanonicalForm, ideal: Ideal) -> CanonicalForm:
    return _ctorsion_wrt(m, _ctorsion_wrt(m, n, ideal), ideal)


def _run_vnr_vanish(local, double, what: str, ctx: _Ctx):
    # iterated local (co)homology is the double completion (torsion) at (0,0)
    for a in ctx.ideals:
        for m in ctx.forms:
            for n in ctx.forms:
                ok = True
                note = ""
                for q in range(ctx.deg + 1):
                    inner = local(q, m, n, a)
                    if inner is None:
                        ok, note = False, f"inner value undefined at q={q}"
                        break
                    for p in range(ctx.deg + 1):
                        outer = local(p, m, inner, a)
                        if outer is None:
                            ok, note = False, f"outer value undefined at ({p},{q})"
                            break
                        if (p, q) == (0, 0):
                            expect = double(m, n, a)
                            if expect is None or outer != expect:
                                ok, note = False, f"double {what} mismatch at (0,0)"
                        elif not outer.is_trivial:
                            ok, note = False, f"nonzero at ({p},{q})"
                    if not ok:
                        break
                yield _lbl(a, M=m, N=n), ok, note


# ---------------------------------------------------------------------------
# registry


def _is_vnr(ring: RingSpec) -> bool:
    """Finite products of fields among the supported rings: Z/n, n squarefree."""
    if ring.is_integers:
        return False
    n = ring.modulus
    return all(n % (p * p) for p in range(2, n + 1) if n % p == 0)


@dataclass(frozen=True)
class _ClaimDef:
    claim_id: str
    statement: str
    expected: str  # "pass" or "fail" on grids where the claim has content
    rings: str  # "all", "modular", "vnr"
    runner: object

    def applies(self, grid: GridSpec) -> bool:
        if self.rings == "all":
            return True
        if grid.ring.is_integers:
            return False
        if self.rings == "modular":
            return True
        return _is_vnr(grid.ring)

    def expected_for(self, grid: GridSpec) -> str:
        """Expected verdict on this grid.

        Two claim families have grid-dependent expectations.  The extension
        claims fail by explicit counterexample except over a von Neumann
        regular ring, where both classes are all modules and closure is
        trivial.  The fast-path claims fail where the collapse formula's
        known counterexample family lives: free second arguments over Z, and
        non-semisimple Z/n (where a stabilized chain can reach a free
        quotient while the collapsed quotient is not projective).
        """
        if self.claim_id in ("extension-closure-R", "extension-closure-C"):
            return "pass" if _is_vnr(grid.ring) else "fail"
        if self.claim_id == "glc-fastpath":
            if _is_vnr(grid.ring):
                return "pass"
            if grid.ring.is_integers:
                return "fail" if grid.max_free_rank >= 1 else "pass"
            return "fail"
        if self.claim_id == "glh-fastpath":
            return "pass" if (grid.ring.is_integers or _is_vnr(grid.ring)) else "fail"
        return self.expected


_REGISTRY: list[_ClaimDef] = [
    _ClaimDef(
        "equiv-reduced-wrt",
        "the five characterizations of 'reduced relative to M' agree on every instance",
        "pass",
        "all",
        _run_equiv_reduced,
    ),
    _ClaimDef(
        "equiv-coreduced-wrt",
        "the five characterizations of 'coreduced relative to M' agree on every instance",
        "pass",
        "all",
        _run_equiv_coreduced,
    ),
    _ClaimDef(
        "gamma-compose",
        "two-argument torsion computed from its limit definition equals the torsion of the hom module",
        "pass",
        "all",
        _run_gamma_compose,
    ),
    _ClaimDef(
        "gamma-hom-commute",
        "two-argument torsion equals Hom(M, torsion of N)",
        "pass",
        "all",
        _run_gamma_hom_commute,
    ),
    _ClaimDef(
        "gamma-reflect",
        "N is reduced relative to M iff the torsion of N is",
        "pass",
        "all",
        _run_gamma_reflect,
    ),
    _ClaimDef(
        "reduced-implies-wrt",
        "a reduced module is reduced relative to every module",
        "pass",
        "all",
        _run_reduced_implies_wrt,
    ),
    _ClaimDef(
        "coreduced-M-absorbs",
        "a coreduced M makes every module reduced relative to M",
        "pass",
        "all",
        _run_coreduced_m_absorbs,
    ),
    _ClaimDef(
        "tensor-coreduced",
        "a tensor product with a coreduced factor is coreduced",
        "pass",
        "all",
        _run_tensor_coreduced,
    ),
    _ClaimDef(
        "hom-into-reduced",
        "Hom out of a module coreduced relative to M lands in the reduced class",
        "pass",
        "all",
        partial(_run_functor_stays, _cred_wrt, cyclic.hom),
    ),
    _ClaimDef(
        "tensor-stays",
        "tensoring a module coreduced relative to M stays in the coreduced class",
        "pass",
        "all",
        partial(_run_functor_stays, _ccored_wrt, cyclic.tensor),
    ),
    _ClaimDef(
        "closure-products",
        "finite products stay reduced relative to M",
        "pass",
        "all",
        partial(_run_closure_sums, _cred_wrt),
    ),
    _ClaimDef(
        "closure-sums",
        "finite sums stay coreduced relative to M",
        "pass",
        "all",
        partial(_run_closure_sums, _ccored_wrt),
    ),
    _ClaimDef(
        "closure-sub",
        "submodules stay reduced relative to M",
        "pass",
        "all",
        _run_closure_sub,
    ),
    _ClaimDef(
        "closure-quot",
        "quotients stay coreduced relative to M",
        "pass",
        "all",
        _run_closure_quot,
    ),
    _ClaimDef(
        "extension-closure-R",
        "the reduced-relative-to-M class is closed under extensions (expected counterexample)",
        "fail",
        "all",
        partial(_run_extension_closure, _cred_wrt),
    ),
    _ClaimDef(
        "extension-closure-C",
        "the coreduced-relative-to-M class is closed under extensions (expected counterexample)",
        "fail",
        "all",
        partial(_run_extension_closure, _ccored_wrt),
    ),
    _ClaimDef(
        "dual-cor-iff-red",
        "X is coreduced relative to M iff its dual is reduced relative to M",
        "pass",
        "all",
        _run_dual_cor_iff_red,
    ),
    _ClaimDef(
        "dual-red-then-cor",
        "the dual of a module reduced relative to M is coreduced relative to M",
        "pass",
        "all",
        _run_dual_red_then_cor,
    ),
    _ClaimDef(
        "gamma-dual",
        "dual of two-argument torsion equals two-argument completion of the dual",
        "pass",
        "all",
        _run_gamma_dual,
    ),
    _ClaimDef(
        "lambda-dual",
        "dual of two-argument completion equals two-argument torsion of the dual",
        "pass",
        "all",
        _run_lambda_dual,
    ),
    _ClaimDef(
        "reflexive",
        "torsion and completion of a reflexive module in both classes are reflexive",
        "pass",
        "modular",
        _run_reflexive,
    ),
    _ClaimDef(
        "gm-adjunction",
        "Hom(completion(M,P), N) matches Hom(P, torsion(M,N)) on the two classes",
        "pass",
        "all",
        _run_gm_adjunction,
    ),
    _ClaimDef(
        "gamma-left-exact",
        "two-argument torsion preserves kernels on in-class short exact sequences",
        "pass",
        "all",
        _run_gamma_left_exact,
    ),
    _ClaimDef(
        "lambda-right-exact",
        "two-argument completion preserves cokernels on in-class short exact sequences",
        "pass",
        "all",
        _run_lambda_right_exact,
    ),
    _ClaimDef(
        "both-classes",
        "tensor and Hom against M/aM land in both classes relative to M",
        "pass",
        "all",
        _run_both_classes,
    ),
    _ClaimDef(
        "glc-fastpath",
        "collapsed and stabilized-chain local cohomology agree where both are defined "
        "(known counterexamples: free second argument over Z, and non-semisimple Z/n)",
        "pass",
        "all",
        partial(_run_fastpath, _cred_wrt, cyclic.ext),
    ),
    _ClaimDef(
        "glc-proj-vanish",
        "local cohomology vanishes in positive degrees when M/aM is projective",
        "pass",
        "all",
        partial(_run_positive_degrees_vanish, _cred_wrt, _cglc),
    ),
    _ClaimDef(
        "glh-fastpath",
        "collapsed and stabilized-chain local homology agree where both are defined "
        "(known counterexamples over non-semisimple Z/n)",
        "pass",
        "all",
        partial(_run_fastpath, _ccored_wrt, cyclic.tor),
    ),
    _ClaimDef(
        "glh-flat-vanish",
        "local homology vanishes in positive degrees when M/aM is flat",
        "pass",
        "all",
        partial(_run_positive_degrees_vanish, _ccored_wrt, _cglh),
    ),
    _ClaimDef(
        "glh-symmetry",
        "local homology is symmetric in its two coreduced arguments",
        "pass",
        "modular",
        _run_glh_symmetry,
    ),
    _ClaimDef(
        "finiteness",
        "local (co)homology of finite inputs is finite",
        "pass",
        "all",
        _run_finiteness,
    ),
    _ClaimDef(
        "glh-glc-dual",
        "dual of local homology equals local cohomology of the dual",
        "pass",
        "all",
        partial(_run_local_dual, _ccored_wrt, _cglh, _cglc),
    ),
    _ClaimDef(
        "glc-glh-dual",
        "local homology of the dual equals the dual of local cohomology",
        "pass",
        "all",
        partial(_run_local_dual, _cred_wrt, _cglc, _cglh),
    ),
    _ClaimDef(
        "b-class-membership",
        "for coreduced M, local (co)homology values land in both classes",
        "pass",
        "all",
        _run_b_class_membership,
    ),
    _ClaimDef(
        "inherit-reduced",
        "if the classical value is reduced relative to M, so is the two-argument value",
        "pass",
        "all",
        partial(_run_inherit, _cred_wrt, _cglc),
    ),
    _ClaimDef(
        "inherit-coreduced",
        "if the classical value is coreduced relative to M, so is the two-argument value",
        "pass",
        "all",
        partial(_run_inherit, _ccored_wrt, _cglh),
    ),
    _ClaimDef(
        "vnr-homology-vanish",
        "over a von Neumann regular ring iterated local homology vanishes off (0,0)",
        "pass",
        "vnr",
        partial(_run_vnr_vanish, _cglh, _double_completion, "completion"),
    ),
    _ClaimDef(
        "vnr-cohomology-vanish",
        "over an Artinian von Neumann regular ring iterated local cohomology vanishes off (0,0)",
        "pass",
        "vnr",
        partial(_run_vnr_vanish, _cglc, _double_torsion, "torsion"),
    ),
]

_BY_ID = {c.claim_id: c for c in _REGISTRY}


def registered_claims() -> list[str]:
    return [c.claim_id for c in _REGISTRY]


def claim_expectation(claim_id: str, grid: GridSpec | None = None) -> str:
    if claim_id not in _BY_ID:
        raise UnknownClaim(claim_id)
    if grid is None:
        return _BY_ID[claim_id].expected
    return _BY_ID[claim_id].expected_for(grid)


def check_claim(claim_id: str, grid: GridSpec) -> ClaimReport:
    """Evaluate one claim over one grid."""
    if claim_id not in _BY_ID:
        raise UnknownClaim(claim_id)
    cdef = _BY_ID[claim_id]
    ctx = _make_ctx(grid)
    tally = _Tally()
    for label, outcome, note in cdef.runner(ctx):
        tally.record(label, outcome, note)
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


def run_suite(grids: list[GridSpec] | None = None, claims: list[str] | None = None) -> SuiteReport:
    """Evaluate claims over grids; reports come back sorted and deterministic."""
    grids = default_grids() if grids is None else grids
    claim_ids = registered_claims() if claims is None else claims
    for cid in claim_ids:
        if cid not in _BY_ID:
            raise UnknownClaim(cid)
    reports = []
    for cid in claim_ids:
        for grid in grids:
            if _BY_ID[cid].applies(grid):
                reports.append(check_claim(cid, grid))
    reports.sort(key=lambda r: (r.claim_id, r.grid))
    return SuiteReport(tuple(reports))


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
    lines = [json.dumps({"notes": list(REPORT_NOTES)})]
    for r in suite.reports:
        lines.append(json.dumps(r.to_dict()))
    lines.append(
        json.dumps({"summary": {"reports": len(suite.reports), "all_expected": suite.all_expected}})
    )
    return "\n".join(lines) + "\n"
