import collections
import importlib.util
import json
import math
import re
import time
from pathlib import Path

import pytest

import fgmod
from fgmod import cyclic, verify
from fgmod.errors import InvalidGrid, NonStabilizing, UnknownClaim
from fgmod.grammar import format_canonical
from fgmod.modules import canonical_form, canonical_presentation, scaled_submodule
from fgmod.rings import RingSpec
from fgmod.verify import (
    GridSpec,
    check_claim,
    claim_expectation,
    default_grids,
    enumerate_modules,
    format_reports_jsonl,
    format_reports_text,
    grid_from_dict,
    registered_claims,
    run_suite,
)

TINY_Z = GridSpec(RingSpec.integers(), 4, 1, (0, 2), label="tiny-z")
TINY_Z6 = GridSpec(RingSpec.mod(6), 8, 0, (0, 1, 2, 3), label="tiny-z6")


def test_enumerate_modules_examples():
    got = {
        format_canonical(canonical_form(p))
        for p in enumerate_modules(GridSpec(RingSpec.integers(), 4, 0, (2,)))
    }
    assert got == {"0", "Z/2", "Z/3", "Z/4", "Z/2 + Z/2"}

    got = {
        format_canonical(canonical_form(p))
        for p in enumerate_modules(GridSpec(RingSpec.integers(), 1, 1, (2,)))
    }
    assert got == {"0", "Z"}

    got = {
        format_canonical(canonical_form(p))
        for p in enumerate_modules(GridSpec(RingSpec.mod(4), 4, 0, (2,)))
    }
    assert got == {"0", "Z/2", "Z/4", "Z/2 + Z/2"}


def test_a_grid_over_z_mod_n_ranges_its_divisors_up_to_the_modulus():
    # every divisor divides 2, so an order bound of 10**12 gives the 40 forms
    # (Z/2)^k with 2^k <= 10**12, and the walk never counts towards 10**12
    grid = grid_from_dict({"ring": "Z/2", "max_torsion_order": 10**12, "ideal_generators": [0]})
    start = time.perf_counter()
    forms = verify.enumerate_forms(grid)
    assert time.perf_counter() - start < 1
    assert [c.torsion_factors for c in forms] == [(2,) * k for k in range(40)]


def test_grids_with_more_forms_than_the_cap_are_refused_before_any_claim_runs(monkeypatch):
    cap = verify._MAX_GRID_FORMS
    assert len(verify.enumerate_forms(GridSpec(RingSpec.integers(), 1, cap - 1, (2,)))) == cap
    monkeypatch.setattr(verify, "check_claim", lambda *args: pytest.fail("a claim ran"))
    for grid in (
        GridSpec(RingSpec.integers(), 1, cap, (2,)),
        GridSpec(RingSpec.integers(), 10**6, 1, (2,)),
        GridSpec(RingSpec.integers(), 10**12, 0, (2,)),
        GridSpec(RingSpec.integers(), 0, 10**12, (2,)),
        GridSpec(RingSpec.mod(2**12), 2**12, 0, (2,)),
    ):
        start = time.perf_counter()
        with pytest.raises(InvalidGrid, match=f"more than {cap} modules"):
            run_suite([grid])
        assert time.perf_counter() - start < 1, grid


def reference_chains(budget: int, modulus: int | None) -> list[tuple[int, ...]]:
    # every chain d1 | d2 | ... of di >= 2 dividing the modulus with product
    # <= budget, grown one integer at a time
    def grow(chain, size):
        yield chain
        step = chain[-1] if chain else 1
        for d in range(max(step, 2), budget // size + 1, step):
            if modulus is None or modulus % d == 0:
                yield from grow(chain + (d,), size * d)

    return sorted(grow((), 1), key=lambda c: (math.prod(c), len(c), c))


def reference_divisors(n: int) -> list[int]:
    # from the factorization, for the moduli the test below lists
    primes = [p for p in (2, 3, 97, 1000003, 1000033) if n % p == 0]
    divisors = {1}
    for p in primes:
        k = 0
        while n % p ** (k + 1) == 0:
            k += 1
        divisors = {d * p**i for d in divisors for i in range(k + 1)}
    return sorted(divisors - {1})


def test_divisor_chains_match_a_scan_of_every_integer():
    for modulus in (None, *range(2, 49)):
        for budget in range(0, 49):
            want = reference_chains(budget, modulus)
            for cap in (len(want), len(want) - 1):
                if cap < len(want):
                    with pytest.raises(InvalidGrid, match="more than 256 modules"):
                        verify._divisor_chains(budget, modulus, cap)
                else:
                    assert verify._divisor_chains(budget, modulus, cap) == want, (budget, modulus)
    # the divisors come in pairs (e, n / e) around the square root
    for n in (2, 4, 36, 97, 1000003 * 1000033, 2**40):
        for budget in (0, 1, 6, 10**3, 10**13):
            got = verify._divisors(n, budget)
            assert got == sorted(got) and all(n % d == 0 and 2 <= d <= budget for d in got)
            assert len(got) == len(set(got)) == sum(d <= budget for d in reference_divisors(n)), (n, budget)


def test_a_large_modulus_enumerates_or_is_refused_within_a_second():
    # the divisors of n up to the order bound come from trial division up to
    # the smaller of the bound and sqrt(n), which may take at most 2**20
    # trials: Z/(p q) at order 10**13 has six forms, while the square roots
    # of 2**62 and 2**41 pass 2**20 and so do their bounds
    p, q = 1000003, 1000033
    for grid, want in (
        (GridSpec(RingSpec.mod(p * q), 10**13, 0, (2,)), [(), (p,), (q,), (p, p), (p * q,), (q, q)]),
        (GridSpec(RingSpec.mod(p), 10**7, 0, (2,)), [(), (p,)]),
        (GridSpec(RingSpec.mod(2**62), 10**30, 0, (2,)), None),
        (GridSpec(RingSpec.mod(2**41), 2**20 + 1, 0, (2,)), None),
    ):
        start = time.perf_counter()
        if want is None:
            with pytest.raises(InvalidGrid, match="trial divisions"):
                verify.enumerate_forms(grid)
        else:
            assert [c.torsion_factors for c in verify.enumerate_forms(grid)] == want
        assert time.perf_counter() - start < 1, grid


def test_grid_spec_refuses_each_malformed_field():
    # the one judge of a grid: a library caller is refused for what a grid
    # file is, and never reaches enumeration with a bool, float or string
    ring = RingSpec.integers()
    for args, message in (
        (("Z/6", 6, 0, (2,)), "grid ring must be a RingSpec, got 'Z/6'"),
        ((None, 6, 0, (2,)), "grid ring must be a RingSpec, got None"),
        ((6, 6, 0, (2,)), "grid ring must be a RingSpec, got 6"),
        ((ring, 6, True, (2,)), "'max_free_rank' must be an integer"),
        ((ring, False, 0, (2,)), "'max_torsion_order' must be an integer"),
        ((ring, 6.0, 0, (2,)), "'max_torsion_order' must be an integer"),
        ((ring, "16", 0, (2,)), "'max_torsion_order' must be an integer"),
        ((ring, 6, 0, 2), "'ideal_generators' must be a list of integers"),
        ((ring, 6, 0, "2"), "'ideal_generators' must be a list of integers"),
        ((ring, 6, 0, {2}), "'ideal_generators' must be a list of integers"),
        ((ring, 6, 0, (2, 2.0)), "'ideal_generators' must be a list of integers"),
        ((ring, 6, 0, (2, True)), "'ideal_generators' must be a list of integers"),
        ((ring, 6, 0, ("2",)), "'ideal_generators' must be a list of integers"),
        ((ring, 6, 0, (2,), "Z/2"), "'module_whitelist' must be a list of module expressions"),
        ((ring, 6, 0, (2,), ("Z/2", 2)), "'module_whitelist' must be a list of module expressions"),
        ((ring, 6, 0, (2,), (None,)), "'module_whitelist' must be a list of module expressions"),
        ((ring, 6, 0, (2,), None, 6), "'label' must be a string"),
        ((ring, 6, 0, (2,), None, None), "'label' must be a string"),
        ((ring, 6, 0, (2,), None, ["x"]), "'label' must be a string"),
    ):
        with pytest.raises(InvalidGrid, match=re.escape(message)):
            GridSpec(*args)
    # lists are kept as tuples, so the grid equals the one built from tuples
    listed = GridSpec(ring, 6, 0, [0, 2], ["Z/2", "Z"])
    assert listed == GridSpec(ring, 6, 0, (0, 2), ("Z/2", "Z"))
    assert listed.ideal_generators == (0, 2) and listed.module_whitelist == ("Z/2", "Z")


@pytest.mark.parametrize("side", [verify._RED, verify._COR])
def test_vnr_vanish_names_the_last_failure_of_its_row(side, monkeypatch):
    # no grid fails the claim, so `_collapsed` is replaced by fixed graded
    # values: H(M, N) is Z/2 in degree 0, and H(M, Z/2) is `outer`
    ring = RingSpec.mod(6)
    zero, z2, z6 = (cyclic.CanonicalForm(ring, t, 0) for t in ((), (2,), (6,)))
    check = verify._vnr_vanish(side)["check"]
    assert side.adic(z2, side.adic(z2, z6, 2), 2) is z2
    for outer, result in (
        ((z2, zero), True),
        ((zero,), (False, f"double {side.adic_name} mismatch at (0,0)")),
        ((z2, z2), (False, "nonzero at (1,0)")),
        ((zero, z2), (False, "nonzero at (1,0)")),
    ):
        graded = {z6: (z2,), z2: outer}
        monkeypatch.setattr(verify, "_collapsed", lambda s, m, n, d: graded[n])
        assert check(None, (z2,), [z6], 2) == [result], outer


def test_module_whitelist():
    grid = GridSpec(
        RingSpec.integers(), 16, 1, (2,), module_whitelist=("Z/4", "Z/2 + Z/2"), label="wl"
    )
    got = [format_canonical(canonical_form(p)) for p in enumerate_modules(grid)]
    assert got == ["Z/4", "Z/2 + Z/2"]


def test_module_whitelist_keeps_one_form_per_isomorphism_class():
    grid = GridSpec(
        RingSpec.integers(), 16, 1, (2,), module_whitelist=("Z/2", "coker[[2]]", "Z/4", "Z/2"), label="wl"
    )
    got = [format_canonical(canonical_form(p)) for p in enumerate_modules(grid)]
    assert got == ["Z/2", "Z/4"]
    one = GridSpec(RingSpec.integers(), 16, 1, (2,), module_whitelist=("Z/2", "coker[[2]]"), label="one")
    assert check_claim("gamma-dual", one).instances_checked == 1


def test_registry_is_complete():
    ids = registered_claims()
    assert len(ids) == len(set(ids)) == 38
    for required in (
        "equiv-reduced-wrt",
        "equiv-coreduced-wrt",
        "gm-adjunction",
        "gamma-dual",
        "lambda-dual",
        "glh-glc-dual",
        "glc-glh-dual",
        "reflexive",
        "vnr-homology-vanish",
        "vnr-cohomology-vanish",
        "extension-closure-R",
        "extension-closure-C",
        "glc-fastpath",
        "glh-fastpath",
        "closure-products",
        "closure-sums",
        "closure-sub",
        "closure-quot",
        "gamma-left-exact",
        "lambda-right-exact",
        "both-classes",
        "finiteness",
        "glh-symmetry",
        "b-class-membership",
        "inherit-reduced",
        "inherit-coreduced",
        "glc-proj-vanish",
        "glh-flat-vanish",
    ):
        assert required in ids, required


def test_unknown_claim():
    with pytest.raises(UnknownClaim):
        check_claim("no-such-claim", TINY_Z)
    with pytest.raises(UnknownClaim):
        claim_expectation("no-such-claim")


def test_an_empty_grid_list_is_refused():
    # no grid would check nothing and report every verdict as expected
    with pytest.raises(InvalidGrid):
        run_suite([], ["gamma-dual"])


def test_a_grid_that_holds_no_instance_or_names_an_ignored_rank_is_refused():
    # each would report every claim as PASS with checked=0, or print a rank
    # the enumeration never uses
    for args, message in (
        ((RingSpec.mod(4), 8, 0, ()), "ideal generator"),
        ((RingSpec.integers(), 8, 1, ()), "ideal generator"),
        ((RingSpec.mod(4), 8, 0, (2,), ()), "whitelist"),
        ((RingSpec.integers(), 8, 1, (0, 2), ()), "whitelist"),
        ((RingSpec.mod(6), 8, 3, (2,)), "max_free_rank 0"),
        # a negative rank enumerates no module, a negative order only the
        # zero module, also where a whitelist replaces the bounds
        ((RingSpec.integers(), 4, -1, (2,)), "'max_free_rank' must be nonnegative, got -1"),
        ((RingSpec.mod(4), -3, 0, (2,)), "'max_torsion_order' must be nonnegative, got -3"),
        ((RingSpec.mod(4), 4, -1, (2,)), "'max_free_rank' must be nonnegative"),
        ((RingSpec.integers(), 4, -2, (2,), ("Z/2",)), "'max_free_rank' must be nonnegative"),
    ):
        with pytest.raises(InvalidGrid, match=message):
            GridSpec(*args)
    # a whitelist with a module and a rank over Z remain grids
    assert GridSpec(RingSpec.mod(4), 8, 0, (2,), ("Z/2",)).module_whitelist == ("Z/2",)
    assert GridSpec(RingSpec.integers(), 8, 3, (2,)).name() == "Z(o<=8,r<=3)"


def test_two_different_grids_of_one_name_are_refused_and_a_repeated_grid_runs_once():
    # their reports would print under one name, one PASS and one FAIL alike
    for grids in (
        [GridSpec(RingSpec.mod(6), 8, 0, (2,), label="g"), GridSpec(RingSpec.mod(8), 8, 0, (2,), label="g")],
        [GridSpec(RingSpec.mod(8), 8, 0, (0, 2)), GridSpec(RingSpec.mod(8), 8, 0, (0, 4))],
        [TINY_Z6, GridSpec(RingSpec.mod(8), 8, 0, (0, 2), label="tiny-z6")],
    ):
        with pytest.raises(InvalidGrid, match=re.escape(f"named {grids[1].name()!r}: give them distinct labels")):
            run_suite(grids, ["gamma-dual"])
    once = run_suite([TINY_Z6], ["gamma-dual", "reflexive"])
    assert run_suite([TINY_Z6, TINY_Z6], ["gamma-dual", "reflexive"]) == once
    assert len(once.reports) == 2
    # so is an ideal given by several generators
    ideal = run_suite([GridSpec(RingSpec.mod(6), 6, 0, (2,))])
    assert run_suite([GridSpec(RingSpec.mod(6), 6, 0, (2, 4, -4, 8))]) == ideal
    # and a grid spelled twice, with the same forms and canonical ideals
    for first, second in (
        (GridSpec(RingSpec.mod(6), 16, 0, (2,), ("Z/2", "Z/6 + 0")), GridSpec(RingSpec.mod(6), 16, 0, (2,), ("Z/2", "Z/6"))),
        (GridSpec(RingSpec.integers(), 4, 1, (2,)), GridSpec(RingSpec.integers(), 4, 1, (-2,))),
        (GridSpec(RingSpec.mod(6), 6, 0, (2,)), GridSpec(RingSpec.mod(6), 6, 0, (4,))),
    ):
        once = run_suite([first], ["gamma-dual", "glc-fastpath"])
        assert run_suite([first, second], ["gamma-dual", "glc-fastpath"]) == once
        assert len(once.reports) == 2
    # a whitelist ignores max_free_rank, but glc-fastpath's expectation over
    # Z reads it, so these two would print different verdicts under one name
    ranks = [GridSpec(RingSpec.integers(), 16, r, (0, 2), ("Z", "Z/2")) for r in (0, 1)]
    with pytest.raises(InvalidGrid, match=re.escape("named 'Z[Z; Z/2]': give them distinct labels")):
        run_suite(ranks, ["gamma-dual"])


def test_a_whitelisted_grid_is_named_after_its_ring_and_forms():
    # the bounds a whitelist replaces are not printed, and spellings of the
    # same forms share one name
    grid = grid_from_dict(
        {"ring": "Z/8", "max_torsion_order": 2, "ideal_generators": [2], "module_whitelist": ["Z/8", "Z/4"]}
    )
    assert grid.name() == "Z/8[Z/8; Z/4]"
    assert GridSpec(RingSpec.mod(8), 16, 0, (0, 2), ("Z/4", "coker[[8]]", "Z/4")).name() == "Z/8[Z/4; Z/8]"
    assert {
        GridSpec(RingSpec.integers(), o, r, (2,), wl).name()
        for o, r, wl in ((16, 1, ("0", "Z^2 + Z/2", "Z/2 + Z/4")), (1, 0, ("0", "Z + Z + coker[[2]]", "coker[[2,4],[6,8]]")))
    } == {"Z[0; Z^2 + Z/2; Z/2 + Z/4]"}
    assert GridSpec(RingSpec.mod(8), 2, 0, (2,), ("Z/8",), label="wl").name() == "wl"
    assert check_claim("gamma-dual", grid).grid == "Z/8[Z/8; Z/4]"


def test_the_walker_counts_and_labels_every_kind_of_result_at_every_depth():
    # the last bound value picks the check's result and the domains'
    # answers: above the innermost depth a domain holds 0 and 2 (it leaves
    # out 1), at it 0 to 4 and 6 (it leaves out 5), and a domain read under
    # a prefix that ends at 2 skips that prefix; the check skips at 4 and 6.
    # The domain at depth 1 is relative to the first value, and the check
    # gets each innermost row at once.
    results = (True, False, (True, "t"), (False, "f"), (None, "s"), None, (None, "g"))
    kept = {
        1: (["i=1, a=({d})", "i=3, a=({d}) : f"], ["i=4, a=({d}) : s", "i=6, a=({d}) : g"]),
        2: (
            ["i=0, j=1, a=({d})", "i=0, j=3, a=({d}) : f"],
            ["i=0, j=4, a=({d}) : s", "i=0, j=6, a=({d}) : g", "i=2, a=({d}) : inner"],
        ),
        3: (
            ["i=0, j=0, k=1, a=({d})", "i=0, j=0, k=3, a=({d}) : f"],
            [
                "i=0, j=0, k=4, a=({d}) : s",
                "i=0, j=0, k=6, a=({d}) : g",
                "i=0, j=2, a=({d}) : inner",
                "i=2, a=({d}) : inner",
            ],
        ),
    }

    def var(name, depth, values):
        def domain(ctx, *bound_and_d):
            return (None, "inner") if bound_and_d[-2:-1] == (2,) else values

        return verify._Var(name, within=domain) if depth == 1 else verify._Var(name, domain)

    def check(ctx, bound, xs, d):
        return [results[x] for x in xs]

    ctx = verify._Ctx(None, (5, 7), (), (), (), (), (), "", False, verify._Rows(()))
    for depth, (counterexamples, skipped) in kept.items():
        loops = tuple(var(name, k, [0, 2]) for k, name in enumerate("ij"[: depth - 1]))
        loops += (var("ijk"[depth - 1], depth - 1, [0, 1, 2, 3, 4, 6]),)
        tally = verify._Tally(loops)
        verify._walk(loops, check, ctx, tally)
        # per ideal: four results checked, two of them counterexamples, and a
        # skip by the check at 4 and at 6 and by the domain below each 2
        assert (tally.checked, tally.n_counter, tally.n_skipped) == (8, 4, 2 * (depth + 1)), depth
        assert tally.counterexamples == [label.format(d=d) for d in (5, 7) for label in counterexamples], depth
        assert tally.skipped == [label.format(d=d) for d in (5, 7) for label in skipped], depth

    # the top domain skips the empty prefix, labelled by the ideal alone
    loops = (verify._Var("i", lambda ctx, d: (None, "top")), verify._Var("j"))
    tally = verify._Tally(loops)
    verify._walk(loops, check, ctx, tally)
    assert (tally.checked, tally.n_skipped, tally.skipped) == (0, 2, ["a=(5) : top", "a=(7) : top"])

    # a relative domain below depth 1 is read once per (first value, d), and
    # its skip is counted once per prefix it stands under
    read = []
    loops = (
        verify._Var("i", lambda ctx, d: [0, 1]),
        verify._Var("j", lambda ctx, i, d: [0, 1, 3]),
        verify._Var("k", within=lambda ctx, i, d: read.append((i, d)) or (None, "rel")),
    )
    tally = verify._Tally(loops)
    verify._walk(loops, check, ctx, tally)
    assert read == [(i, d) for d in (5, 7) for i in (0, 1)]
    assert (tally.checked, tally.n_skipped) == (0, 12)
    assert tally.skipped[:3] == ["i=0, j=0, a=(5) : rel", "i=0, j=1, a=(5) : rel", "i=0, j=3, a=(5) : rel"]


def test_a_claim_is_checked_only_over_the_rings_it_applies_to():
    # over Z the inner local homology of vnr-homology-vanish can be
    # undefined, and Z is not von Neumann regular; Z/8 is modular but not
    # von Neumann regular
    z8 = GridSpec(RingSpec.mod(8), 8, 0, (0, 2))
    for cid, grid in (("vnr-homology-vanish", TINY_Z), ("reflexive", TINY_Z), ("vnr-cohomology-vanish", z8)):
        with pytest.raises(InvalidGrid, match=cid):
            check_claim(cid, grid)
    assert check_claim("reflexive", z8).verdict == "pass"


def test_a_selection_that_leaves_nothing_to_check_is_refused():
    # it would report every verdict as expected, as an empty grid list would
    with pytest.raises(InvalidGrid, match="no claim to check"):
        run_suite([TINY_Z6], [])
    with pytest.raises(InvalidGrid, match="applies"):
        run_suite([TINY_Z], ["vnr-homology-vanish", "reflexive"])
    # a claim that applies to no grid is left out of a selection that has others
    suite = run_suite([TINY_Z], ["reflexive", "gamma-dual"])
    assert [r.claim_id for r in suite.reports] == ["gamma-dual"]


# the claims whose loop domains admit only defined values: each compares
# completions, duals or local (co)homology that its domains make exist
DEFINED_BY_DOMAIN = (
    "gamma-dual", "lambda-dual", "reflexive", "gm-adjunction", "glh-glc-dual", "glc-glh-dual",
    "b-class-membership", "vnr-homology-vanish", "vnr-cohomology-vanish", "glc-proj-vanish", "glh-flat-vanish",
)


def test_claims_whose_domains_admit_only_defined_values_never_skip():
    # grids no other test runs: free rank 2 along the unit ideal, an odd
    # prime power, a ring neither local nor semisimple, a semisimple one
    grids = [
        GridSpec(RingSpec.integers(), 8, 2, (1,)),
        GridSpec(RingSpec.mod(9), 16, 0, (0, 1, 3)),
        GridSpec(RingSpec.mod(12), 12, 0, (0, 1, 2, 3, 4, 6)),
        GridSpec(RingSpec.mod(30), 30, 0, (0, 1, 2, 3, 5, 6, 10, 15)),
    ]
    suite = run_suite(grids, list(DEFINED_BY_DOMAIN))
    # the vnr pair applies only over Z/30, reflexive only over Z/n
    assert len(suite.reports) == 8 * 4 + 3 + 2
    for r in suite.reports:
        assert (r.verdict, r.skipped_count) == ("pass", 0), (r.claim_id, r.grid)
        assert r.instances_checked > 0, (r.claim_id, r.grid)


def test_equivalence_claims_on_tiny_grids():
    assert check_claim("equiv-reduced-wrt", TINY_Z).verdict == "pass"
    r = check_claim("equiv-coreduced-wrt", TINY_Z)
    assert r.verdict == "partial" and r.counterexample_count == 0
    # every skip involves a free summand in both arguments and a generator >= 2
    for s in r.skipped:
        m_part, n_part = s.split(", ")[0], s.split(", ")[1]
        assert m_part.split("=")[1].startswith("Z")
        assert n_part.split("=")[1].startswith("Z")
    assert check_claim("equiv-reduced-wrt", TINY_Z6).verdict == "pass"
    assert check_claim("equiv-coreduced-wrt", TINY_Z6).verdict == "pass"


ROOT = Path(__file__).resolve().parents[1]


def perfbench_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def verify_reduced_grids() -> list[GridSpec]:
    return [grid_from_dict(g) for g in perfbench_workloads().VERIFY_GRIDS]


def test_equivalence_claims_ask_dG_0_on_the_value_layer():
    # the fifth characterization, d·G = 0, is asked as G/dG = G on canonical
    # forms (Z/m goes to Z/gcd(d, m), a free Z summand stays free only at
    # d = 0); the scaled submodule of G's presentation is the reference.  On
    # the verify-reduced grids the torsion and completion values the claims
    # reach are compared too.
    asked = set()
    for grid in default_grids() + verify_reduced_grids():
        ctx = verify._make_ctx(grid)
        asked.update((g, d) for g in ctx.forms for d in ctx.ideals)
    for grid in verify_reduced_grids():
        ctx = verify._make_ctx(grid)
        for m in ctx.forms:
            for n in ctx.forms:
                for d in ctx.ideals:
                    for side in (verify._RED, verify._COR):
                        try:
                            asked.add((side.adic(m, n, d), d))
                        except NonStabilizing:
                            pass
    for g, d in asked:
        assert (cyclic.quotient(g, d) is g) == scaled_submodule(canonical_presentation(g), d).is_zero(), (g, d)
    assert len(asked) > 300 and sum(cyclic.quotient(g, d) is g for g, d in asked) > 50


def test_extension_claims_fail_with_expected_counterexample():
    r = check_claim("extension-closure-R", TINY_Z)
    assert r.verdict == "fail"
    assert any(
        "M=Z," in ce and "0->Z/2->Z/4->Z/2->0" in ce for ce in r.counterexamples
    ), r.counterexamples
    c = check_claim("extension-closure-C", TINY_Z)
    assert c.verdict == "fail"
    assert any(
        "M=Z," in ce and "0->Z/2->Z/4->Z/2->0" in ce for ce in c.counterexamples
    ), c.counterexamples


def test_report_verdict_rules():
    r = check_claim("extension-closure-R", TINY_Z)
    assert (r.verdict == "fail") == (r.counterexample_count > 0)
    p = check_claim("equiv-coreduced-wrt", TINY_Z)
    assert p.verdict == "partial" and p.skipped_count > 0 and p.counterexample_count == 0


def test_determinism_byte_identical():
    s1 = run_suite([TINY_Z], ["equiv-reduced-wrt", "extension-closure-R"])
    s2 = run_suite([TINY_Z], ["equiv-reduced-wrt", "extension-closure-R"])
    assert format_reports_text(s1) == format_reports_text(s2)
    assert format_reports_jsonl(s1) == format_reports_jsonl(s2)


def test_jsonl_output_parses_line_by_line():
    suite = run_suite([TINY_Z6], ["gamma-dual", "reflexive"])
    lines = format_reports_jsonl(suite).splitlines()
    records = [json.loads(line) for line in lines]
    assert "notes" in records[0]
    assert "summary" in records[-1]
    body = records[1:-1]
    assert [r["claim"] for r in body] == sorted(r["claim"] for r in body)
    for r in body:
        assert set(r) >= {"claim", "grid", "verdict", "expected", "instances_checked"}


def test_suite_expectation_logic():
    suite = run_suite([TINY_Z], ["extension-closure-R", "gamma-hom-commute"])
    assert suite.all_expected
    # over a von Neumann regular ring both classes are everything, so the
    # extension claim holds there and is expected to
    vnr = run_suite([TINY_Z6], ["extension-closure-R"])
    assert vnr.reports[0].verdict == "pass"
    assert vnr.all_expected


def test_grid_from_dict_roundtrip():
    g = grid_from_dict(
        {
            "ring": "Z/6",
            "max_torsion_order": 8,
            "ideal_generators": [0, 2],
            "label": "from-file",
        }
    )
    assert g.ring == RingSpec.mod(6) and g.max_torsion_order == 8
    assert g.name() == "from-file"
    assert len(enumerate_modules(g)) > 0


def test_default_grids_cover_flagship_examples():
    grids = default_grids()
    assert [g.label for g in grids] == ["Z", "Z/6", "Z/8"]
    z = grids[0]
    names = {format_canonical(canonical_form(p)) for p in enumerate_modules(z)}
    assert {"Z/4", "Z/2", "Z", "Z/16", "Z + Z/8"} <= names
    assert z.ideal_generators == (0, 2, 3, 4, 6)


def test_von_neumann_regular_rings_are_the_squarefree_moduli():
    def by_definition(n):
        return all(n % (p * p) for p in range(2, n + 1) if n % p == 0)

    for n in range(2, 2001):
        assert verify._is_vnr(RingSpec.mod(n)) == by_definition(n), n
    # too large for the definition: a prime, its square, a product of two primes
    p, q = 1000000007, 998244353
    assert verify._is_vnr(RingSpec.mod(p))
    assert not verify._is_vnr(RingSpec.mod(p * p))
    assert verify._is_vnr(RingSpec.mod(p * q))
    assert not verify._is_vnr(RingSpec.mod(4 * p))
    assert not verify._is_vnr(RingSpec.integers())


def test_a_run_tests_each_ring_for_square_factors_once():
    # several claims ask whether a grid's ring is von Neumann regular; the
    # trial division behind it runs once per ring, however many claims and grids
    big = RingSpec.mod(18446744073709551557)  # the largest prime below 2**64
    grids = [
        TINY_Z,
        TINY_Z6,
        GridSpec(RingSpec.mod(6), 4, 0, (2,), label="small-z6"),
        GridSpec(big, 1, 0, (0, 1), module_whitelist=("0", "Z/18446744073709551557"), label="big"),
    ]
    verify._is_vnr.cache_clear()
    suite = run_suite(grids)
    info = verify._is_vnr.cache_info()
    assert info.misses == 3 and info.hits > 0
    assert [r.verdict for r in suite.reports if r.claim_id == "vnr-homology-vanish"] == ["pass"] * 3


def test_a_run_builds_each_grid_once_however_many_grids(monkeypatch):
    # a run walks its jobs claim by claim, so it cycles through its grids
    # once per claim; more grids than a 16-entry table holds must still be
    # enumerated, named and tested for square factors once each
    enumerated = []
    real = verify.enumerate_forms
    monkeypatch.setattr(verify, "enumerate_forms", lambda grid: enumerated.append(grid) or real(grid))
    grids = [GridSpec(RingSpec.mod(n), 4, 0, (0, 1), module_whitelist=("0", f"Z/{n}")) for n in range(2, 22)]
    verify._is_vnr.cache_clear()
    suite = run_suite(grids, ["reflexive", "glc-fastpath", "vnr-homology-vanish"])
    info = verify._is_vnr.cache_info()
    assert enumerated == grids
    assert (info.misses, info.hits) == (20, 0)
    assert {r.grid for r in suite.reports} == {f"Z/{n}[0; Z/{n}]" for n in range(2, 22)}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_permuted_claims_and_grids_give_the_reference_report(seed):
    # the benchmark's seeds permute the grids of its grid file and the ids
    # of --claims; the sorted report is its reference byte for byte
    text, ops = perfbench_workloads().verify_ops(seed, 1, registered_claims(), "grids.json")
    grids = [grid_from_dict(d) for d in json.loads(text)]
    claims = ops[0][ops[0].index("--claims") + 1].split(",")
    fgmod.clear_caches()
    report = format_reports_text(run_suite(grids, claims))
    assert report == (ROOT / "perfbench" / "reference" / "verify-reduced.txt").read_text()


def test_a_run_checks_each_job_through_check_claim(monkeypatch):
    # the traced benchmark wraps `verify.check_claim` for its per-claim spans
    calls = collections.Counter()
    real = verify.check_claim

    def counted(claim_id, grid, *args):
        calls[claim_id, grid] += 1
        return real(claim_id, grid, *args)

    monkeypatch.setattr(verify, "check_claim", counted)
    grids = [grid_from_dict(d) for d in json.loads((ROOT / "tests" / "golden" / "verify_small_grid.json").read_text())]
    suite = run_suite(grids)
    by_name = {g.name(): g for g in grids}
    assert calls == {(r.claim_id, by_name[r.grid]): 1 for r in suite.reports}


def test_a_side_compares_and_hashes_by_identity():
    # `_collapsed` and `_exact_on` key their tables on a side, so a key
    # hashes one pointer, not the side's operations; a NamedTuple would
    # compare field by field unless the class says otherwise
    copy = verify._Side(*verify._RED)
    assert tuple(copy) == tuple(verify._RED)
    assert copy != verify._RED and not copy == verify._RED
    assert verify._RED == verify._RED and not verify._RED != verify._RED
    assert len({verify._RED: 1, verify._COR: 2}) == 2
    assert len({verify._RED: 1, copy: 2}) == 2
