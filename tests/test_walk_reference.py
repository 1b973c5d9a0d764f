"""The claim walker against the one-loop walker it replaced.

`verify._walk` reads a domain relative to a claim's first variable once per
(first value, d) and calls a claim's row check once per prefix, with the
whole innermost domain.  The reference walker below does neither: every
depth reads its domain under the full prefix, records the domain's skip of
that prefix or descends, and checks one instance at a time, as a row of one
value under its full prefix.  The two must check the same instances with
the same results in the same order, and keep the same counts and samples,
on `verify_small` and on the benchmark's three grids.  Every result must be
True, the one pass, or a counterexample or a skip.
"""

import json
from collections import Counter
from pathlib import Path

import pytest

import fgmod
from fgmod import cyclic, verify
from fgmod.rings import RingSpec

from exactness_reference import walk_listing

GRID = Path(__file__).parent / "golden" / "verify_small_grid.json"
# the grids of the benchmark's verify-reduced workload
BENCH = [
    verify.GridSpec(RingSpec.integers(), 6, 1, (0, 2, 3, 4, 6), label="Z"),
    verify.GridSpec(RingSpec.mod(6), 6, 0, (0, 1, 2, 3), label="Z/6"),
    verify.GridSpec(RingSpec.mod(8), 16, 0, (0, 1, 2, 4), ("0", "Z/2", "Z/4", "Z/8", "Z/2 + Z/2"), label="Z/8"),
]
GRIDS = [verify.grid_from_dict(g) for g in json.loads(GRID.read_text())] + BENCH


def one_loop_walk(loops, check, ctx, tally):
    """Each depth reads its domain under the values bound so far, a relative
    one included, and records a skip, (None, note), of those values; the
    innermost depth checks each value on its own, as a row of one value."""
    last = len(loops) - 1

    def descend(bound, d):
        var = loops[len(bound)]
        if var.within is not None:
            xs = var.within(ctx, bound[0], d)
        else:
            xs = getattr(ctx, var.domain) if isinstance(var.domain, str) else var.domain(ctx, *bound, d)
        if isinstance(xs, tuple) and xs[:1] == (None,):
            tally.record(bound + (d,), xs)
            return
        for x in xs:
            values = bound + (x,)
            if len(values) <= last:
                descend(values, d)
            else:
                [result] = check(ctx, bound, (x,), d)
                if result is True:
                    tally.checked += 1
                else:
                    tally.record(values + (d,), result)

    for d in ctx.ideals:
        descend((), d)


def is_a_result(result) -> bool:
    """True, False, or a pair of False or None (a skip) and a note."""
    if result is True or result is False:
        return True
    return type(result) is tuple and len(result) == 2 and (result[0] is False or result[0] is None)


def tallied(walk, cdef, ctx):
    tally = verify._Tally(cdef.loops)
    walk(cdef.loops, cdef.check, ctx, tally)
    return tally.checked, tally.counterexamples, tally.n_counter, tally.skipped, tally.n_skipped


@pytest.mark.parametrize("claim_id", verify.registered_claims())
def test_the_walker_checks_every_instance_of_the_one_loop_walk(claim_id):
    cdef = verify._BY_ID[claim_id]
    walked = 0
    for ctx in map(verify._make_ctx, GRIDS):
        if not cdef.applies(ctx):
            continue
        listing = walk_listing(cdef.loops, cdef.check, ctx)
        # True is the one pass: the walker counts it and records the rest
        assert [result for _, result in listing if not is_a_result(result)] == [], ctx.name
        assert listing == walk_listing(cdef.loops, cdef.check, ctx, one_loop_walk), ctx.name
        assert tallied(verify._walk, cdef, ctx) == tallied(one_loop_walk, cdef, ctx), ctx.name
        walked += len(listing)
    assert walked


def test_gm_adjunction_asks_each_relative_value_once_per_walk(monkeypatch):
    # P's predicate, coreduced relative to M, and the completion of M (x) P
    # are each asked once per (M, P, d), and the torsion of Hom(M, N) once
    # per (M, N, d), off the grid's rows: a walk that asked the predicate
    # again for each N would hit its table
    cdef = verify._BY_ID["gm-adjunction"]
    asked = Counter()

    def counted(f):
        def value(m, x, d):
            asked[f, m, x, d] += 1
            return f(m, x, d)

        return value

    for name in ("completion_wrt", "torsion_wrt"):
        monkeypatch.setattr(cyclic, name, counted(getattr(cyclic, name)))
    for grid in GRIDS:
        fgmod.clear_caches()
        asked.clear()
        verify._walk(cdef.loops, cdef.check, verify._make_ctx(grid), verify._Tally(cdef.loops))
        info = cyclic.is_coreduced_wrt.cache_info()
        assert info.misses and not info.hits, (grid.label, info)
        assert len({key[0] for key in asked}) == 2 and max(asked.values()) == 1, grid.label


def test_a_result_equal_to_true_is_counted_once():
    # 1 == True, but only True itself passes without a record; `record`
    # counts a truthy outcome as checked, so the walk must not count it too
    loops = (verify._Var("i", lambda ctx, d: range(3)),)
    ctx = verify._Ctx(None, (5,), (), (), (), (), (), "", False, verify._Rows(()))
    for results, counts in (((1, True, True), (3, 0)), ((1, False, True), (3, 1))):
        for walk in (verify._walk, one_loop_walk):
            tally = verify._Tally(loops)
            walk(loops, verify._each(lambda i, d: results[i]), ctx, tally)
            assert (tally.checked, tally.n_counter) == counts, (walk.__name__, results)


@pytest.mark.parametrize("claim_id", ["inherit-reduced", "inherit-coreduced"])
def test_inherit_reads_its_classical_value_once_per_degree_module_and_ideal(claim_id, monkeypatch):
    # M's domain reads the classical value H(R, N) under every (q, N, d) off
    # one row per ideal, which computes it once per (N, d) for every degree
    computed = Counter()
    classical = verify._classical
    monkeypatch.setattr(verify, "_classical", lambda s, n, d: computed.update([(n, d)]) or classical(s, n, d))
    cdef = verify._BY_ID[claim_id]
    skipped = []
    for ctx in map(verify._make_ctx, GRIDS):
        computed.clear()
        tally = verify._Tally(cdef.loops)
        verify._walk(cdef.loops, cdef.check, ctx, tally)
        skipped += tally.skipped
        assert computed == Counter({(n, d): 1 for n in ctx.forms for d in ctx.ideals}), ctx.name
        assert sum(key[0] is verify._classical for key in ctx.rows) == len(ctx.ideals), ctx.name
    # the Z grid has (q, N, d) where the classical value is undefined
    assert any(label.endswith("classical value undefined (chain)") for label in skipped)
