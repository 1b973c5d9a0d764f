"""The claim walker against the one-loop walker it replaced.

`verify._walk` reads a domain relative to a claim's first variable once per
(first value, d), computes the values a variable lets the check reuse with
that domain, and maps the check over the innermost domain.  The reference
walker below does none of that: every depth reads its domain under the full
prefix, records the domain's skip of that prefix or descends or checks one
instance at a time, and the let values are computed for each instance.  The
two must check the same instances with the same results in the same order,
and keep the same counts and samples.  Every result must be True, the one
pass, or a counterexample or a skip.
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
# the Z grid of the benchmark's verify-reduced workload
BENCH_Z = verify.GridSpec(RingSpec.integers(), 6, 1, (0, 2, 3, 4, 6), label="Z")
GRIDS = [verify.grid_from_dict(g) for g in json.loads(GRID.read_text())] + [BENCH_Z]


def one_loop_walk(loops, check, ctx, tally):
    """Each depth reads its domain under the values bound so far, a relative
    one included, and records a skip, (None, note), of those values; the
    innermost depth checks each value, with d and the let values of every
    variable, computed per instance."""
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
                lets = [v.let(values[0], y, d) for v, y in zip(loops, values) if v.let is not None]
                if (result := check(*values, d, *lets)) is True:
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


def test_gm_adjunction_asks_each_relative_value_once_per_walk():
    # P's predicate, coreduced relative to M, and P's let value, the
    # completion of M (x) P, are each asked once per (M, P, d): a walk that
    # asked the predicate again for each N would hit its table
    cdef = verify._BY_ID["gm-adjunction"]
    asked = Counter()

    def completion_wrt(m, p, d):
        asked[m, p, d] += 1
        return cyclic.completion_wrt(m, p, d)

    loops = cdef.loops[:-1] + (cdef.loops[-1]._replace(let=completion_wrt),)
    for grid in GRIDS:
        fgmod.clear_caches()
        asked.clear()
        verify._walk(loops, cdef.check, verify._make_ctx(grid), verify._Tally(loops))
        info = cyclic.is_coreduced_wrt.cache_info()
        assert info.misses and not info.hits, (grid.label, info)
        assert asked and max(asked.values()) == 1, grid.label


def test_a_result_equal_to_true_is_counted_once():
    # 1 == True, but only True itself passes without a record; `record`
    # counts a truthy outcome as checked, so the walk must not count it too
    loops = (verify._Var("i", lambda ctx, d: range(3)),)
    ctx = verify._Ctx(None, (5,), (), (), (), (), (), "", False)
    for results, counts in (((1, True, True), (3, 0)), ((1, False, True), (3, 1))):
        for walk in (verify._walk, one_loop_walk):
            tally = verify._Tally(loops)
            walk(loops, lambda i, d: results[i], ctx, tally)
            assert (tally.checked, tally.n_counter) == counts, (walk.__name__, results)


@pytest.mark.parametrize("claim_id", ["inherit-reduced", "inherit-coreduced"])
def test_inherit_reads_its_classical_value_once_per_degree_module_and_ideal(claim_id, monkeypatch):
    # the classical value H(R, N) is the only caller of `_free_form`, for R;
    # M's domain reads it under every (q, N, d), so a count equal to the
    # number of those triples is one read each
    asked = []
    free_form = verify._free_form
    monkeypatch.setattr(verify, "_free_form", lambda ring: asked.append(ring) or free_form(ring))
    cdef = verify._BY_ID[claim_id]
    for ctx in map(verify._make_ctx, GRIDS):
        asked.clear()
        tally = verify._Tally(cdef.loops)
        verify._walk(cdef.loops, cdef.check, ctx, tally)
        assert len(asked) == len(verify._degrees(ctx.grid.ring)) * len(ctx.forms) * len(ctx.ideals), ctx.name
    # the Z grid has (q, N, d) where the classical value is undefined
    assert any(label.endswith("classical value undefined (chain)") for label in tally.skipped)
