"""The memo tables keep what they promise.

The `CanonicalForm` constructor hands out one object per canonical value
for as many forms as a verify suite builds; a completion that is not
finitely generated is refused before any table is asked, with a fresh
`NonStabilizing` each time; after a verify run no table of the value, module or
harness layers has computed an entry twice (the functor and adic layers keep
no tables), the form table and the per-summand exactness table included, and
no row of a grid's context either.
"""

import json
import traceback
from collections import Counter
from pathlib import Path

import pytest

import fgmod
from fgmod import adic, cyclic, functors, modules, verify
from fgmod.errors import NonStabilizing
from fgmod.modules import CanonicalForm, Presentation, canonical_form
from fgmod.rings import ZZ

GRID = Path(__file__).parent / "golden" / "verify_small_grid.json"


def tables(*mods):
    return [f for m in mods for f in vars(m).values() if hasattr(f, "cache_info") and f.__module__ == m.__name__]


def test_the_constructor_keeps_the_first_object_past_2000_forms():
    base = 3**41
    first = canonical_form(Presentation.cyclic(ZZ, base))
    others = [CanonicalForm(ZZ, (base + i,), 0) for i in range(1, 2001)]
    assert CanonicalForm(ZZ, (base,), 0) is first
    assert len(set(map(id, others))) == 2000
    # a different presentation of the same value misses canonical_form
    again = canonical_form(Presentation.from_relations(ZZ, [[base, 0], [0, 1]]))
    assert again is first


def test_completion_refuses_a_free_summand_afresh_and_memoizes_the_rest():
    # forms no other test asks for along (23), so the first settling call misses
    finite = CanonicalForm(ZZ, (23**5,), 0)
    mixed = CanonicalForm(ZZ, (23**5,), 1)

    def misses():
        # the form table is keyed on orders alone, which another test may have merged before
        return sum(f.cache_info().misses for f in tables(cyclic) if f is not cyclic._merged)

    before = misses()
    raised = []
    for _ in range(5):
        assert cyclic.completion(finite, 23) == (finite, 5)
        with pytest.raises(NonStabilizing) as exc:
            cyclic.completion(mixed, 23)
        raised.append(exc.value)
    assert misses() - before == 1
    assert {str(e) for e in raised} == {
        "chain of ideal multiples of (23) never stabilizes: a free summand"
        " completed along a nonzero non-unit is not finitely generated"
    }
    assert len({id(e) for e in raised}) == 5
    assert len({len(traceback.extract_tb(e.__traceback__)) for e in raised}) == 1


def test_no_table_computes_an_entry_twice_on_the_small_grid(monkeypatch):
    # every row is computed by the rows of a grid's context in the run, once
    # per key, and each of its values once: a claim that built a row of its
    # own, or a second context for its grid, fails this
    contexts, rows_of, values = [], {}, Counter()
    make_ctx, rows_missing, row_missing = verify._make_ctx, verify._Rows.__missing__, verify._Row.__missing__

    def built(rows, key):
        row = rows_missing(rows, key)
        rows_of[id(row)] = (id(rows), key)
        values.update((id(row), x) for x in rows.forms if (id(row), x) not in values)
        return row

    def read(row, x):
        values[id(row), x] += 1
        return row_missing(row, x)

    monkeypatch.setattr(verify, "_make_ctx", lambda grid: contexts.append(make_ctx(grid)) or contexts[-1])
    monkeypatch.setattr(verify._Rows, "__missing__", built)
    monkeypatch.setattr(verify._Row, "__missing__", read)
    fgmod.clear_caches()
    everything = tables(cyclic, modules, functors, adic, verify)
    grids = [verify.grid_from_dict(d) for d in json.loads(GRID.read_text())]
    assert verify.run_suite(grids).all_expected
    for f in everything:
        info = f.cache_info()
        assert info.misses == info.currsize, (f.__qualname__, info)
    # among them the form table, read far more often than it merges, and the
    # exactness table, one entry per (side, sequence, summand order of Q)
    merged = cyclic._merged.cache_info()
    assert {cyclic._merged, verify._exact_on_summand} <= set(everything) and merged.hits > merged.misses > 100
    assert len(values) > 1000 and max(values.values()) == 1
    assert len(set(rows_of.values())) == len(rows_of)
    assert {rows_of.get(row, (None,))[0] for row, _ in values} <= {id(ctx.rows) for ctx in contexts}
