"""The memo tables keep what they promise.

The `CanonicalForm` constructor hands out one object per canonical value
for as many forms as a verify suite builds; a completion that is not
finitely generated is refused before any table is asked, with a fresh
`NonStabilizing` each time; after a verify run no table of the value, module, functor, adic or
harness layers has computed an entry twice.
"""

import json
import traceback
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
        return sum(f.cache_info().misses for f in tables(cyclic))

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


def test_no_table_computes_an_entry_twice_on_the_small_grid():
    fgmod.clear_caches()
    everything = tables(cyclic, modules, functors, adic, verify)
    grids = [verify.grid_from_dict(d) for d in json.loads(GRID.read_text())]
    assert verify.run_suite(grids).all_expected
    for f in everything:
        info = f.cache_info()
        assert info.misses == info.currsize, (f.__qualname__, info)
