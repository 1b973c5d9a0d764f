"""The verify claim table: expected verdicts, claim order and lazy labels.

The expectation table and the claim list below pin the verdict each claim
declares on each grid, and the order `fgmod verify --list-claims` prints.
The grids of the ROADMAP's Baseline table, where some verdict differs from
its expectation today, run as strict xfails that name the unexpected
verdicts; they pass once expectations follow the grid.
"""

import json

import pytest

import fgmod.verify as verify
from fgmod.claims import CLAIMS
from fgmod.cli import main
from fgmod.rings import RingSpec
from fgmod.verify import GridSpec, check_claim, claim_expectation, grid_from_dict, registered_claims, run_suite

GRIDS = {
    "Z, rank 1": GridSpec(RingSpec.integers(), 16, 1, (2,)),
    "Z, rank 0": GridSpec(RingSpec.integers(), 16, 0, (2,)),
    "Z/6": GridSpec(RingSpec.mod(6), 16, 0, (2,)),
    "Z/8": GridSpec(RingSpec.mod(8), 16, 0, (2,)),
    "Z/30": GridSpec(RingSpec.mod(30), 16, 0, (2,)),
}

# claim id -> expected verdict on each grid above, in order; the list order
# is that of `fgmod verify --list-claims`
EXPECTED = [
    ("equiv-reduced-wrt", "pass pass pass pass pass"),
    ("equiv-coreduced-wrt", "pass pass pass pass pass"),
    ("gamma-compose", "pass pass pass pass pass"),
    ("gamma-hom-commute", "pass pass pass pass pass"),
    ("gamma-reflect", "pass pass pass pass pass"),
    ("reduced-implies-wrt", "pass pass pass pass pass"),
    ("coreduced-M-absorbs", "pass pass pass pass pass"),
    ("tensor-coreduced", "pass pass pass pass pass"),
    ("hom-into-reduced", "pass pass pass pass pass"),
    ("tensor-stays", "pass pass pass pass pass"),
    ("closure-products", "pass pass pass pass pass"),
    ("closure-sums", "pass pass pass pass pass"),
    ("closure-sub", "pass pass pass pass pass"),
    ("closure-quot", "pass pass pass pass pass"),
    ("extension-closure-R", "fail fail pass fail pass"),
    ("extension-closure-C", "fail fail pass fail pass"),
    ("dual-cor-iff-red", "pass pass pass pass pass"),
    ("dual-red-then-cor", "pass pass pass pass pass"),
    ("gamma-dual", "pass pass pass pass pass"),
    ("lambda-dual", "pass pass pass pass pass"),
    ("reflexive", "pass pass pass pass pass"),
    ("gm-adjunction", "pass pass pass pass pass"),
    ("gamma-left-exact", "pass pass pass pass pass"),
    ("lambda-right-exact", "pass pass pass pass pass"),
    ("both-classes", "pass pass pass pass pass"),
    ("glc-fastpath", "fail pass pass fail pass"),
    ("glc-proj-vanish", "pass pass pass pass pass"),
    ("glh-fastpath", "pass pass pass fail pass"),
    ("glh-flat-vanish", "pass pass pass pass pass"),
    ("glh-symmetry", "pass pass pass pass pass"),
    ("finiteness", "pass pass pass pass pass"),
    ("glh-glc-dual", "pass pass pass pass pass"),
    ("glc-glh-dual", "pass pass pass pass pass"),
    ("b-class-membership", "pass pass pass pass pass"),
    ("inherit-reduced", "pass pass pass pass pass"),
    ("inherit-coreduced", "pass pass pass pass pass"),
    ("vnr-homology-vanish", "pass pass pass pass pass"),
    ("vnr-cohomology-vanish", "pass pass pass pass pass"),
]


def test_claim_list_is_unchanged(capsys):
    assert main(["verify", "--list-claims"]) == 0
    assert capsys.readouterr().out.splitlines() == [cid for cid, _ in EXPECTED]
    assert registered_claims() == [cid for cid, _ in EXPECTED]


def test_each_claim_is_its_index_entry_with_a_shape_in_index_order():
    assert [(c.claim_id, c.statement, c.rings, c.expected) for c in verify._REGISTRY] == list(CLAIMS)
    assert list(verify._SHAPES) == [cid for cid, *_ in CLAIMS]


@pytest.mark.parametrize("cid, verdicts", EXPECTED)
def test_expected_verdict_on_each_grid(cid, verdicts):
    assert [claim_expectation(cid, g) for g in GRIDS.values()] == verdicts.split()
    # without a grid, the claim's own expectation
    assert claim_expectation(cid) == ("fail" if cid.startswith("extension-closure") else "pass")


@pytest.mark.parametrize(
    "cid, forms_per_label",
    [("gm-adjunction", 3), ("extension-closure-R", 4), ("gamma-compose", 2), ("inherit-reduced", 2)],
)
def test_labels_are_formatted_only_for_kept_samples(monkeypatch, cid, forms_per_label):
    calls = []

    def counting(c):
        calls.append(c)
        return "x"

    monkeypatch.setattr(verify, "format_canonical", counting)
    report = check_claim(cid, GridSpec(RingSpec.integers(), 6, 1, (0, 2, 3)))
    kept = len(report.counterexamples) + len(report.skipped)
    assert report.instances_checked + report.skipped_count > 300
    assert len(calls) <= kept * forms_per_label


def unexpected_on(grid: dict, reason: str):
    xfail = pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)
    return pytest.param(grid, marks=xfail, id=json.dumps(grid, separators=(",", ":")))


def every_module_up_to_the_modulus(n: int, ideals: list[int]) -> dict:
    return {"ring": f"Z/{n}", "max_torsion_order": n, "ideal_generators": ideals}


_EXTENSION = "unexpected PASS: extension-closure-C, extension-closure-R"
_INHERIT = "unexpected FAIL: inherit-coreduced, inherit-reduced"
_WHITELIST = {"ring": "Z", "ideal_generators": [0, 2], "module_whitelist": ["Z", "Z/2"]}


# ROADMAP item 1: an expectation reads the ring alone, never the grid's ideals
# or the modules it walks, so each of these grids exits 4 today
@pytest.mark.parametrize(
    "grid",
    [
        unexpected_on(every_module_up_to_the_modulus(8, [0, 1]), f"{_EXTENSION}, glc-fastpath, glh-fastpath"),
        unexpected_on(every_module_up_to_the_modulus(8, [0, 4]), _EXTENSION),
        unexpected_on(every_module_up_to_the_modulus(9, [0, 1, 3]), _EXTENSION),
        unexpected_on(every_module_up_to_the_modulus(16, [0, 1, 2, 4, 8]), _INHERIT),
        unexpected_on(every_module_up_to_the_modulus(16, [0, 1, 4, 8]), _EXTENSION),
        unexpected_on(every_module_up_to_the_modulus(48, [0, 1, 2, 3, 4, 6, 8, 12, 16, 24]), _INHERIT),
        unexpected_on(every_module_up_to_the_modulus(81, [0, 1, 3, 9, 27]), f"{_EXTENSION}; {_INHERIT}"),
        unexpected_on(every_module_up_to_the_modulus(625, [0, 1, 5, 25, 125]), f"{_EXTENSION}; {_INHERIT}"),
        unexpected_on({**_WHITELIST, "max_free_rank": 0}, _EXTENSION),
        unexpected_on({**_WHITELIST, "max_free_rank": 1}, f"{_EXTENSION}; unexpected PARTIAL: glc-fastpath"),
    ],
)
def test_every_verdict_is_expected_on_the_baseline_grids(grid):
    suite = run_suite([grid_from_dict(grid)])
    assert suite.all_expected, [(r.claim_id, r.verdict) for r in suite.unexpected()]


def valuation(p: int, x: int) -> int:
    k = 0
    while x % p == 0:
        x, k = x // p, k + 1
    return k


# ROADMAP item 1's `inherit-*` family, pinned before any expectation reads it:
# over Z/n along a = (d), the classical value at M = R is 0 in positive
# degree, while Ext^q(Z/p^2, Z/p^2) = Z/p^min(e-2, 2) for e = v_p(n), whose
# Hom(Z/p^2, -) is p-reduced exactly when e <= 3; CRT lifts it to any n
@pytest.mark.parametrize("n", [16, 48, 81, 567, 625])
def test_inherit_fails_exactly_where_some_p_has_vp_d_1_and_vp_n_at_least_4(n):
    primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]
    wrong = []
    for d in [0] + [e for e in range(1, n + 1) if n % e == 0]:
        grid = grid_from_dict(every_module_up_to_the_modulus(n, [d]))
        family = d != 0 and any(valuation(p, d) == 1 and valuation(p, n) >= 4 for p in primes)
        for cid in ("inherit-reduced", "inherit-coreduced"):
            if check_claim(cid, grid).verdict != ("fail" if family else "pass"):
                wrong.append((d, cid))
    assert not wrong
