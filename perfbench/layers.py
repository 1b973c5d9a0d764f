"""Per-layer metrics from the span and statistics files the launcher writes.

Times of a family of span names count only the outermost span of the family
in each call chain, so recursion (`kernel_generators` over Z/n calls itself)
and wrappers (`hom_module` calls `hom_data`) are not counted twice.  A span's
self time is its length minus the lengths of its direct children.
"""

from __future__ import annotations

import json
from array import array
from pathlib import Path

SNF_ROW_LIMITS = (8, 32, 96)
SNF_ROW_LABELS = tuple(f"le{lim}" for lim in SNF_ROW_LIMITS) + (f"gt{SNF_ROW_LIMITS[-1]}",)

CLAIM_IDS = (
    "b-class-membership", "both-classes", "closure-products", "closure-quot",
    "closure-sub", "closure-sums", "coreduced-M-absorbs", "dual-cor-iff-red",
    "dual-red-then-cor", "equiv-coreduced-wrt", "equiv-reduced-wrt",
    "extension-closure-C", "extension-closure-R", "finiteness", "gamma-compose",
    "gamma-dual", "gamma-hom-commute", "gamma-left-exact", "gamma-reflect",
    "glc-fastpath", "glc-glh-dual", "glc-proj-vanish", "glh-fastpath",
    "glh-flat-vanish", "glh-glc-dual", "glh-symmetry", "gm-adjunction",
    "hom-into-reduced", "inherit-coreduced", "inherit-reduced",
    "lambda-dual", "lambda-right-exact", "reduced-implies-wrt", "reflexive",
    "tensor-coreduced", "tensor-stays", "vnr-cohomology-vanish",
    "vnr-homology-vanish",
)

# metric stem -> span names whose outermost spans it times (and counts)
FAMILIES = {
    "linalg.snf": ("linalg.smith_normal_form",),
    "linalg.solve": ("linalg.solve",),
    "linalg.kernel": ("linalg.kernel_generators",),
    "modules.canonical_form": ("modules.canonical_form",),
    "modules.map_certify": ("modules.map_certify",),
    "modules.contains": ("modules.contains",),
    "modules.to_presentation": ("modules.to_presentation",),
    "functors.hom": ("functors.hom_module", "functors.hom_data"),
    "functors.tensor": ("functors.tensor_module",),
    "functors.ext": ("functors.ext",),
    "functors.tor": ("functors.tor",),
    "functors.resolution": ("functors.free_resolution_prefix",),
    "adic.is_reduced": ("adic.is_reduced",),
    "adic.is_coreduced": ("adic.is_coreduced",),
    "adic.torsion": ("adic.torsion", "adic.torsion_submodule"),
    "adic.completion_exponent": ("adic.completion_exponent",),
    "cohomology.glc": ("cohomology.local_cohomology",),
    "cohomology.glh": ("cohomology.local_homology",),
    "grammar.parse": ("grammar.parse_ring", "grammar.parse_ideal", "grammar.parse_module_expr"),
    **{f"verify.claim_s.{c}": (f"verify.claim.{c}",) for c in CLAIM_IDS},
}
CALL_COUNTS = ("linalg.snf", "linalg.solve", "linalg.kernel", "modules.canonical_form",
               "modules.map_certify", "modules.contains")
SELF_LAYERS = ("linalg", "modules", "functors", "adic", "cohomology", "verify")
HIT_TABLES = {
    "modules.canonical_form_hit_ratio": lambda t: t == "fgmod.modules.canonical_form",
    "functors.hit_ratio": lambda t: t.startswith("fgmod.functors."),
    "adic.hit_ratio": lambda t: t.startswith("fgmod.adic."),
    "verify.c_hit_ratio": lambda t: t.startswith("fgmod.verify._c"),
}


def _time_key(stem: str) -> str:
    return stem if stem.startswith("verify.claim_s.") else f"{stem}_s"


def metric_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric: name -> (unit, better)."""
    m = {_time_key(stem): ("s", "lower") for stem in FAMILIES}
    for stem in CALL_COUNTS:
        m[f"{stem}_calls"] = ("count", "lower")
    for label in SNF_ROW_LABELS:
        m[f"linalg.snf_s.rows_{label}"] = ("s", "lower")
    m["linalg.snf_cells_max"] = ("cells", "lower")
    m["linalg.snf_transform_bits_max"] = ("bits", "lower")
    m["linalg.snf_split_frac"] = ("frac", "higher")
    for layer in SELF_LAYERS:
        m[f"{layer}.self_s"] = ("s", "lower")
    for name in HIT_TABLES:
        m[name] = ("frac", "higher")
    m["adic.exponent_max"] = ("count", "lower")
    m["cohomology.collapsed_frac"] = ("frac", "higher")
    m["cli.import_s"] = ("s", "lower")
    m["cli.main_self_s"] = ("s", "lower")
    m["trace.overhead_frac"] = ("frac", "lower")
    return m


class LayerTotals:
    """Sums over every traced child process of one workload run."""

    def __init__(self):
        self.time = dict.fromkeys(FAMILIES, 0.0)
        self.calls = dict.fromkeys(FAMILIES, 0)
        self.self_time = dict.fromkeys(SELF_LAYERS, 0.0)
        self.main_self = 0.0
        self.import_s = 0.0
        self.caches: dict[str, list[int]] = {}
        self.snf = {"calls": 0, "split": 0, "cells_max": 0, "transform_bits_max": 0,
                    "s_by_rows": [0.0] * (len(SNF_ROW_LIMITS) + 1)}
        self.exponent_max = 0
        self.cohom_calls = 0
        self.cohom_collapsed = 0

    def add(self, prefix: str) -> None:
        stats = json.loads(Path(prefix + ".json").read_text())
        n = stats["count"]
        names, parents, starts, ends = array("i"), array("i"), array("d"), array("d")
        with open(prefix + ".spans", "rb") as fh:
            for arr in (names, parents, starts, ends):
                arr.fromfile(fh, n)
        self._add_spans(stats["names"], names, parents, starts, ends)
        self.import_s += stats["import_s"]
        for table, (hits, misses) in stats["caches"].items():
            acc = self.caches.setdefault(table, [0, 0])
            acc[0] += hits
            acc[1] += misses
        s = stats["snf"]
        for key in ("calls", "split"):
            self.snf[key] += s[key]
        for key in ("cells_max", "transform_bits_max"):
            self.snf[key] = max(self.snf[key], s[key])
        self.snf["s_by_rows"] = [a + b for a, b in zip(self.snf["s_by_rows"], s["s_by_rows"])]
        self.exponent_max = max(self.exponent_max, stats["exponent_max"])

    def _add_spans(self, name_list, names, parents, starts, ends):
        stems = list(FAMILIES)
        bit_of = {}
        for i, stem in enumerate(stems):
            for span_name in FAMILIES[stem]:
                bit_of[span_name] = bit_of.get(span_name, 0) | (1 << i)
        fam = [bit_of.get(nm, 0) for nm in name_list]
        layer = [nm.split(".", 1)[0] for nm in name_list]
        main_id = name_list.index("cli.main") if "cli.main" in name_list else -1
        glc_ids = {name_list.index(nm) for nm in ("cohomology.local_cohomology", "cohomology.local_homology")
                   if nm in name_list}
        cexp = name_list.index("adic.completion_exponent") if "adic.completion_exponent" in name_list else -1

        n = len(names)
        open_mask = [0] * n  # families open on the path above each span
        child_time = [0.0] * n
        time_acc = [0.0] * len(stems)
        call_acc = [0] * len(stems)
        for i in range(n):
            p = parents[i]
            dur = ends[i] - starts[i]
            above = 0
            if p >= 0:
                child_time[p] += dur
                above = open_mask[p] | fam[names[p]]
            open_mask[i] = above
            outer = fam[names[i]] & ~above
            while outer:
                low = outer & -outer
                k = low.bit_length() - 1
                time_acc[k] += dur
                call_acc[k] += 1
                outer ^= low
        for i, stem in enumerate(stems):
            self.time[stem] += time_acc[i]
            self.calls[stem] += call_acc[i]

        non_collapsed = set()
        cohom_calls = 0
        for i in range(n):
            nid = names[i]
            self_s = ends[i] - starts[i] - child_time[i]
            lname = layer[nid]
            if lname in self.self_time:
                self.self_time[lname] += self_s
            if nid == main_id:
                self.main_self += self_s
            elif nid in glc_ids:
                cohom_calls += 1
            elif nid == cexp:
                p = parents[i]
                while p >= 0:
                    if names[p] in glc_ids:
                        non_collapsed.add(p)
                    p = parents[p]
        self.cohom_calls += cohom_calls
        self.cohom_collapsed += cohom_calls - len(non_collapsed)

    def metrics(self, overhead_frac: float) -> dict[str, float]:
        out: dict[str, float] = {}
        for stem in FAMILIES:
            out[_time_key(stem)] = self.time[stem]
        for stem in CALL_COUNTS:
            out[f"{stem}_calls"] = self.calls[stem]
        for label, s in zip(SNF_ROW_LABELS, self.snf["s_by_rows"]):
            out[f"linalg.snf_s.rows_{label}"] = s
        out["linalg.snf_cells_max"] = self.snf["cells_max"]
        out["linalg.snf_transform_bits_max"] = self.snf["transform_bits_max"]
        out["linalg.snf_split_frac"] = _ratio(self.snf["split"], self.snf["calls"])
        for layer_name, s in self.self_time.items():
            out[f"{layer_name}.self_s"] = s
        for name, pick in HIT_TABLES.items():
            hits = sum(h for t, (h, _) in self.caches.items() if pick(t))
            misses = sum(m for t, (_, m) in self.caches.items() if pick(t))
            out[name] = _ratio(hits, hits + misses)
        out["adic.exponent_max"] = self.exponent_max
        out["cohomology.collapsed_frac"] = _ratio(self.cohom_collapsed, self.cohom_calls)
        out["cli.import_s"] = self.import_s
        out["cli.main_self_s"] = self.main_self
        out["trace.overhead_frac"] = overhead_frac
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
