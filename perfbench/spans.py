"""Layer spans recorded from outside the library.

`Recorder.install()` rebinds each listed public function in every
``sliceburnside.*`` namespace that holds it, and each listed method on its
class, with a wrapper that records a span (name, start, end, parent).  Spans
stay in flat arrays until the end of the run; self time is a span's duration
minus the durations of its direct children.  Nothing is wrapped unless
`install()` is called, so untraced runs execute the library untouched.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import weakref
from array import array
from pathlib import Path

# span name -> (module, attribute path inside the module)
TARGETS = {
    "groups.lattice_build": ("groups", "SubgroupLattice.__init__"),
    "groups.all_subgroups": ("groups", "all_subgroups"),
    "groups.quotient": ("groups", "quotient"),
    "groups.normalizer": ("groups", "normalizer"),
    "groups.double_cosets": ("groups", "double_cosets"),
    "groups.find_isomorphism": ("groups", "find_isomorphism"),
    "groups.automorphisms": ("groups", "automorphisms"),
    "groups.group_from_spec": ("groups", "group_from_spec"),
    "groups.subgroup_as_group": ("groups", "subgroup_as_group"),
    "gsets.hom_count": ("gsets", "hom_count"),
    "gsets.restrict_morphism": ("gsets", "restrict_morphism"),
    "gsets.stabilizer_pairs": ("gsets", "stabilizer_pairs"),
    "gsets.coset_space": ("gsets", "coset_space"),
    "ring.table_build": ("ring", "SliceClassTable.__init__"),
    "ring.mark_matrix": ("ring", "SliceClassTable.mark_matrix"),
    "ring.idempotent": ("ring", "SliceClassTable.idempotent"),
    "ring.basis_mul": ("ring", "SliceClassTable.basis_mul"),
    "ring.element_mul": ("ring", "SliceRingElement.__mul__"),
    "ring.mark_vector": ("ring", "SliceRingElement.mark_vector"),
    "ring.morphism_to_ring": ("ring", "morphism_to_ring"),
    "bisetops.induce": ("bisetops", "induce"),
    "bisetops.restrict": ("bisetops", "restrict"),
    "bisetops.inflate": ("bisetops", "inflate"),
    "bisetops.deflate": ("bisetops", "deflate"),
    "bisetops.transport": ("bisetops", "transport"),
    "constants.deflation_constant": ("constants", "deflation_constant"),
    "constants.supplement_moebius_sum": ("constants", "supplement_moebius_sum"),
    "constants.deflation_idempotent_scalar": ("constants", "deflation_idempotent_scalar"),
    "constants.is_t_slice": ("constants", "is_t_slice"),
    "constants.is_b_group": ("constants", "is_b_group"),
    "ideals.universe_build": ("ideals", "GroupUniverse.__init__"),
    "ideals.product_map": ("ideals", "GroupUniverse.product_map"),
    "ideals.quotient_map": ("ideals", "GroupUniverse.quotient_map"),
    "ideals.bounded_closure": ("ideals", "bounded_closure"),
    "ideals.check_conditions": ("ideals", "check_conditions"),
    "linalg.rational_rank": ("linalg", "rational_rank"),
}

# The per-layer metrics a traced run reports, in BENCHMARK.json order.
_CALLS = (
    "groups.all_subgroups", "groups.quotient", "groups.double_cosets",
    "groups.find_isomorphism", "groups.subgroup_as_group", "gsets.hom_count",
    "gsets.coset_space", "ring.idempotent", "ring.basis_mul",
    "bisetops.induce", "bisetops.restrict", "bisetops.inflate", "bisetops.deflate",
    "bisetops.transport", "constants.deflation_constant", "ideals.product_map",
    "ideals.quotient_map",
)
_SELF = (
    "groups.lattice_build", "groups.quotient", "groups.normalizer", "groups.double_cosets",
    "groups.find_isomorphism", "groups.automorphisms", "groups.group_from_spec",
    "groups.subgroup_as_group", "gsets.hom_count", "gsets.restrict_morphism",
    "gsets.stabilizer_pairs", "ring.table_build", "ring.mark_matrix", "ring.idempotent",
    "ring.basis_mul", "ring.element_mul", "ring.mark_vector", "ring.morphism_to_ring",
    "bisetops.induce", "bisetops.restrict", "bisetops.inflate", "bisetops.deflate",
    "bisetops.transport", "constants.deflation_constant", "constants.supplement_moebius_sum",
    "constants.deflation_idempotent_scalar", "constants.is_t_slice", "constants.is_b_group",
    "ideals.universe_build", "ideals.product_map", "ideals.quotient_map",
    "ideals.bounded_closure", "ideals.check_conditions", "linalg.rational_rank",
)
PER_LAYER: list[tuple[str, str]] = sorted(
    [(f"{n}.calls", "count") for n in _CALLS]
    + [(f"{n}.self_s", "s") for n in _SELF]
    + [
        ("groups.lattice_builds", "count"),
        ("groups.find_isomorphism.found", "count"),
        ("ring.table_builds", "count"),
        ("ring.basis_mul.distinct", "count"),
        ("mem.retained_mb", "MB"),
        ("trace.overhead_s", "s"),
    ]
)


class Recorder:
    """In-memory span store plus the few counters a span cannot give."""

    def __init__(self):
        self.names = list(TARGETS)
        self.name_id = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.found_isomorphisms = 0
        self.distinct_basis_products = 0
        self._basis_keys: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for nid, (name, (module, path)) in enumerate(TARGETS.items()):
            mod = sys.modules[f"sliceburnside.{module}"]
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            original = getattr(owner, attr)
            wrapped = self._wrap(nid, name, original)
            if owner_name:
                setattr(owner, attr, wrapped)
                continue
            for modname, other in list(sys.modules.items()):
                if modname == "sliceburnside" or modname.startswith("sliceburnside."):
                    for key, value in list(vars(other).items()):
                        if value is original:
                            setattr(other, key, wrapped)

    def _wrap(self, nid: int, name: str, fn):
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            return result

        if name == "groups.find_isomorphism":

            def find_isomorphism(*args, **kwargs):
                result = span(*args, **kwargs)
                self.found_isomorphisms += result is not None
                return result

            return functools.wraps(fn)(find_isomorphism)
        if name == "ring.basis_mul":
            keys = self._basis_keys

            def basis_mul(table, i, j):
                seen = keys.get(table)
                if seen is None:
                    seen = keys[table] = set()
                if (i, j) not in seen:
                    seen.add((i, j))
                    self.distinct_basis_products += 1
                return span(table, i, j)

            return functools.wraps(fn)(basis_mul)
        return span

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Calls and self seconds per span name, plus the extra counters."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, nid in enumerate(self.name_id):
            calls[nid] += 1
            self_s[nid] += end[i] - start[i] - child[i]
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.self_s"] = self_s[nid]
        out["groups.lattice_builds"] = out["groups.lattice_build.calls"]
        out["ring.table_builds"] = out["ring.table_build.calls"]
        out["groups.find_isomorphism.found"] = self.found_isomorphisms
        out["ring.basis_mul.distinct"] = self.distinct_basis_products
        return out

    def write(self, stem: Path) -> None:
        """Write the spans as four raw arrays plus a JSON index."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        with open(stem.with_suffix(".bin"), "wb") as fh:
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)
        index = {
            "names": self.names,
            "count": len(self.start),
            "arrays": [["name_id", "H"], ["parent", "q"], ["start", "d"], ["end", "d"]],
            "clock": "time.perf_counter seconds",
        }
        stem.with_suffix(".json").write_text(json.dumps(index, indent=1) + "\n")
