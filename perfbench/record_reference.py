"""Record the pinned reference values the benchmark checks against.

    python3 perfbench/record_reference.py    # from the repository root

Writes ``perfbench/reference.json``: the label-keyed mark matrix digest and
class count of every group the ``ghost`` and ``many-small`` workloads build,
the lattice counts (``checks.lattice_counts``) of every group the
``deflation`` workload loops over, and the member counts of the four recorded
``closure`` seeds.  The committed
file was recorded from the library before any optimisation; re-record only
when a change to the mathematics is intended, and say so.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> None:
    sys.path.insert(0, str(Path.cwd() / "src"))
    from sliceburnside import all_subgroups, bounded_closure, group_from_spec, slice_classes

    import checks
    import workloads

    marks = {}
    for spec in workloads.GHOST_SPECS + workloads.MANY_SMALL_POOL:
        table = slice_classes(group_from_spec(spec))
        marks[spec] = {"classes": table.size, "digest": checks.mark_digest(table)}
    state = workloads.setup_deflation(0, {})
    lattices = {}
    for g in state["corpus"] + [state["triple_group"]]:
        assert g.label not in lattices, g.label
        lattices[g.label] = checks.lattice_counts(all_subgroups(g))
    state = workloads.setup_closure(0, {})
    closure_members = {}
    for fid, group, s_members in state["seeds"][:4]:
        closure_members[fid] = len(bounded_closure(state["universe"], group, s_members))
    out = {"marks": marks, "lattices": lattices, "closure_members": closure_members}
    (HERE / "reference.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
