"""Command-line front end.

Slices on the command line are written as generator lists in the group's
element indexing: `T=g0,g1;S=g0` (bare integers also accepted, `*` means
the whole group, an empty list means the trivial subgroup).  Every output
format lives here: rationals print through `fraction_str` as `num/den` in
lowest terms with a positive denominator, and tables, ring elements and
mark matrices serialise to JSON and CSV.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from .constants import (
    classical_deflation_constant,
    deflation_constant,
    is_b_group,
    is_p_group,
    is_t_slice_of,
    supplement_moebius_sum,
)
from .groups import (
    DEFAULT_ORDER_CAP,
    GroupError,
    Subgroup,
    all_subgroups,
    close_under_product,
    group_from_spec,
    subgroup_as_group,
)
from .ideals import (
    FAMILIES,
    GroupUniverse,
    bounded_closure,
    check_conditions,
    family_by_id,
    ideal_dimension,
    minimal_groups,
)
from .ring import SliceClassTable, SliceRingElement, slice_classes
from .verify import run_all


def _parse_generators(text: str, group) -> tuple[int, ...]:
    text = text.strip()
    if text == "*":
        return tuple(range(group.order))
    if not text:
        return (group.identity,)
    out = []
    for token in text.split(","):
        token = token.strip()
        if token.startswith("g"):
            token = token[1:]
        try:
            idx = int(token)
        except ValueError:
            raise GroupError(f"bad generator token {token!r}") from None
        if not 0 <= idx < group.order:
            raise GroupError(f"generator index {idx} out of range")
        out.append(idx)
    return tuple(out)


def parse_slice(text: str, group) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Parse `T=g0,g1;S=g0` into (T members, S members)."""
    parts = dict()
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, _, val = chunk.partition("=")
        key = key.strip().upper()
        if key not in ("T", "S"):
            raise GroupError(f"slice component must be T or S, got {key!r}")
        parts[key] = val
    if "S" not in parts:
        raise GroupError("slice needs an S= component")
    t_gens = _parse_generators(parts.get("T", "*"), group)
    s_gens = _parse_generators(parts["S"], group)
    t_members = close_under_product(group, t_gens)
    s_members = close_under_product(group, s_gens)
    if not set(s_members) <= set(t_members):
        raise GroupError("slice bottom is not contained in the top")
    return t_members, s_members


# ---------------------------------------------------------------------------
# Output formats


def fraction_str(q) -> str:
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def table_to_json(table: SliceClassTable) -> dict:
    """The table's classes as {"T": [...], "S": [...]}, their labels and the
    dense mark matrix."""
    classes = [table.rep_subgroups(c) for c in range(table.size)]
    return {
        "group": table.group.label,
        "order": table.group.order,
        "classes": [{"T": list(big.members), "S": list(small.members)} for big, small in classes],
        "labels": [table.label(c) for c in range(table.size)],
        "marks": table.mark_matrix(),
    }


def element_to_json(elem: SliceRingElement) -> dict:
    return {
        elem.table.label(c): fraction_str(q)
        for c, q in sorted(elem.coeffs.items())
    }


def mark_matrix_csv(table: SliceClassTable) -> str:
    labels = [table.label(c) for c in range(table.size)]
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow([""] + labels)
    writer.writerows([label] + row for label, row in zip(labels, table.mark_matrix()))
    return out.getvalue()


def _emit(args, payload, lines=None, code: int = 0) -> int:
    """Print `payload` as JSON under `--format json`, and `lines` one per
    line otherwise; a command without text lines prints JSON either way."""
    if args.format == "json" or lines is None:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


def _group(args, spec: str | None = None):
    """The group named by `spec` (by default the command's own), built
    within `--order-cap`."""
    return group_from_spec(args.spec if spec is None else spec, order_cap=args.order_cap)


def _cmd_group(args) -> int:
    g = _group(args)
    lat = all_subgroups(g)
    table = slice_classes(g)
    info = {
        "label": g.label,
        "order": g.order,
        "abelian": g.is_abelian(),
        "exponent": g.exponent(),
        "center_order": len(g.center_members()),
        "subgroups": len(lat.subgroups),
        "subgroup_classes": len(lat.class_reps),
        "slice_classes": table.size,
    }
    return _emit(args, info, [f"{key}: {value}" for key, value in info.items()])


def _cmd_marks(args) -> int:
    table = slice_classes(_group(args))
    if args.format == "text":
        # the CSV is the one text output that is not a list of lines
        sys.stdout.write(mark_matrix_csv(table))
        return 0
    return _emit(args, table_to_json(table))


def _cmd_idempotents(args) -> int:
    table = slice_classes(_group(args))
    payload = {table.label(c): element_to_json(table.idempotent(c)) for c in range(table.size)}
    return _emit(args, payload)


def _cmd_mul(args) -> int:
    g = _group(args)
    table = slice_classes(g)
    ta, sa = parse_slice(args.slice_a, g)
    tb, sb = parse_slice(args.slice_b, g)
    a, b = table.class_index(ta, sa), table.class_index(tb, sb)
    # labels in class order, as the text lines list them
    payload = element_to_json(table.basis_element(a) * table.basis_element(b))
    return _emit(args, payload, [f"{label}: {q}" for label, q in payload.items()])


def _cmd_mconst(args) -> int:
    g = _group(args)
    s_members = _closure_of(args.s_gens, g)
    n_members = _closure_of(args.n_gens, g)
    m = deflation_constant(g, s_members, n_members)
    circ = supplement_moebius_sum(g, s_members, n_members)
    emb = subgroup_as_group(Subgroup.from_members(g, s_members))
    s_cap_n = emb.preimage_members(n_members)
    classical = classical_deflation_constant(emb.source, s_cap_n)
    payload = {
        "m": fraction_str(m),
        "m_supplement": fraction_str(circ),
        "m_classical_on_S": fraction_str(classical),
    }
    return _emit(args, payload, ["({m}, {m_supplement}, {m_classical_on_S})".format_map(payload)])


def _closure_of(text: str, group) -> tuple[int, ...]:
    return close_under_product(group, _parse_generators(text, group))


def _cmd_tslices(args) -> int:
    g = _group(args)
    table = slice_classes(g)
    found = []
    for cls in range(table.size):
        big, small = table.rep_subgroups(cls)
        if is_t_slice_of(g, big.members, small.members):
            found.append(table.label(cls))
    return _emit(args, found, found)


def _universe(args, bound: int) -> GroupUniverse:
    """The universe of p-groups up to `bound`, refused before any group is
    built when `bound` exceeds `--order-cap`."""
    if bound > args.order_cap:
        raise GroupError(f"universe bound {bound} exceeds --order-cap {args.order_cap}")
    return GroupUniverse(args.prime, bound)


def _cmd_bgroups(args) -> int:
    universe = _universe(args, args.max_order)
    found = [g.label for g in universe.groups if is_b_group(g)]
    return _emit(args, found, found)


def _ideal_family(fid: str):
    """The family named `fid`, refused unless it is an ideal family."""
    family = family_by_id(fid)
    if fid not in FAMILIES:
        raise GroupError(f"{fid!r} is not an ideal family")
    return family


def _cmd_ideal_dim(args) -> int:
    family = _ideal_family(args.family)
    g = _group(args)
    ok, _ = is_p_group(g)
    if not ok and args.family.startswith("J"):
        print("warning: ideal families are stated for p-groups", file=sys.stderr)
    dim = ideal_dimension(g, family)
    return _emit(args, dim, [dim])


def _cmd_minimal_groups(args) -> int:
    family = _ideal_family(args.family)
    universe = _universe(args, args.bound)
    labels = [g.label for g in minimal_groups(family, universe)]
    return _emit(args, labels, labels)


def _cmd_closure(args) -> int:
    # a slice never contains ':', so the spec ends at the last one; when the
    # spec's last factor is left without one, the seed named no slice
    spec, _, slice_text = args.seed.rpartition(":")
    if ":" not in spec.rpartition("*")[2]:
        raise GroupError("seed must look like <spec>:T=...;S=...")
    group = _group(args, spec)
    t_members, s_members = parse_slice(slice_text, group)
    if len(t_members) != group.order:
        emb = subgroup_as_group(Subgroup.from_members(group, t_members))
        group = emb.source
        s_members = emb.preimage_members(s_members)
    universe = _universe(args, args.bound)
    members = bounded_closure(universe, group, s_members)
    described = sorted(universe.describe_class(gi, cls) for gi, cls in members)
    payload = {
        "universe_bounded": True,
        "lower_bound_of_ideal_trace": True,
        "members": described,
    }
    return _emit(args, payload, described)


def _cmd_check_family(args) -> int:
    universe = _universe(args, args.bound)
    report = check_conditions(family_by_id(args.family), universe)
    state = "PASS" if report.passed else "FAIL"
    lines = [
        f"{state}: family {report.family_id} over p={report.prime}, bound {report.bound}",
        f"slices checked: {report.slices_checked}",
    ]
    for kind in ("preimage", "deflation", "iso"):
        for witness in getattr(report, f"{kind}_violations"):
            lines.append(f"  {kind} violation: {witness}")
    return _emit(args, report.to_json(), lines, 0 if report.passed else 1)


def _cmd_verify(args) -> int:
    results = run_all()
    code = 0 if all(r.passed for r in results) else 1
    return _emit(args, [vars(r) for r in results], [r.line() for r in results], code)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sliceburnside",
        description="Exact slice Burnside ring computations for small finite groups.",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default text)",
    )
    parser.add_argument(
        "--order-cap", type=int, default=DEFAULT_ORDER_CAP,
        help="largest group order constructors may produce",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group", help="order, subgroup and slice-class summary")
    p.add_argument("spec")
    p.set_defaults(fn=_cmd_group)

    p = sub.add_parser("marks", help="mark matrix as CSV (or JSON)")
    p.add_argument("spec")
    p.set_defaults(fn=_cmd_marks)

    p = sub.add_parser("idempotents", help="primitive idempotents as JSON")
    p.add_argument("spec")
    p.set_defaults(fn=_cmd_idempotents)

    p = sub.add_parser("mul", help="product of two basis slices")
    p.add_argument("spec")
    p.add_argument("slice_a", help='e.g. "T=g0,g1;S=g0"')
    p.add_argument("slice_b")
    p.set_defaults(fn=_cmd_mul)

    p = sub.add_parser("mconst", help="deflation constants of (G, S) mod N")
    p.add_argument("spec")
    p.add_argument("s_gens", help='generators of S, e.g. "g0,g1"')
    p.add_argument("n_gens", help="generators of the normal subgroup N")
    p.set_defaults(fn=_cmd_mconst)

    p = sub.add_parser("tslices", help="slice classes of the group that are T-slices")
    p.add_argument("spec")
    p.set_defaults(fn=_cmd_tslices)

    p = sub.add_parser("bgroups", help="B-groups among small p-groups")
    p.add_argument("--max-order", type=int, required=True)
    p.add_argument("--prime", type=int, required=True)
    p.set_defaults(fn=_cmd_bgroups)

    p = sub.add_parser("ideal-dim", help="dimension of a family's ideal at a group")
    p.add_argument("spec")
    p.add_argument("--family", required=True)
    p.set_defaults(fn=_cmd_ideal_dim)

    p = sub.add_parser("minimal-groups", help="minimal groups of a family's ideal")
    p.add_argument("--family", required=True)
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.set_defaults(fn=_cmd_minimal_groups)

    p = sub.add_parser("closure", help="bounded closure of a generated ideal")
    p.add_argument("--seed", required=True, help='e.g. "elab:3^3:T=*;S=g0,g3"')
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.set_defaults(fn=_cmd_closure)

    p = sub.add_parser("check-family", help="closure conditions over a universe")
    p.add_argument("--family", required=True)
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.set_defaults(fn=_cmd_check_family)

    p = sub.add_parser("verify", help="run the full verification suite")
    p.set_defaults(fn=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except GroupError as exc:
        print(f"error in {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
