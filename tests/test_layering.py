"""The module layering of the library, read off each module's syntax tree:
the engine modules import neither the verification suite nor the command
line, only `ring` still imports the G-set oracle (for the class projections
that `verify` reads), and `ideals` reads no subgroup bitmask of its own: the
universe's quotient witnesses are composed in `groups`."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sliceburnside"
ENGINE = ("groups", "ring", "bisetops", "constants", "ideals", "linalg")


def tree(module):
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


def imports(module):
    """{(library module, imported name)} over every import statement of the
    module, at any depth; a module imported whole has the name None."""
    out = set()
    for node in ast.walk(tree(module)):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 0:
                if not base.startswith("sliceburnside"):
                    continue
                base = base.removeprefix("sliceburnside").lstrip(".")
            for alias in node.names:
                if base:
                    out.add((base, alias.name))
                else:
                    out.add((alias.name, None))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("sliceburnside."):
                    out.add((alias.name.removeprefix("sliceburnside."), None))
    return out


def imported_modules(module):
    return {base for base, _ in imports(module)}


@pytest.mark.parametrize("module", ENGINE)
def test_engine_modules_import_neither_verify_nor_cli(module):
    assert not imported_modules(module) & {"verify", "cli"}


def test_only_ring_imports_the_gset_oracle():
    assert [m for m in ENGINE if "gsets" in imported_modules(m)] == ["ring"]


def test_ideals_reads_no_subgroup_bitmask():
    assert ("groups", "_mask_of") not in imports("ideals")
    attributes = {n.attr for n in ast.walk(tree("ideals")) if isinstance(n, ast.Attribute)}
    assert not attributes & {"_index", "masks"}


def test_the_import_reader_sees_each_form():
    # the reader's own oracle: the verify and cli modules' known edges
    assert ("gsets", None) in imports("verify") and ("bisetops", None) in imports("verify")
    assert ("verify", "run_all") in imports("cli")
    assert ("groups", "_mask_of") not in imports("ring")
