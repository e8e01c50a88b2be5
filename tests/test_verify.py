from types import SimpleNamespace

import pytest

from sliceburnside import bisetops, verify
from sliceburnside.groups import group_from_spec

OPERATIONS = ("induce", "restrict", "inflate", "deflate", "transport")


@pytest.mark.parametrize("deep", [False, True])
def test_biset_transport_hands_deep_to_every_operation(monkeypatch, deep):
    one_group = SimpleNamespace(groups=[group_from_spec("dihedral:8")], p_groups=[])
    monkeypatch.setattr(verify, "corpus", lambda: one_group)
    seen = {name: set() for name in OPERATIONS}

    def spy(name, op):
        def wrapped(elem, witness, check=False):
            seen[name].add(check)
            return op(elem, witness, check=check)

        return wrapped

    for name in OPERATIONS:
        monkeypatch.setattr(bisetops, name, spy(name, getattr(bisetops, name)))
    result = verify.check_biset_transport(deep=deep)
    assert result.passed, result.details
    assert seen == {name: {deep} for name in OPERATIONS}


def test_run_all_hands_deep_only_to_criterion_03(monkeypatch):
    seen = []

    def plain():
        seen.append("plain")
        return verify.CheckResult("plain", True, "", 0.0)

    def transport(deep=False):
        seen.append(deep)
        return verify.CheckResult("transport", True, "", 0.0)

    monkeypatch.setattr(verify, "check_biset_transport", transport)
    monkeypatch.setattr(verify, "ALL_CHECKS", (plain, transport, plain))
    assert [r.name for r in verify.run_all(deep=True)] == ["plain", "transport", "plain"]
    verify.run_all()
    assert seen == ["plain", True, "plain", "plain", False, "plain"]
