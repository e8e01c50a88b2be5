import inspect
from types import SimpleNamespace

import pytest

from sliceburnside import cli, gsets, verify
from sliceburnside.groups import group_from_spec

MORPHISM_MAPS = (
    "induce_morphism", "restrict_morphism", "inflate_morphism", "deflate_morphism",
    "transport_morphism",
)


def _only_d8(monkeypatch):
    one_group = SimpleNamespace(groups=[group_from_spec("dihedral:8")], p_groups=[])
    monkeypatch.setattr(verify, "corpus", lambda: one_group)


@pytest.mark.parametrize("through_cli", [False, True])
def test_biset_transport_asks_the_oracle_only_when_deep(capsys, monkeypatch, through_cli):
    # every run of criterion 03 is deep: called directly or through plain
    # `verify`, it compares each configured basis image with the G-set oracle
    _only_d8(monkeypatch)
    seen = set()
    calls = 0
    original = verify.oracle_image

    def spy(elem, witness, morphism_map, out_group):
        nonlocal calls
        calls += 1
        seen.add(morphism_map.__name__)
        # one basis class with coefficient 1
        assert len(elem.coeffs) == 1 and set(elem.coeffs.values()) == {1}
        return original(elem, witness, morphism_map, out_group)

    monkeypatch.setattr(verify, "oracle_image", spy)
    if through_cli:
        monkeypatch.setattr(verify, "ALL_CHECKS", (verify.check_biset_transport,))
        assert cli.main(["verify"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("[PASS] biset-transport")
        details = out.rstrip("\n").split(") ", 1)[1]
    else:
        result = verify.check_biset_transport()
        assert result.passed, result.details
        details = result.details
    assert seen == set(MORPHISM_MAPS)
    # one oracle comparison for each configuration
    assert details == f"{calls} configurations"


def test_a_wrong_gset_map_fails_criterion_03(capsys, monkeypatch):
    # the identity of the target collapses every slice (T, S) to (T, T)
    _only_d8(monkeypatch)
    monkeypatch.setattr(
        gsets, "transport_morphism", lambda f, iso: gsets.identity_morphism(f.target)
    )
    monkeypatch.setattr(verify, "ALL_CHECKS", (verify.check_biset_transport,))
    assert cli.main(["verify"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("[FAIL] biset-transport")
    assert "D8: transport at class 1: closed form and oracle disagree" in out
    assert "restriction" not in out


def test_run_all_runs_every_check_once_without_arguments(monkeypatch):
    checks = [
        lambda name=name: verify.CheckResult(name, True, "", 0.0)
        for name in ("first", "second", "third")
    ]
    monkeypatch.setattr(verify, "ALL_CHECKS", tuple(checks))
    assert [r.name for r in verify.run_all()] == ["first", "second", "third"]
    assert not inspect.signature(verify.run_all).parameters
    assert not inspect.signature(verify.check_biset_transport).parameters
