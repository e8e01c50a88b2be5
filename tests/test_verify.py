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


@pytest.mark.parametrize("deep", [False, True])
def test_biset_transport_asks_the_oracle_only_when_deep(monkeypatch, deep):
    _only_d8(monkeypatch)
    seen = set()
    original = verify.oracle_image

    def spy(elem, witness, morphism_map, out_group):
        seen.add(morphism_map.__name__)
        return original(elem, witness, morphism_map, out_group)

    monkeypatch.setattr(verify, "oracle_image", spy)
    result = verify.check_biset_transport(deep=deep)
    assert result.passed, result.details
    assert seen == (set(MORPHISM_MAPS) if deep else set())


def test_a_wrong_gset_map_fails_criterion_03_only_when_deep(capsys, monkeypatch):
    # the identity of the target collapses every slice (T, S) to (T, T)
    _only_d8(monkeypatch)
    monkeypatch.setattr(
        gsets, "transport_morphism", lambda f, iso: gsets.identity_morphism(f.target)
    )
    assert verify.check_biset_transport(deep=False).passed
    monkeypatch.setattr(verify, "ALL_CHECKS", (verify.check_biset_transport,))
    assert cli.main(["verify", "--deep"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("[FAIL] biset-transport")
    assert "D8: transport at class 1: closed form and oracle disagree" in out
    assert "restriction" not in out


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
