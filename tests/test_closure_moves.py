"""The closure moves a universe owns (quotient, product and deflation moves
and the surjection index), shared by `bounded_closure` and
`check_conditions`: their outputs are pinned by digest, and the deflation
tests are evaluated once per universe."""

import hashlib
import json

import pytest

from sliceburnside import cli, ideals
from sliceburnside.groups import cyclic_group
from sliceburnside.ideals import (
    BROKEN_CYCLIC_FAMILY,
    FAMILIES,
    GroupUniverse,
    SliceFamily,
    bounded_closure,
    check_conditions,
)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def report_digest(report) -> str:
    return sha256(json.dumps(report.to_json(), sort_keys=True))


CLI_DIGESTS = {
    ("closure", "--seed", "cyclic:3:T=*;S=g0", "--prime", "3", "--bound", "81"):
        "05206b71f4248ad009b6a28f4465130a80ca3c2051d1b690df84a926d3793e7f",
    ("--format", "json", "closure", "--seed", "elab:3^3:T=*;S=g0,g1",
     "--prime", "3", "--bound", "81"):
        "072d5d439c69271ea910eb12fa5cc91a0032b611c25483d5a3869e420ecb2e86",
}


@pytest.mark.parametrize("argv", list(CLI_DIGESTS), ids=["cyclic-text", "elab-json"])
def test_closure_cli_output_is_pinned(argv, capsys):
    assert cli.main(list(argv)) == 0
    assert sha256(capsys.readouterr().out) == CLI_DIGESTS[argv]


REPORT_DIGESTS = {
    (2, 8): {
        "J1": "4001b478498304d2c8c26cbdde4c207f1c9cba33925588d10d0fe26fa4b2e2b5",
        "J2": "26d0baea580dd3a712746090d6c9bd875262cbe2fce56a90e594516a1272c956",
        "J3": "c828146bd83235b93fc6384ba5e9817319dced490be02fd143746283695111d2",
        "J4": "138b6ec8ee598ef10ae4ec42267e5bb65dbfe07feb45c95ffc5a2ded3111b86b",
        "FULL": "5fe87cc71c1616ec72b5fa4f0e638ec4c3636de14d614ff23f5a0aeff5c6295e",
        "ZERO": "d2142895722f01bcc022575eb1577f2cade932513ba86350c43e05ffcd905288",
        "S_CYCLIC": "9560b7eadedd538e535916aa978cc4255e306c3ba24bd7a2fe89fe572d5a74bb",
    },
    (3, 27): {
        "J1": "ee1e778b04e5481b8f3a4f2429b504b4f5af1ed0bb2ef81dbb3560a44b1a466d",
        "J2": "f09e34eb4904e69d3f8b06068ba457972b43ef81e6f8a8c99f005e5e5dd22d0a",
        "J3": "8d9eb39b6d9a9595603397baf2114480afa69f2125acadf8ee112b2728aad91b",
        "J4": "37def0a805ea767b460b43b277fedff26b5e1440a28ee98797bd95d2943a2b61",
        "FULL": "428a3ab8b8cfafa70a7c9194300c66c3d2656cef40d761cebc59d2e9310d3c84",
        "ZERO": "3af39d851f7971a743e371cd6060d94beebc57a96209ea2644817a561f67db64",
        "S_CYCLIC": "aa944cf0e6bcf6a654139c559c0a4c7a97b7f5c598e766ef1debf16b5e72b6a4",
    },
}


@pytest.mark.parametrize("prime,bound", list(REPORT_DIGESTS))
def test_condition_reports_are_pinned(prime, bound):
    u = GroupUniverse(prime, bound)
    families = [FAMILIES[f] for f in ("J1", "J2", "J3", "J4", "FULL", "ZERO")]
    got = {
        fam.id: report_digest(check_conditions(fam, u))
        for fam in families + [BROKEN_CYCLIC_FAMILY]
    }
    assert got == REPORT_DIGESTS[prime, bound]


def test_every_kind_of_violation_is_reported_and_pinned():
    # |S| in {p, p^3} is not an ideal family in any of three ways; only it
    # reaches the deflation witnesses (constant computed for the report)
    p = 2
    family = SliceFamily("S_P_OR_P3", lambda g, t, s: len(tuple(s)) in (p, p**3))
    report = check_conditions(family, GroupUniverse(p, 16))
    assert report.slices_checked == 235
    assert len(report.preimage_violations) == 1751
    assert len(report.deflation_violations) == 607
    assert len(report.product_violations) == 65
    assert report.iso_violations == []
    assert report.deflation_violations[0] == {
        "source": "C2:S=0.1",
        "via_normal": [0, 1],
        "constant": "1/2",
        "quotient": "C1:S=0",
    }
    assert report_digest(report) == (
        "60ada059a9c8c6d2e84fae3fc5e48de6d16806525b4de68058fe52553e140334"
    )


def test_second_closure_reuses_the_deflation_tests(monkeypatch):
    u = GroupUniverse(2, 16)
    first = bounded_closure(u, cyclic_group(2), (0,))
    calls = []
    original = ideals.deflation_constant_at

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(ideals, "deflation_constant_at", counted)
    assert bounded_closure(u, cyclic_group(2), (0,)) == first
    assert len(calls) == 0
