import csv
import hashlib
import io
import json
import shlex
import time
from pathlib import Path

import pytest

from sliceburnside import cli, verify
from sliceburnside.cli import main, parse_slice
from sliceburnside.groups import GroupError, group_from_spec


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_group_summary(capsys):
    code, out, _ = run_cli(capsys, "group", "heis:3")
    assert code == 0
    assert "order: 27" in out
    assert "slice_classes: 38" in out


def test_group_summary_json(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "group", "dihedral:8")
    assert code == 0
    info = json.loads(out)
    assert info["order"] == 8
    assert info["subgroups"] == 10


def test_marks_csv(capsys):
    code, out, _ = run_cli(capsys, "marks", "cyclic:4")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    n = len(rows) - 1
    assert all(len(r) == n + 1 for r in rows)
    # header labels match row labels
    assert [r[0] for r in rows[1:]] == rows[0][1:]


def test_idempotents_json(capsys):
    code, out, _ = run_cli(capsys, "idempotents", "cyclic:2")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 3
    for coeffs in payload.values():
        for value in coeffs.values():
            num, den = value.split("/")
            int(num), int(den)


def test_mul_command(capsys):
    code, out, _ = run_cli(capsys, "mul", "cyclic:2", "T=*;S=", "T=*;S=")
    assert code == 0
    assert out.strip() == "(T=0.1|S=0): 2/1"
    code, out, _ = run_cli(
        capsys, "--format", "json", "mul", "cyclic:2", "T=*;S=", "T=*;S="
    )
    assert json.loads(out) == {"(T=0.1|S=0)": "2/1"}


def test_debug_oracle_flag_is_gone():
    # criterion 02 compares every corpus product with the G-set oracle
    with pytest.raises(SystemExit) as info:
        main(["--debug-oracle", "mul", "dihedral:8", "T=*;S=g1", "T=*;S=g4"])
    assert info.value.code == 2


def test_verify_deep_flag_is_gone():
    # criterion 03 compares every basis image with the G-set oracle on each run
    with pytest.raises(SystemExit) as info:
        main(["verify", "--deep"])
    assert info.value.code == 2


def test_verify_prints_one_line_per_check(capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_all", lambda: [verify.CheckResult("fake", True, "", 0.0)])
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert out == "[PASS] fake (0.0s) \n"


@pytest.mark.parametrize("passed,code", [(True, 0), (False, 1)])
def test_verify_prints_one_json_list_under_format_json(capsys, monkeypatch, passed, code):
    results = [
        verify.CheckResult("fake", True, "ok", 0.5),
        verify.CheckResult("other", passed, "detail", 1.25),
    ]
    monkeypatch.setattr(cli, "run_all", lambda: results)
    got, out, _ = run_cli(capsys, "--format", "json", "verify")
    assert got == code
    assert json.loads(out) == [
        {"name": "fake", "passed": True, "details": "ok", "seconds": 0.5},
        {"name": "other", "passed": passed, "details": "detail", "seconds": 1.25},
    ]


def test_mconst_command(capsys):
    code, out, _ = run_cli(capsys, "mconst", "cyclic:2", "", "g1")
    assert code == 0
    assert out.strip() == "(0/1, 0/1, 1/1)"
    code, out, _ = run_cli(capsys, "--format", "json", "mconst", "elab:2^3", "", "g1,g2")
    payload = json.loads(out)
    assert payload["m_supplement"] == "3/1"


def test_tslices_command(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "tslices", "elab:3^2")
    assert code == 0
    labels = json.loads(out)
    assert "(T=0.1.2.3.4.5.6.7.8|S=0.1.2.3.4.5.6.7.8)" in labels


def test_bgroups_command(capsys):
    code, out, _ = run_cli(capsys, "bgroups", "--max-order", "9", "--prime", "3")
    assert code == 0
    assert out.split() == ["C1", "C3xC3"]


def test_ideal_dim_command(capsys):
    code, out, _ = run_cli(capsys, "ideal-dim", "heis:3", "--family", "J3")
    assert code == 0 and out.strip() == "4"
    code, out, _ = run_cli(capsys, "ideal-dim", "cyclic:1", "--family", "J1")
    assert code == 0 and out.strip() == "0"
    code, out, err = run_cli(capsys, "ideal-dim", "cyclic:6", "--family", "J1")
    assert code == 0
    assert "p-groups" in err


def test_minimal_groups_command(capsys):
    code, out, _ = run_cli(
        capsys, "minimal-groups", "--family", "J3", "--prime", "3", "--bound", "27"
    )
    assert code == 0
    assert sorted(out.split()) == ["C3xC3xC3", "C9xC3", "H27", "M27"]


def test_closure_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "--format", "json",
        "closure", "--seed", "cyclic:1:T=*;S=*", "--prime", "2", "--bound", "8",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["universe_bounded"] is True
    assert payload["lower_bound_of_ideal_trace"] is True
    assert len(payload["members"]) > 10


def test_closure_with_proper_top(capsys):
    code, out, _ = run_cli(
        capsys,
        "closure", "--seed", "cyclic:4:T=g2;S=", "--prime", "2", "--bound", "8",
    )
    assert code == 0
    assert "C2:S=0" in out


def test_closure_seed_defaults_its_top_to_the_group(capsys):
    tail = ("--prime", "3", "--bound", "27")
    full = run_cli(capsys, "closure", "--seed", "cyclic:3:T=*;S=g0", *tail)
    assert full[0] == 0
    assert run_cli(capsys, "closure", "--seed", "cyclic:3:S=g0", *tail) == full


def test_closure_seed_needs_a_slice(capsys):
    # the bare generator form is not a slice: it has no S= component
    code, out, err = run_cli(
        capsys, "closure", "--seed", "cyclic:3:g0", "--prime", "3", "--bound", "27"
    )
    assert code == 2
    assert out == ""
    assert "slice component" in err


def test_check_family_command(capsys):
    code, out, _ = run_cli(
        capsys, "check-family", "--family", "J1", "--prime", "2", "--bound", "8"
    )
    assert code == 0
    assert "PASS" in out
    code, out, _ = run_cli(
        capsys,
        "--format", "json",
        "check-family", "--family", "S_CYCLIC", "--prime", "2", "--bound", "8",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    assert payload["preimage_violations"]
    code, out, _ = run_cli(
        capsys, "check-family", "--family", "S_CYCLIC", "--prime", "2", "--bound", "8"
    )
    assert code == 1
    lines = out.splitlines()
    assert lines[:2] == ["FAIL: family S_CYCLIC over p=2, bound 8", "slices checked: 53"]
    assert lines[2] == (
        "  preimage violation: {'source': 'C2xC2:S=0.1.2.3', 'via_normal': [0, 1], "
        "'quotient': 'C2:S=0.1'}"
    )
    assert len(lines) - 2 == sum(
        len(payload[f"{kind}_violations"])
        for kind in ("preimage", "deflation", "iso")
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("ideal-dim", "heis:3", "--family", "J2"),
        ("minimal-groups", "--family", "J2", "--prime", "2", "--bound", "8"),
        ("check-family", "--family", "J2", "--prime", "2", "--bound", "8"),
    ],
    ids=lambda argv: argv[0],
)
def test_every_family_command_looks_up_the_same_ids(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and out and not err
    at = argv.index("--family") + 1

    def with_family(fid):
        return argv[:at] + (fid,) + argv[at + 1 :]

    code, out, err = run_cli(capsys, *with_family("NO_SUCH_FAMILY"))
    assert code == 2
    assert out == ""
    assert "unknown family 'NO_SUCH_FAMILY'" in err
    # the broken cyclic family is a family to check, not an ideal
    code, out, err = run_cli(capsys, *with_family("S_CYCLIC"))
    if argv[0] == "check-family":
        assert code == 1 and out
    else:
        assert code == 2
        assert out == ""
        assert "'S_CYCLIC' is not an ideal family" in err


def test_usage_errors_exit_two(capsys):
    assert run_cli(capsys, "group", "bogus:1")[0] == 2
    assert run_cli(capsys, "mul", "cyclic:2", "T=*;S=", "T=g0;S=g9")[0] == 2
    assert run_cli(capsys, "mconst", "dihedral:8", "", "g4")[0] == 2  # not normal
    assert run_cli(capsys, "mul", "cyclic:2", "T=*;S=gx", "T=*;S=")[0] == 2
    # a seed without a colon names no group
    argv = ("closure", "--seed", "cyclic3", "--prime", "3", "--bound", "27")
    assert run_cli(capsys, *argv)[0] == 2
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2


def test_closure_past_the_universe_exits_two(capsys):
    # the universe holds 8 of the 14 groups of order 16, and the closure
    # reaches C4xM8 mod a subgroup of order 2, which is not among them;
    # complete p-group universes (ROADMAP item 1) will change this
    code, out, err = run_cli(
        capsys, "closure", "--seed", "cyclic:2:S=g0", "--prime", "2", "--bound", "32"
    )
    assert code == 2
    assert out == ""
    assert "quotient group is outside the universe" in err


def test_negative_permutation_point_exits_two(capsys):
    code, out, err = run_cli(capsys, "group", "perm:(0 -1)")
    assert code == 2
    assert out == ""
    assert "nonnegative" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("bgroups", "--prime", "4", "--max-order", "16"),
        ("bgroups", "--prime", "1", "--max-order", "16"),
        ("bgroups", "--prime", "2", "--max-order", "0"),
        ("check-family", "--family", "J1", "--prime", "6", "--bound", "8"),
    ],
)
def test_bad_universe_arguments_exit_two(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "universe" in err


def test_csv_format_is_refused():
    # `marks` prints CSV under the default text format
    with pytest.raises(SystemExit) as info:
        main(["--format", "csv", "marks", "cyclic:2"])
    assert info.value.code == 2


def test_prime_above_the_universe_bound_exits_two_before_trial_division(capsys):
    start = time.perf_counter()
    # 2^61 - 1 is prime: trial division up to its square root never ends
    code, out, err = run_cli(
        capsys, "bgroups", "--max-order", "8", "--prime", "2305843009213693951"
    )
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert "universe prime exceeds the bound 8" in err


OVERSIZED_SPECS = {
    "cyclic": "cyclic:" + "9" * 4000,
    "elab": "elab:3^100000",
    "elab-huge-rank": "elab:2^1000000000",
    "abelian": "abelian:" + "x".join(["99999"] * 900),
    "dihedral": "dihedral:" + "8" * 4000,
    "mod": "mod:" + "9" * 1500,
    "heis": "heis:" + "9" * 1500,
    "perm": "perm:(0 1 2 3 4 5 6 7 8 9),(0 1)",
    "product": "cyclic:200 * cyclic:200",
}


@pytest.mark.parametrize("spec", list(OVERSIZED_SPECS.values()), ids=list(OVERSIZED_SPECS))
def test_oversized_spec_exits_two_quickly(capsys, spec):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "group", spec)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert "exceeds cap" in err


LONG_INTEGER_SPECS = {
    "cyclic": "cyclic:" + "9" * 5000,
    "perm": "perm:(0 " + "9" * 5000 + ")",
    "abelian": "abelian:2x" + "9" * 5000,
}


@pytest.mark.parametrize("spec", list(LONG_INTEGER_SPECS.values()), ids=list(LONG_INTEGER_SPECS))
def test_long_integer_spec_gets_a_short_message(capsys, spec):
    code, out, err = run_cli(capsys, "group", spec)
    assert code == 2
    assert out == ""
    assert len(err.encode()) < 200
    assert "999" not in err
    assert "too long" in err or "exceeds cap" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("bgroups", "--prime", "2", "--max-order", "512"),
        ("--order-cap", "8", "bgroups", "--prime", "2", "--max-order", "16"),
        ("--order-cap", "8", "minimal-groups", "--family", "J1", "--prime", "2", "--bound", "16"),
        ("--order-cap", "8", "closure", "--seed", "cyclic:2:S=g0", "--prime", "2", "--bound", "16"),
        ("--order-cap", "8", "check-family", "--family", "J1", "--prime", "2", "--bound", "16"),
    ],
)
def test_universe_bound_above_order_cap_exits_two(capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("the universe was built past the order cap")

    monkeypatch.setattr("sliceburnside.cli.GroupUniverse", refuse)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "--order-cap" in err


def test_output_is_deterministic(capsys):
    a = run_cli(capsys, "idempotents", "dihedral:8")
    b = run_cli(capsys, "idempotents", "dihedral:8")
    assert a == b


def test_parse_slice_forms():
    g = group_from_spec("dihedral:8")
    t, s = parse_slice("T=*;S=g1", g)
    assert len(t) == 8 and len(s) == 4
    t, s = parse_slice("T=1,4;S=", g)
    assert len(s) == 1 and set(s) <= set(t)
    with pytest.raises(GroupError):
        parse_slice("T=g1;S=g4", g)  # bottom not inside top
    with pytest.raises(GroupError):
        parse_slice("X=g1;S=g1", g)
    with pytest.raises(GroupError):
        parse_slice("T=*", g)


IDEMPOTENTS_DIGESTS = {
    ("idempotents", "heis:3 * cyclic:3"):
        "42a619fec3ed3993ee3a1cabbc7deb4ed3a5ba6ca5390d14230dad6aa1f85416",
    ("idempotents", "elab:2^4"):
        "2e834b4bf2696e1cd980544820f132fb6447bcedc52f1c3f71a7cff5d31fa22e",
}


@pytest.mark.parametrize("argv", list(IDEMPOTENTS_DIGESTS), ids=["heis-c3", "elab-2-4"])
def test_idempotents_cli_output_is_pinned(argv, capsys):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == IDEMPOTENTS_DIGESTS[argv]


CONSTANTS_DIGESTS = {
    ("tslices", "heis:3 * cyclic:3"):
        "a908b2978fb82994e71d109899f195fdba8350aeca5a620c21461bad25c85010",
    ("bgroups", "--prime", "3", "--max-order", "81"):
        "f21c22b6479fa0ef5709e2e7926bddda9c498a0da8065ba4c53a9d98adf04dde",
    ("mconst", "heis:3 * cyclic:3", "g1", "g2"):
        "e715a8c9d3b5bb9e74826cc62b2c4a6bdbc5a8574200dcc7e38b09eac5ef8c0c",
}


@pytest.mark.parametrize(
    "argv", list(CONSTANTS_DIGESTS), ids=["tslices", "bgroups", "mconst"]
)
def test_constants_cli_output_is_pinned(argv, capsys):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CONSTANTS_DIGESTS[argv]


HEIS_C3 = "heis:3 * cyclic:3"

# sha256 of stdout and the exit code for each (format, argv); `closure` and
# `check-family` run on universes small enough to keep the table quick
CLI_DIGESTS = {
    ("text", ("group", HEIS_C3)):
        ("1162391b9604d9c0f14f8e3218465a387401a19ca688d2a62c47fe12362380b4", 0),
    ("json", ("group", HEIS_C3)):
        ("9c331990762ca54ae1a20974a80747ee58149da06ebeca059488c03e1384a68d", 0),
    ("text", ("marks", "dihedral:8")):
        ("3759ed64b93f2055f1906eac6f73f2b4e03748c0d69c29181aea68bfcefeed91", 0),
    ("json", ("marks", "dihedral:8")):
        ("e728479ee49526ef0709ea4eea3dad767ce2622a3c77d5b7eb6868854f40f2ba", 0),
    ("text", ("mul", HEIS_C3, "T=*;S=g0", "T=*;S=g1")):
        ("82a4c52802c9cfe8488421261b46b9757f09bb08c48da09be1ff509796dba933", 0),
    ("json", ("mul", HEIS_C3, "T=*;S=g0", "T=*;S=g1")):
        ("3a2f4fa83e6ffa86eea78d8f2754879c86ef485b3c6fda616857d6309a314088", 0),
    ("text", ("ideal-dim", HEIS_C3, "--family", "J3")):
        ("496ecdb854d49463f8655b210ddf17d3395d26b20a6f297b07cf99834c6336f0", 0),
    ("json", ("ideal-dim", HEIS_C3, "--family", "J3")):
        ("496ecdb854d49463f8655b210ddf17d3395d26b20a6f297b07cf99834c6336f0", 0),
    ("text", ("minimal-groups", "--family", "J3", "--prime", "3", "--bound", "27")):
        ("da03a812412f6beea8ae392744d9f47fac53f87d9fa4e3d000136f64ed958672", 0),
    ("json", ("minimal-groups", "--family", "J3", "--prime", "3", "--bound", "27")):
        ("31b55d151e906edc3c0ab33acf548373ab82c47184db070e3a65d7a34c9a3cc9", 0),
    ("text", ("closure", "--seed", "cyclic:4:T=g2;S=", "--prime", "2", "--bound", "16")):
        ("483ea6855a3fb562b54ba012a45faab2cf74f49f73ca3159216fb7e9a2163a41", 0),
    ("json", ("closure", "--seed", "cyclic:4:T=g2;S=", "--prime", "2", "--bound", "16")):
        ("c14a8cd47a8b9f8652f6b9953df8975704ef82c5ad15340c0096e72f99e775af", 0),
    ("text", ("check-family", "--family", "J2", "--prime", "2", "--bound", "16")):
        ("cd72c80ed5bf0e74565b85488958f37f5d8c9b33316beb60ab0c37a7b3621fea", 0),
    ("json", ("check-family", "--family", "J2", "--prime", "2", "--bound", "16")):
        ("142b9369f80aea2127a940737f4860115f4a2b2c4c98fc4cbb57fed9d264411c", 0),
    ("text", ("check-family", "--family", "S_CYCLIC", "--prime", "2", "--bound", "8")):
        ("c9f5b04da4aafa181cca3631a0d15f8241cb23b2be681abb243c3565842e4228", 1),
    ("json", ("check-family", "--family", "S_CYCLIC", "--prime", "2", "--bound", "8")):
        ("3cd5ada8aa005b77a4a07a10ef02354c7b652ac63f974984020983446855d63f", 1),
    ("json", ("tslices", HEIS_C3)):
        ("5ebcb1b8d8fd55e46901ee635caf49aa9d01ab3573cc511a0083892d6f753bd3", 0),
    ("json", ("bgroups", "--prime", "3", "--max-order", "81")):
        ("ea4d34a25e1a783868c6f695e96fcb9561caf0685b93bc45ef9242f859462cfa", 0),
    ("json", ("mconst", HEIS_C3, "g1", "g2")):
        ("225a5cd0c1c1ddac4d9a5c8fa7866d6ae70334e99a9b427a7d5780bae90e33cf", 0),
}


@pytest.mark.parametrize(
    "fmt, argv", list(CLI_DIGESTS), ids=lambda x: x if isinstance(x, str) else x[0]
)
def test_cli_output_is_pinned(fmt, argv, capsys):
    code, out, _ = run_cli(capsys, "--format", fmt, *argv)
    assert (hashlib.sha256(out.encode()).hexdigest(), code) == CLI_DIGESTS[fmt, argv]


def readme_commands():
    """The `sliceburnside ...` lines of the README; `verify` runs in CI as is."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = [line.strip() for line in readme.read_text(encoding="utf-8").splitlines()]
    argvs = [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("sliceburnside ")]
    return [argv for argv in argvs if argv[0] != "verify"]


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[0])
def test_readme_command_runs(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 0, err
    code, out, err = run_cli(capsys, "--format", "json", *argv)
    assert code == 0, err
    json.loads(out)
