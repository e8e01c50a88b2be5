"""The traced run reports every per-layer metric, and each workload exercises
the layers it was chosen for: counters are nonzero where the workload should
move them and zero where it should not.  Also checks the benchmark's
contract with BENCHMARK.json and its refusal to run without the library.

Each test starts real benchmark processes, so this file takes about a minute.
"""

import json
import shutil
import subprocess
import sys
import time

import pytest

import run
import spans
from conftest import BENCH, ROOT

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# metric -> workloads on which it must be nonzero / must be zero
NONZERO = {
    "ghost": [
        "gsets.hom_count.calls", "gsets.coset_space.calls", "ring.table_builds",
        "ring.mark_matrix.self_s", "ring.idempotent.calls", "ring.basis_mul.calls",
        "ring.basis_mul.distinct", "ring.element_mul.self_s", "ring.mark_vector.self_s",
        "ring.morphism_to_ring.self_s", "gsets.restrict_morphism.self_s",
        "gsets.stabilizer_pairs.self_s", "bisetops.restrict.calls",
        "groups.double_cosets.calls", "groups.lattice_builds", "linalg.rational_rank.self_s",
    ],
    "deflation": [
        "groups.lattice_builds", "groups.all_subgroups.calls", "groups.quotient.calls",
        "groups.normalizer.self_s", "constants.deflation_constant.calls",
        "constants.supplement_moebius_sum.self_s", "constants.is_t_slice.self_s",
        "constants.is_b_group.self_s", "groups.subgroup_as_group.calls",
    ],
    "closure": [
        "groups.find_isomorphism.calls", "groups.find_isomorphism.found",
        "groups.find_isomorphism.self_s", "groups.automorphisms.self_s",
        "ideals.universe_build.self_s", "ideals.product_map.calls",
        "ideals.quotient_map.calls", "ideals.bounded_closure.self_s",
        "ideals.check_conditions.self_s",
    ],
    "many-small": [
        "groups.group_from_spec.self_s", "groups.subgroup_as_group.calls",
        "ring.table_builds", "gsets.hom_count.calls",
        "bisetops.induce.calls", "bisetops.restrict.calls", "bisetops.inflate.calls",
        "bisetops.deflate.calls", "bisetops.transport.calls",
        "constants.deflation_idempotent_scalar.self_s",
    ],
}
ZERO = {
    "ghost": [
        "groups.find_isomorphism.calls", "ideals.product_map.calls",
        "ideals.quotient_map.calls", "constants.deflation_constant.calls",
    ],
    "deflation": ["gsets.hom_count.calls", "ring.table_builds", "ideals.product_map.calls"],
    "closure": ["gsets.hom_count.calls", "ring.mark_matrix.self_s", "ring.basis_mul.calls"],
    "many-small": ["groups.find_isomorphism.calls", "ideals.product_map.calls"],
}


def test_benchmark_json_matches_the_code():
    assert [m["name"] for m in BENCHMARK["per_layer"]] == [n for n, _ in spans.PER_LAYER]
    assert [m["unit"] for m in BENCHMARK["per_layer"]] == [u for _, u in spans.PER_LAYER]
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(run.WORKLOADS)


def child_layers(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "--root", str(ROOT),
         "--workload", workload, "--seed", "7", "--mode", "spans",
         "--started", repr(time.monotonic())],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["attempted"] > 0 and report["failed"] == 0, report["messages"]
    return report["layers"]


@pytest.mark.parametrize("workload", ["ghost", "deflation", "closure"])
def test_layer_counters_follow_the_predictions(workload):
    layers = child_layers(workload)
    for name in NONZERO[workload]:
        assert layers[name] > 0, name
    for name in ZERO[workload]:
        assert layers[name] == 0, name


def test_traced_run_reports_every_per_layer_metric():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "many-small",
         "--seed", "7", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert list(metrics) == [n for n, _ in spans.PER_LAYER]
    for name in NONZERO["many-small"]:
        assert metrics[name]["value"] > 0, name
    for name in ZERO["many-small"]:
        assert metrics[name]["value"] == 0, name
    # module-level caches keep memory after the workload drops its groups
    assert metrics["mem.retained_mb"]["value"] > 1
    assert (BENCH / "out" / "spans-many-small.json").is_file()


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ghost", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
