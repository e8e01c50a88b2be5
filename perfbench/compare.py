"""Compare a parent tree and a changed tree on the benchmark's end-to-end metrics.

    python3 perfbench/compare.py --parent ../parent --change .

Both trees run this benchmark's own code (run.py from this directory, with the
tree as the working directory), so only the library differs.  Every workload
gets ten pairs of runs of BENCHMARK.json's ``run_seconds``, seeds 1 to 10,
alternating which side runs first.  When the two sides attempt a different
number of operations per process for the same seed, they did different work,
and the workload gets the single verdict ``different work`` instead of rows.
Otherwise it prints one row per metric:

* gain        the change wins at least 9/10 of the pairs (ties count for
              neither), its median beats the parent's by more than the
              parent's interquartile spread, and it fails no more operations
* regression  the change's median is worse than the parent's by more than the
              metric's bound from BENCHMARK.json
* unresolved  the parent's own spread is wider than the bound, and the change
              does not beat every parent run with every one of its own runs
* same        none of these: no change beyond the bound
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
PAIRS = 10
WORK_LINE = "operations per process: "


def run_side(tree: Path, workload: str, seed: int) -> dict:
    """One run's JSON result, plus the per-process operation counts that
    run.py prints on its ``operations per process`` line."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: {workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["work"] = next(line for line in lines if line.startswith(WORK_LINE))[len(WORK_LINE):]
    return result


def spread(values) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return statistics.median(values), q1, q3


def verdict(parent, change, better: str, bound: float, parent_failed: int, change_failed: int):
    sign = 1 if better == "lower" else -1
    p_med, p_q1, p_q3 = spread(parent)
    c_med, _, _ = spread(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    improvement = sign * (p_med - c_med)
    if wins >= 0.9 * len(parent) and improvement > p_q3 - p_q1 and change_failed <= parent_failed:
        return "gain", wins
    if -improvement > bound * p_med:
        return "regression", wins
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if (p_q3 - p_q1) > bound * p_med and not all_better:
        return "unresolved", wins
    return "same", wins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    args = parser.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    print(f"{'workload':11s} {'metric':12s} {'parent median [q1, q3]':34s} "
          f"{'change median [q1, q3]':34s} {'wins':>6s}  verdict")
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        results = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                results[side].append(run_side(sides[side], workload, i + 1))
        differ = [i + 1 for i, (p, c) in enumerate(zip(results["parent"], results["change"]))
                  if p["work"] != c["work"]]
        if differ:
            print(f"{workload:11s} different work: operations per process differ for seeds "
                  f"{differ}; no verdict")
            continue
        failed = {side: sum(r["failed"] for r in runs) for side, runs in results.items()}
        for metric in BENCHMARK["end_to_end"]:
            name = metric["name"]
            values = {side: [r["metrics"][name]["value"] for r in runs]
                      for side, runs in results.items()}
            result, wins = verdict(values["parent"], values["change"], metric["better"],
                                   metric["bound"], failed["parent"], failed["change"])
            cols = []
            for side in ("parent", "change"):
                med, q1, q3 = spread(values[side])
                cols.append(f"{med:.4f} [{q1:.4f}, {q3:.4f}] {metric['unit']}")
            print(f"{workload:11s} {name:12s} {cols[0]:34s} {cols[1]:34s} "
                  f"{wins:>3d}/{PAIRS:<2d}  {result}")
        print(f"{workload:11s} failed operations: parent {failed['parent']}, change {failed['change']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
