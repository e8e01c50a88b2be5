"""sliceburnside benchmark: run one workload in fresh interpreters and print
its metrics.

    python3 perfbench/run.py --workload ghost --seed 1 --seconds 15 --trace 0

Run from the repository root; the library is imported from ``./src``.  Each
repetition is a new process with cold library caches, one at a time.

--trace 0  repeats the workload until about --seconds have passed and reports
           the end-to-end metrics, each the median over the repetitions:
           wall_s (task list after set-up), setup_s (interpreter start,
           import, input generation and group construction), peak_rss_mb
           (peak resident memory read inside the child at exit).  The two
           times are paced: seconds at pace.py's reference speed, which
           removes the host's changes of speed; the raw medians are printed
           before the result.
--trace 1  runs the workload twice (untraced, then with layer spans) and
           reports the per-layer metrics of spans.py.

Every output is checked; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
non-zero, with no result printed, when the library is missing or a child
process fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# set-up samples per run: at least MIN_SETUPS, and up to MAX_SETUPS while the
# run's window lasts, topped up with set-up-only processes
MIN_SETUPS = 3
MAX_SETUPS = 9
RUN_LIMIT_S = 170.0  # every run, traced or not, ends well inside 180 s


class ChildFailed(RuntimeError):
    pass


def spawn(root: Path, workload: str, seed: int, mode: str, deadline: float, spans_out=None):
    """Run one child process to completion and return its JSON report; its
    set-up time counts from just before the process was started."""
    cmd = [
        sys.executable, str(HERE / "child.py"), "--root", str(root),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
    ]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    started = time.monotonic()
    cmd += ["--started", repr(started)]
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - started))
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} child for {workload} exited with {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise ChildFailed(f"{mode} child for {workload} printed nothing")
    return json.loads(lines[-1])


def timed_run(root: Path, workload: str, seed: int, seconds: float):
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    reps: list[dict] = []
    durations: list[float] = []
    while True:
        t0 = time.monotonic()
        reps.append(spawn(root, workload, seed, "plain", deadline))
        durations.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        typical = statistics.median(durations)
        # start another repetition only if most of it fits in the window
        if elapsed + typical / 2 >= seconds or elapsed + 2 * typical >= RUN_LIMIT_S:
            break
    setups = list(reps)
    while len(setups) < MIN_SETUPS or (
        len(setups) < MAX_SETUPS
        and time.monotonic() - start + statistics.median(r["setup_raw_s"] for r in setups) < seconds
    ):
        setups.append(spawn(root, workload, seed, "setup", deadline))
    samples = {
        "wall_s": [r["wall_s"] for r in reps],
        "setup_s": [r["setup_s"] for r in setups],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        "raw wall_s": [r["wall_raw_s"] for r in reps],
        "raw setup_s": [r["setup_raw_s"] for r in setups],
    }
    metrics = {
        name: {"value": statistics.median(samples[name]), "unit": unit}
        for name, unit in END_TO_END
    }
    return reps, samples, metrics


def traced_run(root: Path, workload: str, seed: int):
    deadline = time.monotonic() + RUN_LIMIT_S
    # paced times do not move with the host's speed, so one untraced process
    # (which also measures retained memory) is the baseline for the overhead
    plain = spawn(root, workload, seed, "memory", deadline)
    traced = spawn(root, workload, seed, "spans", deadline, HERE / "out" / f"spans-{workload}")
    layers = dict(traced["layers"])
    layers["mem.retained_mb"] = plain["retained_mb"]
    layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    metrics = {name: {"value": layers[name], "unit": unit} for name, unit in spans.PER_LAYER}
    return [plain, traced], metrics


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "sliceburnside" / "__init__.py").is_file():
        print(f"no sliceburnside library under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    try:
        if args.trace:
            reps, metrics = traced_run(root, args.workload, args.seed)
            samples = None
        else:
            reps, samples, metrics = timed_run(root, args.workload, args.seed, args.seconds)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    for r in reps:
        for msg in r["messages"]:
            print(f"FAILED {msg}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {len(reps)} processes, "
          f"fail_rate {failed}/{attempted}")
    # compare.py reads this line: the same code and seed give the same count
    print(f"operations per process: {' '.join(str(n) for n in sorted({r['attempted'] for r in reps}))}")
    if samples is not None:
        for name, values in samples.items():
            q1, q3 = quartiles(values)
            print(f"  {name:44s} {statistics.median(values):12.4f} "
                  f"n={len(values)} q1={q1:.4f} q3={q3:.4f}")
    else:
        for name, m in metrics.items():
            print(f"  {name:44s} {m['value']:12.4f} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
