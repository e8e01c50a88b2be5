"""One cold benchmark process: import the library from ``<root>/src``, set up
one workload, run it, and print one JSON line with what it measured.

Times are paced (see pace.py): the child runs pace.py's reference loop from
its first statement on, and reports set-up time from ``--started`` (the
parent's clock just before it started this process) to the end of set-up, and
task time from there to the end of the task list, both in reference seconds
and raw.

Modes:
  plain   time the task list (the end-to-end run)
  spans   the same, with layer spans recorded (see spans.py)
  memory  the same, then report the memory still held after the workload
          drops its references (live_bytes after minus before)
  setup   set up only, for extra set-up time samples

`run.py` starts this script; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import types
from pathlib import Path

import pace

HERE = Path(__file__).resolve().parent


def live_bytes() -> int:
    """Bytes of every object alive after a full collection, found by walking
    the referents of all collector-tracked objects.  Measured only at two
    points, so unlike tracemalloc it adds nothing while the workload runs."""
    gc.collect()
    roots = gc.get_objects()
    stack = list(roots)
    seen = {id(roots), id(stack)}
    seen.add(id(seen))
    total = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, types.FrameType):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "spans", "memory", "setup"), required=True)
    parser.add_argument("--spans-out")
    parser.add_argument("--started", type=float, required=True)
    args = parser.parse_args()
    pacer = pace.Pacer(args.started)
    pacer.start_timer()

    src = (Path(args.root) / "src").resolve()
    sys.path.insert(0, str(src))
    import sliceburnside

    if Path(sliceburnside.__file__).resolve().parent != src / "sliceburnside":
        print(f"imported {sliceburnside.__file__}, not the library under {src}", file=sys.stderr)
        return 2

    import workloads

    setup, run = workloads.WORKLOADS[args.workload]
    ref = json.loads((HERE / "reference.json").read_text())
    recorder = None
    if args.mode == "spans":
        import spans

        recorder = spans.Recorder()
        recorder.install()
    elif args.mode == "memory":
        baseline = live_bytes()
    ledger = workloads.Ledger()

    state = setup(args.seed, ref)
    ready = pacer.mark()
    out = {"setup_s": pacer.paced(-1, ready), "setup_raw_s": pacer.raw(-1, ready)}
    if args.mode != "setup":
        run(state, ledger)
        end = pacer.mark()
        out["wall_s"] = pacer.paced(ready, end)
        out["wall_raw_s"] = pacer.raw(ready, end)
    pacer.stop_timer()
    del state
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["attempted"] = ledger.attempted
    out["failed"] = ledger.failed
    out["messages"] = ledger.messages
    if args.mode == "memory":
        out["retained_mb"] = (live_bytes() - baseline) / 2**20
    if recorder is not None:
        out["layers"] = recorder.layer_metrics()
        if args.spans_out:
            recorder.write(Path(args.spans_out))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
