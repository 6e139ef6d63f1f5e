"""One pass of one workload, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/worker.py --workload fig5-grid --seed 1 [--traced]

Times the set-up (importing ``repro`` and building the workload's inputs)
from the first lines of this file, then one pass, then checks the pass's
outputs and prints one JSON line with the measurements: host wall
seconds as measured and at the reference speed of ``calibrate.py``,
whose probe runs at the boundaries of the set-up and of each segment,
and every ``INTERVAL_S`` in between except in a traced pass (its time
is left out of every time).  With ``--traced`` the layer boundaries in
``layers.py`` are wrapped for the pass and the per-layer counts and
self times are added.
"""

import time

from calibrate import METER

METER.start()
PROBE0 = METER.boundary()
T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


class GcTimer:
    """Counts cyclic-GC collections and their pause time."""

    def __init__(self) -> None:
        self.collections = 0
        self.pause_s = 0.0
        self._start = None

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        elif self._start is not None:
            self.pause_s += time.perf_counter() - self._start
            self.collections += 1
            self._start = None


def data_totals(result) -> dict:
    """Platform and checkpoint data-path totals over the pass's jobs."""
    sums = {}
    for job in result.jobs:
        for attr in ("platform", "data_path"):
            for name, value in (getattr(job.report, attr, None) or {}).items():
                sums[name] = sums.get(name, 0.0) + value
    total = sums.get("checkpoint_bytes", 0.0)
    dirty = sums.get("dirty_bytes", 0.0)
    return {
        "mpi.messages": sums.get("network_messages", 0.0),
        "mpi.bytes": sums.get("network_bytes", 0.0),
        "veloc.dirty_fraction": dirty / total if total else 0.0,
        "veloc.dedup_ratio": (1.0 - sums.get("novel_bytes", 0.0) / dirty
                              if dirty else 0.0),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()

    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    inputs = workload.setup(args.seed)
    kills = workloads.KillCounter()
    end = time.perf_counter()
    setup_s, setup_ref_s = METER.measure(PROBE0, METER.boundary(), T0, end)

    recorder = None
    if args.traced:
        METER.stop()  # a probe would land in the self time of a span
        from layers import TARGETS
        from recorder import SpanRecorder

        recorder = SpanRecorder()
        recorder.install(TARGETS)
    gc_timer = GcTimer()
    gc.callbacks.append(gc_timer)
    cpu0, t0 = time.process_time(), time.perf_counter()
    result = workload.run(inputs, kills)
    t1 = time.perf_counter()
    METER.stop()
    probe_s = METER.probe_seconds(t0, t1)
    run_s = t1 - t0 - probe_s
    cpu_s = time.process_time() - cpu0 - probe_s
    gc.callbacks.remove(gc_timer)
    if recorder is not None:
        recorder.uninstall()

    problems = workloads.check(result)
    out = {
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "run_s": run_s,
        "run_ref_s": sum(result.scaled.values()),
        "scaled": result.scaled,
        "cpu_s": cpu_s,
        "gc_collections": gc_timer.collections,
        "gc_pause_s": gc_timer.pause_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "jobs": len(result.jobs),
        "failed": workloads.failed_jobs(result, problems),
        "problems": problems,
        "digest": workloads.digest(result),
        "rank_iters": workloads.rank_iterations(result),
        "totals": data_totals(result),
    }
    if recorder is not None:
        out.update(calls=recorder.calls, self_s=recorder.self_s,
                   unresolved=recorder.unresolved)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
