"""Host cost of regenerating the paper's results, end to end and by layer.

    python3 perfbench/run.py --workload fig5-grid --seed 1 --seconds 25 --trace 0

Run from the repository root.  Each pass of the workload runs in a fresh
interpreter (``worker.py``), one after another, until ``--seconds`` have
passed.  The host this was tuned on (2 shared vCPUs) changes speed by up
to 2x within seconds, for every program alike, so the two times are
scaled to the reference speed of ``calibrate.py``, whose probe is timed
every 0.02 s of the set-up and of each segment of a pass (a job, a figure
cell, an artifact export) and at their boundaries; each segment is
scaled by the mean of its probes.  Every metric is the median over the
passes, and the unscaled wall times are printed as text lines.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced pass with the median wall time, so its
layer self times plus ``unwrapped.self_s`` add up to its ``trace.run_s``.

Every pass checks its simulated outputs (bit-exact recovery against the
clean twin, observed versus scheduled kills, zero monitor violations and
determinism divergences) and hashes them; all passes of a run must
produce the same digest.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` (jobs) and ``metrics``.
The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
#: no pass starts once this many seconds have gone, so a run ends in time
#: even on a machine much slower than the one the run length was set on
LAST_START_S = 110.0
WORKER_TIMEOUT_S = 170.0


def worker_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p)
    # CI switches that would change what a job does
    for name in ("REPRO_STRICT_MONITOR", "REPRO_STRICT_SLO"):
        env.pop(name, None)
    return env


def run_pass(workload: str, seed: int, traced: bool) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    proc = subprocess.run(cmd, env=worker_env(), stdout=subprocess.PIPE,
                          timeout=WORKER_TIMEOUT_S, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with {proc.returncode}: "
                         f"{' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(workload: str, seed: int, seconds: float,
               traced_too: bool) -> List[List[dict]]:
    """Untraced passes (and, alternating, traced ones) for ``seconds``.

    A round (one pass, or one untraced and one traced pass) starts only
    if it would end no more than half a round after ``seconds``, so a
    run measures for ``seconds`` give or take half a round.
    """
    plain: List[dict] = []
    traced: List[dict] = []
    start = time.monotonic()
    while True:
        plain.append(run_pass(workload, seed, traced=False))
        if traced_too:
            traced.append(run_pass(workload, seed, traced=True))
        elapsed = time.monotonic() - start
        per_round = elapsed / len(plain)
        if (elapsed + per_round / 2 > seconds
                or elapsed + per_round > LAST_START_S):
            return [plain, traced]


def median(passes: List[dict], field: str) -> float:
    return statistics.median(p[field] for p in passes)


def end_to_end(plain: List[dict]) -> Dict[str, float]:
    run_s = median(plain, "run_ref_s")
    return {
        "setup_s": median(plain, "setup_ref_s"),
        "run_s": run_s,
        "rank_iters_per_s": plain[0]["rank_iters"] / run_s,
        "peak_rss_mb": median(plain, "rss_mb"),
    }


def per_layer(plain: List[dict], traced: List[dict]) -> Dict[str, float]:
    from layers import COUNT_KEYS, LAYER_KEYS

    # the traced pass with the median wall time, whole, so its self
    # times and remainder sum to its own run_s
    chosen = sorted(traced, key=lambda p: p["run_s"])[(len(traced) - 1) // 2]
    self_s, calls = chosen["self_s"], chosen["calls"]
    out: Dict[str, float] = {}
    for key in LAYER_KEYS:
        out[f"{key}.self_s"] = self_s.get(key, 0.0)
    for key in COUNT_KEYS:
        out[key] = calls.get(key, 0)
    checkpoints = calls.get("core.checkpoint.calls", 0)
    out["core.discover_per_checkpoint"] = (
        calls.get("core.discover.calls", 0) / checkpoints if checkpoints
        else 0.0)
    out.update(chosen["totals"])
    cpu_s = median(plain, "cpu_s")
    out.update({
        "host.cpu_s": cpu_s,
        "host.offcpu_s": median(plain, "run_s") - cpu_s,
        "host.gc.collections": median(plain, "gc_collections"),
        "host.gc.pause_s": median(plain, "gc_pause_s"),
        "trace.run_s": chosen["run_s"],
        "trace.overhead_s": median(traced, "run_s") - median(plain, "run_s"),
        "trace.unresolved_targets": len(chosen["unresolved"]),
        "unwrapped.self_s": chosen["run_s"] - sum(self_s.values()),
    })
    return out


def load_declared(trace: bool) -> Dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open("BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join("src", "repro")):
        print("run from the repository root: src/repro not found",
              file=sys.stderr)
        return 2
    declared = load_declared(bool(args.trace))

    plain, traced = run_passes(args.workload, args.seed, args.seconds,
                               traced_too=bool(args.trace))
    passes = plain + traced
    problems = sorted({p for one in passes for p in one["problems"]})
    digests = {p["digest"] for p in passes}
    if len(digests) > 1:
        problems.append(f"passes disagree on the simulated outputs: "
                        f"{sorted(digests)}")
    values = (per_layer(plain, traced) if args.trace
              else end_to_end(plain))
    if set(values) != set(declared):
        print(f"metrics differ from BENCHMARK.json: "
              f"{sorted(set(values) ^ set(declared))}", file=sys.stderr)
        return 2

    attempted = sum(p["jobs"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for name, unit in declared.items():
        print(f"{name:34s} {values[name]:>18.6g} {unit}")
    pass_times = ", ".join(f"{p['run_s']:.3f}" for p in plain)
    print(f"{'passes':34s} {len(plain):>18d} untraced, {len(traced)} traced"
          f" (untraced run_s: {pass_times})")
    print(f"{'wall_setup_s':34s} {median(plain, 'setup_s'):>18.6g} s "
          f"(median, unscaled)")
    print(f"{'wall_run_s':34s} {median(plain, 'run_s'):>18.6g} s "
          f"(median pass, unscaled)")
    print(f"{'failed_job_share':34s} {failed / attempted:>18.6g} ratio")
    print(f"{'simulated_digest':34s} {' '.join(sorted(digests)):>18s}")
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
