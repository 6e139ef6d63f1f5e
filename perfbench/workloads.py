"""The benchmark workloads: inputs from a seed, one pass, checks, digest.

Every workload drives the simulator only through its public front doors
(figure cell drivers, ``run_*_job``, ``run_cells`` and the observability
entry points), one job at a time, inline (``jobs=1``) and without a run
cache.  A workload's ``setup(seed)`` builds everything the pass needs
(environments, configs, failure plans); ``run(inputs)`` executes one
pass and returns a :class:`Pass`.  The seed picks only the victims of
the one-kill plans, so every pass of a workload does the same amount of
work whatever the seed.  The campaign's exponential plans keep the
report CLI's default seeds: their number of kills, and so the work of a
pass, would otherwise vary with the seed.

Front doors are looked up as module attributes at call time, so the
traced pass (see ``layers.py``) sees every call.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import repro.harness as harness
from calibrate import METER
from repro.apps import HeatdisConfig
from repro.experiments import campaign, fig5_heatdis, fig6_minimd
from repro.experiments.common import paper_env
from repro.profile import critical_path, flamegraph
from repro.report import exemplars, html as report_html, ledger as report_ledger
from repro.sim.failures import IterationFailure, RankKilledError
from repro.telemetry import Telemetry, export
from repro.util.units import parse_size

#: the SLO rules file shipped with the repository
RULES_PATH = os.path.join("examples", "slo_rules.json")
#: the host-cost anchor ``python -m repro.report run`` reads by default
BENCH_ANCHOR = "BENCH_simulator.json"


@dataclass
class Job:
    """One simulated job of a pass and what its checks need."""

    label: str
    n_ranks: int
    #: nominal iterations / steps, fixed by the workload definition
    iters: int
    report: Any = None
    error: str = ""
    #: label of the clean job whose final state this job must reproduce
    twin: str = ""
    #: kills the job's plan scheduled / kills that fired (None: unchecked)
    kills_expected: Optional[int] = None
    kills_observed: Optional[int] = None


@dataclass
class Pass:
    jobs: List[Job] = field(default_factory=list)
    #: further simulated outputs (exported artifacts, scorecards)
    artifacts: Dict[str, Any] = field(default_factory=dict)
    #: failed checks that belong to no single job
    problems: List[str] = field(default_factory=list)
    #: host seconds of each segment of the pass (a job, a cell, an
    #: artifact export) at the reference speed of ``calibrate.py``, in
    #: order; together they cover the pass
    scaled: Dict[str, float] = field(default_factory=dict)
    _probe: int = 0
    _mark: float = 0.0

    def __post_init__(self) -> None:
        self._probe = METER.boundary()
        self._mark = time.perf_counter()

    def lap(self, label: str) -> None:
        """End the segment ``label``: it lasted since the previous lap."""
        end = time.perf_counter()
        probe = METER.boundary()
        _, ref = METER.measure(self._probe, probe, self._mark, end)
        self.scaled[label] = self.scaled.get(label, 0.0) + ref
        self._probe, self._mark = probe, time.perf_counter()


class KillCounter:
    """Counts the rank kills ``IterationFailure`` plans actually fire,
    in total and per plan object (a determinism-audit replay runs a
    copy of the plan, so its kills are not the primary run's).

    Installed for every pass, traced or not: the plan's ``check`` is
    called once per rank iteration, so the counting wrapper costs far
    less than the noise of a pass.
    """

    def __init__(self) -> None:
        self.count = 0
        self.by_plan: Dict[IterationFailure, int] = {}
        original = IterationFailure.check
        counter = self

        def check(plan, rank, iteration):
            try:
                original(plan, rank, iteration)
            except RankKilledError:
                counter.count += 1
                counter.by_plan[plan] = counter.by_plan.get(plan, 0) + 1
                raise

        IterationFailure.check = check


def _run_job(out: Pass, kills: KillCounter, job: Job,
             call: Callable[[Optional[IterationFailure]], Any],
             plan: Optional[IterationFailure] = None) -> Any:
    """Run ``call(plan)`` as one job, recording its report or its error."""
    fired = kills.count
    try:
        job.report = call(plan)
    except Exception as exc:  # noqa: BLE001 - a failed job is a data point
        job.error = f"{type(exc).__name__}: {exc}"
    if job.report is not None:
        job.kills_expected = job.report.failures
        job.kills_observed = (kills.count - fired if plan is None
                              else kills.by_plan.get(plan, 0))
    out.jobs.append(job)
    out.lap(job.label)
    return job.report


def _run_cell(out: Pass, kills: KillCounter, label: str, n_ranks: int,
              iters: int, with_kill: bool, call: Callable[[], Any]) -> None:
    """Run one figure cell: a clean job and, optionally, its one-kill twin."""
    clean = Job(f"{label}/clean", n_ranks, iters)
    failed = Job(f"{label}/kill", n_ranks, iters, twin=clean.label)
    fired = kills.count
    try:
        cell = call()
    except Exception as exc:  # noqa: BLE001 - a failed job is a data point
        clean.error = failed.error = f"{type(exc).__name__}: {exc}"
        out.jobs += [clean, failed] if with_kill else [clean]
        out.lap(label)
        return
    clean.report, clean.kills_expected, clean.kills_observed = (
        cell.clean, cell.clean.failures, 0)
    out.jobs.append(clean)
    if with_kill:
        failed.report = cell.failed
        if cell.failed is None:
            failed.error = "cell returned no failure run"
        else:
            failed.kills_expected = cell.failed.failures
            failed.kills_observed = kills.count - fired
        out.jobs.append(failed)
    out.lap(label)


def _heat_cfg(data: str, n_iters: int) -> HeatdisConfig:
    """The Fig. 5 Heatdis problem, with the Fig. 5 driver's settings."""
    return HeatdisConfig(
        local_rows=8, cols=16, modeled_bytes_per_rank=parse_size(data),
        n_iters=n_iters, compute_jitter=0.05,
        work_multiplier=fig5_heatdis.WORK_MULTIPLIER,
    )


def _kill_plan(victim: int, interval: int, after: int) -> IterationFailure:
    return IterationFailure.between_checkpoints(victim, interval, after,
                                                fraction=0.95)


# -- fig5-grid -----------------------------------------------------------------

FIG5_RANKS = 16


def fig5_setup(seed: int) -> List[tuple]:
    rng = random.Random(seed)
    return [(strategy, size, rng.randrange(FIG5_RANKS))
            for size in fig5_heatdis.DATA_SIZES
            for strategy in fig5_heatdis.FIG5_STRATEGIES]


def fig5_run(cells: List[tuple], kills: KillCounter) -> Pass:
    out = Pass()
    for strategy, size, victim in cells:
        _run_cell(
            out, kills, f"{strategy}/{size}", FIG5_RANKS,
            fig5_heatdis.N_ITERS, strategy != "none",
            lambda: fig5_heatdis.run_fig5_cell(
                strategy, size, FIG5_RANKS, with_failure=True,
                victim=victim, pfs_servers=1),
        )
    return out


# -- scale-256 -----------------------------------------------------------------

SCALE_RANKS = (256, 16)
SCALE_ITERS = 30
SCALE_INTERVAL = 9
SCALE_STRATEGY = "fenix_kr_veloc"


def scale_setup(seed: int) -> List[dict]:
    rng = random.Random(seed)
    cfg = _heat_cfg("64MB", SCALE_ITERS)
    return [
        dict(n_ranks=n, cfg=cfg,
             env=paper_env(n_nodes=n + 1, n_spares=1, pfs_servers=16),
             plan=_kill_plan(rng.randrange(n), SCALE_INTERVAL, 2))
        for n in SCALE_RANKS
    ]


def scale_run(jobs: List[dict], kills: KillCounter) -> Pass:
    out = Pass()
    for spec in jobs:
        n = spec["n_ranks"]

        def job(plan, n=n, env=spec["env"], cfg=spec["cfg"]):
            return harness.run_heatdis_job(env, SCALE_STRATEGY, n, cfg,
                                           SCALE_INTERVAL, plan=plan)

        clean = Job(f"r{n}/clean", n, SCALE_ITERS)
        _run_job(out, kills, clean, job)
        _run_job(out, kills, Job(f"r{n}/kill", n, SCALE_ITERS,
                                 twin=clean.label), job, spec["plan"])
    return out


# -- observed-failures -------------------------------------------------------

OBSERVED_RANKS = 16
OBSERVED_STRATEGIES = ["kr_veloc", "fenix_veloc", "fenix_kr_veloc",
                       "fenix_kr_imr"]
CAMPAIGN_RANKS = 8
CAMPAIGN_ITERS = 60
#: ``python -m repro.report run``'s default failure-plan seeds
CAMPAIGN_SEEDS = list(campaign.DEFAULT_SEEDS)
EXEMPLAR_ITERS = 30  # collect_exemplars' default job length


def observed_setup(seed: int) -> dict:
    rng = random.Random(seed)
    bench = None
    if os.path.exists(BENCH_ANCHOR):
        with open(BENCH_ANCHOR, "r", encoding="utf-8") as fh:
            bench = json.load(fh)
    return dict(
        env=paper_env(n_nodes=OBSERVED_RANKS + 1, pfs_servers=1),
        cfg=_heat_cfg("64MB", fig5_heatdis.N_ITERS),
        plans=[(s, _kill_plan(rng.randrange(OBSERVED_RANKS),
                              fig5_heatdis.CKPT_INTERVAL,
                              fig5_heatdis.FAIL_AFTER_CKPT))
               for s in OBSERVED_STRATEGIES],
        rules=RULES_PATH,
        campaign_seeds=CAMPAIGN_SEEDS,
        bench=bench,
    )


def observed_run(inp: dict, kills: KillCounter) -> Pass:
    out = Pass()
    env, cfg, n = inp["env"], inp["cfg"], OBSERVED_RANKS
    interval, iters = fig5_heatdis.CKPT_INTERVAL, fig5_heatdis.N_ITERS
    # the failure-free reference every exact recovery must reproduce
    twin = Job("none/clean", n, iters)
    _run_job(out, kills, twin, lambda plan: harness.run_heatdis_job(
        env, "none", n, cfg, interval, plan=plan))
    for strategy, plan in inp["plans"]:
        tel = Telemetry()
        report = _run_job(
            out, kills, Job(f"{strategy}/kill", n, iters, twin=twin.label),
            lambda plan: harness.run_heatdis_job(
                env, strategy, n, cfg, interval, plan=plan, telemetry=tel,
                strict_monitor=True, profile=True, rules=inp["rules"],
                determinism_audit=True),
            plan)
        if report is None:
            continue
        # the artifacts a user opens after an observed failure run
        path = critical_path.extract_critical_path(tel)
        out.artifacts[strategy] = {
            "chrome_trace": export.to_chrome_trace(tel, tel.trace),
            "critical_path": critical_path.format_critical_path(path),
            "folded": flamegraph.format_folded(flamegraph.folded_stacks(tel)),
        }
        out.lap(f"{strategy}/artifacts")
    _campaign(out, inp)
    return out


def _campaign(out: Pass, inp: dict) -> None:
    """The seeded campaign report, as ``python -m repro.report run``
    builds it, without a run cache."""
    seeds = inp["campaign_seeds"]
    strategies = list(campaign.DEFAULT_STRATEGIES)
    n_cells = 1 + len(strategies) * len(seeds)
    try:
        ledger = campaign.run_campaign_grid(
            scales=(CAMPAIGN_RANKS,), seeds=seeds, strategies=strategies,
            n_iters=CAMPAIGN_ITERS, jobs=1, cache=None)
    except Exception as exc:  # noqa: BLE001 - a failed job is a data point
        out.jobs += [Job(f"campaign/{i}", CAMPAIGN_RANKS, CAMPAIGN_ITERS,
                         error=f"{type(exc).__name__}: {exc}")
                     for i in range(n_cells)]
        out.lap("campaign/grid")
        return
    for record in ledger.runs:
        out.jobs.append(Job(f"campaign/{record.label}", record.n_ranks,
                            CAMPAIGN_ITERS, report=record))
    out.lap("campaign/grid")
    ledger.exemplars = exemplars.collect_exemplars(
        strategies, n_ranks=CAMPAIGN_RANKS)
    out.jobs += [Job(f"exemplar/{s}", CAMPAIGN_RANKS, EXEMPLAR_ITERS,
                     report=ledger.exemplars[s]) for s in strategies]
    out.lap("campaign/exemplars")
    scorecard = report_ledger.build_scorecard(ledger)
    if inp["bench"] is not None:
        scorecard["flags"] = report_ledger.flag_anomalies(
            ledger, bench=inp["bench"])
    page = report_html.render_html(ledger, scorecard,
                                   title="Campaign resilience report")
    if "</html>" not in page:
        out.problems.append("campaign HTML report is incomplete")
    out.artifacts["campaign"] = {
        "runs": [_simulated(r.to_dict()) for r in ledger.runs],
        "scorecard": scorecard["strategies"],
    }
    out.lap("campaign/report")


# -- fig6-minimd ---------------------------------------------------------------

FIG6_RANKS = (4, 8, 16)


def fig6_setup(seed: int) -> List[tuple]:
    rng = random.Random(seed)
    return [(strategy, n, rng.randrange(n))
            for n in FIG6_RANKS for strategy in fig6_minimd.FIG6_STRATEGIES]


def fig6_run(cells: List[tuple], kills: KillCounter) -> Pass:
    out = Pass()
    for strategy, n, victim in cells:
        _run_cell(
            out, kills, f"{strategy}/r{n}", n, fig6_minimd.N_STEPS,
            strategy != "none",
            lambda: fig6_minimd.run_fig6_cell(strategy, n, with_failure=True,
                                              victim=victim),
        )
    return out


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int], Any]
    run: Callable[[Any, KillCounter], Pass]


WORKLOADS: Dict[str, Workload] = {
    "fig5-grid": Workload(fig5_setup, fig5_run),
    "scale-256": Workload(scale_setup, scale_run),
    "observed-failures": Workload(observed_setup, observed_run),
    "fig6-minimd": Workload(fig6_setup, fig6_run),
}


# -- checks and digest ---------------------------------------------------------


def final_state(report: Any) -> Dict[int, List[bytes]]:
    """Per-rank application state arrays (Heatdis ``grid``, MiniMD
    ``x``/``v``) as raw bytes, for bit-exact comparison."""
    state = {}
    for rank, outcome in sorted(getattr(report, "results", {}).items()):
        arrays = [outcome[k] for k in ("grid", "x", "v") if k in outcome]
        state[rank] = [repr((a.dtype.str, a.shape)).encode() + a.tobytes()
                       for a in arrays]
    return state


def check(result: Pass) -> List[str]:
    """Every failed check, as ``label: reason``; a job may fail several."""
    problems = list(result.problems)
    by_label = {job.label: job for job in result.jobs}
    for job in result.jobs:
        if job.error:
            problems.append(f"{job.label}: raised {job.error}")
            continue
        report = job.report
        if job.kills_expected != job.kills_observed:
            problems.append(
                f"{job.label}: plan scheduled {job.kills_expected} kill(s), "
                f"{job.kills_observed} fired")
        n_violations = _count(getattr(report, "violations", 0))
        n_divergences = _count(getattr(report, "divergences", 0))
        if n_violations or n_divergences:
            problems.append(f"{job.label}: {n_violations} monitor "
                            f"violation(s), {n_divergences} divergence(s)")
        twin = by_label.get(job.twin)
        if job.twin and (twin is None or twin.report is None):
            problems.append(f"{job.label}: clean twin {job.twin} missing")
        elif twin is not None:
            state, reference = final_state(report), final_state(twin.report)
            if not state or state != reference:
                problems.append(f"{job.label}: final state differs from "
                                f"{job.twin}")
    return problems


def failed_jobs(result: Pass, problems: List[str]) -> int:
    labels = {p.split(": ", 1)[0] for p in problems}
    return sum(1 for job in result.jobs if job.label in labels)


def digest(result: Pass) -> str:
    """One hash over the pass's simulated outputs: wall times, buckets,
    platform counters, data-path volume, final state, artifacts."""
    h = hashlib.sha256()
    for job in result.jobs:
        h.update(job.label.encode())
        report = job.report
        if report is None:
            h.update(b"error")
            continue
        if isinstance(report, dict):  # an exemplar's rendered artifacts
            doc = report
        elif hasattr(report, "to_dict"):  # a campaign run record
            doc = report.to_dict()
        else:
            doc = {
                "wall_time": report.wall_time,
                "attempts": report.attempts,
                "failures": report.failures,
                "buckets": report.buckets,
                "platform": report.platform,
                "data_path": report.data_path,
                "violations": len(report.violations),
                "alerts": len(report.alerts),
                "divergences": len(report.divergences),
            }
        h.update(_canonical(_simulated(doc)))
        for arrays in final_state(report).values():
            for blob in arrays:
                h.update(blob)
    h.update(_canonical(result.artifacts))
    return h.hexdigest()[:16]


def rank_iterations(result: Pass) -> int:
    """Σ ranks × nominal iterations over the pass's jobs."""
    return sum(job.n_ranks * job.iters for job in result.jobs)


def _count(value: Any) -> int:
    return len(value) if isinstance(value, (list, tuple)) else int(value)


def _simulated(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Drop the host-side fields of a run record."""
    return {k: v for k, v in doc.items()
            if k not in ("host_seconds", "cached")}


def _canonical(obj: Any) -> bytes:
    return json.dumps(obj, sort_keys=True, default=repr).encode()
