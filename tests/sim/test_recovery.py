"""The shared recovery vocabulary, and every consumer agreeing with it.

The unit tests pin the rank rules and the episode anchors on
constructed streams.  The agreement test records one fenix_kr_veloc run
in which two kills each consume a spare (the second lands inside the
first recovery) and checks that the explainer, the critical path, the
live series, the aligner and the exporters report what the shared
module reports: the same kills, the same identity and world rank for
every layer span, and the same anchor times.
"""

import pytest

from repro.align.engine import recovery_breakdown
from repro.align.keying import key_records
from repro.apps.heatdis import HeatdisConfig
from repro.experiments.common import paper_env
from repro.harness.runner import run_heatdis_job
from repro.live.series import TimeSeriesAggregator
from repro.monitor.explain import explain_failure
from repro.monitor.state import ProtocolStateTracker
from repro.profile.critical_path import extract_critical_path
from repro.profile.flamegraph import folded_stacks
from repro.profile.ledger import build_ledger
from repro.sim.failures import TimedFailure
from repro.sim.recovery import (
    KILL_KINDS,
    RECOVERY_DONE_SPANS,
    RecoveryWalk,
    identity_rank,
    recovery_episodes,
    world_rank,
)
from repro.sim.trace import TraceRecord
from repro.telemetry import Telemetry
from repro.telemetry.export import chrome_trace_events


def rec(time, kind, source="fenix", **fields):
    return TraceRecord(time=time, source=source, kind=kind, fields=fields)


# -- ranks ---------------------------------------------------------------


def test_identity_rank_reads_rank_and_layer_sources():
    assert identity_rank("rank4") == 4
    assert identity_rank("veloc.rank3") == 3
    assert identity_rank("imr.rank12") == 12
    assert identity_rank("fenix") is None
    assert identity_rank("veloc.server2") is None
    assert identity_rank("heatdis.attempt1") is None


def test_world_rank_prefers_rank_then_wrank_then_identity():
    assert world_rank(rec(0.0, "role", rank=5, wrank=7)) == 5
    assert world_rank(rec(0.0, "recover", "veloc.rank1", wrank=4)) == 4
    assert world_rank(rec(0.0, "recover", "veloc.rank1")) == 1
    assert world_rank(rec(0.0, "revoke", "mpi")) is None


# -- episodes --------------------------------------------------------------


def test_anchors_of_a_single_recovery():
    stream = [
        rec(1.0, "rank_killed", "world", rank=2),
        rec(1.1, "detect", rank=0),
        rec(1.2, "repair", generation=1),
        rec(1.3, "recover", "veloc.rank0", version=5),
        rec(1.4, "recover", "veloc.rank2", version=5),
        rec(1.5, "kr_region_commit", "kr.rank0"),
    ]
    (ep,) = recovery_episodes(stream)
    assert ep.kill is stream[0] and ep.time == 1.0
    assert ep.next_kill is None
    assert ep.repair is stream[2]
    assert ep.data_recovery is stream[3]
    assert ep.reentry is stream[5]


def test_repair_is_not_bounded_by_a_later_kill():
    stream = [
        rec(1.0, "rank_killed", "world", rank=2),
        rec(1.1, "rank_killed", "world", rank=3),
        rec(1.2, "repair", generation=1),
        rec(1.3, "checkpoint", "veloc.rank0", version=5),
    ]
    first, second = recovery_episodes(stream)
    assert first.next_kill is stream[1]
    assert first.repair is second.repair is stream[2]
    assert first.reentry is second.reentry is stream[3]


def test_a_kill_after_the_repair_closes_the_reentry_window():
    stream = [
        rec(1.0, "rank_killed", "world", rank=2),
        rec(1.2, "repair", generation=1),
        rec(1.3, "rank_killed", "world", rank=3),
        rec(1.4, "repair", generation=2),
        rec(1.5, "imr_store", "imr.rank0", version=5),
    ]
    first, second = recovery_episodes(stream)
    assert first.repair is stream[1] and first.reentry is None
    assert second.repair is stream[3] and second.reentry is stream[4]


def test_kills_in_one_instant_are_one_failure():
    stream = [
        rec(1.0, "rank_killed", "world", rank=2),
        rec(1.05, "rank_killed", "world", rank=0),
        rec(1.05, "rank_killed", "world", rank=1),
        rec(3.0, "rank_crashed", "world", rank=1),
    ]
    eps = recovery_episodes(stream)
    assert eps[0].next_kill is stream[1]
    assert eps[1].next_kill is eps[2].next_kill is stream[3]
    assert eps[3].next_kill is None


def test_data_recovery_closes_every_open_kill_from_any_rank():
    walk = RecoveryWalk()
    kills = [rec(1.0, "rank_killed", "world", rank=2),
             rec(1.1, "rank_killed", "world", rank=3)]
    for k in kills:
        assert walk.feed(k, k.kind, k.time) == []
    assert walk.open_recoveries == 2
    done = rec(2.0, "imr_restore", "imr.rank0", member=0, version=1)
    closed = walk.feed(done, done.kind, done.time)
    assert [ep.kill for ep in closed] == kills
    assert all(ep.data_recovery is done for ep in closed)
    assert walk.open_recoveries == 0


# -- every consumer agrees ------------------------------------------------


KILLS = [(1, 4.95), (2, 5.2)]


@pytest.fixture(scope="module")
def two_kill_run():
    """4 ranks, 2 spares; rank 2 dies after the first repair and before
    the first data recovery, so each kill consumes a spare."""
    tel = Telemetry()
    run_heatdis_job(
        paper_env(6, n_spares=2, pfs_servers=2), "fenix_kr_veloc", 4,
        HeatdisConfig(n_iters=40, modeled_bytes_per_rank=16e6,
                      work_multiplier=2000.0),
        10, plan=TimedFailure(KILLS), telemetry=tel,
    )
    records = list(tel.trace)
    return tel, records, recovery_episodes(records)


def test_the_run_substitutes_a_spare_for_each_kill(two_kill_run):
    _tel, records, episodes = two_kill_run
    assert [(world_rank(ep.kill), ep.time) for ep in episodes] == KILLS
    spares = [r.fields["spare"] for r in records
              if r.kind == "spare_activated"]
    assert spares == [4, 5]
    first, second = episodes
    # the second kill lands between the first repair and its data recovery
    assert first.repair.time < second.time < first.data_recovery.time


def test_consumers_report_the_same_kills(two_kill_run):
    tel, records, episodes = two_kill_run
    kills = [(ep.time, world_rank(ep.kill)) for ep in episodes]
    for i, (t, rank) in enumerate(kills):
        text = explain_failure(records, occurrence=i)
        assert text.startswith(f"recovery of rank {rank} failure at t={t:.6f}")
        path = extract_critical_path(tel, occurrence=i)
        assert (path.kill_time, path.kill_rank) == (t, rank)
    assert "only 2 failure(s) found" in explain_failure(records, occurrence=2)
    with pytest.raises(ValueError, match="only 2 kill"):
        extract_critical_path(tel, occurrence=2)
    keyed = [(k.record.time, k.wrank) for k in key_records(records)
             if k.kind in KILL_KINDS]
    assert keyed == kills
    lanes = TimeSeriesAggregator().replay(records).lanes
    assert {r: lane.kills for r, lane in lanes.items() if lane.kills} \
        == {rank: 1 for _t, rank in kills}
    tracker = ProtocolStateTracker().replay(records)
    assert {r for r, st in tracker.ranks.items() if not st.alive} \
        == {rank for _t, rank in kills}


def test_layer_spans_keep_both_ranks(two_kill_run):
    tel, records, _episodes = two_kill_run
    recovers = [s for s in tel.tracer.spans if s.name in RECOVERY_DONE_SPANS]
    identities = {identity_rank(s.source) for s in recovers}
    worlds = {world_rank(s) for s in recovers}
    # the spares did the dead ranks' recovery under their identities
    assert identities == {0, 1, 2, 3}
    assert worlds == {0, 3, 4, 5}
    # Chrome export: identity rank -- a spare's spans on the dead rank's track
    events = chrome_trace_events(tel)
    names = {e["tid"]: e["args"]["name"] for e in events
             if e["ph"] == "M" and e["name"] == "thread_name"}
    tracks = {names[e["tid"]] for e in events
              if e["ph"] == "X" and e["name"] in RECOVERY_DONE_SPANS}
    assert tracks == {f"rank{r}" for r in identities}
    # flamegraph and ledger: world rank -- the process that did the work
    roots = {stack.split(";")[0] for stack in folded_stacks(tel)
             if stack.split(";")[-1] in RECOVERY_DONE_SPANS}
    assert roots == {f"rank{r}" for r in worlds}
    ledger = build_ledger(tel)
    assert {r for r, rl in ledger.ranks.items()
            if rl.categories.get("veloc_recover", 0.0) > 0} == worlds
    # monitor state maps a record's identity to the member's world rank
    tracker = ProtocolStateTracker().replay(records)
    assert {r for r, st in tracker.ranks.items() if st.last_recover} \
        == worlds
    # the critical path charges the second recovery to the spare's chain
    path = extract_critical_path(tel, occurrence=1)
    assert 5 in path.chains and 2 not in path.chains


def test_consumers_read_the_same_anchor_times(two_kill_run):
    tel, records, episodes = two_kill_run
    first, second = episodes
    # live: each kill's latency ends at the first data recovery
    agg = TimeSeriesAggregator().replay(records)
    latencies = [v for _t, v in agg.series["recovery_latency_s"].samples]
    assert latencies == [ep.data_recovery.time - ep.time for ep in episodes]
    # explain: the resolving repair, then the re-entry before the next kill
    text = explain_failure(records, occurrence=0)
    assert f"failure at t={first.time:.6f}" in text
    assert f"generation {first.repair.fields['generation']}:" in text
    assert first.reentry is None
    assert "no post-repair protected step recorded" in text
    text = explain_failure(records, occurrence=1)
    reentry = text[text.index("-- re-entry"):]
    assert f"{second.reentry.time:14.6f}" in reentry
    assert second.reentry.kind in reentry
    # critical path: the first kill's window is cut at the next kill
    assert first.next_kill is second.kill
    path = extract_critical_path(tel, occurrence=0)
    assert path.reentry_time <= second.time
    # align: its stage walk reaches the first repair and data recovery
    path = recovery_breakdown(records)
    to_repair = first.time + path["ulfm"] + path["fenix"]
    assert to_repair == pytest.approx(first.repair.time, abs=1e-12)
    assert to_repair + path["veloc"] == pytest.approx(
        first.data_recovery.time, abs=1e-12)
