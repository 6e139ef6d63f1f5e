"""The post-mortem explainer walks a failure from kill to re-entry."""

from repro.monitor.explain import explain_failure
from repro.sim.recovery import recovery_episodes


def find_failures(records, rank=None):
    """The kill of every recovery episode (optionally one world rank's)."""
    return [ep.kill for ep in recovery_episodes(records)
            if rank is None or ep.kill.fields["rank"] == rank]

STAGES = (
    "t0 failure",
    "t1 detection & revoke",
    "t2 repair-gate rendezvous",
    "t3 repair",
    "t4 roles & agreement",
    "t5 restore",
    "re-entry",
)


class TestRecoveryPath:
    def test_all_stages_present_in_order(self, veloc_run):
        _, _, records = veloc_run
        text = explain_failure(records)
        positions = [text.index(s) for s in STAGES]
        assert positions == sorted(positions)

    def test_header_names_the_failed_rank(self, veloc_run):
        _, _, records = veloc_run
        assert "recovery of rank 2 failure" in explain_failure(records)

    def test_spare_substitution_shown_in_repair_stage(self, veloc_run):
        _, _, records = veloc_run
        text = explain_failure(records)
        t3 = text[text.index("t3 repair"):text.index("t4 roles")]
        assert "spare_activated" in t3
        assert "repair" in t3

    def test_restores_shown_before_reentry(self, imr_run):
        _, _, records = imr_run
        text = explain_failure(records)
        t5 = text[text.index("t5 restore"):text.index("re-entry")]
        # the recovered rank pulled its member back from the buddy
        assert "imr_restore" in t5
        assert "tier=buddy" in t5

    def test_rendezvous_lists_gate_arrivals(self, veloc_run):
        _, _, records = veloc_run
        text = explain_failure(records)
        t2 = text[text.index("t2 repair-gate"):text.index("t3 repair")]
        assert "gate_arrive" in t2


class TestSelection:
    def test_rank_filter(self, veloc_run):
        _, _, records = veloc_run
        assert "recovery of rank 2" in explain_failure(records, rank=2)
        assert "no failure found for rank 0" in explain_failure(records, rank=0)

    def test_occurrence_out_of_range(self, veloc_run):
        _, _, records = veloc_run
        text = explain_failure(records, rank=2, occurrence=5)
        assert "occurrence 5 out of range" in text

    def test_find_failures(self, veloc_run):
        _, _, records = veloc_run
        kills = find_failures(records)
        assert len(kills) == 1
        assert kills[0].fields["rank"] == 2
        assert find_failures(records, rank=3) == []


class TestDegenerateTraces:
    def test_truncated_trace_reports_missing_repair(self, veloc_run):
        _, _, records = veloc_run
        kill = find_failures(records)[0]
        truncated = records[: records.index(kill) + 1]
        text = explain_failure(truncated)
        assert "no repair found after this failure" in text

    def test_empty_trace(self):
        assert "no failure found" in explain_failure([])
