"""Job-runner behaviour across strategies, with and without failures."""

import numpy as np
import pytest

from repro.apps import HeatdisConfig
from repro.harness import STRATEGIES, run_heatdis_job, run_minimd_job
from repro.harness.report import (
    HEATDIS_CATEGORIES,
    MINIMD_CATEGORIES,
    format_report_table,
    summarize_categories,
)
from repro.sim import IterationFailure
from repro.util.errors import ConfigError
from tests.harness.conftest import small_env

CKPT = 10
FAIL_ITER = 3 * CKPT + 9  # ~95% between checkpoints 3 and 4


def fail_plan(rank=1):
    return IterationFailure([(rank, FAIL_ITER)])


class TestCleanRuns:
    @pytest.mark.parametrize(
        "strategy", ["none", "veloc", "kr_veloc", "fenix_veloc", "fenix_kr_veloc",
                     "fenix_kr_imr"]
    )
    def test_completes_and_accounts(self, strategy, heat_cfg):
        rep = run_heatdis_job(small_env(), strategy, 4, heat_cfg, CKPT)
        assert rep.attempts == 1
        assert rep.wall_time > 0
        assert rep.category("app_compute") > 0
        assert rep.category("app_mpi") > 0
        assert len(rep.results) == 4
        if STRATEGIES[strategy].checkpointing:
            assert rep.category("checkpoint_function") > 0
        else:
            assert rep.category("checkpoint_function") == 0.0

    def test_results_identical_across_strategies(self, heat_cfg):
        grids = {}
        for strategy in ["none", "veloc", "kr_veloc", "fenix_kr_veloc"]:
            rep = run_heatdis_job(small_env(), strategy, 4, heat_cfg, CKPT)
            grids[strategy] = np.concatenate(
                [rep.results[r]["grid"] for r in range(4)]
            )
        base = grids.pop("none")
        for strategy, grid in grids.items():
            np.testing.assert_array_equal(base, grid, err_msg=strategy)

    def test_partial_rollback_without_threshold_fails_at_front_door(self):
        # a ConfigError before the engine starts, not a SimulationError
        # wrapping it from inside the simulated job driver
        with pytest.raises(ConfigError, match="convergence threshold"):
            run_heatdis_job(small_env(), "fenix_kr_partial", 4,
                            HeatdisConfig(n_iters=10), 3)

    def test_wall_time_exceeds_accounted(self, heat_cfg):
        rep = run_heatdis_job(small_env(), "fenix_kr_veloc", 4, heat_cfg, CKPT)
        assert rep.wall_time >= rep.accounted
        assert rep.other > 0  # launch + init + finalize exist


class TestFailureRuns:
    def test_fenix_recovers_in_one_attempt(self, heat_cfg):
        rep = run_heatdis_job(
            small_env(), "fenix_kr_veloc", 4, heat_cfg, CKPT, plan=fail_plan()
        )
        assert rep.attempts == 1
        assert rep.category("data_recovery") > 0
        assert rep.category("recompute") > 0
        assert len(rep.results) == 4

    def test_relaunch_strategy_takes_two_attempts(self, heat_cfg):
        rep = run_heatdis_job(
            small_env(), "kr_veloc", 4, heat_cfg, CKPT, plan=fail_plan()
        )
        assert rep.attempts == 2
        assert rep.category("data_recovery") > 0
        assert len(rep.results) == 4

    def test_veloc_alone_relaunch(self, heat_cfg):
        rep = run_heatdis_job(
            small_env(), "veloc", 4, heat_cfg, CKPT, plan=fail_plan()
        )
        assert rep.attempts == 2
        assert len(rep.results) == 4

    def test_failure_results_match_clean(self, heat_cfg):
        clean = run_heatdis_job(small_env(), "fenix_kr_veloc", 4, heat_cfg, CKPT)
        failed = run_heatdis_job(
            small_env(), "fenix_kr_veloc", 4, heat_cfg, CKPT, plan=fail_plan()
        )
        for r in range(4):
            np.testing.assert_array_equal(
                clean.results[r]["grid"], failed.results[r]["grid"]
            )

    def test_relaunch_failure_results_match_clean(self, heat_cfg):
        clean = run_heatdis_job(small_env(), "kr_veloc", 4, heat_cfg, CKPT)
        failed = run_heatdis_job(
            small_env(), "kr_veloc", 4, heat_cfg, CKPT, plan=fail_plan()
        )
        for r in range(4):
            np.testing.assert_array_equal(
                clean.results[r]["grid"], failed.results[r]["grid"]
            )

    def test_fenix_cheaper_recovery_than_relaunch(self, heat_cfg):
        """The paper's headline: Fenix saves teardown/restart ("Other")."""
        fenix = run_heatdis_job(
            small_env(), "fenix_kr_veloc", 4, heat_cfg, CKPT, plan=fail_plan()
        )
        relaunch = run_heatdis_job(
            small_env(), "kr_veloc", 4, heat_cfg, CKPT, plan=fail_plan()
        )
        assert fenix.wall_time < relaunch.wall_time
        assert fenix.other < relaunch.other

    def test_imr_failure_recovery(self, heat_cfg):
        clean = run_heatdis_job(small_env(), "fenix_kr_imr", 4, heat_cfg, CKPT)
        failed = run_heatdis_job(
            small_env(), "fenix_kr_imr", 4, heat_cfg, CKPT, plan=fail_plan()
        )
        for r in range(4):
            np.testing.assert_array_equal(
                clean.results[r]["grid"], failed.results[r]["grid"]
            )


class TestMiniMDJobs:
    def test_clean_run_phases(self, md_cfg):
        rep = run_minimd_job(small_env(), "fenix_kr_veloc", 4, md_cfg, 6)
        for cat in ("force_compute", "neighboring", "communicator",
                    "checkpoint_function"):
            assert rep.category(cat) > 0, cat

    def test_failure_recovery_exact(self, md_cfg):
        clean = run_minimd_job(small_env(), "fenix_kr_veloc", 4, md_cfg, 6)
        plan = IterationFailure([(2, 17)])
        failed = run_minimd_job(
            small_env(), "fenix_kr_veloc", 4, md_cfg, 6, plan=plan
        )
        for r in range(4):
            np.testing.assert_array_equal(
                clean.results[r]["x"], failed.results[r]["x"]
            )

    def test_manual_strategy_rejected(self, md_cfg):
        with pytest.raises(ConfigError):
            run_minimd_job(small_env(), "veloc", 4, md_cfg, 6)


class TestReporting:
    def test_summary_adds_to_wall(self, heat_cfg):
        rep = run_heatdis_job(small_env(), "fenix_kr_veloc", 4, heat_cfg, CKPT)
        summary = summarize_categories(rep, HEATDIS_CATEGORIES)
        assert sum(summary.values()) == pytest.approx(rep.wall_time)

    def test_table_renders(self, heat_cfg):
        reps = [
            run_heatdis_job(small_env(), s, 2, heat_cfg, CKPT)
            for s in ("none", "fenix_kr_veloc")
        ]
        table = format_report_table(reps, HEATDIS_CATEGORIES, title="demo")
        assert "fenix_kr_veloc" in table
        assert "app_compute" in table

    def test_empty_table(self):
        assert format_report_table([]) == "(no data)"
