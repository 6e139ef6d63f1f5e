"""A campaign cell whose kill lands on a rank queued for a PFS lock.

The exponential plan of seed 1405159178 kills a kr_veloc rank while it
waits on a PFS I/O-server lock.  The lock was later granted to the dead
waiter and never released, so the relaunched attempt blocked forever
(``DeadlockError``).  A killed waiter now gives its request back.
"""

from repro.experiments.campaign import run_campaign_grid


def test_kill_while_queued_on_a_pfs_lock_recovers():
    ledger = run_campaign_grid(
        scales=(8,), seeds=[1405159178], strategies=["kr_veloc"],
        n_iters=60, jobs=1, cache=None)
    run = ledger.runs[-1]
    assert run.label == "kr_veloc/r8/s1405159178"
    assert run.attempts == 4
