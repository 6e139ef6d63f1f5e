"""repro.profile: per-layer cost attribution over the telemetry stream.

Three consumers of one span stream:

- :mod:`repro.profile.ledger` -- the exact per-rank time ledger (every
  simulated second in exactly one category, categories sum to makespan);
- :mod:`repro.profile.critical_path` -- the kill -> re-entry recovery
  chain with per-edge layer attribution;
- :mod:`repro.profile.flamegraph` -- folded-stack export for
  speedscope / flamegraph.pl.

``python -m repro.profile`` wraps all three plus a ledger-diff
regression mode for CI overhead budgets.
"""

from repro.profile.categories import CATEGORIES
from repro.profile.critical_path import (
    CriticalPath,
    extract_critical_path,
    format_critical_path,
)
from repro.profile.flamegraph import folded_stacks, write_folded
from repro.profile.ledger import (
    ConservationError,
    ProfileLedger,
    RankLedger,
    build_ledger,
    format_ledger,
)

__all__ = [
    "CATEGORIES",
    "ConservationError",
    "CriticalPath",
    "ProfileLedger",
    "RankLedger",
    "build_ledger",
    "extract_critical_path",
    "folded_stacks",
    "format_critical_path",
    "format_ledger",
    "write_folded",
]
