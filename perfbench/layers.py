"""The layer boundaries the traced pass wraps, from outside ``src/``.

Each row is ``(owner, attribute, time key, count key)``.  The owner is
where the *caller* looks the name up: a module global for functions
imported by name (``repro.core.context`` imports ``discover_views``), or
the class that defines a method (``CommHandle``'s MPI calls also cover
``FenixCommHandle``, which inherits them).  Rows sharing a time key
form one layer; the count key defaults to ``<time key>.calls``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

Target = Tuple[str, str, str, Optional[str]]


def _methods(owner: str, key: str, names: str) -> List[Target]:
    return [(owner, name, key, None) for name in names.split()]


HANDLE = "repro.mpi.handle:CommHandle"

TARGETS: List[Target] = [
    # sim: the engine loop, the modelled network / PFS, the event trace
    ("repro.sim.engine:Engine", "run", "sim.engine", "sim.engine.runs"),
    ("repro.sim.network:Network", "transfer", "sim.network", None),
    *_methods("repro.sim.filesystem:ParallelFileSystem", "sim.pfs",
              "write read"),
    ("repro.sim.trace:Trace", "emit", "sim.trace", None),
    # mpi: point-to-point, collectives, ULFM
    *_methods(HANDLE, "mpi.p2p",
              "send recv recv_status sendrecv isend irecv waitall"),
    *_methods(HANDLE, "mpi.coll",
              "allreduce allgather bcast barrier reduce gather scatter "
              "alltoall scan exscan"),
    # ULFM: every revoke / agree / shrink, whether a CommHandle or Fenix's
    # repair issues it, lands on the communicator
    *_methods("repro.mpi.comm:Communicator", "mpi.ulfm",
              "revoke agree_gate shrink_gate"),
    # core: Kokkos-Resilience context
    ("repro.core.context", "discover_views", "core.discover", None),
    ("repro.core.context:Context", "checkpoint", "core.checkpoint", None),
    ("repro.core.context:Context", "latest_version", "core.latest_version",
     None),
    # fenix: the resilient-region driver and in-memory redundancy
    ("repro.fenix.runtime:FenixSystem", "run", "fenix.run", None),
    ("repro.fenix.runtime:WorldGate", "arrive", "fenix.repair", None),
    *_methods("repro.fenix.imr:IMRStore", "fenix.imr",
              "store restore available_versions"),
    # kokkos: view allocation, subviews, host copies, the view registry
    ("repro.kokkos.runtime:KokkosRuntime", "view", "kokkos", None),
    *_methods("repro.kokkos.view:View", "kokkos",
              "subview copy_data load_data"),
    *_methods("repro.kokkos.registry:ViewRegistry", "kokkos",
              "register unregister find declare_alias is_alias census"),
    # veloc: client snapshot / recover, node-server flush submission
    ("repro.veloc.client:VeloCClient", "checkpoint", "veloc.checkpoint",
     None),
    ("repro.veloc.client:VeloCClient", "recover", "veloc.recover", None),
    ("repro.veloc.server:VeloCServer", "submit", "veloc.submit", None),
    # apps: one iteration / step, its numpy kernels, halo / ghost exchange
    *[(owner, "heatdis_iteration", "apps.step", None)
      for owner in ("repro.apps.heatdis", "repro.apps.heatdis_manual")],
    ("repro.apps.minimd", "minimd_step", "apps.step", None),
    ("repro.apps.heatdis", "stencil_sweep", "apps.kernel", None),
    ("repro.apps.heatdis_elastic", "stencil_sweep", "apps.kernel", None),
    ("repro.apps.minimd:MiniMDState", "compute_forces", "apps.kernel", None),
    ("repro.apps.heatdis", "halo_exchange", "apps.exchange", None),
    ("repro.apps.minimd", "exchange_ghosts", "apps.exchange", None),
    # harness: the job front doors, wherever callers look them up
    *[(owner, name, "harness.job", None)
      for owner in ("repro.harness", "repro.harness.runner")
      for name in ("run_heatdis_job", "run_minimd_job")],
    *[("repro.parallel.spec:_APP_RUNNERS", f"[{app}]", "harness.job", None)
      for app in ("heatdis", "minimd")],
    # parallel: the cell executor (one cell = one job, inline)
    *[(owner, "run_cells", "parallel", "parallel.calls")
      for owner in ("repro.parallel", "repro.experiments.fig5_heatdis",
                    "repro.experiments.fig6_minimd",
                    "repro.experiments.campaign")],
    ("repro.parallel.executor", "execute_cell", "parallel",
     "parallel.cells"),
    # observability layers
    *_methods("repro.telemetry.collector:Telemetry", "telemetry",
              "span instant inc set_gauge observe rank_metrics "
              "metrics_summary"),
    *_methods("repro.telemetry.metrics:MetricsRegistry", "telemetry",
              "inc set_gauge observe"),
    *_methods("repro.telemetry.spans:_SpanHandle", "telemetry",
              "__enter__ __exit__"),
    ("repro.telemetry.export", "to_chrome_trace", "telemetry", None),
    *_methods("repro.monitor.base:MonitorSuite", "monitor", "feed finish"),
    ("repro.profile.ledger", "build_ledger", "profile", None),
    ("repro.profile.critical_path", "extract_critical_path", "profile",
     None),
    ("repro.profile.critical_path", "format_critical_path", "profile", None),
    ("repro.profile.flamegraph", "folded_stacks", "profile", None),
    ("repro.profile.flamegraph", "format_folded", "profile", None),
    *_methods("repro.live.rules:LiveSession", "live", "feed finish"),
    ("repro.align.engine", "audit_traces", "align", None),
    ("repro.report.ledger", "build_scorecard", "report", None),
    ("repro.report.ledger", "flag_anomalies", "report", None),
    ("repro.report.html", "render_html", "report", None),
    ("repro.report.exemplars", "collect_exemplars", "report", None),
]

#: every time key, in report order (a key with no calls reports 0)
LAYER_KEYS: List[str] = list(dict.fromkeys(t[2] for t in TARGETS))

#: every count key, in report order
COUNT_KEYS: List[str] = list(dict.fromkeys(
    t[3] or f"{t[2]}.calls" for t in TARGETS
))
