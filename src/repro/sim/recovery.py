"""The recovery vocabulary every trace consumer reads.

One module decides, for the monitor, profiler, live series, aligner,
exporters and trace validator alike: what a record's kind means (with
the span-name twin of each data-path kind), whose it is, which
resiliency layer owns it, and how one kill's recovery unfolds.

A layer record has two ranks.  Under spare substitution ("Shrink or
Substitute", arXiv:1801.04523) a replacement process adopts the dead
rank's checkpoint identity: its VeloC records are sourced ``veloc.rank3``
while the work ran on world rank 16.  :func:`identity_rank` reads the
identity from the source; :func:`world_rank` names the process.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Iterable, List, Optional

#: kinds that mark a failed process (one recovery episode each)
KILL_KINDS = ("rank_killed", "rank_crashed")

#: every kind that records a death, including the world marking it dead
DEATH_KINDS = KILL_KINDS + ("rank_dead",)

#: rank lifecycle: what the failure plan injects and mpirun/Fenix observe
LIFECYCLE_KINDS = frozenset(DEATH_KINDS + ("rank_exit",))

#: kinds whose arrival proves a rank's data was brought back
RECOVERY_DONE_KINDS = ("recover", "imr_restore")

#: kinds proving the first resumed protected step *completed* (restores
#: happen inside that step, so the boundary must be its end)
REENTRY_KINDS = ("kr_region_commit", "checkpoint", "imr_store")

#: telemetry span name of each data-path record kind
SPAN_OF = {
    "kr_region_commit": "kr.commit",
    "checkpoint": "veloc.checkpoint",
    "imr_store": "imr.store",
    "recover": "veloc.recover",
    "imr_restore": "imr.restore",
}
RECOVERY_DONE_SPANS = tuple(SPAN_OF[k] for k in RECOVERY_DONE_KINDS)
REENTRY_SPANS = tuple(SPAN_OF[k] for k in REENTRY_KINDS)

_IDENTITY = re.compile(r"^(?:[\w.]+\.)?rank(\d+)$")


@lru_cache(maxsize=4096)  # every trace record asks; sources repeat
def identity_rank(source: str) -> Optional[int]:
    """Checkpoint-identity rank of a ``rankN`` or ``<layer>.rankN``
    source (``veloc.rank3`` -> 3), None for every other source."""
    m = _IDENTITY.match(source)
    return int(m.group(1)) if m else None


def world_rank(rec: Any) -> Optional[int]:
    """World rank of the process that did a trace record's or span's
    work: its ``rank`` field, else ``wrank``, else the identity rank."""
    fields = rec.fields
    value = fields.get("rank")
    if value is None:
        value = fields.get("wrank")
    if value is not None:
        return int(value)
    return identity_rank(rec.source)


#: ULFM: communicator-level fault-tolerance collectives (``detect`` is
#: charged to ULFM like the profile critical path does)
_ULFM_KINDS = frozenset({"comm_create", "revoke", "agree", "shrink", "detect"})

#: VeloC / data layer: checkpoint clients, flush servers, IMR buddies
_VELOC_KINDS = frozenset({"checkpoint", "recover", "flush_submit",
                          "flush_done", "drain_done"})


def layer_of(rec: Any) -> str:
    """Resiliency-layer attribution of one record.

    The vocabulary matches :mod:`repro.profile`'s critical-path edges:
    ``process`` (rank lifecycle), ``ulfm``, ``fenix``, ``kr``,
    ``veloc``, ``recompute``, ``app``.
    """
    kind = rec.kind
    if kind in LIFECYCLE_KINDS:
        return "process"
    if kind == "detect":
        return "ulfm"
    if rec.source == "fenix":
        return "fenix"
    if kind in _ULFM_KINDS:
        return "ulfm"
    if kind.startswith("kr_"):
        return "kr"
    if kind in _VELOC_KINDS or kind.startswith("imr_"):
        return "veloc"
    if kind.startswith("recompute"):
        return "recompute"
    return "app"


@dataclass(eq=False)
class Episode:
    """One kill and the records that anchor its recovery (None: not
    seen in the stream fed so far)."""

    kill: Any
    #: simulated time of the kill
    time: float
    #: the first kill at a later time (kills in one instant are one failure)
    next_kill: Any = None
    #: the first Fenix ``repair`` or ``abort`` after the kill, however
    #: many further kills come first
    repair: Any = None
    #: the first ``recover``/``imr_restore`` after the kill, from any rank
    data_recovery: Any = None
    #: the first re-entry record after the repair, unless a kill comes first
    reentry: Any = None


_ANCHOR_KINDS = frozenset(KILL_KINDS + ("repair", "abort")
                          + RECOVERY_DONE_KINDS + REENTRY_KINDS)


class RecoveryWalk:
    """Kill -> recovery episodes, fed one record at a time.

    ``feed`` takes the kind and time explicitly, so telemetry instants
    (``name``/``start``) walk the same way as trace records.
    """

    def __init__(self) -> None:
        self.episodes: List[Episode] = []
        self._no_next_kill: List[Episode] = []
        self._no_repair: List[Episode] = []
        self._no_recovery: List[Episode] = []
        self._no_reentry: List[Episode] = []

    @property
    def open_recoveries(self) -> int:
        """Kills whose data recovery has not been seen yet."""
        return len(self._no_recovery)

    def feed(self, rec: Any, kind: str, time: float) -> List[Episode]:
        """Advance the walk by one record; returns the episodes whose
        data recovery ``rec`` completes."""
        if kind not in _ANCHOR_KINDS:
            return []
        if kind in KILL_KINDS:
            waiting = []
            for ep in self._no_next_kill:
                if ep.time < time:
                    ep.next_kill = rec
                else:
                    waiting.append(ep)
            ep = Episode(rec, time)
            waiting.append(ep)
            self._no_next_kill = waiting
            self._no_repair.append(ep)
            self._no_recovery.append(ep)
            self._no_reentry = []
            self.episodes.append(ep)
        elif kind in ("repair", "abort") and rec.source == "fenix":
            for ep in self._no_repair:
                ep.repair = rec
            self._no_reentry += self._no_repair
            self._no_repair = []
        elif kind in RECOVERY_DONE_KINDS:
            done, self._no_recovery = self._no_recovery, []
            for ep in done:
                ep.data_recovery = rec
            return done
        elif kind in REENTRY_KINDS:
            for ep in self._no_reentry:
                ep.reentry = rec
            self._no_reentry = []
        return []


def recovery_episodes(records: Iterable[Any]) -> List[Episode]:
    """Every kill's episode in a recorded trace-record stream."""
    walk = RecoveryWalk()
    for rec in records:
        walk.feed(rec, rec.kind, rec.time)
    return walk.episodes
