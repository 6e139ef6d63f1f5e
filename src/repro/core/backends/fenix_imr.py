"""Fenix-IMR backend: buddy-memory checkpointing through the control layer.

This is the paper's future-work direction made concrete ("Further
integration of Fenix and Kokkos Resilience in the form of a data-resiliency
backend") and the implementation behind the "Fenix IMR" series of
Figure 5: the same checkpoint-region API, but versions live in pair-wise
redundant rank memory instead of the filesystem.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Set

from repro.core.backends.base import Backend, region_id_for
from repro.fenix.imr import IMRStore
from repro.kokkos.view import View
from repro.mpi.handle import CommHandle
from repro.sim.engine import Event
from repro.veloc.client import intersect_versions


class FenixIMRBackend(Backend):
    name = "fenix_imr"

    def __init__(self, imr: IMRStore, comm: CommHandle) -> None:
        self.imr = imr
        self.comm = comm
        self._views: Dict[int, View] = {}

    @property
    def ctx(self):
        return self.comm.ctx

    def register_views(self, views: List[View]) -> None:
        for view in views:
            self._views[region_id_for(view.label)] = view

    def checkpoint(self, version: int) -> Generator[Event, Any, None]:
        for member_id, view in self._views.items():
            yield from self.imr.store(self.ctx, self.comm, member_id, view, version)

    def restore(self, version: int, views: List[View]) -> Generator[Event, Any, None]:
        self.register_views(views)
        for member_id, view in self._views.items():
            yield from self.imr.restore(self.ctx, self.comm, member_id, view, version)

    def local_versions(self) -> Set[int]:
        """Versions every registered member can restore on this rank.

        After a repair (or on a fresh replacement process) no views are
        registered yet; the store's raw metadata answers instead -- the
        analogue of Kokkos Resilience re-fetching checkpoint metadata.
        """
        if not self._views:
            return self.imr.rank_versions(self.ctx, self.comm)
        sets = [
            self.imr.available_versions(self.ctx, self.comm, member_id)
            for member_id in self._views
        ]
        common = sets[0]
        for s in sets[1:]:
            common &= s
        return common

    def latest_version(self) -> Generator[Event, Any, int]:
        result = yield from intersect_versions(self.comm, self.local_versions())
        return result

    def reset(self, comm: CommHandle) -> None:
        self.comm = comm
        # a replacement process starts with no view objects; the next
        # checkpoint region re-registers what it discovers
        self._views.clear()
