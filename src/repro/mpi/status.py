"""Message status, request objects, and payload size estimation."""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Generator, List

import numpy as np

from repro.sim.engine import Event

#: wildcard source/tag (mirror MPI_ANY_SOURCE / MPI_ANY_TAG)
ANY_SOURCE: int = -1
ANY_TAG: int = -1


@dataclass(frozen=True)
class Status:
    """Delivery metadata attached to every received message."""

    source: int
    tag: int
    nbytes: float


class Request:
    """Nonblocking-operation handle (isend/irecv).

    ``yield from req.wait()`` blocks the calling process until completion
    and returns the operation's value (``None`` for sends, the payload for
    receives).  ``req.test()`` is a non-blocking completion probe.
    """

    def __init__(self, event: Event, kind: str = "op") -> None:
        self._event = event
        self.kind = kind

    @property
    def event(self) -> Event:
        return self._event

    def test(self) -> bool:
        return self._event.processed

    def wait(self) -> Generator[Event, Any, Any]:
        value = yield self._event
        return value

    @staticmethod
    def waitall(requests: "List[Request]") -> Generator[Event, Any, list]:
        """Wait for every request; returns their values in order.

        Fails with the first request failure (like MPI_Waitall reporting
        an error class)."""
        if not requests:
            return []
        engine = requests[0]._event.engine
        values = yield engine.all_of([r._event for r in requests])
        return values


def payload_nbytes(payload: Any) -> float:
    """Estimate the wire size of a payload.

    numpy arrays report exactly; common containers recurse; everything else
    gets a small flat estimate.  Applications that model larger-than-actual
    problem sizes pass explicit ``modeled_nbytes`` instead.
    """
    if payload is None:
        return 0.0
    if isinstance(payload, np.ndarray):
        return float(payload.nbytes)
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return float(len(payload))
    if isinstance(payload, (bool, int, float, complex, np.generic)):
        return 8.0
    if isinstance(payload, str):
        return float(len(payload.encode("utf-8")))
    if isinstance(payload, (list, tuple, set, frozenset)):
        return 16.0 + sum(payload_nbytes(item) for item in payload)
    if isinstance(payload, dict):
        return 16.0 + sum(
            payload_nbytes(k) + payload_nbytes(v) for k, v in payload.items()
        )
    return 64.0


#: exact types whose values never change; a tuple of them is immutable too
_IMMUTABLE = frozenset((type(None), bool, int, float, complex, str, bytes))


def _deep_immutable(value: Any) -> bool:
    kind = type(value)
    return kind in _IMMUTABLE or (
        kind is tuple and _IMMUTABLE.issuperset(map(type, value)))


def freeze_payload(payload: Any) -> Any:
    """Snapshot a payload at send time (MPI value semantics).

    numpy arrays are copied and immutable scalars pass through.  A flat
    tuple of the exact types in ``_IMMUTABLE`` travels by reference too,
    and a list of such values is copied shallowly, which is exactly what
    ``deepcopy`` returns for it.  Everything else is deep-copied.
    """
    if isinstance(payload, np.ndarray):
        return payload.copy()
    if payload is None or isinstance(payload, (bool, int, float, complex, str, bytes)):
        return payload
    kind = type(payload)
    if kind is tuple and _deep_immutable(payload):
        return payload
    if kind is list and all(map(_deep_immutable, payload)):
        return payload.copy()
    return copy.deepcopy(payload)
