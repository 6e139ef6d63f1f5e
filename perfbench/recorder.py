"""Coroutine-aware span recorder for host-time attribution by layer.

The simulator's layer APIs are mostly generators that the discrete-event
engine resumes interleaved with every other rank's coroutines.  Timing a
generator call from its first resume to its return would charge it for
all the other ranks' work in between, so the recorder times only the
*slices* spent inside each resume of a wrapped generator.

Slices nest the way Python frames nest: when a wrapped generator resumes
another wrapped generator (``yield from``) or calls a wrapped function,
the inner slice runs inside the outer one on the same call stack.  A
span's self time is its slice durations minus the durations of the
wrapped slices directly inside them, so the self times of all keys plus
the time spent outside every wrapped boundary add up exactly to the
traced interval.

Totals stay in memory (one entry per key) until the caller reads them at
the end of the pass; nothing is written while the program runs.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


class SpanRecorder:
    """Per-key call counts and self times, from wrapped callables."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: count key -> number of calls
        self.calls: Dict[str, int] = {}
        #: time key -> host self seconds
        self.self_s: Dict[str, float] = {}
        # open slices, innermost last: [time key, start, wrapped child time]
        self._stack: List[list] = []
        # (owner, attribute, original) for every installed patch
        self._patches: List[Tuple[Any, str, Any]] = []
        #: "owner.attribute" targets that did not resolve at install time
        self.unresolved: List[str] = []

    # -- slices ------------------------------------------------------------

    def _enter(self, key: str) -> None:
        self._stack.append([key, self.clock(), 0.0])

    def _exit(self) -> None:
        key, start, child = self._stack.pop()
        duration = self.clock() - start
        self.self_s[key] = self.self_s.get(key, 0.0) + duration - child
        if self._stack:
            self._stack[-1][2] += duration

    def _slices(self, gen: Any, key: str):
        """Drive ``gen``, timing each resume as one slice of ``key``."""
        value, error = None, None
        while True:
            self._enter(key)
            try:
                if error is None:
                    out = gen.send(value)
                else:
                    out = gen.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                self._exit()
            value, error = None, None
            try:
                value = yield out
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # noqa: BLE001 - forwarded to gen
                error = exc

    # -- wrapping ----------------------------------------------------------

    def wrap(self, fn: Callable, key: str,
             count_key: Optional[str] = None) -> Callable:
        """A callable that records ``fn``'s calls and self time.

        Calls count under ``count_key`` (default ``<key>.calls``), time
        accrues under ``key``.  When ``fn`` returns a generator, the
        generator's resumes are timed as further slices of ``key``.
        """
        count_key = count_key or f"{key}.calls"
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            recorder.calls[count_key] = recorder.calls.get(count_key, 0) + 1
            recorder._enter(key)
            try:
                out = fn(*args, **kwargs)
            finally:
                recorder._exit()
            if isinstance(out, types.GeneratorType):
                return recorder._slices(out, key)
            return out

        return wrapper

    def patch(self, owner: Any, attribute: str, key: str,
              count_key: Optional[str] = None) -> bool:
        """Replace ``owner.attribute`` (a module global or a method on
        the class that defines it) by its wrapper; False if absent."""
        raw = vars(owner).get(attribute)
        if not callable(raw):
            self.unresolved.append(f"{_name(owner)}.{attribute}")
            return False
        setattr(owner, attribute, self.wrap(raw, key, count_key))
        self._patches.append((owner, attribute, raw))
        return True

    def patch_item(self, mapping: Dict, item: Any, key: str,
                   count_key: Optional[str] = None) -> bool:
        """Wrap one value of a dispatch table (looked up by key)."""
        if item not in mapping:
            self.unresolved.append(f"{item!r} in dispatch table")
            return False
        original = mapping[item]
        mapping[item] = self.wrap(original, key, count_key)
        self._patches.append((mapping, item, original))
        return True

    def install(self, targets: Iterable[Tuple[str, str, str, Optional[str]]]
                ) -> None:
        """Patch every ``(owner path, attribute, key, count key)``.

        The owner path is ``package.module`` or ``package.module:Class``;
        an attribute ``[name]`` wraps that entry of the module-level
        dict the path names (``package.module:TABLE``).
        """
        for path, attribute, key, count_key in targets:
            owner = resolve(path)
            if owner is None:
                self.unresolved.append(f"{path}.{attribute}")
            elif attribute.startswith("[") and attribute.endswith("]"):
                self.patch_item(owner, attribute[1:-1], key, count_key)
            else:
                self.patch(owner, attribute, key, count_key)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attribute] = original
            else:
                setattr(owner, attribute, original)

    def __enter__(self) -> "SpanRecorder":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()


def resolve(path: str) -> Any:
    """``pkg.mod`` or ``pkg.mod:Name`` to the object, or None."""
    module_name, _, name = path.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(owner, name, None) if name else owner


def _name(owner: Any) -> str:
    return getattr(owner, "__qualname__", None) or getattr(
        owner, "__name__", repr(owner)
    )
