"""Process-wide memo tables: the one eviction rule and the one weakref rule.

Per-kernel work (profiles, traces, rendered sources, token counts, the
emulated models' readings, parsed store views) is memoized once per
process in module-level tables of two kinds:

* :class:`Memo` — keyed by content (a digest, a path, a frozen spec).
  Reads are one lock-free ``dict.get``; writes take the table's lock.
  Once a write takes the table past ``cap`` entries, the oldest half (in
  insertion order) is dropped; ``cap=None`` never drops.
* :class:`IdentityMemo` — keyed by a live object (plus extra key parts).
  Each entry holds only a weak reference to its object, whose callback
  drops the entry when the object dies: a dead object frees its values,
  and a new object at a reused ``id()`` misses.

A memo is a value cache: emptying any table changes no result, only how
much work the next call repeats.
"""

from __future__ import annotations

import threading
import weakref
from itertools import islice
from typing import Hashable, Iterator


class Memo:
    """A content-keyed table, bounded by ``cap`` entries (``None``: no
    bound). ``get(key, default=None)`` is the table's own ``dict.get``."""

    def __init__(self, cap: int | None = None):
        self.cap = cap
        self._data: dict = {}
        self._lock = threading.Lock()
        self.get = self._data.get

    def put(self, key: Hashable, value):
        """Store ``value`` under ``key`` and return it."""
        with self._lock:
            self._data[key] = value
            self._trim()
        return value

    def setdefault(self, key: Hashable, value):
        """The value under ``key``, storing ``value`` there first if none."""
        with self._lock:
            value = self._data.setdefault(key, value)
            self._trim()
        return value

    def pop(self, key: Hashable, default=None):
        with self._lock:
            return self._data.pop(key, default)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def _trim(self) -> None:
        """Drop the oldest half once past ``cap`` (caller holds the lock)."""
        if self.cap is not None and len(self._data) > self.cap:
            for stale in list(islice(self._data, self.cap // 2)):
                del self._data[stale]

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator:
        """The keys, oldest first, as of the call."""
        with self._lock:
            return iter(list(self._data))


class IdentityMemo:
    """``(obj, *parts) → value`` for live objects ``obj``.

    ``parts`` (a cache root, a tokenizer digest) keep several values for
    one object apart. An entry lives exactly as long as its object.
    """

    def __init__(self):
        self._entries: dict[tuple, tuple[weakref.ref, object]] = {}
        self._lock = threading.Lock()

    def get(self, obj: object, *parts: Hashable):
        """The value put for this very ``obj`` and ``parts``, or ``None``."""
        hit = self._entries.get((id(obj), *parts))
        if hit is not None and hit[0]() is obj:
            return hit[1]
        return None

    def put(self, obj: object, *parts: Hashable, value):
        """Store ``value`` for ``obj`` and ``parts`` and return it."""
        key = (id(obj), *parts)

        # Everything the callback touches rides in as a default argument:
        # at interpreter shutdown module globals are torn down to None
        # before late weakref callbacks fire.
        def evict(_ref, key=key, entries=self._entries, lock=self._lock):
            with lock:
                entries.pop(key, None)

        with self._lock:
            self._entries[key] = (weakref.ref(obj, evict), value)
        return value

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)
