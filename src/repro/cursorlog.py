"""The cursor-poll contract of PROTOCOLS §1.5, implemented once.

A client pulls state by polling with the highest sequence number it
has seen and receiving what is newer; the facility side never opens a
connection. The telemetry bus (``Telemetry_Poll``), the gateway job
feed (``Job_Poll``) and the time-series export ring (``Obs_Scrape``)
all keep their history in a :class:`CursorLog` and answer with
:func:`poll_reply`; every client-side reader keeps its place with a
:class:`CursorTail`. No :mod:`repro.obs` dependency, so the gateway can
use it too.
"""

from __future__ import annotations

import threading
from collections import deque
from itertools import islice
from typing import Any, Callable, Generic, TypeVar

T = TypeVar("T")


class CursorLog(Generic[T]):
    """Bounded ring of items numbered 1, 2, 3, ... in append order."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._lock = threading.Lock()
        self._ring: deque[T] = deque(maxlen=capacity)
        #: sequence number of the newest item (0 before the first)
        self.latest_seq = 0

    def append(self, make: Callable[[int], T]) -> T:
        """Append and return ``make(seq)``; it runs under the lock, so
        sequence order, ring order and any clock reading it takes agree."""
        with self._lock:
            item = make(self.latest_seq + 1)
            self.latest_seq += 1
            self._ring.append(item)
        return item

    def read_since(
        self,
        cursor: int = 0,
        limit: int = 256,
        match: Callable[[T], bool] | None = None,
    ) -> tuple[list[T], int, int]:
        """Items after ``cursor``, as ``(items, next_cursor, gap)``.

        A cursor below 0 or above :attr:`latest_seq` (issued by an
        earlier incarnation) reads as 0. ``gap`` counts the items evicted
        past the cursor. At most ``limit`` items that ``match`` come back,
        oldest first; rejected items still advance ``next_cursor``. A
        ``limit`` below 1 is an empty page with the normalised cursor and
        ``gap`` 0, so the gap is reported once, by the next real page.
        """
        cursor, limit = int(cursor), int(limit)
        with self._lock:
            latest = self.latest_seq
            if cursor < 0 or cursor > latest:
                cursor = 0
            if limit < 1:
                return [], cursor, 0
            oldest = latest - len(self._ring) + 1
            first = max(cursor + 1, oldest)
            items: list[T] = []
            next_cursor = cursor
            for seq, item in enumerate(
                islice(self._ring, first - oldest, None), start=first
            ):
                next_cursor = seq
                if match is None or match(item):
                    items.append(item)
                    if len(items) >= limit:
                        break
        return items, next_cursor, max(0, oldest - 1 - cursor)


def poll_reply(
    schema: str,
    service: str,
    page: tuple[list[Any], int, int],
    key: str = "events",
    encode: Callable[[Any], Any] | None = None,
) -> dict[str, Any]:
    """The ``{schema, service, cursor, gap, <key>}`` reply of a poll verb."""
    items, cursor, gap = page
    return {
        "schema": schema,
        "service": service,
        "cursor": cursor,
        "gap": gap,
        key: [encode(item) for item in items] if encode else list(items),
    }


class CursorTail:
    """Client half of the contract: one source's cursor, gaps and failures.

    ``fetch(cursor=..., **kwargs)`` performs one poll and returns its
    :func:`poll_reply` document, whose item list is ``key``.
    """

    def __init__(self, fetch: Callable[..., Any], key: str = "events"):
        self._fetch = fetch
        self._key = key
        self.cursor = 0
        self.gap_total = 0
        self.failures = 0
        #: the name the source gave in its last reply
        self.service = "?"

    def poll(self, **kwargs: Any) -> tuple[list[Any], int]:
        """One poll; returns the reply's ``(items, gap)``.

        The reply's cursor is taken as it is: a restarted producer
        answers with a smaller one, 0 included. A fetch that raises, or a
        reply without a cursor, counts in :attr:`failures` and re-raises.
        """
        try:
            reply = self._fetch(cursor=self.cursor, **kwargs)
            cursor = int(reply["cursor"])
            gap = int(reply.get("gap") or 0)
            items = list(reply.get(self._key) or ())
        except Exception:
            self.failures += 1
            raise
        self.cursor = cursor
        self.gap_total += gap
        self.service = str(reply.get("service", "?"))
        return items, gap
