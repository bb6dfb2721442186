"""The in-process hot tier: a bounded LRU of verified result payloads.

Serve and coord processes look the same handful of keys up over and
over (request dedupe replays, straggler duplicates, portfolio rungs
shared across requests).  The hot tier short-circuits those repeats
entirely in memory: no ``open``, no JSON parse, no checksum pass.

What it stores is the *result payload dict* of an entry that already
passed the disk tier's full verification — never raw bytes, and never
a live :class:`~repro.engine.jobs.JobResult` (results are mutable and
callers own the one they get; sharing one object across lookups would
let one caller's mutation corrupt another's replay).  Each hit
rebuilds a fresh ``JobResult`` from the payload, which is the cheap
part of a lookup — the expensive parts (I/O, ``json.loads``, SHA-256)
are exactly what the tier skips.

Population happens only on a *verified disk read*, never on ``put``:
a just-stored entry may be damaged after publication (torn write on a
dying machine, the ``cache.torn_write`` chaos site), and a hot tier
primed at store time would replay a result whose entry of record is
gone — corruption must cost one re-execution, never get masked.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any

from repro.obs import get_registry

#: Default bound on cached payloads.  Entries are small (a few KB of
#: result dict), so the default absorbs a whole Table 1 portfolio batch
#: several times over while staying far under a megabyte-scale budget.
DEFAULT_HOT_CAPACITY = 1024


class HotTier:
    """Bounded LRU mapping job key -> verified result payload dict."""

    def __init__(self, capacity: int = DEFAULT_HOT_CAPACITY):
        self.capacity = max(0, capacity)
        self.hits = 0
        self.evictions = 0
        self._payloads: OrderedDict[str, dict[str, Any]] = OrderedDict()

    def __len__(self) -> int:
        return len(self._payloads)

    def get(self, key: str) -> dict[str, Any] | None:
        """The payload under ``key`` (refreshed to most-recently-used),
        or ``None``.  Misses are not counted here — only the composite
        cache knows whether the disk tier saved the lookup."""
        payload = self._payloads.get(key)
        if payload is None:
            return None
        self._payloads.move_to_end(key)
        self.hits += 1
        get_registry().counter(
            "repro_cache_hot_hits_total",
            "Result-cache lookups served from the in-process hot tier.",
        ).inc()
        return payload

    def put(self, key: str, payload: dict[str, Any]) -> None:
        """Remember a payload that passed disk-tier verification."""
        if self.capacity == 0:
            return
        self._payloads[key] = payload
        self._payloads.move_to_end(key)
        while len(self._payloads) > self.capacity:
            self._payloads.popitem(last=False)
            self.evictions += 1
            get_registry().counter(
                "repro_cache_hot_evictions_total",
                "Hot-tier payloads evicted by the LRU bound.",
            ).inc()

    def clear(self) -> None:
        self._payloads.clear()
