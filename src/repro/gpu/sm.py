"""Streaming multiprocessor: an issue server shared by its warps.

The SM issues one instruction per cycle; compute bursts from different
warps serialize on this capacity.  Memory instructions go through the
(optional) L1 cache, the interconnect and the memory system; the warp
sleeps until the response timestamp.

:meth:`StreamingMultiprocessor.access_memory` is the hot entry point:
warps hand it a bare ``(addr, is_write)`` pair, so cache hits complete
without ever allocating a :class:`~repro.sim.records.MemRequest` — a
request object is built only for background L2 writebacks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.gpu.cache import SetAssocCache
from repro.gpu.interconnect import Interconnect
from repro.sim.engine import Engine, freq_ghz_to_period_ps
from repro.sim.records import MemRequest
from repro.sim.stats import Stats

if TYPE_CHECKING:
    from repro.core.memsystem import MemorySystem

L1_HIT_LATENCY_CYCLES = 4
L2_HIT_LATENCY_CYCLES = 30


class StreamingMultiprocessor:  # reprolint: allow(R2) the fused warp drain probes sm.__dict__ to detect instance patches (gpu/warp.py uniformity check)
    """One SM: issue bandwidth + the memory path of its warps."""

    def __init__(
        self,
        sm_id: int,
        engine: Engine,
        memory: "MemorySystem",
        interconnect: Interconnect,
        stats: Stats,
        freq_ghz: float = 1.2,
        line_bytes: int = 128,
        l1: Optional[SetAssocCache] = None,
        l2: Optional[SetAssocCache] = None,
    ) -> None:
        self.sm_id = sm_id
        self.engine = engine
        self.memory = memory
        self.interconnect = interconnect
        self.stats = stats
        self.period_ps = freq_ghz_to_period_ps(freq_ghz)
        self.line_bytes = line_bytes
        self.l1 = l1
        self.l2 = l2  # shared; multiple SMs may hold the same object
        self._issue_free_at = 0
        # Pre-bound stat handles: every per-event name resolved once;
        # the busiest three are raw dict updates on constant keys.
        self._cdict = stats.counters
        self._lat_mem = stats.latency_handle("mem.latency_ps")
        self._l1_hit_ps = L1_HIT_LATENCY_CYCLES * self.period_ps
        self._l2_hit_ps = L2_HIT_LATENCY_CYCLES * self.period_ps
        self._line_bits = line_bytes * 8
        # Demand-path specialization: every demand miss moves exactly
        # one line, so the crossbar occupancy is a constant — computed
        # once here, letting the uncached fast path inline the traverse.
        self._noc_occupancy_ps = interconnect.occupancy_ps(self._line_bits)
        self._serve_addr = memory.serve_addr
        # Page-interleave routing, pre-resolved: when the memory system
        # is the real one (not a test double), the uncached fast path
        # picks the slice itself and calls its ``serve`` directly — the
        # ``serve_addr`` dispatch hop disappears from the per-event path.
        from repro.core.memsystem import MemorySystem

        if type(memory) is MemorySystem:
            # One-tuple constant pack for the uncached fast path: one
            # unpack replaces a dozen attribute chains per access.
            self._fp = (
                engine,
                interconnect,
                interconnect._cdict,
                self._line_bits,
                self._noc_occupancy_ps,
                interconnect.latency_ps,
                memory.slices,
                memory.page_bytes,
                memory._num_slices,
                self._cdict,
                self._lat_mem,
            )
        else:
            self._fp = None
        # Cache probes, pre-bound (caches are fixed at construction):
        # the cached path calls the probe directly instead of chasing
        # ``self.l1``/``self.l2`` per access.
        self._l1_access = l1.access if l1 is not None else None
        self._l2_access = l2.access if l2 is not None else None

    @property
    def fast_access(self):
        """The warp lane's memory entry point: the uncached configuration
        (every job the harness runs) skips the cache probes entirely.

        Resolved on read, not stored: a bound method kept on the
        instance would make every SM a reference cycle (DESIGN.md §7).
        """
        if self._l1_access is None and self._l2_access is None:
            return self._access_uncached
        return self.access_memory

    def issue_burst(self, instructions: int) -> int:
        """Claim issue slots for ``instructions``; returns finish time."""
        if instructions < 1:
            raise ValueError("a burst needs at least one instruction")
        free_at = self._issue_free_at
        now = self.engine.now
        start = now if now > free_at else free_at
        end = start + instructions * self.period_ps
        self._issue_free_at = end
        self._cdict["gpu.instructions"] += instructions
        return end

    def access_memory(self, addr: int, is_write: bool) -> int:
        """Run the memory path synchronously; returns completion time.

        Takes the bare access pair so L1 hits (the common case on
        cache-modelled runs) cost a tag probe and an add — no request
        record is allocated before the access commits to main memory.
        """
        now = self.engine.now
        l1_access = self._l1_access
        if l1_access is not None:
            hit, _ = l1_access(addr, is_write)
            if hit:
                self._cdict["gpu.l1_hits"] += 1
                return now + self._l1_hit_ps
        l2_access = self._l2_access
        if l2_access is not None:
            hit, evicted = l2_access(addr, is_write)
            if hit:
                self._cdict["gpu.l2_hits"] += 1
                return now + self._l2_hit_ps
            if evicted is not None and evicted.dirty:
                # Dirty L2 victim: write back to memory in the background.
                wb = MemRequest.demand(
                    evicted.addr, True, self.line_bytes, self.sm_id, -1, now
                )
                self.memory.serve(wb, now)
        arrive = self.interconnect.traverse(now, self._line_bits)
        complete = self.memory.serve_addr(addr, is_write, arrive)
        self._cdict["mem.demand_requests"] += 1
        self._lat_mem.record(complete - now)
        return complete

    def _access_uncached(self, addr: int, is_write: bool) -> int:
        """Demand path with no caches modelled: crossbar + memory system.

        Same arithmetic and the same counter-update order as
        :meth:`access_memory` falling through both cache probes, with
        the crossbar traverse inlined against the precomputed line
        occupancy (the ``int(round(...))`` per call goes away), the
        page-interleave routing resolved here (no ``serve_addr`` hop)
        and the latency stat updated in place (no ``record`` call).
        """
        fp = self._fp
        if fp is None:
            # Test doubles / custom memory systems: generic route.
            now = self.engine.now
            ic = self.interconnect
            busy = ic._busy_until
            start = now if now > busy else busy
            occupancy = self._noc_occupancy_ps
            ic._busy_until = start + occupancy
            noc_counters = ic._cdict
            noc_counters["noc.bits"] += self._line_bits
            noc_counters["noc.busy_ps"] += occupancy
            complete = self._serve_addr(
                addr, is_write, start + occupancy + ic.latency_ps
            )
            self._cdict["mem.demand_requests"] += 1
            value = complete - now
            lat = self._lat_mem
        else:
            (
                engine, ic, noc_counters, line_bits, occupancy,
                ic_latency, slices, page_bytes, n, cdict, lat,
            ) = fp
            now = engine.now
            busy = ic._busy_until
            start = now if now > busy else busy
            ic._busy_until = start + occupancy
            noc_counters["noc.bits"] += line_bits
            noc_counters["noc.busy_ps"] += occupancy
            if addr < 0:
                raise ValueError("negative address")
            page = addr // page_bytes
            complete = slices[page % n].serve(
                (page // n) * page_bytes + (addr - page * page_bytes),
                is_write,
                start + occupancy + ic_latency,
            )
            cdict["mem.demand_requests"] += 1
            value = complete - now
        # LatencyStat.record, inlined (same update rules).
        if lat.count == 0:
            lat.min_value = value
            lat.max_value = value
        elif value < lat.min_value:
            lat.min_value = value
        elif value > lat.max_value:
            lat.max_value = value
        lat.count += 1
        lat.total += value
        return complete
