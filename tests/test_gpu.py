"""GPU substrate tests: caches, interconnect, SM issue, warps."""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from repro.config import MemoryMode, default_config
from repro.core.platforms import PLATFORMS
from repro.gpu.cache import SetAssocCache
from repro.gpu.gpu import GpuModel
from repro.gpu.interconnect import Interconnect
from repro.harness.executor import RunConfig, SimulationJob, traces_for
from repro.workloads.registry import get_workload, get_workload_def
from repro.workloads.source import MaterializedTraceSource
from repro.workloads.synthetic import WarpTrace
from repro.workloads.trace import FileTraceSource, TraceMeta, save_stream


def tiny_traces(n_warps=4, n_acc=6, line=128):
    return [
        WarpTrace(
            gaps=np.full(n_acc, 3, dtype=np.int64),
            addrs=np.arange(n_acc, dtype=np.int64) * line * (w + 1),
            writes=np.zeros(n_acc, dtype=bool),
        )
        for w in range(n_warps)
    ]


class TestCache:
    def test_miss_then_hit(self):
        c = SetAssocCache(1024, 2, 64)
        hit, _ = c.access(0, False)
        assert not hit
        hit, _ = c.access(0, False)
        assert hit

    def test_lru_eviction(self):
        c = SetAssocCache(2 * 64, 2, 64)  # one set, two ways
        c.access(0, False)
        c.access(64, False)
        c.access(0, False)  # refresh line 0
        _, evicted = c.access(128, False)  # evicts line 64 (LRU)
        assert evicted is not None
        assert evicted.addr == 64

    def test_dirty_eviction_flagged(self):
        c = SetAssocCache(2 * 64, 2, 64)
        c.access(0, True)
        c.access(64, False)
        _, evicted = c.access(128, False)
        assert evicted.dirty
        assert c.stats.writebacks == 1

    def test_write_hit_marks_dirty(self):
        c = SetAssocCache(2 * 64, 2, 64)
        c.access(0, False)
        c.access(0, True)
        c.access(64, False)
        _, evicted = c.access(128, False)
        assert evicted.dirty

    def test_flush_returns_dirty_lines(self):
        c = SetAssocCache(1024, 2, 64)
        c.access(0, True)
        c.access(64, False)
        dirty = c.flush()
        assert [e.addr for e in dirty] == [0]
        assert not c.contains(0)

    def test_hit_rate(self):
        c = SetAssocCache(1024, 2, 64)
        c.access(0, False)
        c.access(0, False)
        assert c.stats.hit_rate == pytest.approx(0.5)

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            SetAssocCache(1000, 3, 64)

    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=200))
    @settings(max_examples=30)
    def test_occupancy_never_exceeds_ways(self, lines):
        c = SetAssocCache(4 * 64, 2, 64)  # 2 sets x 2 ways
        for line in lines:
            c.access(line * 64, False)
        for set_index in range(c.num_sets):
            assert c.set_occupancy(set_index) <= 2


class TestInterconnect:
    def test_latency_added(self):
        noc = Interconnect(latency_ns=20.0, bandwidth_bits_per_ns=1024.0)
        t = noc.traverse(0, 1024)
        assert t == 1000 + 20_000  # 1 ns occupancy + 20 ns latency

    def test_bandwidth_serializes(self):
        noc = Interconnect(latency_ns=0.0, bandwidth_bits_per_ns=1.0)
        noc.traverse(0, 1000)
        t = noc.traverse(0, 1000)
        assert t == 2_000_000

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            Interconnect(bandwidth_bits_per_ns=0)
        with pytest.raises(ValueError):
            Interconnect().traverse(0, 0)


class TestGpuModel:
    def test_run_completes_all_warps(self):
        cfg = default_config(MemoryMode.PLANAR)
        model = GpuModel(PLATFORMS["Oracle"], cfg, get_workload("backp"), tiny_traces())
        result = model.run()
        assert result.demand_requests == 4 * 6
        assert result.exec_time_ps > 0

    def test_instruction_accounting(self):
        cfg = default_config(MemoryMode.PLANAR)
        model = GpuModel(PLATFORMS["Oracle"], cfg, get_workload("backp"), tiny_traces())
        result = model.run()
        # Each access: 3 compute insts + 1 memory inst.
        assert result.instructions == 4 * 6 * 4

    def test_caches_absorb_repeats(self):
        cfg = default_config(MemoryMode.PLANAR)
        n = 8
        traces = [
            WarpTrace(
                gaps=np.ones(n, dtype=np.int64),
                addrs=np.zeros(n, dtype=np.int64),  # same line repeatedly
                writes=np.zeros(n, dtype=bool),
            )
        ]
        model = GpuModel(
            PLATFORMS["Oracle"], cfg, get_workload("backp"), traces, model_caches=True
        )
        result = model.run()
        assert result.counters.get("gpu.l1_hits", 0) >= n - 1

    def test_empty_traces_rejected(self):
        cfg = default_config()
        with pytest.raises(ValueError):
            GpuModel(PLATFORMS["Oracle"], cfg, get_workload("backp"), [])

    def test_deterministic(self):
        cfg = default_config(MemoryMode.PLANAR)
        r1 = GpuModel(PLATFORMS["Ohm-BW"], cfg, get_workload("backp"), tiny_traces()).run()
        r2 = GpuModel(PLATFORMS["Ohm-BW"], cfg, get_workload("backp"), tiny_traces()).run()
        assert r1.exec_time_ps == r2.exec_time_ps
        assert r1.counters == r2.counters

    def test_migration_bandwidth_fraction_bounds(self):
        cfg = default_config(MemoryMode.TWO_LEVEL)
        model = GpuModel(PLATFORMS["Ohm-base"], cfg, get_workload("backp"), tiny_traces())
        result = model.run()
        assert 0.0 <= result.migration_bandwidth_fraction <= 1.0


class TestModelLifetime:
    """A finished model is freed by reference counting alone.

    ``run()`` suspends the cyclic collector for its drain, so any cycle
    through a model keeps the whole model — slices, devices, traces —
    alive until the next full collection (DESIGN.md §7).
    """

    @pytest.mark.parametrize("streamed", [False, True], ids=["materialized", "file"])
    @pytest.mark.parametrize(
        "platform,mode",
        [
            ("Oracle", MemoryMode.PLANAR),
            ("Origin", MemoryMode.PLANAR),
            ("Ohm-BW", MemoryMode.PLANAR),
            ("Ohm-BW", MemoryMode.TWO_LEVEL),
        ],
    )
    def test_finished_model_is_freed_by_refcount(self, platform, mode, streamed, tmp_path):
        job = SimulationJob(platform, "pagerank", mode, RunConfig(num_warps=8, accesses_per_warp=8))
        cfg = job.resolved_config()
        spec = get_workload_def("pagerank").spec
        traces = traces_for(job, cfg)
        source = MaterializedTraceSource(traces)
        if streamed:
            meta = TraceMeta("pagerank", platform, mode.value, cfg.gpu.line_bytes, len(traces), spec)
            source = FileTraceSource(save_stream(tmp_path / "t.jsonl.gz", meta, source))
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            model = GpuModel(PLATFORMS[platform], cfg, spec, source)
            model.run()
            refs = [weakref.ref(o) for o in (model, model.memory.slices[0], source)]
            del model, source
            assert [r() for r in refs] == [None, None, None]
        finally:
            if was_enabled:
                gc.enable()


class TestEventCount:
    """Every access is exactly two engine events: a burst and a memory issue.

    The count is fixed by the trace alone, whatever the platform, mode or
    trace source — only the simulated clock may vary between them.
    """

    @pytest.mark.parametrize("streamed", [False, True], ids=["materialized", "file"])
    @pytest.mark.parametrize(
        "platform,mode",
        [
            ("Origin", MemoryMode.PLANAR),
            ("Ohm-BW", MemoryMode.PLANAR),
            ("Ohm-base", MemoryMode.TWO_LEVEL),
        ],
    )
    def test_two_events_per_access(self, platform, mode, streamed, tmp_path):
        warps, accesses = 48, 32
        job = SimulationJob(
            platform, "pagerank", mode, RunConfig(num_warps=warps, accesses_per_warp=accesses)
        )
        cfg = job.resolved_config()
        spec = get_workload_def("pagerank").spec
        traces = traces_for(job, cfg)
        counts = []
        for run in range(2):
            source = MaterializedTraceSource(traces)
            if streamed:
                meta = TraceMeta("pagerank", platform, mode.value, cfg.gpu.line_bytes, len(traces), spec)
                source = FileTraceSource(save_stream(tmp_path / f"t{run}.jsonl.gz", meta, source))
            model = GpuModel(PLATFORMS[platform], cfg, spec, source)
            model.run()
            assert model.engine.pending() == 0
            counts.append(model.engine.events_processed)
        assert counts[0] == counts[1] == 2 * warps * accesses
