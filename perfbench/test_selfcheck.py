"""Self-checks for the benchmark's own machinery.

Run from the repository root with ``python3 -m pytest perfbench -q``.
They stay out of the tier-1 run: pytest's ``testpaths`` there are
``tests`` and ``benchmarks`` only.
"""

from __future__ import annotations

import json
import sys
import tomllib
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from repro.config import MemoryMode  # noqa: E402
from repro.core.platforms import PLATFORMS  # noqa: E402
from repro.core.slices import (  # noqa: E402
    DramOnlySlice,
    OriginSlice,
    PlanarSlice,
    TwoLevelSlice,
)
from repro.gpu.gpu import GpuModel  # noqa: E402
from repro.harness.executor import (  # noqa: E402
    RunConfig,
    SimulationJob,
    stream_ops_threshold,
    traces_for,
)
from repro.sim.audit import Auditor  # noqa: E402
from repro.workloads.registry import get_workload_def  # noqa: E402
from repro.xpoint.controller import XPointController  # noqa: E402

import jobsets  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

TINY = RunConfig(num_warps=16, accesses_per_warp=24)


def recorded(platform: str, workload: str, mode: MemoryMode, max_events=None):
    """A plain run and a recorded strict-audited run of one tiny job."""
    job = SimulationJob(platform, workload, mode, TINY)
    cfg = job.resolved_config()
    spec = get_workload_def(workload).spec
    traces = traces_for(job, cfg)
    plain = GpuModel(PLATFORMS[platform], cfg, spec, traces).run()
    model = GpuModel(PLATFORMS[platform], cfg, spec, traces, auditor=Auditor(strict=True))
    with layers.recording(model) as streams:
        traced = model.run(max_events=max_events)
    return PLATFORMS[platform], cfg, model, plain, traced, streams


@pytest.mark.parametrize(
    "platform, mode, slice_cls",
    [
        ("Oracle", MemoryMode.PLANAR, DramOnlySlice),
        ("Origin", MemoryMode.PLANAR, OriginSlice),
        ("Ohm-BW", MemoryMode.PLANAR, PlanarSlice),
        ("Ohm-BW", MemoryMode.TWO_LEVEL, TwoLevelSlice),
    ],
)
def test_replay_reproduces_counters_per_slice_kind(platform, mode, slice_cls):
    plat, cfg, model, plain, traced, streams = recorded(platform, "stream_scan_r50", mode)
    assert type(model.memory.slices[0]) is slice_cls
    assert traced.fingerprint() == plain.fingerprint()
    assert len(streams.serve) == plain.demand_requests
    assert streams.dram
    replays = layers.replay_all(plat, cfg, streams, traced.counters)
    assert [r.problems for r in replays] == [[], [], []]
    assert [r.calls for r in replays] == [
        len(streams.serve), len(streams.dram), len(streams.xpoint)
    ]


@pytest.mark.parametrize(
    "layer, replay",
    [
        ("serve", layers.replay_core),
        ("dram", layers.replay_dram),
        ("xpoint", layers.replay_xpoint),
    ],
)
def test_replay_with_a_dropped_call_fails(layer, replay):
    plat, cfg, _, _, traced, streams = recorded(
        "Ohm-BW", "stream_scan_r50", MemoryMode.PLANAR
    )
    calls = getattr(streams, layer)
    assert len(calls) > 2
    dropped = calls[: len(calls) // 2] + calls[len(calls) // 2 + 1:]
    assert replay(plat, cfg, calls, traced.counters).problems == []
    assert replay(plat, cfg, dropped, traced.counters).problems != []


def test_xpoint_class_wrap_restored_when_the_traced_run_raises():
    originals = {name: getattr(XPointController, name) for name in layers.XP_OPS}
    with pytest.raises(RuntimeError, match="unfinished"):
        recorded("Ohm-BW", "pagerank", MemoryMode.PLANAR, max_events=10)
    for name, method in originals.items():
        assert getattr(XPointController, name) is method


def test_benchmark_stays_out_of_tier1_collection():
    config = tomllib.loads((ROOT / "pyproject.toml").read_text())
    testpaths = config["tool"]["pytest"]["ini_options"]["testpaths"]
    here = HERE.relative_to(ROOT).as_posix()
    for path in testpaths:
        assert not (here + "/").startswith(path.rstrip("/") + "/"), path


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(jobsets.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_workload_sizing():
    assert len(jobsets.jobs_for("headline", 7)) == 60
    assert len(jobsets.jobs_for("write-mix", 7)) == 16
    for job in jobsets.jobs_for("trace-stream", 7):
        assert job.run_cfg.num_warps * job.run_cfg.accesses_per_warp > stream_ops_threshold()
    # The program receives only generated jobs: the seed is their only input.
    assert jobsets.jobs_for("write-mix", 11) != jobsets.jobs_for("write-mix", 7)
    assert {j.run_cfg.seed for j in jobsets.jobs_for("headline", 11)} == {11}


def test_stage_spans_time_the_runner_path_and_restore_it(tmp_path):
    import child
    from repro.harness import executor
    from repro.harness.cache import ResultCache
    from repro.harness.runner import Runner

    job = SimulationJob("Ohm-BW", "stream_scan_r50", MemoryMode.TWO_LEVEL, TINY)
    runner = Runner(TINY, executor=executor.SerialExecutor(), cache=ResultCache(tmp_path))
    seen = {}
    with child.stage_spans(runner.cache, seen):
        result = runner.run_jobs([job])[job]
    assert set(child.STAGES) - set(seen) == {"harness.fingerprint"}
    assert all(start <= end for start, end in (seen[n] for n in child.STAGES[:-1]))
    assert result.fingerprint() == executor.execute_job(job).fingerprint()
    assert executor.source_for is child.source_for
    assert executor.GpuModel is GpuModel
    assert "put" not in vars(runner.cache)
