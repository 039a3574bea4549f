"""The benchmark's workloads: seeded job sets and their simulated summaries.

Each workload is a list of :class:`SimulationJob` values built from the
benchmark seed alone; the program under test only ever receives the
generated jobs.  README.md records why each workload was chosen.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, List, Sequence

from repro.config import MemoryMode
from repro.harness.executor import RunConfig, SimulationJob
from repro.harness.experiments import make_headline_spec

MODES = (MemoryMode.PLANAR, MemoryMode.TWO_LEVEL)

#: Figure sizing of ``benchmarks/conftest.py`` (192 warps x 96 accesses).
FIGURE_WARPS, FIGURE_ACCESSES = 192, 96
#: 384 x 704 = 270,336 ops: just above the executor's 262,144-op
#: streaming threshold, so every job spills and replays a v2 file.
STREAM_WARPS, STREAM_ACCESSES = 384, 704

#: The abstract's claims: Ohm-BW is 2.81x Origin and 1.27x Ohm-base.
PAPER_SPEEDUP_VS_ORIGIN = 2.81
PAPER_SPEEDUP_VS_OHM_BASE = 1.27


def headline_jobs(seed: int) -> List[SimulationJob]:
    """Ohm-BW, Origin, Ohm-base x 10 Table II workloads x both modes."""
    run_cfg = RunConfig(FIGURE_WARPS, FIGURE_ACCESSES, seed)
    return list(make_headline_spec().jobs(run_cfg))


def write_mix_jobs(seed: int) -> List[SimulationJob]:
    """Write-heavy streaming scans on the four optical hetero platforms."""
    run_cfg = RunConfig(FIGURE_WARPS, FIGURE_ACCESSES, seed)
    return [
        SimulationJob(platform, workload, mode, run_cfg)
        for mode in MODES
        for workload in ("stream_scan_r25", "stream_scan_r50")
        for platform in ("Ohm-base", "Auto-rw", "Ohm-WOM", "Ohm-BW")
    ]


def trace_stream_jobs(seed: int) -> List[SimulationJob]:
    """Two graph workloads on DRAM-only Oracle, above the spill threshold."""
    run_cfg = RunConfig(STREAM_WARPS, STREAM_ACCESSES, seed)
    return [
        SimulationJob("Oracle", workload, MemoryMode.PLANAR, run_cfg)
        for workload in ("pagerank", "backp")
    ]


WORKLOADS = {
    "headline": headline_jobs,
    "write-mix": write_mix_jobs,
    "trace-stream": trace_stream_jobs,
}


def jobs_for(workload: str, seed: int) -> List[SimulationJob]:
    if workload not in WORKLOADS:
        raise SystemExit(
            f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}"
        )
    return WORKLOADS[workload](seed)


def check_result(job: SimulationJob, result) -> List[str]:
    """Output checks every simulated job must pass, plain or traced."""
    problems = []
    expected = job.run_cfg.num_warps * job.run_cfg.accesses_per_warp
    if result.demand_requests != expected:
        problems.append(
            f"served {result.demand_requests} demand accesses, trace has {expected}"
        )
    if result.exec_time_ps <= 0 or result.instructions <= 0:
        problems.append("empty run: no simulated time or instructions")
    if (result.platform, result.workload, result.mode) != (
        job.platform, job.workload, job.mode.value,
    ):
        problems.append("result labels do not match the job")
    return problems


def fingerprint_digest(fingerprints: Sequence[str]) -> str:
    """One digest over every job fingerprint, in job order."""
    return hashlib.sha256("\n".join(fingerprints).encode("ascii")).hexdigest()


def _geomean(xs: Sequence[float]) -> float:
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def speedups(jobs: Sequence[SimulationJob], results: Sequence) -> Dict[str, float]:
    """Geomean Ohm-BW speedups over the reference platforms in the set.

    A reference is reported only when the job set pairs it with Ohm-BW
    on the same (workload, mode) cell.
    """
    exec_ps = {
        (j.platform, j.workload, j.mode): r.exec_time_ps
        for j, r in zip(jobs, results)
    }
    out = {}
    for ref, key in (("Origin", "vs_origin"), ("Ohm-base", "vs_ohm_base")):
        ratios = [
            exec_ps[(ref, w, m)] / t
            for (p, w, m), t in exec_ps.items()
            if p == "Ohm-BW" and (ref, w, m) in exec_ps
        ]
        if ratios:
            out[key] = _geomean(ratios)
    return out


def simulated_stats(jobs: Sequence[SimulationJob], results: Sequence) -> Dict[str, float]:
    """Simulated (deterministic) statistics summed or averaged over a job set."""
    c_sum: Dict[str, float] = {}
    demand = 0
    latency_ps = 0.0
    for r in results:
        demand += r.demand_requests
        latency_ps += r.mean_mem_latency_ps * r.demand_requests
        for key, value in r.counters.items():
            head, _, leaf = key.rpartition(".")
            if head.endswith(".dram"):
                field = "dram." + leaf
            elif head.endswith(".xp"):
                field = "xp." + leaf
            elif key == "mem.migrations":
                field = key
            else:
                continue
            c_sum[field] = c_sum.get(field, 0.0) + value
    dram_acc = c_sum.get("dram.accesses", 0.0)
    xp_reads = c_sum.get("xp.wbuf_hits", 0.0) + c_sum.get("xp.ecc_decodes", 0.0)
    stats = {
        "model.exec_time_ps": float(sum(r.exec_time_ps for r in results)),
        "model.demand_accesses": float(demand),
        "mem.latency_ns": latency_ps / demand / 1e3 if demand else 0.0,
        "dram.accesses": dram_acc,
        "dram.row_hit_ratio": c_sum.get("dram.row_hits", 0.0) / dram_acc if dram_acc else 0.0,
        "xpoint.reads": xp_reads,
        "xpoint.wbuf_hit_ratio": c_sum.get("xp.wbuf_hits", 0.0) / xp_reads if xp_reads else 0.0,
        "xpoint.gap_rotations": c_sum.get("xp.gap_rotations", 0.0),
        "hetero.migrations": c_sum.get("mem.migrations", 0.0),
        "channel.migration_bw_frac": (
            sum(r.migration_bandwidth_fraction for r in results) / len(results)
        ),
    }
    sp = speedups(jobs, results)
    for key, paper in (
        ("vs_origin", PAPER_SPEEDUP_VS_ORIGIN),
        ("vs_ohm_base", PAPER_SPEEDUP_VS_OHM_BASE),
    ):
        # -1 marks a reference platform the workload's job set lacks.
        stats[f"model.speedup.{key}"] = sp.get(key, -1.0)
        stats[f"model_err.{key}"] = abs(sp[key] - paper) / paper if key in sp else -1.0
    return stats
