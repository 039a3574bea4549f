"""One pass of one workload, in a fresh process with a cold trace memo.

Run by ``run.py``; prints one JSON object on its last stdout line.

* ``--pass plain``: the timed pass.  One client, one job in flight: each
  job goes through ``Runner.run_jobs`` (the path ``repro experiment``
  uses) backed by a fresh on-disk :class:`ResultCache`, and its result
  is fingerprinted.  Only per-job host times are taken, each between
  two host-speed probes (``calibration.py``).
* ``--pass traced``: the per-layer pass.  Each job first goes through
  the same ``Runner.run_jobs`` path with a span around each of its
  stages (``stage_spans``); then it runs again under a strict auditor
  with the layer call streams recorded (``layers.recording``), and each
  stream is replayed on fresh layer instances.  The spans are written
  as NDJSON when the pass ends.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.core.platforms import PLATFORMS  # noqa: E402
from repro.gpu.gpu import GpuModel  # noqa: E402
from repro.harness import executor  # noqa: E402
from repro.harness.cache import ResultCache, job_fingerprint  # noqa: E402
from repro.harness.executor import (  # noqa: E402
    SerialExecutor,
    source_for,
    trace_cache_stats,
)
from repro.harness.runner import Runner  # noqa: E402
from repro.sim.audit import Auditor, InvariantError  # noqa: E402
from repro.workloads.registry import build_source, get_workload_def  # noqa: E402
from repro.workloads.trace import FileTraceSource  # noqa: E402

import calibration  # noqa: E402
import jobsets  # noqa: E402
import layers  # noqa: E402

STAGES = (
    "workloads.source_for",
    "gpu.build",
    "gpu.run",
    "harness.cache_put",
    "harness.fingerprint",
)


def drain(source) -> None:
    """Pull every block of ``source`` round-robin, as the spill writer does."""
    live = source.streams()
    while live:
        live = [stream for stream in live if stream.next_block() is not None]


def plain_pass(jobs, work: Path) -> dict:
    runner = Runner(jobs[0].run_cfg, executor=SerialExecutor(), cache=ResultCache(work / "cache"))
    times, fps, results, failures = [], [], [], []
    clock = time.perf_counter
    cal = [calibration.probe()]
    for job in jobs:
        t0 = clock()
        try:
            result = runner.run_jobs([job])[job]
            fp = result.fingerprint()
        except Exception:
            failures.append(f"{job}: raised\n{traceback.format_exc()}")
            result = fp = None
        times.append(clock() - t0)
        results.append(result)
        fps.append(fp)
        cal.append(calibration.probe())
    # Checks run after the timed loop: every job's output, and the
    # cache round trip every later CLI call would read back.
    readback = ResultCache(work / "cache")
    for i, (job, result) in enumerate(zip(jobs, results)):
        if result is None:
            continue
        problems = jobsets.check_result(job, result)
        cached = readback.get(job)
        if cached is None or cached.fingerprint() != fps[i]:
            problems.append("cache read-back differs from the run")
        if problems:
            failures.append(f"{job}: " + "; ".join(problems))
            fps[i] = None
    ok = [r for r in results if r is not None]
    return {
        "job_s": times,
        "calibration_s": cal,
        "fingerprints": fps,
        "demand": [r.demand_requests if r else 0 for r in results],
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "simulated": jobsets.simulated_stats(jobs, ok) if len(ok) == len(jobs) else {},
    }


class Spans:
    """Stage spans kept in memory; written as NDJSON when the pass ends.

    A span is ``{id, name, parent, start, end}``; ``id`` is the job
    fingerprint, shared by every span of that job.
    """

    def __init__(self) -> None:
        self.records = []

    def add(self, span_id: str, name: str, parent, start: float, end: float) -> None:
        self.records.append(
            {"id": span_id, "name": name, "parent": parent, "start": start, "end": end}
        )

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec) + "\n")


@contextmanager
def stage_spans(cache: ResultCache, seen: dict) -> Iterator[None]:
    """Time the stages of the real ``Runner.run_jobs`` path.

    ``execute_job`` looks ``source_for`` and ``GpuModel`` up in its
    module, and ``Runner`` calls ``put`` on its cache, so each is
    replaced by a timed wrapper for the duration of the block.  Each
    stage's ``(start, end)`` lands in ``seen[name]``; ``seen`` also keeps
    the job's trace source and model.
    """
    clock = time.perf_counter

    def timed_source_for(job, cfg):
        t0 = clock()
        seen["traces"] = source_for(job, cfg)
        seen["workloads.source_for"] = (t0, clock())
        return seen["traces"]

    def timed_model(*args, **kwargs):
        t0 = clock()
        seen["model"] = GpuModel(*args, **kwargs)
        seen["gpu.build"] = (t0, clock())
        return TimedRun(seen)

    def timed_put(job, result):
        t0 = clock()
        put(job, result)
        seen["harness.cache_put"] = (t0, clock())

    put = cache.put
    executor.source_for, executor.GpuModel, cache.put = timed_source_for, timed_model, timed_put
    try:
        yield
    finally:
        executor.source_for, executor.GpuModel = source_for, GpuModel
        del cache.put


class TimedRun:
    """Stands in for the model ``execute_job`` builds; times ``run()``."""

    def __init__(self, seen: dict) -> None:
        self.seen = seen

    def run(self, *args, **kwargs):
        t0 = time.perf_counter()
        result = self.seen["model"].run(*args, **kwargs)
        self.seen["gpu.run"] = (t0, time.perf_counter())
        return result


def replay_twice(platform, cfg, streams, counters):
    """Each layer's replay, done twice on fresh instances.

    Yields ``(replay, seconds, noise)``: the faster of the two times and
    their difference, the job's measured replay-to-replay noise.  The
    problems of both replays are merged into ``replay``'s.
    """
    first = layers.replay_all(platform, cfg, streams, counters)
    second = layers.replay_all(platform, cfg, streams, counters)
    for a, b in zip(first, second):
        a.problems.extend(p for p in b.problems if p not in a.problems)
        yield a, min(a.seconds, b.seconds), abs(a.seconds - b.seconds)


def traced_job(job, runner: Runner, spans: Spans, acc: dict):
    """The job through ``Runner.run_jobs`` with stage spans, then the
    recorded run and its replays.

    Returns the plain execution's result, its fingerprint and the job's
    failed checks.  ``acc`` accumulates per-layer totals across jobs.
    """
    clock = time.perf_counter
    sid = job_fingerprint(job)
    builds_before = trace_cache_stats()
    seen = {}
    with stage_spans(runner.cache, seen):
        t_job = clock()
        result = runner.run_jobs([job])[job]
        t_fp = clock()
        # The fingerprint is what the plain pass takes after each job.
        plain_fp = result.fingerprint()
        t_end = clock()
    seen["harness.fingerprint"] = (t_fp, t_end)
    missing = [name for name in STAGES if name not in seen]
    if missing:
        return result, plain_fp, [f"stages never ran: {', '.join(missing)}"]
    spans.add(sid, "job", None, t_job, t_end)
    for name in STAGES:
        start, end = seen[name]
        spans.add(sid, name, "job", start, end)
        acc[name] = acc.get(name, 0.0) + end - start
    acc["job"] = acc.get("job", 0.0) + t_end - t_job
    acc["sim.events"] = acc.get("sim.events", 0) + seen.pop("model").engine.events_processed

    # Workloads-layer probes, outside the job's spans.
    cfg = job.resolved_config()
    defn = get_workload_def(job.workload)
    platform = PLATFORMS[job.platform]
    traces = seen["traces"]
    after = trace_cache_stats()
    ops = job.run_cfg.num_warps * job.run_cfg.accesses_per_warp
    start, end = seen["workloads.source_for"]
    source_s = end - start
    if after["memo_builds"] > builds_before["memo_builds"]:
        acc["generate_s"] += source_s
        acc["generate_ops"] += ops
    elif after["spill_builds"] > builds_before["spill_builds"]:
        t0 = clock()
        drain(build_source(
            defn, defn.spec.scaled_footprint(cfg.scale_down),
            num_warps=job.run_cfg.num_warps,
            accesses_per_warp=job.run_cfg.accesses_per_warp,
            line_bytes=cfg.gpu.line_bytes, page_bytes=cfg.hetero.page_bytes,
            seed=job.run_cfg.seed,
        ))
        generate = clock() - t0
        acc["generate_s"] += generate
        acc["generate_ops"] += ops
        acc["spill_s"] += max(0.0, source_s - generate)
        t0 = clock()
        drain(FileTraceSource(traces.path))
        acc["decode_s"] += clock() - t0

    problems = jobsets.check_result(job, result)
    cached = runner.cache.get(job)
    if cached is None or cached.fingerprint() != plain_fp:
        problems.append("cache read-back differs from the run")

    # Recorded run: strict auditor, reference serves, layer streams.
    try:
        audited = GpuModel(platform, cfg, defn.spec, traces, auditor=Auditor(strict=True))
        with layers.recording(audited) as streams:
            traced = audited.run()
    except InvariantError as exc:
        return result, plain_fp, problems + [f"strict auditor: {exc}"]
    if traced.fingerprint() != plain_fp:
        problems.append("traced fingerprint differs from the plain run")
    job_s, noise_s = {}, 0.0
    for rep, seconds, noise in replay_twice(platform, cfg, streams, traced.counters):
        acc[rep.layer + ".calls"] += rep.calls
        acc[rep.layer + ".s"] += seconds
        job_s[rep.layer] = seconds
        noise_s += noise
        problems.extend(rep.problems)
    acc["replay_noise_s"] += noise_s
    # Each device replay times a public method the fast serve inlines,
    # so it estimates that device's share of core.serve_s; the job is
    # flagged when the devices exceed the core by more than the
    # difference between its two replays.
    if job_s["dram"] + job_s["xpoint"] - job_s["core"] > noise_s:
        acc["flagged"].append(str(job))
    return result, plain_fp, problems


def traced_pass(jobs, work: Path, spans_file: Path) -> dict:
    runner = Runner(jobs[0].run_cfg, executor=SerialExecutor(), cache=ResultCache(work / "cache"))
    spans = Spans()
    acc = {
        "generate_s": 0.0, "generate_ops": 0, "spill_s": 0.0, "decode_s": 0.0,
        "core.calls": 0, "core.s": 0.0, "dram.calls": 0,
        "dram.s": 0.0, "xpoint.calls": 0, "xpoint.s": 0.0,
        "replay_noise_s": 0.0, "flagged": [],
    }
    failures, fps, results = [], [], []
    t_pass = time.perf_counter()
    for job in jobs:
        try:
            result, fp, problems = traced_job(job, runner, spans, acc)
        except Exception:
            result, fp, problems = None, None, ["raised\n" + traceback.format_exc()]
        if problems:
            failures.append(f"{job}: " + "; ".join(problems))
            fp = None
        fps.append(fp)
        results.append(result)
    wall = time.perf_counter() - t_pass
    spans.write(spans_file)
    return {
        "wall_s": wall,
        "failures": failures,
        "fingerprints": fps,
        "trace_stats": trace_cache_stats(),
        "simulated": jobsets.simulated_stats(jobs, results) if None not in fps else {},
        **acc,
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass", dest="kind", choices=("plain", "traced"), required=True)
    ap.add_argument("--work", required=True, help="scratch directory inside the checkout")
    ap.add_argument("--spans", required=True, help="NDJSON file for the traced pass's spans")
    args = ap.parse_args()
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    # Spill files go through tempfile; keep them inside the checkout.
    tempfile.tempdir = str(work)
    jobs = jobsets.jobs_for(args.workload, args.seed)
    if args.kind == "plain":
        out = plain_pass(jobs, work)
    else:
        out = traced_pass(jobs, work, Path(args.spans))
    out["jobs"] = len(jobs)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
