"""Repository benchmark: one workload, end to end or layer by layer.

    python3 perfbench/run.py --workload headline [--seed 7] [--seconds N] [--trace 0|1]

Workloads: ``headline``, ``write-mix``, ``trace-stream`` (see README.md).

``--trace 0`` (the plain pass) times fresh-process passes over the
workload's job set until ``--seconds`` (by default ``run_seconds`` in
``BENCHMARK.json``) is used up and reports the end-to-end metrics.  ``--trace 1`` runs one traced pass and reports the
per-layer metrics.  Both check every simulated result.  A human report
goes to stdout first; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

SETUP_PROBES = 5
#: Per-child limits; a whole run must end within 180 s.
PLAIN_PASS_TIMEOUT_S = 90
TRACED_PASS_TIMEOUT_S = 150
#: Stage spans must cover the spanned wall to within this share.
RECONCILE_SHARE = 0.05

_SETUP_PROBE = (
    "import time, sys, json\n"
    "t = time.perf_counter()\n"
    "import repro.cli\n"
    "t = time.perf_counter() - t\n"
    "print(json.dumps({'import_s': t, 'modules': len(sys.modules),"
    " 'networkx': int('networkx' in sys.modules)}))\n"
)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "accesses_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "setup.import_s": "s",
    "setup.modules_loaded": "count",
    "setup.networkx_loaded": "count",
    "workloads.source_s": "s",
    "workloads.generate_s": "s",
    "workloads.generate_ops_per_s": "1/s",
    "workloads.spill_s": "s",
    "workloads.decode_s": "s",
    "workloads.memo_builds": "count",
    "workloads.memo_hits": "count",
    "workloads.spill_builds": "count",
    "workloads.spill_hits": "count",
    "gpu.build_s": "s",
    "gpu.run_s": "s",
    "gpu.self_s": "s",
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "core.serve_calls": "count",
    "core.serve_s": "s",
    "dram.calls": "count",
    "dram.access_s": "s",
    "xpoint.calls": "count",
    "xpoint.access_s": "s",
    "harness.fingerprint_s": "s",
    "harness.cache_put_s": "s",
    "harness.residual_s": "s",
    "harness.spanned_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.replay_noise_s": "s",
    "trace.flagged_jobs": "count",
    "job_fail_ratio": "ratio",
}

#: The simulated statistics, deterministic per seed (see jobsets.py).
SIMULATED = {
    "model.exec_time_ps": "ps",
    "model.demand_accesses": "count",
    "mem.latency_ns": "ns",
    "dram.accesses": "count",
    "dram.row_hit_ratio": "ratio",
    "xpoint.reads": "count",
    "xpoint.wbuf_hit_ratio": "ratio",
    "xpoint.gap_rotations": "count",
    "hetero.migrations": "count",
    "channel.migration_bw_frac": "ratio",
    "model.speedup.vs_origin": "ratio",
    "model.speedup.vs_ohm_base": "ratio",
    "model_err.vs_origin": "ratio",
    "model_err.vs_ohm_base": "ratio",
}
PER_LAYER.update(SIMULATED)


class BenchError(RuntimeError):
    """A pass could not run at all (as opposed to a failed job)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # A fixed hash seed removes one source of run-to-run host-time noise;
    # simulated results do not depend on it.
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv, timeout: float) -> dict:
    """Run one child to completion (killed and reaped on timeout)."""
    try:
        proc = subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{argv[:2]} did not finish within {timeout} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(
            f"{argv[:2]} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_probes() -> list:
    """Fresh interpreters importing ``repro.cli`` (registries loaded).

    Returns ``(scaled_s, raw_s, probe)`` per timed probe, its wall time
    scaled to the reference host speed by the host-speed probes either
    side.  One untimed probe first, so byte-code caches are written
    before any is timed.
    """
    out = []
    before = calibration.probe()
    for i in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        probe = run_child(["-c", _SETUP_PROBE], timeout=60)
        wall = time.perf_counter() - t0
        after = calibration.probe()
        if i:
            out.append((calibration.scaled(wall, before, after), wall, probe))
        before = after
    return out


def spans_path(args) -> Path:
    return WORK / f"spans-{args.workload}-seed{args.seed}.ndjson"


def pass_argv(kind: str, args, work: Path) -> list:
    return [
        str(HERE / "child.py"), "--workload", args.workload, "--seed",
        str(args.seed), "--pass", kind, "--work", str(work),
        "--spans", str(spans_path(args)),
    ]


def plain_run(args, work: Path, t0: float):
    """Fresh-process passes until ``--seconds`` after ``t0`` is used up.

    A pass starts only if, at the last pass's pace, it ends in time;
    the first pass always runs.
    """
    passes = []
    while True:
        t_pass = time.perf_counter()
        passes.append(run_child(
            pass_argv("plain", args, work / f"pass{len(passes)}"), PLAIN_PASS_TIMEOUT_S
        ))
        last = time.perf_counter() - t_pass
        if time.perf_counter() - t0 + last > args.seconds:
            break
    first = passes[0]
    n_jobs = first["jobs"]
    failures = []
    failed = 0
    for k, p in enumerate(passes):
        failures += [f"pass {k}: {f}" for f in p["failures"]]
        for j, fp in enumerate(p["fingerprints"]):
            if fp is None:
                failed += 1
            elif fp != first["fingerprints"][j]:
                failed += 1
                failures.append(f"pass {k}: job {j} fingerprint differs from pass 0")
    # Each job's time is scaled to the reference host speed by the
    # host-speed probes either side of it; per job, the median over
    # passes then filters a transient stall; the job set's wall time is
    # the sum.
    def scaled(p, j):
        cal = p["calibration_s"]
        return calibration.scaled(p["job_s"][j], cal[j], cal[j + 1])

    wall = sum(statistics.median(scaled(p, j) for p in passes) for j in range(n_jobs))
    raw = sum(statistics.median(p["job_s"][j] for p in passes) for j in range(n_jobs))
    return {
        "passes": passes,
        "attempted": n_jobs * len(passes),
        "failed": failed,
        "failures": failures,
        "fingerprints": first["fingerprints"],
        "simulated": first["simulated"],
        "raw_wall_s": raw,
        "metrics": {
            "wall_s": wall,
            "accesses_per_s": sum(first["demand"]) / wall,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        },
    }


def traced_run(args, work: Path):
    t = run_child(pass_argv("traced", args, work / "traced"), TRACED_PASS_TIMEOUT_S)
    n_jobs = t["jobs"]
    stages = sum(t[name] for name in (
        "workloads.source_for", "gpu.build", "gpu.run",
        "harness.cache_put", "harness.fingerprint",
    ))
    ts = t["trace_stats"]
    m = {
        "workloads.source_s": t["workloads.source_for"],
        "workloads.generate_s": t["generate_s"],
        "workloads.generate_ops_per_s": (
            t["generate_ops"] / t["generate_s"] if t["generate_s"] else 0.0
        ),
        "workloads.spill_s": t["spill_s"],
        "workloads.decode_s": t["decode_s"],
        "workloads.memo_builds": ts["memo_builds"],
        "workloads.memo_hits": ts["memo_hits"],
        "workloads.spill_builds": ts["spill_builds"],
        "workloads.spill_hits": ts["spill_hits"],
        "gpu.build_s": t["gpu.build"],
        "gpu.run_s": t["gpu.run"],
        "gpu.self_s": t["gpu.run"] - t["core.s"],
        "sim.events": t["sim.events"],
        "sim.events_per_s": t["sim.events"] / t["gpu.run"],
        "core.serve_calls": t["core.calls"],
        "core.serve_s": t["core.s"],
        "dram.calls": t["dram.calls"],
        "dram.access_s": t["dram.s"],
        "xpoint.calls": t["xpoint.calls"],
        "xpoint.access_s": t["xpoint.s"],
        "harness.fingerprint_s": t["harness.fingerprint"],
        "harness.cache_put_s": t["harness.cache_put"],
        "harness.residual_s": t["job"] - stages,
        "harness.spanned_wall_s": t["job"],
        "trace.overhead_s": t["wall_s"] - t["job"],
        "trace.replay_noise_s": t["replay_noise_s"],
        "trace.flagged_jobs": len(t["flagged"]),
        "job_fail_ratio": len(t["failures"]) / n_jobs,
    }
    residual = m["harness.residual_s"] / m["harness.spanned_wall_s"]
    return {
        "attempted": n_jobs,
        "failed": len(t["failures"]),
        "reconciled": abs(residual) <= RECONCILE_SHARE,
        "failures": t["failures"],
        "fingerprints": t["fingerprints"],
        "simulated": t["simulated"],
        "metrics": m,
        "traced": t,
    }


def fmt(value) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return f"{value:,.0f}"
    return f"{value:.6g}"


def report(args, setup, run) -> None:
    """The human-readable report (stdout, before the JSON line)."""
    import jobsets

    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print(f"jobs attempted {run['attempted']}, failed {run['failed']}")
    for line in run["failures"][:20]:
        print("FAILED", line.splitlines()[0])
    fps = run["fingerprints"]
    if None not in fps:
        print(f"fingerprint digest {jobsets.fingerprint_digest(fps)}")
    if not args.trace:
        walls = ", ".join(f"{sum(p['job_s']):.3f}" for p in run["passes"])
        speed = ", ".join(
            f"{calibration.REF_S / statistics.median(p['calibration_s']):.3f}"
            for p in run["passes"]
        )
        print(f"passes {len(run['passes'])} (Σ job s per pass: {walls}; "
              f"host speed vs reference: {speed}); setup probes {len(setup)}")
        print(f"unscaled: wall {run['raw_wall_s']:.4f} s, setup "
              f"{statistics.median(raw for _, raw, _ in setup):.4f} s")
    units = {**END_TO_END, **PER_LAYER}
    for name, value in run["metrics"].items():
        print(f"  {name:<30} {fmt(value):>18} {units[name]}")
    sim = run["simulated"]
    if sim and not args.trace:
        print("simulated (deterministic per seed):")
        for name in SIMULATED:
            print(f"  {name:<30} {fmt(sim[name]):>18} {PER_LAYER[name]}")
    for key, ref, paper in (
        ("vs_origin", "Origin", jobsets.PAPER_SPEEDUP_VS_ORIGIN),
        ("vs_ohm_base", "Ohm-base", jobsets.PAPER_SPEEDUP_VS_OHM_BASE),
    ):
        if sim and sim[f"model.speedup.{key}"] > 0:
            print(
                f"Ohm-BW geomean speedup vs {ref}: {sim[f'model.speedup.{key}']:.3f} "
                f"(paper {paper}), model_err.{key} {sim[f'model_err.{key}']:.3f}"
            )
    if sim and sim["model.speedup.vs_origin"] > 0:
        print(
            "The paper's two abstract speedups are the model's only reference "
            "data and none is held out, so the model is otherwise unvalidated."
        )
    if args.trace:
        m = run["metrics"]
        wall = m["harness.spanned_wall_s"]
        share = m["harness.residual_s"] / wall
        verdict = "ok" if run["reconciled"] else f"FAILED: over {RECONCILE_SHARE:.0%}"
        print(f"reconciliation: residual {share:+.2%} of the spanned wall ({verdict})")
        for job in run["traced"]["flagged"]:
            print(f"  flagged: dram + xpoint replay exceeds core replay "
                  f"by more than the replay noise: {job}")
        print(f"spans: {spans_path(args).relative_to(ROOT)}")


def main() -> int:
    ap = argparse.ArgumentParser(
        description="Ohm-GPU reproduction benchmark (see perfbench/README.md)."
    )
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=7, help="workload seed (RunConfig.seed)")
    ap.add_argument("--seconds", type=float, default=None,
                    help="plain pass: measurement window, set-up probes included "
                         "(default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    sys.path.insert(0, str(ROOT / "src"))
    import jobsets

    jobsets.jobs_for(args.workload, args.seed)  # rejects unknown names early
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    t0 = time.perf_counter()
    try:
        setup = setup_probes()
        run = traced_run(args, work) if args.trace else plain_run(args, work, t0)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        run["metrics"] = {
            "setup.import_s": statistics.median(p["import_s"] for _, _, p in setup),
            "setup.modules_loaded": setup[0][2]["modules"],
            "setup.networkx_loaded": setup[0][2]["networkx"],
            **run["metrics"],
            **{name: run["simulated"].get(name, 0.0) for name in SIMULATED},
        }
    else:
        run["metrics"] = {
            "setup_s": statistics.median(scaled for scaled, _, _ in setup),
            **run["metrics"],
        }
    report(args, setup, run)
    print(json.dumps({
        "correct": run["failed"] == 0 and run.get("reconciled", True),
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            name: {"value": value, "unit": {**END_TO_END, **PER_LAYER}[name]}
            for name, value in run["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
