"""Ohm-GPU reproduction: an optical-network heterogeneous GPU memory
simulator (Zhang & Jung, MICRO 2021).

Quickstart::

    from repro import Runner, RunConfig, MemoryMode

    runner = Runner(RunConfig(num_warps=96, accesses_per_warp=40))
    result = runner.run("Ohm-BW", "pagerank", MemoryMode.PLANAR)
    print(result.ipc, result.mean_mem_latency_ps)

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every figure and table.
"""

import importlib

#: Public name -> defining module.  Names resolve on first attribute
#: access (PEP 562), so ``import repro.core`` or a worker process loads
#: only the layers it uses, never the whole package.
_EXPORTS = {
    "GB": "repro.config",
    "KB": "repro.config",
    "MB": "repro.config",
    "MemoryMode": "repro.config",
    "SystemConfig": "repro.config",
    "default_config": "repro.config",
    "PLATFORMS": "repro.core.platforms",
    "Platform": "repro.core.platforms",
    "build_memory_system": "repro.core.platforms",
    "GpuModel": "repro.gpu.gpu",
    "RunResult": "repro.gpu.gpu",
    "BatchRun": "repro.harness.batch",
    "ResultCache": "repro.harness.cache",
    "ParallelExecutor": "repro.harness.executor",
    "RunConfig": "repro.harness.executor",
    "SerialExecutor": "repro.harness.executor",
    "SimulationJob": "repro.harness.executor",
    "execute_job": "repro.harness.executor",
    "AuditOutcome": "repro.harness.audit",
    "audit_jobs": "repro.harness.audit",
    "run_audit": "repro.harness.audit",
    "Runner": "repro.harness.runner",
    "ResultStore": "repro.harness.store",
    "Auditor": "repro.sim.audit",
    "InvariantError": "repro.sim.audit",
    "InvariantViolation": "repro.sim.audit",
    "REGISTRY": "repro.workloads.registry",
    "WORKLOADS": "repro.workloads.registry",
    "build_traces": "repro.workloads.registry",
    "generate_traces": "repro.workloads.registry",
    "get_workload": "repro.workloads.registry",
    "get_workload_def": "repro.workloads.registry",
    "register_workload": "repro.workloads.registry",
    "workload_names": "repro.workloads.registry",
    "WorkloadDef": "repro.workloads.spec",
    "WorkloadSpec": "repro.workloads.spec",
    "make_def": "repro.workloads.spec",
}

__version__ = "1.4.0"

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value  # later lookups skip this hook
    return value
