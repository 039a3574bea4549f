"""Per-layer call recording and replay for the traced pass.

The fused warp drain inlines the whole memory path, so no timer can sit
inside ``GpuModel.run()``.  Instead a traced run records the call stream
each memory layer receives, and the benchmark replays that stream
against a fresh instance of the layer, timing only the replay:

* core: every ``slice.serve(addr, is_write, now)`` call, replayed on a
  fresh :func:`build_memory_system` whose slices keep their inlined
  fast serves (channel windows and hetero mapping included);
* DRAM: ``DramDevice.access``, ``occupy_bank`` and ``activate_for_swap``;
* XPoint: ``XPointController.read``, ``write`` and ``snarf_write``.

A replay must reproduce both the run's return values and the run's
counters for every key its layer emits; anything else is reported as a
failed check.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, NamedTuple, Sequence, Tuple

from repro.core.platforms import build_memory_system
from repro.sim.stats import Stats
from repro.xpoint.controller import XPointController

DRAM_OPS = ("access", "occupy_bank", "activate_for_swap")
XP_OPS = ("read", "write", "snarf_write")


class LayerStreams:
    """The recorded call streams of one model, in global call order.

    ``serve``: ``(slice, addr, is_write, now, returned)``;
    ``dram``: ``(slice, op, args, returned)``;
    ``xpoint``: ``(slice, op, addr, now, returned)``.
    """

    def __init__(self) -> None:
        self.serve: List[tuple] = []
        self.dram: List[tuple] = []
        self.xpoint: List[tuple] = []


def _wrap_serve(streams: LayerStreams, index: int, serve):
    append = streams.serve.append

    def recorded_serve(addr, is_write, now_ps):
        done = serve(addr, is_write, now_ps)
        append((index, addr, is_write, now_ps, done))
        return done

    return recorded_serve


def _wrap_dram(streams: LayerStreams, index: int, op: int, method):
    append = streams.dram.append

    def recorded(*args):
        out = method(*args)
        append((index, op, args, out))
        return out

    return recorded


@contextmanager
def recording(model) -> Iterator[LayerStreams]:
    """Record the core, DRAM and XPoint call streams of ``model``.

    Build ``model`` with a strict :class:`~repro.sim.audit.Auditor`; its
    instrumentation already drops each slice's inlined fast ``serve``,
    and this pops it again so the reference ``serve`` — bit-identical,
    but calling its devices through attributes — answers.  Slices and
    DRAM devices are wrapped on the instance.  ``XPointController`` has
    ``__slots__``, so its methods are wrapped on the class for the
    duration of the block and restored on exit, also when the run raises.
    """
    streams = LayerStreams()
    xp_index: Dict[int, int] = {}
    for i, s in enumerate(model.memory.slices):
        s.__dict__.pop("serve", None)
        s.serve = _wrap_serve(streams, i, s.serve)
        for op, name in enumerate(DRAM_OPS):
            setattr(s.dram, name, _wrap_dram(streams, i, op, getattr(s.dram, name)))
        xp = getattr(s, "xp", None)
        if xp is not None:
            xp_index[id(xp)] = i
    originals = {name: getattr(XPointController, name) for name in XP_OPS}
    append = streams.xpoint.append
    # snarf_write calls self.write; only the outer call is recorded.
    depth = [0]

    def make(op: int, name: str):
        inner = originals[name]

        def recorded(self, addr, now_ps):
            depth[0] += 1
            try:
                out = inner(self, addr, now_ps)
            finally:
                depth[0] -= 1
            index = xp_index.get(id(self))
            if index is not None and not depth[0]:
                append((index, op, addr, now_ps, out))
            return out

        return recorded

    try:
        for op, name in enumerate(XP_OPS):
            setattr(XPointController, name, make(op, name))
        yield streams
    finally:
        for name, method in originals.items():
            setattr(XPointController, name, method)


def _timed(fn) -> Tuple[float, object]:
    """``fn()`` with the collector off, as ``GpuModel.run`` runs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        out = fn()
        return time.perf_counter() - t0, out
    finally:
        if enabled:
            gc.enable()


class Replay(NamedTuple):
    """One layer's replay: host seconds, calls and failed checks."""

    layer: str
    calls: int
    seconds: float
    problems: List[str]


def counter_mismatches(
    replayed: Dict[str, float], run: Dict[str, float], prefixes: Tuple[str, ...] = ()
) -> List[str]:
    """Keys the replay emitted (or, under ``prefixes``, either side has)
    whose values differ between the replay and the run."""
    keys = set(replayed)
    if prefixes:
        keys = {k for k in keys if k.startswith(prefixes)}
        keys |= {k for k in run if k.startswith(prefixes)}
    return sorted(k for k in keys if replayed.get(k) != run.get(k))


def _check(layer: str, returned: Sequence, expected: Sequence, counters_off: List[str]) -> List[str]:
    problems = []
    bad = sum(1 for a, b in zip(returned, expected) if a != b)
    if bad:
        problems.append(f"{layer}: {bad} replayed calls returned a different time")
    if counters_off:
        shown = ", ".join(counters_off[:4])
        problems.append(f"{layer}: {len(counters_off)} counters differ ({shown})")
    return problems


def replay_core(platform, cfg, calls: Sequence[tuple], run_counters) -> Replay:
    """Replay the ``slice.serve`` stream on fresh fast-path slices."""
    stats = Stats()
    serves = [s.serve for s in build_memory_system(platform, cfg, stats).slices]
    seconds, returned = _timed(
        lambda: [serves[i](a, w, t) for i, a, w, t, _ in calls]
    )
    off = counter_mismatches(stats.snapshot(), run_counters)
    return Replay("core", len(calls), seconds,
                  _check("core", returned, [c[4] for c in calls], off))


def replay_dram(platform, cfg, calls: Sequence[tuple], run_counters) -> Replay:
    """Replay the DRAM device calls on fresh devices."""
    stats = Stats()
    slices = build_memory_system(platform, cfg, stats).slices
    fns = [[getattr(s.dram, name) for name in DRAM_OPS] for s in slices]
    seconds, returned = _timed(
        lambda: [fns[i][op](*args) for i, op, args, _ in calls]
    )
    prefixes = tuple(f"{s.dram.name}." for s in slices)
    off = counter_mismatches(stats.snapshot(), run_counters, prefixes)
    return Replay("dram", len(calls), seconds,
                  _check("dram", returned, [c[3] for c in calls], off))


def replay_xpoint(platform, cfg, calls: Sequence[tuple], run_counters) -> Replay:
    """Replay the XPoint controller calls on fresh controllers."""
    stats = Stats()
    slices = build_memory_system(platform, cfg, stats).slices
    xps = [getattr(s, "xp", None) for s in slices]
    fns = [[getattr(x, name) for name in XP_OPS] if x else None for x in xps]
    seconds, returned = _timed(
        lambda: [fns[i][op](a, t) for i, op, a, t, _ in calls]
    )
    prefixes = tuple(f"{x.name}." for x in xps if x is not None)
    off = counter_mismatches(stats.snapshot(), run_counters, prefixes)
    return Replay("xpoint", len(calls), seconds,
                  _check("xpoint", returned, [c[4] for c in calls], off))


def replay_all(platform, cfg, streams: LayerStreams, run_counters) -> List[Replay]:
    return [
        replay_core(platform, cfg, streams.serve, run_counters),
        replay_dram(platform, cfg, streams.dram, run_counters),
        replay_xpoint(platform, cfg, streams.xpoint, run_counters),
    ]
