"""Event queue at the heart of the simulator.

Every subsystem (SMs, memory controllers, DRAM banks, the XPoint
controller, optical routes) schedules plain callables on a shared
:class:`Engine`.  Events at equal timestamps run in scheduling order,
which keeps runs fully deterministic.

Typed event lanes
-----------------

The engine keeps two event structures that drain as one timeline:

* the **generic heap** — ``(time_ps, seq, fn)`` tuples, one per
  scheduled callable.  Cold subsystems and ad-hoc callers use this; it
  is exactly the classic discrete-event queue.
* an optional **warp lane** — the dominant event class in a GPU run is
  a warp stepping its two-phase state machine (compute burst issued /
  memory completion), and those events carry no payload beyond *which
  warp* and *which phase*.  The lane stores each warp's single pending
  event in parallel ``array('q')`` columns (``time_ps``, ``seq``,
  ``phase``, indexed by warp) plus a heap of plain integers encoding
  ``(time_ps, seq, warp)``, so scheduling a warp event allocates no
  tuple and dispatching one calls no bound method: the fused drain
  (installed by :class:`repro.gpu.warp.WarpLane`) steps warps in a
  table-driven loop.

Both structures share the global sequence counter, so the merged drain
preserves the exact ``(time_ps, seq)`` order a single heap would have
produced — the golden ``RunResult`` fingerprints freeze that order.

Lane contract (for lane implementors, i.e. ``gpu/warp.py``):

* a warp has at most one pending lane event; its step schedules the
  successor via :meth:`Engine.lane_schedule` (or inlines the column
  writes inside a fused drain);
* ``step(warp, phase)`` is invoked with ``now`` already advanced and
  the event already popped (its phase column reset to ``LANE_IDLE``);
* a fused ``drain(limit_t, limit_s)`` must process lane events in
  ``(time, seq)`` order while their key is below the limit (or until
  the lane empties, when ``limit_t`` is ``None``), return as soon as
  the generic heap becomes non-empty past its limit, and leave ``now``,
  ``_seq`` and ``events_processed`` exactly as a per-event drain would
  have; step bodies must not schedule generic events mid-drain.
"""

from __future__ import annotations

import heapq
import weakref
from array import array
from typing import Callable, Optional

PS_PER_NS = 1_000
PS_PER_US = 1_000_000

#: Phase column value marking "no pending event" for a lane warp.
LANE_IDLE = -1

#: Lane key encoding: ``((time_ps << SEQ_BITS) | seq) << WARP_BITS | warp``.
#: Comparing keys compares ``(time, seq)`` first — warp id is payload.
LANE_SEQ_BITS = 40
LANE_SEQ_LIMIT = 1 << LANE_SEQ_BITS
LANE_SEQ_MASK = LANE_SEQ_LIMIT - 1
LANE_WARP_BITS = 20
LANE_WARP_LIMIT = 1 << LANE_WARP_BITS
LANE_WARP_MASK = LANE_WARP_LIMIT - 1
LANE_TIME_SHIFT = LANE_SEQ_BITS + LANE_WARP_BITS


def ns(value: float) -> int:
    """Convert nanoseconds to the engine's picosecond time base."""
    return int(round(value * PS_PER_NS))


def us(value: float) -> int:
    """Convert microseconds to the engine's picosecond time base."""
    return int(round(value * PS_PER_US))


def freq_ghz_to_period_ps(freq_ghz: float) -> int:
    """Clock period in picoseconds for a frequency given in GHz.

    >>> freq_ghz_to_period_ps(1.0)
    1000
    >>> freq_ghz_to_period_ps(30.0)
    33
    """
    if freq_ghz <= 0:
        raise ValueError(f"frequency must be positive, got {freq_ghz}")
    return max(1, int(round(1_000.0 / freq_ghz)))


def weak_method(method: Callable) -> Callable:
    """``method`` called through a weak reference to its owner.

    For hooks a lower layer holds on behalf of the object above it —
    the warp lane's ``step``/``drain`` on the engine, a warp's done
    callback into its model.  Holding the bound method itself would
    close a reference cycle back to the owner, so a finished model
    would wait for the cyclic collector instead of being freed by
    reference counting (DESIGN.md §7).  The owner must outlive every
    call; the hook costs one weak dereference per call, so reserve it
    for per-drain and per-warp calls, not per-event ones.
    """
    owner = weakref.ref(method.__self__)
    func = method.__func__

    def hook(*args):
        return func(owner(), *args)

    return hook


class Engine:
    """A deterministic discrete-event engine with integer time.

    >>> eng = Engine()
    >>> seen = []
    >>> eng.schedule(5, lambda: seen.append("b"))
    >>> eng.schedule(1, lambda: seen.append("a"))
    >>> eng.run()
    >>> seen
    ['a', 'b']
    """

    __slots__ = (
        "_queue",
        "_seq",
        "now",
        "events_processed",
        "_lane_heap",
        "_lane_time",
        "_lane_seq",
        "_lane_phase",
        "_lane_step",
        "_lane_drain",
    )

    def __init__(self) -> None:
        self._queue: list[tuple[int, int, Callable[[], None]]] = []
        self._seq = 0
        self.now = 0
        self.events_processed = 0
        self._lane_heap: list[int] = []
        self._lane_time: Optional[array] = None
        self._lane_seq: Optional[array] = None
        self._lane_phase: Optional[array] = None
        self._lane_step: Optional[Callable[[int, int], None]] = None
        self._lane_drain: Optional[Callable[[], None]] = None

    # -- generic heap ---------------------------------------------------

    def schedule(self, delay_ps: int, fn: Callable[[], None]) -> None:
        """Run ``fn`` ``delay_ps`` picoseconds from the current time."""
        if delay_ps < 0:
            raise ValueError(
                f"cannot schedule into the past: delay {delay_ps} ps from "
                f"current time {self.now} ps (requested {self.now + delay_ps} ps)"
            )
        self.at(self.now + delay_ps, fn)

    def at(self, time_ps: int, fn: Callable[[], None]) -> None:
        """Run ``fn`` at absolute time ``time_ps``."""
        if time_ps < self.now:
            raise ValueError(
                f"cannot schedule at {time_ps} ps: current time is "
                f"{self.now} ps (events may not run in the past)"
            )
        heapq.heappush(self._queue, (time_ps, self._seq, fn))
        self._seq += 1

    # -- warp lane ------------------------------------------------------

    def attach_warp_lane(
        self,
        num_warps: int,
        step: Callable[[int, int], None],
        drain: Optional[Callable[[], None]] = None,
    ) -> None:
        """Install the typed warp lane (see the module docstring).

        ``step(warp, phase)`` executes one lane event; the optional
        ``drain()`` is the fused bulk path used by the full-drain
        :meth:`run` (falling back to per-event ``step`` dispatch when
        absent).  The drain reads the generic heap head itself each
        iteration, so it needs no limit arguments — it runs lane
        events while they precede the generic head and returns.  The
        engine holds both hooks strongly: a lane that references the
        engine passes them through :func:`weak_method`.
        """
        if self._lane_step is not None:
            raise RuntimeError("a warp lane is already attached")
        if num_warps < 1:
            raise ValueError("a warp lane needs at least one warp")
        if num_warps >= LANE_WARP_LIMIT:
            raise ValueError(
                f"warp lane supports at most {LANE_WARP_LIMIT - 1} warps, "
                f"got {num_warps}"
            )
        self._lane_time = array("q", bytes(8 * num_warps))
        self._lane_seq = array("q", bytes(8 * num_warps))
        self._lane_phase = array("q", [LANE_IDLE]) * num_warps
        self._lane_step = step
        self._lane_drain = drain

    def lane_schedule(self, warp: int, time_ps: int, phase: int) -> None:
        """Schedule warp ``warp``'s next lane event at ``time_ps``.

        Exactly one event may be pending per warp; the event occupies
        the warp's column slots and one integer heap entry — no tuple,
        no callable.
        """
        if time_ps < self.now:
            raise ValueError(
                f"cannot schedule at {time_ps} ps: current time is "
                f"{self.now} ps (events may not run in the past)"
            )
        if phase < 0:
            raise ValueError(f"lane phase must be non-negative, got {phase}")
        if self._lane_phase[warp] != LANE_IDLE:
            raise RuntimeError(f"warp {warp} already has a pending lane event")
        seq = self._seq
        if seq >= LANE_SEQ_LIMIT:
            raise OverflowError("event sequence space exhausted")
        self._seq = seq + 1
        self._lane_time[warp] = time_ps
        self._lane_seq[warp] = seq
        self._lane_phase[warp] = phase
        heapq.heappush(
            self._lane_heap,
            ((time_ps << LANE_SEQ_BITS) | seq) << LANE_WARP_BITS | warp,
        )

    def lane_pending(self) -> int:
        """Number of pending warp-lane events."""
        return len(self._lane_heap)

    def _lane_step_min(self) -> None:
        """Pop and execute the lane's minimum event (slow/guarded path)."""
        key = heapq.heappop(self._lane_heap)
        warp = key & LANE_WARP_MASK
        self.now = key >> LANE_TIME_SHIFT
        self.events_processed += 1
        phase = self._lane_phase[warp]
        self._lane_phase[warp] = LANE_IDLE
        self._lane_step(warp, phase)

    # -- inspection -----------------------------------------------------

    def peek_time(self) -> Optional[int]:
        """Timestamp of the next pending event, or ``None`` if idle."""
        lane = self._lane_heap
        queue = self._queue
        if lane and queue:
            return min(lane[0] >> LANE_TIME_SHIFT, queue[0][0])
        if lane:
            return lane[0] >> LANE_TIME_SHIFT
        if queue:
            return queue[0][0]
        return None

    def pending(self) -> int:
        """Number of events still queued (generic heap + warp lane)."""
        return len(self._queue) + len(self._lane_heap)

    def _lane_head_wins(self) -> bool:
        """Whether the lane's head precedes the generic head.

        Callers guarantee at least one of the two is non-empty.
        """
        lane = self._lane_heap
        if not lane:
            return False
        queue = self._queue
        if not queue:
            return True
        key = lane[0]
        lt = key >> LANE_TIME_SHIFT
        gt = queue[0][0]
        if lt != gt:
            return lt < gt
        return (key >> LANE_WARP_BITS) & LANE_SEQ_MASK < queue[0][1]

    # -- draining -------------------------------------------------------

    def step(self) -> bool:
        """Process a single event.  Returns ``False`` when the queue is empty."""
        if not self._queue and not self._lane_heap:
            return False
        if self._lane_head_wins():
            self._lane_step_min()
            return True
        time_ps, _, fn = heapq.heappop(self._queue)
        self.now = time_ps
        self.events_processed += 1
        fn()
        return True

    def run(self, until_ps: Optional[int] = None, max_events: Optional[int] = None) -> None:
        """Drain the event queue (generic heap and warp lane, merged).

        Args:
            until_ps: stop once simulated time passes this stamp (the
                event at ``until_ps`` itself still runs).
            max_events: hard cap on processed events, a guard against
                runaway feedback loops in misconfigured models.

        The common drain-everything call is the simulator's innermost
        loop: with no warp lane it pops the heap directly with local
        bindings, and with one it hands runs of consecutive lane events
        to the lane's fused drain.
        """
        if until_ps is not None or max_events is not None:
            self._run_guarded(until_ps, max_events)
            return
        if self._lane_step is None:
            # Classic single-heap fast path (no lane ever attached).
            queue = self._queue
            pop = heapq.heappop
            count = self.events_processed
            try:
                while queue:
                    time_ps, _, fn = pop(queue)
                    self.now = time_ps
                    count += 1
                    fn()
            finally:
                self.events_processed = count
            return
        self._run_fused()

    def _run_fused(self) -> None:
        """Full drain with a warp lane attached: merge lane and heap."""
        queue = self._queue
        lane = self._lane_heap
        drain = self._lane_drain
        pop = heapq.heappop
        while True:
            if lane:
                if queue:
                    key = lane[0]
                    head = queue[0]
                    lt = key >> LANE_TIME_SHIFT
                    gt = head[0]
                    if lt < gt or (
                        lt == gt
                        and (key >> LANE_WARP_BITS) & LANE_SEQ_MASK < head[1]
                    ):
                        if drain is not None:
                            drain()
                        else:
                            self._lane_step_min()
                    else:
                        time_ps, _, fn = pop(queue)
                        self.now = time_ps
                        self.events_processed += 1
                        fn()
                else:
                    if drain is not None:
                        drain()
                    else:
                        self._lane_step_min()
            elif queue:
                time_ps, _, fn = pop(queue)
                self.now = time_ps
                self.events_processed += 1
                fn()
            else:
                return

    def _run_guarded(
        self,
        until_ps: Optional[int],
        max_events: Optional[int],
        record: Optional[Callable[..., None]] = None,
    ) -> None:
        """Per-event merged drain honouring ``until_ps``/``max_events``.

        ``record`` is the audit hook: :class:`ValidatingEngine` passes
        its auditor's violation recorder so event-time monotonicity is
        checked on every pop, lane events included.
        """
        queue = self._queue
        lane = self._lane_heap
        pop = heapq.heappop
        processed = 0
        while queue or lane:
            if self._lane_head_wins():
                head_time = lane[0] >> LANE_TIME_SHIFT
                from_lane = True
            else:
                head_time = queue[0][0]
                from_lane = False
            if until_ps is not None and head_time > until_ps:
                break
            if max_events is not None and processed >= max_events:
                break
            if record is not None and head_time < self.now:
                record(
                    "engine.monotonic_time",
                    "engine",
                    "event popped before current time",
                    expected=self.now,
                    actual=head_time,
                )
            processed += 1
            if from_lane:
                self._lane_step_min()
            else:
                time_ps, _, fn = pop(queue)
                self.now = time_ps
                self.events_processed += 1
                fn()
