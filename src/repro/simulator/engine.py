"""The discrete-event execution engine.

The machine state is a *compute clock* ``c`` (ideal temporal-schedule
cycles completed, 0 .. CC_spatial) advancing at rate 1 whenever no
unfinished transfer job blocks it, plus a set of in-flight transfer jobs
draining bits through shared ports.

Arbitration: ports are processor-shared — an active port splits its
bandwidth equally among the jobs currently using it, and a job's transfer
rate is the minimum of its shares across the (up to two) ports it touches.
This approximates the word-interleaved round-robin of a real bus arbiter.

Within a stream jobs are serialized (a link moves one tile at a time);
across levels, refill jobs wait for the covering upper-level tile
(cut-through is not modeled — a tile must land before it is forwarded,
which is how the validation chip's DMA chain behaves).

The event loop reads each :class:`~repro.simulator.streams.JobStream`'s
columns (gates, thresholds, per-port bits, upstream job numbers) as the
builders wrote them, through one cursor per stream.

The engine advances in variable-length segments bounded by the next event:
a job finishing, the compute clock hitting a blocking threshold or a job's
start gate, or computation completing. All stall behaviour *emerges* from
these mechanics; no closed-form stall expression appears anywhere here.

Job streams come from nested loops, so the machine repeats itself. At
*anchor* events (a job completion on the longest-period stream that still
has two or more jobs) the engine records a normalized machine state; when
the same state recurs and :func:`_periods` proves that stepping the next
periods would replay the recorded one exactly, translated by its span, the
engine adds that span once per skipped period instead of stepping it. The
result is bit-identical to stepping every event (see ``docs/MODEL.md``
§5). A run with a :class:`TraceRecorder` attached steps every event.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.hardware.accelerator import Accelerator
from repro.mapping.mapping import Mapping
from repro.observability.telemetry import telemetry
from repro.simulator.result import SimulationResult
from repro.simulator.streams import JobStream, PortKey, build_streams
from repro.simulator.trace import TraceRecorder

_EPS = 1e-9
_INF = float("inf")

# Fast-forward exactness: values that are multiples of 2**-16 below 2**35
# in magnitude add and subtract exactly in binary64, so a translated replay
# of a period computes the same bits as stepping it.
_GRID = 65536.0
_BOUND = float(2 ** 35)

# A recorded anchor state: events, t, c, stall, jobs done, per-port busy
# bits, per-stream cursors.
_Snapshot = Tuple[int, float, float, float, int, Dict[int, float], Tuple[int, ...]]


def _on_grid(x: float) -> bool:
    return -_BOUND < x < _BOUND and (x * _GRID).is_integer()


def _reps_below(start: float, step: float, bound: float) -> int:
    """Largest ``r >= 0`` with ``start + r*step < bound`` (0 if none).

    ``start``, ``step`` and ``bound`` are grid values, so the products and
    sums tested here are exact.
    """
    if not start < bound:
        return 0
    if step <= 0:
        return 1 << 62
    reps = int((bound - start) / step)
    while reps > 0 and not start + reps * step < bound:
        reps -= 1
    while start + (reps + 1) * step < bound:
        reps += 1
    return reps


def _first_mismatch(column: Sequence, lo: int, hi: int, d: int, shift) -> int:
    """First ``j`` in ``[lo, hi)`` with ``column[j] != column[j-d] + shift``."""
    for j, (now, then) in enumerate(zip(column[lo:hi], column[lo - d:hi - d]), lo):
        if now != (then if shift is None else then + shift):
            return j
    return hi


class CycleSimulator:
    """Cycle-level reference simulator for one mapping on one accelerator.

    Parameters
    ----------
    accelerator / mapping:
        The design point to execute.
    max_events:
        Safety valve against runaway simulations; raises ``RuntimeError``
        when exceeded.
    trace:
        Optional recorder of every job and stall; a traced run steps
        every event.
    """

    def __init__(
        self,
        accelerator: Accelerator,
        mapping: Mapping,
        max_events: int = 5_000_000,
        trace: Optional["TraceRecorder"] = None,
    ) -> None:
        self.accelerator = accelerator
        self.mapping = mapping
        self.max_events = max_events
        self.trace = trace

    # ------------------------------------------------------------------ #

    def run(self) -> SimulationResult:
        """Execute the layer and return the measured timing.

        Runs under a ``simulator.run`` span on the ambient tracer (one
        per simulation, carrying the measured timing decomposition), so
        simulator-validated runs show up in traces and HTML reports
        alongside the analytical model's spans.
        """
        tracer = telemetry().tracer
        with tracer.span("simulator.run") as span:
            result, stepped = self._execute()
            if tracer.enabled:
                span.set_many(
                    accelerator=self.accelerator.name,
                    layer=self.mapping.layer.name or "?",
                    total_cycles=result.total_cycles,
                    compute_cycles=result.compute_cycles,
                    preload_cycles=result.preload_cycles,
                    stall_cycles=result.stall_cycles,
                    drain_tail_cycles=result.drain_tail_cycles,
                    jobs_completed=result.jobs_completed,
                    events=result.events,
                    stepped_events=stepped,
                )
        return result

    def _execute(self) -> Tuple[SimulationResult, int]:
        """Run the event loop; return the result and the events stepped."""
        total_cc = self.mapping.temporal.total_cycles
        total_f = float(total_cc)
        total_lo = total_cc - _EPS
        trace = self.trace
        max_events = self.max_events
        streams = build_streams(self.accelerator, self.mapping)
        # Job ``k`` of stream ``i`` moves ``bits[i][k][j]`` bits through port
        # ``pids[i][j]`` (``port_keys[pids[i][j]]``) and waits on stream
        # ``dep_up[i]`` (-1: none).
        port_ids: Dict[PortKey, int] = {}
        pids = [
            tuple(port_ids.setdefault(key, len(port_ids)) for key in dict.fromkeys(s.ports))
            for s in streams
        ]
        port_keys = list(port_ids)
        port_bw = [
            self.accelerator.memory_by_name(memory).instance.aggregate_bandwidth(port)
            for memory, port in port_keys
        ]
        index = {s.name: i for i, s in enumerate(streams)}
        dep_up = [-1 if s.upstream is None else index[s.upstream] for s in streams]
        gates = [s.gates for s in streams]
        thresholds = [s.thresholds for s in streams]
        bits = [s.port_bits for s in streams]
        dep_seq = [s.dep_seq for s in streams]
        length = [len(s) for s in streams]
        n = len(streams)
        n_ports = len(port_keys)

        cursor = [0] * n          # first job not yet completed, per stream
        active = [False] * n      # whether job ``cursor[i]`` is in flight
        remaining: List[Optional[List[float]]] = [None] * n  # its bits per port
        n_done = sum(1 for i in range(n) if length[i] == 0)

        t = 0.0                   # wall-clock cycles
        c = 0.0                   # compute-local progress
        stall = 0.0
        preload_end: Optional[float] = None
        compute_end: Optional[float] = None
        port_busy: Dict[int, float] = {}
        jobs_done = 0
        events = 0
        skipped = 0

        # Fast-forward bookkeeping (off when tracing: a traced run steps).
        order = sorted(range(n), key=lambda i: -streams[i].period)
        anchor_pos = 0
        while anchor_pos < n and length[order[anchor_pos]] < 2:
            anchor_pos += 1
        fast = trace is None and anchor_pos < n
        anchor = order[anchor_pos] if fast else -1
        memo: Dict[tuple, _Snapshot] = {}
        inexact = 0               # last event with an off-grid increment

        while True:
            events += 1
            if events > max_events:
                raise RuntimeError(
                    f"simulation exceeded {max_events} events "
                    f"({jobs_done} jobs done, t={t:.0f}, c={c:.0f})"
                )

            # 1. Start every startable frontier job; 2. the compute-clock
            # limit is the lowest frontier threshold.
            c_hi = c + _EPS
            limit = _INF
            gate_min = _INF
            for i in range(n):
                k = cursor[i]
                if k == length[i]:
                    continue
                th = thresholds[i][k]
                if th < limit:
                    limit = th
                if active[i]:
                    continue
                gate = gates[i][k]
                if gate > c_hi:
                    if gate < gate_min:
                        gate_min = gate
                    continue
                up = dep_up[i]
                if up >= 0 and cursor[up] <= dep_seq[i][k]:
                    continue
                active[i] = True
                remaining[i] = list(bits[i][k])
                if trace is not None:
                    trace.job_started(streams[i].name, k, t)

            computing = c < total_lo and c < limit - _EPS
            if trace is not None:
                trace.compute_state(computing or c >= total_lo, t, c)

            # 3. Port shares: each port splits its bandwidth among the jobs
            # that still have bits pending on it; a job progresses on every
            # such port independently (store-and-forward buffering).
            users = [0] * n_ports
            for i in range(n):
                if active[i]:
                    for p, rem in zip(pids[i], remaining[i]):
                        if rem > _EPS:
                            users[p] += 1
            rates: List[Tuple[List[float], int, int, float]] = []
            moving: List[int] = []
            for i in range(n):
                if active[i]:
                    rem_i = remaining[i]
                    first = len(rates)
                    for j, p in enumerate(pids[i]):
                        if rem_i[j] > _EPS:
                            rates.append((rem_i, j, p, port_bw[p] / users[p]))
                    if len(rates) > first:
                        moving.append(i)

            # 4. Next event horizon.
            dt = _INF
            if computing:
                dt = total_cc - c
                if limit < _INF:
                    dt = min(dt, limit - c)
                if gate_min < _INF:
                    dt = min(dt, gate_min - c)
            for rem_i, j, p, rate in rates:
                if rate > 0:
                    dt = min(dt, rem_i[j] / rate)

            if dt == _INF:
                if c >= total_lo and n_done == n:
                    break
                blocked = [streams[i].name for i in range(n) if cursor[i] < length[i]]
                raise RuntimeError(
                    f"simulation deadlock at t={t:.0f}, c={c:.0f}; "
                    f"pending streams: {blocked}"
                )
            dt = max(dt, 0.0)

            # 5. Advance.
            t += dt
            if computing:
                c = min(c + dt, total_f)
            elif c < total_lo:
                stall += dt
            for rem_i, j, p, rate in rates:
                moved = rate * dt
                rem_i[j] = max(0.0, rem_i[j] - moved)
                port_busy[p] = port_busy.get(p, 0.0) + moved
                if fast and not (moved * _GRID).is_integer():
                    inexact = events
            if fast and not (dt * _GRID).is_integer():
                inexact = events

            if preload_end is None and c > _EPS:
                # Compute started during this segment: preload ended at its start.
                preload_end = t - dt
            if compute_end is None and c >= total_lo:
                compute_end = t

            # 6. Completions (all ports drained).
            anchored = False
            for i in moving:
                if all(rem <= _EPS for rem in remaining[i]):
                    k = cursor[i]
                    cursor[i] = k + 1
                    active[i] = False
                    remaining[i] = None
                    jobs_done += 1
                    if k + 1 == length[i]:
                        n_done += 1
                    if i == anchor:
                        anchored = True
                    if trace is not None:
                        trace.job_finished(streams[i].name, k, t, streams[i].bits[k])

            if c >= total_lo and n_done == n:
                break
            if not anchored:
                continue

            # 7. Fast-forward over an exact recurrence of the anchor state.
            # A stream gated more than an anchor period ahead is only marked:
            # its position does not repeat, and _periods bounds the jump by
            # its gate instead.
            key = [preload_end is None]
            far = c + streams[anchor].period
            for i in range(n):
                k = cursor[i]
                if k == length[i]:
                    key.append(None)
                    continue
                if not active[i] and gates[i][k] > far:
                    key.append(True)
                    continue
                up = dep_up[i]
                key.append((
                    tuple(remaining[i]) if active[i] else None,
                    gates[i][k] - c,
                    thresholds[i][k] - c,
                    cursor[up] - dep_seq[i][k] if up >= 0 else 0,
                ))
            state = tuple(key)
            now: _Snapshot = (
                events, t, c, stall, jobs_done, dict(port_busy), tuple(cursor)
            )
            before = memo.get(state)
            reps = 0
            if before is not None and inexact <= before[0]:
                reps = _periods(
                    before, now, streams, dep_up, active, total_cc, max_events
                )
            if reps:
                e0, t0, c0, s0, j0, busy0, cur0 = before
                skipped += reps * (events - e0)
                events += reps * (events - e0)
                t += reps * (t - t0)
                c += reps * (c - c0)
                stall += reps * (stall - s0)
                jobs_done += reps * (jobs_done - j0)
                for p, busy in now[5].items():
                    port_busy[p] = busy + reps * (busy - busy0.get(p, 0.0))
                for i in range(n):
                    cursor[i] += reps * (cursor[i] - cur0[i])
                memo.clear()
            else:
                memo[state] = now
            while length[anchor] - cursor[anchor] < 2:
                memo.clear()
                anchor_pos += 1
                if anchor_pos == n:
                    fast = False
                    anchor = -1
                    break
                anchor = order[anchor_pos]

        if compute_end is None:
            compute_end = t
        if preload_end is None:
            preload_end = 0.0
        if trace is not None:
            trace.finish(t)
        result = SimulationResult(
            total_cycles=t,
            compute_cycles=total_cc,
            preload_cycles=preload_end,
            stall_cycles=max(0.0, stall - preload_end),
            drain_tail_cycles=t - compute_end,
            port_busy={port_keys[p]: busy for p, busy in port_busy.items()},
            jobs_completed=jobs_done,
            events=events,
        )
        return result, events - skipped


def _periods(
    before: _Snapshot,
    now: _Snapshot,
    streams: List[JobStream],
    dep_up: List[int],
    active: List[bool],
    total_cc: int,
    max_events: int,
) -> int:
    """How many more times the period ``before`` → ``now`` replays exactly.

    The two snapshots share a normalized state. Stepping on from ``now``
    replays the recorded period translated by its span ``Δ`` (``Δc`` on
    the compute clock, ``d_i`` jobs on stream ``i``) as long as:

    * every stream that progressed has job ``k + d_i`` equal to job ``k``
      shifted by ``Δc`` (gate, threshold, per-port bits, and the
      dependency shifted by the upstream stream's ``d``);
    * every stream that did not progress is done, or stays gated (neither
      its gate nor its threshold is reached) and so never sets the time
      step or the compute limit; the same holds for ``total_cc``;
    * every value the replay adds to (``t``, ``c``, stall, port busy) and
      every gate and threshold it compares is a multiple of 2**-16 below
      2**35 in magnitude, at both ends of the period and after the last
      replay, and so are the increments (checked by the caller), so that
      repeated addition is exact;
    * the replays end at or before ``max_events``.

    Returns the number of whole replays that satisfy all of these (0 when
    there is none).
    """
    e0, t0, c0, s0, __, busy0, cur0 = before
    e1, t1, c1, s1, __, busy1, cur1 = now
    values = [t0, c0, s0, t1, c1, s1, *busy0.values(), *busy1.values()]
    if not all(_on_grid(x) for x in values):
        return 0
    dc = c1 - c0
    reps = (max_events - e1) // (e1 - e0)
    reps = min(
        reps,
        _reps_below(t1, t1 - t0, _BOUND),
        _reps_below(s1, s1 - s0, _BOUND),
        _reps_below(c1, dc, _BOUND),
    )
    if dc > 0:
        reps = min(reps, _reps_below(c1, dc, float(total_cc)))
    for p, busy in busy1.items():
        reps = min(reps, _reps_below(busy, busy - busy0.get(p, 0.0), _BOUND))
    shifts = [b - a for a, b in zip(cur0, cur1)]
    moving = []
    for i, d in enumerate(shifts):
        k, length = cur1[i], len(streams[i])
        if k == length:
            if d:
                return 0
            continue
        if d:
            # Every replay ends with job ``k + r*d`` as the frontier.
            reps = min(reps, (length - k - 1) // d)
            moving.append(i)
            continue
        gate, threshold = streams[i].gates[k], streams[i].thresholds[k]
        if active[i] or not (_on_grid(gate) and _on_grid(threshold)):
            return 0
        reps = min(reps, _reps_below(c1, dc, gate), _reps_below(c1, dc, threshold))
    for i in moving:
        if reps < 1:
            return 0
        # The recorded period reads jobs ``cur0[i]`` to ``lo`` (the frontier
        # once job ``lo - 1`` is done); replay ``r`` reads them shifted by
        # ``r*d``.
        d, lo, stream = shifts[i], cur1[i], streams[i]
        period = stream.gates[cur0[i]:lo + 1] + stream.thresholds[cur0[i]:lo + 1]
        if not all(_on_grid(x) for x in period):
            return 0
        reps = min(reps, _reps_below(max(period), dc, _BOUND))
        hi = lo + reps * d + 1
        up = dep_up[i]
        for column, shift in (
            (stream.gates, dc),
            (stream.thresholds, dc),
            (stream.port_bits, None),
            (stream.dep_seq, shifts[up] if up >= 0 else None),  # empty if up < 0
        ):
            hi = _first_mismatch(column, lo, hi, d, shift)
        reps = (hi - lo - 1) // d
    return max(reps, 0)
