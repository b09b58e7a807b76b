"""Finite periodic window functions — the MUW machinery of Fig. 2(a).

Step 1 models each DTL's allowed memory-updating window as "a finite
periodic function, supporting union and intersection operation" with four
parameters: period (``Mem_CC``), active span within one period (``X``),
active start within one period (``S``) and number of periods (``Z``).

Step 2 needs the *length of the union* of several such windows
(``MUW_comb``). Periods in a nested-loop schedule are products of loop-size
prefixes, so they are usually divisor-related and the hyperperiod stays
small; we compute the union exactly by interval merging over one
hyperperiod whenever the interval count is tractable and fall back to the
safe upper bound ``min(sum of active, horizon)`` otherwise.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterable, Sequence, Tuple

import numpy as np

from repro.core import kernels

#: Cap on merged intervals per union computation before falling back.
MAX_UNION_INTERVALS = 2_000_000

#: One window as plain parameters ``(period, active, start, repeats)`` —
#: the representation the batch evaluator hands to :func:`union_length_params`
#: without materializing :class:`PeriodicWindow` objects.
WindowParams = Tuple[float, float, float, int]


@dataclasses.dataclass(frozen=True)
class PeriodicWindow:
    """An active window of ``active`` cycles repeating every ``period``.

    The window occupies ``[k*period + start, k*period + start + active)``
    for ``k = 0 .. repeats-1``. ``active == period`` (with ``start == 0``)
    describes an always-open window; ``active < period`` leaves a keep-out
    zone of ``period - active`` cycles per period.

    Spans are real-valued: ``X_REQ = Mem_DATA / ReqBW`` is generally not an
    integer cycle count, and the analytical model keeps the fraction.
    """

    period: float
    active: float
    start: float
    repeats: int

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError("period must be positive")
        if not 0 <= self.active <= self.period + 1e-12:
            raise ValueError(
                f"active span {self.active} must lie in [0, period={self.period}]"
            )
        if self.start < -1e-12 or self.start + self.active > self.period + 1e-9:
            raise ValueError(
                f"window start {self.start} + active {self.active} exceeds period {self.period}"
            )
        if self.repeats < 0:
            raise ValueError("repeats must be >= 0")

    @property
    def total_active(self) -> float:
        """Total open window across all repeats (``MUW_u = X * Z``)."""
        return self.active * self.repeats

    @property
    def horizon(self) -> float:
        """End of the last period."""
        return self.period * self.repeats

    @property
    def is_full(self) -> bool:
        """Whether the window is open for the entire period."""
        return math.isclose(self.active, self.period)

    def intervals(self) -> Iterable[Tuple[float, float]]:
        """Yield the absolute (begin, end) intervals, in order."""
        for k in range(self.repeats):
            base = k * self.period
            yield (base + self.start, base + self.start + self.active)


def union_length(windows: Sequence[PeriodicWindow], horizon: float) -> float:
    """Length of the union of ``windows`` clipped to ``[0, horizon)``.

    Thin object wrapper over :func:`union_length_params`, which holds the
    actual algorithm (and which the batch evaluator calls directly).
    """
    return union_length_params(
        [(w.period, w.active, w.start, w.repeats) for w in windows], horizon
    )


def union_length_params(params: Sequence[WindowParams], horizon: float) -> float:
    """``MUW_comb`` of windows given as ``(period, active, start, repeats)``.

    Fast paths, in order:

    1. a full window (``active == period``) spanning the horizon covers
       everything;
    2. a single window needs no merging;
    3. in a nested-loop schedule every period divides the total cycle
       count, so the union pattern repeats every ``lcm(periods)`` cycles:
       merge one hyperperiod and scale. (Windows are treated as repeating
       across the whole horizon; a stream whose ``repeats`` stop one period
       short contributes at most one extra ``active`` span — bounded by one
       period out of the horizon.)
    4. plain interval merging, falling back to the upper bound
       ``min(sum of active, horizon)`` beyond :data:`MAX_UNION_INTERVALS`
       (an upper bound on MUW_comb biases Eq. (1) optimistically; it only
       triggers for pathological schedules).
    """
    windows = [w for w in params if w[3] > 0 and w[1] > 0]
    if not windows or horizon <= 0:
        return 0.0
    for period, active, __, repeats in windows:
        if math.isclose(active, period) and period * repeats >= horizon - 1e-9:
            return float(horizon)
    if len(windows) == 1:
        period, active, __, repeats = windows[0]
        return min(active * repeats, float(horizon))

    periods = [w[0] for w in windows]
    if all(math.isclose(p, round(p)) for p in periods):
        hyper = 1
        for p in periods:
            hyper = math.lcm(hyper, int(round(p)))
            if hyper > horizon:
                break
        n_intervals = sum(hyper // int(round(p)) for p in periods)
        if hyper <= horizon and n_intervals <= MAX_UNION_INTERVALS:
            spans = [
                kernels.window_intervals(
                    period, active, start, hyper // int(round(period)), float("inf")
                )
                for period, active, start, __ in windows
            ]
            per_hyper = kernels.merged_interval_length(
                np.concatenate([lo for lo, __ in spans]),
                np.concatenate([hi for __, hi in spans]),
            )
            full, rest = divmod(horizon, hyper)
            total = per_hyper * full
            if rest > 1e-9:
                total += _clipped_union(windows, rest)
            return min(total, float(horizon))

    count = sum(min(w[3], math.ceil(horizon / w[0])) for w in windows)
    if count > MAX_UNION_INTERVALS:
        return min(sum(w[1] * w[3] for w in windows), float(horizon))
    return _clipped_union(windows, horizon)


def _clipped_union(windows: Sequence[WindowParams], horizon: float) -> float:
    """Direct interval merge of the windows clipped to ``[0, horizon)``."""
    windows = [
        (w.period, w.active, w.start, w.repeats)
        if isinstance(w, PeriodicWindow)
        else w
        for w in windows
    ]
    spans = [
        kernels.window_intervals(
            period, active, start, min(repeats, math.ceil(horizon / period)), horizon
        )
        for period, active, start, repeats in windows
    ]
    lo = np.concatenate([l for l, __ in spans])
    if lo.shape[0] == 0:
        return 0.0
    hi = np.concatenate([h for __, h in spans])
    return kernels.merged_interval_length(lo, hi)


def intersection_length(a: PeriodicWindow, b: PeriodicWindow, horizon: float) -> float:
    """Length of the pairwise intersection clipped to ``[0, horizon)``.

    Exposed for analyses that ask how much two DTLs' windows overlap (the
    paper mentions the window functions support intersection as well).
    """
    if horizon <= 0:
        return 0.0
    ints_a = [(lo, min(hi, horizon)) for lo, hi in a.intervals() if lo < horizon]
    ints_b = [(lo, min(hi, horizon)) for lo, hi in b.intervals() if lo < horizon]
    total = 0.0
    i = j = 0
    while i < len(ints_a) and j < len(ints_b):
        lo = max(ints_a[i][0], ints_b[j][0])
        hi = min(ints_a[i][1], ints_b[j][1])
        if hi > lo:
            total += hi - lo
        if ints_a[i][1] <= ints_b[j][1]:
            i += 1
        else:
            j += 1
    return total
