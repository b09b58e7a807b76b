"""Structure-of-arrays batch evaluation of the 3-step latency model.

The scalar :class:`~repro.core.model.LatencyModel` walks one mapping at a
time through Steps 1-3. A DSE sweep evaluates thousands of mappings that
share one ``(accelerator, layer)`` pair, and everything mapping-dependent
in the model is closed-form arithmetic over loop-size prefix products — so
this module *lowers* a list of mappings into NumPy arrays (one lane per
mapping) and runs the same Step 1-3 formulas across all lanes at once:

* **Plan** (:class:`BatchPlan`): the accelerator + options fix the set of
  candidate transfer streams ("slots": W/I refills per level pair, O flush
  and partial-sum read-back per level pair, the compute-edge reads), their
  port endpoints, the shared-port groups and the served-memory/overlap
  structure. All of that is mapping-independent and computed once.
* **Lowering** (:class:`_Lowered`): reads the int64 columns of a
  :class:`~repro.mapping.block.MappingBlock` — per-lane loop dims, sizes,
  per-operand cuts and spatial factors. A mapper search hands its
  candidates over as such a block; any other sequence of mappings is
  packed into one first (:func:`~repro.mapping.block.pack`). Prefix
  products give every period, ``Z`` and
  ir-run product by plain indexing (``table[rows, idx]``). The seven
  per-dimension prefix tables are one stacked ``(7, n, L + 1)`` array
  from one ``cumprod``, so a tile's extents are one index, and footprint
  elements are memoized per ``(operand, level)`` — refills, flushes,
  partial-sum read-backs, pre- and off-loading share them.
* **Steps 1-3**: Table I spans, Eq. (1)/(2) port combination and the
  served-memory max/chain rules run vectorized through the *same* kernels
  (:mod:`repro.core.kernels`) the scalar wrappers call — identical inputs
  hit identical instructions, which makes batch and scalar results
  bit-for-bit equal (the ``batch_scalar_parity`` property of
  :mod:`repro.verify` enforces this forever).

Step 3 runs over lane columns too (:func:`repro.core.step3.integrate_stall_entries`).
Only multi-window MUW unions that miss the vectorized fast paths stay
per-mapping Python (delegated to
:func:`repro.core.windows.union_length_params` and memoized in a
:class:`~repro.engine.cache.PartialResultCache` so neighboring mappings
re-use each other's window unions), and a latency search mostly avoids
them: :meth:`BatchEvaluator.best` brackets every lane's latency without
unions (:meth:`BatchEvaluator.bracket`) and computes them only for the
lanes that can still beat the incumbent.

Batch reports are *slim*: ``dtls`` and ``port_combinations`` are left
empty (the per-DTL anatomy would dominate materialization cost), while
``served_stalls`` and the ``integration`` — everything the run ledger,
rankings and bottleneck lists consume — are fully populated.
:meth:`BatchResult.full_report` adds the anatomy for the lanes a caller
asks for; the result equals the reference
:class:`~repro.core.model.LatencyModel` report under ``==``.

A mapping deeper than the machine is read with
:meth:`~repro.mapping.temporal.TemporalMapping.level_bounds` semantics
(its extra cuts are never asked for); a shallower one raises
:class:`~repro.mapping.mapping.MappingError`, as the reference does.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import kernels
from repro.core.dtl import DTL, TrafficKind, Transfer
from repro.core.report import LatencyReport
from repro.core.step1 import ModelOptions
from repro.core.step2 import PortCombination, ServedMemoryStall
from repro.core.step3 import StallIntegration, integrate_stall_entries
from repro.core.windows import union_length_params
from repro.hardware.accelerator import Accelerator
from repro.hardware.port import EndpointKind
from repro.mapping.footprint import extent_elements
from repro.mapping.block import pack
from repro.mapping.mapping import check_depth
from repro.workload.dims import ALL_DIMS
from repro.workload.layer import LayerSpec
from repro.workload.operand import Operand


# --------------------------------------------------------------------- #
# Static plan
# --------------------------------------------------------------------- #

@dataclasses.dataclass(frozen=True)
class _Endpoint:
    """One physical-port endpoint of a slot (static attributes)."""

    memory: str
    port: str
    endpoint: EndpointKind
    real_bw: float
    burst_bits: int

    @property
    def port_key(self) -> Tuple[str, str]:
        return (self.memory, self.port)


@dataclasses.dataclass(frozen=True)
class _Slot:
    """One candidate transfer stream of the (accelerator, options) pair.

    Slots follow the exact order :func:`repro.core.step1.build_dtls` emits
    transfers in, so the per-port member order (and with it every
    order-sensitive accumulation of Step 2) matches the scalar path.
    """

    operand: Operand
    kind: TrafficKind
    level: int
    served_memory: str
    double_buffered: bool
    endpoints: Tuple[_Endpoint, ...]

    @property
    def served_key(self) -> Tuple[Operand, int, str]:
        return (self.operand, self.level, self.served_memory)


class BatchPlan:
    """Mapping-independent structure shared by every batch of one engine."""

    def __init__(self, accelerator: Accelerator, options: ModelOptions) -> None:
        self.accelerator = accelerator
        self.options = options
        self.slots: List[_Slot] = []
        hierarchy = accelerator.hierarchy

        for operand in (Operand.W, Operand.I):
            chain = hierarchy.levels(operand)
            for lvl in range(len(chain) - 1):
                dst, src = chain[lvl], chain[lvl + 1]
                self.slots.append(
                    _Slot(
                        operand=operand,
                        kind=TrafficKind.REFILL,
                        level=lvl,
                        served_memory=dst.name,
                        double_buffered=dst.instance.double_buffered,
                        endpoints=(
                            self._endpoint(src, operand, EndpointKind.TL),
                            self._endpoint(dst, operand, EndpointKind.FH),
                        ),
                    )
                )
        chain = hierarchy.levels(Operand.O)
        for lvl in range(len(chain) - 1):
            low, high = chain[lvl], chain[lvl + 1]
            self.slots.append(
                _Slot(
                    operand=Operand.O,
                    kind=TrafficKind.FLUSH,
                    level=lvl,
                    served_memory=low.name,
                    double_buffered=low.instance.double_buffered,
                    endpoints=(
                        self._endpoint(low, Operand.O, EndpointKind.TH),
                        self._endpoint(high, Operand.O, EndpointKind.FL),
                    ),
                )
            )
            self.slots.append(
                _Slot(
                    operand=Operand.O,
                    kind=TrafficKind.PSUM_READBACK,
                    level=lvl,
                    served_memory=low.name,
                    double_buffered=low.instance.double_buffered,
                    endpoints=(
                        self._endpoint(high, Operand.O, EndpointKind.TL),
                        self._endpoint(low, Operand.O, EndpointKind.FH),
                    ),
                )
            )
        if options.compute_edges:
            for operand in (Operand.W, Operand.I):
                level0 = hierarchy.innermost(operand)
                self.slots.append(
                    _Slot(
                        operand=operand,
                        kind=TrafficKind.COMPUTE_READ,
                        level=0,
                        served_memory=level0.name,
                        double_buffered=level0.instance.double_buffered,
                        endpoints=(
                            self._endpoint(level0, operand, EndpointKind.TL),
                        ),
                    )
                )

        # Shared-port groups, members in global slot/endpoint order.
        self.port_groups: Dict[Tuple[str, str], List[Tuple[int, int]]] = {}
        for si, slot in enumerate(self.slots):
            for ei, ep in enumerate(slot.endpoints):
                self.port_groups.setdefault(ep.port_key, []).append((si, ei))
        self.group_keys = list(self.port_groups)
        self.group_index = {key: gi for gi, key in enumerate(self.group_keys)}

        # Served-memory structure: which slots (streams) feed each unit
        # memory, in stream-first-seen order; plus the static output order
        # and Step-3 overlap group of every served key.
        self.served_keys: List[Tuple[Operand, int, str]] = []
        self.served_streams: Dict[Tuple[Operand, int, str], List[int]] = {}
        for si, slot in enumerate(self.slots):
            if slot.served_key not in self.served_streams:
                self.served_keys.append(slot.served_key)
            self.served_streams.setdefault(slot.served_key, []).append(si)
        self.sorted_served = sorted(
            self.served_keys, key=lambda k: (str(k[0]), k[1])
        )
        self.served_gid = {
            key: accelerator.stall_overlap.group_of(key[2])
            for key in self.served_keys
        }
        self.depths = {op: hierarchy.depth(op) for op in Operand}
        # Whether a port can limit unit memories of two overlap groups;
        # only then does Step 3's port charging couple the groups.
        groups_of_port: Dict[Tuple[str, str], set] = {}
        for key, streams in self.served_streams.items():
            for si in streams:
                for ep in self.slots[si].endpoints:
                    groups_of_port.setdefault(ep.port_key, set()).add(
                        self.served_gid[key]
                    )
        self.cross_group_ports = any(len(g) > 1 for g in groups_of_port.values())

        # Flush/psum slot pairs per served key, for the chained rule.
        self.chain_pairs: Dict[Tuple[Operand, int, str], Tuple[int, int]] = {}
        flush: Dict[Tuple[Operand, int, str], int] = {}
        psum: Dict[Tuple[Operand, int, str], int] = {}
        for si, slot in enumerate(self.slots):
            if slot.kind is TrafficKind.FLUSH:
                flush[slot.served_key] = si
            elif slot.kind is TrafficKind.PSUM_READBACK:
                psum[slot.served_key] = si
        for key, fi in flush.items():
            if key in psum:
                self.chain_pairs[key] = (fi, psum[key])

    @staticmethod
    def _endpoint(level, operand: Operand, kind: EndpointKind) -> _Endpoint:
        port = level.port_for(operand, kind)
        return _Endpoint(
            memory=level.name,
            port=port.name,
            endpoint=kind,
            real_bw=port.bandwidth * level.instance.instances,
            burst_bits=level.instance.min_burst_bits,
        )


# --------------------------------------------------------------------- #
# Result container
# --------------------------------------------------------------------- #

@dataclasses.dataclass
class BatchResult:
    """SoA view of one evaluated batch (one lane per mapping).

    ``reports`` is populated only when the batch was evaluated with
    ``materialize=True`` (by :meth:`BatchEvaluator.best`: the winner's
    entry only, the others None); the arrays are always present and are
    what the speed-critical sweeps consume.
    """

    mappings: Sequence
    cc_ideal: np.ndarray
    cc_spatial: np.ndarray
    ss_overall: np.ndarray
    preload: np.ndarray
    offload: np.ndarray
    scenario: np.ndarray
    total_cycles: np.ndarray
    utilization: np.ndarray
    reports: Optional[List[Optional[LatencyReport]]] = None
    #: (plan, Step-1 slot arrays, SS_comb and MUW_comb per port group):
    #: what :meth:`full_report` rebuilds the anatomy from.
    _anatomy: Optional[Tuple] = dataclasses.field(default=None, repr=False)

    def full_report(self, lane: int) -> LatencyReport:
        """Lane ``lane``'s report with its per-DTL and per-port anatomy.

        Adds ``dtls`` and ``port_combinations`` (Python scalars
        throughout) to the slim report of a batch evaluated with
        ``materialize=True``; the result equals the reference
        :class:`~repro.core.model.LatencyModel` report under ``==``.
        """
        plan, step1, ss_group, muw_group = self._anatomy
        dtls: List[DTL] = []
        members: Dict[Tuple[str, str], List[DTL]] = {}
        for si, slot in enumerate(plan.slots):
            arrays = step1[si]
            if not arrays["active"][lane]:
                continue
            ends = slot.endpoints
            transfer = Transfer(
                operand=slot.operand,
                kind=slot.kind,
                served_memory=slot.served_memory,
                served_level=slot.level,
                src_memory=ends[0].memory,
                dst_memory=ends[1].memory if len(ends) > 1 else None,
                data_bits=float(arrays["data_bits"][lane]),
                period=float(arrays["period"][lane]),
                repeats=int(arrays["repeats"][lane]),
                x_req=float(arrays["x_req"][lane]),
                window_start=float(arrays["window_start"][lane]),
            )
            for ep in ends:
                dtl = DTL(
                    transfer, ep.memory, ep.port, ep.endpoint, ep.real_bw, ep.burst_bits
                )
                dtls.append(dtl)
                members.setdefault(ep.port_key, []).append(dtl)
        ports = {}
        for key, group in members.items():
            gi = plan.group_index[key]
            ports[key] = PortCombination(
                key[0],
                key[1],
                tuple(group),
                sum(d.req_bw for d in group),
                float(muw_group[gi][lane]),
                float(ss_group[gi][lane]),
            )
        return dataclasses.replace(
            self.reports[lane], dtls=tuple(dtls), port_combinations=ports
        )


@dataclasses.dataclass(frozen=True)
class BatchBest:
    """What :meth:`BatchEvaluator.best` found in one batch."""

    #: The winning lane, None when no lane beats the incumbent.
    lane: Optional[int]
    #: Exact on the scored lanes; ``reports`` holds only the winner's
    #: (and :meth:`BatchResult.full_report` works for it).
    result: Optional[BatchResult]
    #: Lanes whose exact latency was computed.
    scored: int
    #: Lanes whose latency bracket ruled them out.
    pruned: int


@dataclasses.dataclass
class _Ports:
    """Step-2 state of one batch, per port group (``plan.group_keys`` order).

    ``open[g]`` lists the lanes whose ``MUW_comb`` still needs a union;
    there ``muw`` holds the bracket's ceiling and ``floor`` its floor, so
    ``ss`` is the least ``SS_comb`` the union can give and ``ss_hi`` the
    most. Everywhere else both pairs are exact (and the same arrays).
    """

    terms: List[Tuple[np.ndarray, ...]] = dataclasses.field(default_factory=list)
    muw: List[np.ndarray] = dataclasses.field(default_factory=list)
    floor: List[np.ndarray] = dataclasses.field(default_factory=list)
    open: List[np.ndarray] = dataclasses.field(default_factory=list)
    cols: List[Optional[List[Tuple]]] = dataclasses.field(default_factory=list)
    ss: List[Optional[np.ndarray]] = dataclasses.field(default_factory=list)
    ss_hi: List[Optional[np.ndarray]] = dataclasses.field(default_factory=list)

    def is_open(self, lane: int) -> bool:
        return any(lane in idx for idx in self.open)


#: Relative room :meth:`BatchEvaluator._muw_bracket` leaves for the
#: rounding of a union's interval sums.
_UNION_SLACK = 1e-9


# --------------------------------------------------------------------- #
# The evaluator
# --------------------------------------------------------------------- #

class BatchEvaluator:
    """Evaluate many mappings of one layer on one accelerator at once.

    Parameters
    ----------
    accelerator / options:
        The design point and model conventions (same as
        :class:`~repro.core.model.LatencyModel`).
    muw_cache:
        A :class:`~repro.engine.cache.PartialResultCache` (or any object
        with ``get_or_compute(key, fn)``) memoizing multi-window MUW
        unions across batches — the delta-evaluation hook that lets
        neighboring mappings skip each other's Step-2 window merges. A
        private one is created when omitted.
    """

    def __init__(
        self,
        accelerator: Accelerator,
        options: Optional[ModelOptions] = None,
        muw_cache=None,
    ) -> None:
        from repro.engine.cache import PartialResultCache

        self.accelerator = accelerator
        self.options = options or ModelOptions()
        self.plan = BatchPlan(accelerator, self.options)
        self.muw_cache = muw_cache if muw_cache is not None else PartialResultCache()

    # -- public API ----------------------------------------------------- #

    def evaluate(self, mappings: Sequence, materialize: bool = True) -> BatchResult:
        """Run Steps 1-3 across all ``mappings`` (same layer) at once.

        Raises :class:`~repro.mapping.mapping.MappingError` when a mapping
        is shallower than the machine.
        """
        if not mappings:
            return BatchResult(
                mappings=mappings,
                **{
                    name: np.empty(0)
                    for name in (
                        "cc_ideal", "cc_spatial", "ss_overall", "preload",
                        "offload", "scenario", "total_cycles", "utilization",
                    )
                },
                reports=[] if materialize else None,
            )
        low = self._lower(mappings)
        step1 = self._step1(low)
        ports = self._step2_ports(low, step1)
        served = self._step2_served(low, step1, ports.ss)
        result = self._finalize(low, served, range(low.n) if materialize else None)
        result._anatomy = (self.plan, step1, ports.ss, ports.muw)
        return result

    def best(self, mappings: Sequence, incumbent: float = math.inf) -> BatchBest:
        """The first lane of ``mappings`` (same layer) with the least
        latency below ``incumbent``, its report from the exact path.

        Lowering and Step 1 run once. Every lane's latency is bracketed
        in NumPy (:meth:`bracket`); a lane whose floor shows it cannot be
        that winner (no lower than the incumbent, than the ceiling of an
        earlier lane, or above the ceiling of a later one) is pruned. Exact
        MUW unions run only for surviving lanes whose bracket is open,
        and for the winner. Ties go to the first lane, as with a strict
        ``<`` scan in lane order.
        """
        if not mappings:
            return BatchBest(None, None, 0, 0)
        low = self._lower(mappings)
        n = low.n
        step1 = self._step1(low)
        ports = self._step2_ports(low, step1, resolve=np.zeros(n, dtype=bool))
        lo, hi, served = self._bracket(low, step1, ports)
        before = np.full(n, math.inf)   # least ceiling of the earlier lanes
        after = np.full(n, math.inf)    # least ceiling of the later lanes
        before[1:] = np.minimum.accumulate(hi[:-1])
        after[:-1] = np.minimum.accumulate(hi[:0:-1])[::-1]
        scored = (lo < incumbent) & (lo < before) & (lo <= after)
        # A scored lane's latency is exact once its bracket is closed.
        total_cycles = lo
        if np.any(scored & (lo < hi)):
            self._step2_ports(low, step1, resolve=scored & (lo < hi), ports=ports)
            served = self._step2_served(low, step1, ports.ss)
            total_cycles = self._totals(low, self._step3(low, served)[0])
        count = int(scored.sum())
        lanes = np.flatnonzero(scored)
        lane = lanes[np.argmin(total_cycles[lanes])] if count else None
        if lane is None or not total_cycles[lane] < incumbent:
            return BatchBest(None, None, count, n - count)
        lane = int(lane)
        if ports.is_open(lane):
            winner = np.zeros(n, dtype=bool)
            winner[lane] = True
            self._step2_ports(low, step1, resolve=winner, ports=ports)
            served = self._step2_served(low, step1, ports.ss)
        result = self._finalize(low, served, [lane])
        result._anatomy = (self.plan, step1, ports.ss, ports.muw)
        return BatchBest(lane, result, count, n - count)

    def bracket(self, mappings: Sequence) -> Tuple[np.ndarray, np.ndarray]:
        """``(CC_lo, CC_hi)`` per lane: bounds on total latency that need
        no multi-window MUW union.

        Eqs. (1)-(2) are non-increasing in ``MUW_comb``, the served-memory
        rules non-decreasing in ``SS_comb``, so a lane's latency lies
        between its value at the largest and at the smallest ``MUW_comb``
        :func:`~repro.core.windows.union_length_params` can return (see
        :meth:`_muw_bracket`). Step 3 is bounded without its cross-group
        port credit: the sum of each group's clamped worst stall above,
        and below either the same (when no port can limit memories of two
        groups, so the credit never applies) or the single worst stall.
        Lanes that need no union get ``CC_lo == CC_hi == CC``.
        """
        low = self._lower(mappings)
        step1 = self._step1(low)
        ports = self._step2_ports(low, step1, resolve=np.zeros(low.n, dtype=bool))
        return self._bracket(low, step1, ports)[:2]

    def _lower(self, mappings: Sequence) -> "_Lowered":
        block = pack(mappings)
        return _Lowered(self.plan, block.layer, block)

    def _bracket(
        self, low: "_Lowered", step1: Dict[int, Dict[str, np.ndarray]], ports: "_Ports"
    ) -> Tuple[np.ndarray, np.ndarray, Dict]:
        """``(CC_lo, CC_hi, served)``; ``served`` (from ``ports.ss``) is
        exact on every lane that is not open."""
        served = self._step2_served(low, step1, ports.ss)
        served_hi = self._step2_served(low, step1, ports.ss_hi)
        return (
            self._totals(low, self._step3(low, served, "lower")[0]),
            self._totals(low, self._step3(low, served_hi, "upper")[0]),
            served,
        )

    # -- Step 1 --------------------------------------------------------- #

    def _step1(self, low: "_Lowered") -> Dict[int, Dict[str, np.ndarray]]:
        """Per-slot Table-I arrays: period, repeats, spans, per-endpoint SS."""
        plan = self.plan
        out: Dict[int, Dict[str, np.ndarray]] = {}
        for si, slot in enumerate(plan.slots):
            if slot.kind is TrafficKind.COMPUTE_READ:
                n = low.n
                data_bits = (
                    low.compute_edge_elements(slot.operand)
                    * low.precision(slot.operand, partial=False)
                ).astype(np.float64)
                arrays = {
                    "period": np.ones(n, dtype=np.float64),
                    "repeats": low.total_cc,
                    "x_req": np.ones(n, dtype=np.float64),
                    "window_start": np.zeros(n, dtype=np.float64),
                    "data_bits": data_bits,
                    "active": np.ones(n, dtype=bool),
                }
            else:
                arrays = self._periodic_slot(low, slot)
            for ei, ep in enumerate(slot.endpoints):
                bits = arrays["data_bits"]
                padded = (
                    kernels.padded_bits(bits, ep.burst_bits)
                    if ep.burst_bits > 1
                    else bits
                )
                x_real = padded / ep.real_bw
                arrays[f"ss_u{ei}"] = kernels.stall_slack(
                    x_real, arrays["x_req"], arrays["repeats"]
                )
            arrays["muw_u"] = kernels.window_total(
                arrays["x_req"], arrays["repeats"]
            )
            out[si] = arrays
        return out

    def _periodic_slot(self, low: "_Lowered", slot: _Slot) -> Dict[str, np.ndarray]:
        opts = self.options
        op = slot.operand
        lvl = slot.level
        hi = low.cut(op, lvl)
        base = low.gather(low.prefix_all, hi)
        run_end = low.gather(low.nxt[op], hi)
        if opts.residency_extension:
            ext = low.gather(low.prefix_all, run_end) // base
        else:
            ext = np.ones(low.n, dtype=np.int64)
        period = base * ext
        period_f = period.astype(np.float64)
        z = low.total_cc // period

        lo = low.cut(op, lvl - 1) if lvl > 0 else np.zeros(low.n, dtype=np.int64)
        j0 = np.maximum(lo, low.gather(low.prv[op], hi) + 1)
        top_ir = low.gather(low.prefix_all, run_end) // low.gather(
            low.prefix_all, j0
        )
        x_req = kernels.x_req_span(period_f, top_ir, slot.double_buffered)

        elements = low.elements(op, lvl)
        if op is Operand.O:
            ir_above = low.prefix_ir_o[:, low.L] // low.gather(low.prefix_ir_o, hi)
            revisit = ir_above // ext
            partial = revisit > 1
            data_bits = elements.astype(np.float64) * np.where(
                partial,
                low.precision(op, partial=True),
                low.precision(op, partial=False),
            )
            if slot.kind is TrafficKind.FLUSH:
                repeats = kernels.steady_repeats(z, opts.paper_period_count)
                window_start = period_f - x_req
            else:  # PSUM_READBACK
                repeats = np.where(
                    partial,
                    kernels.readback_repeats(z, np.maximum(revisit, 1)),
                    0,
                )
                window_start = np.zeros(low.n, dtype=np.float64)
        else:
            data_bits = (
                elements * low.precision(op, partial=False)
            ).astype(np.float64)
            repeats = kernels.steady_repeats(z, opts.paper_period_count)
            window_start = period_f - x_req
        return {
            "period": period_f,
            "repeats": repeats,
            "x_req": x_req,
            "window_start": window_start,
            "data_bits": data_bits,
            "active": repeats > 0,
        }

    # -- Step 2: shared-port combination -------------------------------- #

    def _step2_ports(
        self,
        low: "_Lowered",
        step1: Dict[int, Dict[str, np.ndarray]],
        resolve: Optional[np.ndarray] = None,
        ports: Optional["_Ports"] = None,
    ) -> "_Ports":
        """``SS_comb`` and ``MUW_comb`` per port group, one array each.

        ``MUW_comb`` is closed-form on every lane but where a group needs
        a multi-window union (:meth:`_union`). Unions run for the lanes of
        the bool mask ``resolve`` (all lanes when it is None); the other
        lanes stay open, bracketed by :meth:`_muw_bracket`. Passing back
        the ``ports`` of an earlier call resolves more of its open lanes.
        """
        if ports is None:
            ports = self._port_terms(low, step1, bracket=resolve is not None)
        refined = self.options.combine_rule == "refined"
        horizon_list = None
        for g, idx in enumerate(ports.open):
            pick = idx if resolve is None else idx[resolve[idx]]
            if pick.size:
                ports.open[g] = idx[:0] if resolve is None else idx[~resolve[idx]]
                if ports.cols[g] is None:
                    # Per-lane Python work: pull the member columns out of
                    # NumPy once (scalar indexing into lists is ~10x cheaper).
                    ports.cols[g] = [
                        (
                            step1[si]["active"].tolist(),
                            step1[si]["period"].tolist(),
                            step1[si]["x_req"].tolist(),
                            step1[si]["window_start"].tolist(),
                            step1[si]["repeats"].tolist(),
                        )
                        for si, __ in self.plan.port_groups[self.plan.group_keys[g]]
                    ]
                if horizon_list is None:
                    horizon_list = low.horizon.tolist()
                muw, floor = ports.muw[g], ports.floor[g]
                for i in pick.tolist():
                    muw[i] = floor[i] = self._union(ports.cols[g], i, horizon_list[i])
                if not ports.open[g].size:
                    ports.floor[g] = muw
                ports.ss[g] = None
            if ports.ss[g] is None:
                pos_sum, nonpos_demand, has_pos, total_busy = ports.terms[g]
                ports.ss[g] = kernels.combine_ss(
                    pos_sum, nonpos_demand, has_pos, ports.muw[g], total_busy, refined
                )
                ports.ss_hi[g] = ports.ss[g] if not ports.open[g].size else (
                    kernels.combine_ss(
                        pos_sum, nonpos_demand, has_pos, ports.floor[g], total_busy,
                        refined,
                    )
                )
        return ports

    def _port_terms(
        self, low: "_Lowered", step1: Dict[int, Dict[str, np.ndarray]], bracket: bool
    ) -> "_Ports":
        """Eq. (1)/(2) member aggregates and closed-form ``MUW_comb`` per
        port group; lanes needing a union are open (at their bracket
        under ``bracket``)."""
        plan = self.plan
        horizon = low.horizon
        ports = _Ports()
        for key in plan.group_keys:
            members = plan.port_groups[key]
            pos_sum = np.zeros(low.n)
            nonpos_demand = np.zeros(low.n)
            total_busy = np.zeros(low.n)
            has_pos = np.zeros(low.n, dtype=bool)
            active_count = np.zeros(low.n, dtype=np.int64)
            full_cover = np.zeros(low.n, dtype=bool)
            muw_sum = np.zeros(low.n)
            for si, ei in members:
                a = step1[si]
                mask = a["active"]
                ss_u = a[f"ss_u{ei}"]
                busy = a["muw_u"] + ss_u
                pos = mask & (ss_u > 0)
                pos_sum += np.where(pos, ss_u, 0.0)
                nonpos_demand += np.where(mask & (ss_u <= 0), busy, 0.0)
                total_busy += np.where(mask, busy, 0.0)
                has_pos |= pos
                active_count += mask
                full_cover |= (
                    mask
                    & kernels.isclose_f(a["x_req"], a["period"])
                    & (a["period"] * a["repeats"] >= horizon - 1e-9)
                )
                muw_sum += np.where(mask, a["muw_u"], 0.0)
            muw = np.where(
                active_count == 0,
                0.0,
                np.where(
                    full_cover,
                    horizon,
                    np.minimum(muw_sum, horizon),  # exact for count == 1
                ),
            )
            fallback = np.flatnonzero((active_count >= 2) & ~full_cover)
            floor = muw
            if bracket and fallback.size:
                floor = muw.copy()
                muw[fallback], floor[fallback] = self._muw_bracket(
                    step1, members, fallback, horizon[fallback]
                )
            ports.terms.append((pos_sum, nonpos_demand, has_pos, total_busy))
            ports.muw.append(muw)
            ports.floor.append(floor)
            ports.open.append(fallback)
            ports.cols.append(None)
            ports.ss.append(None)
            ports.ss_hi.append(None)
        return ports

    @staticmethod
    def _muw_bracket(
        step1: Dict[int, Dict[str, np.ndarray]],
        members: List[Tuple[int, int]],
        lanes: np.ndarray,
        horizon: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Ceiling and floor of what :meth:`_union` can return on ``lanes``.

        The floor is the largest single window, ``max_u min(MUW_u,
        horizon)``: a union covers each of its windows. The ceiling counts
        every window span that starts inside the horizon,
        ``min(sum_u X_REQ_u * ceil(horizon / period_u), horizon)``, not
        ``sum_u MUW_u``: the hyperperiod path of
        :func:`~repro.core.windows.union_length_params` repeats each window
        across the whole horizon, so with truncated ``repeats`` it can
        return more than ``sum_u MUW_u``. Both leave :data:`_UNION_SLACK`
        of relative room for the union's own rounding.
        """
        ceiling = np.zeros(lanes.size)
        floor = np.zeros(lanes.size)
        for si, __ in members:
            a = step1[si]
            active = a["active"][lanes]
            spans = np.ceil(horizon / a["period"][lanes])
            ceiling += np.where(active, a["x_req"][lanes] * spans, 0.0)
            floor = np.maximum(floor, np.where(active, a["muw_u"][lanes], 0.0))
        return (
            np.minimum(ceiling, horizon) * (1.0 + _UNION_SLACK),
            np.minimum(floor, horizon) * (1.0 - _UNION_SLACK),
        )

    def _union(self, cols: List[Tuple], i: int, horizon: float) -> float:
        """Multi-window MUW union for one mapping lane (memoized)."""
        params = tuple(
            (period[i], x_req[i], start[i], repeats[i])
            for active, period, x_req, start, repeats in cols
            if active[i]
        )
        return self.muw_cache.get_or_compute(
            ("muw", params, horizon), lambda: union_length_params(params, horizon)
        )

    # -- Step 2: served-memory combination ------------------------------ #

    def _step2_served(
        self,
        low: "_Lowered",
        step1: Dict[int, Dict[str, np.ndarray]],
        ss_group: List[np.ndarray],
    ) -> Dict[Tuple[Operand, int, str], Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per served key: (ss, limiting-port group index, present mask)."""
        plan = self.plan
        rule = self.options.served_rule

        # Per-stream (slot) max over its endpoints' port stalls.
        stream_ss: Dict[int, np.ndarray] = {}
        stream_port: Dict[int, np.ndarray] = {}
        for si, slot in enumerate(plan.slots):
            g0 = plan.group_index[slot.endpoints[0].port_key]
            cur_ss = ss_group[g0]
            cur_port = np.full(low.n, g0, dtype=np.int64)
            for ep in slot.endpoints[1:]:
                g1 = plan.group_index[ep.port_key]
                better = ss_group[g1] > cur_ss
                cur_ss = np.where(better, ss_group[g1], cur_ss)
                cur_port = np.where(better, g1, cur_port)
            stream_ss[si] = cur_ss
            stream_port[si] = cur_port

        served: Dict[
            Tuple[Operand, int, str], Tuple[np.ndarray, np.ndarray, np.ndarray]
        ] = {}
        for key in plan.served_keys:
            ss_acc = port_acc = present = None
            for si in plan.served_streams[key]:
                active = step1[si]["active"]
                ss = stream_ss[si]
                port = stream_port[si]
                if ss_acc is None:
                    ss_acc = np.where(active, ss, 0.0)
                    port_acc = port
                    present = active.copy()
                    continue
                if rule == "sum":
                    total = np.maximum(ss_acc, 0.0) + np.maximum(ss, 0.0)
                    total = np.where(
                        total == 0.0, np.maximum(ss_acc, ss), total
                    )
                    both = present & active
                    only_new = active & ~present
                    better = ss > ss_acc  # vs the accumulator *before* update
                    ss_acc = np.where(
                        both, total, np.where(only_new, ss, ss_acc)
                    )
                    port_acc = np.where(
                        (both & better) | only_new, port, port_acc
                    )
                else:  # "paper" and the base of "chained"
                    replace = active & (~present | (ss > ss_acc))
                    ss_acc = np.where(replace, ss, ss_acc)
                    port_acc = np.where(replace, port, port_acc)
                present = present | active
            served[key] = (ss_acc, port_acc, present)

        if rule == "chained":
            for key, (fi, pi) in plan.chain_pairs.items():
                f, p = step1[fi], step1[pi]
                eligible = (
                    f["active"]
                    & p["active"]
                    & (f["x_req"] < f["period"] - 1e-9)
                    & (p["x_req"] < p["period"] - 1e-9)
                )
                chain = np.maximum(0.0, stream_ss[fi]) + np.maximum(
                    0.0, stream_ss[pi]
                )
                ss_acc, port_acc, present = served[key]
                apply = eligible & (chain > 0) & (chain > ss_acc)
                served[key] = (
                    np.where(apply, chain, ss_acc),
                    port_acc,
                    present,
                )
        return served

    # -- Step 3 + assembly ---------------------------------------------- #

    def _step3(
        self,
        low: "_Lowered",
        served: Dict[
            Tuple[Operand, int, str], Tuple[np.ndarray, np.ndarray, np.ndarray]
        ],
        bound: Optional[str] = None,
    ) -> Tuple[np.ndarray, List[Tuple[int, np.ndarray, np.ndarray, np.ndarray]]]:
        """``SS_overall`` per lane over the served entries in report order.

        With ``bound`` (``"lower"`` or ``"upper"``), the bound of
        :meth:`bracket`: every entry on a port of its own (no cross-group
        credit), and for the lower bound on a machine whose ports can
        limit two groups, all entries in one group.
        """
        plan = self.plan
        keys = plan.sorted_served
        gids = [plan.served_gid[key] for key in keys]
        ports = [served[key][1] for key in keys]
        n_ports = len(plan.group_keys)
        if bound is not None:
            if bound == "lower" and plan.cross_group_ports:
                gids = [0] * len(keys)
            ports = [np.full(low.n, e) for e in range(len(keys))]
            n_ports = len(keys)
        return integrate_stall_entries(
            gids,
            [served[key][0] for key in keys],
            ports,
            [served[key][2] for key in keys],
            n_ports,
        )

    def _totals(self, low: "_Lowered", ss_overall: np.ndarray) -> np.ndarray:
        """Total latency per lane: the association order of
        ``LatencyReport.total_cycles``, ``(cc_spatial + ss_overall) +
        preload + offload``."""
        if low.phases is None:
            low.phases = (self._preload(low), self._offload(low))
        preload, offload = low.phases
        return ((low.total_cc + ss_overall) + preload) + offload

    def _finalize(
        self,
        low: "_Lowered",
        served: Dict[
            Tuple[Operand, int, str], Tuple[np.ndarray, np.ndarray, np.ndarray]
        ],
        lanes: Optional[Sequence[int]],
    ) -> BatchResult:
        """Step 3 and the Fig. 1 numbers of every lane; reports for
        ``lanes`` (``reports`` is None without them)."""
        plan = self.plan
        n = low.n
        layer = low.layer
        ss_overall, per_group = self._step3(low, served)
        total_cycles = self._totals(low, ss_overall)
        preload, offload = low.phases
        array_size = self.accelerator.mac_array.size
        cc_ideal_val = layer.total_macs / array_size
        cc_ideal = np.full(n, cc_ideal_val)
        cc_spatial = low.total_cc
        scenario = kernels.scenario_code(
            cc_ideal, cc_spatial.astype(np.float64), ss_overall
        )
        utilization = cc_ideal / total_cycles

        reports: Optional[List[Optional[LatencyReport]]] = None
        if lanes is not None:
            # Columns leave NumPy once; the per-lane loop touches lists.
            reports = [None] * n
            group_keys = plan.group_keys
            entries = [
                (key, served[key][0].tolist(), served[key][1].tolist(),
                 served[key][2].tolist())
                for key in plan.sorted_served
            ]
            groups = [
                (gid, contribution.tolist(), worst.tolist(), has.tolist())
                for gid, contribution, worst, has in per_group
            ]
            layer_name = layer.name or str(layer.layer_type)
            accel_name = self.accelerator.name
            columns = [
                x.tolist()
                for x in (ss_overall, cc_spatial, preload, offload, scenario)
            ]
            for i in lanes:
                stalls = {
                    e: ServedMemoryStall(
                        key[0], key[1], key[2], ss_col[i], group_keys[port_col[i]]
                    )
                    for e, (key, ss_col, port_col, present) in enumerate(entries)
                    if present[i]
                }
                dominant = [
                    stalls[worst[i]]
                    for __, contribution, worst, has in groups
                    if has[i] and contribution[i] > 0
                ]
                ss_i, spatial_i, pre_i, off_i, scen_i = (c[i] for c in columns)
                reports[i] = LatencyReport(
                    layer_name=layer_name,
                    accelerator_name=accel_name,
                    cc_ideal=cc_ideal_val,
                    cc_spatial=spatial_i,
                    ss_overall=ss_i,
                    preload=pre_i,
                    offload=off_i,
                    scenario=scen_i,
                    dtls=(),
                    port_combinations={},
                    served_stalls=tuple(stalls.values()),
                    integration=StallIntegration(
                        ss_overall=ss_i,
                        group_stalls=tuple(
                            (gid, contribution[i])
                            for gid, contribution, __, has in groups
                            if has[i]
                        ),
                        dominant=tuple(sorted(dominant, key=lambda s: -s.ss)),
                    ),
                )
        return BatchResult(
            mappings=low.mappings,
            cc_ideal=cc_ideal,
            cc_spatial=cc_spatial,
            ss_overall=ss_overall,
            preload=preload,
            offload=offload,
            scenario=scenario,
            total_cycles=total_cycles,
            utilization=utilization,
            reports=reports,
        )

    # -- pre/post phases ------------------------------------------------ #

    def _preload(self, low: "_Lowered") -> np.ndarray:
        accelerator = self.accelerator
        hierarchy = accelerator.hierarchy
        max_depth = max(hierarchy.depth(op) for op in (Operand.W, Operand.I))
        total = np.zeros(low.n)

        if accelerator.offchip_bandwidth is not None:
            bits = np.zeros(low.n)
            for operand in (Operand.W, Operand.I):
                outer = hierarchy.depth(operand) - 1
                bits = bits + low.footprint_bits(operand, outer)
            total += bits / accelerator.offchip_bandwidth

        for stage in range(1, max_depth):
            port_bits: Dict[Tuple[str, str], Tuple[np.ndarray, float]] = {}
            for operand in (Operand.W, Operand.I):
                depth = hierarchy.depth(operand)
                dst_index = depth - 1 - stage
                if dst_index < 0:
                    continue
                src = hierarchy.levels(operand)[dst_index + 1]
                dst = hierarchy.levels(operand)[dst_index]
                bits = low.footprint_bits(operand, dst_index).astype(np.float64)
                for level, kind in ((src, EndpointKind.TL), (dst, EndpointKind.FH)):
                    port = level.port_for(operand, kind)
                    key = (level.name, port.name)
                    bw = port.bandwidth * level.instance.instances
                    prev_bits, __ = port_bits.get(key, (0.0, bw))
                    port_bits[key] = (prev_bits + bits, bw)
            stage_time = np.zeros(low.n)
            for bits, bw in port_bits.values():
                stage_time = np.maximum(stage_time, bits / bw)
            total = total + stage_time
        return total

    def _offload(self, low: "_Lowered") -> np.ndarray:
        hierarchy = self.accelerator.hierarchy
        chain = hierarchy.levels(Operand.O)
        total = np.zeros(low.n)
        p_final = low.precision(Operand.O, partial=False)
        for lvl in range(len(chain) - 1):
            src, dst = chain[lvl], chain[lvl + 1]
            bits = (low.elements(Operand.O, lvl) * p_final).astype(np.float64)
            src_bw = (
                src.port_for(Operand.O, EndpointKind.TH).bandwidth
                * src.instance.instances
            )
            dst_bw = (
                dst.port_for(Operand.O, EndpointKind.FL).bandwidth
                * dst.instance.instances
            )
            total = total + bits / min(src_bw, dst_bw)
        return total


# --------------------------------------------------------------------- #
# Lowering
# --------------------------------------------------------------------- #

class _Lowered:
    """Int64 SoA view of one batch: loops, cuts, prefix products, masks.

    Built from the columns of a :class:`~repro.mapping.block.MappingBlock`;
    a plain sequence of mappings is packed into them first.
    """

    def __init__(self, plan: BatchPlan, layer: LayerSpec, mappings: Sequence) -> None:
        block = pack(mappings)
        self.plan = plan
        self.layer = layer
        self.mappings = block
        n = self.n = len(block)
        dims, sizes = block.dims, block.sizes
        L = self.L = dims.shape[1]
        #: Row index of every lane: ``table[rows, idx]`` picks one column
        #: per lane.
        self.rows = np.arange(n)
        # Padding positions (dim -1, size 1) change no product.
        self.pad = dims < 0

        # Prefix products of all loops, and of each dimension separately as
        # one (7, n, L + 1) table.
        self.prefix_all = np.ones((n, L + 1), dtype=np.int64)
        np.cumprod(sizes, axis=1, out=self.prefix_all[:, 1:])
        per_dim = dims == np.arange(len(ALL_DIMS), dtype=np.int64)[:, None, None]
        self.prefix_dim = np.ones((len(ALL_DIMS), n, L + 1), dtype=np.int64)
        np.cumprod(
            np.where(per_dim, sizes, 1), axis=2, out=self.prefix_dim[:, :, 1:]
        )
        self.total_cc = self.prefix_all[:, L]
        self.horizon = self.total_cc.astype(np.float64)

        # Per-operand irrelevance of every loop position (pr counts as r),
        # and the run-boundary helper indices:
        #   nxt[:, j]  = first relevant position >= j   (L when none)
        #   prv[:, j]  = last relevant position < j     (-1 when none)
        # Padding positions are size-1 and marked irrelevant — they extend
        # runs without changing any product.
        self.ir_mask = {}
        self.nxt = {}
        self.prv = {}
        positions = np.arange(L, dtype=np.int64)
        for operand in Operand:
            ir_of_dim = np.array(
                [
                    layer.relevance(operand, dim, pr_as_r=True) == "ir"
                    for dim in ALL_DIMS
                ]
            )
            ir = ir_of_dim[dims] | self.pad
            self.ir_mask[operand] = ir
            rel = ~ir
            idx = np.where(rel, positions, L)
            nxt = np.empty((n, L + 1), dtype=np.int64)
            nxt[:, L] = L
            if L:
                nxt[:, :L] = np.minimum.accumulate(idx[:, ::-1], axis=1)[:, ::-1]
            prv = np.empty((n, L + 1), dtype=np.int64)
            prv[:, 0] = -1
            if L:
                prv[:, 1:] = np.maximum.accumulate(
                    np.where(rel, positions, -1), axis=1
                )
            self.nxt[operand] = nxt
            self.prv[operand] = prv

        # Product of *all* output-irrelevant loop sizes up to each position
        # (for the revisit factor of partial sums).
        self.prefix_ir_o = np.ones((n, L + 1), dtype=np.int64)
        np.cumprod(
            np.where(self.ir_mask[Operand.O], sizes, 1),
            axis=1,
            out=self.prefix_ir_o[:, 1:],
        )

        # Per operand, the end of each machine level's loops, read with
        # TemporalMapping.level_bounds semantics: cut ``l``, or the whole
        # nest (``L``) for the level just past the last cut. A deeper
        # mapping's extra cuts are never read; a shallower one lacks a
        # level.
        for row in np.flatnonzero(block.shallow(plan.depths)).tolist():
            check_depth(block[row], plan.accelerator)
        self.cuts = {}
        for operand in Operand:
            depth = plan.depths[operand]
            cut = block.cuts[operand][:, :depth]
            ends = self.cuts[operand] = np.full((n, depth), L, dtype=np.int64)
            ends[:, : cut.shape[1]] = np.where(cut < 0, L, cut)
        # Spatial unroll factors as (7, n).
        self.spatial = block.spatial
        self.size_col = np.array(
            [layer.size(dim) for dim in ALL_DIMS], dtype=np.int64
        )[:, None]
        self._elements: Dict[Tuple[Operand, int], np.ndarray] = {}
        #: ``(preload, offload)`` per lane, set by the evaluator once.
        self.phases: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # -- helpers -------------------------------------------------------- #

    def gather(self, table: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """``table[i, idx[i]]`` for every lane ``i``."""
        return table[self.rows, idx]

    def cut(self, operand: Operand, level: int) -> np.ndarray:
        """End (exclusive) of ``level``'s loop range, per lane."""
        return self.cuts[operand][:, level]

    def precision(self, operand: Operand, partial: bool) -> int:
        return self.layer.precision.of(operand, partial=partial)

    def _elements_from_extents(self, operand: Operand, ext: np.ndarray) -> np.ndarray:
        """Per-lane :func:`repro.mapping.footprint.extent_elements` of
        (7, n) clamped temporal-x-spatial extents."""
        return extent_elements(self.layer, operand, dict(zip(ALL_DIMS, ext)))

    def elements(self, operand: Operand, level: int) -> np.ndarray:
        """``Mem_DATA`` elements of ``operand`` at memory ``level``, per lane.

        Memoized per ``(operand, level)``: Step-1 refills, flushes and
        partial-sum read-backs, pre-loading and off-loading all ask for the
        same few tiles.
        """
        key = (operand, level)
        cached = self._elements.get(key)
        if cached is None:
            ext = self.prefix_dim[:, self.rows, self.cut(operand, level)] * self.spatial
            cached = self._elements[key] = self._elements_from_extents(
                operand, np.minimum(ext, self.size_col)
            )
        return cached

    def footprint_bits(self, operand: Operand, level: int) -> np.ndarray:
        """``Mem_DATA`` bits at ``level`` at final precision.

        Matches :meth:`repro.mapping.mapping.Mapping.footprint_bits` for
        W/I (the only operands pre-loading asks for).
        """
        return self.elements(operand, level) * self.precision(operand, partial=False)

    def compute_edge_elements(self, operand: Operand) -> np.ndarray:
        """Per-cycle tile elements: spatial unrolling only (no loops)."""
        return self._elements_from_extents(
            operand, np.minimum(self.spatial, self.size_col)
        )
