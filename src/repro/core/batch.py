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
* **Lowering** (:class:`_Lowered`): per-mapping loop dims, sizes and
  per-operand cuts become int64 arrays, each filled by one ``np.array``
  call from per-lane lists; prefix products give every period, ``Z`` and
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

Only two pieces stay per-mapping Python: multi-window MUW unions that miss
the vectorized fast paths (delegated to
:func:`repro.core.windows.union_length_params`, optionally memoized in a
:class:`~repro.engine.cache.PartialResultCache` so neighboring mappings
re-use each other's window unions), and the Step-3 group integration
(:func:`repro.core.step3.integrate_stall_entries` over a handful of
entries).

Batch reports are *slim*: ``dtls`` and ``port_combinations`` are left
empty (the per-DTL anatomy would dominate materialization cost), while
``served_stalls`` and the ``integration`` — everything the run ledger,
rankings and bottleneck lists consume — are fully populated. A single
``engine.evaluate()`` call transparently upgrades a slim cached report to
a full one when the anatomy is requested.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import kernels
from repro.core.dtl import TrafficKind
from repro.core.report import LatencyReport
from repro.core.step1 import ModelOptions
from repro.core.step2 import ServedMemoryStall
from repro.core.step3 import StallIntegration, integrate_stall_entries
from repro.core.windows import union_length_params
from repro.hardware.accelerator import Accelerator
from repro.hardware.port import EndpointKind
from repro.mapping.footprint import extent_elements
from repro.workload.dims import ALL_DIMS
from repro.workload.layer import LayerSpec
from repro.workload.operand import Operand


class BatchLoweringError(ValueError):
    """A mapping set that cannot be lowered into one SoA batch."""


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
    ``materialize=True``; the arrays are always present and are what the
    speed-critical sweeps consume.
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
    reports: Optional[List[LatencyReport]] = None


# --------------------------------------------------------------------- #
# The evaluator
# --------------------------------------------------------------------- #

_DIM_INDEX = {dim: i for i, dim in enumerate(ALL_DIMS)}


class BatchEvaluator:
    """Evaluate many mappings of one layer on one accelerator at once.

    Parameters
    ----------
    accelerator / options:
        The design point and model conventions (same as
        :class:`~repro.core.model.LatencyModel`).
    muw_cache:
        Optional :class:`~repro.engine.cache.PartialResultCache` (or any
        object with ``get_or_compute(key, fn)``) memoizing multi-window
        MUW unions across batches — the delta-evaluation hook that lets
        neighboring mappings skip each other's Step-2 window merges.
    """

    def __init__(
        self,
        accelerator: Accelerator,
        options: Optional[ModelOptions] = None,
        muw_cache=None,
    ) -> None:
        self.accelerator = accelerator
        self.options = options or ModelOptions()
        self.plan = BatchPlan(accelerator, self.options)
        self.muw_cache = muw_cache
        # Without an external cache, memoize window unions locally: lanes
        # of one sweep overwhelmingly share (params, horizon) keys.
        self._local_muw: Dict[Tuple, float] = {}

    # -- public API ----------------------------------------------------- #

    def supports(self, mapping) -> bool:
        """Whether ``mapping`` can be lowered onto this plan."""
        cuts = mapping.temporal.cuts
        for op, depth in self.plan.depths.items():
            if len(cuts[op]) + 1 != depth:
                return False
        return True

    def evaluate(self, mappings: Sequence, materialize: bool = True) -> BatchResult:
        """Run Steps 1-3 across all ``mappings`` (same layer) at once."""
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
        layer = mappings[0].layer
        for m in mappings:
            if m.layer is not layer and m.layer != layer:
                raise BatchLoweringError("batch mappings must share one layer")
            if not self.supports(m):
                raise BatchLoweringError(
                    f"mapping assumes a different memory depth than "
                    f"{self.accelerator.name}"
                )
        low = _Lowered(self.plan, layer, mappings)
        step1 = self._step1(low)
        ss_group = self._step2_ports(low, step1)
        served = self._step2_served(low, step1, ss_group)
        return self._finalize(low, served, materialize)

    # -- Step 1 --------------------------------------------------------- #

    def _step1(self, low: "_Lowered") -> Dict[int, Dict[str, np.ndarray]]:
        """Per-slot Table-I arrays: period, repeats, spans, per-endpoint SS."""
        plan = self.plan
        opts = self.options
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
        if opts.residency_extension:
            run_end = low.gather(low.nxt[op], hi)
            ext = low.gather(low.prefix_all, run_end) // base
        else:
            run_end = low.gather(low.nxt[op], hi)
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
        self, low: "_Lowered", step1: Dict[int, Dict[str, np.ndarray]]
    ) -> List[np.ndarray]:
        """``SS_comb`` per port group, as one array per group."""
        plan = self.plan
        horizon = low.horizon
        refined = self.options.combine_rule == "refined"
        ss_group: List[np.ndarray] = []
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
            if fallback.size:
                # Per-lane Python work: pull the member columns out of
                # NumPy once (scalar indexing into lists is ~10x cheaper).
                cols = [
                    (
                        step1[si]["active"].tolist(),
                        step1[si]["period"].tolist(),
                        step1[si]["x_req"].tolist(),
                        step1[si]["window_start"].tolist(),
                        step1[si]["repeats"].tolist(),
                    )
                    for si, __ in members
                ]
                horizon_list = horizon.tolist()
                for i in fallback.tolist():
                    muw[i] = self._union(cols, i, horizon_list[i])
            ss_group.append(
                kernels.combine_ss(
                    pos_sum, nonpos_demand, has_pos, muw, total_busy, refined
                )
            )
        return ss_group

    def _union(self, cols: List[Tuple], i: int, horizon: float) -> float:
        """Multi-window MUW union for one mapping lane (memoized)."""
        params = tuple(
            (period[i], x_req[i], start[i], repeats[i])
            for active, period, x_req, start, repeats in cols
            if active[i]
        )
        key = ("muw", params, horizon)
        if self.muw_cache is not None:
            return self.muw_cache.get_or_compute(
                key, lambda: union_length_params(params, horizon)
            )
        hit = self._local_muw.get(key)
        if hit is None:
            hit = union_length_params(params, horizon)
            if len(self._local_muw) < 200_000:
                self._local_muw[key] = hit
        return hit

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

    def _finalize(
        self,
        low: "_Lowered",
        served: Dict[
            Tuple[Operand, int, str], Tuple[np.ndarray, np.ndarray, np.ndarray]
        ],
        materialize: bool,
    ) -> BatchResult:
        plan = self.plan
        n = low.n
        layer = low.layer

        preload = self._preload(low)
        offload = self._offload(low)

        # Per-mapping Step 3 over the (few) present served entries. Columns
        # leave NumPy once; the per-lane loop then touches plain lists.
        group_key_list = plan.group_keys
        sorted_cols = [
            (
                key,
                plan.served_gid[key],
                served[key][0].tolist(),
                served[key][1].tolist(),
                served[key][2].tolist(),
            )
            for key in plan.sorted_served
        ]
        ss_overall_list: List[float] = []
        served_out: List[Tuple[ServedMemoryStall, ...]] = []
        integrations: List[StallIntegration] = []
        for i in range(n):
            entries = []
            stalls: List[ServedMemoryStall] = []
            for key, gid, ss_col, port_col, present in sorted_cols:
                if not present[i]:
                    continue
                port_key = group_key_list[port_col[i]]
                ss = ss_col[i]
                entries.append((gid, ss, port_key))
                if materialize:
                    stalls.append(
                        ServedMemoryStall(key[0], key[1], key[2], ss, port_key)
                    )
            total, per_group = integrate_stall_entries(entries)
            ss_overall_list.append(total)
            if materialize:
                dominant = [
                    stalls[worst]
                    for __, contribution, worst in per_group
                    if contribution > 0
                ]
                integrations.append(
                    StallIntegration(
                        ss_overall=total,
                        group_stalls=tuple(
                            (gid, c) for gid, c, __ in per_group
                        ),
                        dominant=tuple(
                            sorted(dominant, key=lambda s: -s.ss)
                        ),
                    )
                )
                served_out.append(tuple(stalls))
        ss_overall = np.asarray(ss_overall_list, dtype=np.float64)

        array_size = self.accelerator.mac_array.size
        cc_ideal_val = layer.total_macs / array_size
        cc_ideal = np.full(n, cc_ideal_val)
        cc_spatial = low.total_cc
        scenario = kernels.scenario_code(
            cc_ideal, cc_spatial.astype(np.float64), ss_overall
        )
        # Same association order as LatencyReport.total_cycles:
        # (cc_spatial + ss_overall) + preload + offload.
        total_cycles = (
            (cc_spatial + ss_overall) + preload
        ) + offload
        utilization = cc_ideal / total_cycles

        reports: Optional[List[LatencyReport]] = None
        if materialize:
            layer_name = layer.name or str(layer.layer_type)
            accel_name = self.accelerator.name
            reports = [
                LatencyReport(
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
                    served_stalls=stalls_i,
                    integration=integ_i,
                )
                for spatial_i, ss_i, pre_i, off_i, scen_i, stalls_i, integ_i in zip(
                    cc_spatial.tolist(),
                    ss_overall_list,
                    preload.tolist(),
                    offload.tolist(),
                    scenario.tolist(),
                    served_out,
                    integrations,
                )
            ]
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
    """Int64 SoA view of one batch: loops, cuts, prefix products, masks."""

    def __init__(self, plan: BatchPlan, layer: LayerSpec, mappings: Sequence) -> None:
        self.plan = plan
        self.layer = layer
        self.mappings = mappings
        n = self.n = len(mappings)
        loop_lists = [m.temporal.loops for m in mappings]
        lengths = [len(loops) for loops in loop_lists]
        L = self.L = max(lengths)
        #: Row index of every lane: ``table[rows, idx]`` picks one column
        #: per lane.
        self.rows = np.arange(n)

        # Padding positions hold dim 0 with size 1: they change no product.
        dim_pad = [0] * L
        size_pad = [1] * L
        dims = np.array(
            [
                [_DIM_INDEX[loop.dim] for loop in loops] + dim_pad[len(loops):]
                for loops in loop_lists
            ],
            dtype=np.int64,
        )
        sizes = np.array(
            [
                [loop.size for loop in loops] + size_pad[len(loops):]
                for loops in loop_lists
            ],
            dtype=np.int64,
        )
        self.pad = np.arange(L) >= np.array(lengths, dtype=np.int64)[:, None]

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

        # Cuts per operand/boundary, and spatial unroll factors as (7, n).
        self.cuts = {
            operand: np.array(
                [m.temporal.cuts[operand] for m in mappings], dtype=np.int64
            ).reshape(n, -1)
            for operand in Operand
        }
        self.spatial = np.array(
            [[m.spatial.factor(dim) for dim in ALL_DIMS] for m in mappings],
            dtype=np.int64,
        ).T
        self.size_col = np.array(
            [layer.size(dim) for dim in ALL_DIMS], dtype=np.int64
        )[:, None]
        self._elements: Dict[Tuple[Operand, int], np.ndarray] = {}

    # -- helpers -------------------------------------------------------- #

    def gather(self, table: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """``table[i, idx[i]]`` for every lane ``i``."""
        return table[self.rows, idx]

    def cut(self, operand: Operand, boundary: int) -> np.ndarray:
        return self.cuts[operand][:, boundary]

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
            hi = (
                self.cut(operand, level)
                if level < self.cuts[operand].shape[1]
                else np.full(self.n, self.L, dtype=np.int64)
            )
            ext = self.prefix_dim[:, self.rows, hi] * self.spatial
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
