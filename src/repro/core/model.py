"""The uniform intra-layer latency model — the paper's core contribution.

:class:`LatencyModel` ties the three steps together (Section III):

1. :func:`repro.core.step1.build_dtls` divides the memory system into unit
   memories and derives every DTL's ``ReqBW_u`` / ``MUW_u`` / ``SS_u``;
2. :func:`repro.core.step2.combine_all_ports` +
   :func:`repro.core.step2.served_memory_stalls` combine shared-port DTLs
   (Eq. 1/2) and same-served-memory endpoints (max);
3. :func:`repro.core.step3.integrate_stalls` folds the per-memory stalls
   into ``SS_overall`` under the accelerator's stall-overlap config.

The overall latency then follows Section III-E:
``CC = preload + CC_spatial + SS_overall + offload`` with
``U = CC_ideal / CC``.

This class is the readable, one-mapping-at-a-time reference. Production
evaluation runs the vectorized :class:`~repro.core.batch.BatchEvaluator`,
whose reports must equal this reference's (``batch_scalar_parity``).
"""

from __future__ import annotations

from typing import Optional

from repro.core.loading import offload_cycles, preload_cycles
from repro.core.report import LatencyReport, trace_report
from repro.core.step1 import ModelOptions, build_dtls
from repro.core.step2 import combine_all_ports, served_memory_stalls
from repro.core.step3 import integrate_stalls
from repro.hardware.accelerator import Accelerator
from repro.mapping.mapping import (
    Mapping,
    MappingError,
    check_capacity,
    check_depth,
    utilization_scenario,
)


class LatencyModel:
    """Memory-type / bandwidth / sharing-aware analytical latency model.

    Parameters
    ----------
    accelerator:
        The hardware design point to evaluate mappings on.
    options:
        Modeling conventions (compute-edge DTLs, period-count convention).

    Examples
    --------
    >>> from repro.hardware.presets import case_study_accelerator
    >>> from repro.dse.mapper import TemporalMapper
    >>> preset = case_study_accelerator()
    >>> model = LatencyModel(preset.accelerator)   # doctest: +SKIP
    >>> report = model.evaluate(mapping)           # doctest: +SKIP
    >>> report.total_cycles                        # doctest: +SKIP
    """

    def __init__(
        self,
        accelerator: Accelerator,
        options: Optional[ModelOptions] = None,
    ) -> None:
        self.accelerator = accelerator
        self.options = options or ModelOptions()

    # ------------------------------------------------------------------ #

    def evaluate(self, mapping: Mapping, validate: bool = True) -> LatencyReport:
        """Run the 3-step model on ``mapping`` and assemble the report.

        ``validate=True`` (default) first checks that the mapping fits the
        MAC array and every memory's mapper-visible capacity, raising
        :class:`~repro.mapping.mapping.MappingError` with the full list of
        violations otherwise. A mapping shallower than the machine raises
        :class:`~repro.mapping.mapping.MappingError` either way. Under an
        ambient tracer the report is projected as the model's span
        subtree (:func:`~repro.core.report.trace_report`).
        """
        if validate:
            self.check(mapping)
        else:
            check_depth(mapping, self.accelerator)

        array_size = self.accelerator.mac_array.size
        horizon = float(mapping.spatial_cycles)
        dtls = tuple(build_dtls(self.accelerator, mapping, self.options))
        ports = combine_all_ports(dtls, horizon, self.options.combine_rule)
        served = tuple(served_memory_stalls(dtls, ports, self.options.served_rule))
        integration = integrate_stalls(served, self.accelerator.stall_overlap)
        report = LatencyReport(
            layer_name=mapping.layer.name or str(mapping.layer.layer_type),
            accelerator_name=self.accelerator.name,
            cc_ideal=mapping.ideal_cycles(array_size),
            cc_spatial=mapping.spatial_cycles,
            ss_overall=integration.ss_overall,
            preload=preload_cycles(self.accelerator, mapping),
            offload=offload_cycles(self.accelerator, mapping),
            scenario=utilization_scenario(mapping, array_size, integration.ss_overall),
            dtls=dtls,
            port_combinations=ports,
            served_stalls=served,
            integration=integration,
        )
        trace_report(report, self.accelerator.stall_overlap, self.options)
        return report

    def check(self, mapping: Mapping) -> None:
        """Raise :class:`MappingError` if ``mapping`` is infeasible here."""
        if not mapping.spatial.fits(self.accelerator.mac_array.size):
            raise MappingError(
                f"spatial mapping {mapping.spatial} needs "
                f"{mapping.spatial.total_unrolling} MACs but "
                f"{self.accelerator.name} has {self.accelerator.mac_array.size}"
            )
        violations = check_capacity(mapping, self.accelerator)
        if violations:
            raise MappingError("; ".join(violations))
