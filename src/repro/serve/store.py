"""The server's persistent, content-addressed result store.

The in-process engine's cache dies with the process; the serve daemon's
does not. The store is a fingerprint-keyed index
``(accelerator_fp, options_fp, mapping_fp) -> RunRecord`` layered on the
PR 3 run ledger:

* **warm start** — on boot, any number of prior ledger snapshots
  (SQLite databases *or* committed JSONL exports such as
  ``benchmarks/baseline_ledger.jsonl``) are loaded through
  :func:`~repro.observability.ledger.load_snapshot` and indexed. A
  request whose fingerprints match a warm row is answered without
  running the kernel — a restarted daemon keeps yesterday's work.
* **write-through** — every evaluation the server runs is appended to
  its own :class:`~repro.observability.RunLedger` (when configured) *and*
  indexed live, so the next boot warm-starts from it.

Ledger rows store the full CC decomposition plus the per-unit-memory
``SS_comb`` map, which is exactly the slim-report surface the wire
protocol ships — so a warm hit reconstructs a
:class:`~repro.core.report.LatencyReport` that is bit-identical on every
gated metric to the one the kernel produced (floats round-trip exactly
through both SQLite and JSON). What a row does **not** keep is the
limiting-port attribution inside ``ss_comb`` keys, so warm reports carry
``("", "")`` there — outside the parity surface, and absent from slim
batch-core reports too.

Only latency results are stored; energy requests carry full access-count
anatomy and always go through the kernel's engines (whose cache keeps
them for the lifetime of the daemon).
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.report import LatencyReport
from repro.core.step2 import ServedMemoryStall
from repro.observability.ledger import (
    NULL_LEDGER,
    LedgerSchemaError,
    RunRecord,
    load_snapshot,
    record_from_report,
)
from repro.workload.operand import Operand

#: The content address of one latency result.
StoreKey = Tuple[str, str, str]  # (accelerator_fp, options_fp, mapping_fp)


def record_to_report(record: RunRecord) -> LatencyReport:
    """Rebuild a slim latency report from one ledger row.

    Inverse of :func:`~repro.observability.ledger.record_from_report` up
    to the slim-report surface: all gated metrics and the per-unit-memory
    stall map, with empty DTL/port anatomy (like the batch core's slim
    reports, which the engine transparently re-materializes on demand).
    """
    stalls: List[ServedMemoryStall] = []
    for key, ss in sorted(record.ss_comb.items()):
        # Keys are formatted "W@LB/L0" by record_from_report.
        operand, __, rest = key.partition("@")
        memory, __, level = rest.rpartition("/L")
        stalls.append(
            ServedMemoryStall(
                operand=Operand(operand),
                level=int(level),
                memory=memory,
                ss=float(ss),
                limiting_port=("", ""),
            )
        )
    return LatencyReport(
        layer_name=record.layer,
        accelerator_name=record.accelerator,
        cc_ideal=float(record.cc_ideal),
        cc_spatial=int(record.cc_spatial),
        ss_overall=float(record.ss_overall),
        preload=float(record.preload),
        offload=float(record.offload),
        scenario=int(record.scenario),
        dtls=(),
        port_combinations={},
        served_stalls=tuple(stalls),
        integration=None,
    )


class ResultStore:
    """Fingerprint-indexed latency results, persisted via the run ledger.

    Thread-safe for the server's mixed access pattern (lookups on the
    event loop, warm-start on boot, puts from kernel completions); the
    index itself is a plain dict guarded by one lock — lookups are a
    hash probe, never a kernel.
    """

    def __init__(self, ledger=NULL_LEDGER) -> None:
        self._ledger = ledger
        self._lock = threading.Lock()
        #: key -> (record, warm) — ``warm`` marks rows inherited from a
        #: prior ledger rather than evaluated this boot.
        self._index: Dict[StoreKey, Tuple[RunRecord, bool]] = {}
        self.warm_rows = 0      # indexable rows loaded at boot

    def __len__(self) -> int:
        return len(self._index)

    # -- boot ----------------------------------------------------------- #

    def warm_start(self, paths: Iterable[str]) -> int:
        """Index every evaluation row of the given ledger snapshots.

        Accepts SQLite ledgers and JSONL exports alike (dispatch is by
        content); a snapshot that cannot be read (missing, malformed, or
        written by a newer schema) is skipped silently, so a default
        warm-start list can include not-yet-created paths and a bad file
        never stops the daemon's boot. Rows without
        the full fingerprint triple (bench rows, interruption markers,
        pre-fingerprint records) are not indexable and are ignored.
        Later paths win on key collisions, like a cache overwrite.
        """
        loaded = 0
        for path in paths:
            try:
                records = load_snapshot(str(path))
            except (OSError, LedgerSchemaError):
                continue  # unreadable: missing, malformed or newer schema
            for record in records:
                if record.kind != "evaluation":
                    continue
                if not (record.accelerator_fp and record.options_fp
                        and record.mapping_fp):
                    continue
                key = (record.accelerator_fp, record.options_fp, record.mapping_fp)
                with self._lock:
                    self._index[key] = (record, True)
                loaded += 1
        self.warm_rows = loaded
        return loaded

    # -- lookups / writes ----------------------------------------------- #

    def get(self, key: StoreKey) -> Optional[Tuple[LatencyReport, bool]]:
        """The stored report for ``key`` plus its warm-ness, or ``None``."""
        with self._lock:
            entry = self._index.get(key)
        if entry is None:
            return None
        record, warm = entry
        return record_to_report(record), warm

    def put(
        self,
        key: StoreKey,
        report: LatencyReport,
        *,
        wall_time_s: float = 0.0,
    ) -> RunRecord:
        """Index an evaluated report and append it to the backing ledger."""
        accelerator_fp, options_fp, mapping_fp = key
        record = record_from_report(
            report,
            accelerator_fp=accelerator_fp,
            mapping_fp=mapping_fp,
            options_fp=options_fp,
            cache_hit=False,
            wall_time_s=wall_time_s,
        )
        with self._lock:
            self._index[key] = (record, False)
        if self._ledger.enabled:
            self._ledger.append(record)
        return record


__all__ = ["ResultStore", "StoreKey", "record_to_report"]
