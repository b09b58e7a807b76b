"""The persistent run ledger: telemetry that survives the process.

PR 2's spans and metrics die with the run; the ledger is the durable
complement — an **append-only, schema-versioned** store of every engine
evaluation and benchmark result, diffable across commits. One row
(:class:`RunRecord`) carries the design-point identity (accelerator /
mapping / options fingerprints), the full CC decomposition of the paper
(``CC_ideal``, spatial stall, ``SS_overall``, preload / offload), the
per-unit-memory ``SS_comb`` map, scenario, utilization, cache provenance,
wall time and the git SHA it was measured at.

Storage is stdlib :mod:`sqlite3` (no new dependencies) with a JSONL
export for snapshots that belong in version control — the CI baseline
ledger is a committed ``.jsonl`` file. Both forms load back through
:func:`load_snapshot`, and :func:`diff_records` compares two snapshots
per metric with configurable tolerances — the regression gate behind
``repro-latency diff``.

:class:`RunRecord`'s fields are the schema: the SQLite ``runs`` table's
columns, the rows written and the records read back are all derived
from them. A writer (:class:`RunLedger`) adds the columns an older file
lacks; a reader (:func:`load_snapshot`) opens the file read-only and
never writes, reading an absent column or a NULL as the field's
default. Adding a field means giving it a default in :class:`RunRecord`
and bumping :data:`SCHEMA_VERSION`.

Like the tracer and metrics registry, the ledger is ambient and off by
default: ``telemetry().ledger`` (see :mod:`repro.observability.telemetry`)
is a no-op :data:`NULL_LEDGER` unless ``use_telemetry(ledger=...)``
installed a real one, and every emit site guards on ``ledger.enabled``
so the disabled path allocates nothing::

    from repro.observability import RunLedger, use_telemetry

    with RunLedger("runs.sqlite") as ledger, use_telemetry(ledger=ledger):
        engine.evaluate(mapping)        # row appended automatically
    ledger.export_jsonl("runs.jsonl")   # committable snapshot

or from any CLI subcommand with ``--ledger runs.sqlite``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import os
import pathlib
import sqlite3
import subprocess
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.fields import read_fields

#: Current on-disk schema version (``PRAGMA user_version`` in SQLite, the
#: ``"v"`` field of each JSONL line). v1 predates the ``ss_comb`` map,
#: ``git_sha`` and ``label`` columns; v2 predates the ``backend`` column
#: (which simulator backed a ``kind="verify"`` row); v3 predates the
#: ``campaign`` column (which search campaign a row belongs to). Adding a
#: :class:`RunRecord` field (with a default) bumps it.
SCHEMA_VERSION = 4

#: Record fields gated by ``repro-latency diff`` (deterministic model
#: outputs). Timing fields (``ts``, ``wall_time_s``) and provenance
#: (``git_sha``) are stored and reported but never fail the gate; the
#: ``extra`` payload of bench records is reported as informational.
GATED_METRICS = (
    "cc_ideal",
    "cc_spatial",
    "spatial_stall",
    "ss_overall",
    "preload",
    "offload",
    "total_cycles",
    "utilization",
    "scenario",
)

#: String-valued fields compared by equality in a diff.
GATED_IDENTITY = ("mapping_fp", "options_fp", "accelerator_fp")


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclasses.dataclass
class RunRecord:
    """One ledger row: a single evaluation, simulation or bench result.

    ``kind`` is ``"evaluation"`` (engine latency run), ``"bench"``
    (benchmark artifact routed through :mod:`benchmarks.conftest`), or
    any other caller-defined class. ``label`` disambiguates records
    sharing a kind (the bench name; free-form otherwise). ``backend``
    names the simulator backend a ``kind="verify"`` row ran against
    (``"event"``, ``"rtl"``, ``"both"``; rows written before v3 read
    back as ``"event"``) and stays empty for kinds with no backend
    axis. ``campaign`` names the search campaign a row was written
    under (``kind="campaign"``/``"campaign_phase"`` summary rows and,
    when the plane is active, the evaluation rows it produced; empty
    otherwise — and for all pre-v4 rows). ``ss_comb`` maps unit-memory
    keys (``"W@LB/L0"``) to their Step-2 combined stall; ``extra``
    carries free-form numeric payloads (bench metrics).
    """

    kind: str = "evaluation"
    label: str = ""
    ts: float = 0.0
    git_sha: str = "unknown"
    accelerator: str = ""
    layer: str = ""
    accelerator_fp: str = ""
    mapping_fp: str = ""
    options_fp: str = ""
    scenario: int = 0
    cc_ideal: float = 0.0
    cc_spatial: float = 0.0
    spatial_stall: float = 0.0
    ss_overall: float = 0.0
    preload: float = 0.0
    offload: float = 0.0
    total_cycles: float = 0.0
    utilization: float = 0.0
    cache_hit: Optional[bool] = None
    wall_time_s: float = 0.0
    backend: str = ""
    campaign: str = ""
    ss_comb: Dict[str, float] = dataclasses.field(default_factory=dict)
    extra: Dict[str, Any] = dataclasses.field(default_factory=dict)

    def key(self) -> Tuple[str, str, str, str, str]:
        """The identity a diff matches baseline and candidate rows on.

        ``backend`` is part of the key so ``repro-latency diff`` gates
        each verification backend independently — an event-backend
        baseline never masks (or spuriously fails) an rtl-backend run.
        """
        return (
            self.kind, self.label, self.accelerator, self.layer,
            self.backend,
        )

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready flat view (JSONL line sans the version field)."""
        data = dataclasses.asdict(self)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunRecord":
        """Inverse of :meth:`as_dict`; tolerant of missing (v1/v2) fields.

        Read by :func:`repro.fields.read_fields`: a missing or ``null``
        field takes its default; a present one keeps its JSON value and
        must read as its annotation (strings, non-bool numbers, a boolean
        ``cache_hit``, an object of numbers for ``ss_comb``, an object
        for ``extra``), else :class:`LedgerSchemaError` names the field.

        Verification rows written before the ``backend`` column existed
        were all event-backend runs, so a ``kind="verify"`` row with no
        recorded backend normalizes to ``"event"`` — old baselines keep
        matching new event-backend candidates.
        """
        record = read_fields(cls, data, LedgerSchemaError)
        if not record.backend and record.kind == "verify":
            record.backend = "event"
        return record


def record_from_report(
    report,
    *,
    kind: str = "evaluation",
    label: str = "",
    accelerator_fp: str = "",
    mapping_fp: str = "",
    options_fp: str = "",
    cache_hit: Optional[bool] = None,
    wall_time_s: float = 0.0,
    git_sha_value: Optional[str] = None,
) -> RunRecord:
    """Build a ledger row from a :class:`~repro.core.report.LatencyReport`.

    Captures the full CC decomposition plus the per-unit-memory
    ``SS_comb`` map from the report's Step-2 ``served_stalls``.
    """
    ss_comb = {
        f"{s.operand}@{s.memory}/L{s.level}": float(s.ss)
        for s in report.served_stalls
    }
    return RunRecord(
        kind=kind,
        label=label,
        ts=time.time(),
        git_sha=git_sha_value if git_sha_value is not None else git_sha(),
        accelerator=report.accelerator_name,
        layer=report.layer_name,
        accelerator_fp=accelerator_fp,
        mapping_fp=mapping_fp,
        options_fp=options_fp,
        scenario=int(report.scenario),
        cc_ideal=float(report.cc_ideal),
        cc_spatial=float(report.cc_spatial),
        spatial_stall=float(report.spatial_stall),
        ss_overall=float(report.ss_overall),
        preload=float(report.preload),
        offload=float(report.offload),
        total_cycles=float(report.total_cycles),
        utilization=float(report.utilization),
        cache_hit=cache_hit,
        wall_time_s=wall_time_s,
        ss_comb=ss_comb,
    )


def record_from_verification(
    *,
    seed: int,
    examples: int,
    cases_checked: int,
    violations: int,
    corpus_cases: int,
    corpus_violations: int,
    shrunk: int,
    wall_time_s: float = 0.0,
    backend: str = "event",
    git_sha_value: Optional[str] = None,
) -> RunRecord:
    """Build a ledger row for one ``repro verify`` run.

    Verification runs share the ledger with evaluations and benches (one
    row per run, ``kind="verify"``), so the run history shows when the
    property suite was last green and how many counterexamples each
    regression hunt produced. ``backend`` names the simulator axis the
    run exercised (``"event"``, ``"rtl"`` or ``"both"``) and is part of
    the diff key.
    """
    return RunRecord(
        kind="verify",
        label=f"seed={seed}",
        ts=time.time(),
        git_sha=git_sha_value if git_sha_value is not None else git_sha(),
        accelerator="generated",
        layer=f"{examples} examples",
        total_cycles=0.0,
        wall_time_s=wall_time_s,
        backend=backend,
        extra={
            "seed": float(seed),
            "examples": float(examples),
            "cases_checked": float(cases_checked),
            "violations": float(violations),
            "corpus_cases": float(corpus_cases),
            "corpus_violations": float(corpus_violations),
            "shrunk": float(shrunk),
        },
    )


def record_interruption(
    *,
    flow: str,
    done_units: int,
    total_units: Optional[int] = None,
    unit: str = "units",
    reason: str = "",
    wall_time_s: float = 0.0,
    git_sha_value: Optional[str] = None,
) -> RunRecord:
    """Build the ledger row a SIGINT'd run leaves behind.

    Interrupted runs used to vanish without a trace; now the partial
    per-evaluation rows are checkpointed as they complete and this one
    ``kind="interrupted"`` marker records how far the flow got, so a
    later session can see the run happened and resume past the covered
    prefix.
    """
    return RunRecord(
        kind="interrupted",
        label=flow,
        ts=time.time(),
        git_sha=git_sha_value if git_sha_value is not None else git_sha(),
        accelerator=reason,
        layer=f"{done_units} {unit}",
        wall_time_s=wall_time_s,
        extra={
            "done_units": float(done_units),
            "total_units": float(total_units if total_units is not None else -1),
        },
    )


def checkpoint_interruption(
    flow: str,
    *,
    done_units: int,
    total_units: Optional[int],
    unit: str,
    campaign: Any = None,
) -> None:
    """Leave a Ctrl-C'd flow's checkpoint in the ambient ledger.

    Appends the ``kind="interrupted"`` row (:func:`record_interruption`)
    and, given a ``campaign``, flushes its partial rows next to it. A
    flow calls this from its ``except KeyboardInterrupt`` block, inside
    its ``with`` progress run, so the rows land before the run's
    ``RunInterrupted`` event. Without a ledger it does nothing.
    """
    from repro.observability.telemetry import telemetry

    ledger = telemetry().ledger
    if not ledger.enabled:
        return
    ledger.append(record_interruption(
        flow=flow,
        done_units=done_units,
        total_units=total_units,
        unit=unit,
        reason="KeyboardInterrupt",
    ))
    if campaign is not None:
        campaign.flush_to(ledger, partial=True)


def record_slow_request(record, threshold_ms: float) -> RunRecord:
    """The ``kind="slow_request"`` row of a daemon request
    (a :class:`~repro.observability.distributed.RequestRecord`) whose
    server-side wall time reached ``threshold_ms`` (``--slow-ms``).

    The row carries the request's fingerprints (enough to replay it
    against the store or a fresh engine) and the per-phase breakdown of
    where the time went, so a post-mortem can tell queue pressure from a
    genuinely expensive kernel without re-running anything.
    """
    total_ms = record.wall_s * 1e3
    return RunRecord(
        kind="slow_request",
        label=record.outcome,
        ts=record.ts,
        git_sha=git_sha(),
        accelerator_fp=record.accel_fp,
        mapping_fp=record.mapping_fp,
        options_fp=record.options_fp,
        wall_time_s=total_ms / 1e3,
        extra={
            "total_ms": total_ms,
            "queue_wait_ms": record.queue_wait_us / 1e3,
            "kernel_ms": record.kernel_us / 1e3,
            "store_write_ms": record.store_write_us / 1e3,
            "coalesce_wait_ms": record.coalesce_wait_us / 1e3,
            "queue_depth": float(record.queued_at_arrival),
            "threshold_ms": float(threshold_ms),
        },
    )


@functools.cache
def git_sha() -> str:
    """The repository HEAD's short SHA, cached per process; ``"unknown"``
    off-repo."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


# --------------------------------------------------------------------- #
# SQLite store
# --------------------------------------------------------------------- #

#: The ``runs`` table, derived from :class:`RunRecord`: one ``(column,
#: SQL type, field)`` per field. A ``Dict`` field is JSON text (sorted
#: keys) in a ``<name>_json`` column; ``cache_hit`` is INTEGER 0/1/NULL.
_COLUMNS = tuple(
    (f"{f.name}_json", "TEXT", f) if f.type.startswith("Dict")
    else (f.name, {"str": "TEXT", "float": "REAL", "int": "INTEGER",
                   "Optional[bool]": "INTEGER"}[f.type], f)
    for f in dataclasses.fields(RunRecord)
)


def _row_of(record: RunRecord) -> List[Any]:
    """The ``runs`` row of ``record``, in :data:`_COLUMNS` order."""
    return [
        json.dumps(getattr(record, f.name), sort_keys=True)
        if column != f.name else getattr(record, f.name)
        for column, _, f in _COLUMNS
    ]


def _record_of(row: Dict[str, Any]) -> RunRecord:
    """Decode a ``runs`` row keyed by column name; a column the row lacks
    (an older file) or a NULL takes the field's default."""
    data = {}
    for column, _, f in _COLUMNS:
        value = row.get(column)
        if value is not None and column != f.name:
            try:
                value = json.loads(value)
            except ValueError:
                raise LedgerSchemaError(f"column {column!r} is not JSON") from None
        elif f.type == "Optional[bool]" and value in (0, 1):
            value = bool(value)
        data[f.name] = value
    return RunRecord.from_dict(data)


def _read_records(
    conn: sqlite3.Connection, kind: Optional[str] = None, sha: Optional[str] = None
) -> List[RunRecord]:
    """Every row of ``conn``'s ``runs`` table in insertion order, filtered
    after decoding (a v1 file has no ``git_sha`` column to filter on)."""
    cursor = conn.execute("SELECT * FROM runs ORDER BY id")
    names = [d[0] for d in cursor.description]
    records = [_record_of(dict(zip(names, row))) for row in cursor]
    return [r for r in records if kind in (None, r.kind) and sha in (None, r.git_sha)]


def _schema_version(conn: sqlite3.Connection, where: str) -> int:
    """``conn``'s ``PRAGMA user_version``, refusing a newer one."""
    version = int(conn.execute("PRAGMA user_version").fetchone()[0])
    if version > SCHEMA_VERSION:
        raise LedgerSchemaError(
            f"{where} has schema v{version}; this build reads at most v{SCHEMA_VERSION}"
        )
    return version


class LedgerSchemaError(RuntimeError):
    """A ledger or snapshot this build cannot read: a newer schema, a
    file that is not a ledger, or a row whose fields do not have their
    types."""


class RunLedger:
    """Append-only SQLite ledger of :class:`RunRecord` rows.

    Opening a path creates the database (schema v\\ :data:`SCHEMA_VERSION`)
    or adds the columns an older one lacks; a current file is opened
    without a write, and one written by a *newer* build raises
    :class:`LedgerSchemaError` instead of guessing. The public surface
    is insert-and-read only — there is deliberately no update or delete,
    so a ledger can serve as an audit trail.
    """

    enabled = True

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        self._ensure_schema()

    # -- schema --------------------------------------------------------- #

    @property
    def schema_version(self) -> int:
        return int(self._conn.execute("PRAGMA user_version").fetchone()[0])

    def _ensure_schema(self) -> None:
        version = _schema_version(self._conn, f"ledger {self.path!r}")
        present = {row[1] for row in self._conn.execute("PRAGMA table_info(runs)")}
        missing = [(name, typ) for name, typ, _ in _COLUMNS if name not in present]
        if not present:
            columns = ", ".join(f"{name} {typ}" for name, typ in missing)
            self._conn.execute(
                f"CREATE TABLE runs (id INTEGER PRIMARY KEY AUTOINCREMENT, {columns})"
            )
        elif version < 1:  # another program's table: leave it alone
            raise LedgerSchemaError(f"{self.path!r} has a runs table but is not a ledger")
        else:
            for name, typ in missing:
                self._conn.execute(f"ALTER TABLE runs ADD COLUMN {name} {typ}")
        if version != SCHEMA_VERSION:
            self._conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")
        self._conn.commit()

    # -- writes --------------------------------------------------------- #

    def append(self, record: RunRecord) -> None:
        """Insert one row (never updates existing rows)."""
        self.append_many((record,))

    def append_many(self, records: Sequence[RunRecord]) -> None:
        """Insert a batch of rows in one transaction."""
        if not records:
            return
        names = ", ".join(column for column, _, _ in _COLUMNS)
        placeholders = ", ".join("?" for _ in _COLUMNS)
        sql = f"INSERT INTO runs ({names}) VALUES ({placeholders})"
        with self._lock:
            self._conn.executemany(sql, [_row_of(r) for r in records])
            self._conn.commit()

    # -- reads ---------------------------------------------------------- #

    def __len__(self) -> int:
        return int(self._conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0])

    def records(
        self, kind: Optional[str] = None, sha: Optional[str] = None
    ) -> List[RunRecord]:
        """All rows in insertion order, optionally filtered."""
        return _read_records(self._conn, kind, sha)

    # -- snapshots ------------------------------------------------------ #

    def export_jsonl(self, path: str) -> int:
        """Write every row as one JSON object per line; returns the count.

        Each line carries ``"v": SCHEMA_VERSION`` so older snapshots stay
        loadable (missing fields default, exactly like absent SQLite
        columns).
        """
        records = self.records()
        with open(path, "w") as handle:
            for record in records:
                line = {"v": SCHEMA_VERSION}
                line.update(record.as_dict())
                handle.write(json.dumps(line, sort_keys=True) + "\n")
        return len(records)

    # -- lifecycle ------------------------------------------------------ #

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def load_jsonl(path: str) -> List[RunRecord]:
    """Read a JSONL snapshot (any schema version) into records.

    A line that is not a JSON object (undecodable, truncated, a list,
    ``null``), carries a newer schema version or has a field of the
    wrong type raises :class:`LedgerSchemaError` naming the path and
    line number.
    """
    out: List[RunRecord] = []
    # Undecodable bytes become U+FFFD and fail the JSON parse below.
    with open(path, encoding="utf-8", errors="replace") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"snapshot {path!r} line {number}"
            try:
                data = json.loads(line)
            except ValueError as exc:
                raise LedgerSchemaError(f"{where} is not JSON: {exc}") from None
            if not isinstance(data, dict):
                raise LedgerSchemaError(f"{where} is not a JSON object: {line[:60]}")
            version = data.pop("v", 1)
            if type(version) is not int:  # a JSON integer, not a bool
                raise LedgerSchemaError(f"{where} has a malformed schema version")
            if version > SCHEMA_VERSION:
                raise LedgerSchemaError(
                    f"{where} has schema v{version}; this build reads at "
                    f"most v{SCHEMA_VERSION}"
                )
            try:
                out.append(RunRecord.from_dict(data))
            except LedgerSchemaError as exc:
                raise LedgerSchemaError(f"{where}: {exc}") from None
    return out


def load_snapshot(path: str, sha: Optional[str] = None) -> List[RunRecord]:
    """Load a ledger snapshot — SQLite database or JSONL export.

    Dispatches on content, not extension: SQLite files start with the
    16-byte ``"SQLite format 3"`` magic. A database is opened read-only
    and never changed, whatever its schema version. A file with no
    ``runs`` table, a newer schema, corrupt pages, an interrupted write
    still to roll back, or a malformed JSONL line raises
    :class:`LedgerSchemaError` naming the path. ``sha`` filters to
    records of one commit (for diffing two SHAs inside one ledger).
    """
    with open(path, "rb") as handle:
        magic = handle.read(16)
    if magic.startswith(b"SQLite format 3"):
        uri = pathlib.Path(path).resolve().as_uri() + "?mode=ro"
        try:
            with contextlib.closing(sqlite3.connect(uri, uri=True)) as conn:
                _schema_version(conn, "the file")
                return _read_records(conn, sha=sha)
        except (sqlite3.Error, LedgerSchemaError) as exc:
            if getattr(exc, "sqlite_errorname", "") == "SQLITE_READONLY_ROLLBACK":
                exc = "an interrupted write left a hot journal; a RunLedger rolls it back"
            raise LedgerSchemaError(f"snapshot {path!r}: {exc}") from None
    records = load_jsonl(path)
    if sha is not None:
        records = [r for r in records if r.git_sha == sha]
    return records


# --------------------------------------------------------------------- #
# Diff / regression gate
# --------------------------------------------------------------------- #


@dataclasses.dataclass(frozen=True)
class MetricDelta:
    """One compared metric of one (kind, label, accelerator, layer,
    backend) key; a drifted fingerprint carries the two fingerprints."""

    key: Tuple[str, str, str, str, str]
    metric: str
    baseline: Union[float, str, None]
    candidate: Union[float, str, None]
    drifted: bool
    gated: bool

    @property
    def delta(self) -> Optional[float]:
        if not (_is_number(self.baseline) and _is_number(self.candidate)):
            return None
        return self.candidate - self.baseline

    @property
    def rel_change(self) -> Optional[float]:
        if self.delta is None:
            return None
        if self.baseline == 0:
            return None  # undefined against a zero baseline
        return self.delta / abs(self.baseline)

    def describe(self) -> str:
        """One aligned line for the diff table."""
        kind, label, accelerator, layer, backend = self.key
        where = "/".join(p for p in (kind, label, layer, backend) if p)
        if self.drifted and self.candidate is None:  # --strict-keys
            return f"  - {where} {self.metric}: missing from candidate DRIFT"
        if isinstance(self.baseline, str):  # a fingerprint
            return f"  {where} {self.metric}: {self.baseline} -> {self.candidate} DRIFT"
        if self.baseline is None:
            return f"  + {where} {self.metric}: added ({self.candidate})"
        if self.candidate is None:
            return f"  - {where} {self.metric}: removed (was {self.baseline})"
        rel = (
            f" ({self.rel_change:+.3%})" if self.rel_change is not None else ""
        )
        flag = " DRIFT" if self.drifted else ""
        return (
            f"  {where} {self.metric}: {self.baseline:g} -> "
            f"{self.candidate:g}{rel}{flag}"
        )


@dataclasses.dataclass(frozen=True)
class LedgerDiff:
    """The full result of comparing two snapshots."""

    deltas: Tuple[MetricDelta, ...]
    missing_keys: Tuple[Tuple[str, str, str, str, str], ...]
    added_keys: Tuple[Tuple[str, str, str, str, str], ...]

    @property
    def drifted(self) -> Tuple[MetricDelta, ...]:
        return tuple(d for d in self.deltas if d.drifted)

    @property
    def clean(self) -> bool:
        return not self.drifted

    def describe(self, changed_only: bool = True) -> str:
        """Human-readable diff report."""
        lines: List[str] = []
        shown = [
            d
            for d in self.deltas
            if not changed_only or d.drifted or (d.delta not in (0.0, None))
        ]
        for delta in shown:
            lines.append(delta.describe())
        for key in self.missing_keys:
            lines.append(f"  - key missing from candidate: {key}")
        for key in self.added_keys:
            lines.append(f"  + key only in candidate: {key}")
        if not lines:
            lines.append("  (no changes)")
        verdict = (
            "clean" if self.clean else f"{len(self.drifted)} metric(s) drifted"
        )
        lines.append(f"diff: {verdict}")
        return "\n".join(lines)


def _last_per_key(records: Sequence[RunRecord]) -> Dict[Tuple, RunRecord]:
    """Collapse a snapshot to the most recent record of each key."""
    out: Dict[Tuple, RunRecord] = {}
    for record in records:
        out[record.key()] = record
    return out


def _metrics_of(record: RunRecord) -> Dict[str, Tuple[float, bool]]:
    """Flat ``{metric: (value, gated)}`` view of one record."""
    out: Dict[str, Tuple[float, bool]] = {}
    for name in GATED_METRICS:
        out[name] = (float(getattr(record, name)), True)
    for key, value in record.ss_comb.items():
        out[f"ss_comb.{key}"] = (float(value), True)
    for key, value in record.extra.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            out[f"extra.{key}"] = (float(value), False)
    out["wall_time_s"] = (float(record.wall_time_s), False)
    return out


def diff_records(
    baseline: Sequence[RunRecord],
    candidate: Sequence[RunRecord],
    *,
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-6,
    strict_keys: bool = False,
) -> LedgerDiff:
    """Compare two snapshots per metric; the CI regression gate.

    Records are matched on :meth:`RunRecord.key` (latest record per key
    on both sides). A *gated* metric drifts when
    ``|candidate - baseline| > abs_tol + rel_tol * |baseline|`` — the
    ``abs_tol`` term keeps zero-baseline metrics (a stall-free preset's
    ``SS_overall``) from tripping on float noise while still catching a
    real regression. Fingerprints compare by equality. Non-gated metrics
    (wall times, bench ``extra`` payloads) are reported but never drift.

    Keys present on only one side are listed in ``missing_keys`` /
    ``added_keys``; with ``strict_keys`` a key missing from the candidate
    becomes a drifted delta (a disappeared measurement fails the gate).
    Metrics missing on one side of a matched key are reported as
    added/removed and never drift — new metrics appear routinely as the
    model grows.
    """
    base = _last_per_key(baseline)
    cand = _last_per_key(candidate)
    deltas: List[MetricDelta] = []
    missing = tuple(sorted(k for k in base if k not in cand))
    added = tuple(sorted(k for k in cand if k not in base))
    if strict_keys:
        for key in missing:
            deltas.append(
                MetricDelta(key, "<record>", 1.0, None, drifted=True, gated=True)
            )
    for key in sorted(base):
        if key not in cand:
            continue
        b_rec, c_rec = base[key], cand[key]
        b_metrics, c_metrics = _metrics_of(b_rec), _metrics_of(c_rec)
        for metric in sorted(set(b_metrics) | set(c_metrics)):
            b_val = b_metrics.get(metric)
            c_val = c_metrics.get(metric)
            if b_val is None or c_val is None:
                deltas.append(
                    MetricDelta(
                        key,
                        metric,
                        None if b_val is None else b_val[0],
                        None if c_val is None else c_val[0],
                        drifted=False,
                        gated=False,
                    )
                )
                continue
            value_b, gated = b_val
            value_c = c_val[0]
            drifted = gated and (
                abs(value_c - value_b) > abs_tol + rel_tol * abs(value_b)
            )
            deltas.append(
                MetricDelta(key, metric, value_b, value_c, drifted, gated)
            )
        for field in GATED_IDENTITY:
            value_b, value_c = getattr(b_rec, field), getattr(c_rec, field)
            if value_b and value_c and value_b != value_c:
                deltas.append(
                    MetricDelta(key, field, value_b, value_c, drifted=True, gated=True)
                )
    return LedgerDiff(tuple(deltas), missing, added)


# --------------------------------------------------------------------- #
# Ambient ledger
# --------------------------------------------------------------------- #


class NullLedger:
    """The no-op ambient default; accepts and drops everything."""

    enabled = False
    path = None

    def append(self, record: RunRecord) -> None:
        pass

    def append_many(self, records: Sequence[RunRecord]) -> None:
        pass

    def records(self, kind: Optional[str] = None, sha: Optional[str] = None) -> List[RunRecord]:
        return []

    def __len__(self) -> int:
        return 0

    def close(self) -> None:
        pass


NULL_LEDGER = NullLedger()


__all__ = [
    "GATED_METRICS",
    "LedgerDiff",
    "LedgerSchemaError",
    "MetricDelta",
    "NULL_LEDGER",
    "NullLedger",
    "RunLedger",
    "RunRecord",
    "SCHEMA_VERSION",
    "checkpoint_interruption",
    "diff_records",
    "git_sha",
    "load_jsonl",
    "load_snapshot",
    "record_from_report",
    "record_from_verification",
    "record_interruption",
    "record_slow_request",
]
