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

import dataclasses
import functools
import json
import os
import sqlite3
import subprocess
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Current on-disk schema version (``PRAGMA user_version`` in SQLite, the
#: ``"v"`` field of each JSONL line). v1 predates the ``ss_comb`` map,
#: ``git_sha`` and ``label`` columns; v2 predates the ``backend`` column
#: (which simulator backed a ``kind="verify"`` row); v3 predates the
#: ``campaign`` column (which search campaign a row belongs to).
#: :class:`RunLedger` migrates older files in place on open.
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


#: :class:`RunRecord` field annotation -> (value check, what it expects).
_FIELD_CHECKS = {
    "str": (lambda v: isinstance(v, str), "a string"),
    "int": (_is_number, "a number"),
    "float": (_is_number, "a number"),
    "Optional[bool]": (lambda v: isinstance(v, bool), "a boolean or null"),
    "Dict[str, float]": (
        lambda v: isinstance(v, dict) and all(map(_is_number, v.values())),
        "an object of numbers",
    ),
    "Dict[str, Any]": (lambda v: isinstance(v, dict), "an object"),
}


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

        A missing or ``null`` field takes its default. A present one must
        have its field's type (strings, non-bool numbers, a boolean
        ``cache_hit``, an object of numbers for ``ss_comb``, an object
        for ``extra``), else :class:`LedgerSchemaError` names the field.

        Verification rows written before the ``backend`` column existed
        were all event-backend runs, so a ``kind="verify"`` row with no
        recorded backend normalizes to ``"event"`` — old baselines keep
        matching new event-backend candidates.
        """
        kwargs = {}
        for field in dataclasses.fields(cls):
            value = data.get(field.name)
            if value is None:
                continue
            accepts, expected = _FIELD_CHECKS[field.type]
            if not accepts(value):
                raise LedgerSchemaError(
                    f"field {field.name!r} must be {expected}, got {value!r:.40}"
                )
            kwargs[field.name] = value
        if not kwargs.get("backend"):
            kwargs["backend"] = (
                "event" if kwargs.get("kind") == "verify" else ""
            )
        return cls(**kwargs)


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

_SCALAR_COLUMNS_V1 = (
    # name, SQL type  — the v1 schema (no ss_comb_json / git_sha / label).
    ("kind", "TEXT"),
    ("ts", "REAL"),
    ("accelerator", "TEXT"),
    ("layer", "TEXT"),
    ("accelerator_fp", "TEXT"),
    ("mapping_fp", "TEXT"),
    ("options_fp", "TEXT"),
    ("scenario", "INTEGER"),
    ("cc_ideal", "REAL"),
    ("cc_spatial", "REAL"),
    ("spatial_stall", "REAL"),
    ("ss_overall", "REAL"),
    ("preload", "REAL"),
    ("offload", "REAL"),
    ("total_cycles", "REAL"),
    ("utilization", "REAL"),
    ("cache_hit", "INTEGER"),
    ("wall_time_s", "REAL"),
    ("extra_json", "TEXT"),
)

#: Columns v2 added on top of v1. Migration = ALTER TABLE ADD COLUMN for
#: each, so a v1 file opens in place with defaults for old rows.
_V2_ADDED_COLUMNS = (
    ("label", "TEXT", "''"),
    ("git_sha", "TEXT", "'unknown'"),
    ("ss_comb_json", "TEXT", "'{}'"),
)

#: Columns v3 added on top of v2 (same ALTER TABLE migration pattern).
#: The empty default is what :meth:`RunRecord.from_dict` normalizes to
#: ``"event"`` for pre-v3 verification rows.
_V3_ADDED_COLUMNS = (
    ("backend", "TEXT", "''"),
)

#: Columns v4 added on top of v3: which search campaign a row belongs
#: to. Pre-v4 rows read back with the empty string (no campaign).
_V4_ADDED_COLUMNS = (
    ("campaign", "TEXT", "''"),
)

_ALL_COLUMNS = (
    tuple(n for n, _ in _SCALAR_COLUMNS_V1)
    + tuple(n for n, _, _ in _V2_ADDED_COLUMNS)
    + tuple(n for n, _, _ in _V3_ADDED_COLUMNS)
    + tuple(n for n, _, _ in _V4_ADDED_COLUMNS)
)


def _create_v1(conn: sqlite3.Connection) -> None:
    """Create the historical v1 schema (kept for migration tests)."""
    cols = ", ".join(f"{name} {typ}" for name, typ in _SCALAR_COLUMNS_V1)
    conn.execute(f"CREATE TABLE runs (id INTEGER PRIMARY KEY AUTOINCREMENT, {cols})")
    conn.execute("PRAGMA user_version = 1")
    conn.commit()


_MIGRATION_COLUMNS = {
    # target version -> columns its migration step adds
    2: _V2_ADDED_COLUMNS,
    3: _V3_ADDED_COLUMNS,
    4: _V4_ADDED_COLUMNS,
}


def _migrate(conn: sqlite3.Connection, from_version: int) -> None:
    """Bring an older on-disk schema up to :data:`SCHEMA_VERSION`.

    Migrations chain: a v1 file gets the v2 columns, then the v3
    columns, then the v4 columns — each step a pure ``ALTER TABLE ADD
    COLUMN`` with a default, so old rows read back with the documented
    absent-value semantics.
    """
    if not 1 <= from_version < SCHEMA_VERSION:
        raise LedgerSchemaError(
            f"cannot migrate ledger schema v{from_version} "
            f"(this build reads v1..v{SCHEMA_VERSION})"
        )
    for target in range(from_version + 1, SCHEMA_VERSION + 1):
        for name, typ, default in _MIGRATION_COLUMNS[target]:
            conn.execute(
                f"ALTER TABLE runs ADD COLUMN {name} {typ} DEFAULT {default}"
            )
    conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")
    conn.commit()


class LedgerSchemaError(RuntimeError):
    """A ledger or snapshot this build cannot read: a newer or unmigratable
    schema, or a row whose fields do not have their types."""


class RunLedger:
    """Append-only SQLite ledger of :class:`RunRecord` rows.

    Opening a path creates the database (schema v\\ :data:`SCHEMA_VERSION`)
    or migrates an older one in place; a file written by a *newer* build
    raises :class:`LedgerSchemaError` instead of guessing. The public
    surface is insert-and-read only — there is deliberately no update or
    delete, so a ledger can serve as an audit trail.
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
        version = self.schema_version
        has_table = self._conn.execute(
            "SELECT name FROM sqlite_master WHERE type='table' AND name='runs'"
        ).fetchone()
        if not has_table:
            _create_v1(self._conn)
            _migrate(self._conn, 1)
            return
        if version == SCHEMA_VERSION:
            return
        if version > SCHEMA_VERSION:
            raise LedgerSchemaError(
                f"ledger {self.path!r} has schema v{version}; this build "
                f"reads at most v{SCHEMA_VERSION} — refusing to write"
            )
        _migrate(self._conn, version)

    # -- writes --------------------------------------------------------- #

    def append(self, record: RunRecord) -> None:
        """Insert one row (never updates existing rows)."""
        self.append_many((record,))

    def append_many(self, records: Sequence[RunRecord]) -> None:
        """Insert a batch of rows in one transaction."""
        if not records:
            return
        rows = [self._row_of(r) for r in records]
        placeholders = ", ".join("?" for _ in _ALL_COLUMNS)
        sql = (
            f"INSERT INTO runs ({', '.join(_ALL_COLUMNS)}) "
            f"VALUES ({placeholders})"
        )
        with self._lock:
            self._conn.executemany(sql, rows)
            self._conn.commit()

    @staticmethod
    def _row_of(record: RunRecord) -> Tuple:
        cache_hit = None if record.cache_hit is None else int(record.cache_hit)
        return (
            record.kind,
            record.ts,
            record.accelerator,
            record.layer,
            record.accelerator_fp,
            record.mapping_fp,
            record.options_fp,
            record.scenario,
            record.cc_ideal,
            record.cc_spatial,
            record.spatial_stall,
            record.ss_overall,
            record.preload,
            record.offload,
            record.total_cycles,
            record.utilization,
            cache_hit,
            record.wall_time_s,
            json.dumps(record.extra, sort_keys=True),
            record.label,
            record.git_sha,
            json.dumps(record.ss_comb, sort_keys=True),
            record.backend,
            record.campaign,
        )

    # -- reads ---------------------------------------------------------- #

    def __len__(self) -> int:
        return int(self._conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0])

    def records(
        self, kind: Optional[str] = None, sha: Optional[str] = None
    ) -> List[RunRecord]:
        """All rows in insertion order, optionally filtered."""
        sql = f"SELECT {', '.join(_ALL_COLUMNS)} FROM runs"
        clauses, params = [], []
        if kind is not None:
            clauses.append("kind = ?")
            params.append(kind)
        if sha is not None:
            clauses.append("git_sha = ?")
            params.append(sha)
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY id"
        out: List[RunRecord] = []
        for row in self._conn.execute(sql, params):
            data = dict(zip(_ALL_COLUMNS, row))
            data["extra"] = json.loads(data.pop("extra_json") or "{}")
            data["ss_comb"] = json.loads(data.pop("ss_comb_json") or "{}")
            hit = data.get("cache_hit")
            data["cache_hit"] = None if hit is None else bool(hit)
            out.append(RunRecord.from_dict(data))
        return out

    # -- snapshots ------------------------------------------------------ #

    def export_jsonl(self, path: str) -> int:
        """Write every row as one JSON object per line; returns the count.

        Each line carries ``"v": SCHEMA_VERSION`` so older snapshots stay
        loadable (missing fields default, exactly like the SQLite
        migration).
        """
        records = self.records()
        with open(path, "w") as handle:
            for record in records:
                line = {"v": SCHEMA_VERSION}
                line.update(record.as_dict())
                handle.write(json.dumps(line, sort_keys=True) + "\n")
        return len(records)

    def import_jsonl(self, path: str) -> int:
        """Append every line of a JSONL snapshot; returns the count."""
        records = load_jsonl(path)
        self.append_many(records)
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
            try:
                version = int(data.pop("v", 1))
            except (TypeError, ValueError):
                raise LedgerSchemaError(f"{where} has a malformed schema version") from None
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
    16-byte ``"SQLite format 3"`` magic. A corrupt database or a
    malformed JSONL line raises :class:`LedgerSchemaError`. ``sha`` filters to records of
    one commit (for diffing two SHAs inside one ledger).
    """
    with open(path, "rb") as handle:
        magic = handle.read(16)
    if magic.startswith(b"SQLite format 3"):
        try:
            with RunLedger(path) as ledger:
                return ledger.records(sha=sha)
        except sqlite3.DatabaseError as exc:
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
    backend) key."""

    key: Tuple[str, str, str, str, str]
    metric: str
    baseline: Optional[float]
    candidate: Optional[float]
    drifted: bool
    gated: bool

    @property
    def delta(self) -> Optional[float]:
        if self.baseline is None or self.candidate is None:
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
                    MetricDelta(key, field, None, None, drifted=True, gated=True)
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
