"""Drive a verification run: generate, check, shrink, replay, report.

This is what ``repro verify`` executes. One run:

1. replays every committed corpus case (deterministic regression check);
2. samples ``examples`` fresh cases from the seeded generators and runs
   the full property suite on each;
3. shrinks every failing case to a minimal counterexample and (optionally)
   writes it — plus a human-readable report — into an artifact directory
   ready to be committed to the corpus;
4. appends one ``kind="verify"`` row to the ambient run ledger.

The exit contract is binary: any violation anywhere → failure.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import time
from typing import Dict, List, Optional, Tuple

from repro.observability.ledger import record_from_verification
from repro.observability.telemetry import telemetry
from repro.verify.corpus import CorpusCase, case_to_dict, load_corpus
from repro.verify.generators import Case, GeneratorConfig, iter_cases
from repro.verify.properties import Tolerance, Violation, check_case
from repro.verify.shrink import shrink_case, shrink_report


@dataclasses.dataclass(frozen=True)
class ShrunkFailure:
    """One failing case together with its minimised counterexample.

    ``pairs`` collects the disagreeing comparisons from the violations
    (``"event/rtl"``, ``"model/rtl"``, ``"model/event"``) so three-way
    counterexamples are tagged with *which* pair fell apart — the triage
    signal (sim-vs-sim = simulator bug, model-vs-sim = model accuracy).
    """

    original: Case
    shrunk: Case
    failing: Tuple[str, ...]
    violations: Tuple[Violation, ...]

    @property
    def pairs(self) -> Tuple[str, ...]:
        return tuple(sorted({v.pair for v in self.violations if v.pair}))

    def describe(self) -> str:
        report = shrink_report(self.original, self.shrunk, list(self.failing))
        if self.pairs:
            report = f"disagreeing pairs: {', '.join(self.pairs)}\n" + report
        return report


@dataclasses.dataclass(frozen=True)
class VerificationSummary:
    """Aggregate outcome of one run (what the ledger row is built from)."""

    seed: int
    examples: int
    cases_checked: int
    corpus_cases: int
    violations: Tuple[Violation, ...]
    corpus_violations: Tuple[Violation, ...]
    failures: Tuple[ShrunkFailure, ...]
    wall_time_s: float
    backend: str = "event"

    @property
    def ok(self) -> bool:
        return not self.violations and not self.corpus_violations

    def as_dict(self) -> Dict:
        """JSON-ready report payload."""
        return {
            "seed": self.seed,
            "examples": self.examples,
            "backend": self.backend,
            "cases_checked": self.cases_checked,
            "corpus_cases": self.corpus_cases,
            "ok": self.ok,
            "wall_time_s": self.wall_time_s,
            "violations": [v.describe() for v in self.violations],
            "corpus_violations": [v.describe() for v in self.corpus_violations],
            "failures": [
                {
                    "case_id": f.original.case_id,
                    "failing": list(f.failing),
                    "pairs": list(f.pairs),
                    "shrunk": case_to_dict(
                        f.shrunk,
                        comment=f"shrunk from {f.original.case_id}",
                        properties=f.failing,
                        pairs=f.pairs,
                    ),
                    "report": f.describe(),
                }
                for f in self.failures
            ],
        }


def replay_corpus(
    corpus_dir: pathlib.Path,
    tolerance: Tolerance = Tolerance(),
    backend: str = "event",
) -> Tuple[List[CorpusCase], List[Violation]]:
    """Re-check every committed corpus case against the full suite."""
    cases = load_corpus(corpus_dir)
    return cases, _check_corpus(cases, tolerance, backend)


def _check_corpus(
    cases: List[CorpusCase], tolerance: Tolerance, backend: str
) -> List[Violation]:
    violations: List[Violation] = []
    for entry in cases:
        violations.extend(
            check_case(entry.case, tolerance=tolerance, backend=backend)
        )
    return violations


def run_verification(
    examples: int = 200,
    seed: int = 0,
    corpus_dir: Optional[pathlib.Path] = None,
    corpus_only: bool = False,
    config: GeneratorConfig = GeneratorConfig(),
    tolerance: Tolerance = Tolerance(),
    shrink: bool = True,
    backend: str = "event",
) -> VerificationSummary:
    """One full verification run; appends a row to the ambient ledger.

    Progress reports through the ambient event emitter (one
    ``unit="cases"`` run; each failing case surfaces as a chunk event
    with an error and the failing property names in its note) — the same
    stream every search flow uses, replacing the old ad-hoc ``progress``
    print callback.
    """
    start = time.monotonic()
    corpus_cases = load_corpus(corpus_dir) if corpus_dir is not None else []
    corpus_violations: List[Violation] = []
    violations: List[Violation] = []
    failures: List[ShrunkFailure] = []
    checked = 0
    total = (0 if corpus_only else max(examples, 0)) + len(corpus_cases)
    t = telemetry()
    with t.progress.start_run(
        "verify", total_units=total, unit="cases"
    ) as run:
        if corpus_cases:
            corpus_t0 = time.perf_counter()
            corpus_violations = _check_corpus(corpus_cases, tolerance, backend)
            run.advance(
                len(corpus_cases),
                errors=len(corpus_violations),
                wall_s=time.perf_counter() - corpus_t0,
                note="corpus replay",
            )
        if not corpus_only and examples > 0:
            for case in iter_cases(seed, config):
                if checked >= examples:
                    break
                checked += 1
                case_t0 = time.perf_counter()
                found = check_case(case, tolerance=tolerance, backend=backend)
                if not found:
                    run.advance(
                        1, wall_s=time.perf_counter() - case_t0,
                        index=checked - 1,
                    )
                    continue
                violations.extend(found)
                failing = tuple(sorted({v.prop for v in found}))
                run.advance(
                    1, errors=1,
                    wall_s=time.perf_counter() - case_t0,
                    index=checked - 1,
                    note=f"FAIL {case.case_id}: {', '.join(failing)}",
                )
                shrunk = (
                    shrink_case(
                        case, failing, config, tolerance, backend=backend
                    )
                    if shrink
                    else case
                )
                failures.append(
                    ShrunkFailure(
                        original=case,
                        shrunk=shrunk,
                        failing=failing,
                        violations=tuple(found),
                    )
                )

    summary = VerificationSummary(
        seed=seed,
        examples=examples if not corpus_only else 0,
        cases_checked=checked,
        corpus_cases=len(corpus_cases),
        violations=tuple(violations),
        corpus_violations=tuple(corpus_violations),
        failures=tuple(failures),
        wall_time_s=time.monotonic() - start,
        backend=backend,
    )
    t.ledger.append(
        record_from_verification(
            seed=seed,
            examples=summary.examples,
            cases_checked=summary.cases_checked,
            violations=len(summary.violations),
            corpus_cases=summary.corpus_cases,
            corpus_violations=len(summary.corpus_violations),
            shrunk=len(summary.failures),
            wall_time_s=summary.wall_time_s,
            backend=backend,
        )
    )
    return summary


def write_artifacts(
    summary: VerificationSummary,
    report_path: Optional[pathlib.Path] = None,
    artifact_dir: Optional[pathlib.Path] = None,
) -> List[pathlib.Path]:
    """Write the JSON report and per-failure counterexample files."""
    written: List[pathlib.Path] = []
    if report_path is not None:
        report_path = pathlib.Path(report_path)
        report_path.parent.mkdir(parents=True, exist_ok=True)
        report_path.write_text(
            json.dumps(summary.as_dict(), indent=2, sort_keys=True) + "\n"
        )
        written.append(report_path)
    if artifact_dir is not None and summary.failures:
        artifact_dir = pathlib.Path(artifact_dir)
        artifact_dir.mkdir(parents=True, exist_ok=True)
        for failure in summary.failures:
            stem = failure.original.case_id.replace("~", "-")
            case_path = artifact_dir / f"{stem}.json"
            case_path.write_text(
                json.dumps(
                    case_to_dict(
                        failure.shrunk,
                        comment=f"shrunk from {failure.original.case_id}",
                        properties=failure.failing,
                        pairs=failure.pairs,
                    ),
                    indent=2,
                    sort_keys=True,
                )
                + "\n"
            )
            written.append(case_path)
            txt_path = artifact_dir / f"{stem}.txt"
            txt_path.write_text(failure.describe() + "\n")
            written.append(txt_path)
    return written
