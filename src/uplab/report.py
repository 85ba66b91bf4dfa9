"""Verdicts and reports: the record types every inequality check produces."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Verdict:
    """Outcome of one inequality check: lhs >= rhs up to the relative slack rel_tol it was judged at."""

    check_id: str
    lhs: float
    rhs: float
    rel_tol: float
    margin: float
    status: str  # pass | fail | skipped
    notes: str = ""


def make_verdict(check_id: str, lhs: float, rhs: float, rel_tol: float, notes: str = "") -> Verdict:
    """Judge lhs >= rhs with slack rel_tol * max(|lhs|, |rhs|, 1); a non-finite side raises ValueError."""
    lhs = float(lhs)
    rhs = float(rhs)
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise ValueError(f"{check_id}: cannot judge a non-finite side (lhs={lhs!r}, rhs={rhs!r})")
    margin = lhs - rhs
    slack = rel_tol * max(abs(lhs), abs(rhs), 1.0)
    status = "pass" if margin >= -slack else "fail"
    return Verdict(check_id, lhs, rhs, rel_tol, margin, status, notes)


def unjudged_verdict(check_id: str, status: str, reason: str, rel_tol: float) -> Verdict:
    """A verdict without sides: a skipped check, or a failed one whose sides could not be judged."""
    return Verdict(check_id, math.nan, math.nan, rel_tol, math.nan, status, reason)


def _num(x: float):
    return float(x) if math.isfinite(x) else None


def verdict_to_dict(v: Verdict) -> dict:
    return {
        "check": v.check_id,
        "lhs": _num(v.lhs),
        "rhs": _num(v.rhs),
        "rel_tol": v.rel_tol,
        "margin": _num(v.margin),
        "status": v.status,
        "notes": v.notes,
    }


@dataclass(frozen=True)
class Report:
    """All verdicts for one scenario run, with grid metadata; the summary is counted from the verdicts."""

    scenario: str
    grid: dict
    verdicts: tuple
    timestamp: str = ""

    @property
    def failed(self) -> int:
        return sum(1 for v in self.verdicts if v.status == "fail")

    @property
    def summary(self) -> dict:
        counts = {"pass": 0, "fail": 0, "skipped": 0}
        for v in self.verdicts:
            counts[v.status] += 1
        counts["total"] = len(self.verdicts)
        counts["all_passed"] = counts["fail"] == 0
        return counts


def report_to_json(report: Report, include_timestamp: bool = True) -> str:
    """Canonical JSON: sorted keys, verdicts sorted by check id.

    With include_timestamp=False the output is byte-identical across repeat
    runs of the same scenario, which the determinism tests rely on.
    """
    payload = {
        "scenario": report.scenario,
        "grid": report.grid,
        "verdicts": [verdict_to_dict(v) for v in sorted(report.verdicts, key=lambda v: v.check_id)],
        "summary": report.summary,
    }
    if include_timestamp:
        payload["timestamp"] = report.timestamp
    return json.dumps(payload, indent=2, sort_keys=True)


def write_report_json(report: Report, path) -> None:
    Path(path).write_text(report_to_json(report) + "\n")


def write_verdicts_csv(report: Report, path) -> None:
    """verdict_to_dict's rows in report_to_json's order, under its keys (read off an unjudged verdict)."""
    columns = verdict_to_dict(unjudged_verdict("", "skipped", "", math.nan))
    with Path(path).open("w", newline="") as fh:
        writer = csv.DictWriter(fh, list(columns))
        writer.writeheader()
        writer.writerows(verdict_to_dict(v) for v in sorted(report.verdicts, key=lambda v: v.check_id))
