"""Structured verification reports with deterministic rendering.

A check passes, fails (the identity does not hold), is skipped, or ends
in an error (it raised before reaching a verdict).  A report with an
error exits 3, the cli's internal-error code, whatever its other checks
say; one with a failure exits 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

PASS, FAIL, SKIP, ERROR = "pass", "fail", "skipped", "error"


@dataclass
class CheckRecord:
    id: str
    statement: str
    status: str
    residual: str = ""
    detail: str = ""
    runtime_ms: Optional[int] = None


@dataclass
class VerificationReport:
    suite: str
    checks: list = field(default_factory=list)

    def add(self, record: CheckRecord):
        self.checks.append(record)

    def finalize(self):
        self.checks.sort(key=lambda c: c.id)
        return self

    @property
    def status(self) -> str:
        statuses = {c.status for c in self.checks}
        return next((s for s in (ERROR, FAIL) if s in statuses), PASS)

    @property
    def exit_code(self) -> int:
        return {ERROR: 3, FAIL: 1}.get(self.status, 0)

    def to_dict(self, timings=False) -> dict:
        return {
            "schema": "sftlab-report/1",
            "suite": self.suite,
            "status": self.status,
            "checks": [
                {k: v for k, v in (
                    ("id", c.id), ("statement", c.statement), ("status", c.status),
                    ("residual", c.residual), ("detail", c.detail),
                    ("runtime_ms", c.runtime_ms if timings else None))
                 if v not in ("", None)}
                for c in self.checks],
        }

    def render_machine(self, timings=False) -> str:
        return json.dumps(self.to_dict(timings), indent=1, sort_keys=True) + "\n"

    def render_text(self, timings=False) -> str:
        lines = [f"suite {self.suite}: {self.status}"]
        for c in self.checks:
            mark = {PASS: "ok  ", FAIL: "FAIL", SKIP: "skip", ERROR: "ERR "}[c.status]
            extra = f"  [{c.runtime_ms} ms]" if timings and c.runtime_ms is not None else ""
            lines.append(f"  {mark}  {c.id}: {c.statement}{extra}")
            if c.residual:
                lines.append(f"          residual: {c.residual}")
            if c.detail:
                lines.append(f"          {c.detail}")
        return "\n".join(lines) + "\n"


def merge_reports(reports) -> "VerificationReport":
    out = VerificationReport("all")
    for r in reports:
        for c in r.checks:
            rec = CheckRecord(f"{r.suite}.{c.id}", c.statement, c.status,
                              c.residual, c.detail, c.runtime_ms)
            out.add(rec)
    return out.finalize()
