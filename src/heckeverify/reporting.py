"""Structured check outcomes and canonical, byte-stable JSON reports."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

REPORT_VERSION = "1"


@dataclass
class CheckReport:
    """Outcome of one verification.

    ``status`` is one of ``pass``, ``fail``, ``info``.  A failing report
    always carries ``first_failure``; a passing one never does.
    """

    check_name: str
    status: str
    params: dict[str, str] = field(default_factory=dict)
    ratio: str | None = None
    degrees: str | None = None
    first_failure: dict | None = None
    note: str | None = None

    def __post_init__(self):
        if self.status == "fail" and self.first_failure is None:
            raise ValueError("failing report requires first_failure")
        if self.status == "pass" and self.first_failure is not None:
            raise ValueError("passing report cannot carry first_failure")

    def canonical(self) -> dict:
        out: dict = {
            "check_name": self.check_name,
            "status": self.status,
            "params": dict(sorted(self.params.items())),
        }
        if self.ratio is not None:
            out["ratio"] = self.ratio
        if self.degrees is not None:
            out["degrees"] = self.degrees
        if self.first_failure is not None:
            out["first_failure"] = self.first_failure
        if self.note is not None:
            out["note"] = self.note
        return out


def passed(name: str, params=None, ratio=None, degrees=None, note=None) -> CheckReport:
    return CheckReport(name, "pass", dict(params or {}), ratio=ratio,
                       degrees=degrees, note=note)


def failed(name: str, failure: dict, params=None, note=None) -> CheckReport:
    return CheckReport(name, "fail", dict(params or {}), first_failure=failure, note=note)


def info(name: str, note: str, params=None, ratio=None, degrees=None) -> CheckReport:
    return CheckReport(name, "info", dict(params or {}), ratio=ratio,
                       degrees=degrees, note=note)


def ratio_report(name: str, ratio, failure: dict, params=None, degrees=None) -> CheckReport:
    """Report of a proportionality claim from its ``mat_proportional`` ratio:
    ``failed`` with ``failure`` when there is no ratio, else ``passed`` with
    the ratio."""
    if ratio is None:
        return failed(name, failure, params=params)
    return passed(name, params=params, ratio=str(ratio), degrees=degrees)


def entry_failure(matrix) -> dict:
    """Failure payload naming the first nonzero entry of ``matrix``."""
    for row, col, val in matrix.entries():
        return {"row": row, "col": col, "value": str(val)}
    return {"value": "0"}


def render_report(reports: list[CheckReport], config: dict) -> str:
    """Canonical JSON text: sorted keys, no timing, trailing newline."""
    payload = {
        "version": REPORT_VERSION,
        "config": config,
        "reports": [r.canonical() for r in reports],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def render_matrix_dump(matrix) -> str:
    """Canonical JSON for a matrix dump (bit-exact golden form)."""
    return json.dumps(matrix.to_dump_dict(), sort_keys=True) + "\n"
