"""Suite reports: aggregation records, JSON emission, text rendering.

The JSON layout is fixed and key order is stable, so two runs of the
same scenario differ only in the wall time field. Failures carry a
replayable witness: the echoed scenario restricted to the failing trial.
"""

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

REPORT_VERSION = "1"

__all__ = ["REPORT_VERSION", "PropertyRecord", "SuiteReport", "report_to_dict", "render_text", "emit_report"]


@dataclass(frozen=True)
class PropertyRecord:
    prop_id: str
    instances: int
    max_residual: float
    tolerance: float
    passed: bool
    worst_check: str = ""
    witness: Optional[dict] = None


@dataclass(frozen=True)
class SuiteReport:
    version: str
    scenario: dict
    properties: List[PropertyRecord]
    wall_time_ms: float
    meta: Dict[str, str] = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(p.passed for p in self.properties)


def _json_residual(value: float):
    """A residual as valid JSON: a non-finite one becomes the string "nan",
    "inf" or "-inf", which JSON has no number for."""
    return value if -math.inf < value < math.inf else repr(float(value))


def report_to_dict(report: SuiteReport) -> dict:
    properties = []
    for rec in report.properties:
        entry = {
            "id": rec.prop_id,
            "instances": rec.instances,
            "max_residual": _json_residual(rec.max_residual),
            "tolerance": rec.tolerance,
            "pass": rec.passed,
        }
        if rec.witness is not None:
            entry["witness"] = dict(rec.witness, residual=_json_residual(rec.witness["residual"]))
        properties.append(entry)
    return {
        "version": report.version,
        "scenario_echo": report.scenario,
        "properties": properties,
        "wall_time_ms": report.wall_time_ms,
        "meta": dict(report.meta),
    }


def render_text(report: SuiteReport) -> str:
    header = f"{'property':<20} {'instances':>9} {'max residual':>13} {'tolerance':>10} {'worst check':<28} result"
    lines = [header, "-" * len(header)]
    for rec in report.properties:
        lines.append(
            f"{rec.prop_id:<20} {rec.instances:>9} {rec.max_residual:>13.3e} "
            f"{rec.tolerance:>10.1e} {rec.worst_check:<28} {'pass' if rec.passed else 'FAIL'}"
        )
    lines.append("-" * len(header))
    verdict = "all properties passed" if report.all_passed else "FAILURES present"
    lines.append(f"{verdict} ({len(report.properties)} properties, {report.wall_time_ms:.0f} ms)")
    for rec in report.properties:
        if rec.witness is not None:
            lines.append(
                f"witness[{rec.prop_id}]: trial {rec.witness['trial_index']}, "
                f"check {rec.witness['check']}, residual {rec.witness['residual']:.3e}"
            )
    return "\n".join(lines) + "\n"


def emit_report(report: SuiteReport, path: str, fmt: str = "json") -> None:
    """Write the report; JSON follows the fixed schema with stable key order.

    Non-finite residuals are written as strings; any other non-finite
    number raises ``ValueError`` instead of writing invalid JSON.
    """
    if fmt not in ("json", "text"):
        raise ValueError(f"unknown report format {fmt!r}; use json or text")
    if fmt == "json":
        payload = json.dumps(report_to_dict(report), indent=2, allow_nan=False) + "\n"
    else:
        payload = render_text(report)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(payload)
