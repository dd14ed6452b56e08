"""Run reports for the command line checks.

The JSON form is deterministic byte for byte: keys are sorted, floats go
through ``repr``, and nothing time-dependent is included.  The text form
is for people and does include elapsed wall time.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import List

from .descriptors import to_jsonable
from .representations import Verdict

SCHEMA = "basiskit/1"

__all__ = ["SCHEMA", "CheckLine", "RunReport"]

# the text form of each field of :meth:`CheckLine.as_dict` shown after the
# check's name, in this order; the counterexample gets a line of its own
_TEXT_FIELDS = {"mode": "{}", "checked": "{} checked", "residual": "residual {:.3g}", "detail": "{}"}


@dataclass
class CheckLine:
    name: str
    verdict: Verdict

    def as_dict(self) -> dict:
        v = self.verdict
        d = {"name": self.name, "passed": v.passed}
        if v.mode:
            d["mode"] = v.mode
        if v.checked:
            d["checked"] = v.checked
        if v.counterexample is not None:
            d["counterexample"] = to_jsonable(v.counterexample)
        if v.residual_max is not None:
            d["residual"] = v.residual_max
        if v.detail:
            d["detail"] = v.detail
        return d


@dataclass
class RunReport:
    command: str
    checks: List[CheckLine] = field(default_factory=list)
    data: dict = field(default_factory=dict)
    started: float = field(default_factory=time.monotonic)

    def add(self, line: CheckLine) -> None:
        self.checks.append(line)

    def add_verdict(self, name: str, verdict: Verdict) -> None:
        """Record a check's verdict; the line shows its residual when the
        check measured one."""
        self.add(CheckLine(name, verdict))

    @property
    def passed(self) -> bool:
        return all(line.verdict.passed for line in self.checks)

    def as_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "command": self.command,
            "status": "pass" if self.passed else "fail",
            "checks": [line.as_dict() for line in self.checks],
            "data": to_jsonable(self.data),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        elapsed = time.monotonic() - self.started
        out = [f"{self.command}: {'PASS' if self.passed else 'FAIL'}"]
        for line in self.checks:
            d = line.as_dict()
            tail = ", ".join(form.format(d[k]) for k, form in _TEXT_FIELDS.items() if k in d)
            suffix = f" ({tail})" if tail else ""
            out.append(f"  [{'ok ' if d['passed'] else 'FAIL'}] {line.name}{suffix}")
            if "counterexample" in d:
                out.append("        counterexample: " + json.dumps(d["counterexample"]))
        for key, value in self.data.items():
            out.append(f"  {key}: {json.dumps(to_jsonable(value))}")
        out.append(f"  elapsed: {elapsed:.3f}s")
        return "\n".join(out) + "\n"
