"""Run reports for the command line checks.

The JSON form is deterministic byte for byte: keys are sorted, floats go
through ``repr``, and nothing time-dependent is included.  The text form
is for people and does include elapsed wall time.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import List, Optional

from .descriptors import to_jsonable

SCHEMA = "basiskit/1"

__all__ = ["SCHEMA", "CheckLine", "RunReport"]


@dataclass
class CheckLine:
    name: str
    passed: bool
    mode: str = ""
    checked: int = 0
    counterexample: object = None
    residual: Optional[float] = None
    detail: str = ""

    def as_dict(self) -> dict:
        d = {"name": self.name, "passed": self.passed}
        if self.mode:
            d["mode"] = self.mode
        if self.checked:
            d["checked"] = self.checked
        if self.counterexample is not None:
            d["counterexample"] = to_jsonable(self.counterexample)
        if self.residual is not None:
            d["residual"] = self.residual
        if self.detail:
            d["detail"] = self.detail
        return d


@dataclass
class RunReport:
    command: str
    checks: List[CheckLine] = field(default_factory=list)
    data: dict = field(default_factory=dict)
    started: float = field(default_factory=time.monotonic)

    def add(self, line: CheckLine) -> None:
        self.checks.append(line)

    def add_verdict(self, name: str, verdict) -> None:
        """Record a check's :class:`~basiskit.representations.Verdict`; the
        line shows its residual when the check measured one."""
        self.add(
            CheckLine(
                name,
                verdict.passed,
                verdict.mode,
                verdict.checked,
                verdict.counterexample,
                verdict.residual_max,
                verdict.detail,
            )
        )

    @property
    def passed(self) -> bool:
        return all(line.passed for line in self.checks)

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
            mark = "ok " if line.passed else "FAIL"
            tail = []
            if line.mode:
                tail.append(line.mode)
            if line.checked:
                tail.append(f"{line.checked} checked")
            if line.residual is not None:
                tail.append(f"residual {line.residual:.3g}")
            if line.detail:
                tail.append(line.detail)
            suffix = f" ({', '.join(tail)})" if tail else ""
            out.append(f"  [{mark}] {line.name}{suffix}")
            if line.counterexample is not None:
                out.append(
                    "        counterexample: "
                    + json.dumps(to_jsonable(line.counterexample))
                )
        for key, value in self.data.items():
            out.append(f"  {key}: {json.dumps(to_jsonable(value))}")
        out.append(f"  elapsed: {elapsed:.3f}s")
        return "\n".join(out) + "\n"
