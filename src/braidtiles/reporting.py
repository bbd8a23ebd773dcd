"""Check records and suite reports shared by the verification harness."""

from __future__ import annotations

from dataclasses import dataclass

_STATUSES = ("pass", "fail", "inconclusive")


@dataclass(frozen=True)
class CheckRecord:
    """Outcome of one named check.  Only a failure counts against the
    suite: an inconclusive record is not a failure."""

    name: str
    status: str
    details: str = ""
    wall_time: float = 0.0

    def __post_init__(self) -> None:
        if self.status not in _STATUSES:
            raise ValueError(f"status must be one of {_STATUSES}, got {self.status!r}")

    @property
    def ok(self) -> bool:
        return self.status != "fail"


@dataclass(frozen=True)
class Report:
    suite: str
    checks: tuple[CheckRecord, ...] = ()

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def counts(self) -> dict[str, int]:
        out = {s: 0 for s in _STATUSES}
        for c in self.checks:
            out[c.status] += 1
        return out

    def to_json_obj(self) -> dict:
        counts = self.counts()
        return {
            "checks": [
                {
                    "name": c.name,
                    "status": c.status,
                    "details": c.details,
                    "wall_time": round(c.wall_time, 6),
                }
                for c in self.checks
            ],
            "summary": {
                "suite": self.suite,
                "overall": "pass" if self.passed else "fail",
                **counts,
                "wall_time": round(sum(c.wall_time for c in self.checks), 6),
            },
        }

    def render(self, quiet: bool = False) -> str:
        """Human-readable listing; with ``quiet`` only non-passing checks
        are itemized."""
        lines = []
        for c in self.checks:
            if quiet and c.status == "pass":
                continue
            mark = {"pass": "PASS", "fail": "FAIL", "inconclusive": "????"}[c.status]
            line = f"{mark}  {c.name}"
            if c.wall_time >= 0.0005:
                line += f"  ({c.wall_time:.3f}s)"
            lines.append(line)
            if c.details and c.status != "pass":
                lines.extend(f"      {d}" for d in c.details.splitlines())
        counts = self.counts()
        total = len(self.checks)
        summary = f"{self.suite}: {'pass' if self.passed else 'FAIL'} ({counts['pass']}/{total} passed"
        if counts["inconclusive"]:
            summary += f", {counts['inconclusive']} inconclusive"
        if counts["fail"]:
            summary += f", {counts['fail']} failed"
        summary += ")"
        lines.append(summary)
        return "\n".join(lines)
