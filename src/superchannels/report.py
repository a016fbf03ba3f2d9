"""Structured run reports shared by the CLI and the demo suite."""

from __future__ import annotations

from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
UNDETERMINED = "undetermined"


@dataclass
class Finding:
    """One judged quantity: the value, the tolerance it was held to, the verdict."""

    key: str
    value: object
    tol: float | None = None
    ok: bool | None = None

    def as_dict(self) -> dict:
        return {"key": self.key, "value": self.value, "tol": self.tol, "ok": self.ok}


@dataclass
class RunReport:
    command: str
    inputs: tuple = ()
    results: list = field(default_factory=list)
    status: str = PASS

    def add(self, key, value, tol=None, ok=None) -> Finding:
        finding = Finding(key, value, tol, ok)
        self.results.append(finding)
        if ok is False:
            self.status = FAIL
        return finding

    def judge(self, key, value, tol) -> Finding:
        """Record a residual-style value judged against a tolerance."""
        ok = bool(value <= tol)
        return self.add(key, float(value), tol=tol, ok=ok)

    def expect(self, key, value, expected) -> Finding:
        return self.add(key, value, ok=bool(value == expected))

    def as_dict(self) -> dict:
        return {"command": self.command,
                "inputs": list(self.inputs),
                "results": [f.as_dict() for f in self.results],
                "status": self.status}

    def lines(self) -> list[str]:
        out = [f"[{self.status.upper():>4}] {self.command}"]
        for f in self.results:
            mark = "" if f.ok is None else ("  ok" if f.ok else "  FAILED")
            tol = "" if f.tol is None else f"  (tol {f.tol:g})"
            out.append(f"    {f.key}: {f.value}{tol}{mark}")
        return out
