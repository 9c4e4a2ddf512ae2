"""Check reports: one named residual per verified property, CI-friendly."""

from dataclasses import dataclass, field

__all__ = ["Check", "Report", "report_to_obj", "render_text"]


@dataclass(frozen=True)
class Check:
    name: str
    residual: float
    tolerance: float
    # why the check failed, for records made from a raised error
    message: str = ""

    @property
    def passed(self):
        return self.residual <= self.tolerance


@dataclass
class Report:
    subject: str
    checks: list = field(default_factory=list)
    wallTime: float = 0.0
    # --tol: when set, every residual added is judged at it, not at its own
    tol_override: float = None

    def add(self, name, residual, tolerance):
        tolerance = tolerance if self.tol_override is None else self.tol_override
        self.checks.append(Check(name, float(residual), float(tolerance)))

    def add_bool(self, name, ok):
        # booleans ride the residual convention: 0 passes, 1 fails at tolerance 0
        self.checks.append(Check(name, 0.0 if ok else 1.0, 0.0))

    def add_gates(self, prefix, table, residuals):
        """One check per entry of a gate table (see errors.gate_all) present
        in residuals, named prefix + key; a None tolerance marks a boolean."""
        for key, tolerance, _ in table:
            if key not in residuals:
                continue
            if tolerance is None:
                self.add_bool(prefix + key, residuals[key])
            else:
                self.add(prefix + key, residuals[key], tolerance)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)


def report_to_obj(report):
    return {
        "subject": report.subject,
        "pass": report.passed,
        "wallTime": report.wallTime,
        "checks": [_check_to_obj(c) for c in report.checks],
    }


def _check_to_obj(c):
    out = {"name": c.name, "residual": c.residual, "tolerance": c.tolerance, "pass": c.passed}
    if c.message:
        out["message"] = c.message
    return out


def render_text(report):
    lines = []
    mark = "PASS" if report.passed else "FAIL"
    lines.append(f"{mark} {report.subject} ({report.wallTime:.2f}s)")
    for c in report.checks:
        mark = "ok  " if c.passed else "FAIL"
        why = f" ({c.message})" if c.message else ""
        lines.append(f"  {mark} {c.name}: {c.residual:.2e} <= {c.tolerance:.2e}{why}")
    return "\n".join(lines)
