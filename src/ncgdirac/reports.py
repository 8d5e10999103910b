"""Shared clause/report structures for the verification suites."""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field


@dataclass
class Clause:
    name: str
    passed: bool
    residual: object | None = None  # json-serializable payload, None when clean

    def to_json(self) -> dict:
        return {"clause": self.name, "pass": self.passed, "residual": self.residual}


@dataclass
class Report:
    subject: str
    clauses: list[Clause] = field(default_factory=list)

    def add(self, name: str, passed: bool):
        self.clauses.append(Clause(name, passed))

    def family(self, name: str, checks) -> bool:
        """Record one passing clause for the family, or each failing instance; True if it passed.

        checks yields (label, residual) pairs; an instance passes when its
        exact residual is zero, and a failure is recorded as name[label].
        """
        failures = [(label, residual) for label, residual in checks if not residual.is_zero()]
        if not failures:
            self.add(name, True)
        for label, residual in failures:
            self.clauses.append(Clause(f"{name}[{label}]", False, residual.to_json()))
        return not failures

    def unmet(self, name: str, premise: str):
        """Record the family as one failing clause name[needs premise], with no residual.

        The family's residuals are exact only under the premise family, which
        failed, so none of them is evaluated.
        """
        self.clauses.append(Clause(f"{name}[needs {premise}]", False))

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.clauses)

    def failures(self) -> list[Clause]:
        return [c for c in self.clauses if not c.passed]

    def to_json(self) -> dict:
        return {
            "subject": self.subject,
            "pass": self.all_passed,
            "clauses": [c.to_json() for c in self.clauses],
        }


def write_report_atomic(payload: dict, path: str):
    """Serialize deterministically and replace the target file atomically.

    An OSError names the target path, never the temporary file, and leaves
    no temporary file behind.
    """
    data = json.dumps(payload, indent=2, sort_keys=True)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                # mkstemp makes the file private; give the report open()'s mode
                mask = os.umask(0)
                os.umask(mask)
                os.fchmod(handle.fileno(), 0o666 & ~mask)
                handle.write(data)
                handle.write("\n")
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(f"cannot write report to {path!r}: {exc.strerror or exc}") from exc
