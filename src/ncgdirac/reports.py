"""Shared clause/report structures for the verification suites."""

from __future__ import annotations

import json
import os


class Clause:
    """One named check and its outcome; residual is a json-serializable payload, None when clean.

    A clause is immutable: a report that shares a certificate's clauses
    cannot change the certificate through them.
    """

    __slots__ = ("name", "passed", "residual")

    def __init__(self, name: str, passed: bool, residual: object | None = None):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "residual", residual)

    def __setattr__(self, name, value):
        raise AttributeError(f"Clause is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Clause is immutable: cannot delete {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.passed, self.residual) == (other.name, other.passed, other.residual)

    def __repr__(self) -> str:
        return f"Clause({self.name!r}, {self.passed!r}, {self.residual!r})"

    def to_json(self) -> dict:
        return {"clause": self.name, "pass": self.passed, "residual": self.residual}


class Report:
    """The clauses checked on one subject, in order; equal reports have equal subjects and clauses."""

    __slots__ = ("subject", "clauses")

    def __init__(self, subject: str, clauses: list[Clause] | None = None):
        self.subject = subject
        self.clauses = [] if clauses is None else clauses

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.subject, self.clauses) == (other.subject, other.clauses)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.subject!r}, {self.clauses!r})"

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
    import tempfile  # only a write needs it; the CLI imports this module on every start

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
