"""Shared result types and error classes."""

from __future__ import annotations

from dataclasses import dataclass


class LoadError(ValueError):
    """Malformed input data: wrong shape, unknown names, missing entries."""


class TheoremViolation(AssertionError):
    """A certainty-backed oracle check failed.

    These checks guard facts that hold for every valid input (isomorphism
    certificates, intersection-closedness of ideal families, and so on).
    A raise indicates a bug, never an acceptable negative result, and must
    not be swallowed.
    """


@dataclass(frozen=True)
class Violation:
    """One broken law with a concrete witness (element or subset names)."""

    law: str
    witness: tuple
    detail: str = ""


@dataclass(frozen=True)
class Verdict:
    passed: bool
    violations: tuple[Violation, ...] = ()

    @property
    def laws(self) -> tuple[str, ...]:
        return tuple(v.law for v in self.violations)


class _Recorder(dict):
    """law -> its first violation, in first-failure order; calling it records
    a violation unless its law already has one."""

    def __call__(self, law: str, witness: tuple, detail: str = "") -> None:
        if law not in self:
            self[law] = Violation(law, witness, detail)

    def verdict(self) -> Verdict:
        return Verdict(not self, tuple(self.values()))
