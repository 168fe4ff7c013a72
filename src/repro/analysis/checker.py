"""The pluggable ``Checker`` protocol and the ``run_check`` driver.

A checker is a class with a ``rule`` id, a ``severity``, a one-line
``description``, and a ``check(project)`` generator yielding
:class:`~repro.analysis.findings.Finding` objects.  Concrete rules are
declared in :data:`repro.api.registry.CHECKERS` (a lazy ``module:attr``
pointer, like every other component family), so the CLI can list rule
ids without importing this package and third parties can add
repo-specific rules the same way they add policies or scenarios.

:func:`run_check` is the one entry point everything else (CLI, CI,
tests) calls: load the project once, run the selected checkers, apply
inline suppressions and the committed baseline, and return the findings
sorted by path/line.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from .findings import Finding
from .model import ProjectModel, load_project

__all__ = ["Checker", "all_checkers", "run_check", "CheckResult"]


class Checker:
    """Base class: subclasses set the rule metadata and yield findings."""

    rule: str = ""
    severity: str = "error"
    description: str = ""

    def check(self, project: ProjectModel) -> Iterator[Finding]:
        raise NotImplementedError

    # Convenience for subclasses.
    def finding(
        self, module_or_relpath, line: int, message: str,
        severity: Optional[str] = None,
    ) -> Finding:
        relpath = getattr(module_or_relpath, "relpath", module_or_relpath)
        return Finding(
            path=relpath,
            line=line,
            rule=self.rule,
            severity=severity or self.severity,
            message=message,
        )


def all_checkers(rules: Optional[Sequence[str]] = None) -> List[Checker]:
    """Instantiate registered checkers (all, or the named subset)."""
    from ..api.registry import CHECKERS, RegistryError

    names = list(CHECKERS.names()) if rules is None else list(rules)
    checkers = []
    for name in names:
        try:
            cls = CHECKERS.get(name)
        except RegistryError:
            raise RegistryError(
                f"unknown rule {name!r}; available: "
                f"{list(CHECKERS.names())}"
            ) from None
        checkers.append(cls())
    return checkers


class CheckResult:
    """Everything one analysis run produced."""

    def __init__(
        self,
        project: ProjectModel,
        checkers: Sequence[Checker],
        findings: List[Finding],
        stale_baseline: List[Dict],
    ):
        self.project = project
        self.checkers = list(checkers)
        self.findings = findings
        self.stale_baseline = stale_baseline

    @property
    def active(self) -> List[Finding]:
        return [f for f in self.findings if f.active]

    def failed(self, fail_on: str = "error") -> bool:
        from .findings import severity_at_least

        if self.stale_baseline:
            return True
        return any(
            severity_at_least(f.severity, fail_on) for f in self.active
        )


def _apply_suppressions(
    project: ProjectModel, findings: Iterable[Finding]
) -> List[Finding]:
    out = []
    for finding in findings:
        module = project.by_relpath(finding.path)
        if module is not None and module.suppressed(
            finding.rule, finding.line
        ):
            finding = finding.with_flags(suppressed=True)
        out.append(finding)
    return out


def _apply_baseline(
    findings: List[Finding], baseline: Optional[Iterable[Dict]]
):
    """Mark baselined findings; return the stale baseline entries.

    A baseline entry that no longer matches any finding is *stale*:
    the debt it documented was paid, and the committed file must shrink
    to keep "the baseline never grows" meaningful — staleness fails the
    gate just like a fresh violation does.
    """
    if baseline is None:
        return findings, []
    keys = {
        (e["path"], int(e["line"]), e["rule"], e["message"]): dict(e)
        for e in baseline
    }
    matched = set()
    out = []
    for finding in findings:
        key = finding.key()
        if key in keys and finding.active:
            matched.add(key)
            finding = finding.with_flags(baselined=True)
        out.append(finding)
    stale = [entry for key, entry in keys.items() if key not in matched]
    return out, stale


def run_check(
    root: Optional[str] = None,
    rules: Optional[Sequence[str]] = None,
    baseline: Optional[Iterable[Dict]] = None,
    project: Optional[ProjectModel] = None,
) -> CheckResult:
    """Load, check, suppress, baseline — the analyzer's main sequence."""
    if project is None:
        project = load_project(root)
    checkers = all_checkers(rules)
    findings: List[Finding] = []
    for checker in checkers:
        findings.extend(checker.check(project))
    findings = _apply_suppressions(project, findings)
    findings.sort()
    findings, stale = _apply_baseline(findings, baseline)
    return CheckResult(project, checkers, findings, stale)
