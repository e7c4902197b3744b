"""The diagnostics framework shared by every analyzer tier.

A :class:`Diagnostic` is one finding: a stable ``RPR0xx``/``RPR1xx`` code,
a severity, a location (either a file/line/column span for source lint or
an IR locus like ``"NoisePlan.ops[3]"`` for plan verification), a message
and an optional fix hint. :class:`AnalysisReport` aggregates them and
renders either a human-readable text listing or machine-readable JSON —
the CLI, the ``VerifyPlan`` compiler pass and the test suite all consume
the same report object.

Codes are registered centrally in :data:`CODE_TABLE` so the README table,
the CLI ``codes`` subcommand and the analyzers cannot drift apart.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple


class Severity(enum.IntEnum):
    """Diagnostic severity; ordering is by increasing urgency."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:  # "error", not "Severity.ERROR"
        return self.name.lower()


@dataclass(frozen=True)
class CodeSpec:
    """Registry entry for one diagnostic code."""

    code: str
    slug: str
    severity: Severity
    summary: str


#: Every diagnostic code the subsystem can emit. ``slug`` doubles as the
#: lint suppression name (``# repro: allow-<slug>``).
CODE_TABLE: Dict[str, CodeSpec] = {
    spec.code: spec
    for spec in [
        # -- Tier 1: IR verifiers (RPR0xx) ---------------------------------
        CodeSpec("RPR001", "qubit-bounds", Severity.ERROR,
                 "qubit operand out of range for the circuit/plan width"),
        CodeSpec("RPR002", "operand-arity", Severity.ERROR,
                 "duplicate qubit operands or wrong operand count for a gate"),
        CodeSpec("RPR003", "matrix-shape", Severity.ERROR,
                 "op matrix/Kraus stack shape inconsistent with its support"),
        CodeSpec("RPR004", "param-binding", Severity.ERROR,
                 "parameter table incomplete or inconsistent (slot/index "
                 "out of range, shape mismatch, non-finite affine map)"),
        CodeSpec("RPR005", "non-unitary", Severity.ERROR,
                 "static (possibly fused) matrix is not unitary"),
        CodeSpec("RPR006", "non-cptp", Severity.ERROR,
                 "Kraus stack violates trace preservation (sum K^dag K != I)"),
        CodeSpec("RPR007", "superop-mismatch", Severity.ERROR,
                 "pre-compiled superoperator disagrees with the Kraus stack"),
        CodeSpec("RPR008", "measurement-coverage", Severity.ERROR,
                 "logical measurement positions missing, duplicated or out of range"),
        CodeSpec("RPR009", "coupling-violation", Severity.ERROR,
                 "two-qubit gate on an uncoupled physical pair after routing"),
        CodeSpec("RPR010", "non-basis-gate", Severity.ERROR,
                 "gate outside the device basis after native translation"),
        CodeSpec("RPR011", "cache-key", Severity.ERROR,
                 "plan cache key does not match its content "
                 "(noise fingerprint not folded in)"),
        CodeSpec("RPR012", "unused-parameter", Severity.WARNING,
                 "declared parameter never referenced by the plan's affine map"),
        # -- Tier 2: source-level determinism lint (RPR1xx) -----------------
        CodeSpec("RPR100", "parse-error", Severity.WARNING,
                 "source file could not be read or parsed"),
        CodeSpec("RPR101", "unseeded-rng", Severity.ERROR,
                 "unseeded np.random.default_rng() or legacy global "
                 "np.random.* API"),
        CodeSpec("RPR102", "rng-thread", Severity.ERROR,
                 "RNG built directly from a seed instead of threading it "
                 "through repro.utils.rng.ensure_rng/derive_rng"),
        CodeSpec("RPR103", "set-iteration", Severity.ERROR,
                 "iteration over a set in a seed-critical module "
                 "(hash-order nondeterminism)"),
        CodeSpec("RPR104", "unlocked-cache", Severity.ERROR,
                 "module-level mutable cache mutated outside a lock"),
        CodeSpec("RPR105", "direct-result-dump", Severity.ERROR,
                 "result payload written with save_json outside repro/store/ "
                 "(bypasses the experiment store)"),
        CodeSpec("RPR106", "direct-timing", Severity.ERROR,
                 "direct time.time()/perf_counter()/monotonic() call outside "
                 "repro/obs/ (bypasses the observability clock)"),
        CodeSpec("RPR107", "swallow", Severity.ERROR,
                 "broad except swallows the exception without re-raising or "
                 "failing the job (faults vanish instead of retrying)"),
    ]
}

#: Reverse slug -> code lookup (suppression comments name the slug).
SLUG_TO_CODE: Dict[str, str] = {spec.slug: spec.code for spec in CODE_TABLE.values()}


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding with a stable code and a location."""

    code: str
    message: str
    severity: Severity = Severity.ERROR
    #: Source file for lint findings; ``None`` for IR verification.
    file: Optional[str] = None
    line: Optional[int] = None
    column: Optional[int] = None
    end_line: Optional[int] = None
    #: IR locus for verifier findings, e.g. ``"GatePlan.ops[4]"``.
    locus: Optional[str] = None
    hint: Optional[str] = None

    @property
    def slug(self) -> str:
        spec = CODE_TABLE.get(self.code)
        return spec.slug if spec else self.code.lower()

    def location(self) -> str:
        """Human-readable location prefix."""
        if self.file is not None:
            parts = str(self.file)
            if self.line is not None:
                parts += f":{self.line}"
                if self.column is not None:
                    parts += f":{self.column}"
            return parts
        return self.locus or "<unknown>"

    def render(self) -> str:
        text = f"{self.location()}: {self.severity}: {self.code} [{self.slug}] {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "code": self.code,
            "slug": self.slug,
            "severity": str(self.severity),
            "message": self.message,
        }
        for key in ("file", "line", "column", "end_line", "locus", "hint"):
            value = getattr(self, key)
            if value is not None:
                payload[key] = value
        return payload


def make_diagnostic(code: str, message: str, **kwargs) -> Diagnostic:
    """Build a diagnostic with the registry's default severity for ``code``."""
    spec = CODE_TABLE.get(code)
    if spec is None:
        raise KeyError(f"unknown diagnostic code {code!r}")
    kwargs.setdefault("severity", spec.severity)
    return Diagnostic(code=code, message=message, **kwargs)


@dataclass
class AnalysisReport:
    """An ordered collection of diagnostics plus render/aggregate helpers."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: How many findings suppression comments silenced (lint only).
    suppressed: int = 0

    def add(self, code: str, message: str, **kwargs) -> Diagnostic:
        diagnostic = make_diagnostic(code, message, **kwargs)
        self.diagnostics.append(diagnostic)
        return diagnostic

    def extend(self, other: "AnalysisReport") -> "AnalysisReport":
        self.diagnostics.extend(other.diagnostics)
        self.suppressed += other.suppressed
        return self

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self):
        return iter(self.diagnostics)

    def by_severity(self, severity: Severity) -> Tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == severity)

    @property
    def errors(self) -> Tuple[Diagnostic, ...]:
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> Tuple[Diagnostic, ...]:
        return self.by_severity(Severity.WARNING)

    @property
    def has_errors(self) -> bool:
        return any(d.severity >= Severity.ERROR for d in self.diagnostics)

    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for diagnostic in self.diagnostics:
            key = str(diagnostic.severity)
            counts[key] = counts.get(key, 0) + 1
        return counts

    def render_text(self, *, min_severity: Severity = Severity.INFO) -> str:
        """The CLI's human-readable listing, most severe first."""
        shown = [d for d in self.diagnostics if d.severity >= min_severity]
        lines = [d.render() for d in sorted(
            shown, key=lambda d: (-int(d.severity), d.file or "", d.line or 0)
        )]
        counts = self.counts()
        summary = ", ".join(
            f"{counts[name]} {name}{'s' if counts[name] != 1 else ''}"
            for name in ("error", "warning", "info")
            if counts.get(name)
        ) or "no findings"
        if self.suppressed:
            summary += f" ({self.suppressed} suppressed)"
        lines.append(summary)
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "counts": self.counts(),
            "suppressed": self.suppressed,
            "ok": not self.has_errors,
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def merge_reports(reports: Iterable[AnalysisReport]) -> AnalysisReport:
    merged = AnalysisReport()
    for report in reports:
        merged.extend(report)
    return merged


def render_code_table() -> str:
    """The ``python -m repro.analysis codes`` listing (mirrors the README)."""
    rows = [
        f"{spec.code}  {spec.slug:<22} {str(spec.severity):<8} {spec.summary}"
        for spec in CODE_TABLE.values()
    ]
    header = f"{'code':<7} {'slug':<22} {'severity':<8} summary"
    return "\n".join([header] + rows)
