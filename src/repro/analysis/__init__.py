"""``repro.analysis`` — the static-analysis subsystem.

Two analyzer tiers feed one diagnostics framework
(:class:`~repro.analysis.diagnostics.Diagnostic` /
:class:`~repro.analysis.diagnostics.AnalysisReport`, stable ``RPR0xx``
codes, text + JSON renderers):

* **Tier 1 — IR verifiers** (:mod:`repro.analysis.verify`): structural
  and physics checks over circuits, gate plans and noise plans —
  unitarity of fused matrices, CPTP of every Kraus site, parameter-map
  completeness, post-routing device conformance, cache-key soundness.
  Wired into the compiler as the opt-in ``VerifyPlan`` pass behind
  ``REPRO_VERIFY=1`` (always-on in the test suite).
* **Tier 2 — determinism/concurrency lint** (:mod:`repro.analysis.lint`):
  AST rules catching unseeded RNG construction, seeds not threaded
  through ``ensure_rng``, set iteration in seed-critical modules and
  unlocked module-level caches; silence one line with
  ``# repro: allow-<slug>``.

CLI: ``python -m repro.analysis {lint,verify,codes}``.
"""

from repro.analysis.diagnostics import (
    CODE_TABLE,
    AnalysisReport,
    Diagnostic,
    Severity,
    make_diagnostic,
    merge_reports,
    render_code_table,
)
from repro.analysis.lint import lint_paths, lint_source
from repro.analysis.verify import (
    DEFAULT_ATOL,
    PlanVerificationError,
    verify_circuit,
    verify_compilation_unit,
    verify_device_compilation,
    verify_gate_plan,
    verify_kraus_site,
    verify_noise_plan,
)
from repro.compiler.passes import verification_enabled

__all__ = [
    "CODE_TABLE",
    "AnalysisReport",
    "Diagnostic",
    "Severity",
    "make_diagnostic",
    "merge_reports",
    "render_code_table",
    "lint_paths",
    "lint_source",
    "DEFAULT_ATOL",
    "PlanVerificationError",
    "verification_enabled",
    "verify_circuit",
    "verify_compilation_unit",
    "verify_device_compilation",
    "verify_gate_plan",
    "verify_kraus_site",
    "verify_noise_plan",
]
