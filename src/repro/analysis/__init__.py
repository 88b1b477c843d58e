"""Static analysis of the repo's own determinism & reproducibility contracts.

The headline guarantee — byte-identical results tables across executors,
cache hits and fault-free twin runs — is enforced dynamically by the
determinism-matrix test suites, but those only catch a regression *after*
an expensive campaign. This package checks the contracts statically,
before anything runs:

* :mod:`repro.analysis.engine` — an AST-based lint engine with per-rule
  visitors, ``# repro-lint: disable=RULE -- reason`` suppressions and
  ``file:line`` reporting; the run is two-pass, building a shared
  whole-program model for the model rules;
* :mod:`repro.analysis.hazards` — the hazard catalogue: what a call is
  (unseeded RNG draw, wall-clock read, digest, or a blocking call of a
  named kind) over its import-resolved name, and the one rule for when
  a blocking call is bounded; every rule below classifies calls there;
* :mod:`repro.analysis.model` — the project-wide symbol table, call
  graph and thread/lock model behind the whole-program rules;
* :mod:`repro.analysis.rules` — the rule library: determinism hazards
  (``RPR001``–``RPR004``, enforced both per-file and interprocedurally
  via call-graph taint), hygiene (``RPR005``–``RPR009``), whole-program
  concurrency (``RPR201``–``RPR205``) and cross-file contract checks
  (``RPR102``–``RPR106``) that catch drift between dataclasses and
  their serialized forms, cache keys and consumers;
* :mod:`repro.analysis.report` — human-readable and JSON reporters;
  :mod:`repro.analysis.sarif` — SARIF 2.1.0 for code scanning;
  :mod:`repro.analysis.baseline` — the findings ratchet behind
  ``repro lint --baseline FILE --fail-on-new``.

Entry points: ``repro lint [PATHS]`` on the command line, the
``lint-self`` CI job, and :mod:`tests.test_lint_selfcheck` which keeps
the rules themselves regression-tested against a fixtures tree.
"""

from .baseline import diff_against_baseline, load_baseline, write_baseline
from .engine import (
    FileContext,
    Finding,
    LintEngine,
    LintReport,
    ModelRuleLike,
    Rule,
)
from .model import ProjectModel
from .report import render_json, render_text
from .rules import (
    ProjectRule,
    default_model_rules,
    default_project_rules,
    default_rules,
    rule_table,
)
from .sarif import render_sarif, sarif_payload

__all__ = [
    "FileContext",
    "Finding",
    "LintEngine",
    "LintReport",
    "ModelRuleLike",
    "ProjectModel",
    "ProjectRule",
    "Rule",
    "default_model_rules",
    "default_project_rules",
    "default_rules",
    "diff_against_baseline",
    "load_baseline",
    "render_json",
    "render_sarif",
    "render_text",
    "rule_table",
    "sarif_payload",
    "write_baseline",
]
