"""The rule library: determinism, hygiene, concurrency and contract rules.

``default_rules()`` is the per-file AST set the engine runs everywhere;
``default_model_rules()`` is the whole-program set (concurrency family
RPR201-RPR205 plus the interprocedural RPR001/RPR002 taint upgrade)
that runs over the shared project model; ``default_project_rules()`` is
the cross-file contract checker that validates the repo's dataclasses
against their serialized identity headers. ``rule_table()`` feeds
``repro lint --list-rules`` and the docs. No rule keeps its own list of
hazardous calls: each asks :mod:`repro.analysis.hazards`, so a call
reads the same to every rule and to both passes.
"""

from __future__ import annotations

from ..engine import ModelRuleLike, Rule
from .concurrency import (
    BlockingCallUnderLockRule,
    CheckThenActRule,
    LockOrderCycleRule,
    SharedMutationRule,
    ThreadLifecycleRule,
)
from .contracts import ProjectRule, default_project_rules
from .determinism import (
    AccumulationOrderRule,
    UnorderedHashRule,
    UnseededRngRule,
    WallClockRule,
)
from .hygiene import (
    BlockingHandlerRule,
    SocketTimeoutRule,
    SwallowedExceptionRule,
    UnboundedRetryRule,
)
from .taint import TaintedClockRule, TaintedRngRule

__all__ = [
    "ProjectRule",
    "default_rules",
    "default_model_rules",
    "default_project_rules",
    "rule_table",
]


def default_rules() -> list[Rule]:
    """One instance of every per-file rule, in rule-id order."""
    return [
        UnseededRngRule(),
        WallClockRule(),
        UnorderedHashRule(),
        AccumulationOrderRule(),
        SwallowedExceptionRule(),
        SocketTimeoutRule(),
        UnboundedRetryRule(),
        BlockingHandlerRule(),
    ]


def default_model_rules() -> list[ModelRuleLike]:
    """One instance of every whole-program rule, in rule-id order.

    The taint rules share rule ids with the per-file RPR001/RPR002 —
    they are the same contract, enforced interprocedurally; the engine
    deduplicates overlapping findings.
    """
    return [
        TaintedRngRule(),
        TaintedClockRule(),
        SharedMutationRule(),
        LockOrderCycleRule(),
        BlockingCallUnderLockRule(),
        ThreadLifecycleRule(),
        CheckThenActRule(),
    ]


def rule_table() -> list[tuple[str, str, str]]:
    """(rule id, title, rationale) rows for every known rule, one per id."""
    rows = [
        (
            "RPR000",
            "suppression without a reason",
            "an unexplained disable hides why byte-identity is still safe",
        )
    ]
    seen = {"RPR000"}
    for rule in default_rules():
        rows.append((rule.rule_id, rule.title, rule.rationale))
        seen.add(rule.rule_id)
    for model_rule in default_model_rules():
        if model_rule.rule_id not in seen:
            rows.append((model_rule.rule_id, model_rule.title, model_rule.rationale))
            seen.add(model_rule.rule_id)
    for project_rule in default_project_rules():
        rows.append((project_rule.rule_id, project_rule.title, project_rule.rationale))
    return rows
