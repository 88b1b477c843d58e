"""The lint engine: file walker, rule dispatch, suppressions.

A :class:`LintEngine` walks Python files, parses each once, runs every
applicable :class:`Rule` over the tree and folds the findings together
with the file's suppression comments into a :class:`LintReport`.

Suppression syntax (one comment, trailing the offending line or on the
line directly above it)::

    x = np.random.default_rng()  # repro-lint: disable=RPR001 -- replaced by a seeded rng in reset()

    # repro-lint: disable=RPR002,RPR005 -- span timing only, never fingerprinted
    clock = time.perf_counter

``disable=all`` silences every rule for that line. A suppression
**must** carry a ``-- reason``; one without it still suppresses (so a
forgotten reason cannot flip CI red on unrelated rules) but raises the
always-active ``RPR000`` finding at the comment's line.
"""

from __future__ import annotations

import ast
import io
import os
import tokenize
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path, PurePath
from typing import Iterable, Iterator, Sequence

from .hazards import ImportTable

__all__ = [
    "Finding",
    "FileContext",
    "Rule",
    "LintEngine",
    "LintReport",
    "ModelRuleLike",
    "ProjectRuleLike",
    "SUPPRESS_ALL",
]

#: sentinel rule name in a suppression that silences every rule
SUPPRESS_ALL = "all"

#: the engine's own rule: a suppression comment without a reason
RULE_BARE_SUPPRESSION = "RPR000"


@dataclass(frozen=True)
class Finding:
    """One rule violation at a ``path:line:col`` location.

    ``trace`` is the call-graph witness for whole-program findings: the
    chain of function qualnames from the sink (or thread entry) to the
    flagged site, empty for plain per-file findings.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    suppressed: bool = False
    reason: str | None = None
    trace: tuple[str, ...] = ()

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)


@dataclass(frozen=True)
class Suppression:
    """A parsed ``# repro-lint: disable=...`` comment."""

    line: int
    rules: frozenset[str]
    reason: str | None

    def covers(self, rule_id: str) -> bool:
        return SUPPRESS_ALL in self.rules or rule_id in self.rules


@dataclass
class FileContext:
    """Everything a rule needs about one parsed file."""

    path: str
    source: str
    tree: ast.AST
    #: path components, used for rule scoping (``rule.applies``)
    parts: tuple[str, ...]
    #: target code line -> suppression active on that line
    suppressions: dict[int, Suppression] = field(default_factory=dict)

    @cached_property
    def module(self) -> str:
        """Dotted module name, walking up through ``__init__.py``
        packages (``src/repro/net/worker.py`` -> ``repro.net.worker``)."""
        p = Path(self.path)
        parts = [p.stem] if p.stem != "__init__" else []
        parent = p.parent
        while (parent / "__init__.py").is_file():
            parts.insert(0, parent.name)
            parent = parent.parent
        return ".".join(parts) if parts else p.stem

    @cached_property
    def imports(self) -> ImportTable:
        """The module-level import table, built once and shared by the
        per-file rules and the project model."""
        is_package = Path(self.path).stem == "__init__"
        return ImportTable.build(self.tree, self.module, is_package=is_package)


class Rule:
    """Base class for a per-file AST rule.

    Subclasses set the class attributes and implement :meth:`check`.
    ``scope`` restricts the rule to files whose path contains one of the
    named directories (``None`` applies everywhere).
    """

    rule_id: str = ""
    title: str = ""
    #: one-line statement of why the rule protects byte-identity
    rationale: str = ""
    scope: tuple[str, ...] | None = None

    def applies(self, ctx: FileContext) -> bool:
        if self.scope is None:
            return True
        return any(part in self.scope for part in ctx.parts)

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.rule_id,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


@dataclass
class LintReport:
    """The outcome of one engine run."""

    findings: list[Finding]
    n_files: int

    def active(self) -> list[Finding]:
        """Findings that are not suppressed (these fail the gate)."""
        return [f for f in self.findings if not f.suppressed]

    def suppressed(self) -> list[Finding]:
        return [f for f in self.findings if f.suppressed]

    @property
    def ok(self) -> bool:
        return not self.active()


def _parse_suppressions(source: str) -> tuple[dict[int, Suppression], list[Finding]]:
    """Map each *target* code line to its suppression, via tokenize.

    A trailing comment targets its own line; a standalone comment line
    targets the next line that holds code. Returns the map plus RPR000
    findings for suppressions written without a reason (path is filled
    in by the caller).
    """
    suppressions: list[tuple[int, bool, Suppression]] = []  # (line, standalone, s)
    code_lines: set[int] = set()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError):  # pragma: no cover - unparsable
        return {}, []
    for tok in tokens:
        if tok.type == tokenize.COMMENT:
            parsed = _parse_comment(tok.string, tok.start[0])
            if parsed is not None:
                standalone = tok.line[: tok.start[1]].strip() == ""
                suppressions.append((tok.start[0], standalone, parsed))
        elif tok.type not in (
            tokenize.NL,
            tokenize.NEWLINE,
            tokenize.INDENT,
            tokenize.DEDENT,
            tokenize.ENDMARKER,
        ):
            code_lines.add(tok.start[0])

    by_target: dict[int, Suppression] = {}
    bare: list[Finding] = []
    for line, standalone, suppression in suppressions:
        if standalone:
            following = [n for n in code_lines if n > line]
            target = min(following) if following else line
        else:
            target = line
        by_target[target] = suppression
        if suppression.reason is None:
            bare.append(
                Finding(
                    rule=RULE_BARE_SUPPRESSION,
                    path="",
                    line=line,
                    col=0,
                    message=(
                        "suppression without a reason; write "
                        "'# repro-lint: disable=RULE -- why this is safe'"
                    ),
                )
            )
    return by_target, bare


def _parse_comment(comment: str, line: int) -> Suppression | None:
    text = comment.lstrip("#").strip()
    if not text.startswith("repro-lint:"):
        return None
    text = text[len("repro-lint:"):].strip()
    if not text.startswith("disable="):
        return None
    text = text[len("disable="):]
    reason: str | None = None
    if "--" in text:
        spec, _, reason_text = text.partition("--")
        reason = reason_text.strip() or None
    else:
        spec = text
    rules = frozenset(r.strip() for r in spec.split(",") if r.strip())
    if not rules:
        return None
    return Suppression(line=line, rules=rules, reason=reason)


def iter_python_files(paths: Sequence[str | os.PathLike[str]]) -> Iterator[Path]:
    """Yield every ``.py`` file under the given files/directories, sorted.

    Hidden directories, ``__pycache__`` and egg/build metadata are
    skipped so a source checkout lints cleanly.
    """
    seen: set[Path] = set()
    for raw in paths:
        root = Path(raw)
        if root.is_file():
            candidates = [root] if root.suffix == ".py" else []
        else:
            candidates = sorted(
                p
                for p in root.rglob("*.py")
                if not any(
                    part.startswith(".") or part in ("__pycache__", "build", "dist")
                    for part in p.relative_to(root).parts
                )
            )
        for path in candidates:
            if path not in seen:
                seen.add(path)
                yield path


class LintEngine:
    """Runs per-file, whole-program and contract rules over a file tree.

    The run is two-pass: every file is parsed once into a
    :class:`FileContext`, the per-file rules see each context in
    isolation, then a project-wide model (symbol table + call graph +
    thread/lock model, see :mod:`repro.analysis.model`) is built over
    *all* contexts and handed to the model rules.  ``rule_filter``
    restricts every rule family uniformly (per-file, model and contract
    rules alike); ``RPR999`` parse failures always surface.
    """

    def __init__(
        self,
        rules: Sequence[Rule] | None = None,
        project_rules: Sequence["ProjectRuleLike"] | None = None,
        model_rules: Sequence["ModelRuleLike"] | None = None,
        rule_filter: Iterable[str] | None = None,
    ) -> None:
        if rules is None:
            from .rules import default_rules

            rules = default_rules()
        if model_rules is None:
            from .rules import default_model_rules

            model_rules = default_model_rules()
        self.rules = list(rules)
        self.project_rules = list(project_rules or [])
        self.model_rules = list(model_rules)
        self.rule_filter = frozenset(rule_filter) if rule_filter is not None else None

    def _selected(self, rule_id: str) -> bool:
        return self.rule_filter is None or rule_id in self.rule_filter

    def run(
        self,
        paths: Sequence[str | os.PathLike[str]],
        repo_root: Path | None = None,
    ) -> LintReport:
        """Lint every file under ``paths`` (plus project-level contracts).

        ``repo_root`` anchors the contract rules (defaults to the root
        the scanned paths live under); file findings report paths as
        given, so output is stable regardless of the invocation cwd.
        """
        findings: list[Finding] = []
        contexts: list[FileContext] = []
        n_files = 0
        for path in iter_python_files(paths):
            n_files += 1
            ctx, file_findings = self._parse_file(path)
            findings.extend(file_findings)
            if ctx is None:
                continue
            contexts.append(ctx)
            for rule in self.rules:
                if not self._selected(rule.rule_id) or not rule.applies(ctx):
                    continue
                for finding in rule.check(ctx):
                    findings.append(_apply_suppression(ctx, finding))
        model_rules = [r for r in self.model_rules if self._selected(r.rule_id)]
        if model_rules and contexts:
            from .model import ProjectModel

            model = ProjectModel.build(contexts)
            by_path = {ctx.path: ctx for ctx in contexts}
            for model_rule in model_rules:
                for finding in model_rule.check_model(model):
                    ctx = by_path.get(finding.path)
                    if ctx is not None:
                        finding = _apply_suppression(ctx, finding)
                    findings.append(finding)
        for project_rule in self.project_rules:
            if not self._selected(project_rule.rule_id):
                continue
            root = repo_root if repo_root is not None else _infer_repo_root(paths)
            if root is not None:
                findings.extend(project_rule.check_project(root))
        findings.sort(key=Finding.sort_key)
        return LintReport(findings=_dedupe(findings), n_files=n_files)

    def _parse_file(
        self, path: str | os.PathLike[str]
    ) -> tuple[FileContext | None, list[Finding]]:
        """Parse one file into a context plus its RPR999/RPR000 findings."""
        text_path = os.fspath(path)
        try:
            source = Path(path).read_text(encoding="utf-8")
            tree = ast.parse(source, filename=text_path)
        except (OSError, SyntaxError, ValueError) as exc:
            return None, [
                Finding(
                    rule="RPR999",
                    path=text_path,
                    line=getattr(exc, "lineno", 1) or 1,
                    col=0,
                    message=f"file could not be parsed: {exc}",
                )
            ]
        suppressions, bare = _parse_suppressions(source)
        ctx = FileContext(
            path=text_path,
            source=source,
            tree=tree,
            parts=PurePath(text_path).parts,
            suppressions=suppressions,
        )
        findings = (
            [replace(f, path=text_path) for f in bare]
            if self._selected(RULE_BARE_SUPPRESSION)
            else []
        )
        return ctx, findings


def _infer_repo_root(paths: Sequence[str | os.PathLike[str]]) -> Path | None:
    """Walk up from the first scanned path to a directory holding
    ``src/repro`` (a source checkout) — the anchor for contract rules."""
    for raw in paths:
        current = Path(raw).resolve()
        for candidate in (current, *current.parents):
            if (candidate / "src" / "repro").is_dir():
                return candidate
    return None


def _apply_suppression(ctx: FileContext, finding: Finding) -> Finding:
    suppression = ctx.suppressions.get(finding.line)
    if suppression is not None and suppression.covers(finding.rule):
        return replace(finding, suppressed=True, reason=suppression.reason)
    return finding


def _dedupe(findings: list[Finding]) -> list[Finding]:
    """Collapse findings sharing (rule, path, line, col).

    The per-file and whole-program passes can flag the same site (the
    taint upgrade of RPR001/RPR002 overlaps the package-scoped scan);
    the trace-carrying finding wins, otherwise the first in sort order.
    """
    best: dict[tuple[str, str, int, int], Finding] = {}
    order: list[tuple[str, str, int, int]] = []
    for finding in findings:
        key = (finding.rule, finding.path, finding.line, finding.col)
        if key not in best:
            best[key] = finding
            order.append(key)
        elif finding.trace and not best[key].trace:
            best[key] = finding
    return [best[key] for key in order]


class ProjectRuleLike:
    """Structural type for project-level rules (see ``rules.contracts``)."""

    rule_id: str = ""
    title: str = ""
    rationale: str = ""

    def check_project(self, repo_root: Path) -> Iterable[Finding]:
        raise NotImplementedError


class ModelRuleLike:
    """Structural type for whole-program rules (see ``rules.concurrency``).

    A model rule receives the finished :class:`~repro.analysis.model.
    ProjectModel` once per run and yields findings anchored at real file
    locations; the engine applies suppressions afterwards.
    """

    rule_id: str = ""
    title: str = ""
    rationale: str = ""

    def check_model(self, model: "ProjectModelLike") -> Iterable[Finding]:
        raise NotImplementedError


class ProjectModelLike:
    """Forward declaration so engine needn't import the model module."""
