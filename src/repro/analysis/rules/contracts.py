"""Contract rules RPR102–RPR106: cross-file schema drift as lint errors.

The repo's durable artefacts — trial cache keys, serialized trial rows,
benchmark recordings, the CLI surface, the paper's parameter space — are
each defined in one module and *consumed* in another. Drift between the
two (a dataclass grows a field its serializer never writes, a cache
identity field that shadows a key ingredient) surfaces as a resume-time
surprise or a silently-wrong cache hit. These rules parse both sides of
each contract and fail the lint instead.

Every rule is parameterized by repo-relative paths, so the fixtures
tests can point the same checkers at deliberately-drifted copies. A
missing file skips a rule (the engine may be pointed at a partial tree),
but a parsed file that lacks a symbol the rule reads — its *anchor*: a
class, function, or the dict literal the rule compares — is a finding
naming that symbol: a rule with nothing to compare must not pass
silently.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from ..engine import Finding

__all__ = ["ProjectRule", "default_project_rules"]


@dataclass
class _Module:
    path: str  # repo-relative, as reported
    tree: ast.Module


class _MissingAnchor(Exception):
    """A parsed file lacks a symbol a contract rule reads."""

    def __init__(self, module: _Module, symbol: str) -> None:
        super().__init__(symbol)
        self.module = module
        self.symbol = symbol


class ProjectRule:
    """Base class for a repo-level contract check."""

    rule_id: str = ""
    title: str = ""
    rationale: str = ""

    def check_project(self, repo_root: Path) -> list[Finding]:
        """The findings of :meth:`check`, or one naming its missing anchor."""
        try:
            return list(self.check(repo_root))
        except _MissingAnchor as missing:
            return [
                self.finding(
                    missing.module,
                    1,
                    f"{missing.symbol} not found in {missing.module.path}; "
                    f"the {self.title} check has nothing to compare",
                )
            ]

    def check(self, repo_root: Path) -> Iterator[Finding]:
        raise NotImplementedError

    def _load(self, repo_root: Path, rel_path: str) -> _Module | None:
        """Parse one file; a missing/unparsable file skips the rule (the
        engine may be pointed at a partial tree)."""
        full = repo_root / rel_path
        try:
            tree = ast.parse(full.read_text(encoding="utf-8"), filename=str(full))
        except (OSError, SyntaxError, ValueError):
            return None
        return _Module(path=rel_path, tree=tree)

    def finding(self, module: _Module, line: int, message: str) -> Finding:
        return Finding(
            rule=self.rule_id, path=module.path, line=line, col=0, message=message
        )


# --------------------------------------------------------------- AST helpers
def _find_class(module: _Module, name: str) -> ast.ClassDef:
    for node in module.tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    raise _MissingAnchor(module, f"class {name}")


def _find_func(
    module: _Module, name: str, cls: ast.ClassDef | None = None
) -> ast.FunctionDef:
    """Module-level function ``name``, or method ``name`` of ``cls``."""
    for node in (cls or module.tree).body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    raise _MissingAnchor(module, f"{cls.name}.{name}()" if cls else f"{name}()")


def _dict_literal_keys(node: ast.Dict) -> set[str]:
    """String-constant keys of a dict literal (``**``/computed keys skipped)."""
    return {
        key.value
        for key in node.keys
        if isinstance(key, ast.Constant) and isinstance(key.value, str)
    }


def _returned_dict(module: _Module, func: ast.FunctionDef) -> ast.Dict:
    """The dict literal the function returns (directly, or via a local
    that is assigned a dict literal and then returned/augmented)."""
    assigned: dict[str, ast.Dict] = {}
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    assigned[target.id] = node.value
        if isinstance(node, ast.Return) and node.value is not None:
            if isinstance(node.value, ast.Dict):
                return node.value
            if isinstance(node.value, ast.Name) and node.value.id in assigned:
                return assigned[node.value.id]
    # fall back to the last dict literal assigned to any local (e.g. a
    # payload that is json.dump'ed rather than returned)
    if assigned:
        return next(reversed(assigned.values()))
    raise _MissingAnchor(module, f"the dict literal {func.name}() returns")


def _consumed_keys(scope: ast.AST, receiver_names: set[str]) -> set[str]:
    """String keys read as ``name["key"]`` or ``name.get("key", ...)``."""
    keys: set[str] = set()
    for node in ast.walk(scope):
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id in receiver_names
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
        ):
            keys.add(node.slice.value)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in receiver_names
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            keys.add(node.args[0].value)
    return keys


def _dataclass_fields(cls: ast.ClassDef) -> set[str]:
    """Annotated instance fields of a dataclass body (ClassVar-style
    private names excluded by the leading-underscore convention)."""
    return {
        node.target.id
        for node in cls.body
        if isinstance(node, ast.AnnAssign)
        and isinstance(node.target, ast.Name)
        and not node.target.id.startswith("_")
    }


# -------------------------------------------------------------------- rules
class CacheKeyCollisionContract(ProjectRule):
    """RPR102: campaign cache identity must not shadow TrialCache.key fields."""

    rule_id = "RPR102"
    title = "trial cache key field collision"
    rationale = (
        "TrialCache.key() merges the campaign's trial identity with **unpacking; "
        "an identity key named like a payload field would silently "
        "overwrite the config/seed/code ingredients of every address"
    )

    def __init__(
        self,
        campaign_path: str = "src/repro/core/campaign.py",
        cache_path: str = "src/repro/exec/cache.py",
    ) -> None:
        self.campaign_path = campaign_path
        self.cache_path = cache_path

    def check(self, repo_root: Path) -> Iterator[Finding]:
        campaign = self._load(repo_root, self.campaign_path)
        cache = self._load(repo_root, self.cache_path)
        if campaign is None or cache is None:
            return
        identity_fn = _find_func(
            campaign, "_trial_identity", _find_class(campaign, "Campaign")
        )
        key_fn = _find_func(cache, "key", _find_class(cache, "TrialCache"))
        identity_dict = _returned_dict(campaign, identity_fn)
        payload_dict = _returned_dict(cache, key_fn)
        collisions = sorted(
            _dict_literal_keys(identity_dict) & _dict_literal_keys(payload_dict)
        )
        if collisions:
            yield self.finding(
                cache,
                payload_dict.lineno,
                f"cache identity fields {collisions} collide with "
                "TrialCache.key() payload fields; the **identity unpack "
                "would overwrite them and alias distinct trials",
            )


class TrialSerializationContract(ProjectRule):
    """RPR103: every TrialResult field round-trips through trial_to_dict."""

    rule_id = "RPR103"
    title = "trial serialization drift"
    rationale = (
        "a TrialResult field the serializer drops is lost by every journal "
        "resume and cache replay, so the replayed table diverges from the "
        "live one"
    )

    def __init__(
        self,
        results_path: str = "src/repro/core/results.py",
        serialization_path: str = "src/repro/core/serialization.py",
    ) -> None:
        self.results_path = results_path
        self.serialization_path = serialization_path

    def check(self, repo_root: Path) -> Iterator[Finding]:
        results = self._load(repo_root, self.results_path)
        serialization = self._load(repo_root, self.serialization_path)
        if results is None or serialization is None:
            return
        cls = _find_class(results, "TrialResult")
        from_dict = _find_func(serialization, "trial_from_dict")
        returned = _returned_dict(serialization, _find_func(serialization, "trial_to_dict"))
        written = _dict_literal_keys(returned)
        dropped = sorted(_dataclass_fields(cls) - written)
        if dropped:
            yield self.finding(
                serialization,
                returned.lineno,
                f"TrialResult fields {dropped} ({self.results_path}) are "
                "never written by trial_to_dict — journal resumes and cache "
                "replays would silently lose them",
            )
        phantom = sorted(_consumed_keys(from_dict, {"row"}) - written)
        if phantom:
            yield self.finding(
                serialization,
                from_dict.lineno,
                f"trial_from_dict reads keys {phantom} that trial_to_dict "
                "never writes — they can only ever take their defaults",
            )


class BenchSchemaContract(ProjectRule):
    """RPR104: the bench gate only reads fields the recorder writes, at
    the top of a recording (``payload``) and in each workload entry
    (``results[name]``, read back as ``base``/``cand``)."""

    rule_id = "RPR104"
    title = "benchmark recording schema drift"
    rationale = (
        "compare() crashing on a missing field turns every CI bench gate "
        "red for the wrong reason; the schema must stay two-sided"
    )

    def __init__(self, record_path: str = "benchmarks/record.py") -> None:
        self.record_path = record_path

    def check(self, repo_root: Path) -> Iterator[Finding]:
        module = self._load(repo_root, self.record_path)
        if module is None:
            return
        record_fn = _find_func(module, "record")
        compare_fn = _find_func(module, "compare")
        payload: ast.Dict | None = None
        entry: ast.Dict | None = None
        for node in ast.walk(record_fn):
            if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)):
                continue
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "payload":
                    payload = node.value
                elif (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "results"
                ):
                    entry = node.value
        for written, receivers, what, anchor in (
            (payload, {"baseline", "candidate"}, "recording fields", "payload = {...}"),
            (entry, {"base", "cand"}, "workload fields", "results[name] = {...}"),
        ):
            if written is None:
                raise _MissingAnchor(module, f"the dict literal record() assigns as {anchor}")
            read = _consumed_keys(compare_fn, receivers)
            phantom = sorted(read - _dict_literal_keys(written))
            if phantom:
                yield self.finding(
                    module,
                    compare_fn.lineno,
                    f"compare() reads {what} {phantom} that record() never "
                    "writes — the gate would fail on every fresh recording",
                )


class CliWiringContract(ProjectRule):
    """RPR105: every argparse option is consumed by a handler."""

    rule_id = "RPR105"
    title = "unwired CLI argument"
    rationale = (
        "a flag that parses but is never read silently ignores the user's "
        "reproducibility intent (seeds, plans, caches)"
    )

    def __init__(self, cli_path: str = "src/repro/cli.py") -> None:
        self.cli_path = cli_path

    def check(self, repo_root: Path) -> Iterator[Finding]:
        module = self._load(repo_root, self.cli_path)
        if module is None:
            return
        consumed = {
            node.attr
            for node in ast.walk(module.tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "args"
        }
        for call in ast.walk(module.tree):
            if not isinstance(call, ast.Call) or not isinstance(
                call.func, ast.Attribute
            ):
                continue
            if call.func.attr not in ("add_argument", "add_subparsers"):
                continue
            dest = self._dest(call, is_subparsers=call.func.attr == "add_subparsers")
            if dest is not None and dest not in consumed:
                yield self.finding(
                    module,
                    call.lineno,
                    f"CLI argument {dest!r} is declared here but no handler "
                    f"ever reads args.{dest}",
                )

    @staticmethod
    def _dest(call: ast.Call, is_subparsers: bool = False) -> str | None:
        for kw in call.keywords:
            if kw.arg == "dest" and isinstance(kw.value, ast.Constant):
                return str(kw.value.value)
        if is_subparsers:
            return None  # no dest kwarg -> argparse discards the name
        option: str | None = None
        for arg in call.args:
            if not (isinstance(arg, ast.Constant) and isinstance(arg.value, str)):
                continue
            name = arg.value
            if name.startswith("--"):
                option = name[2:].replace("-", "_")
                break
            if not name.startswith("-"):
                option = name.replace("-", "_")
                break
        return option


class SpaceSpecContract(ProjectRule):
    """RPR106: the paper space and the case study consume each other."""

    rule_id = "RPR106"
    title = "parameter space / case study drift"
    rationale = (
        "a space parameter the case study never reads varies trials "
        "without varying results (poisoning cache keys and analysis); a "
        "consumed key missing from the space crashes every campaign"
    )

    def __init__(self, table1_path: str = "src/repro/paper/table1.py") -> None:
        self.table1_path = table1_path

    def check(self, repo_root: Path) -> Iterator[Finding]:
        module = self._load(repo_root, self.table1_path)
        if module is None:
            return
        space_fn = _find_func(module, "airdrop_parameter_space")
        declared: dict[str, int] = {}
        for node in ast.walk(space_fn):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("Categorical", "Integer", "Float", "Boolean")
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                declared[node.args[0].value] = node.lineno
        consumed = _consumed_keys(module.tree, {"config", "values"})
        for name in sorted(set(declared) - consumed):
            yield self.finding(
                module,
                declared[name],
                f"space parameter {name!r} is never consumed by the case "
                "study — it varies trials without varying their results",
            )
        space_line = space_fn.lineno
        for name in sorted(consumed - set(declared)):
            yield self.finding(
                module,
                space_line,
                f"the case study reads config[{name!r}] but the parameter "
                "space never declares it — every campaign would crash on "
                "validation",
            )


def default_project_rules() -> list[ProjectRule]:
    """One instance of every contract rule, in rule-id order."""
    return [
        CacheKeyCollisionContract(),
        TrialSerializationContract(),
        BenchSchemaContract(),
        CliWiringContract(),
        SpaceSpecContract(),
    ]
