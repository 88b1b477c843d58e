"""Whole-program analysis tests: project model, concurrency rules, taint.

Four layers:

* fixtures — every concurrency rule RPR201–RPR205 must fire on its
  known-bad snippet with the expected count and stay silent on the
  matching good twin;
* taint — the interprocedural RPR001/RPR002 rules must catch the
  cross-file flow in ``lint_fixtures/taintpkg`` that the per-file rules
  provably miss (regression-tested in both directions);
* model — unit tests for the symbol table, call graph, Condition
  aliasing and the may/must lock fixpoints;
* surface — SARIF 2.1.0 output validates against a schema, the
  baseline ratchet round-trips, and ``--rules`` filtering reaches every
  rule family (per-file, model and contract alike).
"""

from __future__ import annotations

import ast
import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    LintEngine,
    default_model_rules,
    default_project_rules,
    rule_table,
    sarif_payload,
)
from repro.analysis.baseline import (
    baseline_payload,
    diff_against_baseline,
    load_baseline,
    write_baseline,
)
from repro.analysis.engine import FileContext
from repro.analysis.model import ProjectModel
from repro.analysis.report import report_payload
from repro.cli import main

FIXTURES = Path(__file__).parent / "lint_fixtures"
CONCURRENCY = FIXTURES / "concurrency"
TAINTPKG = FIXTURES / "taintpkg"
INITPKG = FIXTURES / "initpkg"
CONTRACTS_BAD = FIXTURES / "contracts_bad"


# -------------------------------------------------------- RPR2xx fixtures
RPR2XX_EXPECTATIONS = [
    ("rpr201_bad.py", "RPR201", 2),
    ("rpr202_bad.py", "RPR202", 1),
    ("rpr203_bad.py", "RPR203", 8),
    ("rpr204_bad.py", "RPR204", 2),
    ("rpr205_bad.py", "RPR205", 2),
]


@pytest.mark.parametrize("name, rule_id, n_expected", RPR2XX_EXPECTATIONS)
def test_concurrency_rule_fires_on_bad_fixture(name, rule_id, n_expected):
    report = LintEngine().run([CONCURRENCY / name])
    active = report.active()
    assert [f.rule for f in active] == [rule_id] * n_expected, [
        (f.rule, f.line, f.message) for f in active
    ]
    for finding in active:
        assert finding.line > 0 and finding.path.endswith(name)


@pytest.mark.parametrize(
    "name",
    [
        "rpr201_good.py",
        "rpr202_good.py",
        "rpr203_good.py",
        "rpr204_good.py",
        "rpr205_good.py",
    ],
)
def test_concurrency_rule_silent_on_good_twin(name):
    report = LintEngine().run([CONCURRENCY / name])
    assert report.active() == [], [
        (f.rule, f.line, f.message) for f in report.active()
    ]


def test_rpr201_finding_carries_spawn_to_mutation_trace():
    report = LintEngine().run([CONCURRENCY / "rpr201_bad.py"])
    traced = [f for f in report.active() if f.trace]
    assert traced, "RPR201 findings should carry a call trace"
    for finding in traced:
        assert any("_drain" in hop for hop in finding.trace), finding.trace


def test_rpr202_message_spells_out_the_cycle():
    report = LintEngine().run([CONCURRENCY / "rpr202_bad.py"])
    (finding,) = report.active()
    assert "lock-order cycle" in finding.message
    assert finding.message.count("->") >= 2  # A -> B -> A


def test_rule_table_covers_concurrency_rules():
    ids = {row[0] for row in rule_table()}
    assert {"RPR201", "RPR202", "RPR203", "RPR204", "RPR205"} <= ids
    for rule in default_model_rules():
        assert rule.rule_id in ids


# ------------------------------------------------- interprocedural taint
def test_per_file_rules_provably_miss_the_cross_file_taint():
    report = LintEngine(model_rules=[]).run([TAINTPKG])
    assert report.active() == [], [
        (f.rule, f.path, f.message) for f in report.active()
    ]


def test_taint_rules_catch_the_cross_file_flow_with_traces():
    report = LintEngine().run([TAINTPKG])
    by_rule = {f.rule: f for f in report.active()}
    assert sorted(by_rule) == ["RPR001", "RPR002"]
    assert by_rule["RPR001"].path.endswith("entropy.py")
    assert by_rule["RPR002"].path.endswith("clock.py")
    for finding in by_rule.values():
        # sink -> intermediate hop -> source, through two modules
        assert len(finding.trace) == 3, finding.trace
        assert finding.trace[0].endswith("cache_key")
        assert "digest sink" in finding.message


def test_package_init_anchors_relative_imports_at_the_package():
    init = INITPKG / "keys" / "__init__.py"
    source = init.read_text()
    ctx = FileContext(path=str(init), source=source, tree=ast.parse(source), parts=init.parts)
    assert ctx.module == "initpkg.keys"
    assert ctx.imports.resolve("jitter") == "initpkg.keys.entropy.jitter"
    (finding,) = LintEngine().run([INITPKG]).active()
    assert finding.rule == "RPR001"
    assert finding.path.endswith("entropy.py")
    assert finding.trace == ("initpkg.keys.cache_key", "initpkg.keys.entropy.jitter")


def test_json_payload_carries_the_trace():
    report = LintEngine().run([TAINTPKG])
    payload = report_payload(report)
    traces = [f["trace"] for f in payload["findings"] if f["trace"]]
    assert len(traces) == 2
    for trace in traces:
        assert isinstance(trace, list) and len(trace) == 3


TWICE_KEYS = """
import hashlib


def _part(value):
    return repr(value)


def digest(a, b):
    return hashlib.sha1((_part(a) + _part(b)).encode()).hexdigest()
"""


def test_walks_survive_a_helper_called_twice(tmp_path):
    # one callee at two call sites: the walks must order callees, never
    # the CallSite records, which have no ordering
    model = build_model(tmp_path, {"twice/__init__.py": "", "twice/keys.py": TWICE_KEYS})
    assert model.call_path("twice.keys.digest", "twice.keys._part") == [
        "twice.keys.digest",
        "twice.keys._part",
    ]
    report = LintEngine().run([tmp_path / "twice"])
    assert report.active() == []


# ------------------------------------------------------------ model units
def build_model(tmp_path: Path, files: dict[str, str]) -> ProjectModel:
    contexts = []
    for relative, source in files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        source = textwrap.dedent(source)
        path.write_text(source)
        contexts.append(
            FileContext(
                path=str(path),
                source=source,
                tree=ast.parse(source),
                parts=path.parts,
            )
        )
    return ProjectModel.build(contexts)


def test_call_graph_links_cross_module_calls(tmp_path):
    model = build_model(
        tmp_path,
        {
            "alpha.py": """
            def helper():
                return 1
            """,
            "beta.py": """
            from alpha import helper

            def caller():
                return helper()
            """,
        },
    )
    edges = [callee for callee, _ in model.call_graph["beta.caller"]]
    assert edges == ["alpha.helper"]
    assert model.call_path("beta.caller", "alpha.helper") == [
        "beta.caller",
        "alpha.helper",
    ]


def test_condition_aliases_the_lock_it_wraps(tmp_path):
    model = build_model(
        tmp_path,
        {
            "svc.py": """
            import threading

            class Svc:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._cond = threading.Condition(self._lock)
            """,
        },
    )
    klass = model.classes["svc.Svc"]
    assert klass.lock_attrs["_cond"] == klass.lock_attrs["_lock"]


def test_must_entry_locks_survives_locked_helper_recursion(tmp_path):
    # _a_locked and _b_locked call each other; the only lock-free entry
    # is push(), which always holds the lock first — the intersection
    # fixpoint must conclude both helpers run under it.
    model = build_model(
        tmp_path,
        {
            "ring.py": """
            import threading

            class Ring:
                def __init__(self):
                    self._lock = threading.Lock()

                def push(self, item):
                    with self._lock:
                        self._a_locked(item)

                def _a_locked(self, item):
                    self._b_locked(item)

                def _b_locked(self, item):
                    if item:
                        self._a_locked(item - 1)
            """,
        },
    )
    members = [
        "ring.Ring.push",
        "ring.Ring._a_locked",
        "ring.Ring._b_locked",
    ]
    must = model.must_entry_locks(roots=["ring.Ring.push"], members=members)
    assert must["ring.Ring._a_locked"] == frozenset({"ring.Ring._lock"})
    assert must["ring.Ring._b_locked"] == frozenset({"ring.Ring._lock"})
    assert must["ring.Ring.push"] == frozenset()


def test_may_entry_locks_union_over_all_callers(tmp_path):
    model = build_model(
        tmp_path,
        {
            "mix.py": """
            import threading

            class Mix:
                def __init__(self):
                    self._lock = threading.Lock()

                def locked_caller(self):
                    with self._lock:
                        self._sink()

                def free_caller(self):
                    self._sink()

                def _sink(self):
                    pass
            """,
        },
    )
    may = model.may_entry_locks()
    assert may["mix.Mix._sink"] == frozenset({"mix.Mix._lock"})
    assert may["mix.Mix.free_caller"] == frozenset()


def test_thread_spawn_target_resolves_to_entry(tmp_path):
    model = build_model(
        tmp_path,
        {
            "spawner.py": """
            import threading

            class Spawner:
                def start(self):
                    self._t = threading.Thread(target=self._loop, daemon=True)
                    self._t.start()

                def _loop(self):
                    pass
            """,
        },
    )
    assert "spawner.Spawner._loop" in model.thread_entries
    (spawn,) = model.thread_entries["spawner.Spawner._loop"]
    assert spawn.daemon is True and spawn.resolved == "spawner.Spawner._loop"


# ------------------------------------------------------------------ SARIF
#: trimmed from the SARIF 2.1.0 schema — the properties repro emits,
#: with the same required/shape constraints the full schema imposes
SARIF_SCHEMA = {
    "type": "object",
    "required": ["version", "runs"],
    "properties": {
        "version": {"const": "2.1.0"},
        "$schema": {"type": "string"},
        "runs": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["tool", "results"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name", "rules"],
                                "properties": {
                                    "name": {"type": "string"},
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": ["id"],
                                            "properties": {
                                                "id": {
                                                    "type": "string",
                                                    "pattern": "^RPR\\d{3}$",
                                                }
                                            },
                                        },
                                    },
                                },
                            }
                        },
                    },
                    "columnKind": {
                        "enum": ["utf16CodeUnits", "unicodeCodePoints"]
                    },
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["ruleId", "message", "locations"],
                            "properties": {
                                "ruleId": {
                                    "type": "string",
                                    "pattern": "^RPR\\d{3}$",
                                },
                                "ruleIndex": {"type": "integer", "minimum": 0},
                                "level": {
                                    "enum": ["none", "note", "warning", "error"]
                                },
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                    "properties": {"text": {"type": "string"}},
                                },
                                "locations": {
                                    "type": "array",
                                    "minItems": 1,
                                    "items": {
                                        "type": "object",
                                        "required": ["physicalLocation"],
                                        "properties": {
                                            "physicalLocation": {
                                                "type": "object",
                                                "required": [
                                                    "artifactLocation",
                                                    "region",
                                                ],
                                                "properties": {
                                                    "region": {
                                                        "type": "object",
                                                        "required": [
                                                            "startLine"
                                                        ],
                                                        "properties": {
                                                            "startLine": {
                                                                "type": "integer",
                                                                "minimum": 1,
                                                            },
                                                            "startColumn": {
                                                                "type": "integer",
                                                                "minimum": 1,
                                                            },
                                                        },
                                                    }
                                                },
                                            }
                                        },
                                    },
                                },
                                "suppressions": {
                                    "type": "array",
                                    "items": {
                                        "type": "object",
                                        "required": ["kind"],
                                        "properties": {
                                            "kind": {
                                                "enum": [
                                                    "inSource",
                                                    "external",
                                                ]
                                            }
                                        },
                                    },
                                },
                            },
                        },
                    },
                },
            },
        },
    },
}


def test_sarif_validates_against_2_1_0_schema():
    jsonschema = pytest.importorskip("jsonschema")
    report = LintEngine().run([CONCURRENCY, TAINTPKG])
    payload = sarif_payload(report)
    jsonschema.validate(payload, SARIF_SCHEMA)
    run = payload["runs"][0]
    rule_ids = [rule["id"] for rule in run["tool"]["driver"]["rules"]]
    assert rule_ids == sorted(set(rule_ids)), "driver.rules must be unique"
    for result in run["results"]:
        # ruleIndex must point at the matching driver.rules entry
        assert rule_ids[result["ruleIndex"]] == result["ruleId"]


def test_sarif_traced_findings_become_code_flows():
    report = LintEngine().run([TAINTPKG])
    payload = sarif_payload(report)
    flows = [r for r in payload["runs"][0]["results"] if "codeFlows" in r]
    assert len(flows) == 2
    for result in flows:
        locations = result["codeFlows"][0]["threadFlows"][0]["locations"]
        assert len(locations) == 3  # sink -> hop -> source


def test_sarif_suppressed_findings_carry_justification(tmp_path):
    source = (
        "import time\n"
        "t = time.time()  # repro-lint: disable=RPR002 -- span timing only\n"
    )
    scoped = tmp_path / "frameworks"  # inside RPR002's package scope
    scoped.mkdir()
    path = scoped / "suppressed.py"
    path.write_text(source)
    report = LintEngine().run([path])
    payload = sarif_payload(report)
    suppressed = [
        r for r in payload["runs"][0]["results"] if r.get("suppressions")
    ]
    assert suppressed, "suppressed finding should still appear in SARIF"
    (entry,) = suppressed[0]["suppressions"]
    assert entry["kind"] == "inSource"
    assert "span timing" in entry["justification"]


# --------------------------------------------------------------- baseline
def test_baseline_round_trips_and_diffs_clean(tmp_path):
    report = LintEngine().run([CONCURRENCY / "rpr201_bad.py"])
    path = tmp_path / "baseline.json"
    write_baseline(report, path)
    allowed = load_baseline(path)
    assert sum(allowed.values()) == len(report.active())
    assert diff_against_baseline(report, allowed) == []


def test_baseline_identity_ignores_line_numbers(tmp_path):
    # the ratchet keys on (rule, path, message), not line numbers: moving
    # a known finding down the file must not count as new
    original = (CONCURRENCY / "rpr204_bad.py").read_text()
    target = tmp_path / "rpr204_shift.py"
    target.write_text(original)
    path = tmp_path / "baseline.json"
    write_baseline(LintEngine().run([target]), path)
    target.write_text("# a comment pushing every line down\n" + original)
    shifted = LintEngine().run([target])
    assert shifted.active(), "fixture must still fire after the shift"
    assert diff_against_baseline(shifted, load_baseline(path)) == []


def test_baseline_flags_only_genuinely_new_findings(tmp_path):
    known = LintEngine().run([CONCURRENCY / "rpr204_bad.py"])
    path = tmp_path / "baseline.json"
    write_baseline(known, path)
    wider = LintEngine().run(
        [CONCURRENCY / "rpr204_bad.py", CONCURRENCY / "rpr205_bad.py"]
    )
    new = diff_against_baseline(wider, load_baseline(path))
    assert [f.rule for f in new] == ["RPR205", "RPR205"]
    assert all(f.path.endswith("rpr205_bad.py") for f in new)


def test_baseline_payload_is_stable_ordered(tmp_path):
    report = LintEngine().run([CONCURRENCY])
    payload = baseline_payload(report)
    keys = [(e["rule"], e["path"], e["message"]) for e in payload["entries"]]
    assert keys == sorted(keys)
    assert payload["format_version"] == 1


def test_baseline_rejects_unknown_format_version(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"format_version": 99, "entries": []}))
    with pytest.raises(ValueError):
        load_baseline(path)


def test_committed_repo_baseline_is_empty_and_current():
    repo_root = Path(__file__).resolve().parents[1]
    baseline = repo_root / "lint-baseline.json"
    assert baseline.is_file(), "lint-baseline.json must be committed"
    assert load_baseline(baseline) == {}, (
        "the committed baseline must stay empty: fix or suppress new "
        "findings instead of baselining them"
    )


# -------------------------------------------------------------- CLI surface
def test_cli_rules_filter_silences_model_rules(capsys):
    bad = str(CONCURRENCY / "rpr201_bad.py")
    assert main(["lint", bad, "--no-contracts", "--rules", "RPR202"]) == 0
    assert main(["lint", bad, "--no-contracts", "--rules", "RPR201"]) == 1
    capsys.readouterr()


def test_cli_rules_filter_applies_to_contract_rules(capsys):
    tree = str(CONTRACTS_BAD)
    assert main(["lint", tree, "--rules", "RPR103", "--format", "json"]) == 1
    decoded = json.loads(capsys.readouterr().out)
    rules = {f["rule"] for f in decoded["findings"]}
    assert rules == {"RPR103"}, rules
    assert main(["lint", tree, "--rules", "RPR102", "--format", "json"]) == 1
    decoded = json.loads(capsys.readouterr().out)
    assert {f["rule"] for f in decoded["findings"]} == {"RPR102"}


def test_cli_baseline_ratchet_exit_codes(tmp_path, capsys):
    bad = str(CONCURRENCY / "rpr201_bad.py")
    baseline = str(tmp_path / "baseline.json")
    # ratchet flags without --baseline is a usage error
    assert main(["lint", bad, "--no-contracts", "--fail-on-new"]) == 2
    # --fail-on-new against a missing baseline is a usage error too
    assert main(
        ["lint", bad, "--no-contracts", "--baseline", baseline, "--fail-on-new"]
    ) == 2
    # writing the baseline exits 0 even with active findings
    assert main(
        ["lint", bad, "--no-contracts", "--baseline", baseline,
         "--write-baseline"]
    ) == 0
    # same findings against the fresh baseline: known, not new
    assert main(
        ["lint", bad, "--no-contracts", "--baseline", baseline, "--fail-on-new"]
    ) == 0
    out = capsys.readouterr().out
    assert "2 known finding(s), 0 new" in out


def test_cli_rules_filter_composes_with_fail_on_new(tmp_path, capsys):
    bad = str(CONCURRENCY / "rpr201_bad.py")
    baseline = str(tmp_path / "empty.json")
    # baseline written under a filter that matches nothing is empty
    assert main(
        ["lint", bad, "--no-contracts", "--rules", "RPR202",
         "--baseline", baseline, "--write-baseline"]
    ) == 0
    assert load_baseline(baseline) == {}
    # filtered run against the empty baseline stays green
    assert main(
        ["lint", bad, "--no-contracts", "--rules", "RPR202",
         "--baseline", baseline, "--fail-on-new"]
    ) == 0
    # widening the filter surfaces the RPR201 findings as new
    assert main(
        ["lint", bad, "--no-contracts", "--rules", "RPR201",
         "--baseline", baseline, "--fail-on-new"]
    ) == 1
    assert "NEW" in capsys.readouterr().out


def test_cli_sarif_artifact_and_format(tmp_path, capsys):
    bad = str(CONCURRENCY / "rpr203_bad.py")
    artifact = tmp_path / "lint.sarif"
    code = main(
        ["lint", bad, "--no-contracts", "--sarif", str(artifact)]
    )
    assert code == 1
    decoded = json.loads(artifact.read_text())
    assert decoded["version"] == "2.1.0"
    assert len(decoded["runs"][0]["results"]) == 8
    capsys.readouterr()
    assert main(["lint", bad, "--no-contracts", "--format", "sarif"]) == 1
    streamed = json.loads(capsys.readouterr().out)
    assert streamed["runs"][0]["results"] == decoded["runs"][0]["results"]
