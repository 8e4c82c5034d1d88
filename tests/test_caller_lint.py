"""Caller lint: every public definition under ``src/`` has a caller.

A name-based AST scan. The definitions are the public module-level
functions and classes, the public methods of module-level classes, and
the module-level ALL_CAPS constants of every module under ``src/``. A
definition counts as called when its name appears (as a name or an
attribute) anywhere in ``src/``, ``benchmarks/``, ``hostbench/``,
``examples/`` or ``tools/`` outside its own definition. ``tests/`` are
not callers: a helper only a test calls is a test-only shortcut.

The scan over-accepts on purpose (a method name also resolves on an
unrelated class), so what it reports is caller-less for certain. Each
definition it reports either goes or sits in :data:`ALLOWED` with a
reason whose evidence the lint checks (docs/testing.md has the
categories).
"""

import ast
import re
from pathlib import Path
from typing import Dict, List, Tuple

REPO = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "benchmarks", "hostbench", "examples", "tools")
CONSTANT_RE = re.compile(r"^[A-Z][A-Z0-9_]*$")

#: ``module:qualname -> "<category> <evidence>: <why>"``. Categories:
#: ``docs <file>`` (the file names it in code), ``oracle <test file>``
#: (a test uses it as the reference a production path is checked
#: against), ``deferred <test file>`` (a test-only helper outside the
#: areas pruned so far; ROADMAP.md tracks it).
ALLOWED: Dict[str, str] = {
    "repro.analysis.chrome_trace:events_from_chrome": (
        "docs docs/observability.md: reads a `repro observe --chrome` dump back"
    ),
    "repro.analysis.energy:integrate_energy_j": (
        "deferred tests/test_analysis.py: analysis helper with its own unit tests"
    ),
    "repro.analysis.plotting:sparkline": (
        "deferred tests/test_analysis_plotting.py: analysis helper with its own unit tests"
    ),
    "repro.analysis.stats:stdev": (
        "deferred tests/test_analysis.py: analysis helper with its own unit tests"
    ),
    "repro.apps.base:AppProfile.mean_node_demand_w": (
        "oracle tests/test_apps_power_consistency.py: predicts the mean power "
        "a simulated run must measure"
    ),
    "repro.apps.registry:register_profile": (
        "docs docs/architecture.md: extension hook for out-of-package apps"
    ),
    "repro.apps.registry:unregister_profile": (
        "docs docs/architecture.md: undoes register_profile"
    ),
    "repro.experiments.calibration:UNCONSTRAINED_BOUND_W": (
        "oracle tests/test_integration_paper_claims.py: the paper's "
        "unconstrained power bound"
    ),
    "repro.federation.site:FederatedSite.down_clusters": (
        "docs docs/lifecycle.md: operator query of the site's liveness record"
    ),
    "repro.flux.jobmanager:JobManager.eventlog": (
        "oracle tests/test_stateful_jobmanager.py: the event log a job's "
        "state history is checked against"
    ),
    "repro.flux.overlay:TBON.graph": (
        "oracle tests/test_flux_overlay.py: networkx view the tree shape "
        "is checked against"
    ),
    "repro.flux.user_instance:spawn_user_instance": (
        "docs docs/usage.md: entry point of nested user instances"
    ),
    "repro.lifecycle.snapshot:snapshot_site": (
        "docs docs/lifecycle.md: site crash-recovery API"
    ),
    "repro.lifecycle.snapshot:restore_site": (
        "docs docs/lifecycle.md: site crash-recovery API"
    ),
    "repro.lifecycle.snapshot:wipe_site_state": (
        "docs docs/lifecycle.md: site crash-recovery API"
    ),
    "repro.manager.cluster_manager:ClusterLevelManager.begin_maintenance": (
        "docs docs/lifecycle.md: operator drain control"
    ),
    "repro.manager.cluster_manager:ClusterLevelManager.end_maintenance": (
        "docs docs/lifecycle.md: operator drain control"
    ),
    "repro.manager.cluster_manager:ClusterLevelManager.retire_node": (
        "docs docs/lifecycle.md: operator drain control"
    ),
    "repro.manager.policies.proportional:split_budget": (
        "oracle tests/test_tenancy_fairshare_properties.py: unit weights must "
        "reduce the weighted split to it"
    ),
    "repro.serving.client:ServingClient": (
        "docs docs/serving.md: the typed in-process API client"
    ),
    "repro.serving.client:ServingClient.health": (
        "docs docs/serving.md: client call for an API route"
    ),
    "repro.serving.client:ServingClient.cluster_power": (
        "docs docs/usage.md: client call for an API route"
    ),
    "repro.serving.client:ServingClient.list_jobs": (
        "docs docs/serving.md: client call for an API route"
    ),
    "repro.serving.client:ServingClient.cancel_job": (
        "docs docs/serving.md: client call for an API route"
    ),
    "repro.serving.client:ServingClient.batch": (
        "docs docs/serving.md: client call for an API route"
    ),
    "repro.serving.client:ServingClient.run_and_wait": (
        "docs docs/serving.md: submit and wait in one call"
    ),
    "repro.serving.loadgen:run_loadtest_http": (
        "docs docs/serving.md: the socket-mode loadtest"
    ),
    "repro.serving.registry:ClusterRegistry.from_site": (
        "docs docs/serving.md: serve a federated site"
    ),
    "repro.serving.service:DETAILED_JOB_FIELDS": (
        "oracle tests/test_serving_properties.py: the field set a detailed "
        "job view must have"
    ),
    "repro.variorum.api:cap_each_gpu_power_limit": (
        "docs README.md: one of Variorum's public capping calls"
    ),
    "repro.variorum.backends:register_backend": (
        "docs docs/architecture.md: extension hook for out-of-package backends"
    ),
}

REASON_RE = re.compile(r"^(docs|oracle|deferred) (\S+): \S.*$")

Definition = Tuple[str, str, Path, int, int]  # key, name, file, first, last line


def _module_name(path: Path, root: Path) -> str:
    parts = list(path.relative_to(root).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _public(name: str) -> bool:
    return not name.startswith("_")


def definitions(src_root: Path) -> List[Definition]:
    """Every public definition under ``src_root``, with its line span."""
    found: List[Definition] = []
    for path in sorted(src_root.rglob("*.py")):
        module = _module_name(path, src_root)
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if _public(node.name):
                    found.append((f"{module}:{node.name}", node.name, path,
                                  node.lineno, node.end_lineno))
                if isinstance(node, ast.ClassDef):
                    for sub in node.body:
                        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                                            ast.ClassDef)) and _public(sub.name):
                            found.append((f"{module}:{node.name}.{sub.name}",
                                          sub.name, path, sub.lineno,
                                          sub.end_lineno))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name) and CONSTANT_RE.match(target.id):
                        found.append((f"{module}:{target.id}", target.id, path,
                                      node.lineno, node.end_lineno))
    return found


def references(roots) -> Dict[str, List[Tuple[Path, int]]]:
    """``name -> [(file, line)]`` of every name and attribute use."""
    refs: Dict[str, List[Tuple[Path, int]]] = {}
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                refs.setdefault(name, []).append((path, node.lineno))
    return refs


def uncalled(src_root: Path, caller_roots) -> List[str]:
    """Keys of the definitions under ``src_root`` with no reference in
    ``caller_roots`` outside their own definition."""
    refs = references(caller_roots)
    return sorted(
        key
        for key, name, path, first, last in definitions(src_root)
        if not any(
            not (p == path and first <= line <= last)
            for p, line in refs.get(name, ())
        )
    )


def _repo_uncalled() -> List[str]:
    return uncalled(REPO / "src", [REPO / d for d in CALLER_DIRS if (REPO / d).is_dir()])


# ----------------------------------------------------------------------
# The lint
# ----------------------------------------------------------------------
def test_every_public_definition_has_a_caller():
    missing = [key for key in _repo_uncalled() if key not in ALLOWED]
    assert not missing, (
        "public definitions under src/ that nothing outside tests/ uses; "
        f"delete them or allow-list them with a reason: {missing}"
    )


def test_allow_list_names_only_caller_less_definitions():
    # An entry whose definition is gone, or that gained a caller, is
    # stale and must leave the list.
    stale = sorted(set(ALLOWED) - set(_repo_uncalled()))
    assert not stale, f"stale allow-list entries: {stale}"


def _code_text(markdown: str) -> str:
    """The fenced blocks and inline code spans of a markdown file."""
    blocks = re.findall(r"```.*?```", markdown, flags=re.S)
    rest = re.sub(r"```.*?```", "", markdown, flags=re.S)
    return "\n".join(blocks + re.findall(r"`[^`]+`", rest))


def _uses_name(path: Path, name: str) -> bool:
    return any(
        (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.Attribute) and node.attr == name)
        for node in ast.walk(ast.parse(path.read_text()))
    )


def test_every_allow_list_reason_holds():
    wrong = []
    for key, reason in sorted(ALLOWED.items()):
        m = REASON_RE.match(reason)
        if m is None:
            wrong.append(f"{key}: malformed reason {reason!r}")
            continue
        category, evidence = m.groups()
        name = key.rsplit(":", 1)[1].rsplit(".", 1)[-1]
        path = REPO / evidence
        if not path.is_file():
            wrong.append(f"{key}: {evidence} does not exist")
        elif category == "docs":
            pattern = rf"(?<![\w-]){re.escape(name)}(?![\w-])"
            if not re.search(pattern, _code_text(path.read_text())):
                wrong.append(f"{key}: {evidence} does not name {name} in code")
        elif not evidence.startswith("tests/") or not _uses_name(path, name):
            wrong.append(f"{key}: {evidence} is not a test that uses {name}")
    assert not wrong, wrong


# ----------------------------------------------------------------------
# The lint fires
# ----------------------------------------------------------------------
def test_lint_reports_a_planted_caller_less_function(tmp_path):
    src = tmp_path / "src" / "pkg"
    src.mkdir(parents=True)
    (src / "__init__.py").write_text("")
    (src / "mod.py").write_text(
        "LIMIT = 3\n"
        "UNUSED_LIMIT = 4\n"
        "\n"
        "def used():\n"
        "    return LIMIT\n"
        "\n"
        "def planted(n):\n"
        "    return planted(n - 1) if n else 0  # recursion is no caller\n"
        "\n"
        "def _private():\n"
        "    return 0\n"
        "\n"
        "class Box:\n"
        "    def open(self):\n"
        "        return used()\n"
        "\n"
        "    def shut(self):\n"
        "        return 0\n"
    )
    callers = tmp_path / "examples"
    callers.mkdir()
    (callers / "demo.py").write_text(
        "from pkg.mod import Box\n"
        "Box().open()\n"
        "import pkg.mod as m\n"
        "m.Box.shut  # an attribute reference counts\n"
    )
    assert uncalled(tmp_path / "src", [tmp_path / "src", callers]) == [
        "pkg.mod:UNUSED_LIMIT",
        "pkg.mod:planted",
    ]


def test_reason_check_rejects_an_unproven_doc_reason(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text("Prose mentions keep-alive and spawn_user_instance.\n")
    assert not re.search(
        r"(?<![\w-])alive(?![\w-])", _code_text(doc.read_text())
    )
    assert not re.search(
        r"(?<![\w-])spawn_user_instance(?![\w-])", _code_text(doc.read_text())
    )
