"""Documentation consistency checks.

Three guarantees:

* docs/observability.md is the complete metric catalog — every metric
  the code can emit (found statically in registry calls, and
  dynamically by running a managed workload) must appear there;
* no doc references a file that does not exist (dead-link check over
  docs/*.md and README.md);
* every keyword a doc passes to a construction entry point
  (``PowerManagedCluster(n_nodes=...)`` and its kin) is a parameter of
  that entry point, so deleting an option cannot leave a stale example.
"""

import inspect
import re
from pathlib import Path

import pytest

from repro import Jobspec, ManagerConfig, PowerManagedCluster
from repro.federation import ClusterSpec, SiteConfig
from repro.flux.instance import FluxInstance
from repro.manager.module import attach_manager
from repro.monitor.module import attach_monitor
from repro.serving.loadgen import LoadProfile
from repro.tenancy.admission import AdmissionConfig
from repro.tenancy.coordinator import TenancyConfig

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
OBSERVABILITY_DOC = REPO / "docs" / "observability.md"

# A metric registration is a .counter("...") / .gauge("...") /
# .histogram("...") call; the name literal may sit on the next line.
METRIC_CALL_RE = re.compile(
    r"\.(?:counter|gauge|histogram)\(\s*\n?\s*\"([a-z0-9_]+)\"", re.MULTILINE
)


def emitted_metric_names():
    names = set()
    for path in SRC.rglob("*.py"):
        names.update(METRIC_CALL_RE.findall(path.read_text()))
    return names


def test_static_scan_finds_the_instrumentation():
    # Guard against the regex rotting: the scan must keep seeing the
    # known hot-path metrics.
    names = emitted_metric_names()
    assert "flux_rpc_requests_total" in names
    assert "monitor_samples_total" in names
    assert "fpp_control_ticks_total" in names
    assert "policy_guard_clamps_total" in names
    assert "policy_checkpoint_windows_total" in names
    assert len(names) >= 30


def test_every_emitted_metric_is_documented():
    doc = OBSERVABILITY_DOC.read_text()
    undocumented = {n for n in emitted_metric_names() if f"`{n}`" not in doc}
    assert not undocumented, (
        f"metrics emitted by src/ but missing from docs/observability.md: "
        f"{sorted(undocumented)}"
    )


def test_every_runtime_metric_is_documented():
    cluster = PowerManagedCluster(
        platform="lassen",
        n_nodes=4,
        seed=3,
        manager_config=ManagerConfig(
            global_cap_w=4800.0, policy="fpp", static_node_cap_w=1950.0
        ),
    )
    cluster.submit(Jobspec(app="gemm", nnodes=4))
    cluster.run_until_complete()
    doc = OBSERVABILITY_DOC.read_text()
    missing = {
        n for n in cluster.telemetry_hub.metrics.names() if f"`{n}`" not in doc
    }
    assert not missing, f"runtime metrics missing from docs: {sorted(missing)}"


def test_every_policy_zoo_runtime_metric_is_documented():
    # The zoo policies emit their own `policy_*` family (guard clamps,
    # damper/slowdown exits, control updates, checkpoint windows); a
    # checkpointing HACC run under the wrapped checkpoint policy lights
    # up all of them at once.
    cluster = PowerManagedCluster(
        platform="lassen",
        n_nodes=4,
        seed=3,
        manager_config=ManagerConfig(
            global_cap_w=4800.0, policy="checkpoint", static_node_cap_w=1950.0
        ),
    )
    cluster.submit(Jobspec(app="hacc", nnodes=4, params={"work_scale": 1.5}))
    cluster.run_until_complete()
    emitted = cluster.telemetry_hub.metrics.names()
    assert any(n.startswith("policy_") for n in emitted)
    doc = OBSERVABILITY_DOC.read_text()
    missing = {n for n in emitted if f"`{n}`" not in doc}
    assert not missing, f"runtime metrics missing from docs: {sorted(missing)}"


def test_every_lifecycle_runtime_metric_is_documented():
    # A rank crash + revival and an operator maintenance round-trip
    # drive every `lifecycle_*` edge the managed stack emits.
    from repro.faults import FaultEvent, FaultPlan

    cluster = PowerManagedCluster(
        platform="lassen",
        n_nodes=4,
        seed=3,
        manager_config=ManagerConfig(
            global_cap_w=4800.0, policy="proportional", static_node_cap_w=1950.0
        ),
        fault_plan=FaultPlan(
            [FaultEvent(t=5.0, kind="crash", rank=2, duration_s=10.0)]
        ),
    )
    cluster.submit(Jobspec(app="gemm", nnodes=4, params={"work_scale": 2.0}))
    cluster.run_for(20.0)
    root = cluster.manager.cluster
    root.begin_maintenance(3)
    root.end_maintenance(3)
    cluster.run_until_complete()
    emitted = cluster.telemetry_hub.metrics.names()
    assert "lifecycle_transitions_total" in emitted
    assert "lifecycle_entities" in emitted
    doc = OBSERVABILITY_DOC.read_text()
    missing = {n for n in emitted if f"`{n}`" not in doc}
    assert not missing, f"runtime metrics missing from docs: {sorted(missing)}"


def test_every_serving_runtime_metric_is_documented():
    # A short loadtest plus one failing request lights up the whole
    # `serving_*` family (request/op counters, the error counter, the
    # latency histogram, snapshot cache refreshes).
    from repro.serving import (
        ClusterRegistry,
        LoadProfile,
        PowerService,
        SimDriver,
        run_loadtest,
    )

    cluster = PowerManagedCluster(
        platform="lassen",
        n_nodes=4,
        seed=3,
        manager_config=ManagerConfig(
            global_cap_w=4800.0, policy="proportional", static_node_cap_w=1950.0
        ),
    )
    registry = ClusterRegistry.from_cluster(cluster, name="default")
    service = PowerService(registry)
    run_loadtest(
        1,
        LoadProfile(clients=5, requests_per_client=2, warmup_jobs=1,
                    advance_every=5),
        service,
        SimDriver(registry),
    )
    service.handle("GET", "/v1/clusters/nowhere")
    emitted = cluster.telemetry_hub.metrics.names()
    for name in (
        "serving_requests_total",
        "serving_errors_total",
        "serving_request_latency_s",
        "serving_snapshot_refreshes_total",
    ):
        assert name in emitted, name
    doc = OBSERVABILITY_DOC.read_text()
    missing = {n for n in emitted if f"`{n}`" not in doc}
    assert not missing, f"runtime metrics missing from docs: {sorted(missing)}"


# ----------------------------------------------------------------------
# Dead links
# ----------------------------------------------------------------------
MD_LINK_RE = re.compile(r"\]\(([^)#]+?)(?:#[^)]*)?\)")
# Bare file mentions in prose/backticks: docs/foo.md, EXPERIMENTS.md,
# examples/bar.py, src/repro/... — the repo's dominant reference style.
BARE_REF_RE = re.compile(
    r"\b((?:docs|examples|src|tests|benchmarks)/[\w./-]+\.(?:md|py)|[A-Z]+\.md)\b"
)


def doc_files():
    return sorted((REPO / "docs").glob("*.md")) + [REPO / "README.md"]


@pytest.mark.parametrize("doc", doc_files(), ids=lambda p: p.name)
def test_no_dead_file_references(doc):
    text = doc.read_text()
    refs = set()
    for m in MD_LINK_RE.finditer(text):
        target = m.group(1).strip()
        if "://" in target or target.startswith("mailto:"):
            continue
        refs.add(target)
    refs.update(BARE_REF_RE.findall(text))
    dead = [
        ref
        for ref in sorted(refs)
        if not (REPO / ref).exists() and not (doc.parent / ref).exists()
    ]
    assert not dead, f"{doc.name} references missing files: {dead}"


# ----------------------------------------------------------------------
# Keywords in documented calls
# ----------------------------------------------------------------------
#: ``name -> parameter names`` of every construction entry point whose
#: documented calls are checked.
ENTRY_POINTS = {
    f.__name__: set(inspect.signature(f).parameters)
    for f in (
        PowerManagedCluster, FluxInstance, ManagerConfig,
        attach_monitor, attach_manager,
        ClusterSpec, SiteConfig, TenancyConfig, AdmissionConfig,
        LoadProfile,
    )
}


# One token at a time: a quoted string or a comment (skipped), a call
# opening ``name(``, a bare ``(`` or ``)``, a ``kw=`` (not ``==``), or a
# blank line, which ends a call a doc left unclosed in prose.
_CALL_TOKEN_RE = re.compile(
    r"""(?P<skip>"[^"\n]*"|'[^'\n]*'|\#[^\n]*)"""
    r"|(?P<call>\b(?P<name>[A-Za-z_]\w*)\()"
    r"|(?P<open>\()|(?P<close>\))"
    r"|(?P<kw>\b(?P<kw_name>[A-Za-z_]\w*)\s*=(?!=))"
    r"|(?P<blank>\n[ \t]*\n)"
)
_ENTRY_CALL_RE = re.compile(r"\b(" + "|".join(sorted(ENTRY_POINTS)) + r")\(")


def documented_keywords(text):
    """``(line, name, kw)`` for every ``kw=`` passed to a call of an
    entry point in ``text``; a keyword belongs to the innermost open
    call, and keywords of any other call are ignored."""
    found = []
    pos = 0
    while True:
        start = _ENTRY_CALL_RE.search(text, pos)
        if start is None:
            return found
        stack = [start.group(1)]
        pos = start.end()
        while stack:
            tok = _CALL_TOKEN_RE.search(text, pos)
            if tok is None or tok.lastgroup == "blank":
                pos = len(text) if tok is None else tok.end()
                break
            pos = tok.end()
            kind = tok.lastgroup
            if kind == "call":
                name = tok.group("name")
                stack.append(name if name in ENTRY_POINTS else None)
            elif kind == "open":
                stack.append(None)
            elif kind == "close":
                stack.pop()
            elif kind == "kw" and stack[-1] is not None:
                line = text.count("\n", 0, tok.start()) + 1
                found.append((line, stack[-1], tok.group("kw_name")))


def signature_doc_files():
    return [REPO / "README.md", REPO / "DESIGN.md", REPO / "EXPERIMENTS.md"] + sorted(
        (REPO / "docs").glob("*.md")
    )


def stale_keywords(text):
    return [
        f"{line}: {name}({kw}=...)"
        for line, name, kw in documented_keywords(text)
        if kw not in ENTRY_POINTS[name]
    ]


def test_documented_call_keywords_exist():
    seen = 0
    stale = []
    for doc in signature_doc_files():
        text = doc.read_text()
        seen += len(documented_keywords(text))
        stale += [f"{doc.name}:{hit}" for hit in stale_keywords(text)]
    assert seen >= 20, "the keyword scan no longer finds the documented calls"
    assert not stale, f"docs pass keywords their callee does not take: {stale}"


def test_stale_documented_keyword_is_caught():
    doc = """
```python
cluster = PowerManagedCluster(
    n_nodes=4,  # a comment with fake=1
    manager_config=ManagerConfig(global_cap_w=4800.0, noise_w=1.0),
    hostname_prefix="a=b", app_dt=0.5,
)
```
"""
    assert stale_keywords(doc) == [
        "5: ManagerConfig(noise_w=...)",
        "6: PowerManagedCluster(app_dt=...)",
    ]
