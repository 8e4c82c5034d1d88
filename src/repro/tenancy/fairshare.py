"""Fairshare-weighted water-fills (pure; property-tested).

These are the proportional split functions
(:func:`repro.manager.policies.proportional.split_budget`,
:func:`repro.federation.rebalance.split_site_budget`) extended with
per-tenant weights: a job belonging to a project with twice the
fairshare weight receives twice the per-node power rate, capped at the
device peak, with the excess water-filling the remaining jobs.

Design rules the Hypothesis suite pins directly
(``tests/test_tenancy_fairshare_properties.py``):

* **conservation** — Σ allocations == min(budget, peak × Σ nodes)
  (to float tolerance), exactly like the unweighted splits;
* **equal-weights parity** — with all weights equal (or ``None``) the
  result is *bitwise identical* to the unweighted reference. Weights
  are normalized by their maximum, so the all-equal case normalizes to
  exactly ``1.0`` (``x / x == 1.0`` in IEEE-754) and multiplying by it
  is the identity — no epsilon, no tolerance;
* **monotonicity** — raising one job's weight never lowers its
  allocation;
* **floor** — every job receives at least its initial weighted
  proportional rate ``budget · wn_j / W`` per node (capped at peak):
  pinning saturated jobs only ever *raises* the remaining pool's rate.

Everything is pure arithmetic over plain dicts. The site-level
weighted split is :func:`~repro.federation.rebalance.split_site_budget`
itself, called with ``weights=``.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional


def normalize_weights(
    weights: Optional[Mapping], keys, default: float = 1.0
) -> Dict:
    """Scale ``weights`` so the largest becomes exactly ``1.0``.

    Missing keys default to ``default``; all weights must be finite and
    > 0 (a zero-weight tenant would starve forever — model that as
    admission rejection, not allocation). Normalizing by the *maximum*
    rather than the sum makes the all-equal case exact: ``w / w`` is
    exactly ``1.0`` for every finite positive float, so the weighted
    water-fill degenerates bitwise to the unweighted one.
    """
    raw = {}
    for k in keys:
        w = float(weights.get(k, default)) if weights is not None else default
        if not w > 0.0 or w != w or w == float("inf"):
            raise ValueError(f"weight for {k!r} must be finite and > 0, got {w}")
        raw[k] = w
    if not raw:
        return {}
    ref = max(raw.values())
    return {k: w / ref for k, w in raw.items()}


def split_budget_weighted(
    budget_w: float,
    job_nodes: Mapping[int, int],
    node_peak_w: float,
    weights: Optional[Mapping[int, float]] = None,
) -> Dict[int, float]:
    """Fairshare-weighted :func:`~repro.manager.policies.proportional.split_budget`.

    ``weights`` maps jobid → fairshare weight (missing → 1.0, ``None``
    → all equal). Each job's target per-node rate is proportional to
    its normalized weight; any job whose rate would exceed the device
    peak is pinned at peak and the surplus re-fills the rest. Returns
    jobid → job power limit (W), conserving
    ``min(budget_w, node_peak_w × Σ nodes)``.

    With equal weights every pin test reduces to the unweighted
    ``active × peak <= budget`` and every rate to ``budget / active``,
    so the result is bitwise identical to ``split_budget`` — the
    property suite asserts ``==``, not ``isclose``.
    """
    if not job_nodes:
        return {}
    jobids = list(job_nodes)
    for j in jobids:
        if job_nodes[j] < 0:
            raise ValueError(f"job {j!r} node count must be >= 0")
    if sum(job_nodes.values()) == 0:
        return {}  # mirrors split_budget: no allocated nodes, no entries
    wn = normalize_weights(weights, jobids)
    alloc: Dict[int, float] = {}
    free = list(jobids)
    remaining = float(budget_w)
    while free:
        # W = Σ wn_j · n_j over free jobs, accumulated left to right in
        # jobid insertion order (the vectorized twin replays this).
        total_wn = 0.0
        for j in free:
            total_wn += wn[j] * job_nodes[j]
        if total_wn <= 0.0:
            for j in free:
                alloc[j] = 0.0
            break
        # Pin test in multiplication form: rate_j = remaining·wn_j/W
        # >= peak  ⇔  peak·W <= remaining·wn_j. With wn_j == 1.0 this
        # is exactly split_budget's ``active · peak <= budget``.
        pinned = [
            j for j in free if node_peak_w * total_wn <= remaining * wn[j]
        ]
        if pinned:
            for j in pinned:
                alloc[j] = node_peak_w * job_nodes[j]
                remaining -= alloc[j]
            pin_set = set(pinned)
            free = [j for j in free if j not in pin_set]
            continue
        for j in free:
            alloc[j] = (remaining * wn[j] / total_wn) * job_nodes[j]
        break
    return {j: alloc.get(j, 0.0) for j in jobids}


def fair_floor_w(
    budget_w: float,
    job_nodes: Mapping[int, int],
    node_peak_w: float,
    weights: Optional[Mapping[int, float]] = None,
) -> Dict[int, float]:
    """Each job's fairshare *floor*: the allocation it is entitled to no
    matter what the other tenants demand.

    ``floor_j = min(peak·n_j, budget · wn_j·n_j / Σ wn·n)`` — the first
    round's proportional rate, capped at peak.
    :func:`split_budget_weighted` provably never allocates below it
    (rates are non-decreasing across pin rounds), which is exactly the
    simtest *no-starvation* invariant.
    """
    if not job_nodes or sum(job_nodes.values()) == 0:
        return {}
    jobids = list(job_nodes)
    wn = normalize_weights(weights, jobids)
    total_wn = 0.0
    for j in jobids:
        total_wn += wn[j] * job_nodes[j]
    floors: Dict[int, float] = {}
    for j in jobids:
        cap = node_peak_w * job_nodes[j]
        if total_wn <= 0.0:
            floors[j] = 0.0
        else:
            floors[j] = min(cap, (float(budget_w) * wn[j] / total_wn) * job_nodes[j])
    return floors
