"""Site-level budget arithmetic (pure; property-tested).

This is :func:`repro.manager.policies.proportional.per_node_share` /
``split_budget`` lifted one level up the paper's recursive hierarchy:
where the cluster manager divides a *cluster* budget over jobs by node
count, the site manager divides a *site* budget over clusters by live
power demand, with per-cluster floors and ceilings.

Everything here is pure arithmetic over plain dicts — no simulator, no
RNG, no telemetry — so the Hypothesis suite
(``tests/test_federation_rebalance_properties.py``) can pin the three
contract properties directly:

* **conservation** — shares sum to the site budget exactly (to the
  binding total of the ceilings, when ceilings cap the distribution);
* **monotonicity** — raising one cluster's demand never lowers its
  share;
* **floor safety** — a live cluster is never allocated below its floor
  (feasibility requires Σ floors ≤ budget, validated up front).
"""

from __future__ import annotations

import math
import sys
from typing import Dict, Mapping, Optional

#: Relative tolerance for the float water-filling arithmetic.
REL_EPS = 1e-9


def cluster_demand_w(active_nodes: int, node_peak_w: float) -> float:
    """A cluster's live power demand: what its own manager would grant
    every allocated node when unconstrained (``N_k × peak`` — the
    numerator of the paper's ``P_n = P_G / (N_k + N_i)``)."""
    if active_nodes < 0:
        raise ValueError(f"active_nodes must be >= 0, got {active_nodes}")
    return float(active_nodes) * float(node_peak_w)


def validate_floors(
    site_budget_w: float,
    floors: Mapping[str, float],
    ceilings: Optional[Mapping[str, Optional[float]]] = None,
) -> None:
    """Raise ValueError unless every floor is satisfiable at once.

    The budget, every floor and every ceiling must be finite (a
    ``None`` ceiling means unbounded): an infinite or NaN budget would
    install NaN or zero cluster caps.
    """
    if not math.isfinite(site_budget_w) or site_budget_w < 0:
        raise ValueError(
            f"site budget must be finite and >= 0, got {site_budget_w}"
        )
    total = 0.0
    for name in sorted(floors):
        lo = float(floors[name])
        if not math.isfinite(lo) or lo < 0:
            raise ValueError(
                f"cluster {name!r} floor must be finite and >= 0, got {lo}"
            )
        hi = None if ceilings is None else ceilings.get(name)
        if hi is not None and not math.isfinite(hi):
            raise ValueError(f"cluster {name!r} ceiling must be finite, got {hi}")
        if hi is not None and float(hi) < lo:
            raise ValueError(
                f"cluster {name!r} ceiling {hi} below its floor {lo}"
            )
        total += lo
    if total > site_budget_w * (1.0 + REL_EPS) + REL_EPS:
        raise ValueError(
            f"sum of cluster floors {total} W exceeds site budget "
            f"{site_budget_w} W — floors are not satisfiable"
        )


def split_site_budget(
    site_budget_w: float,
    demands: Mapping[str, float],
    floors: Optional[Mapping[str, float]] = None,
    ceilings: Optional[Mapping[str, Optional[float]]] = None,
    weights: Optional[Mapping[str, float]] = None,
) -> Dict[str, float]:
    """Divide the site budget over live clusters by demand weight.

    ``demands`` maps cluster name → live demand (W); only clusters
    present here participate (a downed cluster is simply absent, so its
    share is reclaimed by the same recompute that notices the outage).
    ``floors``/``ceilings`` clamp each cluster's share into
    ``[floor, ceiling]``; missing entries mean 0 / unbounded.
    ``weights`` (fairshare priorities, missing → 1.0) scale each
    cluster's fill weight to ``wn_c × demand_c`` after normalizing by
    the maximum weight; ``None`` — and, because ``w / w == 1.0`` and
    ``1.0 × d == d`` in IEEE-754, all-equal weights — leaves the fill
    bitwise identical to the unweighted split (the tenancy property
    suite asserts ``==`` on this).

    The fill is the cluster-manager rule lifted one level: distribute
    the whole budget proportionally to demand, then pin any cluster
    that fell below its floor at the floor (starved clusters first —
    floors are a safety property) or rose above its ceiling at the
    ceiling, and re-divide the remainder over the rest. Each round pins
    at least one cluster, so the loop terminates in ≤ N rounds. With
    all-zero demand the remainder is split equally (the idle-site
    case). Conservation: Σ shares equals ``site_budget_w`` exactly
    unless every unpinned cluster hit its ceiling, in which case it
    equals ``min(site_budget_w, Σ ceilings)``.
    """
    names = sorted(demands)
    if not names:
        return {}
    lo = {c: float((floors or {}).get(c, 0.0) or 0.0) for c in names}
    hi = {c: (ceilings or {}).get(c) for c in names}
    validate_floors(site_budget_w, lo, hi)
    for c in names:
        d = float(demands[c])
        if not math.isfinite(d) or d < 0:
            raise ValueError(
                f"cluster {c!r} demand must be finite and >= 0, got {d}"
            )
    if weights is None:
        eff = {c: float(demands[c]) for c in names}
    else:
        from repro.tenancy.fairshare import normalize_weights

        wn = normalize_weights(weights, names)
        eff = {c: wn[c] * float(demands[c]) for c in names}
    # A subnormal fill weight is zero demand: dividing by it loses all
    # precision, and the top-up below could never move a share.
    eff = {c: w if w >= sys.float_info.min else 0.0 for c, w in eff.items()}

    pinned: Dict[str, float] = {}
    while True:
        free = [c for c in names if c not in pinned]
        if not free:
            break
        remaining = max(0.0, site_budget_w - sum(pinned.values()))
        weight = {c: eff[c] for c in free}
        total_w = sum(weight.values())
        if total_w <= 0.0:
            prop = {c: remaining / len(free) for c in free}
        else:
            prop = {c: remaining * weight[c] / total_w for c in free}
        # Floors first: pinning a starved cluster shrinks everyone
        # else's pool, which can starve another — handled next round.
        starved = [
            c for c in free if prop[c] < lo[c] * (1.0 - REL_EPS) - REL_EPS
        ]
        if starved:
            for c in starved:
                pinned[c] = lo[c]
            continue
        over = [
            c
            for c in free
            if hi[c] is not None
            and prop[c] > float(hi[c]) * (1.0 + REL_EPS) + REL_EPS
        ]
        if over:
            for c in over:
                pinned[c] = float(hi[c])
            continue
        for c in free:
            share = prop[c]
            if share < lo[c]:
                share = lo[c]
            if hi[c] is not None and share > float(hi[c]):
                share = float(hi[c])
            pinned[c] = share
        break

    # Top-up: a floor pin followed by binding ceilings can leave budget
    # stranded (the floor-pinned cluster was skipped when the ceiling
    # surplus flowed back). Pour any leftover into clusters still below
    # their ceiling — proportionally to demand, equally when idle —
    # until the conserved target is hit or every ceiling binds.
    target = site_allocation_total_w(site_budget_w, demands, ceilings)
    tol = REL_EPS * max(1.0, target)
    while target - sum(pinned.values()) > tol:
        leftover = target - sum(pinned.values())
        open_c = [
            c for c in names if hi[c] is None or pinned[c] < float(hi[c]) - tol
        ]
        if not open_c:  # pragma: no cover - target <= sum of ceilings
            break
        weight = {c: eff[c] for c in open_c}
        total_w = sum(weight.values())
        for c in open_c:
            add = (
                leftover / len(open_c)
                if total_w <= 0.0
                else leftover * weight[c] / total_w
            )
            new = pinned[c] + add
            if hi[c] is not None and new > float(hi[c]):
                new = float(hi[c])
            pinned[c] = new
    return {c: pinned[c] for c in names}


def site_allocation_total_w(
    site_budget_w: float,
    demands: Mapping[str, float],
    ceilings: Optional[Mapping[str, Optional[float]]] = None,
) -> float:
    """The exact total :func:`split_site_budget` conserves.

    Equals the site budget unless the live clusters' ceilings bind
    first. The simtest ``site_budget`` invariant compares the installed
    cluster budgets against this at every rebalance epoch.
    """
    if not demands:
        return 0.0
    total_ceiling = 0.0
    for c in sorted(demands):
        hi = None if ceilings is None else ceilings.get(c)
        if hi is None:
            return float(site_budget_w)
        total_ceiling += float(hi)
    return min(float(site_budget_w), total_ceiling)
