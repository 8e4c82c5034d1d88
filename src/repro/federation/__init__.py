"""Site-level federation: one budget over many clusters.

The center-level tier above the paper's cluster manager — see
docs/federation.md and :mod:`repro.federation.site`.
:class:`FederatedSite` is the one site engine; ``create_site`` is an
alias for it.
"""

from repro.federation.rebalance import (
    REL_EPS,
    cluster_demand_w,
    site_allocation_total_w,
    split_site_budget,
    validate_floors,
)
from repro.federation.site import ClusterSpec, FederatedSite, SiteConfig

create_site = FederatedSite

__all__ = [
    "REL_EPS",
    "ClusterSpec",
    "FederatedSite",
    "SiteConfig",
    "cluster_demand_w",
    "create_site",
    "site_allocation_total_w",
    "split_site_budget",
    "validate_floors",
]
