"""repro.tenancy — multi-tenant fairshare power management.

The ROADMAP's "millions of users competing for watts" item: the
paper's proportional split treats jobs as anonymous, but a production
site operates its power budget as an accountable per-project resource
(ORNL runs Frontier's budget this way — see PAPERS.md). This package
adds that layer without touching the anonymous path:

* :mod:`~repro.tenancy.model` — the ``Account``/``Project``/``Tenant``
  directory (slurm-style fairshare tree, JSON-round-trippable);
* :mod:`~repro.tenancy.accounting` — exponentially-decaying usage
  ledger and effective-weight feedback;
* :mod:`~repro.tenancy.fairshare` — pure weighted water-fills
  (``split_budget_weighted``; the site level is ``split_site_budget``
  with ``weights=``), bitwise-identical to the unweighted splits at equal weights;
* :mod:`~repro.tenancy.admission` — deterministic admit/queue/reject
  with structured reasons;
* :mod:`~repro.tenancy.coordinator` — wires it all onto a live
  :class:`~repro.cluster.PowerManagedCluster`;
* :mod:`~repro.tenancy.report` — the ``repro tenants`` CLI demo.

See docs/tenancy.md for the model, the math and the test strategy.
"""

from repro.tenancy.accounting import (
    UsageLedger,
    decay_factor,
    effective_weight,
)
from repro.tenancy.admission import (
    AdmissionConfig,
    AdmissionDecision,
    decide,
)
from repro.tenancy.coordinator import (
    ACCOUNTING_CSV_FIELDS,
    AdmissionRecord,
    TenancyConfig,
    TenancyCoordinator,
)
from repro.tenancy.fairshare import (
    fair_floor_w,
    normalize_weights,
    split_budget_weighted,
)
from repro.tenancy.model import (
    UNAFFILIATED,
    Account,
    Project,
    Tenant,
    TenantDirectory,
)

__all__ = [
    "ACCOUNTING_CSV_FIELDS",
    "Account",
    "AdmissionConfig",
    "AdmissionDecision",
    "AdmissionRecord",
    "Project",
    "Tenant",
    "TenancyConfig",
    "TenancyCoordinator",
    "TenantDirectory",
    "UNAFFILIATED",
    "UsageLedger",
    "decay_factor",
    "decide",
    "effective_weight",
    "fair_floor_w",
    "normalize_weights",
    "split_budget_weighted",
]
