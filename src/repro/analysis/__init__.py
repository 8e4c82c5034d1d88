"""Analysis utilities: energy integration, traces, summary statistics,
and exporters (CSV power traces, chrome://tracing telemetry dumps)."""

from repro.analysis.chrome_trace import (
    chrome_trace_dict,
    events_from_chrome,
    write_chrome_trace,
)
from repro.analysis.energy import (
    JobMetrics,
    integrate_energy_j,
    job_metrics,
    combined_energy_kj,
)
from repro.analysis.traces import ClusterPowerTrace
from repro.analysis.stats import boxplot_stats, mean, percent_change, stdev
from repro.analysis.plotting import ascii_timeline, sparkline
from repro.analysis.report import CampaignSummary, summarise_campaign

__all__ = [
    "JobMetrics",
    "integrate_energy_j",
    "job_metrics",
    "combined_energy_kj",
    "ClusterPowerTrace",
    "boxplot_stats",
    "mean",
    "stdev",
    "percent_change",
    "ascii_timeline",
    "sparkline",
    "CampaignSummary",
    "summarise_campaign",
    "chrome_trace_dict",
    "write_chrome_trace",
    "events_from_chrome",
]
