"""One-shot validation: every headline claim, PASS/FAIL.

``python -m repro.cli validate`` runs the full reproduction and checks
each of the paper's quantitative claims against the measured values —
the quickest way to confirm an installation reproduces the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


@dataclass
class Check:
    name: str
    passed: bool
    detail: str

    def row(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.name}: {self.detail}"


@dataclass
class ValidationReport:
    checks: List[Check] = field(default_factory=list)

    def add(self, name: str, passed: bool, detail: str) -> None:
        self.checks.append(Check(name, bool(passed), detail))

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        lines = [c.row() for c in self.checks]
        n_pass = sum(c.passed for c in self.checks)
        lines.append(f"--- {n_pass}/{len(self.checks)} checks passed ---")
        return "\n".join(lines)


def run_validation(seed: int = 1, queue_seed: int = 10) -> ValidationReport:
    """Run the headline experiments and evaluate every claim."""
    from repro.experiments import calibration as cal
    from repro.experiments.fig1_timeline import run_fig1
    from repro.experiments.queue_campaign import run_queue_campaign
    from repro.experiments.table2_cross_system import run_table2
    from repro.experiments.table3_static import run_table3
    from repro.experiments.table4_policies import run_table4

    report = ValidationReport()

    # Fig 1 — phase behaviour.
    qs = run_fig1("quicksilver", work_scale=10)
    lm = run_fig1("lammps", work_scale=2)
    report.add(
        "fig1: Quicksilver periodic / LAMMPS flat",
        abs(qs.dominant_period_s() - cal.FIG1_QUICKSILVER_PERIOD_S) < 3.0
        and lm.dominant_period_s() == 0.0,
        f"QS period {qs.dominant_period_s():.1f} s, LAMMPS none",
    )

    # Table II — cross-system energy deltas.
    t2 = run_table2()
    lammps_delta = t2.energy_change_pct("lammps", 4)
    laghos_delta = t2.energy_change_pct("laghos", 4)
    report.add(
        f"table2: LAMMPS ~{cal.LAMMPS_TIOGA_ENERGY_PCT:+.1f}% energy on Tioga",
        abs(lammps_delta - cal.LAMMPS_TIOGA_ENERGY_PCT) < 5.0,
        f"measured {lammps_delta:+.1f}%",
    )
    report.add(
        f"table2: Laghos ~{cal.LAGHOS_TIOGA_ENERGY_PCT:+.0f}% energy on Tioga",
        abs(laghos_delta - cal.LAGHOS_TIOGA_ENERGY_PCT) < 20.0,
        f"measured {laghos_delta:+.1f}%",
    )

    # Table III — IBM derivation + conservatism.
    t3 = run_table3(seed=seed)
    derivations_ok = all(
        abs(t3.rows[cap].derived_gpu_cap_w - ref[0]) <= 2.0
        for cap, ref in cal.TABLE3.items()
    )
    derived = "/".join(f"{cal.TABLE3[cap][0]:.0f}" for cap in sorted(cal.TABLE3))
    report.add(
        f"table3: IBM GPU-cap derivation ({derived} W)",
        derivations_ok,
        ", ".join(
            f"{cap:.0f}->{t3.rows[cap].derived_gpu_cap_w:.0f}W" for cap in sorted(cal.TABLE3)
        ),
    )
    peak_kw = cal.TABLE3[1200.0][1]
    report.add(
        f"table3: 1200 W caps are extremely conservative "
        f"(~{peak_kw:.0f} kW of {cal.GLOBAL_POWER_CAP_W / 1e3:.1f})",
        abs(t3.rows[1200.0].max_cluster_kw - peak_kw) / peak_kw < 0.10,
        f"measured {t3.rows[1200.0].max_cluster_kw:.2f} kW",
    )

    # Table IV — the policy story.
    t4 = run_table4(seed=seed)
    claims = t4.headline_claims()
    report.add(
        f"table4: FPP saves ~{-cal.FPP_VS_PROP_ENERGY_PCT:.0f}% energy vs proportional",
        -5.0 < claims["fpp_vs_prop_energy_pct"] < -0.2,
        f"measured {claims['fpp_vs_prop_energy_pct']:+.2f}% "
        f"(paper {cal.FPP_VS_PROP_ENERGY_PCT:+.1f}%)",
    )
    report.add(
        f"table4: FPP ~{-cal.FPP_VS_IBM_ENERGY_PCT:.0f}% less energy than IBM default",
        claims["fpp_vs_ibm_energy_pct"] < -12.0,
        f"measured {claims['fpp_vs_ibm_energy_pct']:+.2f}% "
        f"(paper {cal.FPP_VS_IBM_ENERGY_PCT:+.0f}%)",
    )
    report.add(
        f"table4: FPP ~{cal.FPP_VS_IBM_SPEEDUP:.2f}x faster than IBM default",
        1.4 < claims["fpp_vs_ibm_gemm_speedup"] < 2.2,
        f"measured {claims['fpp_vs_ibm_gemm_speedup']:.2f}x "
        f"(paper {cal.FPP_VS_IBM_SPEEDUP:.2f}x)",
    )
    times = {k: v.metrics["gemm"].runtime_s for k, v in t4.scenarios.items()}
    report.add(
        "table4: runtime ordering unconstr<=static<=prop<=fpp<<ibm",
        times["unconstrained"]
        <= times["static_1950"]
        <= times["proportional"]
        <= times["fpp"]
        < times["ibm_default_1200"],
        " / ".join(f"{k}={v:.0f}s" for k, v in times.items()),
    )

    # Section IV-E — the queue.
    q = run_queue_campaign(seed=queue_seed)
    report.add(
        "queue: makespan identical under prop and FPP",
        q.makespans_equal(tolerance_s=10.0),
        f"{q.runs['proportional'].makespan_s:.1f} vs "
        f"{q.runs['fpp'].makespan_s:.1f} s (paper {cal.QUEUE_MAKESPAN_S:.0f} s)",
    )
    report.add(
        "queue: FPP improves per-job energy-per-node",
        q.fpp_energy_improvement_pct() > 0.2,
        f"measured {q.fpp_energy_improvement_pct():+.2f}% "
        f"(paper {cal.QUEUE_FPP_ENERGY_IMPROVEMENT_PCT:+.2f}%)",
    )

    return report
