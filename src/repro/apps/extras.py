"""SW4lite and Kripke: the applications that did not survive Tioga.

Section V: "we could not obtain a HIP variant for SW4lite ... and
Kripke execution failed on the Tioga system." Both apps therefore
appear in this reproduction exactly as the paper experienced them:

* **SW4lite** (seismic wave propagation) has no Tioga demand entry at
  all — submitting it on Tioga fails at launch, like a missing HIP
  build.
* **Kripke** (deterministic Sn transport proxy) builds and launches on
  Tioga but crashes early in execution (modelled with the fault
  injection hook), reproducing "Kripke execution failed".

On Lassen both run normally, with plausible CPU/GPU-balanced profiles
(neither is quantitatively calibrated — the paper reports no numbers
for them).
"""

from __future__ import annotations

from repro.apps.base import AppProfile, PhaseProfile, PlatformDemand

SW4LITE_INPUTS = "LOH.1 benchmark grid (no HIP variant exists)"
KRIPKE_INPUTS = "groups=32 quad=192 zones=16^3 (fails on Tioga)"


def sw4lite_profile() -> AppProfile:
    """SW4lite: CUDA-only — note the missing ``tioga`` demand entry."""
    return AppProfile(
        name="sw4lite",
        scaling="weak",
        launcher="mpi",
        base_runtime_s=90.0,
        ref_nodes=4,
        gpu_frac=0.55,
        cpu_frac=0.30,
        beta_gpu=0.85,
        gamma_gpu=2.0,
        phases=PhaseProfile(period_s=15.0, duty=0.55, gpu_depth=0.45, cpu_depth=0.2),
        demand={
            "lassen": PlatformDemand(
                cpu_dyn_w=95.0, mem_dyn_w=45.0, gpu_dyn_w=120.0, runtime_scale=1.0
            ),
            # No "tioga" entry: launching there raises KeyError at
            # execution, the missing-HIP-variant failure mode.
            "generic": PlatformDemand(
                cpu_dyn_w=110.0, mem_dyn_w=40.0, gpu_dyn_w=100.0, runtime_scale=1.3
            ),
        },
        inputs=SW4LITE_INPUTS,
    )


def kripke_profile() -> AppProfile:
    """Kripke: runs on Lassen; its Tioga runs crash (see run helper)."""
    return AppProfile(
        name="kripke",
        scaling="weak",
        launcher="mpi",
        base_runtime_s=60.0,
        ref_nodes=4,
        gpu_frac=0.45,
        cpu_frac=0.40,
        beta_gpu=0.80,
        gamma_gpu=1.8,
        phases=PhaseProfile(period_s=10.0, duty=0.5, gpu_depth=0.5, cpu_depth=0.3),
        demand={
            "lassen": PlatformDemand(
                cpu_dyn_w=105.0, mem_dyn_w=50.0, gpu_dyn_w=105.0, runtime_scale=1.0
            ),
            "tioga": PlatformDemand(
                cpu_dyn_w=150.0, mem_dyn_w=40.0, gpu_dyn_w=70.0, runtime_scale=1.2
            ),
            "elcapitan": PlatformDemand(
                cpu_dyn_w=0.0, mem_dyn_w=0.0, gpu_dyn_w=260.0, runtime_scale=0.7
            ),
            "generic": PlatformDemand(
                cpu_dyn_w=115.0, mem_dyn_w=45.0, gpu_dyn_w=90.0, runtime_scale=1.2
            ),
        },
        inputs=KRIPKE_INPUTS,
    )
