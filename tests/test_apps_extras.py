"""Unit tests for the Section V applications (SW4lite, Kripke)."""

import pytest

from repro.apps.registry import get_profile, list_apps
from repro.flux.instance import FluxInstance
from repro.flux.jobspec import Jobspec, JobState

#: Kripke's Tioga runs crash this many seconds in (Section V).
KRIPKE_TIOGA_FAIL_AT_S = 15.0


def test_extras_registered():
    assert "sw4lite" in list_apps()
    assert "kripke" in list_apps()


def test_sw4lite_runs_on_lassen():
    inst = FluxInstance(platform="lassen", n_nodes=2, seed=27)
    rec = inst.submit(Jobspec(app="sw4lite", nnodes=2))
    inst.run_until_complete(timeout_s=100_000)
    assert rec.state is JobState.COMPLETED
    assert rec.runtime_s == pytest.approx(90.0, rel=0.05)


def test_sw4lite_has_no_hip_variant():
    """No Tioga demand entry: launch fails like a missing build."""
    p = get_profile("sw4lite")
    with pytest.raises(KeyError):
        p.platform_demand("tioga")
    inst = FluxInstance(platform="tioga", n_nodes=2, seed=27)
    inst.submit(Jobspec(app="sw4lite", nnodes=2))
    with pytest.raises(KeyError):
        inst.run_until_complete(timeout_s=100_000)


def test_kripke_runs_on_lassen():
    inst = FluxInstance(platform="lassen", n_nodes=2, seed=27)
    rec = inst.submit(Jobspec(app="kripke", nnodes=2))
    inst.run_until_complete(timeout_s=100_000)
    assert rec.state is JobState.COMPLETED


def test_kripke_fails_on_tioga():
    """Section V: 'Kripke execution failed on the Tioga system'."""
    inst = FluxInstance(platform="tioga", n_nodes=2, seed=27)
    params = {"fail_at_s": KRIPKE_TIOGA_FAIL_AT_S}
    rec = inst.submit(Jobspec(app="kripke", nnodes=2, params=params))
    inst.run_until_complete(timeout_s=100_000)
    assert rec.state is JobState.FAILED
    assert rec.t_end <= KRIPKE_TIOGA_FAIL_AT_S + 5.0
