import math

import numpy as np
import pytest

from mixkde.bandwidth import BandwidthSchedule, bandwidth_at, check_conditions


def test_power_law_values():
    assert bandwidth_at(BandwidthSchedule(c=1.0, delta=0.2), 10**5) == pytest.approx(0.1, abs=1e-15)
    assert bandwidth_at(BandwidthSchedule(c=2.0, delta=0.5), 4) == pytest.approx(1.0, abs=1e-15)


def test_log_factor_clamped_below_e():
    # log(max(n, e)) equals 1 for n = 1, 2, so the log factor drops out there
    log_sched = BandwidthSchedule(c=1.0, delta=1.0, slowly_varying="log")
    assert bandwidth_at(log_sched, 2) == 0.5
    assert bandwidth_at(log_sched, 10) == pytest.approx(math.log(10.0) / 10.0, abs=1e-15)
    inv = BandwidthSchedule(c=3.0, delta=0.5, slowly_varying="invlog")
    assert bandwidth_at(inv, 2) == pytest.approx(3.0 / math.sqrt(2.0), abs=1e-15)


def test_conditions_delta_02():
    out = check_conditions(BandwidthSchedule(c=1.0, delta=0.2))
    assert out["B1"].passed and out["B2"].passed and not out["B3"].passed
    assert "delta=0.2" in out["B1"].detail


def test_conditions_delta_06_with_witness():
    out = check_conditions(BandwidthSchedule(c=1.0, delta=0.6))
    assert out["B1"].passed and out["B2"].passed and out["B3"].passed
    assert "with witness omega(n) = n^0.05," in out["B3"].detail


def test_conditions_delta_12_fails():
    out = check_conditions(BandwidthSchedule(c=1.0, delta=1.2))
    assert not out["B1"].passed
    assert not out["B2"].passed
    assert not out["B3"].passed
    assert "(B1) fails" in out["B1"].detail


def test_boundary_delta_one():
    # delta = 1 needs the log factor for n h_n to diverge
    assert not check_conditions(BandwidthSchedule(c=1.0, delta=1.0))["B1"].passed
    logged = check_conditions(BandwidthSchedule(c=1.0, delta=1.0, slowly_varying="log"))
    assert logged["B1"].passed


def test_delta_half_excluded_from_b3():
    out = check_conditions(BandwidthSchedule(c=1.0, delta=0.5))
    assert out["B1"].passed and not out["B3"].passed


def test_nonpositive_delta_fails_everything():
    out = check_conditions(BandwidthSchedule(c=1.0, delta=-0.1))
    assert not any(v.passed for v in out.values())


@pytest.mark.parametrize("delta", [0.2, 0.6, 0.99])
def test_monotone_decreasing(delta):
    sched = BandwidthSchedule(c=1.0, delta=delta)
    ns = np.unique(np.logspace(0, 6, 200).astype(int))
    hs = [bandwidth_at(sched, int(n)) for n in ns]
    assert all(a > b for a, b in zip(hs, hs[1:]))


@pytest.mark.parametrize("delta", [0.2, 0.6, 0.99])
def test_nh_diverges(delta):
    sched = BandwidthSchedule(c=1.0, delta=delta)
    for n in (10, 100, 1000, 10**4, 10**5):
        assert 10 * n * bandwidth_at(sched, 10 * n) > n * bandwidth_at(sched, n)


def test_schedule_validation():
    with pytest.raises(ValueError):
        BandwidthSchedule(c=0.0, delta=0.5)
    with pytest.raises(ValueError):
        BandwidthSchedule(c=-1.0, delta=0.5)
    with pytest.raises(ValueError):
        BandwidthSchedule(c=1.0, delta=math.nan)
    with pytest.raises(ValueError):
        BandwidthSchedule(c=1.0, delta=0.5, slowly_varying="loglog")


def test_bandwidth_at_rejects_bad_n():
    sched = BandwidthSchedule(c=1.0, delta=0.5)
    with pytest.raises(ValueError):
        bandwidth_at(sched, 0)
    with pytest.raises(ValueError):
        bandwidth_at(sched, 2.0)
