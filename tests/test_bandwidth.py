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


def test_remark_1_inverse_log_meets_b1_only():
    out = check_conditions(BandwidthSchedule(c=2.0, delta=0.0, slowly_varying="invlog"))
    assert out["B1"].detail == ("(B1) holds: delta=0 with l(n)=1/log n gives h_n = c/log n -> 0 "
                                "and n*h_n -> inf")
    assert out["B1"].passed and not out["B2"].passed and not out["B3"].passed
    assert "<= 1/2 leaves" in out["B3"].detail


@pytest.mark.parametrize("slowly_varying", ["one", "log", "invlog"])
@pytest.mark.parametrize("delta", np.linspace(-0.5, 1.5, 17).tolist())
def test_b1_table_follows_the_logs(delta, slowly_varying):
    # log h_n = log c - delta L + log l(n) and log(n h_n) = log h_n + L at
    # L = log n from 10 to 600; each is c1 L + c2 log L, so it diverges
    # exactly when it is strictly monotone on this range
    L = np.linspace(10.0, 600.0, 60)
    log_l = {"one": 0.0, "log": np.log(L), "invlog": -np.log(L)}[slowly_varying]
    log_h = math.log(2.0) - delta * L + log_l
    holds = bool(np.all(np.diff(log_h) < 0.0) and np.all(np.diff(log_h + L) > 0.0))
    schedule = BandwidthSchedule(c=2.0, delta=delta, slowly_varying=slowly_varying)
    assert check_conditions(schedule)["B1"].passed == holds


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
    # a bool would echo into report.json as true
    with pytest.raises(ValueError, match="schedule constant c must be a finite real number, got True"):
        BandwidthSchedule(c=True, delta=0.5)
    with pytest.raises(ValueError, match="schedule exponent delta must be a finite real number, got True"):
        BandwidthSchedule(c=1.0, delta=True)
    # an int too large for a double is the field's error, not an OverflowError
    with pytest.raises(ValueError, match="schedule exponent delta must be a finite real number"):
        BandwidthSchedule(delta=10**400)
    # repr cannot print an int of over 4300 digits; the echo names its size instead
    with pytest.raises(ValueError, match="^schedule exponent delta must be a finite real number, "
                                         "got an int of 16610 bits$"):
        BandwidthSchedule(delta=10**5000)
    # -0.0 would echo as "delta": -0 and print as delta=-0
    zero = BandwidthSchedule(c=1.0, delta=-0.0)
    assert math.copysign(1.0, zero.delta) == 1.0
    assert check_conditions(zero)["B1"].detail == "(B1) fails: delta=0 <= 0, so h_n does not tend to 0"


def test_bandwidth_at_rejects_bad_n():
    sched = BandwidthSchedule(c=1.0, delta=0.5)
    with pytest.raises(ValueError):
        bandwidth_at(sched, 0)
    with pytest.raises(ValueError):
        bandwidth_at(sched, 2.0)
