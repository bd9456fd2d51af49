"""Bandwidth schedules h_n = c n^{-delta} l(n) and their admissibility checks.

The slowly varying factor l is one of the constant 1, log n, or 1/log n,
with the convention log x = log(max(x, e)) so logarithmic factors never drop
below 1. Three named conditions classify a schedule:

  (B1)  h_n -> 0 and n h_n -> inf;
  (B2)  h_n is comparable to n^{-delta} l(n) with 0 < delta <= 1 and l
        slowly varying;
  (B3)  (B1) together with a rate witness omega(n) -> inf such that
        sqrt(n) omega(n) h_n -> 0.

Within this family the checks are symbolic in (delta, l): (B1) holds iff
0 < delta < 1, or delta = 1 with l = log; (B2) holds iff 0 < delta <= 1;
(B3) holds iff (B1) holds and delta > 1/2, in which case
omega(n) = n^{(delta - 1/2)/2} is the canonical witness. Purely logarithmic
schedules (delta = 0) are outside the certified family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .util import clamped_log

SLOWLY_VARYING = ("one", "log", "invlog")


@dataclass(frozen=True, kw_only=True)
class BandwidthSchedule:
    c: float = 1.0
    delta: float
    slowly_varying: str = "one"

    def __post_init__(self):
        if not (self.c > 0.0 and math.isfinite(self.c)):
            raise ValueError(f"schedule constant c must be positive, got {self.c}")
        if not math.isfinite(self.delta):
            raise ValueError(f"schedule exponent delta must be finite, got {self.delta}")
        if self.slowly_varying not in SLOWLY_VARYING:
            raise ValueError(
                f"slowly_varying must be one of {SLOWLY_VARYING}, got {self.slowly_varying!r}"
            )


@dataclass(frozen=True)
class ConditionVerdict:
    condition: str
    passed: bool
    detail: str

    def as_dict(self) -> dict:
        return {"condition": self.condition, "passed": self.passed, "detail": self.detail}


def bandwidth_at(schedule: BandwidthSchedule, n: int) -> float:
    """h_n for sample size n >= 1."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"sample size must be an integer >= 1, got {n!r}")
    if schedule.slowly_varying == "one":
        l = 1.0
    elif schedule.slowly_varying == "log":
        l = clamped_log(n)
    else:
        l = 1.0 / clamped_log(n)
    return schedule.c * float(n) ** (-schedule.delta) * l


def _check_b1(schedule: BandwidthSchedule) -> ConditionVerdict:
    d, sv = schedule.delta, schedule.slowly_varying
    if 0.0 < d < 1.0:
        return ConditionVerdict(
            "B1", True,
            f"(B1) holds: 0 < delta={d:g} < 1, so h_n -> 0 and n*h_n -> inf",
        )
    if d == 1.0 and sv == "log":
        return ConditionVerdict(
            "B1", True,
            "(B1) holds: delta=1 with l(n)=log n gives h_n -> 0 and n*h_n = c*log n -> inf",
        )
    if d <= 0.0:
        return ConditionVerdict(
            "B1", False, f"(B1) fails: delta={d:g} <= 0, so h_n does not tend to 0"
        )
    return ConditionVerdict(
        "B1", False, f"(B1) fails: delta={d:g} makes n*h_n fail to diverge"
    )


def _check_b2(schedule: BandwidthSchedule) -> ConditionVerdict:
    d = schedule.delta
    if 0.0 < d <= 1.0:
        return ConditionVerdict(
            "B2", True,
            f"(B2) holds: 0 < delta={d:g} <= 1, so h_n is regularly varying of index -delta",
        )
    if d <= 0.0:
        return ConditionVerdict(
            "B2", False,
            f"(B2) fails: delta={d:g} <= 0 puts the schedule outside the admissible exponents",
        )
    return ConditionVerdict(
        "B2", False, f"(B2) fails: delta={d:g} > 1 is outside the admissible exponents"
    )


def _check_b3(schedule: BandwidthSchedule) -> ConditionVerdict:
    b1 = _check_b1(schedule)
    d = schedule.delta
    if not b1.passed:
        return ConditionVerdict("B3", False, f"(B3) fails: it requires (B1); {b1.detail}")
    if d <= 0.5:
        return ConditionVerdict(
            "B3", False,
            f"(B3) fails: delta={d:g} <= 1/2 leaves no room for sqrt(n)*omega(n)*h_n -> 0",
        )
    return ConditionVerdict(
        "B3", True,
        f"(B3) holds: delta={d:g} > 1/2 with witness omega(n) = n^{(d - 0.5) / 2.0:g}, "
        "which diverges while sqrt(n)*omega(n)*h_n -> 0",
    )


def check_conditions(schedule: BandwidthSchedule) -> dict[str, ConditionVerdict]:
    """Verdicts for (B1), (B2), (B3), keyed by condition name."""
    return {
        "B1": _check_b1(schedule),
        "B2": _check_b2(schedule),
        "B3": _check_b3(schedule),
    }
