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
0 < delta < 1, or delta = 1 with l = log, or delta = 0 with l = 1/log;
(B2) holds iff 0 < delta <= 1; (B3) holds iff (B1) holds and delta > 1/2,
in which case omega(n) = n^{(delta - 1/2)/2} is the canonical witness. So
h_n = c/log n meets (B1) but not (B2), as the paper's Remark 1 says; no
other purely logarithmic schedule (delta = 0) meets either.
"""

from __future__ import annotations

from dataclasses import dataclass

from .util import check_int, check_real, clamped_log

SLOWLY_VARYING = ("one", "log", "invlog")


@dataclass(frozen=True, kw_only=True)
class BandwidthSchedule:
    c: float = 1.0
    delta: float
    slowly_varying: str = "one"

    def __post_init__(self):
        object.__setattr__(self, "c", check_real(self.c, "schedule constant c"))
        if not self.c > 0.0:
            raise ValueError(f"schedule constant c must be positive, got {self.c}")
        object.__setattr__(self, "delta", check_real(self.delta, "schedule exponent delta"))
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


def condition(name: str, passed: bool, holds: str, fails: str) -> ConditionVerdict:
    """The verdict on a named condition, detailed as "(name) " followed by holds or fails."""
    return ConditionVerdict(name, passed, f"({name}) " + (holds if passed else fails))


def bandwidth_at(schedule: BandwidthSchedule, n: int) -> float:
    """h_n for sample size n >= 1."""
    n = check_int(n, "sample size", 1)
    if schedule.slowly_varying == "one":
        l = 1.0
    elif schedule.slowly_varying == "log":
        l = clamped_log(n)
    else:
        l = 1.0 / clamped_log(n)
    return schedule.c * float(n) ** (-schedule.delta) * l


def check_conditions(schedule: BandwidthSchedule) -> dict[str, ConditionVerdict]:
    """Verdicts for (B1), (B2), (B3), keyed by condition name."""
    d = schedule.delta
    # the edges of 0 < delta < 1 where l(n) decides (B1), with its holds text
    edges = {
        (0.0, "invlog"): "holds: delta=0 with l(n)=1/log n gives h_n = c/log n -> 0 "
                         "and n*h_n -> inf",
        (1.0, "log"): "holds: delta=1 with l(n)=log n gives h_n -> 0 and n*h_n = c*log n -> inf",
    }
    edge = edges.get((d, schedule.slowly_varying))
    b1 = condition(
        "B1", 0.0 < d < 1.0 or edge is not None,
        edge or f"holds: 0 < delta={d:g} < 1, so h_n -> 0 and n*h_n -> inf",
        f"fails: delta={d:g} <= 0, so h_n does not tend to 0" if d <= 0.0
        else f"fails: delta={d:g} makes n*h_n fail to diverge",
    )
    b2 = condition(
        "B2", 0.0 < d <= 1.0,
        f"holds: 0 < delta={d:g} <= 1, so h_n is regularly varying of index -delta",
        f"fails: delta={d:g} <= 0 puts the schedule outside the admissible exponents" if d <= 0.0
        else f"fails: delta={d:g} > 1 is outside the admissible exponents",
    )
    b3 = condition(
        "B3", b1.passed and d > 0.5,
        f"holds: delta={d:g} > 1/2 with witness omega(n) = n^{(d - 0.5) / 2.0:g}, "
        "which diverges while sqrt(n)*omega(n)*h_n -> 0",
        f"fails: delta={d:g} <= 1/2 leaves no room for sqrt(n)*omega(n)*h_n -> 0" if b1.passed
        else f"fails: it requires (B1); {b1.detail}",
    )
    return {"B1": b1, "B2": b2, "B3": b3}
