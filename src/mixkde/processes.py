"""Stationary Gaussian sequence models with known dependence decay.

iid Gaussians, the stationary AR(1) recursion and finite moving averages,
all centered, so the marginal law, the maximal-correlation coefficients and
the long-run variance of 1{X_t <= x} are known exactly. The draw contract
fixes every bit: the path keyed by a 64-bit seed is the Philox stream with
that key, read as uniforms, turned into normals by the inverse CDF, then
filtered. generate_paths draws many paths in blocks, each row with the bits
it has when drawn alone (generate_path). See README "Library layout" and
"Testing" (criterion 2).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import ndtr, ndtri

from .util import check_int

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# random() can return 0.0, which ndtri maps to -inf; clamp one ulp above.
_U_MIN = 2.0**-53
# The most values one block draw holds; a longer path is drawn in pieces of it.
_BLOCK_VALUES = 2**16


@dataclass(frozen=True)
class ProcessModel:
    """family is one of "iid", "ar1", "ma".

    phi is the AR(1) coefficient; weights is the moving-average window, with
    weights[j] multiplying the innovation j steps back. innovation_sd scales
    the driving white noise. All marginals are centered.
    """

    family: str
    phi: float = 0.0
    weights: tuple[float, ...] = ()
    innovation_sd: float = 1.0

    def __post_init__(self):
        if self.family not in ("iid", "ar1", "ma"):
            raise ValueError(f"unknown process family {self.family!r}")
        if not (self.innovation_sd > 0.0 and math.isfinite(self.innovation_sd)):
            raise ValueError(f"innovation_sd must be positive, got {self.innovation_sd}")
        if self.family == "ar1":
            if not abs(self.phi) < 1.0:
                raise ValueError(f"AR(1) needs |phi| < 1 for stationarity, got phi={self.phi}")
        elif self.phi != 0.0:
            raise ValueError("phi is only meaningful for the ar1 family")
        object.__setattr__(self, "phi", self.phi + 0.0)  # -0.0 would echo as "phi": -0
        if self.family == "ma":
            w = self.weights
            if len(w) == 0:
                raise ValueError("ma family needs a nonempty weight window")
            if not all(math.isfinite(x) for x in w):
                raise ValueError("ma weights must be finite")
            if all(x == 0.0 for x in w):
                raise ValueError("ma weights must not all be zero")
            object.__setattr__(self, "weights", tuple(float(x) for x in w))
        elif self.weights != ():
            raise ValueError("weights are only meaningful for the ma family")

    @property
    def marginal_sd(self) -> float:
        # iid is AR(1) with phi = 0, which divides by sqrt(1.0) exactly
        if self.family == "ma":
            return self.innovation_sd * math.sqrt(sum(x * x for x in self.weights))
        return self.innovation_sd / math.sqrt(1.0 - self.phi * self.phi)

    @property
    def window_order(self) -> int:
        """Number of lags a moving average looks back; 0 otherwise."""
        return len(self.weights) - 1 if self.family == "ma" else 0


@dataclass(frozen=True, eq=False)
class SamplePath:
    values: np.ndarray
    model: ProcessModel
    seed: int

    def __len__(self) -> int:
        return self.values.size


def _rekey(bit_generator: np.random.Philox, seed: int) -> None:
    """Reset `bit_generator` to Philox(key=seed) at counter 0, buffer empty.

    The state setter gives the bits of a new Philox(key=seed) without the OS
    entropy its constructor draws for a seed sequence it then discards.
    """
    bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (seed & 0xFFFFFFFFFFFFFFFF, 0)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


# One Generator(Philox) per thread, re-keyed for every path (_rekey): building
# a Philox and a Generator costs about as much as ndtri on a 2000-value path.
_local = threading.local()


def _generator() -> np.random.Generator:
    """This thread's generator; its state is whatever the last _rekey left."""
    gen = getattr(_local, "generator", None)
    if gen is None:
        gen = _local.generator = np.random.Generator(np.random.Philox(0))
    return gen


def paths_per_block(model: ProcessModel, n: int) -> int:
    """How many length-n paths of `model` one block draw holds (at least 1)."""
    return max(1, _BLOCK_VALUES // (n + model.window_order))


def generate_paths(model: ProcessModel, n: int, seeds) -> np.ndarray:
    """Row r holds X_0..X_{n-1} of the path keyed by seeds[r].

    Each row equals generate_path(model, n, seeds[r]).values bit for bit.
    Rows go in blocks of paths_per_block(model, n): the block's uniforms
    come from this thread's one Philox (_generator), re-keyed per row, then
    the clamp, ndtri, scaling and the AR(1) filter each run once on the
    block. A longer path is drawn alone, in pieces of _BLOCK_VALUES values,
    the filter state carried from piece to piece.
    """
    check_int(n, "path length", 1)
    if model.family == "ar1":
        from scipy.signal import lfilter  # loaded on first use: it dominates import time
    seeds = [int(s) for s in seeds]
    q = model.window_order
    width = n + q  # innovations per path
    rows = paths_per_block(model, n)
    out = np.empty((len(seeds), n))
    # a moving average's innovations, q more than its values, need a buffer
    eps = np.empty((min(len(seeds), rows), width)) if q else None
    gen = _generator()
    for lo in range(0, len(seeds), rows):
        group = seeds[lo : lo + rows]
        block = out[lo : lo + len(group)] if eps is None else eps[: len(group)]
        zi = np.zeros((len(group), 1))  # AR(1) filter state
        # one piece covers the block unless the block is one long path
        for start in range(0, width, _BLOCK_VALUES):
            piece = block[:, start : start + _BLOCK_VALUES]
            for row, seed in zip(piece, group):
                if start == 0:
                    _rekey(gen.bit_generator, seed)
                gen.random(out=row)
            # One uniform per normal, by inverse CDF, so the draw count is
            # deterministic and a longer path extends a shorter one exactly.
            np.maximum(piece, _U_MIN, out=piece)
            ndtri(piece, out=piece)
            if model.family == "ar1" and start == 0:
                # Exact stationary start: X_0 gets the marginal sd, the
                # recursion X_t = phi X_{t-1} + e_t does the rest. For phi = 0
                # the filter is the identity and the path is bitwise the iid path.
                piece[:, 1:] *= model.innovation_sd
                piece[:, 0] *= model.marginal_sd
            else:
                piece *= model.innovation_sd
            if model.family == "ar1":
                piece[...], zi = lfilter([1.0], [1.0, -model.phi], piece, axis=1, zi=zi)
        if q:
            w = np.asarray(model.weights, dtype=float)
            # X_t = sum_j w_j eps_{t-j}; the q warm-up innovations make X_0
            # stationary, and index t never touches innovations past t, so the
            # prefix property carries over from the innovation stream.
            for r, row in enumerate(block, lo):
                out[r] = np.convolve(row, w, mode="full")[q : q + n]
    return out


def generate_path(model: ProcessModel, n: int, seed: int) -> SamplePath:
    """Draw X_0..X_{n-1} from the stationary law of `model`.

    The same (model, n, seed) triple always produces the same bits, and the
    first m values of a length-n path equal the length-m path for m <= n.
    """
    return SamplePath(values=generate_paths(model, n, (seed,))[0], model=model, seed=seed)


def marginal_density(model: ProcessModel, x):
    """Stationary one-dimensional density f(x); vectorized over x."""
    s = model.marginal_sd
    x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * (x / s) ** 2) / (s * _SQRT_2PI)
    return out if out.ndim else float(out)


def marginal_cdf(model: ProcessModel, x):
    """Stationary one-dimensional distribution function F(x)."""
    s = model.marginal_sd
    x = np.asarray(x, dtype=float)
    out = ndtr(x / s)
    return out if out.ndim else float(out)


def marginal_density_derivative_sup(model: ProcessModel) -> float:
    """sup_x |f'(x)|, attained at one marginal sd from the center."""
    s = model.marginal_sd
    return math.exp(-0.5) / (_SQRT_2PI * s * s)


def rho_mixing_coefficient(model: ProcessModel, lag: int) -> float:
    """Correlation-decay coefficient between the past and the lag-step future.

    For Gaussian sequences the maximal correlation between sigma-fields
    separated by `lag` steps reduces to a correlation computation:
    iid gives 0, AR(1) gives |phi|^lag. For a moving average of window
    order q the sequence is q-dependent, so the coefficient is exactly 0 for
    lag > q; inside the window the value exposed is the largest absolute
    autocorrelation at separations >= lag, which is the operative figure for
    every summability certificate used here.
    """
    check_int(lag, "lag", 1)
    if model.family != "ma":  # iid is AR(1) with phi = 0
        return abs(model.phi) ** lag
    return float(np.max(np.abs(_ma_correlations(model.weights)[lag - 1 :]), initial=0.0))


def _ma_correlations(weights) -> np.ndarray:
    """The signed lag-1..q autocorrelations of a moving average with these weights."""
    w = np.asarray(weights, dtype=float)
    return np.array([float(w[: w.size - k] @ w[k:]) for k in range(1, w.size)]) / float(w @ w)


def rho_decay(model: ProcessModel, lag: float) -> float:
    """rho_mixing_coefficient extended to real lag >= 0 for Markov families.

    The block-moment machinery interpolates gap lengths, which needs the
    decay curve at non-integer arguments. That extension is only canonical
    when the decay is a pure power |phi|^lag (iid has phi = 0, and 0.0 ** 0
    is 1.0); moving averages are refused.
    """
    if model.family == "ma":
        raise ValueError("real-lag decay is only defined for the iid and ar1 families")
    if not (lag >= 0.0):
        raise ValueError(f"lag must be >= 0, got {lag!r}")
    return abs(model.phi) ** lag


def mixing_tail_bound(model: ProcessModel, power: float = 1.0) -> dict:
    """Certificate for sum_i rho(2^i)^power over i = 0..40.

    Returns the partial sum and the first omitted term; for every built-in
    family the omitted tail is below 1e-12 (geometric decay or exact zeros),
    which is what the experiment gates record.
    """
    if not power > 0.0:
        raise ValueError(f"power must be positive, got {power}")
    total = 0.0
    for i in range(41):
        total += rho_mixing_coefficient(model, 2**i) ** power
    first_omitted = rho_mixing_coefficient(model, 2**41) ** power
    return {"partial_sum": total, "first_omitted_term": first_omitted}


@cache
def _plackett_rule() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule for the Plackett integrals below, built on first use.

    The integrand is analytic on [0, arcsin rho]; 128 nodes hold the error
    near 1e-15 even at rho = -(1 - 1e-6), where exp(-z^2/(1 + sin t)) falls
    off steeply at the end.
    """
    return leggauss(128)


_LRV_LAG_CHUNK = 4096
# Plackett integrals cover the lags with |phi|^k > 1/2, at most 2^20 of them,
# which admits |phi| < 1 - 6.61e-7; a Mehler series covers the rest.
MAX_PLACKETT_LAGS = 2**20
# relative truncation error of the Mehler series, against F(1-F)
_MEHLER_TOL = 1e-17


def _plackett_covariances(z: float, rho: np.ndarray) -> np.ndarray:
    """Phi_2(z, z; rho) - Phi(z)^2 for each correlation in `rho`.

    Plackett's identity, with r = sin t, gives the exact integral
    (1/2pi) int_0^{arcsin rho} exp(-z^2 / (1 + sin t)) dt.
    """
    nodes, weights = _plackett_rule()
    half = 0.5 * np.arcsin(rho)
    t = half[:, None] * (nodes[None, :] + 1.0)
    vals = np.exp(-z * z / (1.0 + np.sin(t))) @ weights
    return half * vals / (2.0 * math.pi)


def plackett_lags(phi: float) -> int:
    """L = floor(ln 2 / -ln|phi|), the AR(1) lags whose covariance is integrated.

    Every later lag has |phi|^k <= 1/2. Raises ValueError when L exceeds
    MAX_PLACKETT_LAGS, that is for |phi| from about 1 - 6.61e-7 on.
    """
    a = abs(phi)
    if a == 0.0:
        return 0
    lags = math.floor(math.log(2.0) / -math.log(a))
    while a ** (lags + 1) > 0.5:  # guard the rounding of the logs
        lags += 1
    if lags > MAX_PLACKETT_LAGS:
        raise ValueError(
            f"AR(1) phi={phi!r} needs {lags} Plackett lags for the long-run variance of the "
            f"indicator series, above the cap of {MAX_PLACKETT_LAGS}: |phi| must stay below "
            "1 - 6.61e-7"
        )
    return lags


def _mehler_far_sum(z: float, phi: float, lags: int) -> float:
    """sum_{k > lags} [Phi_2(z, z; phi^k) - Phi(z)^2] by Mehler's expansion.

    Phi_2(z, z; rho) - Phi(z)^2 = phi(z)^2 sum_{j>=1} h_{j-1}(z)^2 rho^j / j,
    with h_n = He_n / sqrt(n!), and the geometric sum over the lags gives
    each j the factor q^(lags+1) / (1 - q), q = phi^j, with |q|^(lags+1) <=
    2^-j. Cramer's bound |h_n(z)| <= 1.087 e^(z^2/4) puts twice the terms
    after the J-th below 1.19 e^(-z^2/2) 2^-J / (pi (J+1) (1 - |phi|)); the
    series stops once that is below _MEHLER_TOL * F(1-F), with F(1-F) taken
    as Phi(-|z|) / 2, its lower bound, which stays positive where 1 - F
    rounds to 0. The caller skips the series where phi(z)^2 underflows
    (|z| > 27.3): the far lags then add less than F(1-F) e^-120.
    """
    log_a = math.log(abs(phi))
    # stop once 2^J (J+1) exceeds this
    limit = 2.38 * math.exp(-0.5 * z * z) / (
        math.pi * (1.0 - abs(phi)) * _MEHLER_TOL * float(ndtr(-abs(z))))
    prev, cur = 0.0, 1.0  # h_{j-2}(z), h_{j-1}(z)
    total = 0.0
    j = 1
    while True:
        q = phi**j
        # 1 - q by expm1, so that q near 1 keeps its relative accuracy
        one_minus_q = -math.expm1(j * log_a) if q > 0.0 else 1.0 - q
        total += cur * cur / j * phi ** (j * (lags + 1)) / one_minus_q
        if 2.0**j * (j + 1) > limit:
            return math.exp(-z * z) / (2.0 * math.pi) * total
        prev, cur = cur, (z * cur - math.sqrt(j - 1) * prev) / math.sqrt(j)
        j += 1


def indicator_long_run_variance(model: ProcessModel, x: float) -> float:
    """Long-run variance of the indicator series 1{X_t <= x}.

    sigma_LR^2(x) = F(1-F) + 2 sum_{k>=1} [Phi_2(z, z; rho_k) - F^2], with
    z = x / marginal_sd and rho_k the signed lag-k autocorrelation, by
    Plackett integrals and, for the far AR(1) lags, a Mehler series
    (_mehler_far_sum) truncated below 1e-17 F(1-F). iid models and phi = 0
    return F(1-F) exactly. plackett_lags raises ValueError for |phi| from
    about 1 - 6.61e-7 on.
    """
    z = float(x) / model.marginal_sd
    # F(1-F) as Phi(z) Phi(-z): symmetric in z, and 1 - F loses no digits
    marginal = float(ndtr(z) * ndtr(-z))
    if model.family == "ma":
        return marginal + 2.0 * float(np.sum(_plackett_covariances(z, _ma_correlations(model.weights))))
    if model.phi == 0.0:  # iid too
        return marginal
    lags = plackett_lags(model.phi)
    total = 0.0
    # lags go in chunks so that phi near 1 (up to 2^20 lags) stays small in memory
    for start in range(1, lags + 1, _LRV_LAG_CHUNK):
        k = np.arange(start, min(start + _LRV_LAG_CHUNK, lags + 1))
        total += float(np.sum(_plackett_covariances(z, model.phi**k)))
    if math.exp(-z * z) > 0.0:
        total += _mehler_far_sum(z, model.phi, lags)
    return marginal + 2.0 * total


def conditional_mean(model: ProcessModel, last_value: float, horizon: int) -> float:
    """E[X_{t+horizon} | X_t = last_value] for Markov families.

    A moving average is not Markov in its own value, so it is refused; the
    answer is phi^horizon times the conditioning value (iid has phi = 0).
    """
    if model.family == "ma":
        raise ValueError("conditional_mean needs the Markov property; the ma family is not "
                         "Markov in its own value")
    check_int(horizon, "horizon", 1)
    return model.phi**horizon * float(last_value)
