"""Stationary Gaussian sequence models with known dependence decay.

iid Gaussians, the stationary AR(1) recursion and finite moving averages,
all centered, so the marginal law, the maximal-correlation coefficients and
the long-run variance of 1{X_t <= x} are known exactly. Parameters, seeds
and points are admitted by mixkde.util. The draw contract fixes every bit:
the path keyed by a 64-bit seed is the Philox stream with that key, read as
uniforms, turned into normals by the inverse CDF, then filtered.
generate_paths draws many paths together, in pieces keyed by their stream
position, each row with the bits it has when drawn alone (generate_path).
ndtri and ndtr are the ufuncs of scipy.special._ufuncs and the filter is
scipy.signal._sigtools._linear_filter, the C function under
scipy.signal.lfilter; each extension module is loaded without its package
(_load_extension), which halves the start-up of the CLI; where it is not
found, the public scipy function stands in, with the same bits. The other
modules take ndtr and the N(0, s^2) law _normal (the Gaussian kernel too)
from here. versions() names what the draw and report bits rest on.
See README "Library layout" and "Testing" (criterion 2).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import platform
import sys
import threading
import types
from dataclasses import dataclass, field
from functools import cache

import numpy as np
import scipy
from numpy.polynomial.legendre import leggauss

from .util import _real_point, _real_points, check_int, check_real, check_seed

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# random() can return 0.0, which ndtri maps to -inf; clamp one ulp above.
_U_MIN = 2.0**-53
# The most values a row of one piece holds. A longer path is drawn in pieces,
# each keyed by its stream position, so this must stay a multiple of 4 (_rekey).
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
    # computed here: innovation_sd sqrt(sum w^2) / sqrt(1 - phi^2), w = (1,) for iid and AR(1), and an MA's
    # signed lag-1..q autocorrelations, () for iid and AR(1) (phi^k at lag k)
    marginal_sd: float = field(init=False, repr=False, compare=False)
    correlations: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.family not in ("iid", "ar1", "ma"):
            raise ValueError(f"unknown process family {self.family!r}")
        object.__setattr__(self, "innovation_sd", check_real(self.innovation_sd, "innovation_sd"))
        if not self.innovation_sd > 0.0:
            raise ValueError(f"innovation_sd must be positive, got {self.innovation_sd}")
        object.__setattr__(self, "phi", check_real(self.phi, "phi"))
        if self.family == "ar1":
            if not abs(self.phi) < 1.0:
                raise ValueError(f"AR(1) needs |phi| < 1 for stationarity, got phi={self.phi}")
        elif self.phi != 0.0:
            raise ValueError("phi is only meaningful for the ar1 family")
        if self.family == "ma":
            object.__setattr__(self, "weights", tuple(check_real(x, "ma weight") for x in self.weights))
            if len(self.weights) == 0:
                raise ValueError("ma family needs a nonempty weight window")
            if all(x == 0.0 for x in self.weights):
                raise ValueError("ma weights must not all be zero")
        elif self.weights != ():
            raise ValueError("weights are only meaningful for the ma family")
        # the sums run on w / max|w|, so that tiny or huge weights lose no digits; a window whose largest |w|
        # is 1 keeps the bits of the unscaled sums (x / 1.0 and innovation_sd * 1.0 are exact)
        top = max(map(abs, self.weights or (1.0,)))
        w = np.array(self.weights or (1.0,)) / top
        squares = float(np.add.reduce(w * w))
        sd = self.innovation_sd * top * math.sqrt(squares) / math.sqrt(1.0 - self.phi * self.phi)
        if not 0.0 < sd < math.inf:
            raise ValueError(f"marginal sd innovation_sd * sqrt(sum of squared weights) / sqrt(1 - phi^2) "
                             f"must be positive and finite, got {sd!r}")
        object.__setattr__(self, "marginal_sd", sd)
        lagged = (float(np.add.reduce(w[: w.size - k] * w[k:])) for k in range(1, w.size))
        object.__setattr__(self, "correlations", tuple(dot / squares for dot in lagged))

    @property
    def markov(self) -> bool:
        """iid, AR(1) and white noise (no correlated lag, as in a one-weight window) are Markov in their own value."""
        return not any(self.correlations)


@dataclass(frozen=True, eq=False)
class SamplePath:
    values: np.ndarray
    model: ProcessModel
    seed: int

    def __len__(self) -> int:
        return self.values.size


def _rekey(bit_generator: np.random.Philox, seed: int, start: int) -> None:
    """Set `bit_generator` to the stream of Philox(key=seed) from value `start` on.

    Philox steps its counter before each draw of four values, so counter
    start // 4 with an empty buffer continues at `start`, a multiple of 4.
    The state setter skips the OS entropy a new Philox draws for a seed
    sequence it then discards.
    """
    bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (start // 4, 0, 0, 0), "key": (seed & 0xFFFFFFFFFFFFFFFF, 0)},
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


def _load_extension(subpackage: str, name: str) -> types.ModuleType:
    """The extension module scipy.<subpackage>.<name>, without its package.

    Importing scipy.special runs its __init__, which imports scipy's
    array-API layer and numpy.f2py, some 260 modules; scipy.signal also
    imports scipy.stats, about half a second and 50 MB. So the one extension
    module is loaded from its directory. Its module init may import the
    package by name, so while it loads, and only then (inside the import of
    mixkde.processes), a bare placeholder module with the package's __path__
    stands in sys.modules for a package not yet imported. Afterwards the
    placeholder and every scipy.<subpackage> entry the load added are taken
    out again, so that a later import of the package runs it whole; it gets
    the same module and objects, which the extension keeps once per process.
    An extension module already imported is used as it is, since loading it
    again would replace that entry.
    """
    package = f"scipy.{subpackage}"
    full = f"{package}.{name}"
    module = sys.modules.get(full)
    if module is not None:
        return module
    dirs = [os.path.join(path, subpackage) for path in scipy.__path__]
    spec = importlib.machinery.PathFinder.find_spec(full, dirs)
    if spec is None:
        raise ModuleNotFoundError(f"no extension module {name} in {dirs} (scipy {scipy.__version__})")
    before = set(sys.modules)
    placeholder = types.ModuleType(package)
    placeholder.__path__ = dirs
    sys.modules.setdefault(package, placeholder)
    try:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        for key in set(sys.modules) - before:
            if key == package or key.startswith(f"{package}."):
                del sys.modules[key]
    return module


# Where scipy keeps these modules elsewhere, the public functions give the same bits, at the
# packages' import cost: scipy.special's ndtr and ndtri are the ufuncs of _ufuncs, and lfilter
# calls _linear_filter as generate_paths does.
try:
    _ufuncs = _load_extension("special", "_ufuncs")
except ModuleNotFoundError:
    _ufuncs = importlib.import_module("scipy.special")
ndtr, ndtri = _ufuncs.ndtr, _ufuncs.ndtri
try:
    _linear_filter = _load_extension("signal", "_sigtools")._linear_filter
except ModuleNotFoundError:
    _lfilter = importlib.import_module("scipy.signal").lfilter

    def _linear_filter(b, a, x, axis, zi):
        return _lfilter(b, a, x, axis=axis, zi=zi)


def versions() -> dict:
    """The versions the draws and the reports rest on, for manifest.json.

    The draw bits rest on two private scipy extension modules, loaded by
    _load_extension: ndtri from scipy.special._ufuncs and _linear_filter, the
    C function under lfilter, from scipy.signal._sigtools. The report bits
    also rest on the SIMD loops numpy dispatches to (its exp and log differ
    from libm's in the last bit under AVX-512). One filter draws every
    model, so no draw touches BLAS, and the binned density_estimate sums its
    taps in a loop. The only BLAS or LAPACK call left is leggauss, which
    takes its nodes from LAPACK's symmetric eigenvalues (the oracle's 16-
    and 32-node rules and the 128-node Plackett rule); they kept their bits
    under OpenBLAS's SkylakeX, Haswell, Prescott and Sandybridge kernels. So a
    bundle records the Python, numpy and scipy versions, the platform,
    numpy's baseline and enabled dispatch targets, and its BLAS build;
    tools/report_hashes.py's pinned digests record all but the platform.
    """
    config = np.show_config(mode="dicts")
    simd, blas = config["SIMD Extensions"], config["Build Dependencies"]["blas"]
    build = blas.get("openblas configuration")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "numpy_cpu_baseline": " ".join(simd["baseline"]),
        "numpy_cpu_dispatch": " ".join(simd["found"]),
        "blas": f"{blas['name']} {blas['version']}" + (f" ({build})" if build else ""),
    }


def paths_per_block(model: ProcessModel, n: int) -> int:
    """How many length-n paths of `model` one block draw holds (at least 1)."""
    return max(1, _BLOCK_VALUES // (n + len(model.correlations)))


def generate_paths(model: ProcessModel, n: int, seeds) -> np.ndarray:
    """Row r holds X_0..X_{n-1} of the path keyed by seeds[r].

    Each row equals generate_path(model, n, seeds[r]).values bit for bit.
    Every model is one filter, X = lfilter(weights or (1,), [1, -phi], e),
    on innovations e that start q = len(weights) - 1 values early, so that a
    moving average's X_0 is stationary. The rows go together in pieces of at
    most _BLOCK_VALUES values each: every row of a piece reads its uniforms
    from this thread's one Philox (_generator), re-keyed at the piece's
    stream position (_rekey), then the clamp, ndtri, scaling and the filter
    (the call lfilter makes, so lfilter's bits, and no BLAS) each run once
    on the piece, the filter state carried from piece to piece. _each_path
    hands it paths_per_block rows, so a path longer than a piece comes alone.
    """
    n = check_int(n, "path length", 1)
    seeds = [check_seed(s, "seed") for s in seeds]
    q = len(model.correlations)
    # the innovations, filtered in place; the paths are their last n columns
    eps = np.empty((len(seeds), n + q))
    b, a = np.array(model.weights or (1.0,)), np.array([1.0, -model.phi])
    zi = np.zeros((len(seeds), max(q, 1)))
    gen = _generator()
    for start in range(0, n + q, _BLOCK_VALUES):
        piece = eps[:, start : start + _BLOCK_VALUES]
        for row, seed in zip(piece, seeds):
            _rekey(gen.bit_generator, seed, start)
            gen.random(out=row)
        # One uniform per normal, by inverse CDF, so the draw count is
        # deterministic and a longer path extends a shorter one exactly.
        np.maximum(piece, _U_MIN, out=piece)
        ndtri(piece, out=piece)
        if model.phi and start == 0:
            # Exact stationary start: X_0 gets the marginal sd, the
            # recursion X_t = phi X_{t-1} + e_t does the rest. With phi = 0
            # X_0 needs no start (a moving average has its warm-up).
            piece[:, 1:] *= model.innovation_sd
            piece[:, 0] *= model.marginal_sd
        else:
            piece *= model.innovation_sd
        if model.phi or model.weights:  # else the filter is the identity
            piece[...], zi = _linear_filter(b, a, piece, 1, zi)
    return eps[:, q:]


def generate_path(model: ProcessModel, n: int, seed: int) -> SamplePath:
    """Draw X_0..X_{n-1} from the stationary law of `model`.

    The same (model, n, seed) triple always produces the same bits, and the
    first m values of a length-n path equal the length-m path for m <= n.
    """
    return SamplePath(values=generate_paths(model, n, (seed,))[0], model=model, seed=check_seed(seed, "seed"))


def _normal_density(x, s: float):
    """The N(0, s^2) density at a float array x; numpy warns of overflow from |x| = 1.3e154 s on."""
    return np.exp(-0.5 * (x / s) ** 2) / (s * _SQRT_2PI)


def _normal(x: np.ndarray, s: float, form: str):
    """The N(0, s^2) density (form "density") or distribution function ("cdf") at float array x; 0-d gives a float.

    Far out, x/s or its square overflows to inf, which gives the limits 0 and 0 or 1 exactly; the overflow is
    not reported, as at +-inf.
    """
    with np.errstate(over="ignore"):
        out = _normal_density(x, s) if form == "density" else ndtr(x / s)
    return out if out.ndim else float(out)


def marginal_density(model: ProcessModel, x):
    """Stationary one-dimensional density f(x); vectorized over x (util._real_points)."""
    return _normal(_real_points(x), model.marginal_sd, "density")


def marginal_cdf(model: ProcessModel, x):
    """Stationary one-dimensional distribution function F(x); vectorized over x (util._real_points)."""
    return _normal(_real_points(x), model.marginal_sd, "cdf")


def marginal_density_derivative_sup(model: ProcessModel) -> float:
    """sup_x |f'(x)|, attained at one marginal sd from the center."""
    s = model.marginal_sd
    return math.exp(-0.5) / (_SQRT_2PI * s * s)


def rho_mixing_coefficient(model: ProcessModel, lag: int) -> float:
    """The figure the dependence gates read as rho(lag), for an integer lag >= 1.

    rho(k) is the largest correlation between the closed linear spans of
    {X_t : t <= 0} and {X_t : t >= k} (Kolmogorov & Rozanov 1960), which for a
    Gaussian sequence is its rho-mixing coefficient. iid gives 0 and AR(1)
    |phi|^k, both exactly. A moving average of window order q is q-dependent,
    so rho(k) = 0 for k > q, exactly; inside the window the value returned is
    the largest |autocorrelation| at lags >= k, which is only a lower bound on
    rho(k): weights (1, 0.26) give 0.2435 where rho(1) is 0.26.
    """
    return _rho(model, check_int(lag, "lag", 1))


def _rho(model: ProcessModel, lag: float) -> float:
    """rho_mixing_coefficient without the check of its lag, the one rho every reader takes.

    A Markov model (ProcessModel.markov) decays as the pure power |phi|^lag, which also holds at real lags
    (0.0 ** 0 is 1.0), as the block-moment gaps need; any other model is a moving average of integer lags.
    """
    return abs(model.phi) ** lag if model.markov else max(map(abs, model.correlations[lag - 1 :]), default=0.0)


def mixing_tail_bound(model: ProcessModel, power: float = 1.0) -> dict:
    """Certificate for sum_i rho(2^i)^power over i = 0..40.

    Returns the partial sum and the first omitted term; for every built-in
    family the omitted tail is below 1e-12 (geometric decay or exact zeros),
    which is what the experiment gates record.
    """
    power = check_real(power, "power")
    if not power > 0.0:
        raise ValueError(f"power must be positive, got {power}")
    total = 0.0
    for i in range(41):
        total += _rho(model, 2**i) ** power
    first_omitted = _rho(model, 2**41) ** power
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
    terms = np.exp(-z * z / (1.0 + np.sin(t)))
    terms *= weights
    # each lag's row summed pairwise, alike for any number of lags, with no BLAS
    return half * np.add.reduce(terms, axis=1) / (2.0 * math.pi)


def plackett_lags(phi: float) -> int:
    """L = floor(ln 2 / -ln|phi|), the AR(1) lags whose covariance is integrated.

    Every later lag has |phi|^k <= 1/2. Raises ValueError when L exceeds
    MAX_PLACKETT_LAGS, that is for |phi| from about 1 - 6.61e-7 on, and for a
    phi that is not a real number with |phi| < 1 (util.check_real).
    """
    phi = check_real(phi, "phi")
    a = abs(phi)
    if not a < 1.0:
        raise ValueError(f"plackett_lags needs |phi| < 1, got phi={phi!r}")
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
    Plackett integrals over a moving average's window or the AR(1) lags up to
    plackett_lags, in one loop, and a Mehler series (_mehler_far_sum) for the
    far AR(1) lags, truncated below 1e-17 F(1-F). Without a correlated lag it
    is F(1-F) exactly. plackett_lags raises ValueError for |phi| from about
    1 - 6.61e-7 on, and _real_point for an x that is not one real point.
    """
    z = _real_point(x) / model.marginal_sd
    phi = model.phi
    # F(1-F) as Phi(z) Phi(-z): symmetric in z, and 1 - F loses no digits
    marginal = float(ndtr(z) * ndtr(-z))
    near = np.array(model.correlations) if phi == 0.0 else phi ** np.arange(1, plackett_lags(phi) + 1)
    total = 0.0
    # in chunks, so that the (lags x 128) Plackett scratch stays small for phi near 1 (up to 2^20 lags)
    for start in range(0, near.size, _LRV_LAG_CHUNK):
        total += float(np.sum(_plackett_covariances(z, near[start : start + _LRV_LAG_CHUNK])))
    if phi != 0.0 and math.exp(-z * z) > 0.0:
        total += _mehler_far_sum(z, phi, near.size)
    return marginal + 2.0 * total


def conditional_mean(model: ProcessModel, last_value: float, horizon: int) -> float:
    """E[X_{t+horizon} | X_t = last_value] for Markov models (ProcessModel.markov).

    A moving average with a correlated lag is not Markov, so it is refused;
    the answer is phi^horizon times the value (phi = 0 without AR(1)).
    """
    if not model.markov:
        raise ValueError("conditional_mean needs the Markov property; a moving average whose lags are "
                         "correlated is not Markov in its own value")
    last_value = check_real(last_value, "last_value")
    return model.phi ** check_int(horizon, "horizon", 1) * last_value
