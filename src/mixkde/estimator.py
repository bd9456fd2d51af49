"""Density and distribution estimators, exact centerings, and CLT statistics.

density_estimate and cdf_estimate give (1/(n h)) sum_i K((X_i - x)/h) and
(1/n) sum_i G_K((x - X_i)/h) on a grid, as exact finite sums; the runners
take them at any points of sorted data from _estimate, which normalises the
raw sums of _kernel_window_sums and _cdf_window_sums. One engine
(_window_sums) computes the sums by a direct, a prefix (compact kernels) or
a Hermite (Gaussian) path, chosen from the input alone. The exact centerings
E f_n(x) and E F_n(x) under the N(0, s^2) marginal come from one oracle
(_expected), which takes one point on Python floats and more as arrays,
gives a point the same bits either way, and raises ArithmeticError when
its 16- and 32-node rules disagree at a point. README "Window sums" and
"Oracles" give each path's error bound and the crossovers. _centring and
_standardized own the CLT statistic.
The normal CDF ndtr is scipy.special's, taken from mixkde.processes, which
loads it without the scipy.special package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache, partial

import numpy as np
from numpy.polynomial.legendre import leggauss

from .kernels import KernelSpec, evaluate, horner
from .processes import (
    ProcessModel,
    SamplePath,
    _normal,
    _normal_density,
    indicator_long_run_variance,
    marginal_cdf,
    marginal_density,
    ndtr,
)
from .util import _as_real, _echo, _real_point, _real_points, check_int, check_real

STRATEGIES = ("direct", "binned")

# Relative floor below which a bandwidth cannot resolve distinct data points.
_H_RANGE_FLOOR = 1e-12
_DENSITY_FLOOR = 1e-300  # the CLT statistics and gates need f(x) above it,
_CDF_EDGE = 1e-12  # and F(x) this far from 0 and 1


@dataclass(frozen=True)
class Grid:
    lo: float
    hi: float
    m: int

    def __post_init__(self):
        for name in ("lo", "hi"):
            object.__setattr__(self, name, check_real(getattr(self, name), f"grid {name}"))
        if not (self.lo < self.hi and math.isfinite(self.hi - self.lo)):
            raise ValueError(f"grid needs lo < hi and a finite span hi - lo, got [{self.lo}, {self.hi}]")
        object.__setattr__(self, "m", check_int(self.m, "grid m", 2))

    @property
    def spacing(self) -> float:
        return (self.hi - self.lo) / (self.m - 1)

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.m)


DEFAULT_GRID = Grid(-2.0, 2.0, 401)


@dataclass(frozen=True, eq=False)
class EstimateCurve:
    grid: Grid
    values: np.ndarray


def _check_h(value: float, xs: np.ndarray | None = None) -> float:
    """value as a float bandwidth (util._as_real): positive, finite and, given xs sorted, above its range floor.

    A NaN sorts last, so the range xs[-1] - xs[0] is NaN and the check passes.
    """
    h = _as_real(value)
    if not 0.0 < h < math.inf:
        raise ValueError(f"bandwidth must be a positive finite number, got {_echo(value)}")
    if xs is not None and xs.size > 1:
        rng = float(xs[-1] - xs[0])
        if rng > 0.0 and h < _H_RANGE_FLOOR * rng:
            raise ValueError(
                f"bandwidth {h:g} is below {_H_RANGE_FLOOR:g} of the data range {rng:g}; "
                "sums of point spikes are not a usable estimate"
            )
    return h


def _kernel_window_sums(xs: np.ndarray, kernel: KernelSpec, h: float, pts: np.ndarray) -> np.ndarray:
    """sum_i K((X_i - x)/h) for each x in pts; xs must be sorted ascending."""
    sums = _window_sums(xs, kernel, h, pts, "density")[0]
    return sums if kernel.pieces is not None else sums / _SQRT_2PI


def _cdf_window_sums(xs: np.ndarray, kernel: KernelSpec, h: float, pts: np.ndarray) -> np.ndarray:
    """sum_i G_K((x - X_i)/h) for each x in pts; xs must be sorted ascending.

    Values below the window (for the Gaussian, below the buckets in reach)
    contribute exactly 1 each.
    """
    sums, below = _window_sums(xs, kernel, h, pts, "cdf")
    return below + sums


def _estimate(xs: np.ndarray, kernel: KernelSpec, h: float, pts: np.ndarray, form: str) -> np.ndarray:
    """f_n = S/(n h) (form "density") or F_n = clip(S/n, 0, 1) ("cdf") at pts; xs sorted, n = xs.size."""
    if form == "density":
        return _kernel_window_sums(xs, kernel, h, pts) / (xs.size * h)
    return np.clip(_cdf_window_sums(xs, kernel, h, pts) / xs.size, 0.0, 1.0)


# The window-sum engine (README "Window sums"). A compact kernel is a
# polynomial in u = (X_i - x)/h on each of its pieces, so a window sum is a
# sum of polynomial values over an index range of the sorted data. Windows
# holding at most this many terms per data value, in total over all points,
# are summed term by term.
_DIRECT_TERMS_PER_VALUE = 2
# Ragged sums (the direct and Hermite paths) gather at most this many terms at
# a time (a larger range is sliced alone), which bounds their scratch memory
# and keeps it in cache.
# Against 2^16, this size left the sums' bits unchanged and was as fast or
# faster on 3-point sums and on 1601-point grids at small h.
_DIRECT_CHUNK = 1 << 12
# Both grid paths take the powers of the recentred values over groups of whole
# value buckets holding at most this many values (a larger bucket is a group
# of its own), so their scratch stays in cache whatever n is. On uniform_as
# paths (n = 2^12..2^20, 3267 points) 2^15 and 2^16 were the fastest and
# level, ahead of 2^14, 2^12 and no grouping; the smaller keeps less scratch.
_MOMENT_CHUNK = 1 << 15
# Prefix sums restart in value buckets this many bandwidths wide: a window
# 2h wide then touches at most two buckets, every value lies within 2h of its
# bucket's centre, and every centre a window uses lies within 3h of its x.
_BUCKET_WIDTH = 4.0
# Gaussian series length: moments M_k for k below this, over buckets h wide.
# The moments cost about this many passes over the data, so the Gaussian
# stays on the direct path while its windows hold at most this many terms
# per data value.
_HERMITE_TERMS = 20
# The Gaussian's terms on the direct path, in u = (X_i - x)/h; the density's
# factor 1/sqrt(2 pi) is applied to the sums (_kernel_window_sums)
_GAUSSIAN_TERMS = {"density": lambda u: np.exp(-0.5 * u * u), "cdf": lambda u: ndtr(-u)}
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _window_sums(xs: np.ndarray, kernel: KernelSpec, h: float, pts: np.ndarray, form: str):
    """(sum over the window of the kernel's `form`, count below it) per point."""
    if kernel.pieces is None:
        reach = kernel.effective_radius
        edges, terms, per_value = (-reach, reach), [_GAUSSIAN_TERMS[form]], _HERMITE_TERMS
    else:
        edges = [kernel.pieces[0].lo] + [piece.hi for piece in kernel.pieces]
        coefs = [getattr(piece, form) for piece in kernel.pieces]
        terms = [partial(horner, coef) for coef in coefs]
        per_value = _DIRECT_TERMS_PER_VALUE
    # piece p holds the X_i with edges[p] <= u < edges[p + 1]; the last one is closed
    bounds = np.array([
        xs.searchsorted(pts + e * h, side="right" if k == len(edges) - 1 else "left")
        for k, e in enumerate(edges)
    ])
    if (bounds[-1] - bounds[0]).sum() <= per_value * xs.size:
        return _direct_sums(xs, h, pts, bounds, terms), bounds[0]
    if kernel.pieces is None:
        return _hermite_sums(xs, h, pts, form, reach)
    return _prefix_sums(xs, h, pts, bounds, coefs), bounds[0]


def _runs(sizes: np.ndarray):
    """Runs j:k of consecutive sizes adding up to at most _DIRECT_CHUNK, or one larger size."""
    ends = sizes.cumsum()
    j = 0
    while j < sizes.size:
        k = max(j + 1, int(ends.searchsorted(ends[j] - sizes[j] + _DIRECT_CHUNK, side="right")))
        yield j, k
        j = k


def _ragged_sums(starts: np.ndarray, sizes: np.ndarray, pts: np.ndarray, terms) -> np.ndarray:
    """sum of terms(idx, x) over the range idx = starts[i] + arange(sizes[i]), x = pts[i], per i.

    Ranges are gathered one run of _runs at a time, x repeated once per index,
    and summed pairwise per range; a range that is a run alone is a slice.
    """
    out = np.zeros(sizes.size)
    for j, k in _runs(sizes):
        if k == j + 1:  # one range: a slice
            if sizes[j]:
                out[j] += np.add.reduceat(terms(slice(starts[j], starts[j] + sizes[j]), pts[j]), [0])[0]
            continue
        size = sizes[j:k]
        offsets = size.cumsum() - size
        idx = np.arange(offsets[-1] + size[-1]) + (starts[j:k] - offsets).repeat(size)
        full = size > 0
        out[j:k][full] += np.add.reduceat(terms(idx, pts[j:k].repeat(size)), offsets[full])
    return out


def _direct_sums(xs, h, pts, bounds, terms) -> np.ndarray:
    """Each window's terms, evaluated and summed (pairwise, per window)."""
    return sum(
        _ragged_sums(bounds[p], bounds[p + 1] - bounds[p], pts, lambda idx, x: term((xs[idx] - x) / h))
        for p, term in enumerate(terms)
    )


def _buckets(xs: np.ndarray, width: float):
    """First index, number and centre of each nonempty value bucket of sorted xs.

    Bucket b holds the values with floor((X - X_0)/width) = b.
    """
    n = xs.size
    span = xs[-1] - xs[0]
    if span < n * width:  # at most n buckets: bisect for the first value of each
        left = xs[0] + width * np.arange(int(span / width) + 1)
        starts = np.searchsorted(xs, left)
        keep = np.append(starts[1:], n) > starts
        return starts[keep], np.flatnonzero(keep), left[keep] + 0.5 * width
    # values sparser than buckets: number the bucket of every value
    q = xs - xs[0]
    q /= width
    np.floor(q, out=q)
    starts = np.concatenate(([0], np.flatnonzero(q[1:] != q[:-1]) + 1))
    ids = q[starts]
    return starts, ids, xs[0] + (ids + 0.5) * width


def _power_sums(xs, starts, ends, centers, cuts, degree, scale) -> np.ndarray:
    """Sums of t^j, t = (X - c)/scale, over the stretches between sorted cuts: row j - 1.

    Bucket b is xs[starts[b]:ends[b]], centre c = centers[b]; buckets ascend,
    each start is a cut, and a stretch ends at the next cut or its bucket's
    end. t and its powers j <= degree are formed one group of adjacent whole
    buckets at a time (_MOMENT_CHUNK values at most, or one larger bucket).
    """
    out = np.empty((degree, cuts.size))
    columns = np.append(cuts.searchsorted(starts), cuts.size)  # each bucket's first stretch
    counts = ends - starts
    # the buckets that do not start where the one before ends; a group stops before the next
    breaks = (np.flatnonzero(starts[1:] != ends[:-1]) + 1).tolist() + [starts.size]
    b0 = g = 0
    while b0 < starts.size:
        g += breaks[g] == b0
        b1 = min(breaks[g], max(b0 + 1, int(ends.searchsorted(starts[b0] + _MOMENT_CHUNK, side="right"))))
        start, c0, c1 = starts[b0], columns[b0], columns[b1]
        t = np.repeat(centers[b0:b1], counts[b0:b1])
        np.subtract(xs[start : ends[b1 - 1]], t, out=t)
        if scale != 1.0:  # a division by 1.0 keeps every bit but costs a pass
            t /= scale
        # t^j by ascending j: degree 2 squares t in place, a higher one keeps one power beside t
        y = t
        for j in range(1, degree + 1):
            if j == 2:
                y = np.multiply(t, t, out=t if degree == 2 else None)
            elif j > 2:
                y *= t
            out[j - 1, c0:c1] = np.add.reduceat(y, cuts[c0:c1] - start)
        b0 = b1
    return out


def _prefix_sums(xs, h, pts, bounds, coefs) -> np.ndarray:
    """Window sums from moments accumulated within value buckets.

    Values are recentred on the centre c_b of their bucket, t = X - c_b.
    The moments sum t^j over each stretch between consecutive window bounds
    are summed pairwise (_power_sums), then accumulated with running sums
    that restart in every bucket, so their size and rounding are those of
    one bucket, not of all n values. A window part in bucket b sums the
    polynomial about the bucket centre: sum P(u) = sum_j P^(j)(d)/j! M_j/h^j,
    with u = t/h + d and d = (c_b - x)/h.
    """
    n, m = xs.size, pts.size
    width = _BUCKET_WIDTH * h
    starts, _, centers = _buckets(xs, width)
    ends = np.append(starts[1:], n)

    # split each nonempty window at the end of the bucket it starts in
    lo, hi = bounds[:-1].ravel(), bounds[1:].ravel()
    piece = np.repeat(np.arange(len(coefs)), m)
    point = np.tile(np.arange(m), len(coefs))
    full = hi > lo
    lo, hi, piece, point = lo[full], hi[full], piece[full], point[full]
    bucket = np.searchsorted(starts, lo, side="right") - 1
    cut = ends[bucket]
    over = hi > cut
    a = np.concatenate((lo, cut[over]))
    e = np.concatenate((np.minimum(hi, cut), hi[over]))
    bucket = np.concatenate((bucket, bucket[over] + 1))
    piece = np.concatenate((piece, piece[over]))
    point = np.concatenate((point, point[over]))

    # every part is a run of the stretches between consecutive cuts
    cuts = np.sort(np.concatenate((starts, a, e)))
    cuts = cuts[: np.searchsorted(cuts, n)]
    cuts = cuts[np.append(True, cuts[1:] != cuts[:-1])]
    first = np.searchsorted(cuts, starts)  # first stretch of each bucket
    last = np.append(first[1:], cuts.size) - 1
    sa, se, sb = np.searchsorted(cuts, a), np.searchsorted(cuts, e), first[bucket]
    at_end = se == last[bucket] + 1

    degree = max(len(c) for c in coefs) - 1
    stretches = _power_sums(xs, starts, ends, centers, cuts, degree, 1.0)

    moments = np.empty((degree + 1, a.size))
    moments[0] = e - a
    for j, stretch in enumerate(stretches, 1):
        totals = np.add.reduceat(stretch, first)
        # each bucket's last stretch absorbs the bucket total, so the running
        # sum comes back to (nearly) zero as the next bucket starts
        stretch[last] -= totals
        run = np.concatenate(([0.0], np.cumsum(stretch)))
        moments[j] = np.where(at_end, totals[bucket] - (run[sa] - run[sb]), run[se] - run[sa])
        moments[j] /= h**j

    d = (centers[bucket] - pts[point]) / h
    table = np.zeros((len(coefs), degree + 1))
    for p, coef in enumerate(coefs):
        table[p, : len(coef)] = coef
    coef = table[piece]
    value = np.zeros(a.size)
    for j in range(degree + 1):
        # P^(j)(d)/j! = sum_k C(k, j) coef_k d^(k - j), by Horner's rule in d
        deriv = np.zeros(a.size)
        for k in range(degree, j - 1, -1):
            deriv = deriv * d + math.comb(k, j) * coef[:, k]
        value += deriv * moments[j]
    return np.bincount(point, weights=value, minlength=m)


def _hermite_sums(xs, h, pts, form, reach):
    """Gaussian window sums from Hermite moments of value buckets h wide.

    Values are recentred on their bucket's centre c, t = (X - c)/h with
    |t| <= 1/2, and s = (x - c)/h. Each bucket a point reaches (one that
    meets [x - reach h, x + reach h]) contributes, with M_k = sum t^k/k!,

        sum phi(s - t) = phi(s) sum_k He_k(s) M_k                (density)
        sum Phi(s - t) = Phi(s) M_0 - phi(s) sum_k He_(k-1)(s) M_k  (CDF)

    and every value in a bucket below the reach counts 1 to the CDF. Moments
    are taken only for buckets that some point reaches. As on the direct
    path, the density sums leave out phi's factor 1/sqrt(2 pi).
    """
    starts, ids, centers = _buckets(xs, h)
    v = (pts - xs[0]) / h
    first = ids.searchsorted(np.floor(v - reach), side="left")
    stop = ids.searchsorted(np.floor(v + reach), side="right")
    bucket_ends = np.append(starts, xs.size)
    below = bucket_ends[first]

    # moments of the buckets some point reaches, one column each
    opened = np.bincount(first, minlength=ids.size + 1) - np.bincount(stop, minlength=ids.size + 1)
    reached = np.cumsum(opened[:-1]) > 0
    starts, ends, centers = starts[reached], bucket_ends[1:][reached], centers[reached]
    moments = np.empty((_HERMITE_TERMS, starts.size))
    moments[0] = ends - starts
    # one stretch per bucket: the cuts are the bucket starts
    moments[1:] = _power_sums(xs, starts, ends, centers, starts, _HERMITE_TERMS - 1, h)
    moments[1:] /= [[math.factorial(k)] for k in range(1, _HERMITE_TERMS)]

    def terms(idx, x):
        s = (x - centers[idx]) / h
        gauss = np.exp(-0.5 * s * s)
        if form == "density":
            return gauss * _hermite_series(s, moments[:, idx])
        return ndtr(s) * moments[0, idx] - gauss / _SQRT_2PI * _hermite_series(s, moments[1:, idx])

    column = np.concatenate(([0], np.cumsum(reached)))[first]
    return _ragged_sums(column, stop - first, pts, terms), below


def _hermite_series(s: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum_k He_k(s) rows[k], by Clenshaw's recurrence for He_(k+1) = s He_k - k He_(k-1)."""
    b1 = np.zeros_like(s)
    b2 = np.zeros_like(s)
    for k in range(len(rows) - 1, -1, -1):
        b1, b2 = rows[k] + s * b1 - (k + 1) * b2, b1
    return b1


def _linear_bin_counts(values: np.ndarray, grid: Grid) -> np.ndarray:
    pos = (values - grid.lo) / grid.spacing
    idx = np.floor(pos).astype(np.int64)
    np.clip(idx, 0, grid.m - 2, out=idx)
    frac = pos - idx
    counts = np.zeros(grid.m)
    np.add.at(counts, idx, 1.0 - frac)
    np.add.at(counts, idx + 1, frac)
    return counts


def binned_accuracy_bound(kernel: KernelSpec, h: float, spacing: float) -> float:
    """Documented per-point bound for |binned - direct| on a covering grid.

    Linear binning moves each observation by at most one cell, so with a
    kernel of Lipschitz constant L every summand changes by at most
    L*spacing/h; the factor 10 absorbs the accumulation across the window.
    Requires spacing <= h (cells must resolve the kernel) and a Lipschitz
    kernel, both of which density_estimate enforces for the binned strategy.
    h is admitted as a bandwidth (_check_h), spacing as a positive real number.
    """
    if kernel.lipschitz_const is None:
        raise ValueError("no accuracy bound without a Lipschitz constant")
    h, spacing = _check_h(h), check_real(spacing, "grid spacing")
    if not spacing > 0.0:
        raise ValueError(f"grid spacing must be positive, got {spacing!r}")
    return 10.0 * kernel.lipschitz_const * spacing / h


def density_estimate(
    path: SamplePath,
    kernel: KernelSpec,
    h: float,
    grid: Grid = DEFAULT_GRID,
    strategy: str = "direct",
) -> EstimateCurve:
    """Kernel density estimate on a grid, as an exact sum or binned.

    The direct strategy is the defining sum. The binned strategy distributes
    each observation linearly over its two neighboring grid nodes and then
    convolves once with kernel taps; it must agree with direct within
    binned_accuracy_bound per point, and rejects grids that do not cover
    the data inflated by the kernel window.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    xs = np.sort(path.values)
    h = _check_h(h, xs)
    if strategy == "direct":
        return EstimateCurve(grid=grid, values=_estimate(xs, kernel, h, grid.points, "density"))

    if kernel.lipschitz_const is None:
        raise ValueError(
            "binned evaluation needs a Lipschitz kernel for its error bound; "
            f"the {kernel.family} kernel is flagged as not Lipschitz"
        )
    radius = kernel.effective_radius * h
    if grid.lo > xs[0] - radius or grid.hi < xs[-1] + radius:
        raise ValueError(
            f"binned evaluation needs the grid to cover [{xs[0] - radius:g}, "
            f"{xs[-1] + radius:g}], got [{grid.lo:g}, {grid.hi:g}]"
        )
    spacing = grid.spacing
    if spacing > h:
        raise ValueError(
            f"binned evaluation needs grid spacing <= h, got spacing {spacing:g} > h {h:g}"
        )
    counts = _linear_bin_counts(xs, grid)
    m_taps = int(math.ceil(radius / spacing))
    offsets = np.arange(-m_taps, m_taps + 1, dtype=float)
    taps = evaluate(kernel, offsets * spacing / h)
    values = np.convolve(counts, taps, mode="same") / (xs.size * h)
    return EstimateCurve(grid=grid, values=values)


def cdf_estimate(path: SamplePath, kernel: KernelSpec, h: float, grid: Grid = DEFAULT_GRID) -> EstimateCurve:
    """Smoothed distribution estimate (1/n) sum_i G_K((x - X_i)/h) on a grid.

    Every kernel family is symmetric with unit mass, which keeps the estimate
    a genuine distribution function up to the kernel window at the edges.
    """
    xs = np.sort(path.values)
    h = _check_h(h, xs)
    return EstimateCurve(grid=grid, values=_estimate(xs, kernel, h, grid.points, "cdf"))


def _panel_rules(coarse: tuple, fine: tuple) -> tuple:
    """Two (nodes, weights) rules as the oracle takes them: (nodes, split, weights).

    Both rules' nodes and weights lie on one axis of coarse + fine entries,
    the coarse rule's first `split`, so that a panel's terms are taken once.
    """
    return np.concatenate((coarse[0], fine[0])), coarse[0].size, np.concatenate((coarse[1], fine[1]))


@cache
def _rules() -> tuple:
    """The oracle's 16- and 32-node Gauss-Legendre rules (_panel_rules), built on first use."""
    return _panel_rules(leggauss(16), leggauss(32))


_ORACLE_TOL = 1e-10
_MARGINAL_RADIUS = 40.0


def _panels(piece, h: float, s: float) -> int:
    """How many equal panels a piece takes, at every x: enough for its widest part within the reach
    |x + h u| <= 40 s to have panels at most one s wide in x + h u."""
    return max(1, math.ceil(min((piece.hi - piece.lo) * h / s, 2.0 * _MARGINAL_RADIUS)))


def _node_sum(terms):
    """A rule's weighted node terms added in node order, with no BLAS: one point's list of Python floats left to right,
    a (k, m >= 2) array down axis 0, row by row (np.add.reduce adds a (k, 1) array pairwise, so one point cannot)."""
    if type(terms) is not list:
        return np.add.reduce(terms, axis=0)
    terms = iter(terms)
    total = next(terms)
    for term in terms:
        total += term
    return total


def _expected(model: ProcessModel, kernel: KernelSpec, h: float, x, form: str):
    """E f_n(x) (form "density") or E F_n(x) ("cdf"); see README "Oracles".

    A compact kernel asked for one point takes _expected_point, for more
    points _expected_points; a point's value is the same alone and in any set.
    """
    h = _check_h(h)
    points = _real_points(x)
    if kernel.pieces is None:  # the marginal N(0, s^2) smoothed by N(0, h^2)
        s = check_real(math.hypot(model.marginal_sd, h), "the smoothed sd sqrt(s^2 + h^2)")
        return _normal(points, s, form)
    if points.size != 1:
        # at far-out points or a tiny h the reach and x + h u overflow to inf, which the
        # clipping and the marginals turn into the limits
        with np.errstate(over="ignore"):
            return _expected_points(model, kernel.pieces, h, points, form)
    value = _expected_point(model, kernel.pieces, h, points.item(), form)
    return np.full(points.shape, value) if points.ndim else value


def _expected_points(model: ProcessModel, pieces, h: float, points: np.ndarray, form: str) -> np.ndarray:
    """_expected at every point at once: each panel is one (48, m) array, nodes down axis 0, added in node order."""
    pts = points.ravel()
    s = model.marginal_sd
    limit = _MARGINAL_RADIUS * s
    nodes, split, weights = _rules()
    nodes, weights = nodes[:, None], weights[:, None]
    coarse, fine = np.zeros(pts.size), np.zeros(pts.size)
    reach = (np.array([[-limit], [limit]]) - pts) / h  # |x + h u| <= limit
    for piece in pieces:
        coef = getattr(piece, form)
        a, b = np.minimum(np.maximum(reach, piece.lo), piece.hi)  # the piece, clipped to the reach
        panels = _panels(piece, h, s)
        half = 0.5 * (b - a) / panels
        for k in range(panels):
            u = (a + (2 * k + 1) * half) + half * nodes
            terms = horner(coef, u)
            terms *= _normal_density(pts + h * u, s)
            terms *= weights
            coarse += _node_sum(terms[:split]) * half
            fine += _node_sum(terms[split:]) * half
    if form == "cdf":
        below = marginal_cdf(model, pts + h * pieces[0].lo)
        coarse, fine = below + h * coarse, below + h * fine
    _check_rules(coarse, fine)
    return fine.reshape(points.shape)


def _expected_point(model: ProcessModel, pieces, h: float, x: float, form: str) -> float:
    """_expected at one point x.

    Every per-point quantity is a Python float; only the node arithmetic is
    numpy, on the 48 nodes that _expected_points takes for this point, and
    each rule's weighted terms are added left to right (_node_sum), so every
    operation, and so every bit, is the same. A piece outside the reach has
    width 0 and adds exactly 0, so it is skipped. A Python float overflows
    to inf without a warning, and wherever a piece has width, x + h u stays
    within a few hundred s of 0 (the reach plus rounding), so this path
    needs no errstate.
    """
    s = model.marginal_sd
    limit = _MARGINAL_RADIUS * s
    nodes, split, weights = _rules()
    coarse = fine = 0.0
    reach_lo, reach_hi = (-limit - x) / h, (limit - x) / h
    for piece in pieces:
        coef = getattr(piece, form)
        a, b = min(max(reach_lo, piece.lo), piece.hi), min(max(reach_hi, piece.lo), piece.hi)
        if a == b:
            continue
        panels = _panels(piece, h, s)
        half = 0.5 * (b - a) / panels
        for k in range(panels):
            u = (a + (2 * k + 1) * half) + half * nodes
            terms = (horner(coef, u) * _normal_density(x + h * u, s) * weights).tolist()
            coarse += _node_sum(terms[:split]) * half
            fine += _node_sum(terms[split:]) * half
    if form == "cdf":
        below = float(ndtr((x + h * pieces[0].lo) / s))  # F(x + h lo), as marginal_cdf takes it
        coarse, fine = below + h * coarse, below + h * fine
    _check_rules(coarse, fine)
    return fine


def _check_rules(coarse, fine) -> None:
    """Raise ArithmeticError where the rules differ by more than _ORACLE_TOL times max(1, |value|).

    coarse and fine are one point's Python floats or arrays of points; each
    point is held to its own tolerance, so a set raises exactly when one of
    its points alone would, and with that point's numbers.
    """
    if isinstance(fine, np.ndarray):  # the first point over its tolerance, if any
        over = np.flatnonzero(np.abs(fine - coarse) > _ORACLE_TOL * np.maximum(1.0, np.abs(fine)))
        coarse, fine = (float(coarse[over[0]]), float(fine[over[0]])) if over.size else (0.0, 0.0)
    gap, tol = abs(fine - coarse), _ORACLE_TOL * max(1.0, abs(fine))
    if gap > tol:
        raise ArithmeticError(f"Gauss-Legendre rules differ by {gap:.3g}, above {tol:.3g}")


def expected_density(model: ProcessModel, kernel: KernelSpec, h: float, x):
    """E f_n(x) = integral K(u) f(x + h u) du at a scalar or array x.

    This is the exact expectation of the estimator under the stationary
    marginal; it depends on n only through h.
    """
    return _expected(model, kernel, h, x, "density")


def expected_cdf(model: ProcessModel, kernel: KernelSpec, h: float, x):
    """E F_n(x) = E G_K((x - X)/h) at a scalar or array x."""
    return _expected(model, kernel, h, x, "cdf")


def expected_density_curve(
    model: ProcessModel, kernel: KernelSpec, h: float, grid: Grid
) -> EstimateCurve:
    """E f_n over a whole grid."""
    values = _expected(model, kernel, h, grid.points, "density")
    return EstimateCurve(grid=grid, values=values)


def bias(model: ProcessModel, kernel: KernelSpec, h: float, x):
    """E f_n(x) - f(x), the exact smoothing bias at a scalar or array x."""
    return _expected(model, kernel, h, x, "density") - marginal_density(model, x)


def _centring(model: ProcessModel, kernel: KernelSpec, h: float, pts, centre: str):
    """(centres, variances) of the CLT statistic of `centre` at each of pts.

    "density": E f_n(x) and |K|_2^2 f(x); "cdf": E F_n(x) and sigma_LR^2(x);
    "true": F(x) and sigma_LR^2(x). One oracle call takes all of pts, and
    gives each point the bits it has alone.
    """
    pts = np.asarray(pts, dtype=float)
    if centre == "density":
        return expected_density(model, kernel, h, pts), kernel.l2_norm_sq * marginal_density(model, pts)
    centres = expected_cdf(model, kernel, h, pts) if centre == "cdf" else marginal_cdf(model, pts)
    return centres, np.array([indicator_long_run_variance(model, x) for x in pts])


# The statistics' centres and variances, once per (model, kernel, h, pts, centre)
# key: every path of a replicate loop shares them, so no caller may write to
# them. What raises is not cached, and the bound keeps a scan over many keys
# from growing the cache.
_standardization = lru_cache(maxsize=256)(_centring)


def _standardized(xs, kernel: KernelSpec, h: float, pts, form: str, centres, variances) -> np.ndarray:
    """factor (estimate - centres) / sqrt(variances) at pts, xs sorted, n = xs.size.

    The estimate is f_n with factor sqrt(n h) (form "density") or F_n with sqrt(n) ("cdf").
    """
    factor = math.sqrt(xs.size * h) if form == "density" else math.sqrt(xs.size)
    return factor * (_estimate(xs, kernel, h, pts, form) - centres) / np.sqrt(variances)


def _statistic(path: SamplePath, kernel: KernelSpec, h: float, x: float, form: str):
    """The statistic of `form` at the checked point x, its centre and variance read from the cache."""
    xs = np.sort(path.values)
    h = _check_h(h, xs)
    centres, variances = _standardization(path.model, kernel, h, (x,), form)
    return _standardized(xs, kernel, h, np.array([x]), form, centres, variances)[0]


def clt_statistic(path: SamplePath, kernel: KernelSpec, h: float, x: float) -> float:
    """sqrt(n h) (f_n(x) - E f_n(x)) / sqrt(|K|_2^2 f(x)).

    Centered at the exact expectation, so the statistic is mean-zero at every
    finite n and its limit law is standard normal when the usual bandwidth
    and dependence conditions hold. The centre and scale are fixed by
    (model, kernel, h, x) and computed once per key (_standardization, the
    cached _centring); only f_n(x) is summed on every call, and _standardized
    gives the formula, as for the CLT runners. x must be one real point
    other than NaN (_real_point).
    """
    x = _real_point(x)
    if not marginal_density(path.model, x) > _DENSITY_FLOOR:
        raise ValueError(f"marginal density vanishes at x={x:g}")
    return _statistic(path, kernel, h, x, "density")


def cdf_clt_statistic(path: SamplePath, kernel: KernelSpec, h: float, x: float) -> float:
    """sqrt(n) (F_n(x) - E F_n(x)) / sigma_LR(x).

    sigma_LR^2(x) is the long-run variance of the indicator series
    1{X_t <= x} (indicator_long_run_variance), the limit variance of
    sqrt(n)(F_n(x) - F(x)) under summable dependence; for iid models it is
    F(x)(1 - F(x)). E F_n(x) and sigma_LR(x) are fixed by (model, kernel, h, x)
    and computed once per key, and x is checked, as for clt_statistic.
    """
    x = _real_point(x)
    fx = marginal_cdf(path.model, x)
    if not (_CDF_EDGE < fx < 1.0 - _CDF_EDGE):
        raise ValueError(f"F(x) = {fx:g} is too close to 0 or 1 for standardization")
    return _statistic(path, kernel, h, x, "cdf")
