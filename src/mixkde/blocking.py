"""Dyadic big/small block partitions and a Markov block-moment diagnostic.

Each dyadic level k splits the index window [2^k, 2^{k+1}) into r_k pairs of
a big block of length p_k = [2^{alpha k}] followed by a small block of length
q_k = [2^{beta k}], plus one trailing small block that absorbs the remainder
(possibly empty). Big blocks carry the signal, small blocks the decoupling
gaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .processes import generate_path  # noqa: F401  (perfbench/spans.py traces this name)
from .processes import (
    ProcessModel, SamplePath, conditional_mean, generate_paths, paths_per_block, rho_decay,
)
from .util import _run_replicates, clamped_log, derive_seed

_BRACKET_SCAN_MAX = 64
# The largest level accepted: a 2^21-value path and fewer than 2^19 blocks.
MAX_LEVEL = 20


def _dyadic_floor(exponent: float) -> int:
    """[2^exponent] with a snap guard for products that land on integers.

    0.6 * 5 is not exactly 3 in binary, so 2.0**(0.6*5) can fall a hair under
    8; values within 1e-9 (relative) of an integer are snapped before the
    floor so the partition is the one the real-number formula defines.
    """
    t = 2.0**exponent
    nearest = round(t)
    if nearest > 0 and abs(t - nearest) <= 1e-9 * max(1.0, t):
        return int(nearest)
    return int(math.floor(t))


@dataclass(frozen=True)
class BlockPartition:
    k: int
    alpha: float
    beta: float
    p_k: int
    q_k: int
    r_k: int
    big_blocks: tuple[tuple[int, int], ...]
    small_blocks: tuple[tuple[int, int], ...]
    bracket_ok: bool
    bracket_k0: int

    @property
    def window(self) -> tuple[int, int]:
        return (2**self.k, 2 ** (self.k + 1))


def _check_block_params(alpha: float, beta: float) -> None:
    if not (0.0 < beta < alpha < 1.0):
        raise ValueError(
            f"block exponents must satisfy 0 < beta < alpha < 1, got alpha={alpha}, beta={beta}"
        )


def _level_sizes(k: int, alpha: float, beta: float) -> tuple[int, int, int]:
    p = _dyadic_floor(alpha * k)
    q = _dyadic_floor(beta * k)
    r = (2**k) // (p + q)
    return p, q, r


def bracket_threshold(alpha: float, beta: float) -> int:
    """Smallest k0 with r_k in [2^{(1-alpha)k}/2, 2*2^{(1-alpha)k}] for all
    k in [k0, 64]; the block-count bracket is asymptotic and this records
    where it starts holding on the scanned range."""
    _check_block_params(alpha, beta)
    k0 = _BRACKET_SCAN_MAX + 1
    for k in range(_BRACKET_SCAN_MAX, 0, -1):
        p, q, r = _level_sizes(k, alpha, beta)
        if p + q > 2**k:
            break
        target = 2.0 ** ((1.0 - alpha) * k)
        if 0.5 * target <= r <= 2.0 * target:
            k0 = k
        else:
            break
    return k0


def _checked_level(k: int, alpha: float, beta: float) -> tuple[int, int, int]:
    """(p_k, q_k, r_k) of a level that holds a usable partition.

    Rejects parameter order violations, levels above MAX_LEVEL, levels too
    small to hold one big/small pair, and degenerate levels where the big
    block is not longer than the small one (at k = 1 every admissible
    (alpha, beta) collapses to p = q = 1, which leaves nothing to distinguish
    the two roles).
    """
    _check_block_params(alpha, beta)
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError(f"level k must be an integer >= 1, got {k!r}")
    if k > MAX_LEVEL:
        raise ValueError(f"level k={k} is above the largest level {MAX_LEVEL}")
    p, q, r = _level_sizes(k, alpha, beta)
    if p + q > 2**k:
        raise ValueError(
            f"level k={k} is too small: one big/small pair needs p+q={p + q} indices "
            f"but the window holds only {2**k}"
        )
    if p <= q:
        raise ValueError(
            f"degenerate blocks at k={k}: big length p={p} does not exceed small length q={q}, "
            "so the level carries no usable big/small structure"
        )
    return p, q, r


def build_partition(k: int, alpha: float, beta: float) -> BlockPartition:
    """The level-k partition of [2^k, 2^{k+1}) into big/small blocks.

    Raises ValueError for the levels and exponents _checked_level rejects.
    """
    p, q, r = _checked_level(k, alpha, beta)
    base = 2**k
    big = []
    small = []
    for m in range(1, r + 1):
        start = base + (m - 1) * (p + q)
        big.append((start, start + p))
        small.append((start + p, start + p + q))
    tail_start = base + r * (p + q)
    small.append((tail_start, 2 * base))
    k0 = bracket_threshold(alpha, beta)
    target = 2.0 ** ((1.0 - alpha) * k)
    ok = 0.5 * target <= r <= 2.0 * target
    return BlockPartition(
        k=k,
        alpha=alpha,
        beta=beta,
        p_k=p,
        q_k=q,
        r_k=r,
        big_blocks=tuple(big),
        small_blocks=tuple(small),
        bracket_ok=ok,
        bracket_k0=k0,
    )


def partition_to_csv(partition: BlockPartition, path) -> None:
    """Block table as CSV rows (block_type, index, start, end)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("block_type,index,start,end\n")
        for m, (s, e) in enumerate(partition.big_blocks, start=1):
            fh.write(f"big,{m},{s},{e}\n")
        for m, (s, e) in enumerate(partition.small_blocks, start=1):
            fh.write(f"small,{m},{s},{e}\n")


def block_sums(path: SamplePath, partition: BlockPartition, transform=None):
    """Per-block sums (big, small) of transform(X_t) over the level window.

    transform maps an ndarray elementwise (identity when None). The small
    array has one extra entry for the trailing block; an empty tail sums to
    exactly 0. The blocks tile the window, so big.sum() + small.sum() equals
    the window total: bit for bit whenever the additions are exact (integer
    values), and to the last few ulps for general floats, where summation
    order is the only difference.
    """
    lo, hi = partition.window
    if len(path) < hi:
        raise ValueError(
            f"path of length {len(path)} is too short for level k={partition.k}, "
            f"which needs indices up to {hi - 1}"
        )
    vals = path.values if transform is None else np.asarray(transform(path.values))
    # per-block direct sums: no shared accumulator, so integer-valued inputs
    # satisfy the cover identity bit for bit
    big = np.array([float(np.sum(vals[s:e])) for s, e in partition.big_blocks])
    small = np.array([float(np.sum(vals[s:e])) for s, e in partition.small_blocks])
    return big, small


def _interpolated_gap(beta: float, x: float) -> float:
    """q(x) for real x >= 0: linear between the integer gap lengths q_j."""
    j = math.floor(x)
    frac = x - j
    qj = _dyadic_floor(beta * j)
    if frac == 0.0:
        return float(qj)
    qj1 = _dyadic_floor(beta * (j + 1))
    return qj + frac * (qj1 - qj)


def moment_bound_check(
    model: ProcessModel,
    p: int,
    k: int,
    alpha: float,
    beta: float,
    replicates: int,
    base_seed: int,
    threads: int | None = 1,
) -> dict:
    """Monte Carlo comparison of a conditional-moment sum against its bound.

    For each replicate path, G = sum_m E[xi_m | anchor_m] where xi_m is the
    m-th big-block sum and the anchor is the observation immediately before
    that block (the Markov state, which is why only iid and ar1 models are
    accepted). The estimated E|G|^p is compared against the bound shape

        (log 2 r_k)^p [ (sum_m rho(q(m/2))^2 |xi_m|_2^2)^{p/2}
                        + sum_m rho(q(m/2))^{2/(p-1)} |xi_m|_p^p ]

    with block moments estimated from the same replicates, rho the model's
    real-lag decay, q(.) the interpolated gap length, and log the clamped
    convention. Returns lhs_estimate, rhs_bound_shape, and their ratio
    (defined as 0 when both sides vanish, as for iid models). The paths are
    drawn in blocks on up to `threads` workers (0 or None: one per CPU);
    the sums run in replicate order afterwards, so the result does not
    depend on the thread count.
    """
    if model.family not in ("iid", "ar1"):
        raise ValueError("moment_bound_check needs a Markov model (iid or ar1)")
    if not isinstance(p, int) or isinstance(p, bool) or p < 2 or p % 2 != 0:
        raise ValueError(f"moment order p must be an even integer >= 2, got {p!r}")
    if not isinstance(replicates, int) or isinstance(replicates, bool) or replicates < 1:
        raise ValueError(f"replicates must be an integer >= 1, got {replicates!r}")
    part = build_partition(k, alpha, beta)
    n = 2 ** (k + 1)
    starts = np.array([s for s, _ in part.big_blocks], dtype=np.int64)
    ends = np.array([e for _, e in part.big_blocks], dtype=np.int64)
    anchors = starts - 1
    # E[xi_m | X_{s-1}] = X_{s-1} * sum_{j=1..p_k} E[X_{t+j} | X_t = 1]
    coef = sum(conditional_mean(model, 1.0, j) for j in range(1, part.p_k + 1))

    g = [0.0] * replicates
    xi = np.empty((replicates, part.r_k))
    rows = paths_per_block(model, n)

    def draw(block: int) -> None:
        lo = block * rows
        seeds = [derive_seed(base_seed, r) for r in range(lo, min(lo + rows, replicates))]
        for r, values in enumerate(generate_paths(model, n, seeds), lo):
            cs = np.concatenate(([0.0], np.cumsum(values)))
            xi[r] = cs[ends] - cs[starts]
            g[r] = coef * float(values[anchors].sum())

    _run_replicates(-(-replicates // rows), threads, draw)
    lhs_acc = 0.0
    sq_acc = np.zeros(part.r_k)
    pp_acc = np.zeros(part.r_k)
    for rep in range(replicates):
        lhs_acc += abs(g[rep]) ** p
        sq_acc += xi[rep] * xi[rep]
        pp_acc += np.abs(xi[rep]) ** p

    lhs = lhs_acc / replicates
    xi_sq = sq_acc / replicates
    xi_pp = pp_acc / replicates
    gaps = np.array([_interpolated_gap(beta, 0.5 * m) for m in range(1, part.r_k + 1)])
    rho = np.array([rho_decay(model, g) for g in gaps])
    log_factor = clamped_log(2.0 * part.r_k) ** p
    rhs = log_factor * (
        float((rho * rho) @ xi_sq) ** (p / 2.0) + float((rho ** (2.0 / (p - 1))) @ xi_pp)
    )
    if lhs == 0.0 and rhs == 0.0:
        ratio = 0.0
    elif rhs == 0.0:
        ratio = math.inf
    else:
        ratio = lhs / rhs
    return {
        "lhs_estimate": lhs,
        "rhs_bound_shape": rhs,
        "ratio": ratio,
        "k": k,
        "p_k": part.p_k,
        "q_k": part.q_k,
        "r_k": part.r_k,
        "replicates": replicates,
    }
