"""Dyadic big/small block partitions, the blocks of the moment_bound kind.

Each dyadic level k splits the index window [2^k, 2^{k+1}) into r_k pairs of
a big block of length p_k = [2^{alpha k}] followed by a small block of length
q_k = [2^{beta k}], plus one trailing small block that absorbs the remainder
(possibly empty). Big blocks carry the signal, small blocks the decoupling
gaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .processes import generate_path  # noqa: F401  (perfbench/spans.py traces this name)

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
    )


def partition_to_csv(partition: BlockPartition, path) -> None:
    """Block table as CSV rows (block_type, index, start, end)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("block_type,index,start,end\n")
        for m, (s, e) in enumerate(partition.big_blocks, start=1):
            fh.write(f"big,{m},{s},{e}\n")
        for m, (s, e) in enumerate(partition.small_blocks, start=1):
            fh.write(f"small,{m},{s},{e}\n")


def _interpolated_gap(beta: float, x: float) -> float:
    """q(x) for real x >= 0: linear between the integer gap lengths q_j."""
    j = math.floor(x)
    frac = x - j
    qj = _dyadic_floor(beta * j)
    if frac == 0.0:
        return float(qj)
    qj1 = _dyadic_floor(beta * (j + 1))
    return qj + frac * (qj1 - qj)
