"""Dyadic block partitions and the conditional-moment diagnostic."""

import math

import pytest

from mixkde.blocking import BlockPartition, bracket_threshold, build_partition, partition_to_csv
from mixkde.experiments import moment_bound_check
from mixkde.processes import ProcessModel

IID = ProcessModel(family="iid")
AR_QUARTER = ProcessModel(family="ar1", phi=0.25)

# the exhaustive grid the partition invariants must hold on
GRID = [
    (k, alpha, beta)
    for k in range(4, 21)
    for alpha in (0.4, 0.6, 0.8)
    for beta in (0.1, 0.2, alpha / 2.0)
]


def test_worked_example_level_4():
    part = build_partition(4, 0.5, 0.25)
    assert (part.p_k, part.q_k, part.r_k) == (4, 2, 2)
    assert part.big_blocks == ((16, 20), (22, 26))
    assert part.small_blocks == ((20, 22), (26, 28), (28, 32))
    assert part.window == (16, 32)
    # trailing block absorbs the remainder: 16 - 2*6 = 4 indices
    tail = part.small_blocks[-1]
    assert tail[1] - tail[0] == 4


@pytest.mark.parametrize("k,alpha,beta", GRID)
def test_partition_invariants_on_grid(k, alpha, beta):
    part = build_partition(k, alpha, beta)
    p, q, r = part.p_k, part.q_k, part.r_k
    assert p == int(2.0 ** (alpha * k) + 1e-9)
    assert q == int(2.0 ** (beta * k) + 1e-9)
    assert r * (p + q) <= 2**k < (r + 1) * (p + q)

    blocks = []
    for m, (s, e) in enumerate(part.big_blocks):
        assert e - s == p
        blocks.append(("big", m, s, e))
    for m, (s, e) in enumerate(part.small_blocks[:-1]):
        assert e - s == q
        blocks.append(("small", m, s, e))
    tail_s, tail_e = part.small_blocks[-1]
    assert tail_e - tail_s == 2**k - r * (p + q)
    blocks.append(("small", r, tail_s, tail_e))

    # disjoint cover of [2^k, 2^{k+1}) in the interleaved order
    spans = sorted((s, e) for _, _, s, e in blocks)
    assert spans[0][0] == 2**k and spans[-1][1] == 2 ** (k + 1)
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))


@pytest.mark.parametrize("k,alpha,beta", GRID)
def test_bracket_on_grid(k, alpha, beta):
    part = build_partition(k, alpha, beta)
    if k >= part.bracket_k0:
        assert part.bracket_ok
        target = 2.0 ** ((1 - alpha) * k)
        assert 0.5 * target <= part.r_k <= 2.0 * target


def test_bracket_threshold_small_for_reference_params():
    assert bracket_threshold(0.5, 0.25) == 1


def test_block_order_interleaves():
    part = build_partition(8, 0.6, 0.2)
    seq = []
    for (bs, be), (ss, se) in zip(part.big_blocks, part.small_blocks):
        seq.extend([(bs, be), (ss, se)])
    seq.append(part.small_blocks[-1])
    assert all(a[1] == b[0] for a, b in zip(seq, seq[1:]))


def test_partition_rejections():
    with pytest.raises(ValueError, match="0 < beta < alpha < 1"):
        build_partition(4, 0.25, 0.5)
    with pytest.raises(ValueError, match="0 < beta < alpha < 1"):
        build_partition(4, 0.5, 0.5)
    with pytest.raises(ValueError, match="degenerate blocks at k=1"):
        build_partition(1, 0.5, 0.25)
    with pytest.raises(ValueError, match="level k must be"):
        build_partition(0, 0.5, 0.25)


def test_partition_csv(tmp_path):
    part = build_partition(4, 0.5, 0.25)
    out = tmp_path / "part.csv"
    partition_to_csv(part, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "block_type,index,start,end"
    assert lines[1] == "big,1,16,20"
    assert lines[-1] == "small,3,28,32"
    assert len(lines) == 1 + 2 + 3


def test_moment_bound_iid_exactly_zero():
    for k in (6, 8):
        res = moment_bound_check(IID, 2, k, 0.5, 0.25, replicates=50, base_seed=4)
        assert res["lhs_estimate"] == 0.0
        assert res["ratio"] == 0.0


def test_moment_bound_ar1_finite():
    for p in (2, 4):
        res = moment_bound_check(AR_QUARTER, p, 8, 0.5, 0.25, replicates=200, base_seed=4)
        assert math.isfinite(res["ratio"]) and res["ratio"] > 0.0
        assert res["rhs_bound_shape"] > 0.0
        assert res["lhs_estimate"] > 0.0


def test_moment_bound_deterministic():
    a = moment_bound_check(AR_QUARTER, 2, 7, 0.5, 0.25, replicates=100, base_seed=12)
    b = moment_bound_check(AR_QUARTER, 2, 7, 0.5, 0.25, replicates=100, base_seed=12)
    assert a == b


def test_moment_bound_rejections():
    ma = ProcessModel(family="ma", weights=(1.0, 0.4))
    with pytest.raises(ValueError):
        moment_bound_check(ma, 2, 6, 0.5, 0.25, replicates=10, base_seed=1)
    with pytest.raises(ValueError):
        moment_bound_check(AR_QUARTER, 3, 6, 0.5, 0.25, replicates=10, base_seed=1)
    with pytest.raises(ValueError):
        moment_bound_check(AR_QUARTER, 0, 6, 0.5, 0.25, replicates=10, base_seed=1)
