"""The GF(2) layer: rref_bits and the rank, kernel and inverse read off it.

Seeded random bit matrices carry zero rows and duplicate rows, so every
test also meets rank-deficient input.
"""

import pytest

from qscat import gf2
from qscat.rng import XorShift64Star


def _random_matrix(rng, nrows, ncols):
    """Random rows, then a zero row and a copy of a random row spliced in."""
    rows = [rng.randbits(ncols) for _ in range(nrows)]
    rows.insert(rng.randrange(len(rows) + 1), 0)
    rows.insert(rng.randrange(len(rows) + 1), rows[rng.randrange(len(rows))])
    return rows


def _matrices(seed, count=60):
    rng = XorShift64Star(seed)
    for _ in range(count):
        nrows = 1 + rng.randrange(9)
        ncols = 1 + rng.randrange(12)
        yield _random_matrix(rng, nrows, ncols), ncols


def _span(rows):
    """Every XOR of a subset of rows, by brute force."""
    span = {0}
    for r in rows:
        span |= {v ^ r for v in span}
    return span


def _random_invertible_cols(rng, n):
    while True:
        cols = [rng.randbits(n) for _ in range(n)]
        if len(_span(cols)) == 1 << n:
            return cols


def test_rref_bits_is_reduced_and_spans_the_rows():
    for rows, ncols in _matrices(1):
        rank, rref, pivots = gf2.rref_bits(rows, ncols)
        assert rank == len(rref) == len(pivots)
        assert pivots == sorted(pivots)
        for row, p in zip(rref, pivots):
            assert row & -row == 1 << p  # the pivot is the lowest set bit
            assert sum(1 for other in rref if other >> p & 1) == 1
        assert _span(rref) == _span(rows)
        assert len(_span(rows)) == 1 << rank


def test_rank_bits_matches_rref_bits():
    for rows, ncols in _matrices(2):
        assert gf2.rank_bits(rows) == gf2.rref_bits(rows, ncols)[0]
    assert gf2.rank_bits([]) == 0
    assert gf2.rank_bits([0, 0]) == 0


def test_left_kernel_combos_span_the_kernel():
    for rows, ncols in _matrices(3):
        combos = gf2.left_kernel_combos(rows, ncols)
        # the spliced-in zero row alone is a kernel element
        assert len(combos) == len(rows) - gf2.rank_bits(rows) >= 1
        assert gf2.rank_bits(combos) == len(combos)
        for mask in combos:
            acc = 0
            for i, r in enumerate(rows):
                if mask >> i & 1:
                    acc ^= r
            assert acc == 0


def test_inv_cols_undoes_apply_cols():
    rng = XorShift64Star(4)
    for _ in range(10):
        cols = _random_invertible_cols(rng, 6)
        inv = gf2.inv_cols(cols, 6)
        for z in range(64):
            assert gf2.apply_cols(inv, gf2.apply_cols(cols, z)) == z
            assert gf2.apply_cols(cols, gf2.apply_cols(inv, z)) == z
    for _ in range(3):
        cols = [rng.randbits(18) for _ in range(18)]
        while gf2.rank_bits(cols) < 18:
            cols = [rng.randbits(18) for _ in range(18)]
        inv = gf2.inv_cols(cols, 18)
        for _ in range(200):
            z = rng.randbits(18)
            assert gf2.apply_cols(inv, gf2.apply_cols(cols, z)) == z


@pytest.mark.parametrize("n", [6, 18])
def test_inv_cols_rejects_singular_columns(n):
    rng = XorShift64Star(5 + n)
    cols = [rng.randbits(n) for _ in range(n)]
    singular = [
        cols[:-1] + [0],  # a zero column
        cols[:-1] + [cols[0]],  # a repeated column
        cols[:-1] + [cols[0] ^ cols[1]],  # a dependent column
    ]
    for bad in singular:
        assert gf2.rank_bits(bad) < n
        with pytest.raises(ValueError):
            gf2.inv_cols(bad, n)
