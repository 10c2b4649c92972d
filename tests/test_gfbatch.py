import numpy as np
import pytest

from qscat.errors import InvariantViolation
from qscat.gfbatch import (
    POINT_COUNT,
    CodewordScanner,
    DualCodimScanner,
    Gf64Tables,
    ids_to_points,
    point_ids,
)
from qscat.linalg import FqmSubspace, RrefEnumerator, weight
from qscat.rankcode import rank_weight
from qscat.rng import XorShift64Star
from qscat.scatter import random_fq_subspace


def test_product_table_matches_field(F):
    tables = Gf64Tables(F)
    a = np.arange(64, dtype=np.int16)
    expect = np.array([[F.mul(x, y) for y in range(64)] for x in range(64)])
    # all 4,096 pairs, zero operands included
    assert (tables.mul(a[:, None], a[None, :]) == expect).all()
    assert tables.mul(a[:, None], a[None, :]).dtype == np.int16
    # the [64 scalars] x [P planes, 4 coords] broadcast of plane_point_ids
    rng = np.random.default_rng(7)
    rows = rng.integers(0, 64, size=(5, 4)).astype(np.int16)
    prod = tables.mul(a[None, :, None], rows[:, None, :])
    assert prod.shape == (5, 64, 4)
    assert (prod == expect[a[None, :, None], rows[:, None, :]]).all()
    for j in range(6):
        assert list(tables.mulx[j]) == [F.mul(1 << j, x) for x in range(64)]
    assert tables.inv[0] == 0
    assert all(F.mul(x, int(tables.inv[x])) == 1 for x in range(1, 64))


def test_tables_reject_other_towers(F8):
    with pytest.raises(InvariantViolation):
        Gf64Tables(F8)


def _weight_at(scanner, d, pos):
    """The scanner's weight of the subspace at one enumeration position."""
    enum = RrefEnumerator(range(64), 4, d)
    ((got_pos, w),) = scanner.iter_weights(d, start=pos, stride=enum.total)
    assert got_pos.tolist() == [pos]
    return int(w[0])


@pytest.mark.parametrize("which", ["U1", "random-5", "random-6"])
def test_bitmap_weights_match_scalar_weight(F, U1, which):
    """Kernel-bitmap weights of points (d = 1) and lines (d = 2) equal the
    scalar weight at seeded positions in every pivot profile."""
    if which == "U1":
        U = U1
    else:
        U = random_fq_subspace(F, 4, 8, XorShift64Star(int(which.split("-")[1])))
    scanner = DualCodimScanner(Gf64Tables(F), U.basis)
    rng = np.random.default_rng(17)
    for d in (1, 2):
        enum = RrefEnumerator(range(64), 4, d)
        for p in range(len(enum.profiles)):
            lo, count = enum.offsets[p], enum.counts[p]
            picks = {lo, lo + count - 1}
            picks.update(int(x) for x in lo + rng.integers(0, count, 6))
            for pos in sorted(picks):
                rows, piv = enum.decode(pos)
                H = FqmSubspace(F, 4, rows, piv)
                assert _weight_at(scanner, d, pos) == weight(U, H), (d, pos)


def test_kernel_bitmaps_are_subspaces(F, U1):
    """K[w] holds 0, is closed under XOR and has 2^(8 - rank) elements."""
    scanner = DualCodimScanner(Gf64Tables(F), U1.basis)
    duals = np.random.default_rng(3).integers(0, 64, size=(40, 4)).astype(np.int16)
    duals[0] = 0
    bitmaps = scanner.kernel_bitmaps(duals)
    assert bitmaps.shape == (40, 4) and bitmaps.dtype == np.uint64
    ranks = 8 - scanner.weights_for_duals(duals[:, None, :])
    for bm, rank in zip(bitmaps, ranks):
        members = [a for a in range(256) if (int(bm[a // 64]) >> (a % 64)) & 1]
        assert 0 in members and len(members) == 2 ** (8 - int(rank))
        assert all(a ^ b in members for a in members[:8] for b in members)


def test_codeword_scanner_index_map(F, code):
    """Message number i is the normalized point with id i (k = 4)."""
    scanner = CodewordScanner(Gf64Tables(F), code.generator)
    assert scanner.total_messages() == POINT_COUNT == 266_305
    ids = np.array([0, 1, 63, 64**3 - 1, 64**3, 64**3 + 64**2, POINT_COUNT - 1])
    msgs = ids_to_points(ids, scanner.k)
    assert point_ids(msgs).tolist() == ids.tolist()
    # the head of the pivot-0 block, and the tail through pivots 1, 2, 3
    for lo, hi in ((0, 600), (POINT_COUNT - 4200, POINT_COUNT)):
        minw, counts = scanner.scan_range(lo, hi, chunk=997)
        whole = [0] * 7
        for msg in ids_to_points(np.arange(lo, hi)).tolist():
            whole[rank_weight(F, code.encode(msg))] += 1
        assert counts.tolist() == whole
        assert minw == min(w for w in range(7) if whole[w])


def test_scanner_widths_are_checked(F, U1):
    """Too many basis vectors or coordinates for an int64 pack raises
    InvariantViolation (a check, not an assert)."""
    tables = Gf64Tables(F)
    with pytest.raises(InvariantViolation):
        DualCodimScanner(tables, list(U1.basis) + list(U1.basis[:3]))
    with pytest.raises(InvariantViolation):
        CodewordScanner(tables, [[1] * 11] * 4)
