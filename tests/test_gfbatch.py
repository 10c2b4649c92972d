import numpy as np
import pytest

from qscat.errors import InvariantViolation
from qscat.gfbatch import Gf64Tables


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
