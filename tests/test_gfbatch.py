from types import SimpleNamespace

import numpy as np
import pytest

from qscat import gfbatch
from qscat.errors import ConfigError, InvariantViolation
from qscat.field import default_field
from qscat.gfbatch import (
    POINT_COUNT,
    CodewordScanner,
    DualCodimScanner,
    FieldArrays,
    FqSpanScanner,
    Gf64Tables,
    SampledFast,
    SampledOracle,
    coords_to_flats,
    first_refutation,
    flats_to_coords,
    fqm_rank_batch,
    ids_to_points,
    laplace_minors,
    normalize_points,
    plane_normal,
    point_ids,
    rref_small_batch,
)
from qscat.linalg import FqmSubspace, RrefEnumerator, fqm_span_dim, weight
from qscat.rankcode import rank_weight
from qscat.rng import XorShift64Star
from qscat.scatter import (
    build_Us,
    is_h_scattered_fast,
    is_h_scattered_oracle,
    random_fq_subspace,
)


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
    assert tables.inv[0] == 0
    assert all(F.mul(x, int(tables.inv[x])) == 1 for x in range(1, 64))


def _rref_dual(rref, pivcols):
    """Reference plane normal of a rank-3 RREF [3, 4]: 1 at the one
    non-pivot column f and rref[i, f] at pivot column i."""
    f = 6 - int(pivcols[:3].sum())
    w = np.zeros(4, dtype=np.int16)
    w[f] = 1
    for i in range(3):
        w[pivcols[i]] = rref[i, f]
    return w


def test_plane_normal_matches_rref(F):
    tables = Gf64Tables(F)
    rng = np.random.default_rng(10)
    B = 3000
    mats = rng.integers(0, 64, size=(B, 3, 4)).astype(np.int16)
    # sparse rows meet every pivot profile
    mats[: B // 3] *= (rng.random((B // 3, 3, 4)) < 0.4).astype(np.int16)
    kind = np.arange(B) % 6
    a, b = (rng.integers(0, 64, size=B).astype(np.int16) for _ in range(2))
    lin = tables.mul(a[:, None], mats[:, 0]) ^ tables.mul(b[:, None], mats[:, 1])
    mats[kind == 1, 2] = mats[kind == 1, 0]  # repeated row
    mats[kind == 2, 2] = lin[kind == 2]  # third row on the first two's line
    mats[kind == 3, 1] = 0  # zero row
    mats[kind == 4, 1] = tables.mul(a[:, None], mats[:, 0])[kind == 4]
    w = plane_normal(laplace_minors(tables.mul, list(mats.transpose(1, 0, 2))))
    rank, rref, pivcols = rref_small_batch(tables, mats)
    assert set(rank.tolist()) == {0, 1, 2, 3}
    assert ((w != 0).any(axis=1) == (rank == 3)).all()
    full = np.flatnonzero(rank == 3)
    expect = np.array([_rref_dual(rref[k], pivcols[k]) for k in full])
    _, ids = normalize_points(tables, w[full])
    _, expect_ids = normalize_points(tables, expect)
    assert (ids == expect_ids).all()
    # one x over the Plücker coordinates of a batch of pairs, as the
    # saturation scan calls it
    pluck = laplace_minors(tables.mul, [mats[:, 1], mats[:, 2]])
    one = plane_normal(laplace_minors(tables.mul, [mats[0, 0]], pluck))
    again = plane_normal(
        laplace_minors(tables.mul, [np.broadcast_to(mats[0, 0], (B, 4)), mats[:, 1], mats[:, 2]])
    )
    assert (one == again).all()


def test_tables_reject_other_towers(F8):
    with pytest.raises(InvariantViolation):
        Gf64Tables(F8)


@pytest.mark.parametrize("n", [1, 3, 4, 10])
def test_codec_round_trips(n):
    """Coordinate k of a packed vector sits at bits 6k, for every width
    that fits in an int64; leading batch axes pass through."""
    coords = np.random.default_rng(n).integers(0, 64, size=(7, 5, n))
    flats = coords_to_flats(coords)
    assert flats.shape == (7, 5) and flats.dtype == np.int64
    assert (flats_to_coords(flats, n) == coords).all()
    assert int(flats[0, 0]) == sum(int(c) << (6 * k) for k, c in enumerate(coords[0, 0]))
    assert (coords_to_flats(flats_to_coords(flats, n)) == flats).all()


@pytest.mark.parametrize("which", ["U1", "U_planted", "U_G"])
def test_span_dims_match_fqm_span_dim(F, which, request):
    """F_64-span dimensions of d-dim F_2-subspaces of U, d = 1..4, equal
    fqm_span_dim of the decoded vectors at seeded positions (the planted
    system has spans below d; U_G has r = 3)."""
    U = request.getfixturevalue(which)
    scanner = FqSpanScanner(Gf64Tables(F), U.basis)
    rng = np.random.default_rng(23)
    for d in range(1, 5):
        enum = RrefEnumerator((0, 1), U.dim_q, d)
        picks = {0, enum.total - 1}
        picks.update(int(x) for x in rng.integers(0, enum.total, 40))
        for pos in sorted(picks):
            ((got_pos, span),) = scanner.iter_span_dims(
                d, start=pos, stride=enum.total, chunk=1
            )
            assert got_pos.tolist() == [pos]
            rows, _ = enum.decode(pos)
            vecs = [U.combine(row) for row in rows]
            assert int(span[0]) == fqm_span_dim(F, vecs), (d, pos)


def _weight_at(scanner, d, pos):
    """The scanner's weight of the subspace at one enumeration position."""
    enum = RrefEnumerator(range(64), 4, d)
    ((got_pos, w),) = scanner.iter_weights(d, start=pos, stride=enum.total, chunk=1)
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


def _dealt(values, d, total, workers, chunk):
    """Each position's value, merged over the shares of W = `workers`;
    the shares must cover range(total) exactly once."""
    seen = np.zeros(total, dtype=np.int8)
    got = np.zeros(total, dtype=np.int8)
    for w in range(workers):
        for pos, v in values(d, start=w, stride=workers, chunk=chunk):
            seen[pos] += 1
            got[pos] = v
    assert (seen == 1).all()
    return got


@pytest.mark.parametrize("which, d, chunk", [
    ("U_G", 1, gfbatch.SCAN_CHUNK), ("U_G", 2, gfbatch.SCAN_CHUNK), ("U_G", 2, 1000),
    ("U1", 1, gfbatch.SCAN_CHUNK), ("U1", 1, 5000), ("U1", 2, gfbatch.SCAN_CHUNK),
])
def test_chunks_deal_every_position_once(F, which, d, chunk, request):
    """Workers w of W = 1, 2, 3 take contiguous chunks round-robin: their
    positions cover the enumeration exactly once, and their weights equal
    the one-worker weights, also where a chunk (1,000 or 5,000 positions)
    cuts a 4,096-position tile."""
    U = request.getfixturevalue(which)
    scanner = DualCodimScanner(Gf64Tables(F), U.basis)
    total = RrefEnumerator(range(64), U.r, d).total
    whole = _dealt(scanner.iter_weights, d, total, 1, chunk)
    for workers in (2, 3):
        assert np.array_equal(_dealt(scanner.iter_weights, d, total, workers, chunk), whole)
    # each worker walks its chunks in ascending order
    lo = [int(p[0]) for p, _ in scanner.iter_weights(d, start=1, stride=2, chunk=chunk)]
    assert lo == sorted(lo)


def test_span_chunks_deal_every_position_once(F, U1):
    """The fast scan deals its chunks the same way (d = 3 on U_1)."""
    scanner = FqSpanScanner(Gf64Tables(F), U1.basis)
    one, two, three = (
        _dealt(scanner.iter_span_dims, 3, 97_155, w, gfbatch.SCAN_CHUNK) for w in (1, 2, 3)
    )
    assert np.array_equal(one, two) and np.array_equal(one, three)


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


# -- batched sampled tests -----------------------------------------------------


@pytest.mark.parametrize("h", [1, 3, 5])
def test_field_arrays_match_field_mul(h):
    """numpy products (exp/log gather for e <= 20, carryless product and
    fold for GF(2^30)) equal BinaryField.mul, zero operands included."""
    F = default_field(h)
    rng = XorShift64Star(100 + h)
    a = [F.random_element(rng) for _ in range(400)] + [0, 0, 1, F.order - 1]
    b = [F.random_element(rng) for _ in range(400)] + [0, 5, F.order - 1, F.order - 1]
    fa = FieldArrays(F)
    got = fa.mul(np.array(a), np.array(b))
    assert got.dtype == np.int64
    assert got.tolist() == [F.mul(x, y) for x, y in zip(a, b)]
    if F._exp is not None:
        # views of the field's tables, not copies
        assert not fa.exp.flags.owndata and not fa.log.flags.owndata
        assert np.shares_memory(fa.exp, np.frombuffer(F._exp, dtype=np.intc))


def test_field_arrays_reject_fields_past_int64():
    with pytest.raises(ConfigError):
        FieldArrays(SimpleNamespace(e=42))


def _random_rows(F, rng, R, C, q_only=False):
    """R x C matrix with seeded dependent rows mixed in."""
    pick = (lambda: F.fq_elements[rng.randrange(F.q)]) if q_only else (
        lambda: F.random_element(rng)
    )
    rows = [[pick() for _ in range(C)] for _ in range(R)]
    if R > 1 and rng.randrange(2):
        i, j = rng.randrange(R), rng.randrange(R)
        c = F.fq_elements[rng.randrange(F.q)] if q_only else F.random_element(rng)
        rows[i] = [F.mul(c, x) ^ y for x, y in zip(rows[j], rows[i])]
        if i == j or rng.randrange(2):
            rows[i] = [F.mul(c, x) for x in rows[j]]
    if rng.randrange(8) == 0:
        rows[rng.randrange(R)] = [0] * C
    return rows


@pytest.mark.parametrize("h", [1, 3, 5])
@pytest.mark.parametrize("shape", [(1, 4), (2, 4), (3, 4), (4, 4), (5, 4), (3, 8)])
def test_fqm_rank_batch_matches_fqm_span_dim(h, shape):
    F = default_field(h)
    rng = XorShift64Star(7 * h + shape[0])
    mats = [_random_rows(F, rng, *shape, q_only=shape[1] == 8) for _ in range(60)]
    got = fqm_rank_batch(FieldArrays(F), np.array(mats, dtype=np.int64))
    assert got.tolist() == [fqm_span_dim(F, m) for m in mats]


def _oracle_cases(F, U, rng, order, count):
    """Generator groups: random, dependent, and through vectors of U."""
    groups = []
    for k in range(count):
        gens = _random_rows(F, rng, order, 4)
        if k % 3:
            # the first (k % 3) generators lie in U: weight >= min(k % 3, order)
            for i in range(min(k % 3, order)):
                coeffs = [F.fq_elements[rng.randrange(F.q)] for _ in U.basis]
                gens[i] = list(U.combine(coeffs))
        groups.append([x for g in gens for x in g])
    return np.array(groups, dtype=np.int64)


def _check_oracle(F, U, order, groups):
    kept, weights = SampledOracle(U, order).measure(groups)
    expect_kept, expect_w = [], []
    for g in groups.tolist():
        H = FqmSubspace.span(F, 4, [tuple(g[i * 4 : i * 4 + 4]) for i in range(order)])
        expect_kept.append(H.dim == order)
        if H.dim == order:
            expect_w.append(weight(U, H))
    assert kept.tolist() == expect_kept
    assert weights.tolist() == expect_w
    return expect_w


def test_oracle_weights_crafted_q8(F8):
    """Points and lines through vectors of U_1 at q = 8: weights 1 and 2
    (U_1 is 2-scattered, so they are exactly that), as linalg.weight."""
    U = build_Us(F8, 1)
    rng = XorShift64Star(81)
    seen = set()
    for order in (1, 2, 3):
        seen.update((order, w) for w in _check_oracle(
            F8, U, order, _oracle_cases(F8, U, rng, order, 45)
        ))
    assert {(1, 0), (1, 1), (2, 0), (2, 1), (2, 2)} <= seen


@pytest.mark.parametrize("h,count", [(1, 300), (5, 24)])
def test_oracle_weights_random(h, count):
    """Random draws at q = 2 and q = 32 (both rank orientations: at
    q = 32, order 1 packs 3 x 30 image bits, so the transpose is ranked)."""
    F = default_field(h)
    U = build_Us(F, 1)
    rng = XorShift64Star(90 + h)
    for order in (1, 2, 3):
        _check_oracle(F, U, order, _oracle_cases(F, U, rng, order, count))


@pytest.mark.parametrize("h,order,count", [
    (1, 1, 3000), (1, 2, 1500), (3, 1, 150), (3, 2, 150), (3, 4, 40), (5, 2, 20),
])
def test_fast_span_dims_match_fqm_span_dim(h, order, count, U_planted):
    """Span dims of the combined vectors equal fqm_span_dim, and groups
    are kept exactly when their coefficient rows are F_q-independent."""
    F = default_field(h)
    U = U_planted if h == 1 else build_Us(F, 1)
    sampler = SampledFast(U, order)
    rng = XorShift64Star(60 + 10 * h + order)
    groups = np.array(
        [[rng.randrange(F.q) for _ in range(sampler.width)] for _ in range(count)],
        dtype=np.int64,
    )
    kept, spans = sampler.measure(groups)
    d, elems = order + 1, F.fq_elements
    expect_kept, expect_spans = [], []
    for g in groups.tolist():
        rows = [[elems[x] for x in g[i * 8 : i * 8 + 8]] for i in range(d)]
        expect_kept.append(fqm_span_dim(F, rows) == d)
        if expect_kept[-1]:
            expect_spans.append(fqm_span_dim(F, [U.combine(row) for row in rows]))
    assert kept.tolist() == expect_kept
    assert spans.tolist() == expect_spans
    if h == 1 or order == 4:
        assert min(expect_spans) < d  # refuting samples are among them


class _Recorder:
    """A sampler that refutes nothing and records the accepted groups."""

    def __init__(self, sampler):
        self.sampler = sampler
        self.width, self.mask = sampler.width, sampler.mask
        self.groups = []

    def measure(self, groups):
        kept, values = self.sampler.measure(groups)
        self.groups.extend(groups[kept].tolist())
        return kept, values

    def refutes(self, values):
        return np.zeros(len(values), dtype=bool)


def test_batched_groups_equal_scalar_draws(F, U1, monkeypatch):
    """q = 2, order 1: ~1.2% of the coefficient pairs are dependent and
    redrawn.  Over several short batches the accepted groups, and the
    number of draws, equal a one-sample-at-a-time reference loop."""
    monkeypatch.setattr(gfbatch, "SAMPLE_BATCH", 64)
    samples, elems = 600, F.fq_elements
    ref_rng = XorShift64Star(77)
    expect, rejected = [], 0
    for _ in range(samples):
        while True:
            idx = [ref_rng.randrange(len(elems)) for _ in range(16)]
            rows = [[elems[x] for x in idx[:8]], [elems[x] for x in idx[8:]]]
            if fqm_span_dim(F, rows) == 2:
                break
            rejected += 1
        expect.append(idx)
    assert rejected > 0
    rec = _Recorder(SampledFast(U1, 1))
    rng = XorShift64Star(77)
    assert first_refutation(rec, rng, samples) is None
    assert rec.groups == expect
    assert rng.state == ref_rng.state


@pytest.mark.parametrize("oracle", [False, True])
def test_clean_q8_run_takes_the_scalar_draws(F8, monkeypatch, oracle):
    """A clean h = 3 run leaves the generator exactly where a one-sample-
    at-a-time loop of masked next_u64() draws, redrawing rejected samples,
    leaves it: the contract that keeps the sampled goldens valid."""
    monkeypatch.setattr(gfbatch, "SAMPLE_BATCH", 64)
    U8, order, samples, seed = build_Us(F8, 1), 2, 150, 8
    sampler = (SampledOracle if oracle else SampledFast)(U8, order)
    rng = XorShift64Star(seed)
    assert first_refutation(sampler, rng, samples) is None
    ref, elems = XorShift64Star(seed), F8.fq_elements
    for _ in range(samples):
        while True:
            g = [ref.next_u64() & sampler.mask for _ in range(sampler.width)]
            if oracle:
                rows, need = [g[i * U8.r : (i + 1) * U8.r] for i in range(order)], order
            else:
                nb, need = U8.dim_q, order + 1
                rows = [[elems[x] for x in g[i * nb : (i + 1) * nb]] for i in range(need)]
            if fqm_span_dim(F8, rows) == need:
                break
    assert rng.state == ref.state


@pytest.mark.parametrize("test", [is_h_scattered_fast, is_h_scattered_oracle])
def test_batch_disagreement_raises(F, U1, monkeypatch, test):
    """A refutation the scalar re-check does not reproduce is an internal
    error, not a witness."""
    sampler = SampledFast if test is is_h_scattered_fast else SampledOracle
    monkeypatch.setattr(sampler, "refutes", lambda self, v: np.ones(len(v), dtype=bool))
    with pytest.raises(InvariantViolation):
        test(U1, 2, mode="sampled", samples=10, seed=1)
