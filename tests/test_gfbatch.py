import tracemalloc

import numpy as np
import pytest

from qscat import gfbatch
from qscat.errors import ConfigError, InvariantViolation
from qscat.field import BinaryField, default_field, from_nibble_hex
from qscat.gfbatch import (
    POINT_COUNT,
    POINTS,
    CodewordScanner,
    DualCodimScanner,
    FqSpanScanner,
    Gf64Tables,
    SampledFast,
    SampledOracle,
    coords_to_flats,
    decode_rows,
    first_refutation,
    flats_to_coords,
    fqm_rank_batch,
    laplace_minors,
    line_point_ids,
    packed_id_table,
    packed_point_ids,
    plane_normal,
    plane_point_ids,
    point_ids,
    rref_small_batch,
    subset_sums,
)
from qscat.linalg import (
    FqmSubspace,
    FqSubspace,
    RrefEnumerator,
    fqm_span_dim,
    row_reduce,
    rows_from_text,
    weight,
)
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
    # the [64 scalars] x [P planes, s rows, 4 coords] broadcast of the
    # line and plane id kernels
    rng = np.random.default_rng(7)
    rows = rng.integers(0, 64, size=(5, 2, 4)).astype(np.int16)
    prod = tables.mul(a[:, None], rows[:, :, None, :])
    assert prod.shape == (5, 2, 64, 4)
    assert (prod == expect[a[:, None], rows[:, :, None, :]]).all()
    assert tables.inv[0] == 0
    assert all(F.mul(x, int(tables.inv[x])) == 1 for x in range(1, 64))


def _rref_dual(rref):
    """Reference plane normal of a rank-3 RREF [3, 4]: 1 at the one
    non-pivot column f and rref[i, f] at pivot column i."""
    pivcols = np.argmax(rref[:3] != 0, axis=1)
    f = 6 - int(pivcols.sum())
    w = np.zeros(4, dtype=np.int16)
    w[f] = 1
    for i in range(3):
        w[pivcols[i]] = rref[i, f]
    return w, f


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
    rank, rref = rref_small_batch(tables, mats)
    assert set(rank.tolist()) == {0, 1, 2, 3}
    assert ((w != 0).any(axis=1) == (rank == 3)).all()
    # the same projective point: w is the reference, whose entry f is 1,
    # scaled by w_f
    for k in np.flatnonzero(rank == 3):
        expect, f = _rref_dual(rref[k])
        assert (tables.mul(w[k, f], expect) == w[k]).all()
    # one x over the Plücker coordinates of a batch of pairs, as the
    # saturation scan calls it
    pluck = laplace_minors(tables.mul, [mats[:, 1], mats[:, 2]])
    one = plane_normal(laplace_minors(tables.mul, [mats[0, 0]], pluck))
    again = plane_normal(
        laplace_minors(tables.mul, [np.broadcast_to(mats[0, 0], (B, 4)), mats[:, 1], mats[:, 2]])
    )
    assert (one == again).all()


def test_rref_small_batch_matches_row_reduce(F):
    """The batched RREF, zero-padded to s rows, and its rank equal the
    scalar linalg.row_reduce's, and fqm_rank_batch gives the same rank, on
    seeded batches of s = 1..5 rows with zero, repeated and dependent
    rows (ranks 0 to 4)."""
    tables = Gf64Tables(F)
    rng = np.random.default_rng(31)
    ranks = set()
    for s in range(1, 6):
        B = 400
        mats = rng.integers(0, 64, size=(B, s, 4)).astype(np.int16)
        mats[: B // 2] *= (rng.random((B // 2, s, 4)) < 0.4).astype(np.int16)
        kind = np.arange(B) % 4
        a, b = (rng.integers(0, 64, size=(B, 1)).astype(np.int16) for _ in range(2))
        mats[kind == 1, -1] = 0  # zero row
        mats[kind == 2, -1] = mats[kind == 2, 0]  # repeated row
        if s > 2:  # the last row on the span of the first two
            lin = tables.mul(a, mats[:, 0]) ^ tables.mul(b, mats[:, 1])
            mats[kind == 3, -1] = lin[kind == 3]
        rank, rref = rref_small_batch(tables, mats)
        assert rref.shape == (B, s, 4) and rref.dtype == np.int16
        assert (fqm_rank_batch(tables.mul, mats) == rank).all()
        for k in range(B):
            r, rows, _ = row_reduce(F, mats[k].tolist())
            expect = np.zeros((s, 4), dtype=np.int16)
            expect[:r] = np.reshape(rows, (r, 4))
            assert rank[k] == r and (rref[k] == expect).all()
        ranks |= set(rank.tolist())
    assert ranks == {0, 1, 2, 3, 4}


def test_packed_point_ids_decode_to_the_scaled_vector(F):
    """The scalar decode of each packed id is its vector scaled by
    1 / lead, on seeded vectors of every pivot and every lead."""
    rng = np.random.default_rng(32)
    vecs = rng.integers(0, 64, size=(2000, 4))
    piv = np.arange(2000) % 4
    vecs[np.arange(4) < piv[:, None]] = 0
    vecs[np.arange(2000), piv] = np.arange(2000) % 63 + 1
    ids = packed_point_ids(packed_id_table(Gf64Tables(F)), coords_to_flats(vecs))
    for v, pid, p in zip(vecs.tolist(), ids.tolist(), piv.tolist()):
        scale = F.inv(v[p])
        assert POINTS.decode(pid)[0][0] == tuple(F.mul(scale, x) for x in v)


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


def _dots(tables, w, points):
    """[N] products w . x over the rows x of points [N, 4]."""
    dot = np.zeros(len(points), dtype=np.int16)
    for k in range(4):
        dot ^= tables.mul(w[k], points[:, k])
    return dot


def _kernel_rref(tables, duals):
    """RREF rows of the subspace {x : w . x = 0 for every w in duals}, from
    the RREF of the duals: e_f + sum_i rref[i, f] e_(pivot i) per free
    column f."""
    rank, rref = rref_small_batch(tables, np.array([duals], dtype=np.int16))
    piv = np.argmax(rref[0, : rank[0]] != 0, axis=1)
    basis = []
    for f in (c for c in range(4) if c not in piv):
        v = np.zeros(4, dtype=np.int16)
        v[f] = 1
        v[piv] = rref[0, : rank[0], f]
        basis.append(v)
    rank, rref = rref_small_batch(tables, np.array([basis]))
    assert rank[0] == len(basis) == 4 - len(duals)
    return rref[0, : rank[0]]


def _some_duals(count, last, rng):
    """count duals w whose last nonzero coordinate is `last`, the entries
    before it zero about half the time."""
    w = rng.integers(1, 64, size=(count, 4)).astype(np.int16)
    w *= rng.random((count, 4)) < 0.5
    w[0, :last] = 0
    w[:, last] = rng.integers(1, 64, size=count)
    w[:, last + 1 :] = 0
    return w


def test_line_and_plane_ids_match_dual_equations(F):
    """The id kernels against a reference that packs nothing: the points
    x of PG(3, 64), in id order, with w . x = 0 for the plane's dual w
    (both duals of a line), by GF(64) products."""
    tables = Gf64Tables(F)
    points = decode_rows(POINTS, np.arange(POINT_COUNT))[:, 0]
    scal = np.arange(64, dtype=np.int16)[:, None]
    rng = np.random.default_rng(14)
    for last in range(4):
        duals = _some_duals(6, last, rng)
        rrefs = [_kernel_rref(tables, [w]) for w in duals]
        planes = plane_point_ids(tables, rrefs)
        assert planes.shape == (6, 4161) and planes.dtype == np.int64
        for w, (r1, r2, r3), ids in zip(duals, rrefs, planes):
            assert len(np.unique(ids)) == 4161
            assert sorted(ids.tolist()) == np.flatnonzero(_dots(tables, w, points) == 0).tolist()
            # entry 64 a + b is r1 + a r2 + b r3, then r2 + a r3, then r3
            m2, m3 = tables.mul(scal, r2), tables.mul(scal, r3)
            order = np.concatenate([(r1 ^ m2[:, None] ^ m3).reshape(-1, 4), r2 ^ m3, [r3]])
            assert (points[ids] == order).all()
        # different last nonzero coordinates: independent duals
        pairs = list(zip(duals, _some_duals(6, 3 - last, rng)))
        rrefs = [_kernel_rref(tables, pair) for pair in pairs]
        lines = line_point_ids(tables, rrefs)
        assert lines.shape == (6, 65) and lines.dtype == np.int64
        for (w, v), (r1, r2), ids in zip(pairs, rrefs, lines):
            on = (_dots(tables, w, points) == 0) & (_dots(tables, v, points) == 0)
            assert len(np.unique(ids)) == 65
            assert sorted(ids.tolist()) == np.flatnonzero(on).tolist()
            order = np.concatenate([r1 ^ tables.mul(scal, r2), [r2]])
            assert (points[ids] == order).all()


def test_plane_ids_peak_memory(F):
    """plane_point_ids writes its [P, 4161] ids in place: its traced peak
    on 256 planes stays within 2.5x the output, where [P, 64, 64, 4]
    coordinate temporaries would take ~10x."""
    tables = Gf64Tables(F)
    duals = _some_duals(256, 3, np.random.default_rng(15))
    planes = np.array([_kernel_rref(tables, [w]) for w in duals])
    tracemalloc.start()
    try:
        ids = plane_point_ids(tables, planes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * ids.nbytes


def _awkward_basis(F, r, seed):
    """Vectors of F_64^r that drive the packed GF(64) elimination through
    every pivot column and through zero rows: a repeated vector first (so
    position 0 of every d >= 2 holds it twice), an x-multiple (F_2-
    independent, F_64-dependent), an F_2-sum of two others, and one
    vector whose first nonzero coordinate is k for each k < r."""
    rng = XorShift64Star(seed)
    vecs = []
    for k in range(r):
        tail = [F.random_element(rng) for _ in range(r - k - 1)]
        vecs.append(tuple([0] * k + [F.random_element(rng) or 1] + tail))
    twice = vecs[1]
    return [twice, twice, tuple(F.mul(2, a) for a in vecs[3]),
            tuple(a ^ b for a, b in zip(vecs[0], vecs[2]))] + vecs


def test_packed_subset_sums_match_a_per_mask_sum(F, U1):
    """subset_sums of the packed basis vectors gives, mask by mask, the
    packed XOR of the basis vectors that the mask selects."""
    for basis in (U1.basis, _awkward_basis(F, 10, 39)):
        flats = coords_to_flats(basis).tolist()
        expect = []
        for mask in range(1 << len(flats)):
            acc = 0
            for k, flat in enumerate(flats):
                if mask >> k & 1:
                    acc ^= flat
            expect.append(acc)
        assert subset_sums(coords_to_flats(basis)).tolist() == expect


def _f2_combine(basis, row):
    """The sum of the basis vectors that the 0/1 coefficient row selects."""
    out = [0] * len(basis[0])
    for coeff, vec in zip(row, basis):
        if coeff:
            out = [a ^ b for a, b in zip(out, vec)]
    return tuple(out)


@pytest.mark.parametrize("which", ["U1", "U_planted", "U_G", "awkward-5", "awkward-10"])
def test_span_dims_match_fqm_span_dim(F, which, request):
    """F_64-span dimensions of d-dim F_2-subspaces, d = 1..nb, equal
    fqm_span_dim of the decoded vectors: at every position for d = 1
    (every first pivot column) and at ~40 spread positions, position 0
    among them, for d >= 2.  The planted system has spans below d; U_G
    has r = 3; the awkward systems (r = 5 and r = MAX_AMBIENT = 10) have
    repeated and dependent basis vectors."""
    if which.startswith("awkward"):
        r = int(which.split("-")[1])
        basis = _awkward_basis(F, r, 29 + r)
    else:
        basis = request.getfixturevalue(which).basis
    nb = len(basis)
    scanner = FqSpanScanner(Gf64Tables(F), basis)
    low = set()
    for d in range(1, nb + 1):
        enum = RrefEnumerator((0, 1), nb, d)
        if d == 1:
            got = list(scanner.iter_span_dims(1))
        else:
            # one-position chunks, every stride-th dealt to worker 0
            stride = max(1, enum.total // 40)
            got = list(scanner.iter_span_dims(d, stride=stride, chunk=1))
            last = enum.total - 1
            got += list(scanner.iter_span_dims(d, start=last, stride=enum.total, chunk=1))
        pos, spans = map(np.concatenate, zip(*got))
        if d == 1:
            assert pos.tolist() == list(range(enum.total))
        for p, span in zip(pos.tolist(), spans.tolist()):
            rows, _ = enum.decode(p)
            vecs = [_f2_combine(basis, row) for row in rows]
            assert span == fqm_span_dim(F, vecs), (d, p)
            if span < d:  # some row reduced to zero
                low.add(d)
    if which.startswith("awkward"):
        # zero subset sums (d = 1) and the repeat at position 0 (d >= 2)
        assert low == set(range(1, nb + 1))


@pytest.mark.parametrize("nb, dims", [
    (6, range(1, 7)), (10, range(1, 11)), (16, (1, 2, 3, 13, 15, 16)),
])
def test_coefficient_masks_decode_the_rref(nb, dims):
    """The span scan's per-row deposit tables give the coefficient masks
    that RrefEnumerator((0, 1), nb, d).decode gives: at every position
    for nb = 6, at ~40 spread positions (the first and last among them)
    for nb = 10 and 16, where a row holds up to 15 cells."""
    for d in dims:
        enum = RrefEnumerator((0, 1), nb, d)
        if nb == 6:
            picks = range(enum.total)
        else:
            picks = sorted({int(x) for x in np.linspace(0, enum.total - 1, 40)})
        for x in picks:
            p = enum.profile_of(x)
            rem = np.array([x - enum.offsets[p]], dtype=np.int64)
            masks = np.empty((d, 1), dtype=np.int64)
            gfbatch._coefficient_masks(nb, d, p, rem, masks, np.empty(1, dtype=np.int64))
            rows, _ = enum.decode(x)
            expect = [sum(bit << c for c, bit in enumerate(row)) for row in rows]
            assert masks[:, 0].tolist() == expect, (d, x)


def _weight_at(scanner, d, pos):
    """The scanner's weight of the subspace at one enumeration position."""
    enum = RrefEnumerator(range(64), scanner.r, d)
    ((got_pos, w),) = scanner.iter_weights(d, start=pos, stride=enum.total, chunk=1)
    assert np.asarray(got_pos).tolist() == [pos]
    return int(w[0])


@pytest.mark.parametrize("which", ["U1", "random-5", "random-6", "r5", "r6"])
def test_bitmap_weights_match_scalar_weight(F, U1, which):
    """Kernel-bitmap weights of points (d = 1) and lines (d = 2) equal the
    scalar weight at seeded positions in every pivot profile.  At r = 5
    and 6 a line has 3 and 4 free columns, so a tile ANDs 3 and 4 kernel
    tables."""
    if which == "U1":
        U = U1
    elif which.startswith("random"):
        U = random_fq_subspace(F, 4, 8, XorShift64Star(int(which.split("-")[1])))
    else:
        r = int(which[1])
        U = random_fq_subspace(F, r, {5: 10, 6: 9}[r], XorShift64Star(r))
    scanner = DualCodimScanner(Gf64Tables(F), U.basis)
    rng = np.random.default_rng(17)
    for d in (1, 2):
        enum = RrefEnumerator(range(64), U.r, d)
        for p in range(len(enum.profiles)):
            lo, count = enum.offsets[p], enum.counts[p]
            picks = {lo, lo + count - 1}
            picks.update(int(x) for x in lo + rng.integers(0, count, 6))
            for pos in sorted(picks):
                H = FqmSubspace(F, U.r, enum.decode(pos)[0])
                assert _weight_at(scanner, d, pos) == weight(U, H), (d, pos)


def _spread(enum, count):
    """~count positions spread over enum, with both ends of each profile."""
    ends = [x for at in enum.offsets for x in (at - 1, at)] + [enum.total - 1]
    spread = np.linspace(0, enum.total - 1, count).astype(np.int64).tolist()
    return sorted({x for x in ends + spread if 0 <= x < enum.total})


def _scalars(Q):
    return range(64) if Q == 64 else (0, 1)


@pytest.mark.parametrize("Q, n, d, spread", [
    (64, 3, 1, False), (64, 3, 2, False), *((2, 6, d, False) for d in range(7)),
    (64, 4, 1, True), (64, 4, 3, True),
])
def test_decode_rows_matches_the_scalar_decode(Q, n, d, spread):
    """decode_rows gives RrefEnumerator.decode's rows at every position,
    or at spread positions and every profile's ends, and rejects the
    positions outside [0, total) and positions that do not ascend."""
    enum = RrefEnumerator(_scalars(Q), n, d)
    positions = _spread(enum, 300) if spread else range(enum.total)
    rows = decode_rows(enum, np.array(positions))
    assert rows.shape == (len(positions), d, n) and rows.dtype == np.int16
    assert [tuple(map(tuple, r)) for r in rows.tolist()] == [
        enum.decode(i)[0] for i in positions
    ]
    for bad in (-1, enum.total):
        with pytest.raises(IndexError):
            decode_rows(enum, [bad])
    if enum.total > 1:
        with pytest.raises(ValueError):
            decode_rows(enum, [1, 0])


@pytest.mark.parametrize("Q, n, d", [(64, 4, 1), (64, 3, 2), (2, 8, 3), (2, 6, 2)])
def test_every_chunk_but_the_last_is_full(Q, n, d):
    """_rref_chunks cuts positions [k chunk, (k + 1) chunk) into chunk k,
    the last one shorter, chunk_count(total) of them, at chunks of 1,000
    and SCAN_CHUNK; each chunk's parts tile it profile by profile, and
    worker w of 3 takes the chunks k = w mod 3."""
    enum = RrefEnumerator(_scalars(Q), n, d)
    for chunk in (1000, gfbatch.SCAN_CHUNK):
        count = gfbatch.chunk_count(enum.total, chunk)
        chunks = list(gfbatch._rref_chunks(enum, 0, 1, chunk))
        assert len(chunks) == count == -(-enum.total // chunk)
        for k, (lo, hi, parts) in enumerate(chunks):
            assert (lo, hi) == (k * chunk, min((k + 1) * chunk, enum.total))
            at = lo
            for s, p, a, b in parts:
                assert s == at - lo and a == at - enum.offsets[p] < b <= enum.counts[p]
                at += b - a
            assert at == hi
        for w in range(3):
            dealt = list(gfbatch._rref_chunks(enum, w, 3, chunk))
            assert dealt == chunks[w::3]


def _dealt(values, d, total, workers, chunk):
    """Each position's value, merged over the shares of W = `workers`;
    each chunk's positions are a step-1 range (no array is allocated for
    them), and the shares must cover range(total) exactly once."""
    seen = np.zeros(total, dtype=np.int8)
    got = np.zeros(total, dtype=np.int8)
    for w in range(workers):
        for pos, v in values(d, start=w, stride=workers, chunk=chunk):
            assert isinstance(pos, range) and pos.step == 1 and len(pos) == len(v)
            seen[pos.start : pos.stop] += 1
            got[pos.start : pos.stop] = v
    assert (seen == 1).all()
    return got


@pytest.mark.parametrize("which, d, chunk", [
    ("U_G", 1, gfbatch.SCAN_CHUNK), ("U_G", 2, gfbatch.SCAN_CHUNK), ("U_G", 2, 1000),
    ("U1", 1, gfbatch.SCAN_CHUNK), ("U1", 1, 5000), ("U1", 2, gfbatch.SCAN_CHUNK),
    ("U1 codeword", 3, gfbatch.SCAN_CHUNK), ("U1 codeword", 3, 5000),
])
def test_chunks_deal_every_position_once(F, which, d, chunk, request):
    """Workers w of W = 1, 2, 3 take contiguous chunks round-robin: their
    positions cover the enumeration exactly once, and their weights equal
    the one-worker weights, also where a chunk (1,000 or 5,000 positions)
    cuts a 4,096-position tile.  The codeword scanner deals its normals,
    one per hyperplane, the same way."""
    name, _, codeword = which.partition(" ")
    U = request.getfixturevalue(name)
    scanner = (CodewordScanner if codeword else DualCodimScanner)(Gf64Tables(F), U.basis)
    total = RrefEnumerator(range(64), U.r, d).total
    whole = _dealt(scanner.iter_weights, d, total, 1, chunk)
    for workers in (2, 3):
        assert np.array_equal(_dealt(scanner.iter_weights, d, total, workers, chunk), whole)
    # each worker walks its chunks in ascending order
    lo = [int(p[0]) for p, _ in scanner.iter_weights(d, start=1, stride=2, chunk=chunk)]
    assert lo == sorted(lo)


@pytest.mark.parametrize("which", ["U_G", "random-3-8", "random-4-5", "U_planted"])
def test_point_weights_match_the_rank_path(F, which, request):
    """Full point scans (and line scans at r = 3) equal the rank path's
    weights (_rank_weights, which ranks each point's kernel as the d >= 3
    scans do) at chunks of 1,000 and SCAN_CHUNK positions and 1-3
    workers.  Point weights are read off linear_set, line weights off
    the tile loop, and U_planted has a point of weight 3."""
    if which.startswith("random"):
        r, nb = map(int, which.split("-")[1:])
        U = random_fq_subspace(F, r, nb, XorShift64Star(r * nb))
    else:
        U = request.getfixturevalue(which)
    scanner = DualCodimScanner(Gf64Tables(F), U.basis)
    for d in (1, 2) if U.r == 3 else (1,):
        enum = RrefEnumerator(range(64), U.r, d)
        expect = np.concatenate([
            scanner._rank_weights(piv, decode_rows(enum, np.arange(at, at + n)))
            for piv, at, n in zip(enum.profiles, enum.offsets, enum.counts)
        ])
        for chunk in (1000, gfbatch.SCAN_CHUNK):
            for workers in (1, 2, 3):
                got = _dealt(scanner.iter_weights, d, enum.total, workers, chunk)
                assert np.array_equal(got, expect), (d, chunk, workers)
    if which == "U_planted":
        assert expect.max() == 3


# a maximum 2-scattered subspace of V(5, 64), U_b = F_32 + b F_32 in
# F_{2^30}, as rows_to_text writes it
R5_SYSTEM = """\
5 6 1 b5
10 00 00 00 00
20 01 33 d2 d1
40 01 42 c2 61
80 00 42 60 90
01 01 70 20 f1
02 80 01 23 a3
00 10 20 21 50
00 21 01 13 50
00 40 e2 53 52
00 02 f3 40 00
"""


@pytest.mark.parametrize("workers", [1, 2])
def test_r5_point_oracle_holds(workers):
    """The oracle at order 1 on the r = 5 system (dim_q 10) reads the
    weights of all 17,043,521 points of PG(4, 64) off linear_set: 1,023
    points of weight 1, one per nonzero vector, and none of weight 2."""
    field, r, rows = rows_from_text(R5_SYSTEM)
    U = FqSubspace.span(field, r, rows)
    assert U.dim_q == 10
    v = is_h_scattered_oracle(U, 1, workers=workers)
    assert v.ok and v.checked_count == 17_043_521
    assert v.details["weight_hist"] == {"0": 17_042_498, "1": 1023}


@pytest.mark.parametrize("lead", [2, 4, 6])
def test_linear_set_counts_catch_a_wrong_inverse(F, U_planted, lead):
    """U_planted's point <(1, 0, 0, 0)> carries the 7 vectors (a, 0, 0, 0),
    a in <1, x, x^2>.  With one bit of 1 / lead flipped, the vector of
    that lead lands on another id, the point keeps 6 of its 7 vectors,
    and linear_set raises instead of reporting a weight."""
    tables = Gf64Tables(F)
    ids, counts = gfbatch.linear_set(tables, U_planted.basis)
    assert counts[ids == 0].tolist() == [7]
    tables.inv[lead] ^= 1
    with pytest.raises(InvariantViolation, match="2\\^w - 1"):
        gfbatch.linear_set(tables, U_planted.basis)


@pytest.mark.parametrize("which, d, count", [("random", 1, None), ("U1", 2, 20)])
def test_scan_chunks_allocate_only_their_weights(F, U1, which, d, count):
    """After the first chunk, which builds linear_set or the profile's
    kernel tables and tile buffers, each chunk of a full point scan of a
    random 8-dim U (zero-filled, then the linear set's weights written
    in) and of 20 chunks of U_1's line scan (the tile loop) keeps its
    weight array and a small constant at most, and peaks above that by
    at most numpy's two ufunc buffers (the tile AND broadcasts
    two kernel slices).  So no positions array comes with a chunk, and
    no array the size of a profile is built per chunk."""
    U = U1 if which == "U1" else random_fq_subspace(F, 4, 8, XorShift64Star(48))
    chunks = DualCodimScanner(Gf64Tables(F), U.basis).iter_weights(d)
    kept = [next(chunks)]
    small, buffers = 16 * 1024, 2 * 8 * np.getbufsize()
    tracemalloc.start()
    try:
        while len(kept) != count:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            item = next(chunks, None)
            now, peak = tracemalloc.get_traced_memory()
            if item is None:
                break
            kept.append(item)
            size = item[1].nbytes
            assert now - before <= size + small, len(kept)
            assert peak - before <= size + buffers + small, len(kept)
    finally:
        tracemalloc.stop()
    assert len(kept) == (count or 17)


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
    bitmaps = scanner.kernel_bitmaps(scanner._dots(duals))
    assert bitmaps.shape == (40, 4) and bitmaps.dtype == np.uint64
    ranks = 8 - scanner.weights_for_duals(duals[:, None, :])
    for bm, rank in zip(bitmaps, ranks):
        members = [a for a in range(256) if (int(bm[a // 64]) >> (a % 64)) & 1]
        assert 0 in members and len(members) == 2 ** (8 - int(rank))
        assert all(a ^ b in members for a in members[:8] for b in members)


def test_codeword_scanner_index_map(F, code):
    """Normal number i is the RREF of position i among the 1-dim
    subspaces and the normalized point with id i (k = 4), and n minus the
    weight of its hyperplane is the rank weight of its codeword."""
    scanner = CodewordScanner(Gf64Tables(F), code.system.basis)
    enum = RrefEnumerator(range(64), 4, 1)
    assert enum.total == POINT_COUNT == 266_305
    # the head of the pivot-0 block, and the tail through pivots 1, 2, 3
    for lo, hi in ((0, 600), (POINT_COUNT - 4200, POINT_COUNT)):
        ids = np.arange(lo, hi)
        msgs = decode_rows(enum, ids)[:, 0]
        assert point_ids(msgs).tolist() == ids.tolist()
        assert [list(enum.decode(i)[0][0]) for i in range(lo, hi)] == msgs.tolist()
        weights = scanner.nb - scanner.scan_range(lo, hi)
        assert weights.tolist() == [
            rank_weight(F, code.encode(msg)) for msg in msgs.tolist()
        ]


def test_scanner_widths_are_checked(F, U1):
    """Too many basis vectors for an int64 pack (11, in both weight
    scanners) raises InvariantViolation (a check, not an assert)."""
    tables = Gf64Tables(F)
    with pytest.raises(InvariantViolation):
        DualCodimScanner(tables, list(U1.basis) + list(U1.basis[:3]))
    with pytest.raises(InvariantViolation):
        CodewordScanner(tables, [[1] * 4] * 11)


# -- batched sampled tests -----------------------------------------------------


@pytest.mark.parametrize("h", [1, 3, 5])
def test_field_arrays_match_field_mul(h):
    """BinaryField.mul_array on arrays of field elements (exp/log gather
    for e <= 20, carryless product and fold for GF(2^30)) equals
    BinaryField.mul, zero operands included."""
    F = default_field(h)
    rng = XorShift64Star(100 + h)
    a = [F.random_element(rng) for _ in range(400)] + [0, 0, 1, F.order - 1]
    b = [F.random_element(rng) for _ in range(400)] + [0, 5, F.order - 1, F.order - 1]
    got = F.mul_array(np.array(a), np.array(b))
    assert got.dtype == np.int64
    assert got.tolist() == [F.mul(x, y) for x, y in zip(a, b)]


def test_mul_array_views_the_tables():
    """At h = 3 a product gathers from views of the field's ~3 MB of
    GF(2^18) tables: one call on 4-element arrays copies none of them."""
    F = default_field(3)
    a = np.array([0, 1, 2, F.order - 1])
    F.mul_array(a, a)  # numpy's first-call set-up stays out of the bound
    tracemalloc.start()
    try:
        got = F.mul_array(a, a[::-1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tolist() == [F.mul(x, y) for x, y in zip(a.tolist(), a[::-1].tolist())]
    assert peak < 64 * 1024


def test_field_arrays_reject_fields_past_int64():
    """GF(2^42) (x^42 + x^5 + x^2 + x + 1, as the CLI test builds it) is a
    real field, but its numpy products do not fit in an int64."""
    F = BinaryField(7, from_nibble_hex("72000000004"))
    assert F.e == 42
    with pytest.raises(ConfigError):
        F.mul_array(np.array([1, 2]), np.array([3, 4]))


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
    got = fqm_rank_batch(F.mul_array, np.array(mats, dtype=np.int64))
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
