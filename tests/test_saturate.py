import json
import tracemalloc
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np
import pytest

from qscat import gfbatch
from qscat.errors import ConfigError, WorkLimitExceeded
from qscat.gfbatch import (
    POINT_COUNT,
    POINTS,
    Gf64Tables,
    coords_to_flats,
    decode_rows,
    laplace_minors,
    line_point_ids,
    plane_normal,
    plane_point_ids,
    point_ids,
    rref_small_batch,
)
from qscat.linalg import FqSubspace
from qscat.rng import XorShift64Star
from qscat.saturate import (
    LinearSet,
    _dual_images,
    _pair_slices,
    _saturation_worker,
    is_rho_saturating,
    linear_set_points,
)
from qscat.scatter import build_Us

REFERENCE = (
    Path(__file__).resolve().parents[1]
    / "perfbench" / "reference" / "saturating_q2.json"
)


def test_point_id_bijection():
    """point_ids inverts decode_rows on the points of PG(3, 64), which the
    scalar decode, the saturation witness's, decodes alike."""
    assert POINT_COUNT == POINTS.total == 266_305
    ids = np.arange(POINT_COUNT)
    vecs = decode_rows(POINTS, ids)[:, 0]
    lead = vecs[np.arange(POINT_COUNT), np.argmax(vecs != 0, axis=1)]
    assert (lead == 1).all()
    assert (point_ids(vecs) == ids).all()
    for pid in range(0, POINT_COUNT, 97):
        assert POINTS.decode(pid)[0][0] == tuple(int(c) for c in vecs[pid])
    for bad in (-1, POINT_COUNT):
        with pytest.raises(IndexError):
            decode_rows(POINTS, [bad])
        with pytest.raises(IndexError):
            POINTS.decode(bad)


def _subset(F, U1, seed, draws):
    full = linear_set_points(U1)
    rng = XorShift64Star(seed)
    pick = sorted(set(rng.randrange(255) for _ in range(draws)))
    return LinearSet(F, full.ids[pick], full.coords[pick])


def _mark_every_span(F, S, rho, chunk=256):
    """Reference bitmap: the points of every subset span, from its RREF,
    with no minors, no deduplication and no early stop (S has no
    repeats, so a span has rank min(rho + 1, 2) at least)."""
    tables = Gf64Tables(F)
    subs = np.array(list(combinations(range(len(S)), rho + 1)))
    covered = np.zeros(POINT_COUNT, dtype=bool)
    for lo in range(0, len(subs), chunk):
        rank, rref = rref_small_batch(tables, S.coords[subs[lo : lo + chunk]])
        assert rank.min() >= min(rho + 1, 2)
        covered[point_ids(rref[rank == 1, 0])] = True
        for r, ids_of in ((2, line_point_ids), (3, plane_point_ids)):
            if (rank == r).any():
                covered[ids_of(tables, rref[rank == r, :r]).ravel()] = True
        if (rank == 4).any():
            covered[:] = True
    return covered


def _count_planes(monkeypatch):
    stamped = []
    mark = gfbatch.plane_point_ids

    def counting(tables, rref):
        stamped.append(len(rref))
        return mark(tables, rref)

    monkeypatch.setattr(gfbatch, "plane_point_ids", counting)
    return stamped


def test_linear_set_of_U(F, U1):
    S = linear_set_points(U1)
    assert len(S) == 255
    # scattered: the 255 nonzero vectors hit 255 distinct points
    assert len(set(int(i) for i in S.ids)) == 255
    assert (S.ids[1:] > S.ids[:-1]).all()
    assert len(S) <= (2**U1.dim_q - 1) // (2 - 1)
    for coords in S.coords[:10]:
        assert coords[next(i for i in range(4) if coords[i])] == 1


@pytest.mark.parametrize("name", ["U1", "U_planted"])
def test_linear_set_is_the_scaled_vectors(F, request, name):
    """L(U) is the set of U's nonzero vectors scaled by 1 / lead in scalar
    field arithmetic, for the scattered U_1 and the non-scattered
    U_planted; its ids ascend, and each decodes to its coordinates."""
    U = request.getfixturevalue(name)
    expect = set()
    for v in U.vectors():
        if any(v):
            scale = F.inv(next(x for x in v if x))
            expect.add(tuple(F.mul(scale, x) for x in v))
    S = linear_set_points(U)
    assert (len(S) == 255) is (name == "U1")
    assert sorted(map(tuple, S.coords.tolist())) == sorted(expect)
    assert (S.ids[1:] > S.ids[:-1]).all()
    assert [POINTS.decode(pid)[0][0] for pid in S.ids.tolist()] == [
        tuple(v) for v in S.coords.tolist()
    ]


def test_linear_set_single_line(F):
    one = FqSubspace.span(F, 4, [(1, 2, 3, 4)])
    S = linear_set_points(one)
    assert len(S) == 1


def test_rho0_fails_by_cardinality(F, U1):
    S = linear_set_points(U1)
    inst = is_rho_saturating(S, 0)
    v = inst.verdict
    assert not v.ok
    assert len(S) == 255 < v.details["ambient_points"] == 266_305
    assert v.witness["kind"] == "uncovered_point"
    # the witness is re-checkable: its id is not among the marked points
    assert not inst.covered[v.witness["point_id"]]
    # exactly the points of S are covered for rho = 0
    marked = np.flatnonzero(inst.covered)
    assert list(marked) == [int(i) for i in S.ids]
    assert v.details["distinct_small_spans"] == 255


@pytest.mark.parametrize("workers", [1, 2])
def test_rho1_small_spans_are_the_weight2_lines(F, U1, workers):
    # every pair of L(U) lies on one of the [8,2]_2 = 10,795 lines that
    # meet L(U) in 3 points; each line is reached by 3 pairs, two of them
    # in one batch (same first index) and the third in a later one
    inst = is_rho_saturating(linear_set_points(U1), 1, workers=workers)
    assert inst.verdict.checked_count == 32_385 == 3 * 10_795
    assert inst.verdict.details["distinct_small_spans"] == 10_795


def test_full_linear_set_stops_marking_early(F, U1, monkeypatch):
    stamped = _count_planes(monkeypatch)
    inst = is_rho_saturating(linear_set_points(U1), 2, workers=1)
    # the stored reference certificate was made by marking every plane
    reference = json.loads(REFERENCE.read_text())["result"]["verdict"]
    assert json.dumps(inst.verdict.to_json(), sort_keys=True) == json.dumps(
        reference, sort_keys=True
    )
    assert inst.covered.all()
    assert reference["details"]["distinct_planes"] == 60_265
    assert sum(stamped) <= 1024


@pytest.mark.parametrize(
    "seed, draws, saturating", [(51, 25, True), (52, 40, True), (53, 16, False)]
)
def test_early_stop_matches_marking_every_span(
    F, U1, monkeypatch, seed, draws, saturating
):
    S = _subset(F, U1, seed, draws)
    reference = _mark_every_span(F, S, 2)
    stamped = _count_planes(monkeypatch)
    one = is_rho_saturating(S, 2, workers=1)
    two = is_rho_saturating(S, 2, workers=2)
    assert one.verdict.to_json() == two.verdict.to_json()
    assert (one.covered == two.covered).all()
    assert (one.covered == reference).all()
    v = one.verdict
    assert v.ok is saturating is bool(reference.all())
    assert v.details["covered_points"] == int(reference.sum())
    n_planes = v.details["distinct_planes"]
    assert sum(stamped) <= 2 * n_planes
    if saturating:
        assert v.witness is None
    else:
        assert v.witness["point_id"] == int(np.argmin(reference))
        assert sum(stamped) == 2 * n_planes  # a failing run marks every plane


@pytest.mark.parametrize("rho", [0, 1, 2, 3])
def test_every_rho_matches_marking_every_span(F, U1, rho):
    S = _subset(F, U1, 53, 16)
    reference = _mark_every_span(F, S, rho)
    for workers in (1, 2):
        inst = is_rho_saturating(S, rho, workers=workers)
        v = inst.verdict
        assert (inst.covered == reference).all()
        assert v.ok is bool(reference.all())
        assert v.checked_count == comb(len(S), rho + 1)
        assert v.details["covered_points"] == int(reference.sum())
        if not v.ok:
            assert v.witness["point_id"] == int(np.argmin(reference))


@pytest.mark.parametrize("rho", [2, 3])
def test_plane_section_spans_one_plane(F, U1, rho):
    """The 15 points of L(U) on the plane x_3 = 0: every triple and every
    4-subset of them spans that plane or a line in it."""
    full = linear_set_points(U1)
    on = full.coords[:, 3] == 0
    S = LinearSet(F, full.ids[on], full.coords[on])
    assert len(S) == 15
    plane = decode_rows(POINTS, np.arange(POINT_COUNT))[:, 0][:, 3] == 0
    assert (_mark_every_span(F, S, rho) == plane).all()
    for workers in (1, 2):
        inst = is_rho_saturating(S, rho, workers=workers)
        assert inst.verdict.details["distinct_planes"] == 1
        assert not inst.verdict.details["full_span_seen"]
        assert (inst.covered == plane).all()
        assert not inst.verdict.ok


def test_negative_rho_is_config_error(F, U1):
    S = linear_set_points(U1)
    with pytest.raises(ConfigError, match="rho"):
        is_rho_saturating(S, -1)


def test_vacuous_rho_is_config_error(F, U1):
    """rho + 1 > |S| leaves no (rho+1)-subset: a ConfigError, not a
    refutation with checked_count 0; rho + 1 = |S| is one subset."""
    full = linear_set_points(U1)
    on = full.coords[:, 3] == 0
    section = LinearSet(F, full.ids[on], full.coords[on])
    assert len(section) == 15
    with pytest.raises(ConfigError, match="rho"):
        is_rho_saturating(section, 15)
    one = is_rho_saturating(section, 14).verdict
    assert not one.ok and one.checked_count == 1
    assert one.details["distinct_planes"] == 1
    with pytest.raises(ConfigError, match="rho"):
        is_rho_saturating(full, 255)
    every = is_rho_saturating(full, 254).verdict
    assert every.ok and every.checked_count == 1
    assert every.details["full_span_seen"]


def test_marking_monotone_in_rho(F, U1):
    S = _subset(F, U1, 51, 25)
    prev = None
    for rho in (0, 1, 2):
        inst = is_rho_saturating(S, rho)
        cov = inst.covered
        # every point of S is marked at every rho
        assert cov[S.ids].all()
        if prev is not None:
            assert (cov | prev == cov).all()  # superset of the previous mark set
        prev = cov


def test_worker_count_independence(F, U1):
    S = _subset(F, U1, 52, 40)
    a = is_rho_saturating(S, 1, workers=1)
    b = is_rho_saturating(S, 1, workers=2)
    assert a.verdict.to_json() == b.verdict.to_json()
    assert (a.covered == b.covered).all()


def test_rho3_with_full_span_shortcut(F, U1):
    """Some 4-subset of a 30-point S spans F_64^4, so every point is
    covered without marking; every 4-subset is still scanned, and the
    verdict does not depend on the worker count."""
    S = _subset(F, U1, 54, 33)
    assert len(S) == 30
    one = is_rho_saturating(S, 3, workers=1)
    two = is_rho_saturating(S, 3, workers=2)
    assert one.verdict.to_json() == two.verdict.to_json()
    assert one.verdict.ok
    assert one.verdict.details["full_span_seen"]
    assert one.verdict.checked_count == comb(30, 4)


def test_budget_guard(F, U1):
    S = linear_set_points(U1)
    with pytest.raises(WorkLimitExceeded):
        is_rho_saturating(S, 3)  # C(255, 4) exceeds the default budget


def test_linear_set_budget_counts_subset_sums(U1):
    """The work estimate is the 2^dim_q = 256 subset sums of U's basis."""
    assert len(linear_set_points(U1, budget=256)) == 255
    with pytest.raises(WorkLimitExceeded):
        linear_set_points(U1, budget=255)


def test_q8_linear_set_guarded(F8):
    """q = 8 is outside the GF(64) subset-XOR packing: a shape error
    naming q, not a budget error."""
    U8 = build_Us(F8, 1)
    with pytest.raises(ConfigError, match="q = 8"):
        linear_set_points(U8)


def test_plane_rref_matches_rref_small_batch(F):
    """The closed-form RREF of every plane of PG(3, 64) equals the row
    reduction of the basis e_k + w_k e_piv (k != piv) of w . x = 0."""
    from qscat.saturate import _plane_rref

    tables = Gf64Tables(F)
    duals = decode_rows(POINTS, np.arange(POINT_COUNT))[:, 0]
    piv = np.argmax(duals != 0, axis=1)  # the first nonzero w_piv is 1
    bidx = np.arange(len(duals))
    basis = np.zeros((len(duals), 3, 4), dtype=np.int16)
    slot = np.zeros(len(duals), dtype=np.int64)
    for k in range(4):
        is_free = k != piv
        r = np.minimum(slot, 2)
        basis[bidx, r, k] = np.where(is_free, 1, basis[bidx, r, k])
        basis[bidx, r, piv] ^= np.where(is_free, duals[:, k], 0).astype(np.int16)
        slot += is_free
    rank, reference = rref_small_batch(tables, basis)
    assert (rank == 3).all()
    assert np.array_equal(_plane_rref(tables, duals), reference)


def _packed_mismatches(tables, xs, ys, zs, flip=None):
    """Triples (x, y, z), x in xs and (y, z) in zip(ys, zs), whose packed
    dual (the saturation scan's lookups) differs from the coords_to_flats
    of plane_normal(laplace_minors(...)), or whose nonzero dual's id
    does not name it (_id_mismatches).  flip = (table, bit) plants a fault:
    bit `bit` of the first triple's entry in the first x's T0 ("dual"), or
    of the id-table entry that the first nonzero dual's low half reads
    ("id").  Returns the count of
    mismatches and the reference duals [X * P, 4]."""
    slices = _pair_slices(tables, ys, zs)
    id_table = gfbatch.packed_id_table(tables)
    packed = []
    for k, image in enumerate(_dual_images(tables, xs)):
        t = gfbatch.subset_sums(image)
        if flip is not None and flip[0] == "dual" and k == 0:
            t[0, slices[0, 0]] ^= 1 << flip[1]
        packed.append(t[0][slices[0]] ^ t[1][slices[1]] ^ t[2][slices[2]])
    packed = np.concatenate(packed)
    X, P = len(xs), len(ys)
    rows = [np.repeat(xs, P, axis=0), np.tile(ys, (X, 1)), np.tile(zs, (X, 1))]
    w = plane_normal(laplace_minors(tables.mul, rows))
    if flip is not None and flip[0] == "id":
        first = w[np.argmax(w.any(axis=1))]
        lead = int(first[np.argmax(first != 0)])
        id_table[(lead << 12) | int(coords_to_flats(first) & 0xFFF)] ^= 1 << flip[1]
    bad = packed != coords_to_flats(w)
    nonzero = np.flatnonzero(packed != 0)
    ids = gfbatch.packed_point_ids(id_table, packed[nonzero])
    bad[nonzero] |= _id_mismatches(tables, ids, w[nonzero])
    return int(bad.sum()), w


def _id_mismatches(tables, ids, vecs):
    """[N] bool: the ids that do not name their nonzero vectors [N, 4].  An
    id names v when it is a point of PG(3, 64) whose decoded coordinates,
    scaled by v's lead, are v."""
    inside = (ids >= 0) & (ids < POINT_COUNT)
    order = np.argsort(ids[inside])  # decode_rows takes ascending ids
    points = np.empty((len(order), 4), dtype=np.int16)
    points[order] = decode_rows(POINTS, ids[inside][order])[:, 0]
    v = vecs[inside]
    lead = v[np.arange(len(v)), np.argmax(v != 0, axis=1)]
    bad = ~inside
    bad[inside] = (tables.mul(points, lead[:, None]) != v).any(axis=1)
    return bad


def _sparse_points(rng, count):
    """Random nonzero points of F_64^4, each coordinate zero with
    probability 1/2, so their planes' duals meet every pivot."""
    pts = rng.integers(1, 64, size=(count, 4)) * (rng.random((count, 4)) < 0.5)
    pts[~pts.any(axis=1), 3] = 1
    return pts.astype(np.int16)


def _packed_kernel_inputs(F):
    """(xs, ys, zs) of 40 x 600 seeded triples with planted zero duals:
    pairs 0-99 are collinear with their x = xs[j % 40] (z = a x + b y),
    pairs 100-149 repeat y, and pairs 150-199 take y = xs[j % 40]."""
    tables = Gf64Tables(F)
    rng = np.random.default_rng(30)
    xs, ys, zs = _sparse_points(rng, 40), _sparse_points(rng, 600), _sparse_points(rng, 600)
    a, b = (rng.integers(0, 64, size=(100, 1)).astype(np.int16) for _ in range(2))
    zs[:100] = tables.mul(a, xs[np.arange(100) % 40]) ^ tables.mul(b, ys[:100])
    zs[100:150] = ys[100:150]
    ys[150:200] = xs[np.arange(150, 200) % 40]
    return tables, xs, ys, zs


def test_packed_duals_match_the_minors(F, U1):
    """The packed dual of every triple, and the id of every nonzero one,
    equal the minors path's, on seeded sparse triples (every pivot, every
    lead, and collinear and repeated-point triples, whose dual is 0) and
    on every triple of L(U_1) with one of six first points."""
    tables, xs, ys, zs = _packed_kernel_inputs(F)
    count, w = _packed_mismatches(tables, xs, ys, zs)
    assert count == 0
    w = w.reshape(40, 600, 4)
    nonzero = w[w.any(axis=-1)]
    piv = np.argmax(nonzero != 0, axis=1)
    assert set(piv.tolist()) == {0, 1, 2, 3}
    assert set(nonzero[np.arange(len(piv)), piv].tolist()) == set(range(1, 64))
    own = np.arange(200) % 40, np.arange(200)  # each planted pair with its x
    assert not w[own].any()
    S = linear_set_points(U1)
    pairs = np.array(list(combinations(range(len(S)), 2)))
    ys, zs = S.coords[pairs[:, 0]], S.coords[pairs[:, 1]]
    count, w = _packed_mismatches(tables, S.coords[:6], ys, zs)
    assert count == 0
    # the 254 pairs holding x repeat it, and each point of L(U) lies on
    # 3 * 10,795 / 255 = 127 lines that meet L(U) in 3 points
    assert (~w.any(axis=1)).sum() == 6 * (254 + 127)


@pytest.mark.parametrize("flip", [("dual", 0), ("dual", 23), ("id", 0), ("id", 11)])
def test_packed_duals_catch_a_flipped_table_bit(F, flip):
    """A planted fault, one flipped bit of one lookup-table entry, makes
    the comparison with the minors path fail."""
    tables, xs, ys, zs = _packed_kernel_inputs(F)
    assert _packed_mismatches(tables, xs, ys, zs, flip)[0] > 0


def test_saturation_worker_peak_memory(F, U1):
    """One discovery worker on L(U_1) at rho = 2 keeps its traced peak
    under 8 MB: two id-indexed bitmaps, the packed pairs, the dual and id
    tables, and the collinear triples row-reduced in batches."""
    S = linear_set_points(U1)
    args = (F, S.coords, 2)
    tracemalloc.start()
    try:
        found = _saturation_worker(args, 0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(found["small_keys"]) == 10_795
    assert peak < 8_000_000
