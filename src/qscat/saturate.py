"""Linear-set points in PG(3, q^6) and rho-saturation.

The one module that needs r = 4: L(U) is a point set of PG(3, 64), and
linear_set_points rejects any other ambient F_64^r with a ConfigError.
Points carry dense ids (pivot-block offset plus base-q^m digits).  The
saturation scan walks every (rho+1)-subset of S, in numpy blocks by
first index.  For rho = 2 the 3x3 minors of a triple (x, y, z), the
dual of its plane, vanish iff it is collinear; they are F_64-linear in
the Plücker coordinates of (y, z), packed once per pair into a 36-bit
word p, so three 4,096-entry tables of x give the packed dual as
T0[p & 0xfff] ^ T1[(p >> 12) & 0xfff] ^ T2[p >> 24], and two lookups
its id (gfbatch.packed_point_ids).  Collinear triples, and every subset
when rho != 2, are canonicalized by RREF in batches; their points and
lines are marked during the scan, once per distinct RREF in a batch.
Planes are deduplicated by their dual point id and marked afterwards in
dual-id order, a chunk at a time, stopping as soon as every point is
covered.  A failing instance marks every plane, and the first unmarked
id is the witness.
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np
# np.unique's default path reads np.ma, whose lazy first import takes
# ~15 ms (numpy 2.4, one shared vCPU): take it here, once, rather than
# in each fork worker of the scan
import numpy.ma  # noqa: F401

from .errors import ConfigError, InvariantViolation, WorkLimitExceeded
from .field import BinaryField
from .parallel import run_partitioned
from .scatter import DEFAULT_BUDGET, Verdict
from . import gfbatch


@dataclass
class LinearSet:
    """The point set L(U) with dense ids, in id order."""

    field: BinaryField
    ids: np.ndarray
    coords: np.ndarray  # [n, 4] int16, normalized

    def __len__(self):
        return len(self.ids)


@dataclass
class SaturationInstance:
    verdict: Verdict
    covered: np.ndarray  # mark bitmap, id-indexed


def linear_set_points(U, budget=DEFAULT_BUDGET):
    """The projective points spanned by nonzero vectors of U: the ids of
    gfbatch.linear_set, with their normalized coordinates.

    Size is at most (q^dim - 1)/(q - 1), with equality iff U is
    scattered; for scattered U the enumeration meets no duplicates.  The
    work is the 2^dim_q subset sums of U's basis (q = 2 only).
    """
    field = U.field
    total = 2**U.dim_q
    if total > budget:
        raise WorkLimitExceeded(total, budget)
    gfbatch.check_scan_shape(gfbatch.FqSpanScanner, field, U.r, U.dim_q)
    if U.r != 4:
        raise ConfigError(
            "linear-set points lie in PG(3, 64): need r = 4, got r = %d" % U.r
        )
    ids, _ = gfbatch.linear_set(gfbatch.Gf64Tables(field), U.basis)
    return LinearSet(field, ids, gfbatch.decode_rows(gfbatch.POINTS, ids)[:, 0])


def _lex_subsets(n, k):
    """Every k-subset of range(n) as a [C(n, k), k] int32 array, rows in
    lexicographic order.

    Built one column at a time; a prefix is kept only if it extends to a
    k-subset, so no intermediate array outgrows the result.
    """
    subs = np.zeros((1, 0), dtype=np.int32)
    for j in range(k):
        last = subs[:, -1] if j else np.full(1, -1, dtype=np.int32)
        # column j takes last + 1 .. n - k + j, leaving room for the rest
        counts = np.maximum(n - k + j - last, 0)
        offsets = np.cumsum(counts) - counts
        col = np.arange(counts.sum(), dtype=np.int32)
        col += np.repeat(last + 1 - offsets, counts).astype(np.int32)
        subs = np.concatenate([np.repeat(subs, counts, axis=0), col[:, None]], axis=1)
    return subs


def _subset_blocks(tails, n, start, stride):
    """One worker's slice of the s-subsets of range(n), by first index.

    tails holds every (s-1)-subset of range(n) in lexicographic order.
    The s-subsets with first index i are i followed by each tail whose
    first entry exceeds i, a suffix of tails.  Yields (i, lo, hi) for
    i = start, start + stride, ..., with hi - lo <= _SUBSET_BLOCK.
    """
    firsts = tails[:, 0] if tails.shape[1] else np.full(len(tails), n)
    for i in range(start, n, stride):
        lo = int(np.searchsorted(firsts, i, side="right"))
        for c in range(lo, len(tails), _SUBSET_BLOCK):
            yield i, c, min(c + _SUBSET_BLOCK, len(tails))


def _plane_rref(tables, duals):
    """RREF rows [P, 3, 4] of the planes w . x = 0, for duals w [P, 4]: with
    p the last nonzero coordinate of w, e_k + (w_k / w_p) e_p for k != p."""
    bidx = np.arange(len(duals))[:, None]
    p = 3 - np.argmax(duals[:, ::-1] != 0, axis=1)[:, None]
    ratio = tables.mul(duals, tables.inv[duals[bidx, p]])
    ks = np.nonzero(np.arange(4) != p)[1].reshape(-1, 3)
    rows = (ks[:, :, None] == np.arange(4)).astype(np.int16)
    rows[bidx, np.arange(3), p] = np.take_along_axis(ratio, ks, axis=1)
    return rows


def _mark_planes(tables, covered, plane_bitmap):
    """Mark the points of the flagged planes, in dual-id order.

    Stops after the first chunk that leaves every point covered: later
    planes cannot change the bitmap.  A failing instance stamps every
    plane, so its bitmap and first uncovered id are those of a full
    sweep.
    """
    dual_ids = np.flatnonzero(plane_bitmap)
    for lo in range(0, len(dual_ids), _MARK_BATCH):
        rows = gfbatch.decode_rows(gfbatch.POINTS, dual_ids[lo : lo + _MARK_BATCH])
        ids = gfbatch.plane_point_ids(tables, _plane_rref(tables, rows[:, 0]))
        covered[ids.ravel()] = True
        if covered.all():
            return


def _small_span_keys(rref):
    """int64 keys of RREF matrices of rank <= 2: rows 0 and 1, 24 bits each.

    Rows past the rank are zero, so equal keys mean equal spans.
    """
    flats = gfbatch.coords_to_flats(rref[:, :2, :])
    key = flats[:, 0] << 24
    if flats.shape[1] > 1:
        key |= flats[:, 1]
    return key


def _mark_spans(tables, id_table, mats, found):
    """Row-reduce the spans mats [B, s, 4] into `found` (plane ids, covered
    points and lines, small-span keys, full span); return the ranks."""
    rank, rref = gfbatch.rref_small_batch(tables, mats)
    found["full_span"] |= bool((rank == 4).any())
    r3 = rref[rank == 3]
    if len(r3):
        minors = gfbatch.laplace_minors(tables.mul, list(r3[:, :3].transpose(1, 0, 2)))
        w = gfbatch.coords_to_flats(gfbatch.plane_normal(minors))
        found["planes"][gfbatch.packed_point_ids(id_table, w)] = True
    small = np.flatnonzero(rank <= 2)
    if len(small):
        # one representative per distinct span in this batch; spans
        # repeated across batches are stamped again, which is harmless
        keys, first = np.unique(_small_span_keys(rref[small]), return_index=True)
        found["small_keys"].append(keys)
        reps = small[first]
        points = reps[rank[reps] == 1]
        found["covered"][gfbatch.point_ids(rref[points, 0])] = True
        lines = reps[rank[reps] == 2]
        if len(lines):
            ids = gfbatch.line_point_ids(tables, rref[lines, :2])
            found["covered"][ids.ravel()] = True
    return rank


_PAIR_MINORS = list(combinations(range(4), 2))  # minor k at bits 6k of a pair word
_COLLINEAR_BATCH = 2048  # collinear triples per rref_small_batch call
_SUBSET_BLOCK = 32768  # subsets per block of one first index
_MARK_BATCH = 256  # planes per _mark_planes step


def _pair_slices(tables, ys, zs):
    """[3, P] 12-bit slices of the 36-bit Plücker words of the pairs (y, z)."""
    pluck = gfbatch.laplace_minors(tables.mul, [ys, zs])
    words = gfbatch.coords_to_flats(np.stack([pluck[T] for T in _PAIR_MINORS], -1))
    return (words >> np.array([[0], [12], [24]])) & 0xFFF


def _dual_images(tables, firsts):
    """[F, 3, 12] int32: the packed plane dual w(x; e_j) of each first
    point x over the unit bit e_j of each slice of a pair word."""
    units = gfbatch.flats_to_coords(np.int64(1) << np.arange(36), 6)
    below = dict(zip(_PAIR_MINORS, units.T))
    minors = gfbatch.laplace_minors(tables.mul, [firsts[:, None, :]], below)
    duals = gfbatch.coords_to_flats(gfbatch.plane_normal(minors))
    return duals.astype(np.int32).reshape(-1, 3, 12)


def _subsets(i, tails):
    """[B, s] indices of the subsets i followed by each of tails [B, s - 1]."""
    return np.column_stack([np.full(len(tails), i), tails])


def _flag_planes(tables, id_table, coords, tails, blocks, found):
    """Flag the planes of the triples in `blocks` by dual id (see the
    module docstring); return the collinear ones, [K, 3] indices."""
    slices = _pair_slices(tables, coords[tails[:, 0]], coords[tails[:, 1]])
    images = _dual_images(tables, coords)
    collinear = [np.empty((0, 3), dtype=np.int64)]
    for i, lo, hi in blocks:
        found["checked"] += hi - lo
        t = gfbatch.subset_sums(images[i])
        w = t[0][slices[0, lo:hi]] ^ t[1][slices[1, lo:hi]] ^ t[2][slices[2, lo:hi]]
        on_plane = w != 0
        found["planes"][gfbatch.packed_point_ids(id_table, w[on_plane])] = True
        collinear.append(_subsets(i, tails[lo + np.flatnonzero(~on_plane)]))
    return np.concatenate(collinear)


def _saturation_worker(args, start, stride):
    """Discovery pass: flag planes by dual id, mark the small spans.

    For rho = 2, _flag_planes reads each triple's plane off table
    lookups, and only the collinear triples are row-reduced, in batches
    of _COLLINEAR_BATCH.  For rho != 2 every subset is row-reduced, one
    block of first index at a time.
    """
    field, coords, rho = args
    tables = gfbatch.Gf64Tables(field)
    id_table = gfbatch.packed_id_table(tables)
    n = len(coords)
    tails = _lex_subsets(n, rho)
    blocks = _subset_blocks(tails, n, start, stride)
    found = {
        "covered": np.zeros(gfbatch.POINT_COUNT, dtype=bool),
        "planes": np.zeros(gfbatch.POINT_COUNT, dtype=bool),
        "checked": 0, "small_keys": [np.empty(0, dtype=np.int64)], "full_span": False,
    }
    if rho == 2:
        triples = _flag_planes(tables, id_table, coords, tails, blocks, found)
        for c in range(0, len(triples), _COLLINEAR_BATCH):
            batch = coords[triples[c : c + _COLLINEAR_BATCH]]
            rank = _mark_spans(tables, id_table, batch, found)
            if (rank == 3).any():
                raise InvariantViolation("a triple of rank 3 has vanishing 3x3 minors")
    else:
        for i, lo, hi in blocks:
            found["checked"] += hi - lo
            _mark_spans(tables, id_table, coords[_subsets(i, tails[lo:hi])], found)
    found["small_keys"] = np.unique(np.concatenate(found["small_keys"]))
    return found


def is_rho_saturating(S, rho, workers=1, budget=DEFAULT_BUDGET):
    """Decide whether every ambient point lies in a span of rho+1 points.

    Exhaustive over all (rho+1)-subsets of S (q = 2 scale); the verdict
    carries the first uncovered point as witness when saturation fails.
    A rho outside 0..|S| - 1 is a ConfigError: rho + 1 > |S| leaves no
    subset to scan, and so no refutation to certify.
    """
    field = S.field
    n = len(S)
    if not 0 <= rho < n:
        raise ConfigError(
            "rho must be in 0..%d for a linear set of %d points, got %d" % (n - 1, n, rho)
        )
    from math import comb

    total = comb(n, rho + 1)
    if total > budget:
        raise WorkLimitExceeded(total, budget)
    ambient = gfbatch.POINT_COUNT
    args = (field, S.coords, rho)
    results = run_partitioned(_saturation_worker, args, workers)
    covered = np.zeros(ambient, dtype=bool)
    plane_bitmap = np.zeros(ambient, dtype=bool)
    checked = 0
    full_span = False
    for res in results:
        covered |= res["covered"]
        plane_bitmap |= res["planes"]
        checked += res["checked"]
        full_span = full_span or res["full_span"]
    small_keys = np.unique(np.concatenate([res["small_keys"] for res in results]))
    n_planes = int(plane_bitmap.sum())
    if n_planes > min(total, ambient):
        raise InvariantViolation(
            "%d distinct planes from %d subsets in %d points"
            % (n_planes, total, ambient)
        )
    if full_span:
        covered[:] = True
    else:
        tables = gfbatch.Gf64Tables(field)
        _mark_planes(tables, covered, plane_bitmap)
    details = {
        "size_s": n,
        "ambient_points": ambient,
        "rho": rho,
        "distinct_planes": n_planes,
        "distinct_small_spans": len(small_keys),
        "covered_points": int(covered.sum()),
        "full_span_seen": full_span,
    }
    witness = None
    if not covered.all():
        pid = int(np.argmin(covered))
        vec = gfbatch.POINTS.decode(pid)[0][0]
        witness = {
            "kind": "uncovered_point",
            "point_id": pid,
            "coords": [field.to_hex(c) for c in vec],
        }
    verdict = Verdict(witness is None, witness, checked, "exhaustive", details)
    return SaturationInstance(verdict, covered)
