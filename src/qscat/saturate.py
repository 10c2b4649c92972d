"""Linear-set points in PG(3, q^6) and rho-saturation.

The one module that needs r = 4: L(U) is a point set of PG(3, 64), and
linear_set_points rejects any other ambient F_64^r with a ConfigError.
Points carry dense ids (pivot-block offset plus base-q^m digits).  The
saturation scan walks every (rho+1)-subset of S, enumerated in numpy
blocks by first index.  For rho = 2 a triple's four 3x3 minors decide
it: they vanish iff the triple is collinear, and otherwise they are the
dual point of the plane it spans.  Only the subsets the minors leave
undecided (collinear triples, and every subset when rho != 2) are
canonicalized by RREF; their points and lines are marked during the
scan, once per distinct RREF in each batch.  Planes are deduplicated by
their dual point id and marked afterwards in dual-id order, a chunk at a
time, stopping as soon as every point is covered.  A failing instance
marks every plane, and the first unmarked id is the witness.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

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
    size_s: int
    ambient_points: int
    rho: int
    verdict: Verdict
    covered: Optional[np.ndarray] = None  # mark bitmap, id-indexed


def linear_set_points(U, budget=DEFAULT_BUDGET):
    """The projective points spanned by nonzero vectors of U.

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
    tables = gfbatch.Gf64Tables(field)
    combo = gfbatch.subset_xor_table(U.basis)
    vecs = gfbatch.flats_to_coords(combo[1:], 4)
    norm, ids = gfbatch.normalize_points(tables, vecs)
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    norm = norm[order]
    keep = np.ones(len(ids), dtype=bool)
    keep[1:] = ids[1:] != ids[:-1]
    return LinearSet(field, ids[keep].copy(), norm[keep].copy())


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


def _subset_blocks(tails, n, start, stride, chunk=32768):
    """One worker's slice of the s-subsets of range(n), by first index.

    tails holds every (s-1)-subset of range(n) in lexicographic order.
    The s-subsets with first index i are i followed by each tail whose
    first entry exceeds i, a suffix of tails.  Yields (i, lo, hi) for
    i = start, start + stride, ..., with hi - lo <= chunk.
    """
    firsts = tails[:, 0] if tails.shape[1] else np.full(len(tails), n)
    for i in range(start, n, stride):
        lo = int(np.searchsorted(firsts, i, side="right"))
        for c in range(lo, len(tails), chunk):
            yield i, c, min(c + chunk, len(tails))


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


def _mark_planes(tables, covered, plane_bitmap, chunk=256):
    """Mark the points of the flagged planes, in dual-id order.

    Stops after the first chunk that leaves every point covered: later
    planes cannot change the bitmap.  A failing instance stamps every
    plane, so its bitmap and first uncovered id are those of a full
    sweep.
    """
    dual_ids = np.flatnonzero(plane_bitmap)
    for lo in range(0, len(dual_ids), chunk):
        rows = gfbatch.decode_rows(gfbatch.POINTS, dual_ids[lo : lo + chunk])
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


def _saturation_worker(args, start, stride):
    """Discovery pass: classify subset spans, flag planes by dual id.

    For rho = 2 the Plücker coordinates of every pair (y, z) are built
    once, and each block of triples (x, y, z) with first point x takes
    them by slice; only triples whose minors vanish reach the RREF.
    """
    field, coords_list, rho = args
    tables = gfbatch.Gf64Tables(field)
    coords = np.array(coords_list, dtype=np.int16).reshape(-1, 4)
    n = len(coords)
    s = rho + 1
    tails = _lex_subsets(n, s - 1)
    if s == 3:
        pairs = [coords[tails[:, 0]], coords[tails[:, 1]]]
        pluck = gfbatch.laplace_minors(tables.mul, pairs)
    covered = np.zeros(gfbatch.POINT_COUNT, dtype=bool)
    plane_bitmap = np.zeros(gfbatch.POINT_COUNT, dtype=bool)
    small_keys = [np.empty(0, dtype=np.int64)]
    full_span_seen = False
    checked = 0
    for i, lo, hi in _subset_blocks(tails, n, start, stride):
        checked += hi - lo
        rows = np.arange(lo, hi)
        if s == 3:
            below = {pair: p[lo:hi] for pair, p in pluck.items()}
            minors = gfbatch.laplace_minors(tables.mul, [coords[i]], below)
            w = gfbatch.plane_normal(minors)
            spans_plane = w.any(axis=1)
            _, dual_ids = gfbatch.normalize_points(tables, w[spans_plane])
            plane_bitmap[dual_ids] = True
            rows = rows[~spans_plane]
            if not len(rows):
                continue
        mats = np.empty((len(rows), s, 4), dtype=np.int16)
        mats[:, 0] = coords[i]
        mats[:, 1:] = coords[tails[rows]]
        rank, rref, _ = gfbatch.rref_small_batch(tables, mats)
        if s == 3 and (rank == 3).any():
            raise InvariantViolation("a triple of rank 3 has vanishing 3x3 minors")
        if not full_span_seen and (rank == 4).any():
            full_span_seen = True
        r3 = rref[rank == 3]
        if len(r3):
            rows3 = list(r3[:, :3].transpose(1, 0, 2))
            w = gfbatch.plane_normal(gfbatch.laplace_minors(tables.mul, rows3))
            plane_bitmap[gfbatch.normalize_points(tables, w)[1]] = True
        small = np.flatnonzero(rank <= 2)
        if len(small):
            # one representative per distinct span in this chunk; spans
            # repeated across chunks are stamped again, which is harmless
            keys, first = np.unique(
                _small_span_keys(rref[small]), return_index=True
            )
            small_keys.append(keys)
            reps = small[first]
            points = reps[rank[reps] == 1]
            covered[gfbatch.point_ids(rref[points, 0])] = True
            lines = reps[rank[reps] == 2]
            if len(lines):
                ids = gfbatch.line_point_ids(tables, rref[lines, :2])
                covered[ids.ravel()] = True
    return {
        "covered": covered,
        "planes": plane_bitmap,
        "checked": checked,
        "small_keys": np.unique(np.concatenate(small_keys)),
        "full_span": full_span_seen,
    }


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
    coords_list = [tuple(int(c) for c in v) for v in S.coords]
    args = (field, coords_list, rho)
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
    return SaturationInstance(n, ambient, rho, verdict, covered)
