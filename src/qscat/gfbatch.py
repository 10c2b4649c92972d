"""Vectorized GF(2^e)/GF(2) engines.

The exhaustive q = 2 certifications walk 10^7-scale enumerations; the
GF(64) scan engines here run them in numpy batches.  Enumeration indices
agree exactly with linalg.RrefEnumerator, so witnesses found here can be
re-decoded and re-checked by the scalar reference code.  A scan is cut
into contiguous chunks that are dealt round-robin to the workers
(_rref_chunks); the oracle's point and line weights are read off cached
kernel bitmaps as broadcast tiles of 4,096 positions (DualCodimScanner),
which stay in cache and leave no multi-MB temporaries.  The engines
take the ambient F_64^r from their input; a vector of F_64^r packs into
one int64 (coordinate k at bits 6k, `coords_to_flats`/`flats_to_coords`),
so check_scan_shape admits r <= 10.  The point ids, lines and planes
below are those of PG(3, 64), for the saturation scan: a plane is named
by its dual point, which the 3x3 minors of any three of its spanning
points give (laplace_minors, plane_normal), and its points are listed
from its RREF (plane_point_ids).  The seeded sampled tests run in
batches over any tower field (`FieldArrays`) and take the same
xorshift64* stream as a one-sample-at-a-time loop would, one block of
draws per batch (`XorShift64Star.draws`).
"""

from bisect import bisect_right
from itertools import combinations

import numpy as np

from .errors import ConfigError, InvariantViolation
from .field import poly_mulmod_array
from .linalg import RrefEnumerator


def _radix_offsets(k):
    """Digit weights and pivot-block offsets of the PG(k-1, 64) point ids."""
    radix = 64 ** np.arange(k - 1, -1, -1, dtype=np.int64)
    return radix, np.cumsum(radix) - radix


_RADIX, _OFFSET = _radix_offsets(4)

POINT_COUNT = 64**3 + 64**2 + 64 + 1  # points of PG(3, 64)


class Gf64Tables:
    """numpy lookup tables for one degree-6 field."""

    def __init__(self, field):
        if field.e != 6 or field.h != 1:
            raise InvariantViolation(
                "GF(64) tables need the q = 2 tower, got e=%d h=%d"
                % (field.e, field.h)
            )
        elems = np.arange(64)
        table = FieldArrays(field).mul(elems[:, None], elems).astype(np.int16)
        self.prod = table.ravel()  # prod[64 * a + b] = a * b
        self.inv = np.array([0] + [field.inv(a) for a in range(1, 64)], dtype=np.int16)

    def mul(self, a, b):
        """Elementwise GF(64) product of two broadcastable integer arrays."""
        return self.prod[(a << 6) | b]


MAX_AMBIENT = 10  # r coordinates of 6 bits in an int64


def check_scan_shape(scanner, field, r, width):
    """Raise ConfigError unless `scanner` can run this exhaustive scan.

    The one place that decides which shapes the GF(64) scan engines pack,
    and so which exhaustive scans exist: q = 2 (the GF(64) tables), an
    ambient F_64^r (or message length k) that packs into an int64, and
    at most scanner.MAX_WIDTH basis vectors or coordinates.
    """
    if field.e != 6:
        raise ConfigError(
            "exhaustive scans run over GF(64) only (q = 2), got q = %d" % field.q
        )
    if r > MAX_AMBIENT:
        raise ConfigError(
            "GF(64) scans pack at most %d coordinates, got r = %d" % (MAX_AMBIENT, r)
        )
    if width > scanner.MAX_WIDTH:
        raise ConfigError(
            "%s packs a width of at most %d, got width %d"
            % (scanner.__name__, scanner.MAX_WIDTH, width)
        )


def rank_batch(rows):
    """Rank over GF(2) of a batch of bit-packed matrices.

    rows: [B, R] integer array; bit c of rows[b, i] is entry (i, c).
    Triangularizes by eliminating each row's lowest set bit from all
    later rows; every operation is a flat [B] array op.
    """
    work = np.asarray(rows, dtype=np.int64)
    B, R = work.shape
    cols = [work[:, i].copy() for i in range(R)]
    rank = np.zeros(B, dtype=np.int64)
    zero = np.int64(0)
    for i in range(R):
        r = cols[i]
        low = r & -r
        rank += r != 0
        for j in range(i + 1, R):
            rj = cols[j]
            hit = (rj & low) != 0
            cols[j] = rj ^ np.where(hit, r, zero)
    return rank


def flats_to_coords(flats, n):
    """[...] packed vectors -> [..., n] GF(64) coordinates (k at bits 6k)."""
    coords = np.asarray(flats, dtype=np.int64)[..., None] >> (6 * np.arange(n))
    coords &= 63
    return coords


def coords_to_flats(coords):
    """[..., n] GF(64) coordinates (n <= 10) -> [...] packed int64 vectors."""
    coords = np.asarray(coords, dtype=np.int64)
    shifts = 6 * np.arange(coords.shape[-1], dtype=np.int64)
    return np.bitwise_or.reduce(coords << shifts, axis=-1)


def subset_xor_table(vectors):
    """table[mask] = packed sum of the GF(64)^r vectors selected by mask."""
    flats = coords_to_flats(vectors).tolist()
    table = np.zeros(1 << len(flats), dtype=np.int64)
    for mask in range(1, len(table)):
        low = mask & -mask
        table[mask] = table[mask ^ low] ^ flats[low.bit_length() - 1]
    return table


def point_ids(vecs):
    """Dense PG(3, 64) ids of normalized coordinate rows [B, 4]."""
    vecs = np.asarray(vecs, dtype=np.int64)
    piv = np.argmax(vecs != 0, axis=-1)
    return _OFFSET[piv] + (vecs * _RADIX).sum(axis=-1) - _RADIX[piv]


def normalize_points(tables, vecs):
    """Scale rows so the first nonzero coordinate is 1; return (rows, ids)."""
    vecs = np.asarray(vecs, dtype=np.int16)
    piv = np.argmax(vecs != 0, axis=-1)
    bidx = np.arange(len(vecs))
    lead = vecs[bidx, piv]
    scale = tables.inv[lead]
    out = tables.mul(vecs, scale[:, None])
    return out, point_ids(out)


def ids_to_points(ids, k=4):
    """Inverse of point_ids: [B] ids -> [B, k] normalized int16 rows.

    Ids run over PG(k-1, 64) pivot block by pivot block, each block in
    base-64 order of the coordinates after the pivot.
    """
    ids = np.asarray(ids, dtype=np.int64)
    radix, offset = _radix_offsets(k)
    count = int(offset[-1]) + 1
    if ids.size and (ids.min() < 0 or ids.max() >= count):
        raise ValueError("point id out of range [0, %d)" % count)
    piv = np.searchsorted(offset, ids, side="right") - 1
    rest = ids - offset[piv]
    # rest < 64^(k - 1 - piv), so its base-64 digits sit right of the pivot
    vecs = (rest[:, None] // radix) % 64
    vecs[np.arange(len(ids)), piv] = 1
    return vecs.astype(np.int16)


def id_to_point(pid):
    """Inverse of point_ids for a single id."""
    return tuple(int(c) for c in ids_to_points([pid])[0])


FIRST_CHUNK = 1 << 12  # scan chunks start here and double up to their cap
# the cap: 2^14 positions keep the per-chunk position and weight arrays at
# or below 128 KB, glibc's default mmap threshold, so chunks reuse heap
# pages instead of mapping and faulting in fresh ones
SCAN_CHUNK = 1 << 14


def _rref_chunks(enum, start, stride, chunk):
    """Deal an RrefEnumerator's positions to worker `start` of `stride`.

    The positions are cut into contiguous chunks: the first holds
    min(chunk, FIRST_CHUNK) positions, each next one twice as many up to
    `chunk`, so a scan that stops at an early witness does little extra
    work.  Chunk k goes to worker k mod stride, and each worker walks its
    chunks in ascending order.  Yields (lo, hi, parts) per chunk of
    positions [lo, hi), where parts lists (s, p, a, b): the local
    positions [a, b) of pivot profile p, which sit at [s, s + b - a) of
    the chunk.
    """
    total = enum.total
    edges = [0]
    size = min(chunk, FIRST_CHUNK)
    while size < chunk and edges[-1] < total:
        edges.append(edges[-1] + size)
        size *= 2
    head = len(edges) - 1
    count = head + -(-max(total - edges[-1], 0) // chunk)
    for k in range(start, count, stride):
        if k < head:
            lo, hi = edges[k], edges[k + 1]
        else:
            lo = edges[-1] + (k - head) * chunk
            hi = lo + chunk
        hi = min(hi, total)
        parts = []
        p = bisect_right(enum.offsets, lo) - 1
        at = lo
        while at < hi:
            base = enum.offsets[p]
            end = min(hi, base + enum.counts[p])
            parts.append((at - lo, p, at - base, end - base))
            at = end
            p += 1
        yield lo, hi, parts


def _cell_digits(enum, p, a, b):
    """{cell (i, c): entries} of the RREFs at local positions [a, b) of
    profile p: the base-Q digits of the position, Q = len(enum.scalars)
    a power of two, the last cell least significant."""
    bits = len(enum.scalars).bit_length() - 1
    rem = np.arange(a, b, dtype=np.int64)
    mask = (1 << bits) - 1
    return {
        cell: (rem >> (bits * t)) & mask
        for t, cell in enumerate(reversed(enum.cells[p]))
    }


class DualCodimScanner:
    """Weights of U against every d-dim F_{q^m}-subspace of F_{64}^r.

    A d-dim subspace H in RREF has one dual vector per non-pivot column
    f, w_f = e_f + sum_i rref[i][f] e_{piv_i}, and weight(U, H) is the
    F_2-dimension of the coefficient vectors a with (sum_j a_j u_j) . w_f
    = 0 for every f.  Enumeration order matches
    RrefEnumerator(range(64), r, d).

    For d <= 2 each w_f depends only on its (profile, f) and on the
    digits of at most two RREF cells (i, f), so it takes at most 4,096
    values.  The scanner builds, once per (profile, f) met, a kernel
    table: the kernel K[w] = {a in F_2^nb : (sum_j a_j u_j) . w = 0} of
    each value as a 2^nb-bit bitmap, with one 64-wide axis per cell that
    w_f reads.  The weight is log2 |AND_f K[w_f]|.  Positions are walked
    in tiles: within a profile, every digit but the last two is fixed,
    each table is sliced at the fixed digits and broadcast over the free
    ones, and the AND of the slices is one [words, 4096] tile that stays
    in cache.  For d >= 3 each dual is met once, so the weight is nb
    minus the rank of the (nb x 6(r-d))-bit map u -> (u . w_f)_f.
    """

    MAX_WIDTH = 10  # nb fields of 6 bits in an int64

    def __init__(self, tables, u_basis):
        self.nb = len(u_basis)
        self.r = len(u_basis[0])
        if self.nb > self.MAX_WIDTH:
            raise InvariantViolation(
                "%d basis vectors of 6 bits do not pack into an int64" % self.nb
            )
        # packed column tables: TK[k][c] has bit 6j+t set iff bit t of
        # u_j[k] * c is set
        basis = np.array(u_basis, dtype=np.int16)
        scal = np.arange(64, dtype=np.int16)
        self.tk = coords_to_flats(tables.mul(basis.T[:, None, :], scal[:, None]))
        self._plans = {}  # piv -> tile plan
        self._tiles = {}  # tile digit count -> (tile, popcounts, sizes) buffers

    def _dots(self, duals):
        """[..., r] dual vectors w -> [...] packs of the u_j . w, 6 bits each."""
        return np.bitwise_xor.reduce(self.tk[np.arange(self.r), duals], axis=-1)

    def weights_for_duals(self, duals):
        """duals: [B, nd, r] dual basis vectors; returns [B] weights."""
        B, nd, _ = duals.shape
        blocks = self._dots(duals)
        # row j packs u_j . w_f over the nd duals f, one [B] array at a
        # time: a [B, nd, nb] transpose raises the hyperplane scan's peak RSS
        rows = np.zeros((B, self.nb), dtype=np.int64)
        for j in range(self.nb):
            acc = np.zeros(B, dtype=np.int64)
            for i in range(nd):
                acc |= ((blocks[:, i] >> (6 * j)) & 63) << (6 * i)
            rows[:, j] = acc
        return self.nb - rank_batch(rows)

    def kernel_bitmaps(self, duals):
        """[B, r] dual vectors -> [B, words] uint64 bitmaps of K[w].

        Bit a (a = sum_j a_j 2^j) is set iff (sum_j a_j u_j) . w = 0.
        """
        dots = flats_to_coords(self._dots(duals), self.nb).astype(np.uint8)
        sums = np.zeros((len(duals), 1), dtype=np.uint8)
        for j in range(self.nb):
            sums = np.concatenate([sums, sums ^ dots[:, j, None]], axis=1)
        packed = np.packbits(sums == 0, axis=1, bitorder="little")
        if packed.shape[1] % 8:  # nb < 6: fewer than 8 bytes
            packed = np.pad(packed, ((0, 0), (0, -packed.shape[1] % 8)))
        return packed.view(np.uint64)

    def _kernel_table(self, piv, f, rows):
        """Bitmaps of K[w_f] for every value of the digits w_f depends on.

        w_f reads the cells (i, f) for i in rows; the table has the bitmap
        words as its first axis, then one 64-wide axis per such cell, in
        row order.
        """
        keys = np.arange(64 ** len(rows), dtype=np.int64)
        duals = np.zeros((len(keys), self.r), dtype=np.int16)
        duals[:, f] = 1
        duals[:, [piv[i] for i in reversed(rows)]] = flats_to_coords(keys, len(rows))
        # d <= 2: at most 64^2 = 4,096 values, built with 2^nb bytes each
        bitmaps = np.ascontiguousarray(self.kernel_bitmaps(duals).T)
        return bitmaps.reshape(bitmaps.shape[:1] + (64,) * len(rows))

    def _tile_plan(self, piv, cells):
        """How each kernel table of profile piv is sliced for a tile.

        The last t = min(2, len(cells)) cells vary inside a tile, the
        others are fixed digits of the tile number g.  Returns (t, views):
        per free column, its kernel table, the shift of g that gives each
        fixed axis (None for a tile axis), and the shape that broadcasts
        the slice over the tile.  Built once per profile and scanner.
        """
        plan = self._plans.get(piv)
        if plan is None:
            fixed = len(cells) - min(2, len(cells))
            views = []
            for f in range(self.r):
                if f in piv:
                    continue
                rows = [i for i in range(len(piv)) if piv[i] < f]
                table = self._kernel_table(piv, f, rows)
                axes = [cells.index((i, f)) for i in rows]
                shifts = [6 * (fixed - 1 - k) if k < fixed else None for k in axes]
                shape = [64 if k in axes else 1 for k in range(fixed, len(cells))]
                views.append((table, shifts, table.shape[:1] + tuple(shape)))
            plan = (len(cells) - fixed, views)
            self._plans[piv] = plan
        return plan

    def _tile_buffers(self, t, words):
        """The tile, its popcounts and its kernel sizes, reused by every
        tile of t digits."""
        bufs = self._tiles.get(t)
        if bufs is None:
            tile = np.empty((words,) + (64,) * t, dtype=np.uint64)
            bufs = (tile, np.empty(tile.shape, dtype=np.uint8),
                    np.empty(64**t, dtype=np.uint16))
            self._tiles[t] = bufs
        return bufs

    def iter_weights(self, d, start=0, stride=1, chunk=SCAN_CHUNK):
        """Yield (global_position_array, weights_array) per chunk of worker
        `start` of `stride` (see _rref_chunks)."""
        enum = RrefEnumerator(range(64), self.r, d)
        for lo, hi, parts in _rref_chunks(enum, start, stride, chunk):
            weights = np.empty(hi - lo, dtype=np.int64)
            for s, p, a, b in parts:
                piv = enum.profiles[p]
                if d <= 2:
                    self._tile_weights(piv, enum.cells[p], a, b, weights[s : s + b - a])
                else:
                    digits = _cell_digits(enum, p, a, b)
                    weights[s : s + b - a] = self._rank_weights(piv, digits, b - a)
            yield np.arange(lo, hi, dtype=np.int64), weights

    def _tile_weights(self, piv, cells, a, b, out):
        """Weights of the local positions [a, b) of profile piv into out."""
        t, views = self._tile_plan(piv, cells)
        tile, pops, sizes = self._tile_buffers(t, views[0][0].shape[0])
        T = len(sizes)
        flat_pops = pops.reshape(-1, T)
        every = slice(None)
        for g in range(a // T, (b - 1) // T + 1):
            slices = [
                table[(every,) + tuple(every if s is None else (g >> s) & 63 for s in shifts)]
                .reshape(shape)
                for table, shifts, shape in views
            ]
            # x & x = x, so one free column ANDs its slice with itself
            np.bitwise_and(slices[0], slices[-1], out=tile)
            for kernel in slices[1:-1]:
                np.bitwise_and(tile, kernel, out=tile)
            # |AND_f K[w_f]| = 2^weight, and 2^weight - 1 has weight bits set
            np.bitwise_count(tile, out=pops)
            np.add.reduce(flat_pops, axis=0, dtype=np.uint16, out=sizes)
            sizes -= 1
            lo, hi = max(a, g * T), min(b, (g + 1) * T)
            out[lo - a : hi - a] = np.bitwise_count(sizes[lo - g * T : hi - g * T])

    def _rank_weights(self, piv, digits, B):
        free_cols = [c for c in range(self.r) if c not in piv]
        duals = np.zeros((B, len(free_cols), self.r), dtype=np.int16)
        for fi, f in enumerate(free_cols):
            duals[:, fi, f] = 1
            for i in range(len(piv)):
                if (i, f) in digits:
                    duals[:, fi, piv[i]] = digits[(i, f)]
        return self.weights_for_duals(duals)


class FqSpanScanner:
    """F_{q^6}-span dimension of d-dim F_2-subspaces of U (q = 2).

    Enumerates coefficient RREF matrices over F_2 relative to U's basis
    in RrefEnumerator((0, 1), nb, d) order and reports the rank over
    F_{64} of the spanned vectors (via the GF(2) rank of the x^j
    multiples, which is 6 times the F_{64} rank).
    """

    MAX_WIDTH = 16  # the table holds 6 x 2^nb packed vectors

    def __init__(self, tables, u_basis):
        self.nb = len(u_basis)
        sums = flats_to_coords(subset_xor_table(u_basis), len(u_basis[0]))
        powers = np.array([1 << j for j in range(6)])
        # xsums[mask, j] = x^j times the sum of the basis vectors in mask
        self.xsums = coords_to_flats(tables.mul(sums[:, None, :], powers[:, None]))

    def iter_span_dims(self, d, start=0, stride=1, chunk=SCAN_CHUNK):
        """Yield (positions, span_dims) over the d-dim subspaces of U, per
        chunk of worker `start` of `stride` (see _rref_chunks)."""
        enum = RrefEnumerator((0, 1), self.nb, d)
        for lo, hi, parts in _rref_chunks(enum, start, stride, chunk):
            masks = np.zeros((hi - lo, d), dtype=np.int64)
            for s, p, a, b in parts:
                seg = masks[s : s + b - a]
                for i, c in enumerate(enum.profiles[p]):
                    seg[:, i] |= 1 << c
                for (i, c), bit in _cell_digits(enum, p, a, b).items():
                    seg[:, i] |= bit << c
            rank = rank_batch(self.xsums[masks].reshape(hi - lo, -1))
            yield np.arange(lo, hi, dtype=np.int64), rank // 6


class CodewordScanner:
    """Rank weights of the codewords of the normalized messages.

    Scaling a message by F_64^* scales its codeword and keeps its rank
    weight, so only messages whose first nonzero coordinate is 1 are
    scanned, one per point of PG(k-1, 64); callers multiply the counts
    by 63.  Message number i is ids_to_points([i], k) (for k = 4 the
    point_ids numbering).  A codeword pack (n coordinates x 6 bits) is
    the XOR of one 64-entry table per message coordinate.  Partition by
    contiguous message-index ranges.
    """

    MAX_WIDTH = 10  # n coordinates of 6 bits in an int64

    def __init__(self, tables, gen_rows):
        self.k = len(gen_rows)
        self.n = len(gen_rows[0])
        if self.n > self.MAX_WIDTH:
            raise InvariantViolation(
                "%d coordinates of 6 bits do not pack into an int64" % self.n
            )
        # coord_packs[k, c] = the codeword of the message c e_k
        scal = np.arange(64)
        gen = np.array(gen_rows, dtype=np.int64)
        self.coord_packs = coords_to_flats(tables.mul(scal[:, None], gen[:, None, :]))

    def total_messages(self):
        return (64**self.k - 1) // 63

    def scan_range(self, lo, hi, chunk=1 << 16):
        """Weights of codewords for message numbers in [lo, hi).

        Returns (min_weight, bincount over weights 0..6), each message
        counted once (not 63 times).
        """
        counts = np.zeros(7, dtype=np.int64)
        minw = 7
        for c0 in range(lo, hi, chunk):
            idx = np.arange(c0, min(c0 + chunk, hi), dtype=np.int64)
            msgs = ids_to_points(idx, self.k)
            packs = np.zeros(len(idx), dtype=np.int64)
            for k in range(self.k):
                packs ^= self.coord_packs[k][msgs[:, k]]
            w = rank_batch(flats_to_coords(packs, self.n))
            counts += np.bincount(w, minlength=7)
            minw = min(minw, int(w.min()))
        return minw, counts


def rref_small_batch(tables, mats):
    """Full RREF of a batch of small GF(64) matrices.

    mats: [B, s, 4] int16.  Returns (rank [B], rref [B, s, 4],
    pivcols [B, s] with -1 padding).
    """
    work = np.array(mats, dtype=np.int16, copy=True)
    B, s, ncols = work.shape
    rank = np.zeros(B, dtype=np.int64)
    pivcols = np.full((B, s), -1, dtype=np.int64)
    rowidx = np.arange(s)
    bidx = np.arange(B)
    for c in range(ncols):
        col = work[:, :, c]
        active = (col != 0) & (rowidx[None, :] >= rank[:, None])
        anyact = active.any(axis=1)
        piv = np.argmax(active, axis=1)
        dest = np.where(anyact, rank, piv)
        # swap rows piv <-> dest
        prow = work[bidx, piv].copy()
        drow = work[bidx, dest].copy()
        work[bidx, dest] = prow
        work[bidx, piv] = drow
        # normalize the pivot row
        lead = work[bidx, dest, c]
        scale = np.where(anyact, tables.inv[lead], np.int16(1))
        work[bidx, dest] = tables.mul(work[bidx, dest], scale[:, None])
        # eliminate the pivot column from every other row
        prow = work[bidx, dest]
        factors = work[:, :, c].copy()
        is_dest = rowidx[None, :] == dest[:, None]
        factors = np.where(is_dest | ~anyact[:, None], np.int16(0), factors)
        work ^= tables.mul(factors[:, :, None], prow[:, None, :])
        slot = np.minimum(rank, s - 1)
        pivcols[bidx, slot] = np.where(anyact, c, pivcols[bidx, slot])
        rank += anyact
    return rank, work, pivcols


def laplace_minors(mul, rows, below=None):
    """{T: minor on the columns T} of `rows` stacked over `below`.

    rows: top first, each [..., r]; below: the minors of the rows under
    them, keyed by the column subsets of one size ({(): 1} for none).
    Each row, bottom up, adds one to the size by Laplace expansion along
    it: M_T = sum over c in T of row_c M_{T - c} (no signs in
    characteristic 2).  mul is an elementwise field product
    (Gf64Tables.mul or FieldArrays.mul).  Two rows of F_64^4 give their
    Plücker coordinates, three the minors that plane_normal reads.
    """
    minors = {(): 1} if below is None else below
    for row in reversed(rows):
        size = len(next(iter(minors))) + 1
        nxt = {}
        for T in combinations(range(row.shape[-1]), size):
            acc = 0
            for c in T:
                acc = acc ^ mul(row[..., c], minors[tuple(x for x in T if x != c)])
            nxt[T] = acc
        minors = nxt
    return minors


def plane_normal(minors):
    """[..., 4] w, w_c the 3x3 minor on the columns other than c.

    From laplace_minors of three rows of F_64^4: w is zero iff the rows
    are dependent; otherwise w . v = 0 is the plane they span (v = a row
    gives a determinant with a repeated row), so normalize_points(w) is
    the plane's dual point.
    """
    return np.stack(
        [minors[tuple(k for k in range(4) if k != c)] for c in range(4)], axis=-1
    )


def _family_ids(pts, pivots):
    """ids of normalized points whose leading position is per-item fixed.

    pts: [..., 4] int32 with first nonzero coordinate 1 at the per-item
    pivot; pivots broadcastable to the leading shape.
    """
    dot = (pts.astype(np.int64) * _RADIX).sum(axis=-1)
    shift = (_OFFSET - _RADIX)[pivots]
    return dot + np.expand_dims(shift, tuple(range(pivots.ndim, dot.ndim)))


def plane_point_ids(tables, plane_rref):
    """Point ids of the planes given by RREF rows [P, 3, 4].

    Combos split into the families r1 + a r2 + b r3, r2 + a r3, r3,
    which are already normalized; only 2 x 64 scalar multiples of each
    basis row are ever multiplied.
    """
    rref = np.asarray(plane_rref, dtype=np.int16)
    P = len(rref)
    scal = np.arange(64, dtype=np.int16)
    piv = np.argmax(rref != 0, axis=2)  # [P, 3]
    m2 = tables.mul(scal[None, :, None], rref[:, None, 1, :]).astype(np.int32)
    m3 = tables.mul(scal[None, :, None], rref[:, None, 2, :]).astype(np.int32)
    fam1 = (
        rref[:, None, None, 0, :].astype(np.int32)
        ^ m2[:, :, None, :]
        ^ m3[:, None, :, :]
    )  # [P, 64, 64, 4]
    ids1 = _family_ids(fam1, piv[:, 0])
    fam2 = rref[:, None, 1, :].astype(np.int32) ^ m3  # [P, 64, 4]
    ids2 = _family_ids(fam2, piv[:, 1])
    ids3 = _family_ids(rref[:, 2, :].astype(np.int32), piv[:, 2])
    return np.concatenate(
        [ids1.reshape(P, -1), ids2.reshape(P, -1), ids3.reshape(P, 1)], axis=1
    )


def line_point_ids(tables, line_rref):
    """Point ids of the lines given by RREF rows [P, 2, 4]."""
    rref = np.asarray(line_rref, dtype=np.int16)
    P = len(rref)
    scal = np.arange(64, dtype=np.int16)
    piv = np.argmax(rref != 0, axis=2)
    m2 = tables.mul(scal[None, :, None], rref[:, None, 1, :]).astype(np.int32)
    fam1 = rref[:, None, 0, :].astype(np.int32) ^ m2
    ids1 = _family_ids(fam1, piv[:, 0])
    ids2 = _family_ids(rref[:, 1, :].astype(np.int32), piv[:, 1])
    return np.concatenate([ids1.reshape(P, -1), ids2.reshape(P, 1)], axis=1)


# -- seeded sampled tests, any tower field ------------------------------------

SAMPLE_BATCH = 4096  # samples drawn and tested per numpy batch


class FieldArrays:
    """Elementwise products of int64 arrays in any tower field GF(2^e).

    With exp/log tables (e <= 20) a product is a gather on numpy views
    of the field's C-int tables (no copy).  Without them (GF(2^30)) it is
    field.poly_mulmod_array, whose 2e - 1 product bits must fit in an
    int64.
    """

    def __init__(self, field):
        if 2 * field.e - 1 > 63:
            raise ConfigError(
                "numpy GF(2^%d) products do not fit in an int64" % field.e
            )
        self.e = field.e
        self.exp = self.log = None
        if field._exp is not None:
            self.exp = np.frombuffer(field._exp, dtype=np.intc)
            self.log = np.frombuffer(field._log, dtype=np.intc)
        self.modulus = field.modulus

    def mul(self, a, b):
        """Elementwise product of two broadcastable integer arrays."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.exp is not None:
            prod = self.exp[self.log[a] + self.log[b]]
            return np.where((a != 0) & (b != 0), prod, np.int64(0))
        return poly_mulmod_array(a, b, self.modulus)


def fqm_rank_batch(fa, mats):
    """F_{q^6}-rank of each matrix of a [B, R, C] batch.

    Row by row: row i's first nonzero entry a, in column p, is its pivot,
    and each later row j becomes a * row_j + row_j[p] * row_i.  No
    inverse is needed, and the later rows then vanish in column p.
    """
    work = np.array(mats, dtype=np.int64)
    B, R, _ = work.shape
    rank = np.zeros(B, dtype=np.int64)
    bidx = np.arange(B)
    for i in range(R):
        row = work[:, i]
        nonzero = row != 0
        live = nonzero.any(axis=1)
        rank += live
        if i + 1 == R:
            break
        p = np.argmax(nonzero, axis=1)
        # a zero row leaves the later rows alone: 1 * row_j + 0
        lead = np.where(live, row[bidx, p], 1)
        rest = work[:, i + 1 :]
        factors = rest[bidx, :, p]  # [B, R - i - 1]
        work[:, i + 1 :] = fa.mul(rest, lead[:, None, None]) ^ fa.mul(
            row[:, None, :], factors[:, :, None]
        )
    return rank


def _f2_image_rank(img, e):
    """GF(2) rank of [B, R, T] blocks read as R x (T e)-bit matrices."""
    B, R, T = img.shape
    if T * e <= 63:
        rows = np.zeros((B, R), dtype=np.int64)
        for t in range(T):
            rows |= img[:, :, t] << (t * e)
        return rank_batch(rows)
    # too wide for an int64: rank the transpose, one R-bit row per bit
    if R > 63:
        raise InvariantViolation("%d rows do not pack into an int64" % R)
    bits = np.arange(e, dtype=np.int64)
    cols = np.zeros((B, T, e), dtype=np.int64)
    for i in range(R):
        cols |= ((img[:, i, :, None] >> bits) & 1) << i
    return rank_batch(cols.reshape(B, T * e))


class SampledFast:
    """The fast test on random (order+1)-dim F_q-subspaces of U, batched.

    A sample is order+1 rows of dim_q U draws, each an index into
    field.fq_elements (randrange(q) is one masked draw); it is redrawn
    when the coefficient rows are F_q-dependent.  Its value is the
    F_{q^6}-span dimension of the vectors the rows combine from U's
    basis, and it refutes when that is below order+1.
    """

    def __init__(self, U, order):
        field = U.field
        self.fa = FieldArrays(field)
        self.d = order + 1
        self.nb = U.dim_q
        self.width = self.d * self.nb
        self.mask = len(field.fq_elements) - 1
        self.elems = np.array(field.fq_elements, dtype=np.int64)
        basis = np.array(U.basis, dtype=np.int64)
        # combo[j, x] = fq_elements[x] * U.basis[j]
        self.combo = self.fa.mul(self.elems[None, :, None], basis[:, None, :])

    def measure(self, groups):
        """(kept, spans): the accepted groups and their span dimensions."""
        idx = groups.reshape(len(groups), self.d, self.nb)
        kept = fqm_rank_batch(self.fa, self.elems[idx]) == self.d
        idx = idx[kept]
        vecs = self.combo[0][idx[:, :, 0]]
        for j in range(1, self.nb):
            vecs ^= self.combo[j][idx[:, :, j]]
        return kept, fqm_rank_batch(self.fa, vecs)

    def refutes(self, spans):
        return spans < self.d


class SampledOracle:
    """The oracle on random order-dim F_{q^6}-subspaces H, batched.

    A sample is order x r field elements (one masked draw each), the
    generators of H row by row; it is redrawn when all order x order
    minors vanish.  With P the first column set whose minor M_P is
    nonzero, the r - order functionals w_c (c not in P), w_c[x] =
    M_{P + c - x} for x in P + c and 0 elsewhere, vanish on H and are
    independent, so they cut out H.  Its value is the weight: the
    F_2-dimension of the kernel of U -> F^(r - order), u -> (w_c . u),
    divided by h.  It refutes when that exceeds order.
    """

    def __init__(self, U, order):
        field = U.field
        self.fa = FieldArrays(field)
        self.order = order
        self.r = U.r
        self.h = field.h
        self.width = order * U.r
        self.mask = field.order - 1
        basis = np.array(U.basis, dtype=np.int64)
        scal = np.array(field.fq_basis, dtype=np.int64)
        # the F_2-basis {s u : s in fq_basis, u in U.basis} of U, [R, r]
        self.u2 = self.fa.mul(basis[:, None, :], scal[None, :, None]).reshape(-1, U.r)
        # duals[p, t, x]: index of the minor that is entry x of the t-th
        # functional for pivot set subsets[p]; len(subsets) means zero
        self.subsets = list(combinations(range(U.r), order))
        where = {S: i for i, S in enumerate(self.subsets)}
        self.duals = np.full(
            (len(self.subsets), U.r - order, U.r), len(self.subsets), dtype=np.int64
        )
        for p, P in enumerate(self.subsets):
            for t, c in enumerate(x for x in range(U.r) if x not in P):
                S = tuple(sorted(P + (c,)))
                for x in S:
                    self.duals[p, t, x] = where[tuple(y for y in S if y != x)]

    def measure(self, groups):
        """(kept, weights): the accepted groups and their weights."""
        n, r = len(groups), self.r
        gens = groups.reshape(n, self.order, r).transpose(1, 0, 2)
        ones = np.ones(n, dtype=np.int64)  # every minor is [n], order 0 too
        minors = laplace_minors(self.fa.mul, list(gens), {(): ones})
        stack = np.stack(
            [minors[S] for S in self.subsets] + [np.zeros(n, dtype=np.int64)], axis=1
        )
        nonzero = stack[:, :-1] != 0
        kept = nonzero.any(axis=1)
        stack = stack[kept]
        piv = np.argmax(nonzero[kept], axis=1)
        m = len(stack)
        duals = np.take_along_axis(stack, self.duals[piv].reshape(m, -1), axis=1)
        duals = duals.reshape(m, 1, r - self.order, r)
        img = np.zeros((m, len(self.u2), r - self.order), dtype=np.int64)
        for x in range(r):
            img ^= self.fa.mul(duals[..., x], self.u2[None, :, None, x])
        kernel = len(self.u2) - _f2_image_rank(img, self.fa.e)
        if (kernel % self.h).any():
            raise InvariantViolation(
                "F_2-dimension of some U ∩ H is not a multiple of h = %d" % self.h
            )
        return kept, kernel // self.h

    def refutes(self, weights):
        return weights > self.order


def first_refutation(sampler, rng, samples):
    """The first of `samples` accepted samples that refutes, or None.

    Returns (k, group, value): its 0-based sample index, its draws as a
    list and its measured value.  Each round takes one block of masked
    draws (rng.draws) for exactly as many groups as samples are still
    due, so a run without refutation leaves rng where a one-sample-at-a-
    time loop of next_u64() & mask draws leaves it.
    """
    done = 0
    while done < samples:
        n = min(SAMPLE_BATCH, samples - done)
        groups = rng.draws(n * sampler.width, sampler.mask).reshape(n, sampler.width)
        kept, values = sampler.measure(groups)
        bad = sampler.refutes(values)
        if bad.any():
            i = int(np.argmax(bad))
            return done + i, groups[kept][i].tolist(), int(values[i])
        done += len(values)
    return None
