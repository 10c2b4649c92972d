"""Vectorized GF(2^e)/GF(2) engines.

The exhaustive q = 2 certifications walk 10^7-scale enumerations of
linalg.RrefEnumerator; the GF(64) scan engines here run them in numpy
batches at the same positions, so the scalar code re-decodes and
re-checks any witness found here.  Each process builds one enumerator
per (scalars, n, d) (_enumerator).  The engines share three primitives:

* One chunk size.  _rref_chunks cuts every scan into contiguous chunks
  of SCAN_CHUNK positions, only the last one shorter (chunk_count),
  deals chunk k to worker k mod W, and yields each chunk's positions as
  a range, with no array behind it.
* One position decoder.  decode_rows turns ascending positions into
  their RREF rows: the d >= 3 oracle's duals, the codeword scan's
  normals and the saturation's plane duals.  The points of PG(r - 1,
  64) are the positions of RrefEnumerator(range(64), r, 1) (POINTS at
  r = 4), and point_ids is decode_rows' inverse on them.
* One subset-sum builder.  subset_sums tabulates the XOR of every
  subset of n vectors by doubling: U's packed subset sums (the span
  scan's vectors and linear_set's), the span scan's per-row deposit
  tables, the oracle's kernel bitmaps and rng's byte-sliced jump tables.

The oracle (DualCodimScanner) reads point weights off L(U) with
multiplicities (linear_set: a point of weight w carries 2^w - 1 of U's
nonzero vectors), and line weights off cached kernel bitmaps, in
broadcast tiles of 4,096 positions that stay in cache.  The d >= 3
oracle and the codeword scan (CodewordScanner, one normal per
hyperplane) rank GF(2) bit matrices (rank_batch).  The span scan
(FqSpanScanner) reads each row's coefficient mask off its deposit
table, which depends on (nb, d, profile) only, and row-reduces the
packed vectors over GF(64) in [B] arrays that every chunk reuses.  A
vector of F_64^r packs into one int64 (coordinate k at bits 6k,
coords_to_flats/flats_to_coords), so check_scan_shape admits r <= 10.

One batched elimination per representation.  Matrices of field
elements are triangularized in place by _forward_eliminate, inverse-free
under any elementwise product: fqm_rank_batch counts its pivots, and
rref_small_batch scales and back-substitutes them over GF(64).  Packed
GF(64) rows are reduced by the span scan's _packed_rank.

For the saturation scan, a point id's codec word is XOR-linear, so the
ids of a line's or a plane's points are XORs of the words of 64 scalar
multiples of each RREF row (line_point_ids, plane_point_ids); a plane
is named by its dual point, which the 3x3 minors of any three of its
spanning points give (laplace_minors, plane_normal).  Scaling by
1 / lead is F_2-linear too, so the point_ids of any nonzero packed
vector of F_64^4, scaled, is a shift by its pivot plus the XOR of two
lookups, one per 12-bit half, in one [64 << 12] table (packed_id_table,
packed_point_ids).  The seeded sampled tests run in batches over any
tower field, whose BinaryField.mul_array is their product, and take the
same xorshift64* stream as a one-sample-at-a-time loop would, one block
of draws per batch (`XorShift64Star.draws`).
"""

from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import ConfigError, InvariantViolation
from .linalg import RrefEnumerator


@lru_cache(maxsize=16)
def _enumerator(scalars, n, d):
    """RrefEnumerator(scalars, n, d), built once per process: every scan's
    iterator, exhaustive_scan's chunk count and witness decode, and the
    span scan's deposit tables share it."""
    return RrefEnumerator(scalars, n, d)


# the points of PG(3, 64): a point's id is its position here (point_ids)
POINTS = _enumerator(range(64), 4, 1)
POINT_COUNT = POINTS.total


class Gf64Tables:
    """numpy lookup tables for one degree-6 field."""

    def __init__(self, field):
        if field.e != 6 or field.h != 1:
            raise InvariantViolation(
                "GF(64) tables need the q = 2 tower, got e=%d h=%d"
                % (field.e, field.h)
            )
        elems = np.arange(64)
        table = field.mul_array(elems[:, None], elems).astype(np.int16)
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
    ambient F_64^r that packs into an int64, and at most
    scanner.MAX_WIDTH basis vectors.
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
    """[..., n] GF(64) coordinates (n <= 10) -> [...] packed int64 vectors.

    One shift-or pass per coordinate into the [...] result, with no
    [..., n] int64 temporary.  Each coordinate has its own 6-bit field,
    so the packing is XOR-linear: pack(a ^ b) == pack(a) ^ pack(b).
    """
    coords = np.asarray(coords)
    flats = np.zeros(coords.shape[:-1], dtype=np.int64)
    for k in range(coords.shape[-1]):
        flats |= coords[..., k].astype(np.int64) << (6 * k)
    return flats


def subset_sums(vectors, base=0):
    """table[..., mask] = base ^ the XOR of vectors[..., k] over the bits k
    of mask, for the n vectors along the last axis of [..., n] vectors.

    Built by doubling into one [..., 2^n] table of the vectors' dtype:
    entries [2^k, 2^(k+1)) are the first 2^k XOR vectors[..., k], one
    numpy op per vector.
    """
    n = vectors.shape[-1]
    table = np.empty(vectors.shape[:-1] + (1 << n,), dtype=vectors.dtype)
    table[..., 0] = base
    for k in range(n):
        np.bitwise_xor(table[..., : 1 << k], vectors[..., k, None],
                       out=table[..., 1 << k : 2 << k])
    return table


def _id_shift(r):
    """(offsets - counts) per pivot of the points of PG(r - 1, 64)."""
    enum = _enumerator(range(64), r, 1)
    return np.array(enum.offsets) - np.array(enum.counts)


_ID_SHIFT = _id_shift(4)


def point_ids(vecs):
    """Dense PG(r - 1, 64) ids of normalized coordinate rows [..., r]
    (r <= 10): their positions in RrefEnumerator(range(64), r, 1), the
    points that the d = 1 oracle and CodewordScanner walk (POINTS for
    r = 4), which decode_rows inverts.

    The id of a row v with pivot p is offsets[p] plus the base-64 word of
    its coordinates after the pivot.  The word of all of v, coordinate 0
    the top digit, adds the pivot's 1 at weight counts[p]; so the id is
    (offsets - counts)[p] plus that word, the codec word of the reversed
    coordinates, coords_to_flats(v[..., ::-1]), which is XOR-linear in v.
    """
    vecs = np.asarray(vecs)
    piv = np.argmax(vecs != 0, axis=-1)
    return _id_shift(vecs.shape[-1])[piv] + coords_to_flats(vecs[..., ::-1])


def linear_set(tables, u_basis):
    """L(U) with multiplicities: (ids, counts), the point_ids of the points
    that U's nonzero vectors span, ascending, and how many of them each
    point carries.

    Each nonzero vector of U lies on exactly one point, and a point P
    carries the 2^w - 1 nonzero vectors of U ∩ P, w = dim_q(U ∩ P) its
    weight: so the 2^nb - 1 nonzero subset sums of U's basis, each scaled
    by 1 / lead, name every point of nonzero weight, and bitwise_count of
    a count is its weight.  A count of any other form is an
    InvariantViolation.
    """
    r = len(u_basis[0])
    vecs = flats_to_coords(subset_sums(coords_to_flats(u_basis))[1:], r)
    lead = vecs[np.arange(len(vecs)), np.argmax(vecs != 0, axis=-1)]
    ids, counts = np.unique(
        point_ids(tables.mul(vecs, tables.inv[lead][:, None])), return_counts=True
    )
    if (counts & (counts + 1)).any():
        raise InvariantViolation(
            "a point of L(U) carries a vector count not of the form 2^w - 1"
        )
    return ids, counts


def packed_id_table(tables):
    """[64 << 12] int32: entry (lead << 12) | u is the codec word of the
    point (0, 0, u & 63, u >> 6) scaled by 1 / lead, and that word << 12
    the one of (u & 63, u >> 6, 0, 0); both are F_2-linear in u."""
    units = flats_to_coords(np.int64(1) << np.arange(12), 2)
    scaled = tables.mul(tables.inv[:, None, None], units)  # [64, 12, 2]
    return subset_sums(coords_to_flats(scaled[..., ::-1]).astype(np.int32)).ravel()


def packed_point_ids(id_table, w):
    """PG(3, 64) ids of nonzero packed vectors w of F_64^4, the one id rule
    for a vector not yet scaled: point_ids of w scaled by 1 / lead.  The
    pivot is the lowest nonzero 6-bit field, the lead its value, and
    id_table is packed_id_table's."""
    piv = np.bitwise_count((w & -w) - 1) // 6
    lead = ((w >> (6 * piv)) & 63) << 12
    words = (id_table[lead | (w & 0xFFF)] << 12) ^ id_table[lead | (w >> 12)]
    return _ID_SHIFT[piv] + words


# 2^14 positions keep each chunk's weight array (and the codeword scan's
# positions) at 128 KB, glibc's default mmap threshold, so chunks reuse
# heap pages instead of mapping and faulting in fresh ones
SCAN_CHUNK = 1 << 14


def chunk_count(total, chunk=SCAN_CHUNK):
    """The number of chunks _rref_chunks cuts `total` positions into."""
    return -(-total // chunk)


def _rref_chunks(enum, start, stride, chunk):
    """Deal an RrefEnumerator's positions to worker `start` of `stride`.

    The positions are cut into contiguous chunks of `chunk` positions,
    only the last one shorter: chunk k starts at position k * chunk and
    goes to worker k mod stride, and each worker walks its chunks in
    ascending order.  Yields (lo, hi, parts) per chunk of positions
    [lo, hi), where parts lists (s, p, a, b): the local positions [a, b)
    of pivot profile p, which sit at [s, s + b - a) of the chunk.
    """
    total = enum.total
    for k in range(start, chunk_count(total, chunk), stride):
        lo = k * chunk
        hi = min(lo + chunk, total)
        parts = []
        p = enum.profile_of(lo)
        at = lo
        while at < hi:
            base = enum.offsets[p]
            end = min(hi, base + enum.counts[p])
            parts.append((at - lo, p, at - base, end - base))
            at = end
            p += 1
        yield lo, hi, parts


def decode_rows(enum, positions):
    """[B, d, n] int16 RREF rows of ascending positions [B] of an
    RrefEnumerator whose scalars are range(Q), Q a power of two (the
    GF(64) and F_2 enumerators): RrefEnumerator.decode for a batch.

    Each profile's positions are one run of them; a local position's
    base-Q digits, the last cell least significant, are its cells'
    entries, and each row gets its pivot's 1.  A position outside
    [0, total) is an IndexError, as in decode.
    """
    positions = np.asarray(positions, dtype=np.int64)
    bits = len(enum.scalars).bit_length() - 1
    if len(positions) and (positions[0] < 0 or positions[-1] >= enum.total):
        raise IndexError("position outside [0, %d)" % enum.total)
    if (positions[1:] < positions[:-1]).any():
        raise ValueError("positions must ascend")
    rows = np.zeros((len(positions), enum.d, enum.n), dtype=np.int16)
    edges = np.searchsorted(positions, enum.offsets + [enum.total]).tolist()
    for p, (piv, cells) in enumerate(zip(enum.profiles, enum.cells)):
        block = rows[edges[p] : edges[p + 1]]
        if not len(block):
            continue
        rem = positions[edges[p] : edges[p + 1]] - enum.offsets[p]
        block[:, range(enum.d), piv] = 1
        for i, c in reversed(cells):
            block[:, i, c] = rem & ((1 << bits) - 1)
            rem >>= bits
    return rows


class DualCodimScanner:
    """Weights of U against every d-dim F_{q^m}-subspace of F_{64}^r.

    A d-dim subspace H in RREF has one dual vector per non-pivot column
    f, w_f = e_f + sum_i rref[i][f] e_{piv_i}, and weight(U, H) is the
    F_2-dimension of the coefficient vectors a with (sum_j a_j u_j) . w_f
    = 0 for every f.  Enumeration order matches
    RrefEnumerator(range(64), r, d).

    For d = 1 the weights are read off U's own vectors: linear_set,
    built on the first point scan, numbers the points of nonzero weight,
    and each chunk is zero-filled and gets those weights written in.

    For d = 2 each w_f depends only on its (profile, f) and on the
    digits of at most two RREF cells (i, f), so it takes at most 4,096
    values.  The scanner builds, once per (profile, f) met, a kernel
    table: the kernel K[w] = {a in F_2^nb : (sum_j a_j u_j) . w = 0} of
    each value as a 2^nb-bit bitmap, viewed with one 64-wide axis per
    cell of the profile, of stride 0 on the cells that w_f does not read.
    The weight is log2 |AND_f K[w_f]|.  Positions are walked in tiles:
    within a profile, every digit but the last two is fixed, one tuple of
    the fixed digits indexes every table, and the AND of the views is one
    [words, 4096] tile that stays in cache.  For d >= 3 each dual is met
    once, so the weight is nb minus the rank of the (nb x 6(r-d))-bit
    map u -> (u . w_f)_f; d = r takes this path too, with no dual and
    weight nb.
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
        self._tables, self._basis = tables, u_basis
        self._points = None  # linear_set(tables, u_basis), for d = 1
        self._kernels = {}  # piv -> the kernel tables of its free columns
        self._tiles = {}  # tile digit count -> (tile, popcounts, sizes) buffers

    @staticmethod
    def enumerator(r, nb, d):
        """The RrefEnumerator whose positions iter_weights(d) walks."""
        return _enumerator(range(64), r, d)

    def _dots(self, duals):
        """[..., r] dual vectors w -> [...] packs of the u_j . w, 6 bits each."""
        return np.bitwise_xor.reduce(self.tk[np.arange(self.r), duals], axis=-1)

    def weights_for_duals(self, duals):
        """duals: [B, nd, r] dual basis vectors; returns [B] weights."""
        # row j of a dual's map packs u_j . w_f over its nd duals f
        img = flats_to_coords(self._dots(duals), self.nb)  # [B, nd, nb]
        return self.nb - _f2_image_rank(img.transpose(0, 2, 1), 6)

    def kernel_bitmaps(self, dots):
        """[B] dot packs (_dots) of dual vectors w -> [B, words] uint64
        bitmaps of K[w].

        Bit a (a = sum_j a_j 2^j) is set iff (sum_j a_j u_j) . w = 0.
        """
        dots = flats_to_coords(dots, self.nb).astype(np.uint8)
        sums = subset_sums(dots)  # sums[:, a] = (sum_j a_j u_j) . w
        packed = np.packbits(sums == 0, axis=1, bitorder="little")
        if packed.shape[1] % 8:  # nb < 6: fewer than 8 bytes
            packed = np.pad(packed, ((0, 0), (0, -packed.shape[1] % 8)))
        return packed.view(np.uint64)

    def _kernel_table(self, piv, f, cells):
        """Bitmaps of K[w_f] for every value of the cells of profile piv:
        the bitmap words, then one 64-wide axis per cell, of stride 0 on
        the cells other than the (i, f) that w_f reads.

        u . w_f is F_2-linear in w_f = e_f + sum_i rref[i][f] e_{piv_i},
        so the dot packs of its values are tk[f, 1] outer-XORed with
        tk[piv[i]] once per cell (i, f), in the cells' (row) order.
        """
        dots = self.tk[f, 1]
        for i, c in cells:
            if c == f:
                dots = np.bitwise_xor.outer(dots, self.tk[piv[i]])
        # d = 2: at most 64^2 = 4,096 values, built with 2^nb bytes each
        bitmaps = np.ascontiguousarray(self.kernel_bitmaps(np.ravel(dots)).T)
        words = bitmaps.shape[:1]
        axes = tuple(64 if c == f else 1 for _, c in cells)
        return np.broadcast_to(bitmaps.reshape(words + axes), words + (64,) * len(cells))

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
        """Yield (range of global positions, weights array) per chunk of
        worker `start` of `stride` (see _rref_chunks)."""
        enum = self.enumerator(self.r, self.nb, d)
        if d == 1 and self._points is None:
            self._points = linear_set(self._tables, self._basis)
        for lo, hi, parts in _rref_chunks(enum, start, stride, chunk):
            if d == 1:
                ids, counts = self._points
                i, j = np.searchsorted(ids, (lo, hi))
                weights = np.zeros(hi - lo, dtype=np.int64)
                weights[ids[i:j] - lo] = np.bitwise_count(counts[i:j])
                yield range(lo, hi), weights
                continue
            weights = np.empty(hi - lo, dtype=np.int64)
            for s, p, a, b in parts:
                piv = enum.profiles[p]
                if d == 2 and self.r > 2:
                    self._tile_weights(piv, enum.cells[p], a, b, weights[s : s + b - a])
                else:
                    at = enum.offsets[p]
                    rows = decode_rows(enum, np.arange(at + a, at + b))
                    weights[s : s + b - a] = self._rank_weights(piv, rows)
            yield range(lo, hi), weights

    def _tile_weights(self, piv, cells, a, b, out):
        """Weights of the local positions [a, b) of profile piv into out.

        The last t = min(2, len(cells)) cells vary inside a tile; the
        others are the digits of the tile number g, the top digit first,
        and index every kernel table of the profile alike.
        """
        tables = self._kernels.get(piv)
        if tables is None:
            tables = [self._kernel_table(piv, f, cells)
                      for f in range(self.r) if f not in piv]
            self._kernels[piv] = tables
        t = min(2, len(cells))
        fixed = len(cells) - t
        T = 64**t
        tile, pops, sizes = self._tile_buffers(t, len(tables[0]))
        for g in range(a // T, (b - 1) // T + 1):
            at = (slice(None),) + tuple((g >> 6 * k) & 63 for k in reversed(range(fixed)))
            # x & x = x, so one free column ANDs its table with itself
            np.bitwise_and(tables[0][at], tables[-1][at], out=tile)
            for kernel in tables[1:-1]:
                np.bitwise_and(tile, kernel[at], out=tile)
            np.bitwise_count(tile, out=pops)
            np.add.reduce(pops.reshape(len(tile), -1), axis=0, dtype=np.uint16, out=sizes)
            # |AND_f K[w_f]| = 2^weight, and 2^weight - 1 has weight bits set
            sizes -= 1
            lo, hi = max(a, g * T), min(b, (g + 1) * T)
            out[lo - a : hi - a] = np.bitwise_count(sizes[lo - g * T : hi - g * T])

    def _rank_weights(self, piv, rows):
        """Weights of the subspaces of profile piv with RREF rows [B, d, r]:
        their duals w_f = e_f plus the rows' column f placed at the
        pivots, one per free column f."""
        free = [c for c in range(self.r) if c not in piv]
        duals = np.zeros((len(rows), len(free), self.r), dtype=np.int16)
        duals[:, range(len(free)), free] = 1
        duals[:, :, list(piv)] = rows[:, :, free].transpose(0, 2, 1)
        return self.weights_for_duals(duals)


@lru_cache(maxsize=4096)
def _deposit_tables(nb, d, p):
    """Per row i of profile p of RrefEnumerator((0, 1), nb, d): (shift,
    low, table), where table[(x >> shift) & low] is the bit mask of row
    i's coefficients at local position x.  Row i's cells are one run of
    the cell list, and so one run of the position's bits (the last cell
    least significant); table[y] sets bit piv[i] and, for each bit j of
    y, the column of the run's j-th cell from its end.  The tables depend
    on (nb, d, p) only, so every scan of every U shares them."""
    enum = _enumerator((0, 1), nb, d)
    cells = enum.cells[p]
    below = len(cells)  # less row i's cells: the bits below its run
    tables = []
    for i, c in enumerate(enum.profiles[p]):
        cols = [col for row, col in cells if row == i]
        below -= len(cols)
        bits = np.array([1 << col for col in reversed(cols)], dtype=np.int64)
        table = subset_sums(bits, 1 << c)
        table.flags.writeable = False  # the cache hands it to every scan
        tables.append((below, (1 << len(cols)) - 1, table))
    return tuple(tables)


def _coefficient_masks(nb, d, p, rem, masks, idx):
    """masks[i] = the coefficient bit masks of row i of the RREFs at the
    local positions rem of profile p of RrefEnumerator((0, 1), nb, d),
    one gather per row; idx is scratch of rem's length."""
    for mask, (shift, low, table) in zip(masks, _deposit_tables(nb, d, p)):
        np.right_shift(rem, shift, out=idx)
        idx &= low
        np.take(table, idx, out=mask, mode="clip")


class FqSpanScanner:
    """F_{q^6}-span dimension of d-dim F_2-subspaces of U (q = 2).

    Enumerates coefficient RREF matrices over F_2 relative to U's basis
    in RrefEnumerator((0, 1), nb, d) order and reports the rank over
    F_{64} of the spanned vectors.  Each vector is one packed subset sum
    of U's basis (an int64, coordinate k at bits 6k), and the d vectors
    of a chunk are row-reduced over GF(64) as d [B] arrays (_packed_rank).
    """

    MAX_WIDTH = 16  # the subset-sum table holds 2^nb packed vectors

    def __init__(self, tables, u_basis):
        self.nb = len(u_basis)
        self.r = len(u_basis[0])
        self.sums = subset_sums(coords_to_flats(u_basis))
        prod = tables.prod.astype(np.int64)
        # shifted[k][64 a + b] = (a * b) << 6k, coordinate k of a product
        self.shifted = [prod << 6 * k for k in range(self.r)]
        # quot[64 c + a] = (c / a) << 6, the elimination factor that
        # clears an entry c against a pivot entry a (0 when a = 0)
        inv = tables.inv.astype(np.int64)
        self.quot = prod.reshape(64, 64)[:, inv].ravel() << 6

    @staticmethod
    def enumerator(r, nb, d):
        """The RrefEnumerator whose positions iter_span_dims(d) walks."""
        return _enumerator((0, 1), nb, d)

    def iter_span_dims(self, d, start=0, stride=1, chunk=SCAN_CHUNK):
        """Yield (range of positions, span_dims) over the d-dim subspaces
        of U, per chunk of worker `start` of `stride` (see _rref_chunks)."""
        enum = self.enumerator(self.r, self.nb, d)
        # [B] arrays that every chunk reuses: fresh ones would be mapped and
        # faulted in anew each chunk (see SCAN_CHUNK)
        work = np.empty((2 * d + self.r + 4, min(chunk, enum.total)), dtype=np.int64)
        iota = np.arange(work.shape[1], dtype=np.int64)
        for lo, hi, parts in _rref_chunks(enum, start, stride, chunk):
            w = work[:, : hi - lo]
            masks, rows, temps = w[:d], w[d : 2 * d], w[2 * d :]
            for s, p, a, b in parts:
                rem, idx = temps[0][: b - a], temps[1][: b - a]
                np.add(iota[: b - a], a, out=rem)
                _coefficient_masks(self.nb, d, p, rem, masks[:, s : s + b - a], idx)
            # every index is in range; mode "clip" writes straight into
            # out, where the default "raise" goes through a copy of it
            for mask, row in zip(masks, rows):
                np.take(self.sums, mask, out=row, mode="clip")
            yield range(lo, hi), self._packed_rank(rows, temps)

    def _packed_rank(self, rows, temps):
        """GF(64) rank of d packed vectors per item, rows[i] for i < d.

        Row by row: row i's pivot is its lowest nonzero coordinate p, with
        entry a; each later row j, with entry c in column p, loses
        (c / a) row_i, and so vanishes in column p.  The nonzero rows
        left are independent, so they count the rank.  The rows are
        reduced in place, and every temporary is one of the r + 4 [B]
        int64 arrays of temps.
        """
        tmp, lead, idx, factor, *coords = temps
        rank = np.zeros(rows.shape[1], dtype=np.int64)
        for i, row in enumerate(rows):
            rank += row != 0
            if i + 1 == len(rows):
                break
            # the lowest set bit 2^t has t = popcount(2^t - 1); a zero row
            # has lead 0, so it clears nothing
            np.negative(row, out=tmp)
            tmp &= row
            tmp -= 1
            shift = np.bitwise_count(tmp)
            shift //= 6
            shift *= 6
            np.right_shift(row, shift, out=lead)
            lead &= 63
            for k, coord in enumerate(coords):
                np.right_shift(row, 6 * k, out=coord)
                coord &= 63
            for later in rows[i + 1 :]:
                np.right_shift(later, shift, out=idx)
                idx &= 63
                idx <<= 6
                idx |= lead
                np.take(self.quot, idx, out=factor, mode="clip")
                for k, coord in enumerate(coords):
                    np.bitwise_or(factor, coord, out=idx)
                    np.take(self.shifted[k], idx, out=tmp, mode="clip")
                    later ^= tmp
        return rank


class CodewordScanner(DualCodimScanner):
    """Rank weights of the codewords of U's code, read as hyperplane weights.

    The code's generator columns are U's basis u_j, so message m has
    codeword (m . u_j)_j, of rank weight nb - weight(U, m^⊥): the
    hyperplane weight that weights_for_duals gives for the dual m.
    Scaling m by F_64^* keeps m^⊥, so one normal per hyperplane is
    walked, its first nonzero coordinate 1: normal number i is position
    i of RrefEnumerator(range(64), r, 1) (the point_ids numbering),
    which _rref_chunks deals as in the other scans and decode_rows
    decodes.  Callers read the codeword weights as nb - w and multiply
    the counts by 63.
    """

    @staticmethod
    def enumerator(r, nb, d):
        """The normals' RrefEnumerator, whose positions iter_weights walks."""
        return _enumerator(range(64), r, 1)

    def iter_weights(self, d, start=0, stride=1, chunk=SCAN_CHUNK):
        """Yield (range of normal numbers, weights of their hyperplanes)
        per chunk of worker `start` of `stride`; d is r - 1, the
        hyperplanes'."""
        enum = self.enumerator(self.r, self.nb, d)
        for lo, hi, _ in _rref_chunks(enum, start, stride, chunk):
            yield range(lo, hi), self.scan_range(lo, hi)

    def scan_range(self, lo, hi):
        """[hi - lo] weights of the hyperplanes m^⊥, m the normals [lo, hi)."""
        enum = self.enumerator(self.r, self.nb, self.r - 1)
        # [B, 1, r]: each hyperplane's one dual
        return self.weights_for_duals(decode_rows(enum, np.arange(lo, hi)))


def _forward_eliminate(mul, work):
    """Triangularize a [B, R, C] batch of field matrices in place; return
    [B, R] pivot columns, -1 for a row that ends up zero.  mul is an
    elementwise field product (Gf64Tables.mul or BinaryField.mul_array).

    Row by row: row i's first nonzero entry a, in column p, is its pivot,
    and each later row j becomes a * row_j + row_j[p] * row_i.  No
    inverse is needed, and the later rows then vanish in column p.
    """
    B, R, _ = work.shape
    bidx = np.arange(B)
    pivots = np.empty((B, R), dtype=np.int64)
    for i in range(R):
        row = work[:, i]
        nonzero = row != 0
        live = nonzero.any(axis=1)
        p = np.argmax(nonzero, axis=1)
        pivots[:, i] = np.where(live, p, -1)
        if i + 1 == R:
            break
        # a zero row leaves the later rows alone: 1 * row_j + 0
        lead = np.where(live, row[bidx, p], 1)
        rest = work[:, i + 1 :]
        factors = rest[bidx, :, p]  # [B, R - i - 1]
        work[:, i + 1 :] = mul(rest, lead[:, None, None]) ^ mul(
            row[:, None, :], factors[:, :, None]
        )
    return pivots


def rref_small_batch(tables, mats):
    """Full RREF of a batch of small GF(64) matrices.

    mats: [B, s, 4].  Returns (rank [B], rref [B, s, 4] int16, zero rows
    last): _forward_eliminate, then each pivot scaled to 1, each row's
    pivot column cleared from the rows above it in increasing row order
    (the rows below are already zero there, and row i is zero in the
    pivot columns of the rows above it), and a stable sort of the rows
    by pivot column.
    """
    work = np.array(mats, dtype=np.int16)
    B, s, ncols = work.shape
    pivots = _forward_eliminate(tables.mul, work)
    live = pivots >= 0
    cols = np.where(live, pivots, 0)
    lead = np.take_along_axis(work, cols[:, :, None], axis=2)  # 0 on a zero row
    work = tables.mul(work, tables.inv[lead])
    for i in range(1, s):
        factors = np.take_along_axis(work[:, :i], cols[:, i, None, None], axis=2)
        work[:, :i] ^= tables.mul(factors, work[:, i, None])
    order = np.argsort(np.where(live, pivots, ncols), axis=1, kind="stable")
    return live.sum(axis=1), np.take_along_axis(work, order[:, :, None], axis=1)


def laplace_minors(mul, rows, below=None):
    """{T: minor on the columns T} of `rows` stacked over `below`.

    rows: top first, each [..., r]; below: the minors of the rows under
    them, keyed by the column subsets of one size ({(): 1} for none).
    Each row, bottom up, adds one to the size by Laplace expansion along
    it: M_T = sum over c in T of row_c M_{T - c} (no signs in
    characteristic 2).  mul is an elementwise field product
    (Gf64Tables.mul or BinaryField.mul_array).  Two rows of F_64^4 give their
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
    gives a determinant with a repeated row), so packed_point_ids of
    coords_to_flats(w) is the id of the plane's dual point.
    """
    return np.stack(
        [minors[tuple(k for k in range(4) if k != c)] for c in range(4)], axis=-1
    )


def plane_point_ids(tables, plane_rref):
    """Point ids of the planes given by RREF rows [P, 3, 4], [P, 4161] int64.

    A plane's points are r1 + a r2 + b r3 (entry 64 a + b of its row),
    then the 65 points of the line (r2, r3), each already normalized with
    the pivot of its first row.  Id words are XOR-linear, and a vector
    that is zero at and before a point's pivot leaves that point's id
    shift alone, so id(r1 + a r2 + b r3) = id(r1 + a r2) ^ word(b r3) and
    word(b r3) = id(r2 + b r3) ^ id(r2): two line_point_ids, then one
    [P, 64, 64] broadcast XOR written in place into the output.
    """
    rref = np.asarray(plane_rref, dtype=np.int16)
    P = len(rref)
    head = line_point_ids(tables, rref[:, :2])[:, :64]  # id(r1 + a r2)
    tail = line_point_ids(tables, rref[:, 1:])
    out = np.empty((P, 64 * 64 + 65), dtype=np.int64)
    out[:, 64 * 64 :] = tail
    fam = out[:, : 64 * 64].reshape(P, 64, 64)
    np.bitwise_xor(head[:, :, None], (tail[:, :64] ^ tail[:, :1])[:, None], out=fam)
    return out


def line_point_ids(tables, line_rref):
    """Point ids of the lines given by RREF rows [P, 2, 4], [P, 65] int64:
    id(r1 + a r2) = id(r1) ^ word(a r2) at entry a, then id(r2); see
    plane_point_ids."""
    rref = np.asarray(line_rref, dtype=np.int16)
    ids = point_ids(rref)  # [P, 2]
    # word(a r2) for every scalar a: codec words of the reversed multiples
    scal = np.arange(64, dtype=np.int16)
    words = coords_to_flats(tables.mul(scal[:, None], rref[:, 1, None, ::-1]))
    out = np.empty((len(rref), 64 + 1), dtype=np.int64)
    np.bitwise_xor(ids[:, 0, None], words, out=out[:, :-1])
    out[:, -1] = ids[:, 1]
    return out


# -- seeded sampled tests, any tower field ------------------------------------

SAMPLE_BATCH = 4096  # samples drawn and tested per numpy batch


def fqm_rank_batch(mul, mats):
    """F_{q^6}-rank of each matrix of a [B, R, C] batch, the count of
    _forward_eliminate's pivots; mul is the field's elementwise product
    (BinaryField.mul_array)."""
    return (_forward_eliminate(mul, np.array(mats, dtype=np.int64)) >= 0).sum(axis=1)


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
        self.mul = field.mul_array
        self.d = order + 1
        self.nb = U.dim_q
        self.width = self.d * self.nb
        self.mask = len(field.fq_elements) - 1
        self.elems = np.array(field.fq_elements, dtype=np.int64)
        basis = np.array(U.basis, dtype=np.int64)
        # combo[j, x] = fq_elements[x] * U.basis[j]
        self.combo = self.mul(self.elems[None, :, None], basis[:, None, :])

    def measure(self, groups):
        """(kept, spans): the accepted groups and their span dimensions."""
        idx = groups.reshape(len(groups), self.d, self.nb)
        kept = fqm_rank_batch(self.mul, self.elems[idx]) == self.d
        idx = idx[kept]
        vecs = self.combo[0][idx[:, :, 0]]
        for j in range(1, self.nb):
            vecs ^= self.combo[j][idx[:, :, j]]
        return kept, fqm_rank_batch(self.mul, vecs)

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
        self.mul = field.mul_array
        self.order = order
        self.r = U.r
        self.e, self.h = field.e, field.h
        self.width = order * U.r
        self.mask = field.order - 1
        basis = np.array(U.basis, dtype=np.int64)
        scal = np.array(field.fq_basis, dtype=np.int64)
        # the F_2-basis {s u : s in fq_basis, u in U.basis} of U, [R, r]
        self.u2 = self.mul(basis[:, None, :], scal[None, :, None]).reshape(-1, U.r)
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
        minors = laplace_minors(self.mul, list(gens), {(): ones})
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
            img ^= self.mul(duals[..., x], self.u2[None, :, None, x])
        kernel = len(self.u2) - _f2_image_rank(img, self.e)
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
