"""Linear algebra over F_{q^m} and the two subspace types.

Vectors are tuples of ints over a BinaryField.  A vector flattens to one
int, coordinate k written by `field.elem_bits` at bits k*e .. k*e + e - 1,
so F_q-coordinate j of coordinate k is the h bits from k*e + j*h.  An
FqmSubspace is kept in reduced row echelon form over F_{q^m} (unique
canonical form); an FqSubspace is kept as the GF(2) RREF of its flattened
vectors, and its canonical F_q-RREF basis is read off that RREF.

A matrix over F_{q^m} is a tuple of rows: `det` and `mat_vec` act on it
and `apply_gl` maps a subspace by it.  `row_reduce` is the one scalar
F_{q^m} elimination: ranks, kernels and determinants are read off it, as
flattened GF(2) work is off gf2.rref_bits.  `det_cofactor` is the
elimination-free reference the tests use.
"""

from bisect import bisect_right
from itertools import combinations

from .errors import AmbientMismatch, DegreeMismatch, InvariantViolation, SingularMatrix
from . import gf2


def gaussian_binomial(n, k, Q):
    """Number of k-dim subspaces of an n-dim space over a Q-element field."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= Q ** (n - i) - 1
        den *= Q ** (i + 1) - 1
    if num % den:
        raise InvariantViolation("[%d, %d]_%d is not an integer" % (n, k, Q))
    return num // den


# -- vector helpers -------------------------------------------------------


def vec_add(a, b):
    return tuple(x ^ y for x, y in zip(a, b))


def vec_scale(field, c, v):
    mul = field.mul
    return tuple(mul(c, x) for x in v)


def flatten_vector(field, v):
    """Pack a vector into one int of r*e GF(2) coordinates: coordinate k
    as field.elem_bits, at bits k*e .. k*e + e - 1."""
    e, elem_bits = field.e, field.elem_bits
    out = 0
    for k, z in enumerate(v):
        out |= elem_bits(z) << (k * e)
    return out


def unflatten_vector(field, r, flat):
    e, bits_elem = field.e, field.bits_elem
    mask = (1 << e) - 1
    return tuple(bits_elem((flat >> (k * e)) & mask) for k in range(r))


def _span_rows(field, vectors, scalars):
    """Flattened s * v over the scalars s and the vectors v: with the
    F_2-basis of F_q (or of F_{q^m}) they span the F_q- (or F_{q^m}-)span."""
    return tuple(
        flatten_vector(field, vec_scale(field, s, v))
        for v in vectors
        for s in scalars
    )


def fq_rank(field, vectors):
    """dim_q of the F_q-span of the vectors, read off its F_2-rank."""
    r2 = gf2.rank_bits(_span_rows(field, vectors, field.fq_basis))
    if r2 % field.h:
        raise InvariantViolation(
            "F_2-rank %d of an F_q-span is not a multiple of h = %d" % (r2, field.h)
        )
    return r2 // field.h


# -- dense matrices over F_{q^m} -----------------------------------------


def row_reduce(field, rows):
    """RREF over F_{q^m}.

    Returns (rank, rref_rows, det) where det is None for non-square
    input and the determinant of the matrix otherwise.
    """
    work = [list(r) for r in rows]
    nrows = len(work)
    ncols = len(work[0]) if nrows else 0
    mul, inv = field.mul, field.inv
    det = 1
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, nrows):
            if work[i][col]:
                piv = i
                break
        if piv is None:
            det = 0
            continue
        work[rank], work[piv] = work[piv], work[rank]
        pv = work[rank][col]
        det = mul(det, pv)
        if pv != 1:
            pinv = inv(pv)
            work[rank] = [mul(pinv, x) for x in work[rank]]
        support = [(j, y) for j, y in enumerate(work[rank]) if y]
        for i in range(nrows):
            row = work[i]
            f = row[col]
            if f and i != rank:
                for j, y in support:
                    row[j] ^= mul(f, y)
        rank += 1
        if rank == nrows:
            break
    if nrows != ncols:
        det = None
    elif rank < nrows:
        det = 0
    rref = [tuple(r) for r in work[:rank]]
    return rank, rref, det


def det_cofactor(field, rows):
    """Cofactor-expansion determinant; independent of elimination."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    out = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [
            [rows[i][c] for c in range(n) if c != j] for i in range(1, n)
        ]
        out ^= field.mul(rows[0][j], det_cofactor(field, minor))
    return out


def fqm_span_dim(field, vectors):
    """Rank over F_{q^m} of the given vectors."""
    return row_reduce(field, vectors)[0]


def left_kernel_fq(field, rows):
    """F_q-kernel combos: coefficient tuples c with sum c_i rows[i] = 0.

    Entries of `rows` must lie in the subfield F_q; the returned
    coefficients do too.  They are the identity parts of the RREF rows
    of [rows | I] whose body is zero.
    """
    n = len(rows)
    ncols = len(rows[0]) if rows else 0
    aug = [
        tuple(row) + tuple(1 if j == i else 0 for j in range(n))
        for i, row in enumerate(rows)
    ]
    _, rref, _ = row_reduce(field, aug)
    return [r[ncols:] for r in rref if not any(r[:ncols])]


def det(field, rows):
    """Determinant of a square matrix, read off row_reduce."""
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("determinant of a non-square matrix")
    return row_reduce(field, rows)[2]


def mat_vec(field, rows, v):
    """A.v for the matrix A with the given rows (v as a column vector)."""
    mul = field.mul
    out = []
    for row in rows:
        acc = 0
        for a, x in zip(row, v):
            acc ^= mul(a, x)
        out.append(acc)
    return tuple(out)


def moore_matrix(field, ts):
    """Square Moore matrix with entry (i, j) = t_i^(q^j)."""
    n = len(ts)
    return tuple(tuple(field.frob(t, j) for j in range(n)) for t in ts)


# -- subspaces ------------------------------------------------------------


class FqmSubspace:
    """F_{q^m}-subspace of F_{q^m}^r in reduced row echelon form."""

    __slots__ = ("field", "r", "rows")

    def __init__(self, field, r, rows):
        self.field = field
        self.r = r
        self.rows = tuple(tuple(v) for v in rows)

    @classmethod
    def span(cls, field, r, gens):
        gens = [g for g in gens if any(g)]
        if any(len(g) != r for g in gens):
            raise AmbientMismatch("generator length differs from ambient")
        return cls(field, r, row_reduce(field, gens)[1])

    @property
    def dim(self):
        return len(self.rows)

    def f2rows(self):
        """An F_2-basis of the subspace, flattened and not reduced: b * v
        over the F_2-basis b of F_{q^m} and the rows v, independent
        because the rows are independent over F_{q^m}."""
        return _span_rows(self.field, self.rows, self.field.f2_basis)

    def frob_image(self, i=1):
        field = self.field
        gens = [tuple(field.frob(x, i) for x in v) for v in self.rows]
        return FqmSubspace.span(field, self.r, gens)

    def __eq__(self, other):
        return (
            isinstance(other, FqmSubspace)
            and self.field.same_as(other.field)
            and self.r == other.r
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.r, self.rows))

    def __repr__(self):
        return "FqmSubspace(r=%d, dim=%d)" % (self.r, self.dim)


class FqSubspace:
    """F_q-subspace of F_{q^m}^r, kept as the GF(2) RREF of its flattened
    vectors, with the canonical F_q-RREF basis read off it."""

    __slots__ = ("field", "r", "basis", "_f2rows")

    def __init__(self, field, r, flats):
        """`flats`: flattened vectors whose F_2-span is the subspace."""
        _, rows, _ = gf2.rref_bits(flats, r * field.e)
        h, one = field.h, field.one_bits
        if len(rows) % h:
            raise InvariantViolation(
                "F_2-rank %d of an F_q-subspace is not a multiple of h" % len(rows)
            )
        # the pivots fill whole F_q-coordinates, h rows each; row i of a block
        # is s_i times the F_q-RREF row, and 1 = sum of s_i over one_bits
        self.field = field
        self.r = r
        self._f2rows = tuple(rows)
        self.basis = tuple(
            unflatten_vector(field, r, gf2.apply_cols(rows[t : t + h], one))
            for t in range(0, len(rows), h)
        )

    @classmethod
    def span(cls, field, r, gens):
        if any(len(g) != r for g in gens if any(g)):
            raise AmbientMismatch("generator length differs from ambient")
        return cls(field, r, _span_rows(field, gens, field.fq_basis))

    @property
    def dim_q(self):
        return len(self.basis)

    def combine(self, coeffs):
        """The vector sum_i coeffs[i] * basis[i], coefficients in F_q."""
        field = self.field
        v = (0,) * self.r
        for c, b in zip(coeffs, self.basis):
            if c:
                v = vec_add(v, vec_scale(field, c, b))
        return v

    def f2rows(self):
        """The GF(2) RREF of the flattened subspace."""
        return self._f2rows

    def vectors(self):
        """All vectors of the subspace (q^dim of them; small dims only)."""
        vecs = [(0,) * self.r]
        for b in self.basis:
            scaled = [vec_scale(self.field, c, b) for c in self.field.fq_elements]
            vecs = [vec_add(v, s) for v in vecs for s in scaled]
        return vecs

    def frob_image(self, i=1):
        field = self.field
        gens = [tuple(field.frob(x, i) for x in v) for v in self.basis]
        return FqSubspace.span(field, self.r, gens)

    def __eq__(self, other):
        return (
            isinstance(other, FqSubspace)
            and self.field.same_as(other.field)
            and self.r == other.r
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.r, self.basis))

    def __repr__(self):
        return "FqSubspace(r=%d, dim_q=%d)" % (self.r, self.dim_q)


def _check_ambient(U, H):
    if not U.field.same_as(H.field) or U.r != H.r:
        raise AmbientMismatch("subspaces live in different ambients")


def weight(U, H):
    """dim_q(U ∩ H) via the kernel of the stacked flattened bases: both
    are F_2-independent, so one rank gives it."""
    _check_ambient(U, H)
    urows = U.f2rows()
    hrows = H.f2rows()
    rank = gf2.rank_bits(urows + hrows)
    inter2 = len(urows) + len(hrows) - rank
    h = U.field.h
    if inter2 % h:
        raise InvariantViolation(
            "F_2-dimension %d of U ∩ H is not a multiple of h = %d" % (inter2, h)
        )
    return inter2 // h


def intersect_fq(U, W):
    """U ∩ W as an FqSubspace (both arguments flattened over F_2)."""
    _check_ambient(U, W)
    urows = U.f2rows()
    cut = (1 << len(urows)) - 1
    combos = gf2.left_kernel_combos(urows + W.f2rows(), U.r * U.field.e)
    return FqSubspace(U.field, U.r, [gf2.apply_cols(urows, m & cut) for m in combos])


def apply_gl(A, U):
    """Image of a subspace under v -> A.v (column action); A is given by
    its rows and must be an invertible U.r x U.r matrix."""
    field, r = U.field, U.r
    if len(A) != r or any(len(row) != r for row in A) or not det(field, A):
        raise SingularMatrix("apply_gl requires an invertible %d x %d matrix" % (r, r))
    if isinstance(U, FqSubspace):
        return FqSubspace.span(field, r, [mat_vec(field, A, v) for v in U.basis])
    return FqmSubspace.span(field, r, [mat_vec(field, A, v) for v in U.rows])


# -- deterministic RREF enumeration ---------------------------------------


class RrefEnumerator:
    """Random-access enumeration of d-dim subspaces of an n-dim space.

    Subspaces are identified with RREF matrices ordered by pivot profile
    (lexicographic) and then by the free entries read row-major as a
    base-Q number (most significant digit first).
    """

    def __init__(self, scalars, n, d):
        self.scalars = scalars
        self.n = n
        self.d = d
        Q = len(scalars)
        self.profiles = list(combinations(range(n), d))
        self.cells = []
        self.counts = []
        for piv in self.profiles:
            pivset = set(piv)
            cells = [
                (i, c)
                for i in range(d)
                for c in range(piv[i] + 1, n)
                if c not in pivset
            ]
            self.cells.append(cells)
            self.counts.append(Q ** len(cells))
        self.offsets = []
        acc = 0
        for c in self.counts:
            self.offsets.append(acc)
            acc += c
        self.total = acc

    def profile_of(self, index):
        """The pivot profile number of a global index in [0, total)."""
        if not 0 <= index < self.total:
            raise IndexError(index)
        return bisect_right(self.offsets, index) - 1

    def decode(self, index):
        """RREF rows (tuples of scalars) for a global index in [0, total)."""
        p = self.profile_of(index)
        local = index - self.offsets[p]
        piv = self.profiles[p]
        cells = self.cells[p]
        Q = len(self.scalars)
        rows = [[0] * self.n for _ in range(self.d)]
        for i, c in enumerate(piv):
            rows[i][c] = 1
        for t in range(len(cells) - 1, -1, -1):
            local, digit = divmod(local, Q)
            i, c = cells[t]
            rows[i][c] = self.scalars[digit]
        return tuple(tuple(r) for r in rows), piv

    def iter_slice(self):
        """The RREF rows of every subspace, in index order."""
        for index in range(self.total):
            yield self.decode(index)[0]


# -- wire format ----------------------------------------------------------


def rows_to_text(field, r, rows):
    """Header "r m q_exp modulus_hex", then one hex row per line."""
    lines = ["%d %d %d %s" % (r, field.m, field.h, field.modulus_hex())]
    for v in rows:
        lines.append(" ".join(field.to_hex(x) for x in v))
    return "\n".join(lines) + "\n"


def rows_from_text(text, field=None):
    """Parse rows_to_text's format; the header's m must be 6 (F_{q^6})."""
    from .field import BinaryField, from_nibble_hex

    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    r, m, h, modhex = lines[0].split()
    r, m, h = int(r), int(m), int(h)
    if m != 6:
        raise DegreeMismatch("header m = %d, expected 6" % m)
    modulus = from_nibble_hex(modhex)
    if field is None:
        field = BinaryField(h, modulus)
    elif field.modulus != modulus or field.h != h:
        raise AmbientMismatch("file field differs from supplied field")
    rows = []
    for ln in lines[1:]:
        rows.append(tuple(field.from_hex(tok) for tok in ln.split()))
        if len(rows[-1]) != r:
            raise ValueError("row length differs from header")
    return field, r, rows
