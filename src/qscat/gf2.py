"""GF(2) linear algebra on int bitsets.

Rows are Python ints; bit k is column k.  These routines back every
flattened-subspace computation, so they stay allocation-light.

`rref_bits` is the one GF(2) elimination: rank, left kernel and inverse
are all read off the reduced row echelon form it returns.
"""


def rank_bits(rows):
    """Rank of the span of `rows` over GF(2)."""
    rows = list(rows)
    return rref_bits(rows, max(rows, default=0).bit_length())[0]


def rref_bits(rows, ncols):
    """Reduced row echelon form.

    Returns (rank, rref_rows, pivots) with rows sorted by pivot column
    and fully reduced; rref_rows has no zero rows.  Pivots lie in the
    first ncols columns; a row with no bit left there is dropped.
    """
    mask = (1 << ncols) - 1
    piv = {}  # pivot column -> row; each pivot bit is set in its own row only
    for r in rows:
        for p, prow in piv.items():
            if r >> p & 1:
                r ^= prow
        if r & mask:
            low = r & -r
            for p in list(piv):
                if piv[p] & low:
                    piv[p] ^= r
            piv[low.bit_length() - 1] = r
    pivots = sorted(piv)
    return len(pivots), [piv[p] for p in pivots], pivots


def _augment(rows, ncols):
    """[rows | I]: row i carries bit ncols + i after its ncols body bits."""
    body_mask = (1 << ncols) - 1
    return [(r & body_mask) | (1 << (ncols + i)) for i, r in enumerate(rows)]


def left_kernel_combos(rows, ncols):
    """Combination masks spanning the left kernel of the row list.

    Returns masks c (ints over len(rows) bits) with
    XOR_{i in bits(c)} rows[i] == 0, one per kernel dimension: the
    identity parts of the RREF rows of [rows | I] whose body is zero.
    """
    _, rref, pivots = rref_bits(_augment(rows, ncols), ncols + len(rows))
    return [r >> ncols for r, p in zip(rref, pivots) if p >= ncols]


def inv_cols(cols, n):
    """Invert the GF(2) map z -> XOR of cols[b] over set bits b of z.

    Returns inv such that applying inv undoes applying cols.  Raises
    ValueError when the column list is singular.
    """
    # the rows of M^T are the columns, and the RREF of [M^T | I] is
    # [I | (M^T)^-1] exactly when M is regular; row b of (M^T)^-1 is
    # column b of M^-1
    _, rref, pivots = rref_bits(_augment(cols, n), 2 * n)
    if pivots[:n] != list(range(n)):
        raise ValueError("singular bit matrix")
    return [a >> n for a in rref]


def apply_cols(cols, z):
    """XOR of cols[b] over the set bits of z."""
    out = 0
    while z:
        low = z & -z
        out ^= cols[low.bit_length() - 1]
        z ^= low
    return out
