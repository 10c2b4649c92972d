from itertools import combinations

import pytest

from qscat import gf2
from qscat.errors import AmbientMismatch, DegreeMismatch, SingularMatrix
from qscat.field import default_field
from qscat.linalg import (
    FqSubspace,
    FqmSubspace,
    RrefEnumerator,
    apply_gl,
    det,
    det_cofactor,
    flatten_vector,
    fqm_span_dim,
    gaussian_binomial,
    intersect_fq,
    left_kernel_fq,
    mat_vec,
    moore_matrix,
    row_reduce,
    rows_from_text,
    rows_to_text,
    unflatten_vector,
    weight,
)
from qscat.rng import XorShift64Star
from qscat.scatter import random_fqm_subspace, random_invertible


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def inverse(F, A):
    """A^-1, read off the RREF of [A | I]."""
    n = len(A)
    rank, rref, _ = row_reduce(F, [a + e for a, e in zip(A, identity(n))])
    assert rank == n and [r[:n] for r in rref] == list(identity(n))
    return tuple(r[n:] for r in rref)


def test_gaussian_binomial_frozen_counts():
    # evaluated directly from the defining product formula
    assert gaussian_binomial(8, 3, 2) == 97_155
    assert gaussian_binomial(8, 2, 2) == 10_795
    assert gaussian_binomial(4, 3, 64) == (64**4 - 1) // 63 == 266_305
    # product formula restated by hand for the line count
    lines = ((64**4 - 1) * (64**3 - 1)) // ((64**2 - 1) * (64 - 1))
    assert gaussian_binomial(4, 2, 64) == lines == 17_047_617


def test_row_reduce_examples(F):
    ident = identity(4)
    assert row_reduce(F, ident)[0] == 4 and det(F, ident) == 1
    dup = [(1, 2, 3, 4)] * 2 + [(5, 6, 7, 8), (9, 10, 11, 12)]
    assert det(F, dup) == 0
    for rows in (dup[:3], [r + (1,) for r in dup], [(1, 2)] * 3):
        with pytest.raises(ValueError):
            det(F, rows)


def test_det_matches_cofactor_oracle(F):
    rng = XorShift64Star(11)
    for _ in range(100):
        rows = [[F.random_element(rng) for _ in range(4)] for _ in range(4)]
        assert det(F, rows) == det_cofactor(F, rows)


def test_matrix_inverse_roundtrip(F):
    rng = XorShift64Star(12)
    for _ in range(30):
        M = random_invertible(F, 4, rng)
        Minv = inverse(F, M)
        for e_i in identity(4):
            assert mat_vec(F, M, mat_vec(F, Minv, e_i)) == e_i
            assert mat_vec(F, Minv, mat_vec(F, M, e_i)) == e_i


def brute_force_dependent(F, ts):
    """Scan all nontrivial F_q-combinations for a vanishing one (q = 2)."""
    n = len(ts)
    for mask in range(1, 1 << n):
        acc = 0
        for i in range(n):
            if (mask >> i) & 1:
                acc ^= ts[i]
        if acc == 0:
            return True
    return False


def test_moore_matrix(F):
    T = F.trace_kernel_basis()
    assert det(F, moore_matrix(F, T)) != 0
    assert det(F, moore_matrix(F, (T[0], T[0], T[2], T[3]))) == 0
    # entry (i, j) is t_i^(q^j)
    M = moore_matrix(F, T)
    assert M[2][3] == F.frob(T[2], 3)
    rng = XorShift64Star(13)
    for _ in range(1000):
        ts = [F.random_element(rng) for _ in range(4)]
        vanish = det(F, moore_matrix(F, ts)) == 0
        assert vanish == brute_force_dependent(F, ts)
    # all 4-subsets of a fixed 5-element set
    fixed = [1, 2, 4, 8, F.mul(3, 7)]
    for sub in combinations(fixed, 4):
        vanish = det(F, moore_matrix(F, sub)) == 0
        assert vanish == brute_force_dependent(F, list(sub))


def test_subspace_span_examples(F):
    zero = FqSubspace.span(F, 4, [(0, 0, 0, 0)])
    assert zero.dim_q == 0
    lam = 0b10  # x, not in F_2
    v = (1, 5, 9, 0)
    lamv = tuple(F.mul(lam, c) for c in v)
    two = FqSubspace.span(F, 4, [v, lamv])
    assert two.dim_q == 2
    assert fqm_span_dim(F, [v, lamv]) == 1
    one = FqmSubspace.span(F, 4, [v, lamv])
    assert one.dim == 1
    # idempotency: spanning a canonical basis returns the same object
    again = FqSubspace.span(F, 4, two.basis)
    assert again == two


def test_span_of_U_is_full_ambient(F, U1):
    assert fqm_span_dim(F, U1.basis) == 4
    full = FqmSubspace.span(F, 4, U1.basis)
    assert full.dim == 4


def test_weight_examples(F, U1):
    full = FqmSubspace.span(
        F, 4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    )
    assert weight(U1, full) == U1.dim_q == 8
    zero = FqmSubspace.span(F, 4, [])
    assert weight(U1, zero) == 0
    rng = XorShift64Star(14)
    for _ in range(25):
        H = random_fqm_subspace(F, 4, 3, rng)
        assert weight(U1, H) in (2, 3, 4)
    # weight(U, H) <= min(dim_q U, m * dim H)
    for d in (1, 2, 3):
        H = random_fqm_subspace(F, 4, d, rng)
        assert weight(U1, H) <= min(U1.dim_q, 6 * d)


def test_weight_ambient_mismatch(F, F8, U1):
    H2 = FqmSubspace.span(F, 2, [(1, 0)])
    with pytest.raises(AmbientMismatch):
        weight(U1, H2)


def test_fqm_span_dim_examples(F, U1):
    assert fqm_span_dim(F, [(0, 5, 0, 1)]) == 1
    rng = XorShift64Star(15)
    for _ in range(50):
        # three F_q-independent vectors of U span at least dimension 3
        while True:
            gens = [U1.combine([rng.randrange(2) for _ in U1.basis]) for _ in range(3)]
            S = FqSubspace.span(F, 4, gens)
            if S.dim_q == 3:
                break
        assert fqm_span_dim(F, S.basis) >= 3


def test_enumerate_fqm_counts_and_dedup(F):
    seen = set()
    n = 0
    for rows in RrefEnumerator(range(F.order), 2, 1).iter_slice():
        seen.add(FqmSubspace.span(F, 2, rows).rows)
        n += 1
    assert n == len(seen) == gaussian_binomial(2, 1, 64) == 65
    only = list(RrefEnumerator(range(F.order), 4, 4).iter_slice())
    assert len(only) == 1 and FqmSubspace.span(F, 4, only[0]).dim == 4
    assert gaussian_binomial(4, 3, F.order) == 266_305


def test_enumeration_is_deterministic(F):
    enum = RrefEnumerator(range(F.order), 2, 1)
    full = list(enum.iter_slice())
    assert full == list(enum.iter_slice())
    assert full == [enum.decode(i)[0] for i in range(enum.total)]


def test_rref_decode_rejects_indices_outside_the_enumeration():
    """The 35 planes of F_2^4 are indices 0..34; 35 and past are no RREF."""
    enum = RrefEnumerator((0, 1), 4, 2)
    assert enum.total == 35
    assert enum.decode(34)[0] == ((0, 0, 1, 0), (0, 0, 0, 1))
    for index in (-1, 35, 135):
        with pytest.raises(IndexError):
            enum.decode(index)
    # each index lies in the last profile that starts at or before it
    assert [enum.profile_of(i) for i in range(35)] == [
        p for p, count in enumerate(enum.counts) for _ in range(count)
    ]


def test_flatten_packs_each_coordinate_in_its_own_bits(F, F8):
    """Coordinate k is its elem_bits at bits k*e .. k*e + e - 1: over
    GF(2^18) the h bits from k*e + j*h are its F_q-coordinate j (over
    fq_basis); over GF(64) they are plain polynomial bits."""
    rng = XorShift64Star(31)
    moved = 0
    for _ in range(50):
        v = tuple(F8.random_element(rng) for _ in range(4))
        flat = flatten_vector(F8, v)
        assert flat == sum(F8.elem_bits(z) << (F8.e * k) for k, z in enumerate(v))
        for k, z in enumerate(v):
            for j, c in enumerate(F8.fq_coords(z)):
                bits = flat >> (k * F8.e + j * F8.h) & (F8.q - 1)
                assert gf2.apply_cols(F8.fq_basis, bits) == c
        moved += flat != sum(z << (F8.e * k) for k, z in enumerate(v))
        assert unflatten_vector(F8, 4, flat) == v
        w = tuple(F.random_element(rng) for _ in range(4))
        assert flatten_vector(F, w) == sum(z << (F.e * k) for k, z in enumerate(w))
        assert unflatten_vector(F, 4, flatten_vector(F, w)) == w
    assert moved  # at h = 3 the layout is not the polynomial one


def test_enumerate_fq_subspaces_small(F):
    small = FqSubspace.span(F, 4, [(1, 0, 0, 0), (2, 0, 0, 0), (0, 1, 0, 0)])
    assert small.dim_q == 3

    def subspaces(d):
        enum = RrefEnumerator(F.fq_elements, small.dim_q, d)
        return [
            FqSubspace.span(F, 4, [small.combine(row) for row in rows])
            for rows in enum.iter_slice()
        ]

    subs = subspaces(2)
    assert len(subs) == gaussian_binomial(3, 2, 2) == 7
    assert len(set(subs)) == 7
    zero_dim = subspaces(0)
    assert len(zero_dim) == 1 and zero_dim[0].dim_q == 0
    for S in subs:
        assert S.dim_q == 2
        assert FqSubspace.span(F, 4, small.basis + S.basis) == small


def test_apply_gl(F, U1):
    assert apply_gl(identity(4), U1) == U1
    rng = XorShift64Star(16)
    for _ in range(10):
        A = random_invertible(F, 4, rng)
        back = apply_gl(inverse(F, A), apply_gl(A, U1))
        assert back == U1
    # a singular matrix, and matrices of the wrong shape (a 4 x 5 one has
    # full rank 4 but does not act on F_{q^6}^4)
    wide = tuple(row + (0,) for row in identity(4))
    for A in (((0,) * 4,) * 4, identity(3), identity(5), wide):
        with pytest.raises(SingularMatrix):
            apply_gl(A, U1)


def test_weight_gl_invariance(F, U1):
    rng = XorShift64Star(17)
    for _ in range(20):
        A = random_invertible(F, 4, rng)
        H = random_fqm_subspace(F, 4, rng.randrange(3) + 1, rng)
        assert weight(U1, H) == weight(apply_gl(A, U1), apply_gl(A, H))


def test_intersect_fq(F, U1):
    rng = XorShift64Star(18)
    for _ in range(10):
        H = random_fqm_subspace(F, 4, 2, rng)
        # the F_q-flattening of H intersected with U has the same dim
        gens = []
        from qscat.linalg import vec_scale

        for row in H.rows:
            for j in range(6):
                gens.append(vec_scale(F, 1 << j, row))
        Hq = FqSubspace.span(F, 4, gens)
        inter = intersect_fq(U1, Hq)
        assert inter.dim_q == weight(U1, H)
        for W in (U1, Hq):
            assert FqSubspace.span(F, 4, W.basis + inter.basis) == W


def test_left_kernel_fq(F):
    rng = XorShift64Star(19)
    for _ in range(20):
        rows = [[F.random_element(rng) for _ in range(4)] for _ in range(2)]
        combos = left_kernel_fq(F, rows + rows)  # duplicated rows force kernel
        assert combos
        for c in combos:
            acc = [0, 0, 0, 0]
            for coef, row in zip(c, rows + rows):
                acc = [a ^ F.mul(coef, b) for a, b in zip(acc, row)]
            assert acc == [0, 0, 0, 0]


def test_fq_span_q2_is_the_f2_rref(F):
    """At q = 2 the F_q-RREF is the GF(2) RREF of the flattened generators,
    unflattened (the old F_2 form of FqSubspace.span and f2rows)."""
    rng = XorShift64Star(77)
    for _ in range(100):
        gens = [
            tuple(F.random_element(rng) for _ in range(4))
            for _ in range(1 + rng.randrange(7))
        ]
        gens += [(0, 0, 0, 0), gens[rng.randrange(len(gens))]]  # zero, repeat
        _, rref, _ = gf2.rref_bits([flatten_vector(F, g) for g in gens], 4 * F.e)
        U = FqSubspace.span(F, 4, gens)
        assert U.basis == tuple(unflatten_vector(F, 4, f) for f in rref)
        flat_basis = [flatten_vector(F, v) for v in U.basis]
        assert U.f2rows() == tuple(gf2.rref_bits(flat_basis, 4 * F.e)[1])


def _fq_rref_by_coords(field, r, gens):
    """The F_q-RREF basis by F_{q^6} elimination: row_reduce of the
    fq_coords rows over 6r columns, each F_q-row reassembled as
    sum_j c_j x^j per coordinate."""
    rows = [[c for z in g for c in field.fq_coords(z)] for g in gens]
    _, rref, _ = row_reduce(field, rows)

    def assemble(cs):
        z = 0
        for j, c in enumerate(cs):
            z ^= field.mul(c, 1 << j)
        return z

    return tuple(
        tuple(assemble(row[6 * k : 6 * k + 6]) for k in range(r)) for row in rref
    )


@pytest.mark.parametrize("h", [1, 3, 5])
def test_fq_span_reads_the_fq_rref_off_the_gf2_rref(h):
    """FqSubspace.span's basis equals the F_q-RREF found by elimination
    over F_{q^6}, on seeded generator sets with a zero, a repeated and an
    F_q-scaled generator spliced in, and on the empty set; and the
    unreduced f2rows of an F_{q^6}-subspace are F_2-independent."""
    F = default_field(h)
    rng = XorShift64Star(500 + h)
    cases = [[]]
    for _ in range(12 if h < 5 else 4):
        gens = [
            tuple(F.random_element(rng) for _ in range(4))
            for _ in range(1 + rng.randrange(6))
        ]
        c = F.fq_elements[1 + rng.randrange(F.q - 1)]
        g = gens[rng.randrange(len(gens))]
        gens.insert(rng.randrange(len(gens) + 1), (0, 0, 0, 0))
        gens.insert(rng.randrange(len(gens) + 1), g)
        gens.insert(rng.randrange(len(gens) + 1), tuple(F.mul(c, z) for z in g))
        cases.append(gens)
    # sparse generators: pivots that do not sit in coordinate 0
    cases.append([(0, 0, 1, 0), (0, 0, 2, 0), (0, 3, 0, 5), (0, 0, 0, 0)])
    for gens in cases:
        U = FqSubspace.span(F, 4, gens)
        assert U.basis == _fq_rref_by_coords(F, 4, gens)
        H = FqmSubspace.span(F, 4, gens)
        rows = H.f2rows()
        assert gf2.rank_bits(rows) == len(rows) == H.dim * F.e


def test_rows_text_roundtrip(F, U1):
    txt = rows_to_text(F, 4, U1.basis)
    fld, r, rows = rows_from_text(txt)
    assert r == 4 and fld.same_as(F)
    assert tuple(rows) == U1.basis
    header = txt.splitlines()[0].split()
    assert header[0] == "4" and header[1] == "6" and header[2] == "1"


def test_rows_text_rejects_a_header_m_other_than_6(F, U1):
    lines = rows_to_text(F, 4, U1.basis).splitlines()
    r, _, h, modhex = lines[0].split()
    # GF(2^12) is F_{q^6} for no odd h: the header names no tower field
    bad = "\n".join([" ".join([r, "12", h, modhex])] + lines[1:])
    with pytest.raises(DegreeMismatch):
        rows_from_text(bad)


def test_frob_image_subspaces(F, U1):
    rng = XorShift64Star(20)
    H = random_fqm_subspace(F, 4, 2, rng)
    assert H.frob_image(6) == H
    assert U1.frob_image(6) == U1
