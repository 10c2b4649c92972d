import numpy as np
import pytest

from qscat import gf2, rankcode
from qscat.errors import (
    ClosedFormMismatch,
    DegenerateSystem,
    InvariantViolation,
    WorkLimitExceeded,
)
from qscat.gfbatch import (
    CodewordScanner,
    DualCodimScanner,
    Gf64Tables,
    coords_to_flats,
    packed_id_table,
    packed_point_ids,
)
from qscat.linalg import FqSubspace, apply_gl, gaussian_binomial, weight
from qscat.rankcode import (
    classify,
    code_from_system,
    codeword_scan,
    generalized_weight,
    mrd_weight_distribution,
    rank_weight,
    span_histograms,
    span_table,
)
from qscat.rng import XorShift64Star
from qscat.scatter import (
    _check_incidences,
    build_Us,
    exhaustive_scan,
    random_fq_subspace,
    random_invertible,
    weight_spectrum,
)


def test_code_parameters(F, code):
    assert (code.n, code.k, code.m) == (8, 4, 6)
    # generator columns are the canonical basis vectors of U: e_i
    # encodes to the i-th coordinates of U's basis
    U = code.system
    for i in range(4):
        e_i = tuple(int(j == i) for j in range(4))
        assert code.encode(e_i) == tuple(u[i] for u in U.basis)


def test_degenerate_system_rejected(F):
    T = F.trace_kernel_basis()
    flat = FqSubspace.span(
        F, 4, [(t, 0, 0, 0) for t in T] + [(0, t, 0, 0) for t in T]
    )
    assert flat.dim_q == 8
    with pytest.raises(DegenerateSystem):
        code_from_system(flat)


def test_rank_weight_examples(F):
    assert rank_weight(F, (0,) * 8) == 0
    assert rank_weight(F, (7,) * 8) == 1
    rng = XorShift64Star(41)
    for _ in range(100):
        v = tuple(F.random_element(rng) for _ in range(8))
        w = rank_weight(F, v)
        assert 0 <= w <= 6
        c = F.random_element(rng) or 1
        assert rank_weight(F, tuple(F.mul(c, x) for x in v)) == w


def test_rank_weight_q8(F8):
    rng = XorShift64Star(42)
    assert rank_weight(F8, (0,) * 8) == 0
    assert rank_weight(F8, (5,) * 8) == 1
    for _ in range(20):
        v = tuple(F8.random_element(rng) for _ in range(8))
        w = rank_weight(F8, v)
        c = F8.random_element(rng) or 1
        assert rank_weight(F8, tuple(F8.mul(c, x) for x in v)) == w


def test_rank_weight_q2_is_the_f2_rank(F):
    """At q = 2 the F_q-span of the coordinates is their F_2-span: the rank
    weight is the GF(2) rank of the nonzero coordinates (the old F_2 form)."""
    rng = XorShift64Star(43)
    seen = set()
    for _ in range(200):
        gens = [F.random_element(rng) for _ in range(rng.randrange(7))]
        v = []
        for _ in range(8):
            x = 0
            for g in gens:
                if rng.randbits(1):
                    x ^= g
            v.append(x)
        w = rank_weight(F, tuple(v))
        assert w == gf2.rank_bits([x for x in v if x])
        seen.add(w)
    assert seen == set(range(7))


def test_encode_matches_rank_weight(F, code):
    rng = XorShift64Star(43)
    for _ in range(50):
        msg = tuple(F.random_element(rng) for _ in range(4))
        cw = code.encode(msg)
        assert rank_weight(F, cw) <= 6
        if any(msg):
            # nonzero messages encode injectively in a non-degenerate code
            assert any(cw)


def test_span_table_values(F, code):
    best = span_table(code, workers=2)
    assert best == (0, 1, 2, 4, 8)


def test_generalized_weight_small_rhos(F, code):
    assert generalized_weight(code, 1, workers=2) == 4
    assert generalized_weight(code, 3, workers=2) == 7
    assert generalized_weight(code, 4) == 8
    # d_2 from the span table alone, not through the 17M-line scan
    assert code.n - span_table(code)[code.k - 2] == 6
    with pytest.raises(ValueError):
        generalized_weight(code, 0)
    with pytest.raises(ValueError):
        generalized_weight(code, 5)


def test_generalized_weight_cross_check_catches_a_wrong_scan(code, monkeypatch, capsys):
    """A subspace scan that reads one weight off disagrees with the span
    table: an internal error (code-profile exits 3, no certificate on
    stdout), never a profile."""
    from qscat import cli

    real = rankcode.weight_spectrum

    def one_off(*args, **kwargs):
        spec = real(*args, **kwargs)
        top = max(spec)
        spec[top + 1] = spec.pop(top)
        return spec

    monkeypatch.setattr(rankcode, "weight_spectrum", one_off)
    for rho in (1, 3):
        with pytest.raises(InvariantViolation, match="d_%d " % rho):
            generalized_weight(code, rho)
    assert cli.main(["code-profile"]) == 3
    assert capsys.readouterr().out == ""


def test_codeword_scan_budget(F8):
    U8 = build_Us(F8, 1)
    C8 = code_from_system(U8)
    with pytest.raises(WorkLimitExceeded):
        codeword_scan(C8)


def test_gl_equivalent_systems_share_profile(F, U1, code):
    rng = XorShift64Star(44)
    A = random_invertible(F, 4, rng)
    U2 = apply_gl(A, U1)
    C2 = code_from_system(U2)
    assert span_table(C2, workers=2) == span_table(code, workers=2)
    s1 = weight_spectrum(U1, codim=1, workers=2)
    s2 = weight_spectrum(U2, codim=1, workers=2)
    assert s1 == s2


def _moment_sides(U, d, hist, j, N):
    """Both sides of the j-th moment identity, N the span histogram of
    the j-dim F_q-subspaces of U: the sum over the d-dim H of
    [w(H), j]_q, and the sum over s of N(s) [r - s, d - s]_{q^m}."""
    q, Q = U.field.q, U.field.order
    lhs = sum(c * gaussian_binomial(w, j, q) for w, c in enumerate(hist))
    rhs = sum(c * gaussian_binomial(U.r - s, d - s, Q) for s, c in enumerate(N))
    return lhs, rhs


SYSTEMS = [
    "U1", "GL image of U1", "U_planted", "U_G", "random 0", "random 1", "random 2"
]


def _system(F, which, request):
    if which == "GL image of U1":
        A = random_invertible(F, 4, XorShift64Star(44))
        return apply_gl(A, request.getfixturevalue("U1"))
    if which.startswith("random"):
        rng = XorShift64Star(1234)
        for _ in range(int(which.split()[1]) + 1):
            U = random_fq_subspace(F, 4, 8, rng)
        return U
    return request.getfixturevalue(which)


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("which", SYSTEMS)
def test_lower_bound_stop_gives_the_complete_table(F, which, workers, request):
    """Every complete weight histogram of the codim 1..r-1 subspaces has
    the moments j = 0..n that the complete span histograms give, at any
    worker count, and passes _check_incidences with them."""
    U = _system(F, which, request)
    N = span_histograms(code_from_system(U), workers=workers)
    # complete: N[j] counts every j-dim F_2-subspace of U
    assert [sum(h) for h in N] == [
        gaussian_binomial(U.dim_q, j, 2) for j in range(U.dim_q + 1)
    ]
    moments = {}
    for d in range(1, U.r):
        _, hist = exhaustive_scan(U, d, DualCodimScanner, workers)
        for j, Nj in enumerate(N):
            lhs, rhs = _moment_sides(U, d, hist, j, Nj)
            assert lhs == rhs, (d, j)
            moments[d, j] = lhs
        _check_incidences(U, d, hist, dict(enumerate(N)))
    if which == "U1":
        # by hand from the hyperplane histogram {2: 206040, 3: 57630, 4: 2635}
        assert moments[3, 2] == 701_675 == 10_795 * gaussian_binomial(2, 1, 64)
        assert moments[3, 3] == 97_155 == gaussian_binomial(8, 3, 2)


def test_classify_scans_the_hyperplanes_once(code, monkeypatch):
    """classify's one hyperplane scan is the codeword scan: no
    DualCodimScanner scan runs at d = k - 1."""
    seen = []

    def recording(cls):
        real = cls.iter_weights

        def iter_weights(self, d, *args, **kwargs):
            seen.append((cls.__name__, d))
            return real(self, d, *args, **kwargs)

        monkeypatch.setattr(cls, "iter_weights", iter_weights)

    recording(DualCodimScanner)
    recording(CodewordScanner)
    classify(code_from_system(code.system), workers=1)
    assert [s for s in seen if s[1] == code.k - 1] == [("CodewordScanner", 3)]


@pytest.mark.parametrize("d, pos, span", [(3, 5, 2), (4, 0, 1)])
def test_false_least_span_is_an_invariant_violation(
    U1, monkeypatch, capsys, d, pos, span
):
    """A span scanner that reports a false smaller span at one position
    of the d-scan moves N_d, so the hyperplane histogram's d-th moment
    no longer matches: ClosedFormMismatch, an internal error (exit 3),
    and no certificate."""
    from qscat import cli, gfbatch

    real = gfbatch.FqSpanScanner.iter_span_dims
    hits = []

    def lying(self, dim, *args, **kwargs):
        for got_pos, spans in real(self, dim, *args, **kwargs):
            if dim == d and pos in got_pos:
                spans = spans.copy()
                at = np.asarray(got_pos) == pos
                spans[at] = span
                hits.append(int(at.sum()))
            yield got_pos, spans

    monkeypatch.setattr(gfbatch.FqSpanScanner, "iter_span_dims", lying)
    got, expected = {3: (97_155, 97_219), 4: (2_635, 6_795)}[d]
    message = "%d-th moment %d, the span histograms give %d" % (d, got, expected)
    with pytest.raises(ClosedFormMismatch, match=message):
        classify(code_from_system(U1))
    assert hits == [1]  # the fault hit exactly one position
    assert cli.main(["code-profile"]) == 3
    assert capsys.readouterr().out == ""
    assert hits == [1, 1]


def test_trivial_k1_system(F):
    """A 1-dim system: the only hyperplane is {0}, so d = n."""
    T = F.trace_kernel_basis()
    U = FqSubspace.span(F, 1, [(t,) for t in T])
    assert U.dim_q == 4
    C = code_from_system(U)
    assert (C.n, C.k) == (4, 1)
    # every nonzero codeword scales an independent tuple
    assert codeword_scan(C) == (4, {4: 63})


def test_d_rho_monotone_and_singleton_bound(F, code):
    best = span_table(code, workers=2)
    d_rho = tuple(code.n - best[code.k - rho] for rho in range(1, code.k + 1))
    assert all(a <= b for a, b in zip(d_rho, d_rho[1:]))
    assert all(
        d_rho[rho - 1] <= code.n - code.k + rho for rho in range(1, code.k + 1)
    )
    assert d_rho[-1] == code.n  # the system spans


def test_planted_low_weight_codeword(F, U1):
    """A system with a 5-dim subspace inside a hyperplane has d <= 3."""
    rng = XorShift64Star(45)
    while True:
        inside = [
            (F.random_element(rng), F.random_element(rng), F.random_element(rng), 0)
            for _ in range(5)
        ]
        outside = [
            tuple(F.random_element(rng) for _ in range(4)) for _ in range(3)
        ]
        U = FqSubspace.span(F, 4, inside + outside)
        if U.dim_q != 8:
            continue
        from qscat.linalg import fqm_span_dim

        if fqm_span_dim(F, U.basis) < 4:
            continue
        from qscat.linalg import FqmSubspace

        H0 = FqmSubspace.span(F, 4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
        if weight(U, H0) == 5:
            break
    profile = classify(code_from_system(U), workers=2)
    assert profile["d"] <= 3
    # the codeword scan against the oracle's hyperplane walk
    spec = weight_spectrum(U, codim=1, workers=2)
    assert profile["d"] == 8 - max(spec)
    assert profile["checks"]["hyperplane_weight_hist"] == {
        str(w): c for w, c in sorted(spec.items())
    }


def test_shared_kernel_fault_breaks_a_moment(F, U_planted, monkeypatch):
    """A fault in the hyperplane kernel, keyed on the normalized normal so
    that both hyperplane scan orders see it, that reads two weight-3
    hyperplanes of U_planted as 2 and one as 4: the count and the first
    moment hold, the second is off by 16, so classify refuses it."""
    tables = Gf64Tables(F)
    id_table = packed_id_table(tables)
    weights = CodewordScanner(tables, U_planted.basis).scan_range(0, 266_305)
    faults = dict(zip(np.flatnonzero(weights == 3)[:3].tolist(), (2, 2, 4)))
    real = DualCodimScanner.weights_for_duals

    def faulty(self, duals):
        out = real(self, duals)
        if duals.shape[1] == 1:
            ids = packed_point_ids(id_table, coords_to_flats(duals[:, 0, :]))
            for i in np.flatnonzero(np.isin(ids, list(faults))):
                out[i] = faults[int(ids[i])]
        return out

    monkeypatch.setattr(DualCodimScanner, "weights_for_duals", faulty)
    with pytest.raises(
        ClosedFormMismatch, match="2-th moment 730363, the span histograms give 730347"
    ):
        classify(code_from_system(U_planted))


def test_mrd_weight_distribution_closed_form():
    """Delsarte's distribution of the [8, 4, 4]_{64/2} MRD code."""
    dist = mrd_weight_distribution(8, 6, 4, 2)
    assert dist == {4: 166_005, 5: 3_630_690, 6: 12_980_520}
    assert sum(dist.values()) == 64**4 - 1
    # the formula is symmetric in the two matrix sizes
    assert mrd_weight_distribution(6, 8, 4, 2) == dist


@pytest.mark.parametrize("seed", [51, 52])
def test_codeword_distribution_is_63_times_hyperplanes(F, seed):
    """The projective codeword scan of a random spanning system agrees at
    1 and 2 workers and equals 63 x the hyperplane histogram at n - w."""
    rng = XorShift64Star(seed)
    U = random_fq_subspace(F, 4, 8, rng)
    C = code_from_system(U)
    d1, dist1 = codeword_scan(C, workers=1)
    d2, dist2 = codeword_scan(C, workers=2)
    assert (d1, dist1) == (d2, dist2)
    spec = weight_spectrum(U, codim=1, workers=2)
    assert dist1 == {8 - w: 63 * c for w, c in spec.items()}
    assert sum(dist1.values()) == 64**4 - 1
    assert d1 == 8 - max(spec)


def test_u1_codeword_distribution(code):
    d, dist = codeword_scan(code, workers=2)
    assert d == 4
    assert dist == {4: 166_005, 5: 3_630_690, 6: 12_980_520}


def test_planted_hyperplane_mutation_exits_3(monkeypatch, capsys):
    """U_1's codeword scan with +2 at w = 2, -3 at w = 3 and +1 at w = 4
    of the hyperplane histogram keeps the count and the first moment,
    and moves the second by 16: code-profile exits 3, no certificate."""
    from qscat import cli

    real = CodewordScanner.scan_range

    def mutated(self, lo, hi):
        weights = real(self, lo, hi)
        if lo == 0:
            weights[np.flatnonzero(weights == 3)[:3]] = (2, 2, 4)
        return weights

    monkeypatch.setattr(CodewordScanner, "scan_range", mutated)
    assert cli.main(["code-profile"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    last = captured.err.splitlines()[-1]
    assert "ClosedFormMismatch" in last
    assert "2-th moment 701691, the span histograms give 701675" in last


def test_codeword_histogram_off_incidences_raises(code, monkeypatch, capsys):
    """A codeword scan with one normal one heavier breaks the hyperplane
    incidence count: ClosedFormMismatch, and code-profile exits 3."""
    from qscat import cli

    real = CodewordScanner.scan_range

    def heavier(self, lo, hi):
        weights = real(self, lo, hi)
        if lo == 0:
            weights[0] += 1
        return weights

    monkeypatch.setattr(CodewordScanner, "scan_range", heavier)
    with pytest.raises(ClosedFormMismatch):
        codeword_scan(code)
    assert cli.main(["code-profile"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ClosedFormMismatch" in captured.err.splitlines()[-1]


def test_mrd_code_off_delsarte_raises(F, code, monkeypatch):
    """An MRD profile whose distribution is not Delsarte's is refused."""
    monkeypatch.setattr(
        rankcode, "mrd_weight_distribution", lambda n, m, d, q: {4: 1}
    )
    with pytest.raises(ClosedFormMismatch):
        rankcode.classify(code, workers=2)


def test_gabidulin_k3_distribution(U_G):
    """The code of U_G is the [6, 3]_{64/2} Gabidulin code: MRD with d = 4,
    so the codeword scan of a k = 3 code must give Delsarte's distribution."""
    C = code_from_system(U_G)
    assert (C.n, C.k) == (6, 3)
    expected = {4: 41013, 5: 134946, 6: 86184}
    assert mrd_weight_distribution(6, 6, 4, 2) == expected
    assert codeword_scan(C) == (4, expected)
