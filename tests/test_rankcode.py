import pytest

from qscat import gf2, rankcode
from qscat.errors import (
    ClosedFormMismatch,
    DegenerateSystem,
    InvariantViolation,
    WorkLimitExceeded,
)
from qscat.gfbatch import CodewordScanner, FqSpanScanner
from qscat.linalg import FqSubspace, apply_gl, weight
from qscat.rankcode import (
    code_from_system,
    codeword_scan,
    generalized_weight,
    min_distance,
    mrd_weight_distribution,
    rank_weight,
    span_table,
)
from qscat.rng import XorShift64Star
from qscat.scatter import (
    build_Us,
    exhaustive_scan,
    random_fq_subspace,
    random_invertible,
    weight_spectrum,
)


def test_code_parameters(F, code):
    assert (code.n, code.k, code.m) == (8, 4, 6)
    # generator columns are the canonical basis vectors of U
    U = code.system
    for j in range(8):
        assert tuple(code.generator[i][j] for i in range(4)) == U.basis[j]


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
    assert generalized_weight(code, 2, algorithm="fq_side") == 6
    with pytest.raises(ValueError):
        generalized_weight(code, 0)
    with pytest.raises(ValueError):
        generalized_weight(code, 5)


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


def _table_from_histograms(C, workers):
    """span_table's definition read off complete span histograms:
    minspan[d] is the first nonzero entry of the d-scan's histogram."""
    scans = [
        exhaustive_scan(C.system, d, FqSpanScanner, workers) for d in range(1, C.n + 1)
    ]
    assert all(first is None for first, _ in scans)
    minspan = [0] + [next(v for v, c in enumerate(hist) if c) for _, hist in scans]
    return tuple(
        max(d for d in range(C.n + 1) if minspan[d] <= j) for j in range(C.k + 1)
    )


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("which", ["U1", "GL image of U1", "U_planted", "U_G"])
def test_lower_bound_stop_gives_the_complete_table(F, which, workers, request):
    """The d-scans that stop at minspan[d-1] give the table read off the
    complete histograms, at any worker count."""
    if which == "GL image of U1":
        A = random_invertible(F, 4, XorShift64Star(44))
        U = apply_gl(A, request.getfixturevalue("U1"))
    else:
        U = request.getfixturevalue(which)
    C = code_from_system(U)
    assert span_table(C, workers=workers) == _table_from_histograms(C, workers)


def test_span_table_stops_each_scan_at_its_bound(code, monkeypatch):
    """span_table on U_1's code walks at most 213,808 of the 417,199
    F_2-subspaces: d = 4, 6, 7, 8 stop in their first chunk."""
    from qscat import gfbatch

    real = gfbatch.FqSpanScanner.iter_span_dims
    seen = []

    def counting(self, d, *args, **kwargs):
        for pos, spans in real(self, d, *args, **kwargs):
            seen.append(len(pos))
            yield pos, spans

    monkeypatch.setattr(gfbatch.FqSpanScanner, "iter_span_dims", counting)
    C = code_from_system(code.system)
    assert span_table(C, workers=1) == (0, 1, 2, 4, 8)
    assert 0 < sum(seen) <= 213_808


@pytest.mark.parametrize("d, pos, span", [(3, 5, 2), (4, 0, 1)])
def test_false_least_span_is_an_invariant_violation(
    U1, monkeypatch, capsys, d, pos, span
):
    """A scanner that reports a span of minspan[d-1] where the true one
    is larger (d = 3), or a span below minspan[d-1] (d = 4), is caught by
    the re-check of the stop position: an internal error (exit 3), and
    no certificate."""
    from qscat import cli, gfbatch

    real = gfbatch.FqSpanScanner.iter_span_dims

    def lying(self, dim, *args, **kwargs):
        for got_pos, spans in real(self, dim, *args, **kwargs):
            if dim == d:
                spans = spans.copy()
                spans[got_pos == pos] = span
            yield got_pos, spans

    monkeypatch.setattr(gfbatch.FqSpanScanner, "iter_span_dims", lying)
    with pytest.raises(InvariantViolation):
        span_table(code_from_system(U1))
    assert cli.main(["code-profile"]) == 3
    assert capsys.readouterr().out == ""


def test_trivial_k1_system(F):
    """A 1-dim system: the only hyperplane is {0}, so d = n."""
    T = F.trace_kernel_basis()
    U = FqSubspace.span(F, 1, [(t,) for t in T])
    assert U.dim_q == 4
    C = code_from_system(U)
    assert (C.n, C.k) == (4, 1)
    d = min_distance(C)
    assert d == 4  # every nonzero codeword scales an independent tuple


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
    C = code_from_system(U)
    d = min_distance(C, workers=2)
    assert d <= 3
    # both algorithms agreed inside min_distance; cross-check the value
    spec = weight_spectrum(U, codim=1, workers=2)
    assert d == 8 - max(spec)


def test_distance_disagreement_raises(F, monkeypatch):
    """A hyperplane scan that contradicts the codeword scan is an internal
    error, raised with asserts stripped too."""
    T = F.trace_kernel_basis()
    U = FqSubspace.span(F, 1, [(t,) for t in T])
    C = code_from_system(U)
    monkeypatch.setattr(rankcode, "weight_spectrum", lambda *a, **kw: {1: 1})
    with pytest.raises(InvariantViolation):
        min_distance(C)


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


def test_distribution_disagreement_raises(F, code, monkeypatch):
    """A codeword distribution off the hyperplane histogram by a single
    orbit is an internal error even when d agrees."""
    real = rankcode.codeword_scan

    def shifted(*args, **kwargs):
        d, dist = real(*args, **kwargs)
        dist = dict(dist)
        dist[5] -= 63
        dist[6] += 63
        return d, dist

    monkeypatch.setattr(rankcode, "codeword_scan", shifted)
    with pytest.raises(InvariantViolation):
        min_distance(code)


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
