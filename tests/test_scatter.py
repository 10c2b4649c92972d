import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qscat import gf2, scatter
from qscat.errors import ConfigError, EvenH, WorkLimitExceeded
from qscat.field import BinaryField
from qscat.linalg import (
    FqSubspace,
    FqmSubspace,
    apply_gl,
    fqm_span_dim,
    gaussian_binomial,
    left_kernel_fq,
    vec_scale,
    weight,
)
from qscat.rng import XorShift64Star
from qscat.scatter import (
    SEC2_EQUIV_MATRIX,
    build_U5prime,
    build_Us,
    count_solutions,
    enumerate_frobenius_fixed,
    fast_oracle_agreement,
    frobenius_fixed,
    is_h_scattered_fast,
    is_h_scattered_oracle,
    max_dim_bound,
    random_fq_subspace,
    random_fqm_subspace,
    random_frobenius_fixed,
    random_invertible,
    retta4_subspace,
    semilinear_system,
    solutions,
    weight_spectrum,
)

ROOT = Path(__file__).resolve().parents[1]


def test_us_params_validation(F):
    """s must be coprime to 6 (1 or 5), and q = 2^h needs an odd h."""
    for s in (0, 2, 3, 4, 6):
        with pytest.raises(ValueError, match="s must be 1 or 5"):
            build_Us(F, s)
    with pytest.raises(EvenH):
        BinaryField(2)


def test_build_us_shape(F, U1):
    assert U1.dim_q == 8 == max_dim_bound(4, 6, 2).value
    assert (0, 0, 0, 0) in U1.vectors()
    assert fqm_span_dim(F, U1.basis) == 4
    # membership matches the defining tuple shape on every element
    frob = F.frob
    for v in U1.vectors():
        x, y = v[0], v[1]
        assert F.rel_trace(x) == 0 and F.rel_trace(y) == 0
        assert v[2] == frob(x, 2) ^ frob(y, 1)
        assert v[3] == frob(x, 1) ^ frob(y, 3)


def test_build_u5_shape(F):
    U5 = build_Us(F, 5)
    assert U5.dim_q == 8
    frob = F.frob
    for v in U5.vectors():
        x, y = v[0], v[1]
        # sigma = q^5, so sigma^2 = q^4 and sigma^3 = q^3
        assert v[2] == frob(x, 4) ^ frob(y, 5)
        assert v[3] == frob(x, 5) ^ frob(y, 3)


def test_sec2_equivalence(F, U1):
    U5p = build_U5prime(F)
    assert U5p.dim_q == 8
    assert U5p != U1
    assert apply_gl(SEC2_EQUIV_MATRIX, U5p) == U1


def test_fast_certification_counts(F, U1):
    v2 = is_h_scattered_fast(U1, 2)
    assert v2.ok and v2.mode == "fast"
    assert v2.checked_count == 97_155
    v1 = is_h_scattered_fast(U1, 1)
    assert v1.ok and v1.checked_count == 10_795


def test_u5_and_u5prime_also_scattered(F):
    for U in (build_Us(F, 5), build_U5prime(F)):
        assert is_h_scattered_fast(U, 2).ok


def _planted_violation(F, U1):
    """Replace a basis vector by an F_{q^6}-multiple of another."""
    lam = 0b10  # x, outside F_2
    b = U1.basis
    gens = [b[0], vec_scale(F, lam, b[0])] + list(b[1:7])
    U = FqSubspace.span(F, 4, gens)
    assert U.dim_q == 8 and fqm_span_dim(F, U.basis) == 4
    return U


def test_planted_counterexample_fast(F, U1):
    U = _planted_violation(F, U1)
    v = is_h_scattered_fast(U, 2)
    assert not v.ok
    assert v.witness["fqm_span_dim"] <= 2
    # witness is re-checkable: its basis lies in U and spans <= 2
    basis = [tuple(F.from_hex(h) for h in row) for row in v.witness["basis"]]
    assert FqSubspace.span(F, 4, U.basis + tuple(basis)) == U
    assert fqm_span_dim(F, basis) <= 2


def test_witness_cross_derivation(F, U1):
    """Fast and oracle witnesses convert into one another."""
    U = _planted_violation(F, U1)
    vf = is_h_scattered_fast(U, 2)
    S = [tuple(F.from_hex(h) for h in row) for row in vf.witness["basis"]]
    # extend the span of S to a 2-dim subspace: its weight exceeds 2
    gens = list(S)
    for e in range(4):
        if fqm_span_dim(F, gens) == 2:
            break
        probe = tuple(1 if k == e else 0 for k in range(4))
        if fqm_span_dim(F, gens + [probe]) == fqm_span_dim(F, gens) + 1:
            gens.append(probe)
    H = FqmSubspace.span(F, 4, gens)
    assert H.dim == 2
    assert weight(U, H) >= 3
    # oracle side: its witness contains a 3-dim F_q-subspace of span <= 2
    vo = is_h_scattered_oracle(U, 2)
    assert not vo.ok
    Hrows = [tuple(F.from_hex(h) for h in row) for row in vo.witness["rref"]]
    Ho = FqmSubspace.span(F, 4, Hrows)
    assert weight(U, Ho) == vo.witness["weight"] >= 3
    # intersect to pull back a fast-style witness
    from qscat.linalg import intersect_fq

    gens2 = []
    for row in Ho.rows:
        for j in range(6):
            gens2.append(vec_scale(F, 1 << j, row))
    inter = intersect_fq(U, FqSubspace.span(F, 4, gens2))
    assert inter.dim_q >= 3
    assert fqm_span_dim(F, inter.basis) <= 2


def test_oracle_degenerate_order(F, U1):
    """At order >= r = 4 there is no proper order-dim subspace to test:
    both tests refuse the order, in either mode, instead of certifying it."""
    for test in (is_h_scattered_oracle, is_h_scattered_fast):
        for order in (4, 7):
            with pytest.raises(ConfigError, match="order"):
                test(U1, order)
            with pytest.raises(ConfigError, match="order"):
                test(U1, order, mode="sampled", samples=10, seed=1)


def test_sampled_oracle_order_zero(U1):
    """Order 0 has one (empty) minor per sample; every sample is kept."""
    v = is_h_scattered_oracle(U1, 0, mode="sampled", samples=10, seed=1)
    assert v.ok and v.checked_count == 10


def test_oracle_exhaustive_small_orders(F, U1):
    v1 = is_h_scattered_oracle(U1, 1, workers=1)
    assert v1.ok and v1.checked_count == 266_305
    assert v1.details["max_weight"] == 1
    for workers in (2, 3):
        assert is_h_scattered_oracle(U1, 1, workers=workers).to_json() == v1.to_json()


def test_fast_worker_determinism(F, U1):
    a = is_h_scattered_fast(U1, 2, workers=1)
    b = is_h_scattered_fast(U1, 2, workers=2)
    assert a.to_json() == b.to_json()


def test_sampled_modes_q8(F8):
    U8 = build_Us(F8, 1)
    assert U8.dim_q == 8
    vf = is_h_scattered_fast(U8, 2, mode="sampled", samples=300, seed=42)
    assert vf.ok and vf.mode == "sampled" and vf.checked_count == 300
    vo = is_h_scattered_oracle(U8, 2, mode="sampled", samples=100, seed=42)
    assert vo.ok and vo.mode == "sampled"
    with pytest.raises(WorkLimitExceeded):
        is_h_scattered_fast(U8, 2)
    with pytest.raises(WorkLimitExceeded):
        is_h_scattered_oracle(U8, 2)
    with pytest.raises(ValueError):
        is_h_scattered_fast(U8, 2, mode="sampled")


@pytest.mark.parametrize("test", [is_h_scattered_fast, is_h_scattered_oracle])
def test_sampled_seed_out_of_range(U1, test):
    """The generator keeps a seed mod 2^64; the library rejects a seed it
    would replay under another name instead of certifying it."""
    for seed in (-7, 1 << 64):
        with pytest.raises(ConfigError, match="seed"):
            test(U1, 2, mode="sampled", samples=10, seed=seed)
    for seed in (0, (1 << 64) - 1):
        v = test(U1, 2, mode="sampled", samples=10, seed=seed)
        assert v.details["seed"] == seed


@pytest.mark.parametrize("test", [is_h_scattered_fast, is_h_scattered_oracle])
def test_unknown_mode_is_config_error(U1, test):
    """An unknown mode names no scan: neither a degenerate ok verdict
    labelled with it nor a silent exhaustive run."""
    for order in (1, 4):
        with pytest.raises(ConfigError, match="bogus"):
            test(U1, order, mode="bogus")


@pytest.mark.parametrize("call, error", [
    pytest.param(lambda U: is_h_scattered_fast(U, 8), ConfigError, id="fast-order-8"),
    pytest.param(lambda U: is_h_scattered_fast(U, -1), ConfigError, id="fast-order-minus-1"),
    pytest.param(
        lambda U: is_h_scattered_fast(U, 8, mode="sampled", samples=10, seed=1),
        ConfigError, id="sampled-fast-order-8",
    ),
    pytest.param(lambda U: is_h_scattered_oracle(U, -1), ConfigError, id="oracle-order-minus-1"),
    pytest.param(lambda U: weight_spectrum(U, -1), ValueError, id="spectrum-codim-minus-1"),
    pytest.param(
        lambda U: is_h_scattered_fast(U, 2, mode="sampled", samples=0, seed=1),
        ConfigError, id="sampled-fast-no-samples",
    ),
    pytest.param(
        lambda U: is_h_scattered_oracle(U, 2, mode="sampled", samples=-5, seed=1),
        ConfigError, id="sampled-oracle-negative-samples",
    ),
])
def test_vacuous_or_invalid_parameters_are_rejected(U1, call, error):
    """An order, codim or sample count that leaves nothing to scan (no
    9-dim subspace of the 8-dim U_1, no negative dimension, no sample) is
    an error, not an ok verdict with nothing checked, nor a sampled run
    that can keep no sample."""
    with pytest.raises(error, match="order|codim|samples"):
        call(U1)


def test_agreement_seed_and_count_ranges(F, monkeypatch):
    """Sample i of seed s draws from the stream of (s << 20) ^ i, so seeds
    past 2^44 or counts past 2^20 would reuse streams."""
    run = scatter.run_partitioned

    def no_scan(*args):
        raise AssertionError("an out-of-range call started its scan")

    monkeypatch.setattr(scatter, "run_partitioned", no_scan)
    for seed in (-1, 1 << 44):
        with pytest.raises(ConfigError, match="seed"):
            fast_oracle_agreement(F, 1, seed)
    with pytest.raises(ConfigError, match="count"):
        fast_oracle_agreement(F, (1 << 20) + 1, 0)
    monkeypatch.setattr(scatter, "run_partitioned", run)
    mismatches, rows = fast_oracle_agreement(F, 1, (1 << 44) - 1, orders=(1,))
    assert mismatches == [] and [r["index"] for r in rows] == [0]


def test_every_error_survives_pickle():
    """A fork pool pickles a worker's exception back to the parent, which
    rebuilds it as cls(*args); one that cannot be rebuilt kills the pool's
    result thread and the parent waits forever."""
    import inspect
    import pickle

    from qscat import errors

    classes = [
        c for _, c in inspect.getmembers(errors, inspect.isclass)
        if issubclass(c, errors.QscatError)
    ]
    assert WorkLimitExceeded in classes
    for cls in classes:
        exc = cls(7, 5) if cls is WorkLimitExceeded else cls("boom")
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls and str(back) == str(exc) and back.args == exc.args
    back = pickle.loads(pickle.dumps(WorkLimitExceeded(7, 5)))
    assert (back.estimate, back.budget) == (7, 5)
    assert str(back) == "work estimate 7 exceeds budget 5"


def test_budget_error_in_a_fork_worker_reaches_the_caller():
    """The exhaustive q = 8 scans of the agreement suite are past the
    budget: at two workers the WorkLimitExceeded comes back from the pool
    as it does in process, and the call does not hang."""
    code = (
        "from qscat.errors import WorkLimitExceeded\n"
        "from qscat.field import default_field\n"
        "from qscat.scatter import fast_oracle_agreement\n"
        "try:\n"
        "    fast_oracle_agreement(default_field(3), 2, seed=1, orders=(1,), workers=2)\n"
        "except WorkLimitExceeded as exc:\n"
        "    print('raised:', exc)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised: work estimate ")


def test_scans_fork_no_more_workers_than_chunks(F, U1, monkeypatch):
    """exhaustive_scan asks run_partitioned for at most one worker per
    chunk: the 255-position d = 1 span scan runs in process at any worker
    count, and the 266,305 hyperplanes (17 chunks) keep their workers."""
    from qscat import gfbatch

    counts = [gfbatch.chunk_count(n) for n in (0, 255, 4096, 4097, 266_305)]
    assert counts == [0, 1, 1, 1, 17]
    run, asked = scatter.run_partitioned, []

    def recording(fn, args, workers):
        asked.append(workers)
        return run(fn, args, workers)

    monkeypatch.setattr(scatter, "run_partitioned", recording)
    one = scatter.exhaustive_scan(U1, 1, gfbatch.FqSpanScanner, 1)
    assert scatter.exhaustive_scan(U1, 1, gfbatch.FqSpanScanner, 3) == one
    scatter.exhaustive_scan(U1, 3, gfbatch.DualCodimScanner, 2)
    assert asked == [1, 1, 2]


def _bincount_dispatch(values, d, workers, lo, hi, nb):
    """(first, hist, inside) as a dispatcher with a full bincount and bound
    mask on every chunk takes them: each worker counts its chunks up to
    and including its first one with a value outside [lo, hi]; inside
    says that the first such value is neither a chunk's first nor last."""
    firsts, hist = [], np.zeros(nb + 1, dtype=np.int64)
    for w in range(workers):
        for pos, v in values(d, start=w, stride=workers):
            hist += np.bincount(v, minlength=nb + 1)
            bad = (v < lo) | (v > hi)
            if bad.any():
                i = int(np.argmax(bad))
                firsts.append((int(np.asarray(pos)[i]), int(v[i]), 0 < i < len(v) - 1))
                break
    first = min(firsts) if firsts else None
    return first and first[:2], hist.tolist(), first and first[2]


@pytest.mark.parametrize("which, engine, d, lo, hi", [
    ("U1", "DualCodimScanner", 1, 0, 0),  # linear_set; first weight 1 at 901
    ("U_planted", "DualCodimScanner", 1, 1, 8),  # linear_set; a point of weight 3
    ("random-3-8", "DualCodimScanner", 1, 0, 1),  # linear_set at r = 3
    ("U_G", "DualCodimScanner", 2, 0, 1),  # lines (of F_64^3), the tile loop
    ("U_G", "CodewordScanner", 2, 0, 1),
    ("U_planted", "FqSpanScanner", 3, 0, 2),  # the first span 3 at 34
])
def test_exhaustive_scan_matches_a_bincount_reference(F, which, engine, d, lo, hi, request,
                                                  monkeypatch):
    """exhaustive_scan's (first, hist) equals _bincount_dispatch's on the
    values the engine yields, complete (no bounds) and refuted (bounds
    [lo, hi], the first value outside them inside a chunk), at chunks of
    1,000 and SCAN_CHUNK positions and 1-3 workers."""
    from qscat import gfbatch

    if which.startswith("random"):
        r, nb = map(int, which.split("-")[1:])
        U = random_fq_subspace(F, r, nb, XorShift64Star(r * nb))
    else:
        U = request.getfixturevalue(which)
    engine = getattr(gfbatch, engine)
    name = "iter_span_dims" if engine is gfbatch.FqSpanScanner else "iter_weights"
    real = getattr(engine, name)
    scanner = engine(gfbatch.Gf64Tables(F), U.basis)
    # exhaustive_scan counts SCAN_CHUNK chunks whatever the iterators cut
    chunks = gfbatch.chunk_count(engine.enumerator(U.r, U.dim_q, d).total)
    for chunk in (1000, gfbatch.SCAN_CHUNK):

        def chunked(self, d, start=0, stride=1, chunk=chunk):
            return real(self, d, start, stride, chunk)

        monkeypatch.setattr(engine, name, chunked)
        values = getattr(scanner, name)
        _, whole, _ = _bincount_dispatch(values, d, 1, 0, U.dim_q, U.dim_q)
        for workers in (1, 2, 3):
            first, hist = scatter.exhaustive_scan(U, d, engine, workers)
            assert first is None and hist == whole, (chunk, workers)
            # exhaustive_scan runs min(workers, chunks) workers
            expect, ref, inside = _bincount_dispatch(
                values, d, min(workers, chunks), lo, hi, U.dim_q
            )
            first, hist = scatter.exhaustive_scan(U, d, engine, workers, lo=lo, hi=hi)
            assert inside and first[:2] == expect and hist == ref, (chunk, workers)


@pytest.mark.parametrize("value", [-1, 9])
def test_scan_value_outside_0_to_nb_is_an_invariant_violation(U1, monkeypatch, value):
    """No weight of U_1 (nb = 8) is below 0 or above 8: an engine that
    yields one is an internal error, not a refutation or a histogram."""
    from qscat import gfbatch
    from qscat.errors import InvariantViolation

    real = gfbatch.DualCodimScanner.iter_weights

    def broken(self, d, *args, **kwargs):
        for pos, w in real(self, d, *args, **kwargs):
            w = w.copy()
            w[len(w) // 2] = value
            yield pos, w

    monkeypatch.setattr(gfbatch.DualCodimScanner, "iter_weights", broken)
    with pytest.raises(InvariantViolation, match="outside 0..8"):
        scatter.exhaustive_scan(U1, 1, gfbatch.DualCodimScanner, 1)


def test_gl_invariance_of_verdict(F, U1):
    rng = XorShift64Star(21)
    A = random_invertible(F, 4, rng)
    assert is_h_scattered_fast(apply_gl(A, U1), 2).ok


def test_frobenius_fixed_and_parity(F, U1):
    assert frobenius_fixed(U1)
    rng = XorShift64Star(22)
    for _ in range(100):
        H = random_frobenius_fixed(F, 4, rng.randrange(3) + 1, rng)
        assert frobenius_fixed(H)
        assert weight(U1, H) % 2 == 0
    # a random 2-dim subspace is moved by the Frobenius
    assert not frobenius_fixed(random_fqm_subspace(F, 4, 2, rng))


def test_fixed_3dim_exhaustive(F, U1):
    subs = list(enumerate_frobenius_fixed(F, 4, 3))
    assert len(subs) == gaussian_binomial(4, 3, 4) == 85
    assert len(set(subs)) == 85
    for H in subs:
        w = weight(U1, H)
        assert w % 2 == 0 and w <= 4


def test_weight_spectrum_small_codims(F, U1):
    assert weight_spectrum(U1, 4) == {0: 1}
    pts = weight_spectrum(U1, 3, workers=2)
    assert pts == {0: 266_050, 1: 255}
    fixed = weight_spectrum(U1, 1, frobenius_fixed_only=True)
    assert sum(fixed.values()) == 85
    assert max(fixed) <= 4
    assert all(w % 2 == 0 for w in fixed)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_weight_spectrum_whole_space_and_zero_subspace(F, F8, r, workers):
    """Codim 0 is the whole space, which holds all of U; codim r is the
    zero subspace, which meets U in 0.  At r = 2 the whole space is a
    line with no free column.  Neither needs a scan, so both hold at
    q = 8 too, where exhaustive scans are refused."""
    for field in (F, F8):
        U = random_fq_subspace(field, r, 4, XorShift64Star(3))
        assert weight_spectrum(U, 0, workers=workers) == {U.dim_q: 1}
        assert weight_spectrum(U, r, workers=workers) == {0: 1}
        fixed = weight_spectrum(U, 0, frobenius_fixed_only=True, workers=workers)
        assert fixed == {U.dim_q: 1}


def test_semilinear_zero_coefficients(F, U1):
    sys0 = semilinear_system(F, 0, 0, 0, 0)
    n = count_solutions(sys0)
    # the kernel is (T ∩ F_{q^3}) x {its q-th powers}: exactly q^2 pairs
    assert n == 4 <= F.q**2
    for u, v in solutions(sys0):
        assert F.frob(u, 2) ^ F.frob(v, 1) == 0
        assert F.frob(u, 1) ^ F.frob(v, 3) == 0


def test_nullity_q2_is_the_f2_nullity(F):
    """At q = 2 the nullity is 8 minus the GF(2) rank of the images packed
    as F1 | F2 << e (the old F_2 form)."""
    rng = XorShift64Star(2025)
    tuples = [(0, 0, 0, 0)]
    tuples += [tuple(F.random_element(rng) for _ in range(4)) for _ in range(200)]
    seen = set()
    for a, b, c, d in tuples:
        sysm = semilinear_system(F, a, b, c, d)
        bit_rows = [
            F.elem_bits(f1) | F.elem_bits(f2) << F.e for f1, f2 in sysm.images
        ]
        assert sysm.nullity_q() == 8 - gf2.rank_bits(bit_rows)
        seen.add(sysm.nullity_q())
    assert seen == {0, 1, 2}


def test_nullity_q8_matches_the_fq_kernel(F8):
    """At q = 8 the F_2-rank form of the nullity equals the F_q-kernel of the
    images' F_q-coordinates, and solutions() finds q^nullity pairs."""
    rng = XorShift64Star(2026)
    tuples = [(0, 0, 0, 0)]
    tuples += [tuple(F8.random_element(rng) for _ in range(4)) for _ in range(5)]
    for a, b, c, d in tuples:
        sysm = semilinear_system(F8, a, b, c, d)
        coord_rows = [
            list(F8.fq_coords(f1)) + list(F8.fq_coords(f2)) for f1, f2 in sysm.images
        ]
        assert sysm.nullity_q() == len(left_kernel_fq(F8, coord_rows))
        assert len(solutions(sysm)) == count_solutions(sysm)
    assert semilinear_system(F8, 0, 0, 0, 0).nullity_q() == 2


def test_semilinear_random_tuples(F, U1):
    rng = XorShift64Star(2024)
    frob, mul = F.frob, F.mul

    def form(x, y):
        """x y + x^(q^2) y^(q^2) + x^(q^4) y + x^(q^4) y^(q^2): λ(u) is
        form(a, u), μ(u) is form(c, u), and the v-side sum is form(b, v)."""
        return (
            mul(x, y)
            ^ mul(frob(x, 2), frob(y, 2))
            ^ mul(frob(x, 4), y)
            ^ mul(frob(x, 4), frob(y, 2))
        )

    buckets = {}
    for i in range(500):
        a, b, c, d = (F.random_element(rng) for _ in range(4))
        sysm = semilinear_system(F, a, b, c, d)
        n = count_solutions(sysm)
        buckets[sysm.case] = buckets.get(sysm.case, 0) + 1
        assert n >= 1  # (0, 0) always solves
        assert n <= F.q**2
        W = retta4_subspace(F, a, b, c, d)
        assert n == F.q ** weight(U1, W)
        if i < 25:
            for u, v in solutions(sysm):
                assert F.rel_trace(u) == 0 and F.rel_trace(v) == 0
                f1 = F.mul(a, u) ^ F.mul(b, v) ^ F.frob(u, 2) ^ F.frob(v, 1)
                f2 = F.mul(c, u) ^ F.mul(d, v) ^ F.frob(u, 1) ^ F.frob(v, 3)
                assert f1 == 0 and f2 == 0
                lam, mu = form(a, u), form(c, u)
                assert F.in_subfield(lam, 2) and F.in_subfield(mu, 2)
                # the v-side sum telescopes to the same invariants
                assert form(b, v) == lam
    assert len(buckets) == 5  # every case class is exercised


def test_semilinear_alpha_beta_in_fq2(F):
    rng = XorShift64Star(23)
    for _ in range(100):
        a, b, c, d = (F.random_element(rng) for _ in range(4))
        sysm = semilinear_system(F, a, b, c, d)
        assert F.in_subfield(sysm.alpha, 2)
        assert F.in_subfield(sysm.beta, 2)


def test_max_dim_bound_examples():
    mb = max_dim_bound(4, 6, 2)
    assert mb.value == 8 and mb.exact and not mb.degenerate
    mb3 = max_dim_bound(3, 6, 2)
    assert mb3.value == 6 and mb3.exact
    mb0 = max_dim_bound(4, 6, 0)
    assert mb0.value == 24 and mb0.degenerate
    assert not max_dim_bound(4, 6, 4).exact


def test_not_spanning_rejected(F):
    T = F.trace_kernel_basis()
    flat = FqSubspace.span(
        F, 4, [(t, 0, 0, 0) for t in T] + [(0, t, 0, 0) for t in T]
    )
    v = is_h_scattered_fast(flat, 2)
    assert not v.ok and v.witness["kind"] == "not_spanning"
    vo = is_h_scattered_oracle(flat, 2)
    assert not vo.ok


@pytest.mark.parametrize("workers", [1, 2])
def test_random_subspace_first_line_witness(F, workers):
    """The oracle's first witness on a refuted random U: position, weight
    and line are fixed numbers, the same as with the rank_batch line
    weights of earlier versions."""
    U = random_fq_subspace(F, 4, 8, XorShift64Star(6))
    v = is_h_scattered_oracle(U, 2, workers=workers)
    assert not v.ok
    assert v.checked_count == 4_293_778
    assert v.witness["position"] == 4_293_777
    assert v.witness["weight"] == 3
    assert v.witness["rref"] == [["10", "00", "01", "81"], ["00", "10", "21", "11"]]
    # at order 1 the same U is scattered, with the full point histogram
    v1 = is_h_scattered_oracle(U, 1, workers=workers)
    assert v1.ok and v1.checked_count == 266_305
    assert v1.details["weight_hist"] == {"0": 266_050, "1": 255}


def test_complete_histograms_count_every_incidence(F, U1):
    """sum_H (q^w(H) - 1) = (q^8 - 1) [3, d-1]_64 for every complete scan."""
    for codim, expected in ((1, 1_061_055), (2, 1_061_055), (3, 255)):
        d = 4 - codim
        assert expected == 255 * gaussian_binomial(3, d - 1, 64)
        spec = weight_spectrum(U1, codim, workers=2)
        assert sum((2**w - 1) * c for w, c in spec.items()) == expected


def test_corrupted_histogram_raises(F, U1, monkeypatch):
    """A point histogram that misses an incidence is a ClosedFormMismatch."""
    from qscat import gfbatch
    from qscat.errors import ClosedFormMismatch

    real = gfbatch.DualCodimScanner.iter_weights
    hits = []

    def corrupted(self, d, *args, **kwargs):
        for pos, w in real(self, d, *args, **kwargs):
            if 0 in pos:
                w = w.copy()
                at = np.asarray(pos) == 0
                w[at] += 1  # one point too heavy
                hits.append(int(at.sum()))
            yield pos, w

    monkeypatch.setattr(gfbatch.DualCodimScanner, "iter_weights", corrupted)
    with pytest.raises(ClosedFormMismatch):
        weight_spectrum(U1, 3)
    assert hits == [1]  # the fault hit exactly one position


def test_r3_u_g_is_2_scattered(U_G):
    """The r = 3 system U_G is certified 2-scattered by both exhaustive
    tests, its line histogram counts every incidence, and only the PG(3, 64)
    linear set and an ambient past the int64 packing are config errors."""
    from qscat.gfbatch import FqSpanScanner, check_scan_shape
    from qscat.saturate import linear_set_points

    assert (U_G.r, U_G.dim_q) == (3, 6)
    fast = is_h_scattered_fast(U_G, 2)
    assert fast.ok and fast.checked_count == 1_395 == gaussian_binomial(6, 3, 2)
    oracle = is_h_scattered_oracle(U_G, 2)
    assert oracle.ok and oracle.checked_count == 4_161
    hist = {0: 1368, 1: 2142, 2: 651}
    assert oracle.details["weight_hist"] == {str(w): c for w, c in hist.items()}
    # each nonzero u of U_G lies on the 65 lines of F_64^3 through it
    assert 2142 + 3 * 651 == 63 * 65
    assert weight_spectrum(U_G, 1) == hist
    with pytest.raises(ConfigError, match="r = 3"):
        linear_set_points(U_G)
    with pytest.raises(ConfigError, match="r = 11"):
        check_scan_shape(FqSpanScanner, U_G.field, 11, U_G.dim_q)


def test_q8_exhaustive_is_config_error(F8):
    """Past the work budget, an exhaustive q = 8 scan is a ConfigError
    naming q: there is no scalar scan to fall into."""
    U8 = build_Us(F8, 1)
    with pytest.raises(ConfigError, match="q = 8"):
        is_h_scattered_fast(U8, 2, budget=10**30)
    with pytest.raises(ConfigError, match="q = 8"):
        is_h_scattered_oracle(U8, 2, budget=10**30)
    with pytest.raises(ConfigError, match="q = 8"):
        weight_spectrum(U8, 1, budget=10**30)


# the exhaustive witnesses of two seeded random subspaces, refuted at
# orders 1 and 2: (position, basis or RREF, fqm_span_dim or weight)
_PINNED_WITNESSES = {
    (7, "fast", 1): (9_063, [["a3", "40", "51", "40"], ["42", "f3", "73", "f3"]], 1),
    (7, "fast", 2): (
        436,
        [["10", "93", "c1", "22"], ["23", "c0", "02", "f2"], ["c2", "91", "12", "23"]],
        2,
    ),
    (7, "oracle", 1): (94_423, [["10", "71", "30", "71"]], 2),
    (16, "fast", 1): (4_326, [["12", "f3", "11", "a2"], ["42", "71", "70", "a1"]], 1),
    (16, "fast", 2): (
        2_887,
        [["10", "31", "e0", "e0"], ["a1", "31", "f0", "e2"], ["42", "73", "93", "d0"]],
        2,
    ),
    (16, "oracle", 1): (34_873, [["10", "80", "02", "93"]], 2),
}


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("key", sorted(_PINNED_WITNESSES), ids=str)
def test_exhaustive_witnesses_are_pinned(F, key, workers):
    """The first refuting subspace of each exhaustive scan, decoded and
    re-checked, is a fixed object at every worker count."""
    seed, side, order = key
    position, rows, value = _PINNED_WITNESSES[key]
    U = random_fq_subspace(F, 4, 8, XorShift64Star(seed))
    test = is_h_scattered_fast if side == "fast" else is_h_scattered_oracle
    v = test(U, order, workers=workers)
    assert not v.ok and v.checked_count == position + 1
    assert v.witness["position"] == position
    if side == "fast":
        assert v.witness["basis"] == rows and v.witness["fqm_span_dim"] == value
    else:
        assert v.witness["rref"] == rows and v.witness["weight"] == value


def test_false_low_span_is_an_invariant_violation(U1, monkeypatch, capsys):
    """A scanner that reports a span below the true one is caught by the
    scalar re-check of the witness: an internal error, never a refutation."""
    from qscat import cli, gfbatch
    from qscat.errors import InvariantViolation

    real = gfbatch.FqSpanScanner.iter_span_dims
    hits = []

    def lying(self, d, *args, **kwargs):
        for pos, spans in real(self, d, *args, **kwargs):
            if 5 in pos:
                spans = spans.copy()
                at = np.asarray(pos) == 5
                spans[at] = d - 1
                hits.append(int(at.sum()))
            yield pos, spans

    monkeypatch.setattr(gfbatch.FqSpanScanner, "iter_span_dims", lying)
    with pytest.raises(InvariantViolation):
        is_h_scattered_fast(U1, 2)
    assert hits == [1]  # the fault hit exactly one position
    assert cli.main(["verify-scattered", "--order", "2", "--oracle", "off"]) == 3
    assert capsys.readouterr().out == ""
    assert hits == [1, 1]
