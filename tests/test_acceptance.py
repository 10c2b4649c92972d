"""Acceptance suite: one test per criterion, exact values, stated budgets.

Heavy exhaustive scans run once as module fixtures and are shared
between criteria.  Each test prints a single PASS line (visible with
pytest -s) on top of the usual pytest verdict.
"""

import json
import time

import pytest

from qscat import cli
from qscat.dual import (
    dual_closed_form_1,
    dual_closed_form_2,
    dual_from_scene,
    build_scene,
    verify_dual_equivalence,
)
from qscat.linalg import (
    apply_gl,
    det,
    gaussian_binomial,
    moore_matrix,
    weight,
)
from qscat.rankcode import classify
from qscat.rng import XorShift64Star
from qscat.saturate import linear_set_points
from qscat.scatter import (
    SEC2_EQUIV_MATRIX,
    build_U5prime,
    build_Us,
    count_solutions,
    enumerate_frobenius_fixed,
    fast_oracle_agreement,
    is_h_scattered_fast,
    is_h_scattered_oracle,
    max_dim_bound,
    random_frobenius_fixed,
    random_invertible,
    random_fqm_subspace,
    retta4_subspace,
    semilinear_system,
    weight_spectrum,
)

WORKERS = 2


@pytest.fixture(scope="module")
def line_verdict(U1):
    t0 = time.time()
    v = is_h_scattered_oracle(U1, 2, workers=WORKERS)
    return v, time.time() - t0


@pytest.fixture(scope="module")
def hyper_spec(U1):
    t0 = time.time()
    spec = weight_spectrum(U1, 1, workers=WORKERS)
    return spec, time.time() - t0


@pytest.fixture(scope="module")
def profile(code):
    return classify(code, workers=WORKERS)


def test_criterion_01_fast_certification(F, U1, capsys):
    """Fast mode: all 97,155 + 10,795 subspaces, zero violations, <= 10 s."""
    t0 = time.time()
    v2 = is_h_scattered_fast(U1, 2, workers=WORKERS)
    v1 = is_h_scattered_fast(U1, 1, workers=WORKERS)
    elapsed = time.time() - t0
    assert v2.ok and v2.witness is None
    assert v2.checked_count == 97_155 == gaussian_binomial(8, 3, 2)
    assert v1.ok and v1.witness is None
    assert v1.checked_count == 10_795 == gaussian_binomial(8, 2, 2)
    assert elapsed <= 10.0
    rc = cli.main(["verify-scattered", "--order", "2", "--oracle", "off"])
    cert = json.loads(capsys.readouterr().out)
    assert rc == 0 and cert["result"]["fast"]["checked_count"] == 97_155
    print("ACCEPTANCE 1 PASS: fast certification, %d + %d subspaces in %.1fs"
          % (v2.checked_count, v1.checked_count, elapsed))


def test_criterion_02_oracle_line_scan(U1, line_verdict):
    """Exhaustive scan of all 17,047,617 lines: max weight 2, <= 10 min."""
    v, elapsed = line_verdict
    assert v.ok and v.mode == "exhaustive"
    assert v.checked_count == 17_047_617 == gaussian_binomial(4, 2, 64)
    assert v.details["max_weight"] == 2
    hist = {int(w): c for w, c in v.details["weight_hist"].items()}
    assert set(hist) <= {0, 1, 2}
    assert sum(hist.values()) == 17_047_617
    fast = is_h_scattered_fast(U1, 2, workers=WORKERS)
    assert fast.ok == v.ok
    assert elapsed <= 600.0
    print("ACCEPTANCE 2 PASS: %d lines, max weight %d, %.1fs"
          % (v.checked_count, v.details["max_weight"], elapsed))


def test_criterion_03_hyperplane_spectrum(hyper_spec):
    """All 266,305 hyperplane weights lie in {2, 3, 4}, max exactly 4."""
    spec, elapsed = hyper_spec
    assert set(spec) <= {2, 3, 4}
    assert max(spec) == 4
    assert sum(spec.values()) == 266_305
    assert elapsed <= 60.0
    print("ACCEPTANCE 3 PASS: hyperplane spectrum %s in %.1fs" % (spec, elapsed))


def test_criterion_04_code_profile(profile, hyper_spec, line_verdict):
    """[8,4,4] near-MRD profile with exact generalized weights."""
    p = profile
    assert (p["n"], p["k"], p["m"]) == (8, 4, 6)
    assert p["d"] == 4
    assert p["checks"]["d_codeword_scan"] == 4
    assert p["checks"]["d_hyperplane_scan"] == 4
    assert p["d_rho"] == [4, 6, 7, 8]
    # independent oracle for d_2 from the exhaustive line scan
    v, _ = line_verdict
    assert 8 - v.details["max_weight"] == 6 == p["d_rho"][1]
    assert p["checks"]["d_1_subspace_scan"] == 4
    assert p["checks"]["d_3_subspace_scan"] == 7
    assert p["checks"]["d_4_subspace_scan"] == 8
    # Singleton equality mk = 24 = n(m - d + 1)
    assert 6 * 4 == 24 == 8 * (6 - 4 + 1)
    assert p["singleton_ok"] and p["is_mrd"]
    assert p["rho_mrd"] == [False, True, True, True]
    assert p["near_mrd"]
    # weight distribution matches the hyperplane spectrum correspondence
    spec, _ = hyper_spec
    assert p["spectrum"] == {str(8 - w): 63 * c for w, c in spec.items()}
    assert sum(p["spectrum"].values()) == 64**4 - 1
    print("ACCEPTANCE 4 PASS: d=4 (both algorithms), d_rho=%s, near_mrd=%s"
          % (p["d_rho"], p["near_mrd"]))


def test_criterion_05_equivalences(F, U1):
    """Section-2 matrix equivalence, dual closed forms, dual scatteredness."""
    U5p = build_U5prime(F)
    assert apply_gl(SEC2_EQUIV_MATRIX, U5p) == U1
    assert U5p != U1
    verdict = verify_dual_equivalence(F)
    assert verdict.ok
    scene = build_scene(F)
    dual = dual_from_scene(scene)
    assert dual == dual_closed_form_1(F)
    assert dual == dual_closed_form_2(F)
    fast = is_h_scattered_fast(dual, 2, workers=WORKERS)
    assert fast.ok and fast.checked_count == 97_155
    assert dual.dim_q == max_dim_bound(4, 6, 2).value
    print("ACCEPTANCE 5 PASS: GL equivalences and dual closed forms exact")


def test_criterion_06_parity_lemma(F, U1):
    """Frobenius-fixed subspaces have even weight; fixed 3-dim <= 4."""
    rng = XorShift64Star(606)
    for i in range(1000):
        H = random_frobenius_fixed(F, 4, (i % 3) + 1, rng)
        w = weight(U1, H)
        assert w % 2 == 0, (H.rows, w)
    count = 0
    for H in enumerate_frobenius_fixed(F, 4, 3):
        w = weight(U1, H)
        assert w % 2 == 0 and w <= 4
        count += 1
    assert count == 85
    print("ACCEPTANCE 6 PASS: 1000 random fixed subspaces even; all %d fixed "
          "3-dim have weight <= 4" % count)


def test_criterion_07_semilinear_bound(F, U1):
    """10^4 random coefficient tuples: <= q^2 solutions, matching weights."""
    rng = XorShift64Star(707)
    buckets = {}
    for _ in range(10_000):
        a, b, c, d = (F.random_element(rng) for _ in range(4))
        sysm = semilinear_system(F, a, b, c, d)
        n = count_solutions(sysm)
        buckets[sysm.case] = buckets.get(sysm.case, 0) + 1
        assert n <= 4
        W = retta4_subspace(F, a, b, c, d)
        assert n == 2 ** weight(U1, W)
    assert len(buckets) == 5, buckets
    print("ACCEPTANCE 7 PASS: 10^4 tuples, count <= 4, buckets %s"
          % json.dumps(buckets, sort_keys=True))


def test_criterion_08_saturation(F, U1, capsys):
    """L(U) is 2-saturating: all 266,305 points covered, <= 15 min."""
    S = linear_set_points(U1)
    assert len(S) == 255
    t0 = time.time()
    rc = cli.main(["saturating", "--rho", "2", "--workers", str(WORKERS)])
    elapsed = time.time() - t0
    cert = json.loads(capsys.readouterr().out)
    assert rc == 0
    res = cert["result"]
    assert res["linear_set_size"] == 255
    assert res["ambient_points"] == 266_305
    v = res["verdict"]
    assert v["ok"] and v["witness"] is None
    assert v["details"]["covered_points"] == 266_305
    assert v["checked_count"] == 2_731_135  # C(255, 3) subset spans
    assert elapsed <= 900.0
    print("ACCEPTANCE 8 PASS: |S|=%d, 2-saturating over %d points in %.1fs"
          % (len(S), res["ambient_points"], elapsed))


def test_criterion_09_sampled_evidence_q8(F8):
    """q = 8 sampled evidence only: 10^5 subspaces and 10^5 lines clean."""
    U8 = build_Us(F8, 1)
    vf = is_h_scattered_fast(U8, 2, mode="sampled", samples=100_000, seed=42)
    assert vf.ok and vf.mode == "sampled"
    assert vf.checked_count == 100_000
    vo = is_h_scattered_oracle(U8, 2, mode="sampled", samples=100_000, seed=43)
    assert vo.ok and vo.mode == "sampled"
    assert vo.checked_count == 100_000
    print("ACCEPTANCE 9 PASS: q=8 sampled evidence, 2x100000 samples, "
          "zero violations (mode=sampled)")


def _dependent_over_f2(ts):
    acc = {0}
    for t in ts:
        if t in acc:
            return True
        acc |= {v ^ t for v in acc}
    return False


def test_criterion_10_property_suites(F, F8, U1, capsys):
    """GL invariance, fast/oracle agreement, Moore, traces, determinism."""
    rng = XorShift64Star(1010)
    # GL-invariance of weights and of the fast verdict
    for _ in range(30):
        A = random_invertible(F, 4, rng)
        H = random_fqm_subspace(F, 4, rng.randrange(3) + 1, rng)
        assert weight(U1, H) == weight(apply_gl(A, U1), apply_gl(A, H))
    A = random_invertible(F, 4, rng)
    assert is_h_scattered_fast(apply_gl(A, U1), 2, workers=WORKERS).ok
    # fast/oracle agreement on 10^3 random 8-dim subspaces, orders 1 and 2
    mismatches, rows = fast_oracle_agreement(
        F, 1000, seed=1234, orders=(1, 2), workers=WORKERS
    )
    assert len(rows) == 1000
    assert not mismatches
    # Moore determinant vanishes iff the tuple is F_q-linearly dependent
    for _ in range(1000):
        ts = [F.random_element(rng) for _ in range(4)]
        assert (det(F, moore_matrix(F, ts)) == 0) == _dependent_over_f2(ts)
    # trace kernels have F_q-dimension 4 at q = 2 and q = 8
    assert len(F.trace_kernel_basis()) == 4
    assert len(F8.trace_kernel_basis()) == 4
    # certificates do not depend on the worker count
    certs = []
    for w in ("1", "4", "8"):
        rc = cli.main(["spectrum", "--codim", "1", "--workers", w])
        assert rc == 0
        cert = json.loads(capsys.readouterr().out)
        cert.pop("wall_time_s")
        certs.append(cert["result"])
    assert certs[0] == certs[1] == certs[2]
    print("ACCEPTANCE 10 PASS: property suites (agreement on 1000 subspaces, "
          "GL invariance, Moore, trace kernels, worker independence)")
