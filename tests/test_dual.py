import pytest

from qscat.dual import (
    DUAL_EQUIV_MATRIX,
    beta_form,
    build_scene,
    dual_closed_form_1,
    dual_closed_form_2,
    dual_from_scene,
    primal_closed_form,
    primal_from_scene,
    rearranged_dual,
    verify_dual_equivalence,
    w_vector,
)
from qscat.errors import ClosedFormMismatch, InvariantViolation, SingularMatrix
from qscat.linalg import apply_gl, det, fq_rank, fqm_span_dim, vec_scale, weight
from qscat.rng import XorShift64Star
from qscat.scatter import is_h_scattered_fast


def _trace_abs(F, z):
    out = 0
    for i in range(6):
        out ^= F.frob(z, i)
    return out


def _tvals(F):
    vals = [0]
    for t in F.trace_kernel_basis():
        vals += [v ^ t for v in vals]
    return vals


def test_scene_invariants(F):
    scene = build_scene(F)
    assert scene.W.dim_q == 8
    assert fqm_span_dim(F, scene.W.basis) == 8
    assert scene.Gamma.dim == 4
    assert scene.Gamma_perp.dim == 4
    assert weight(scene.W, scene.Gamma) == 0
    unit = [tuple(int(j == i) for j in range(8)) for i in range(8)]
    assert det(F, [[beta_form(F, x, y) for y in unit] for x in unit]) != 0
    # the displayed closed form of Gamma-perp
    assert scene.Gamma_perp.rows == (
        (1, 0, 0, 0, 0, 0, 0, 1),
        (0, 0, 0, 1, 0, 0, 1, 0),
        (0, 0, 0, 0, 1, 0, 0, 0),
        (0, 0, 0, 0, 0, 1, 0, 0),
    )


def test_beta_restriction_and_nondegeneracy(F):
    """On W x W the form evaluates to the absolute trace of xu + yv."""
    tv = _tvals(F)
    rng = XorShift64Star(31)
    for _ in range(1000):
        x, y, u, v = (tv[rng.randrange(16)] for _ in range(4))
        b = beta_form(F, w_vector(F, x, y), w_vector(F, u, v))
        assert b == _trace_abs(F, F.mul(x, u) ^ F.mul(y, v))
    basis_w = [w_vector(F, t, 0) for t in F.trace_kernel_basis()] + [
        w_vector(F, 0, t) for t in F.trace_kernel_basis()
    ]
    for x in tv:
        for y in tv:
            if x == 0 and y == 0:
                continue
            w = w_vector(F, x, y)
            assert any(beta_form(F, w, wb) for wb in basis_w)


def test_join_dimension(F):
    """<W, Gamma>_{F_q} is a direct sum: dim_q 8 + 24."""
    scene = build_scene(F)
    gamma_q = [vec_scale(F, 1 << j, row) for row in scene.Gamma.rows for j in range(6)]
    assert fq_rank(F, list(scene.W.basis) + gamma_q) == 32


def test_wrong_gamma_perp_closed_form_is_caught(F, F8, monkeypatch):
    """A closed form that is 4-dimensional but not beta-orthogonal to
    Gamma (Gamma-perp with e_0 for its first row) is an invariant failure."""
    from qscat import dual

    wrong = ((1, 0, 0, 0, 0, 0, 0, 0),) + dual._GAMMA_PERP_ROWS[1:]
    monkeypatch.setattr(dual, "_GAMMA_PERP_ROWS", wrong)
    for field in (F, F8):
        with pytest.raises(InvariantViolation, match="Gamma-perp"):
            build_scene(field)


def test_primal_from_scene(F, U1):
    scene = build_scene(F)
    primal = primal_from_scene(scene)
    assert primal.dim_q == 8
    assert primal == primal_closed_form(F)
    swap = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))
    assert apply_gl(swap, primal) == U1


def test_dual_from_scene(F):
    scene = build_scene(F)
    dual = dual_from_scene(scene)
    assert dual.dim_q == 8
    assert dual == dual_closed_form_1(F) == dual_closed_form_2(F)
    # the dual is itself maximum 2-scattered
    v = is_h_scattered_fast(dual, 2)
    assert v.ok and v.checked_count == 97_155


def test_dual_equivalence_verdict(F):
    v = verify_dual_equivalence(F)
    assert v.ok and v.checked_count == 8
    # the rearranged dual is a coordinate shuffle of the dual itself
    scene = build_scene(F)
    dual = dual_from_scene(scene)
    perm = ((0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1), (1, 0, 0, 0))
    assert apply_gl(perm, dual) == rearranged_dual(F)


def test_dual_equivalence_identity_fails(F, F8, monkeypatch):
    """The dual matrix is a constant of the paper: one that does not map
    U_1 onto the rearranged dual is a failed cross-check."""
    from qscat import dual

    ident = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    monkeypatch.setattr(dual, "DUAL_EQUIV_MATRIX", ident)
    for field in (F, F8):
        with pytest.raises(ClosedFormMismatch):
            verify_dual_equivalence(field)


def test_dual_equivalence_zero_matrix_fails(F, F8, monkeypatch):
    """apply_gl refuses the singular zero matrix before any comparison."""
    from qscat import dual

    monkeypatch.setattr(dual, "DUAL_EQUIV_MATRIX", ((0, 0, 0, 0),) * 4)
    for field in (F, F8):
        with pytest.raises(SingularMatrix):
            verify_dual_equivalence(field)


def test_scene_and_equivalence_q8(F8):
    scene = build_scene(F8)
    primal = primal_from_scene(scene)
    dual = dual_from_scene(scene)
    assert primal.dim_q == 8 and dual.dim_q == 8
    v = verify_dual_equivalence(F8)
    assert v.ok


def test_matrix_rows_frozen():
    assert DUAL_EQUIV_MATRIX == (
        (1, 1, 1, 0),
        (1, 1, 0, 1),
        (1, 1, 1, 1),
        (1, 0, 1, 0),
    )
