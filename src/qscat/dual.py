"""The explicit Delsarte-dual scene in Z = F_{q^6}^8.

V sits on coordinates 0-3; W embeds T x T via Frobenius towers; Gamma
complements V.  The bilinear form pairs coordinate i with i+4, and the
dual subspace is recovered as <W, Gamma-perp> ∩ Delta, projected back to
four coordinates.  Every construction step is verified against its
expected closed form.
"""

from dataclasses import dataclass

from .errors import ClosedFormMismatch, InvariantViolation
from .linalg import (
    FqSubspace,
    FqmSubspace,
    MatrixFqm,
    fqm_span_dim,
    intersect_fq,
    moore_matrix,
    null_space,
    vec_scale,
    weight,
)
from .scatter import Verdict

# GL(4, q^6) matrix carrying U_1 onto the rearranged dual (column action)
DUAL_EQUIV_MATRIX = ((1, 1, 1, 0), (1, 1, 0, 1), (1, 1, 1, 1), (1, 0, 1, 0))

_GAMMA_ROWS = (
    (0, 0, 1, 0, 0, 0, 0, 1),
    (0, 0, 0, 1, 1, 0, 0, 0),
    (0, 0, 0, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 0, 0, 1, 0),
)

_GAMMA_PERP_ROWS = (
    (1, 0, 0, 0, 0, 0, 0, 1),
    (0, 0, 0, 1, 0, 0, 1, 0),
    (0, 0, 0, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, 0, 1, 0, 0),
)


@dataclass
class DelsarteScene:
    field: object
    V_embed: FqmSubspace
    Delta: FqmSubspace
    W: FqSubspace
    Gamma: FqmSubspace
    beta_gram: MatrixFqm
    Gamma_perp: FqmSubspace


def beta_form(field, X, Y):
    """X0Y4 + X4Y0 + X1Y5 + X5Y1 + X2Y6 + X6Y2 + X3Y7 + X7Y3."""
    out = 0
    for i in range(4):
        out ^= field.mul(X[i], Y[i + 4]) ^ field.mul(X[i + 4], Y[i])
    return out


def w_vector(field, x, y):
    """(x, y, x^q, y^q, x^(q^2), y^(q^2), x^(q^3), y^(q^3))."""
    return (
        x,
        y,
        field.frob(x, 1),
        field.frob(y, 1),
        field.frob(x, 2),
        field.frob(y, 2),
        field.frob(x, 3),
        field.frob(y, 3),
    )


def build_scene(field):
    """Construct the embedding scene and verify all of its invariants."""
    T = field.trace_kernel_basis()
    evecs = [tuple(1 if j == k else 0 for j in range(8)) for k in range(8)]
    V_embed = FqmSubspace.span(field, 8, evecs[:4])
    Delta = FqmSubspace.span(field, 8, evecs[:4])
    wgens = [w_vector(field, t, 0) for t in T] + [
        w_vector(field, 0, t) for t in T
    ]
    W = FqSubspace.span(field, 8, wgens)
    Gamma = FqmSubspace.span(field, 8, _GAMMA_ROWS)
    gram = MatrixFqm(
        field,
        [
            [1 if abs(i - j) == 4 else 0 for j in range(8)]
            for i in range(8)
        ],
    )
    # invariants of the embedding
    if W.dim_q != 8:
        raise InvariantViolation("dim_q W = %d" % W.dim_q)
    if fqm_span_dim(field, W.basis) != 8:
        raise InvariantViolation("W does not span Z over F_{q^6}")
    if moore_matrix(field, T).det() == 0:
        raise InvariantViolation("Moore determinant vanished on the T basis")
    if Gamma.dim != 4:
        raise InvariantViolation("dim Gamma = %d" % Gamma.dim)
    stacked = list(Gamma.rows) + list(V_embed.rows)
    if fqm_span_dim(field, stacked) != 8:
        raise InvariantViolation("Gamma ∩ V is nontrivial")
    if weight(W, Gamma) != 0:
        raise InvariantViolation("W ∩ Gamma is nontrivial")
    if gram.det() == 0:
        raise InvariantViolation("beta is degenerate")
    constraints = [gram.apply_to_vector(g) for g in Gamma.rows]
    perp = FqmSubspace.span(field, 8, null_space(field, constraints, 8))
    if perp != FqmSubspace.span(field, 8, _GAMMA_PERP_ROWS):
        raise InvariantViolation("Gamma-perp differs from its closed form")
    if perp.dim != 4:
        raise InvariantViolation("dim Gamma-perp = %d" % perp.dim)
    return DelsarteScene(field, V_embed, Delta, W, Gamma, gram, perp)


def _join_with_fqm(scene, S):
    """<W, S>_{F_q} for an F_{q^6}-subspace S of Z."""
    gens = scene.W.basis + _fqm_as_fq(scene.field, S).basis
    return FqSubspace.span(scene.field, 8, gens)


def _fqm_as_fq(field, S):
    """An F_{q^6}-subspace S of Z seen as an F_q-subspace."""
    gens = []
    for row in S.rows:
        for j in range(6):
            gens.append(vec_scale(field, 1 << j, row))
    return FqSubspace.span(field, 8, gens)


def _project_to_front(S8):
    """Drop coordinates 4-7, which must vanish on every basis vector."""
    field = S8.field
    gens = []
    for v in S8.basis:
        if any(v[4:]):
            raise ClosedFormMismatch("vector does not lie on coordinates 0-3")
        gens.append(v[:4])
    return FqSubspace.span(field, 4, gens)


def primal_closed_form(field):
    """{(x, y, x^q + y^(q^3), y^q + x^(q^2))} over (x, y) in T x T."""
    frob = field.frob
    T = field.trace_kernel_basis()
    gens = [(t, 0, frob(t, 1), frob(t, 2)) for t in T]
    gens += [(0, t, frob(t, 3), frob(t, 1)) for t in T]
    return FqSubspace.span(field, 4, gens)


def dual_closed_form_1(field):
    """{(x + y^(q^3), y, x^q, y^q + x^(q^3))}."""
    frob = field.frob
    T = field.trace_kernel_basis()
    gens = [(t, 0, frob(t, 1), frob(t, 3)) for t in T]
    gens += [(frob(t, 3), t, 0, frob(t, 1)) for t in T]
    return FqSubspace.span(field, 4, gens)


def dual_closed_form_2(field):
    """{(z^q + z^(q^3) + t^(q^3), t, z, t^q + z^(q^2))}."""
    frob = field.frob
    T = field.trace_kernel_basis()
    gens = [(frob(t, 1) ^ frob(t, 3), 0, t, frob(t, 2)) for t in T]
    gens += [(frob(t, 3), t, 0, frob(t, 1)) for t in T]
    return FqSubspace.span(field, 4, gens)


def primal_from_scene(scene):
    """<W, Gamma>_{F_q} ∩ V, projected to F_{q^6}^4."""
    field = scene.field
    join = _join_with_fqm(scene, scene.Gamma)
    if join.dim_q != scene.W.dim_q + 24:
        raise InvariantViolation("<W, Gamma> sum is not direct")
    inter = intersect_fq(join, _fqm_as_fq(field, scene.V_embed))
    out = _project_to_front(inter)
    if out != primal_closed_form(field):
        raise ClosedFormMismatch("primal subspace differs from closed form")
    return out


def dual_from_scene(scene):
    """The Delsarte dual <W, Gamma-perp>_{F_q} ∩ Delta on F_{q^6}^4."""
    field = scene.field
    join = _join_with_fqm(scene, scene.Gamma_perp)
    inter = intersect_fq(join, _fqm_as_fq(field, scene.Delta))
    out = _project_to_front(inter)
    if out != dual_closed_form_1(field):
        raise ClosedFormMismatch("dual subspace differs from closed form 1")
    if out != dual_closed_form_2(field):
        raise ClosedFormMismatch("dual subspace differs from closed form 2")
    return out


def rearranged_dual(field):
    """{(z, t, z^(q^2) + t^q, z^q + z^(q^3) + t^(q^3))}: the image side
    of the displayed equivalence, a coordinate rearrangement of the dual."""
    frob = field.frob
    T = field.trace_kernel_basis()
    gens = [(t, 0, frob(t, 2), frob(t, 1) ^ frob(t, 3)) for t in T]
    gens += [(0, t, frob(t, 1), frob(t, 3)) for t in T]
    return FqSubspace.span(field, 4, gens)


def verify_dual_equivalence(field, matrix_rows=DUAL_EQUIV_MATRIX):
    """Check that the displayed matrix maps U_1 onto the rearranged dual.

    Verifies, per trace-kernel basis pair, that the image tuple has the
    shape (z, t, z^(q^2)+t^q, z^q+z^(q^3)+t^(q^3)) with z, t in T, and
    that the induced map (x, y) -> (z, t) is invertible; then checks the
    subspace-level identity apply_gl(A, U_1) == rearranged dual.
    """
    from .linalg import apply_gl, flatten_vector
    from .scatter import build_Us
    from . import gf2

    frob = field.frob
    A = MatrixFqm(field, matrix_rows)
    T = field.trace_kernel_basis()
    pairs = [(t, 0) for t in T] + [(0, t) for t in T]
    zt_rows = []
    for x, y in pairs:
        vec = (x, y, frob(x, 2) ^ frob(y, 1), frob(x, 1) ^ frob(y, 3))
        img = A.apply_to_vector(vec)
        z, t = img[0], img[1]
        checks = (
            field.rel_trace(z, 2) == 0
            and field.rel_trace(t, 2) == 0
            and img[2] == frob(z, 2) ^ frob(t, 1)
            and img[3] == frob(z, 1) ^ frob(z, 3) ^ frob(t, 3)
        )
        if not checks:
            return Verdict(
                ok=False,
                witness={
                    "kind": "basis_image_mismatch",
                    "input": [field.to_hex(c) for c in vec],
                    "image": [field.to_hex(c) for c in img],
                },
                checked_count=len(zt_rows),
                mode="exhaustive",
                details={},
            )
        zt_rows.append(flatten_vector(field, (z, t)))
    if gf2.rank_bits(zt_rows) != len(zt_rows):
        return Verdict(
            ok=False,
            witness={"kind": "zt_map_not_injective"},
            checked_count=len(pairs),
            mode="exhaustive",
            details={},
        )
    U1 = build_Us(field, 1)
    image = apply_gl(A, U1)
    target = rearranged_dual(field)
    if image != target:
        for v, w in zip(image.basis, target.basis):
            if v != w:
                break
        return Verdict(
            ok=False,
            witness={
                "kind": "subspace_mismatch",
                "image_vector": [field.to_hex(c) for c in v],
                "expected_vector": [field.to_hex(c) for c in w],
            },
            checked_count=len(pairs),
            mode="exhaustive",
            details={},
        )
    return Verdict(
        ok=True,
        witness=None,
        checked_count=len(pairs),
        mode="exhaustive",
        details={"matrix": [list(r) for r in matrix_rows]},
    )
