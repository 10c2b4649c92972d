"""The explicit Delsarte-dual scene in Z = F_{q^6}^8.

V sits on coordinates 0-3; W embeds T x T via Frobenius towers; Gamma
complements V.  The bilinear form pairs coordinate i with i+4, and the
dual subspace is recovered as <W, Gamma-perp> ∩ Delta, projected back to
four coordinates.  Every construction step is verified against its
expected closed form.
"""

from dataclasses import dataclass

from .errors import ClosedFormMismatch, InvariantViolation
from . import gf2
from .linalg import (
    FqSubspace,
    FqmSubspace,
    MatrixFqm,
    apply_gl,
    flatten_vector,
    fqm_span_dim,
    intersect_fq,
    moore_matrix,
    null_space,
    vec_scale,
    weight,
)
from .scatter import Verdict, build_Us, trace_pair_span, trace_pairs, us_vector

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
    W = trace_pair_span(field, 8, lambda x, y: w_vector(field, x, y))
    Gamma = FqmSubspace.span(field, 8, _GAMMA_ROWS)
    gram = MatrixFqm(
        field,
        [
            [1 if abs(i - j) == 4 else 0 for j in range(8)]
            for i in range(8)
        ],
    )
    # invariants of the embedding
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
    return trace_pair_span(
        field, 4, lambda x, y: (x, y, frob(x, 1) ^ frob(y, 3), frob(y, 1) ^ frob(x, 2))
    )


def dual_closed_form_1(field):
    """{(x + y^(q^3), y, x^q, y^q + x^(q^3))}."""
    frob = field.frob
    return trace_pair_span(
        field, 4, lambda x, y: (x ^ frob(y, 3), y, frob(x, 1), frob(y, 1) ^ frob(x, 3))
    )


def dual_closed_form_2(field):
    """{(z^q + z^(q^3) + t^(q^3), t, z, t^q + z^(q^2))}."""
    frob = field.frob

    def vec(z, t):
        return (frob(z, 1) ^ frob(z, 3) ^ frob(t, 3), t, z, frob(t, 1) ^ frob(z, 2))

    return trace_pair_span(field, 4, vec)


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


def rearranged_vector(field, z, t):
    """(z, t, z^(q^2) + t^q, z^q + z^(q^3) + t^(q^3))."""
    frob = field.frob
    return (z, t, frob(z, 2) ^ frob(t, 1), frob(z, 1) ^ frob(z, 3) ^ frob(t, 3))


def rearranged_dual(field):
    """{(z, t, z^(q^2) + t^q, z^q + z^(q^3) + t^(q^3))}: the image side
    of the displayed equivalence, a coordinate rearrangement of the dual."""
    return trace_pair_span(field, 4, lambda z, t: rearranged_vector(field, z, t))


def verify_dual_equivalence(field, matrix_rows=DUAL_EQUIV_MATRIX):
    """Check that the displayed matrix maps U_1 onto the rearranged dual.

    Verifies, per trace-kernel basis pair, that the image tuple has the
    shape rearranged_vector(z, t) with z, t in T, and that the induced
    map (x, y) -> (z, t) is invertible; then checks the subspace-level
    identity apply_gl(A, U_1) == rearranged dual.
    """
    witness, count = _equivalence_witness(field, MatrixFqm(field, matrix_rows))
    details = {} if witness else {"matrix": [list(r) for r in matrix_rows]}
    return Verdict(witness is None, witness, count, "exhaustive", details)


def _equivalence_witness(field, A):
    """(witness, checked_count) of verify_dual_equivalence for the matrix
    A; the witness is None when every check passes."""
    pairs = trace_pairs(field)
    zt_rows = []
    for x, y in pairs:
        vec = us_vector(field, 1, x, y)
        img = A.apply_to_vector(vec)
        z, t = img[0], img[1]
        in_T = field.rel_trace(z, 2) == 0 and field.rel_trace(t, 2) == 0
        if not (in_T and img == rearranged_vector(field, z, t)):
            witness = {
                "kind": "basis_image_mismatch",
                "input": [field.to_hex(c) for c in vec],
                "image": [field.to_hex(c) for c in img],
            }
            return witness, len(zt_rows)
        zt_rows.append(flatten_vector(field, (z, t)))
    if gf2.rank_bits(zt_rows) != len(zt_rows):
        return {"kind": "zt_map_not_injective"}, len(pairs)
    image = apply_gl(A, build_Us(field, 1))
    target = rearranged_dual(field)
    if image == target:
        return None, len(pairs)
    for v, w in zip(image.basis, target.basis):
        if v != w:
            break
    witness = {
        "kind": "subspace_mismatch",
        "image_vector": [field.to_hex(c) for c in v],
        "expected_vector": [field.to_hex(c) for c in w],
    }
    return witness, len(pairs)
