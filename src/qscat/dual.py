"""The explicit Delsarte-dual scene in Z = F_{q^6}^8.

V = F_{q^6}^4 x 0 sits on coordinates 0-3; W embeds T x T via Frobenius
towers; Gamma complements V.  The bilinear form beta pairs coordinate i
with i+4, and Gamma-perp is its displayed closed form, checked against
beta's defining equations.  The primal and the dual subspace are
<W, Gamma>_{F_q} ∩ V and <W, Gamma-perp>_{F_q} ∩ V, read on coordinates
0-3, and each is checked against its closed forms.
"""

from dataclasses import dataclass

from .errors import ClosedFormMismatch, InvariantViolation
from . import gf2
from .linalg import (
    FqSubspace,
    FqmSubspace,
    det,
    fqm_span_dim,
    mat_vec,
    moore_matrix,
    weight,
)
from .scatter import Verdict, trace_pair_span, trace_pairs, us_vector

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
    W: FqSubspace
    Gamma: FqmSubspace
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
    W = trace_pair_span(field, 8, lambda x, y: w_vector(field, x, y))
    Gamma = FqmSubspace.span(field, 8, _GAMMA_ROWS)
    gram = [[1 if abs(i - j) == 4 else 0 for j in range(8)] for i in range(8)]
    # invariants of the embedding
    if fqm_span_dim(field, W.basis) != 8:
        raise InvariantViolation("W does not span Z over F_{q^6}")
    if det(field, moore_matrix(field, T)) == 0:
        raise InvariantViolation("Moore determinant vanished on the T basis")
    # Gamma's rows and e_0..e_3 span Z: dim Gamma = 4 and Gamma ∩ V = 0
    front = [tuple(1 if j == k else 0 for j in range(8)) for k in range(4)]
    if fqm_span_dim(field, list(Gamma.rows) + front) != 8:
        raise InvariantViolation("Gamma is not a complement of V")
    if weight(W, Gamma) != 0:
        raise InvariantViolation("W ∩ Gamma is nontrivial")
    if det(field, gram) == 0:
        raise InvariantViolation("beta is degenerate")
    # beta is nondegenerate, so dim Gamma-perp = 8 - 4: a 4-dim space
    # beta-orthogonal to Gamma is Gamma-perp
    perp = FqmSubspace.span(field, 8, _GAMMA_PERP_ROWS)
    if perp.dim != 4 or any(
        beta_form(field, g, p) for g in Gamma.rows for p in perp.rows
    ):
        raise InvariantViolation("Gamma-perp differs from its closed form")
    return DelsarteScene(field, W, Gamma, perp)


def _meet_front(scene, S):
    """<W, S>_{F_q} ∩ V for an F_{q^6}-subspace S of Z, read on
    coordinates 0-3: the F_2-combinations of the flattened rows of W and
    S whose coordinates 4-7 cancel, from the left kernel of those halves."""
    field = scene.field
    shift = 4 * field.e
    rows = scene.W.f2rows() + S.f2rows()
    masks = gf2.left_kernel_combos([r >> shift for r in rows], shift)
    return FqSubspace(field, 4, [gf2.apply_cols(rows, m) for m in masks])


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
    """<W, Gamma>_{F_q} ∩ V, on F_{q^6}^4."""
    out = _meet_front(scene, scene.Gamma)
    if out != primal_closed_form(scene.field):
        raise ClosedFormMismatch("primal subspace differs from closed form")
    return out


def dual_from_scene(scene):
    """The Delsarte dual <W, Gamma-perp>_{F_q} ∩ V, on F_{q^6}^4."""
    field = scene.field
    out = _meet_front(scene, scene.Gamma_perp)
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

    Verifies, per trace-kernel basis pair, that the image of U_1's basis
    vector has the shape rearranged_vector(z, t) with z, t in T, so that
    A.U_1 lies in the rearranged dual; then that the images span all of
    it (dim_q 8).
    """
    images = []
    for x, y in trace_pairs(field):
        vec = us_vector(field, 1, x, y)
        img = mat_vec(field, matrix_rows, vec)
        z, t = img[0], img[1]
        in_T = field.rel_trace(z) == 0 and field.rel_trace(t) == 0
        if not (in_T and img == rearranged_vector(field, z, t)):
            witness = {
                "kind": "basis_image_mismatch",
                "input": [field.to_hex(c) for c in vec],
                "image": [field.to_hex(c) for c in img],
            }
            return Verdict(False, witness, len(images), "exhaustive", {})
        images.append(img)
    image = FqSubspace.span(field, 4, images)
    if image != rearranged_dual(field):
        witness = {"kind": "image_not_full", "image_dim_q": image.dim_q}
        return Verdict(False, witness, len(images), "exhaustive", {})
    details = {"matrix": [list(r) for r in matrix_rows]}
    return Verdict(True, None, len(images), "exhaustive", details)
