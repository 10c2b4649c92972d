"""Construction of the subspaces U_s and their scatteredness certification.

Two independent algorithms decide h-scatteredness:

* the fast test enumerates (order+1)-dimensional F_q-subspaces of U and
  requires their F_{q^6}-span to have dimension >= order+1;
* the oracle enumerates order-dimensional F_{q^6}-subspaces H and
  requires dim_q(U ∩ H) <= order.

Every exhaustive scan, both tests, weight_spectrum and the rank-metric
span table alike, runs through one driver, exhaustive_scan, on the
numpy GF(64) engines of gfbatch; gfbatch.check_scan_shape is the one
check of what they pack: q = 2, an ambient F_64^r with r <= 10 and their
width limits, so an r = 3 system such as {(x, x^q, x^(q^2))} scans as
the r = 4 systems U_s do.  Any other shape is a ConfigError, raised
after the work budget check, as is the scalar Frobenius-fixed spectrum
at q != 2.  Larger q produce sampled-evidence verdicts.  Each test has
one scalar re-check of its witness (_fq_witness, _oracle_witness), which
the exhaustive mode feeds the decoded first refuting position and the
sampled mode the first refuting draw.
"""

from dataclasses import dataclass, field as dc_field
from typing import Optional

from .errors import (
    ClosedFormMismatch,
    ConfigError,
    InvariantViolation,
    WorkLimitExceeded,
)
from .field import BinaryField
from .rng import XorShift64Star
from .parallel import run_partitioned
from .linalg import (
    FqSubspace,
    FqmSubspace,
    MatrixFqm,
    RrefEnumerator,
    fq_rank,
    fqm_span_dim,
    gaussian_binomial,
    rows_to_text,
    weight,
)

DEFAULT_BUDGET = 10**8  # enumerated subspace evaluations per exhaustive call
MODES = ("exhaustive", "sampled")

# GL(4, q^6) matrix carrying U'_5 onto U_1 (column action)
SEC2_EQUIV_MATRIX = ((1, 0, 1, 1), (0, 0, 1, 0), (1, 1, 0, 1), (1, 0, 0, 0))


@dataclass(frozen=True)
class UsParams:
    """Construction parameters: q = 2^h_exp and sigma = x -> x^(q^s)."""

    h_exp: int
    s: int = 1

    def __post_init__(self):
        if self.h_exp < 1 or self.h_exp % 2 == 0:
            raise ValueError("h_exp must be a positive odd integer")
        if self.s not in (1, 5):
            raise ValueError("s must be 1 or 5 (the residues coprime to 6)")


@dataclass
class Verdict:
    """Outcome of one certification run.

    For ok verdicts in an exhaustive mode, checked_count equals the full
    enumeration count; a refutation reports the enumeration position of
    the witness plus one, independent of worker count.
    """

    ok: bool
    witness: Optional[dict]
    checked_count: int
    mode: str  # exhaustive | sampled | fast | skipped
    details: dict = dc_field(default_factory=dict)

    def to_json(self):
        return {
            "ok": self.ok,
            "witness": self.witness,
            "checked_count": self.checked_count,
            "mode": self.mode,
            "details": self.details,
        }


@dataclass
class MaxDimBound:
    value: int
    exact: bool
    degenerate: bool


def max_dim_bound(r, n, order):
    """Dimension bound rn/(order+1) for order-scattered subspaces."""
    if order < 0:
        raise ValueError("order must be >= 0")
    return MaxDimBound(
        value=(r * n) // (order + 1),
        exact=(r * n) % (order + 1) == 0,
        degenerate=(order == 0),
    )


# -- constructions ---------------------------------------------------------


def build_Us(field, s=1):
    """The subspace {(x, y, x^(s2)+y^(s1), x^(s1)+y^(s3)) : x, y in T}.

    T is the kernel of the trace onto F_{q^2}; exponents are sigma^i with
    sigma = q^s.  dim_q = 8 and the F_{q^6}-span is the full ambient.
    """
    UsParams(field.h, s)
    frob = field.frob
    gens = []
    for t in field.trace_kernel_basis():
        gens.append((t, 0, frob(t, 2 * s), frob(t, s)))
    for t in field.trace_kernel_basis():
        gens.append((0, t, frob(t, s), frob(t, 3 * s)))
    return _checked_dim8(FqSubspace.span(field, 4, gens))


def build_U5prime(field):
    """The representative {(x, y, x^(q2)+y^q+y^(q3), x^q+x^(q3)+y^(q3))}."""
    frob = field.frob
    gens = []
    for t in field.trace_kernel_basis():
        gens.append((t, 0, frob(t, 2), frob(t, 1) ^ frob(t, 3)))
    for t in field.trace_kernel_basis():
        gens.append((0, t, frob(t, 1) ^ frob(t, 3), frob(t, 3)))
    return _checked_dim8(FqSubspace.span(field, 4, gens))


def _checked_dim8(U):
    if U.dim_q != 8:
        raise InvariantViolation("constructed U has dim_q %d, expected 8" % U.dim_q)
    return U


def sec2_equivalence_matrix(field):
    return MatrixFqm(field, SEC2_EQUIV_MATRIX)


# -- witnesses -------------------------------------------------------------


def _fq_witness(U, order, rows, span, position=-1):
    """Re-check a refuting F_q-subspace, given by coefficient rows over
    U's basis (decoded or drawn), and return its witness."""
    field = U.field
    vecs = [U.combine(row) for row in rows]
    s = fqm_span_dim(field, vecs)
    if fqm_span_dim(field, rows) != order + 1 or s != span or s > order:
        raise InvariantViolation("fast-test witness at %d does not re-check" % position)
    basis = FqSubspace.span(field, U.r, vecs).basis
    return {
        "kind": "fq_subspace_of_U",
        "position": position,
        "basis": [[field.to_hex(x) for x in v] for v in basis],
        "fqm_span_dim": s,
        "text": rows_to_text(field, U.r, basis),
    }


def _oracle_witness(U, order, gens, w, position=-1):
    """Re-check a refuting F_{q^6}-subspace, given by generators (decoded
    RREF rows or drawn), and return its witness."""
    H = FqmSubspace.span(U.field, U.r, gens)
    if H.dim != order or weight(U, H) != w or w <= order:
        raise InvariantViolation("oracle witness at %d does not re-check" % position)
    return _fqm_witness(U, position, H, w)


def _fqm_witness(U, position, H, w):
    return {
        "kind": "fqm_subspace",
        "position": position,
        "rref": [[U.field.to_hex(x) for x in v] for v in H.rows],
        "weight": w,
        "text": rows_to_text(U.field, U.r, H.rows),
    }


# -- the exhaustive scan ----------------------------------------------------


def _scan_worker(args, start, stride):
    """Worker `start` of `stride`: its chunks of each scan; see exhaustive_scan."""
    import numpy as np

    from .gfbatch import Gf64Tables, DualCodimScanner, FqSpanScanner

    field, basis, ds, oracle, lo, hi = args
    scanner = (DualCodimScanner if oracle else FqSpanScanner)(Gf64Tables(field), basis)
    values = scanner.iter_weights if oracle else scanner.iter_span_dims
    out = []
    for d in ds:
        hist = np.zeros(len(basis) + 1, dtype=np.int64)  # values are <= nb
        first = None
        for pos, v in values(d, start=start, stride=stride):
            hist += np.bincount(v, minlength=len(hist))
            bad = (v < lo) | (v > hi)
            if bad.any():
                i = int(np.argmax(bad))
                first = (int(pos[i]), int(v[i]))
                break
        out.append((first, [int(c) for c in hist]))
    return out


def exhaustive_scan(U, ds, oracle, workers, lo=0, hi=None):
    """Scan the d-dim subspaces for each d in ds: weight(U, H) over the
    F_{q^m}-subspaces H if `oracle`, else dim <S>_{F_{q^m}} over the
    F_q-subspaces S of U.

    Each scan is cut into contiguous chunks of at most gfbatch.SCAN_CHUNK
    positions (gfbatch._rref_chunks: the first ones smaller), and chunk k
    goes to worker k mod workers, which scans its chunks in ascending
    order and stops at its first value outside [lo, hi].  Returns
    (first, hist) per d, merged over the workers: first is the (position,
    value) of the first value outside [lo, hi] in enumeration order (the
    least of the workers' firsts; None if there is none), and hist[v]
    counts the values scanned.  So first, and every complete hist, is the
    same for any worker count.  A complete oracle hist (first is None) is
    checked against _check_incidences.
    """
    from .gfbatch import DualCodimScanner, FqSpanScanner, check_scan_shape

    field = U.field
    check_scan_shape(DualCodimScanner if oracle else FqSpanScanner, field, U.r, U.dim_q)
    hi = U.dim_q if hi is None else hi
    args = (field, U.basis, tuple(ds), oracle, lo, hi)
    results = run_partitioned(_scan_worker, args, workers)
    out = []
    for k, d in enumerate(ds):
        firsts = [res[k][0] for res in results if res[k][0] is not None]
        first = min(firsts) if firsts else None
        hist = [sum(col) for col in zip(*(res[k][1] for res in results))]
        if oracle and first is None:
            _check_incidences(U, d, hist)
        out.append((first, hist))
    return out


def _check_incidences(U, d, hist):
    """sum over d-dim H of (q^w(H) - 1) counts the pairs (u in U - 0, H ∋ u).

    Each nonzero u lies in [r-1, d-1]_{q^m} of the d-dim subspaces, so
    the sum is the same for every U of the same F_q-dimension.
    """
    field = U.field
    got = sum((field.q**w - 1) * c for w, c in enumerate(hist))
    expected = (field.q**U.dim_q - 1) * gaussian_binomial(U.r - 1, d - 1, field.order)
    if got != expected:
        raise ClosedFormMismatch(
            "weight histogram %r of the %d-dim subspaces counts %d "
            "incidences, expected %d" % (hist, d, got, expected)
        )


# -- scatteredness tests ----------------------------------------------------


def _not_spanning(U, order, mode):
    """The refuting verdict when U does not span the ambient, else None."""
    span_full = fqm_span_dim(U.field, U.basis)
    if span_full == U.r:
        return None
    witness = {"kind": "not_spanning", "fqm_span_dim": span_full}
    return Verdict(False, witness, 0, mode, {"order": order})


def _check_mode(mode):
    if mode not in MODES:
        raise ConfigError("mode must be one of %s, got %r" % (", ".join(MODES), mode))


def is_h_scattered_fast(
    U, order, mode="exhaustive", samples=None, seed=None, workers=1,
    budget=DEFAULT_BUDGET,
):
    """Fast test: every (order+1)-dim F_q-subspace of U spans >= order+1.

    Requires that U spans the ambient over F_{q^6}; exhaustive mode is
    guarded by the work budget, then by gfbatch.check_scan_shape.
    """
    _check_mode(mode)
    field = U.field
    d = order + 1
    not_spanning = _not_spanning(U, order, "fast")
    if not_spanning:
        return not_spanning
    if mode == "sampled":
        return _sampled(U, order, samples, seed, oracle=False)
    total = gaussian_binomial(U.dim_q, d, field.q)
    if total > budget:
        raise WorkLimitExceeded(total, budget)
    [(first, _)] = exhaustive_scan(U, (d,), False, workers, lo=d)
    details = {"order": order, "subspace_dim": d}
    if first is None:
        return Verdict(True, None, total, "fast", details)
    pos, span = first
    rows, _ = RrefEnumerator(field.fq_elements, U.dim_q, d).decode(pos)
    witness = _fq_witness(U, order, rows, span, pos)
    return Verdict(False, witness, pos + 1, "fast", details)


def _sampled(U, order, samples, seed, oracle):
    """Sampled verdict of the fast test, or of the oracle if `oracle`.

    The samples run in numpy batches (gfbatch.SampledFast/SampledOracle)
    on the seeded xorshift64* stream; the first refuting sample goes
    through the same scalar re-check as an exhaustive scan's witness.
    """
    if samples is None or seed is None:
        raise ValueError("sampled mode requires samples and seed")
    if not 0 <= seed < 1 << 64:
        # XorShift64Star keeps seed mod 2^64, which details would misreport
        raise ConfigError("seed must be in 0..2^64 - 1, got %d" % seed)
    from . import gfbatch

    sampler = (gfbatch.SampledOracle if oracle else gfbatch.SampledFast)(U, order)
    found = gfbatch.first_refutation(sampler, XorShift64Star(seed), samples)
    details = {"order": order, "seed": seed, "samples": samples}
    if found is None:
        return Verdict(True, None, samples, "sampled", details)
    k, group, value = found
    if oracle:
        gens = [group[i : i + U.r] for i in range(0, len(group), U.r)]
        witness = _oracle_witness(U, order, gens, value)
    else:
        nb, elems = U.dim_q, U.field.fq_elements
        rows = [[elems[x] for x in group[i : i + nb]] for i in range(0, len(group), nb)]
        witness = _fq_witness(U, order, rows, value)
    return Verdict(False, witness, k + 1, "sampled", details)


def is_h_scattered_oracle(
    U, order, mode="exhaustive", samples=None, seed=None, workers=1,
    budget=DEFAULT_BUDGET,
):
    """Literal test: every order-dim F_{q^6}-subspace meets U in <= order."""
    _check_mode(mode)
    field = U.field
    not_spanning = _not_spanning(U, order, mode)
    if not_spanning:
        return not_spanning
    if order >= U.r:
        return Verdict(True, None, 0, mode, {"order": order, "degenerate": True})
    if mode == "sampled":
        return _sampled(U, order, samples, seed, oracle=True)
    total = gaussian_binomial(U.r, order, field.order)
    if total > budget:
        raise WorkLimitExceeded(total, budget)
    [(first, hist)] = exhaustive_scan(U, (order,), True, workers, hi=order)
    if first is None:
        details = {
            "order": order,
            "max_weight": max(i for i, c in enumerate(hist) if c),
            "weight_hist": {str(i): c for i, c in enumerate(hist) if c},
        }
        return Verdict(True, None, total, "exhaustive", details)
    pos, w = first
    rows, _ = RrefEnumerator(range(field.order), U.r, order).decode(pos)
    witness = _oracle_witness(U, order, rows, w, pos)
    return Verdict(False, witness, pos + 1, "exhaustive", {"order": order})


# -- Frobenius-fixed subspaces and parity -----------------------------------


def frobenius_fixed(S):
    """Setwise invariance under the coordinatewise map x -> x^(q^2)."""
    return S.frob_image(2) == S


def parity_check(U, H):
    """Fixed subspaces meet U in even F_q-dimension."""
    if not frobenius_fixed(H):
        return Verdict(
            ok=True,
            witness=None,
            checked_count=0,
            mode="skipped",
            details={"applicable": False},
        )
    w = weight(U, H)
    ok = w % 2 == 0
    witness = None
    if not ok:
        witness = _fqm_witness(U, -1, H, w)
    return Verdict(
        ok=ok,
        witness=witness,
        checked_count=1,
        mode="exhaustive",
        details={"applicable": True, "weight": w},
    )


def enumerate_frobenius_fixed(field, r, d):
    """All d-dim subspaces fixed by x -> x^(q^2) (F_{q^2}-rational RREF)."""
    elems = field.subfield_elements(2)
    enum = RrefEnumerator(elems, r, d)
    for _, rows, piv in enum.iter_slice():
        yield FqmSubspace(field, r, rows, piv)


def random_frobenius_fixed(field, r, d, rng):
    elems = field.subfield_elements(2)
    while True:
        gens = [
            tuple(elems[rng.randrange(len(elems))] for _ in range(r))
            for _ in range(d)
        ]
        H = FqmSubspace.span(field, r, gens)
        if H.dim == d:
            return H


# -- weight spectrum ---------------------------------------------------------


def weight_spectrum(
    U,
    codim,
    frobenius_fixed_only=False,
    workers=1,
    budget=DEFAULT_BUDGET,
):
    """Histogram of weight(U, H) over all codim-codim subspaces H.

    Returns a dict weight -> count.  With frobenius_fixed_only, the scan
    restricts to subspaces with F_{q^2}-rational RREF (scalar, q = 2 only).
    """
    field = U.field
    d = U.r - codim
    if d < 0:
        raise ValueError("codim exceeds ambient dimension")
    if d == 0:
        return {0: 1}
    if frobenius_fixed_only:
        total = gaussian_binomial(U.r, d, field.q**2)
        if total > budget:
            raise WorkLimitExceeded(total, budget)
        if field.q != 2:
            raise ConfigError(
                "the Frobenius-fixed scan runs at q = 2 only, got q = %d" % field.q
            )
        hist = {}
        for H in enumerate_frobenius_fixed(field, U.r, d):
            w = weight(U, H)
            hist[w] = hist.get(w, 0) + 1
        return hist
    total = gaussian_binomial(U.r, d, field.order)
    if total > budget:
        raise WorkLimitExceeded(total, budget)
    [(_, hist)] = exhaustive_scan(U, (d,), True, workers)
    return {i: c for i, c in enumerate(hist) if c}


# -- the semilinear system ---------------------------------------------------


@dataclass
class SemilinearSystem:
    """F_q-linear system F1 = F2 = 0 on T x T.

    F1(u, v) = a u + b v + u^(q^2) + v^q and
    F2(u, v) = c u + d v + u^q + v^(q^3), with both unknowns constrained
    to the trace kernel T.  images[i] holds (F1, F2) evaluated on the
    i-th F_q-basis element of T x T (recorded in inputs[i]).
    """

    field: BinaryField
    a: int
    b: int
    c: int
    d: int
    alpha: int
    beta: int
    gamma: int
    case: str
    inputs: tuple  # (u, v) basis pairs
    images: tuple  # (F1, F2) per input

    def nullity_q(self):
        return len(self.images) - fq_rank(self.field, self.images)

    def lambda_of(self, u):
        f, a = self.field, self.a
        return (
            f.mul(a, u)
            ^ f.mul(f.frob(a, 2), f.frob(u, 2))
            ^ f.mul(f.frob(a, 4), u)
            ^ f.mul(f.frob(a, 4), f.frob(u, 2))
        )

    def mu_of(self, u):
        f, c = self.field, self.c
        return (
            f.mul(c, u)
            ^ f.mul(f.frob(c, 2), f.frob(u, 2))
            ^ f.mul(f.frob(c, 4), u)
            ^ f.mul(f.frob(c, 4), f.frob(u, 2))
        )


def _case_invariants(field, a, b, c, d):
    frob, mul = field.frob, field.mul

    def pair_inv(x, y):
        return (
            mul(x, frob(y, 2))
            ^ mul(x, frob(y, 4))
            ^ mul(frob(x, 2), y)
            ^ mul(frob(x, 2), frob(y, 4))
            ^ mul(frob(x, 4), y)
            ^ mul(frob(x, 4), frob(y, 2))
        )

    alpha = pair_inv(a, c)
    beta = pair_inv(b, d)
    gamma = mul(frob(b, 2) ^ frob(b, 4), frob(c, 2) ^ frob(c, 4)) ^ mul(
        frob(d, 2) ^ frob(d, 4), frob(a, 2) ^ frob(a, 4)
    )
    if alpha and not beta:
        case = "alpha_nonzero_beta_zero"
    elif not alpha and beta:
        case = "alpha_zero_beta_nonzero"
    elif not alpha and not beta and not gamma:
        case = "alpha_beta_zero_gamma_zero"
    elif not alpha and not beta:
        case = "alpha_beta_zero_gamma_nonzero"
    else:
        case = "alpha_beta_nonzero"
    return alpha, beta, gamma, case


def semilinear_system(field, a, b, c, d):
    """Assemble the system for coefficients (a, b, c, d) in F_{q^6}."""
    frob, mul = field.frob, field.mul
    T = field.trace_kernel_basis()
    inputs = []
    images = []
    for t in T:
        inputs.append((t, 0))
        images.append((mul(a, t) ^ frob(t, 2), mul(c, t) ^ frob(t, 1)))
    for t in T:
        inputs.append((0, t))
        images.append((mul(b, t) ^ frob(t, 1), mul(d, t) ^ frob(t, 3)))
    alpha, beta, gamma, case = _case_invariants(field, a, b, c, d)
    return SemilinearSystem(
        field, a, b, c, d, alpha, beta, gamma, case, tuple(inputs), tuple(images)
    )


def count_solutions(sys):
    """Exact number of solutions (u, v); equals q^(dim_q kernel)."""
    return sys.field.q ** sys.nullity_q()


def solutions(sys, cap=4096):
    """Enumerate all solutions (small kernels only)."""
    from .linalg import left_kernel_fq

    field = sys.field
    n = count_solutions(sys)
    if n > cap:
        raise WorkLimitExceeded(n, cap)
    coord_rows = [
        list(field.fq_coords(f1)) + list(field.fq_coords(f2))
        for f1, f2 in sys.images
    ]
    combos = left_kernel_fq(field, coord_rows)
    coeff_vecs = [(0,) * len(sys.inputs)]
    for combo in combos:
        coeff_vecs = [
            tuple(b ^ field.mul(g, c) for b, c in zip(base, combo))
            for base in coeff_vecs
            for g in field.fq_elements
        ]
    sols = []
    for coeffs in coeff_vecs:
        u = v = 0
        for coeff, (tu, tv) in zip(coeffs, sys.inputs):
            if coeff:
                u ^= field.mul(coeff, tu)
                v ^= field.mul(coeff, tv)
        sols.append((u, v))
    if len(set(sols)) != n:
        raise InvariantViolation(
            "%d distinct solutions, expected %d" % (len(set(sols)), n)
        )
    return sols


def retta4_subspace(field, a, b, c, d):
    """The 2-dim subspace {au+bv+w = 0, cu+dv+t = 0} of F_{q^6}^4."""
    return FqmSubspace.span(field, 4, [(1, 0, a, c), (0, 1, b, d)])


# -- fast/oracle agreement suite ---------------------------------------------


def _agreement_worker(args, start, stride):
    field, count, seed, orders = args
    rows = []
    for i in range(start, count, stride):
        rng = XorShift64Star((seed << 20) ^ i)
        U = random_fq_subspace(field, 4, 8, rng)
        entry = {"index": i}
        for order in orders:
            vf = is_h_scattered_fast(U, order, workers=1)
            vo = is_h_scattered_oracle(U, order, workers=1)
            entry[order] = (vf.ok, vo.ok)
        rows.append(entry)
    return {"rows": rows}


def fast_oracle_agreement(field, count, seed, orders=(1, 2), workers=1):
    """Run both scatteredness tests on random 8-dim subspaces.

    Deterministic per index (each sample has its own seeded stream), so
    the outcome does not depend on the worker count.  Sample i draws
    from the stream of (seed << 20) ^ i, which is distinct for every
    (seed, i) only while seed < 2^44 and count <= 2^20.  Returns
    (mismatches, rows).
    """
    if not 0 <= seed < 1 << 44:
        raise ConfigError("agreement seed must be in 0..2^44 - 1, got %d" % seed)
    if count > 1 << 20:
        raise ConfigError("agreement count must be at most 2^20, got %d" % count)
    args = (field, count, seed, tuple(orders))
    results = run_partitioned(_agreement_worker, args, workers)
    rows = sorted(
        (r for res in results for r in res["rows"]), key=lambda r: r["index"]
    )
    mismatches = [
        r for r in rows if any(r[o][0] != r[o][1] for o in orders)
    ]
    return mismatches, rows


# -- random objects ----------------------------------------------------------


def random_invertible(field, r, rng):
    while True:
        rows = [[field.random_element(rng) for _ in range(r)] for _ in range(r)]
        M = MatrixFqm(field, rows)
        if M.det() != 0:
            return M


def random_fqm_subspace(field, r, d, rng):
    while True:
        gens = [
            tuple(field.random_element(rng) for _ in range(r)) for _ in range(d)
        ]
        H = FqmSubspace.span(field, r, gens)
        if H.dim == d:
            return H


def random_fq_subspace(field, r, d, rng):
    """Random d-dim F_q-subspace of the ambient F_{q^6}^r."""
    while True:
        gens = [
            tuple(field.random_element(rng) for _ in range(r)) for _ in range(d)
        ]
        U = FqSubspace.span(field, r, gens)
        if U.dim_q == d:
            return U


def random_fq_subspace_of(U, d, rng):
    """Random d-dim F_q-subspace of U via random coefficient matrices."""
    field = U.field
    elems = field.fq_elements
    while True:
        gens = [
            U.combine([elems[rng.randrange(len(elems))] for _ in U.basis])
            for _ in range(d)
        ]
        S = FqSubspace.span(field, U.r, gens)
        if S.dim_q == d:
            return S
