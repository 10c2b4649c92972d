"""Construction of the subspaces U_s and their scatteredness certification.

Two independent algorithms decide h-scatteredness:

* the fast test enumerates (order+1)-dimensional F_q-subspaces of U and
  requires their F_{q^6}-span to have dimension >= order+1;
* the oracle enumerates order-dimensional F_{q^6}-subspaces H and
  requires dim_q(U ∩ H) <= order.

Every exhaustive scan, both tests, weight_spectrum and the rank-metric
span histograms and codeword scan alike, runs through one dispatcher,
exhaustive_scan, one d per call on the numpy GF(64) engine class it is
given (gfbatch's scanners); gfbatch.check_scan_shape is the one
check of what they pack: q = 2, an ambient F_64^r with r <= 10 and their
width limits, so an r = 3 system such as {(x, x^q, x^(q^2))} scans as
the r = 4 systems U_s do.  Any other shape is a ConfigError, raised
after the work budget check, as is the scalar Frobenius-fixed spectrum
at q != 2.  Larger q produce sampled-evidence verdicts.  Each test has
one scalar re-check of its witness (_fq_witness, _oracle_witness), which
the exhaustive mode feeds the decoded first refuting position and the
sampled mode the first refuting draw.
"""

from dataclasses import asdict, dataclass, field as dc_field
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
    RrefEnumerator,
    det,
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
    mode: str  # exhaustive | sampled | fast
    details: dict = dc_field(default_factory=dict)

    def to_json(self):
        return asdict(self)


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


def trace_pairs(field):
    """The F_q-basis (t, 0), (0, t) of T x T, t over T's basis, where T is
    the kernel of the trace onto F_{q^2}."""
    T = field.trace_kernel_basis()
    return [(t, 0) for t in T] + [(0, t) for t in T]


def trace_pair_span(field, r, vec):
    """{vec(x, y) : x, y in T} for an F_q-linear map vec into F_{q^6}^r:
    the F_q-span of its values on trace_pairs.  Every system built so is
    an injective image of T x T, of dim_q 8, else an InvariantViolation."""
    U = FqSubspace.span(field, r, [vec(x, y) for x, y in trace_pairs(field)])
    if U.dim_q != 8:
        raise InvariantViolation("T x T spans dim_q %d, expected 8" % U.dim_q)
    return U


def us_vector(field, s, x, y):
    """(x, y, x^(s2)+y^(s1), x^(s1)+y^(s3)), exponents sigma^i, sigma = q^s."""
    frob = field.frob
    return (x, y, frob(x, 2 * s) ^ frob(y, s), frob(x, s) ^ frob(y, 3 * s))


def build_Us(field, s=1):
    """The subspace {(x, y, x^(s2)+y^(s1), x^(s1)+y^(s3)) : x, y in T}.

    T is the kernel of the trace onto F_{q^2}; exponents are sigma^i with
    sigma = q^s.  dim_q = 8 and the F_{q^6}-span is the full ambient.
    """
    if s not in (1, 5):
        raise ValueError("s must be 1 or 5 (the residues coprime to 6), got %r" % (s,))
    return trace_pair_span(field, 4, lambda x, y: us_vector(field, s, x, y))


def build_U5prime(field):
    """The representative {(x, y, x^(q2)+y^q+y^(q3), x^q+x^(q3)+y^(q3))}."""
    frob = field.frob

    def vec(x, y):
        c2 = frob(x, 2) ^ frob(y, 1) ^ frob(y, 3)
        return (x, y, c2, frob(x, 1) ^ frob(x, 3) ^ frob(y, 3))

    return trace_pair_span(field, 4, vec)


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
    return {
        "kind": "fqm_subspace",
        "position": position,
        "rref": [[U.field.to_hex(x) for x in v] for v in H.rows],
        "weight": w,
        "text": rows_to_text(U.field, U.r, H.rows),
    }


# -- the exhaustive scan ----------------------------------------------------


def _scan_worker(args, start, stride):
    """Worker `start` of `stride`: its chunks of the scan; see exhaustive_scan.

    Per chunk it reads the values' least and greatest, which say whether
    any value is outside [lo, hi] (only then is the bound mask built) and
    which levels the histogram must count: one count_nonzero(v > k) per
    k in [least, greatest), with no full-length bincount.  The chunk of
    the first value outside [lo, hi] is counted whole.  A value outside
    0..nb is an InvariantViolation.
    """
    import numpy as np

    from . import gfbatch

    field, basis, d, engine, lo, hi = args
    scanner = engine(gfbatch.Gf64Tables(field), basis)
    fast = engine is gfbatch.FqSpanScanner
    values = scanner.iter_span_dims if fast else scanner.iter_weights
    hist = [0] * (len(basis) + 1)  # values are <= nb
    first = None
    for pos, v in values(d, start=start, stride=stride):
        least, most = int(v.min()), int(v.max())
        if least < 0 or most >= len(hist):
            raise InvariantViolation(
                "scan value %d outside 0..%d" % (least if least < 0 else most, len(basis))
            )
        # at_least counts the chunk's values >= k
        at_least = len(v)
        for k in range(least, most):
            above = int(np.count_nonzero(v > k))
            hist[k] += at_least - above
            at_least = above
        hist[most] += at_least
        if least < lo or most > hi:
            bad = (v < lo) | (v > hi)
            i = int(np.argmax(bad))
            first = (int(pos[i]), int(v[i]))
            break
    return first, hist


def exhaustive_scan(U, d, engine, workers, lo=0, hi=None):
    """Scan U with `engine`, a gfbatch scanner class built from U's basis:
    weight(U, H) over the d-dim F_{q^m}-subspaces H (DualCodimScanner),
    or over the hyperplanes H = m^⊥, one normal m per hyperplane
    (CodewordScanner, d = r - 1), or dim <S>_{F_{q^m}} over the d-dim
    F_q-subspaces S of U (FqSpanScanner).

    The scan is cut into contiguous chunks of gfbatch.SCAN_CHUNK
    positions, the last one shorter (gfbatch._rref_chunks), and chunk k
    goes to worker k mod workers (_scan_worker), which scans its chunks
    in ascending order and stops at its first value outside [lo, hi].
    No more workers run than there are chunks (gfbatch.chunk_count), so
    a one-chunk scan runs in process.  The engine's enumerator, which
    the chunk count and the witness decode read, is the one its
    iterators walk.  Returns (first, hist), merged over the workers:
    first is the (position, value, rows) of the first value outside
    [lo, hi] in enumeration order (the least of the workers' firsts, rows
    its RREF decoded by the engine's enumerator; None if there is none),
    and hist[v] counts the values scanned.  So first, and every complete
    hist, is the same for any worker count.  A complete weight hist
    (first is None) must pass _check_incidences's closed-form first
    moment; rankcode checks the code's hyperplane hist against every
    moment.
    """
    from . import gfbatch

    field = U.field
    gfbatch.check_scan_shape(engine, field, U.r, U.dim_q)
    hi = U.dim_q if hi is None else hi
    args = (field, U.basis, d, engine, lo, hi)
    enum = engine.enumerator(U.r, U.dim_q, d)
    chunks = gfbatch.chunk_count(enum.total)
    results = run_partitioned(_scan_worker, args, min(workers, chunks))
    firsts = [first for first, _ in results if first is not None]
    hist = [sum(col) for col in zip(*(h for _, h in results))]
    if firsts:
        pos, value = min(firsts)
        return (pos, value, enum.decode(pos)[0]), hist
    if engine is not gfbatch.FqSpanScanner:
        _check_incidences(U, d, hist)
    return None, hist


def _check_incidences(U, d, hist, spans=None):
    """The j-th moment sum over d-dim H of [w(H), j]_q counts the pairs
    (S, H), S a j-dim F_q-subspace of U inside H, for each j in spans.

    spans[j][s] = N_j(s) counts the j-dim S whose F_{q^m}-span has
    dimension s, and such an S lies in [r-s, d-s]_{q^m} of the d-dim
    subspaces.  The default is the closed form N_1 = {1: [dim_q U, 1]_q},
    the same for every U of the same F_q-dimension.
    """
    q, Q = U.field.q, U.field.order
    if spans is None:
        spans = {1: (0, gaussian_binomial(U.dim_q, 1, q))}
    for j, N in spans.items():
        got = sum(c * gaussian_binomial(w, j, q) for w, c in enumerate(hist) if c)
        expected = sum(
            c * gaussian_binomial(U.r - s, d - s, Q) for s, c in enumerate(N) if c
        )
        if got != expected:
            raise ClosedFormMismatch(
                "weight histogram %r of the %d-dim subspaces has %d-th moment "
                "%d, the span histograms give %d" % (hist, d, j, got, expected)
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
    guarded by the work budget, then by gfbatch.check_scan_shape.  An
    order outside 0..dim_q U - 1 leaves no subspace to test, and one of r
    or more none that could span order + 1: a ConfigError.
    """
    _check_mode(mode)
    top = min(U.r, U.dim_q)
    if not 0 <= order < top:
        raise ConfigError(
            "order must be in 0..%d (r = %d, dim_q U = %d), got %d"
            % (top - 1, U.r, U.dim_q, order)
        )
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
    from . import gfbatch

    first, _ = exhaustive_scan(U, d, gfbatch.FqSpanScanner, workers, lo=d)
    details = {"order": order, "subspace_dim": d}
    if first is None:
        return Verdict(True, None, total, "fast", details)
    pos, span, rows = first
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
    if samples < 1:
        raise ConfigError("samples must be >= 1, got %d" % samples)
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
    """Literal test: every order-dim F_{q^6}-subspace meets U in <= order.

    An order outside 0..r - 1 is a ConfigError: at r or more there is no
    proper order-dim subspace to test, so a verdict would be vacuous."""
    _check_mode(mode)
    if not 0 <= order < U.r:
        raise ConfigError("order must be in 0..%d (r - 1), got %d" % (U.r - 1, order))
    field = U.field
    not_spanning = _not_spanning(U, order, mode)
    if not_spanning:
        return not_spanning
    if mode == "sampled":
        return _sampled(U, order, samples, seed, oracle=True)
    total = gaussian_binomial(U.r, order, field.order)
    if total > budget:
        raise WorkLimitExceeded(total, budget)
    from . import gfbatch

    first, hist = exhaustive_scan(U, order, gfbatch.DualCodimScanner, workers, hi=order)
    if first is None:
        details = {
            "order": order,
            "max_weight": max(i for i, c in enumerate(hist) if c),
            "weight_hist": {str(i): c for i, c in enumerate(hist) if c},
        }
        return Verdict(True, None, total, "exhaustive", details)
    pos, w, rows = first
    witness = _oracle_witness(U, order, rows, w, pos)
    return Verdict(False, witness, pos + 1, "exhaustive", {"order": order})


# -- Frobenius-fixed subspaces and parity -----------------------------------


def frobenius_fixed(S):
    """Setwise invariance under the coordinatewise map x -> x^(q^2)."""
    return S.frob_image(2) == S


def enumerate_frobenius_fixed(field, r, d):
    """All d-dim subspaces fixed by x -> x^(q^2) (F_{q^2}-rational RREF)."""
    elems = field.subfield_elements(2)
    enum = RrefEnumerator(elems, r, d)
    for rows in enum.iter_slice():
        yield FqmSubspace(field, r, rows)


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
    if not 0 <= codim <= U.r:
        raise ValueError("codim must be in 0..%d, got %d" % (U.r, codim))
    d = U.r - codim
    if d == 0:  # the zero subspace
        return {0: 1}
    if d == U.r:  # the whole space holds all of U
        return {U.dim_q: 1}
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
    from . import gfbatch

    _, hist = exhaustive_scan(U, d, gfbatch.DualCodimScanner, workers)
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
    alpha: int
    beta: int
    case: str
    inputs: tuple  # (u, v) basis pairs
    images: tuple  # (F1, F2) per input

    def nullity_q(self):
        return len(self.images) - fq_rank(self.field, self.images)


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
    return alpha, beta, case


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
    alpha, beta, case = _case_invariants(field, a, b, c, d)
    return SemilinearSystem(field, alpha, beta, case, tuple(inputs), tuple(images))


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
        rows = tuple(
            tuple(field.random_element(rng) for _ in range(r)) for _ in range(r)
        )
        if det(field, rows) != 0:
            return rows


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
