"""Rank-metric code of a q-system and its generalized weight profile.

The code of an [n, k] system U < F_{q^m}^k has a k x n generator whose
columns are an F_q-basis u_1, ..., u_n of U, so message m encodes to
(m . u_j)_j.  A generalized weight d_rho has two independent
algorithms, and generalized_weight runs both and requires them to
agree:

* F_q side: d_rho = n - max{dim_q S : S <= U, dim <S>_{F_{q^m}} <= k - rho},
  read off the complete span histograms of the F_q-subspaces of U
  (span_histograms), which give every d_rho at once;
* geometric side: d_rho = n - max weight of a codim-rho subspace
  (one exhaustive scan over F_{q^m}-subspaces per rho).

classify takes every d_rho from the F_q side and cross-checks the rho in
ORACLE_RHOS on the geometric side.

d and the weight distribution come from one codeword scan over one
message per F_{q^m}^*-orbit, which is a scan of the hyperplane weights.
Its hyperplane histogram must have the binomial moments that the span
histograms give (scatter._check_incidences, j = 0..n), which together
fix the whole histogram; an MRD code's distribution must also be
Delsarte's closed form.

The subspace scans and the codeword scan all run through
scatter.exhaustive_scan, the scan dispatcher of the scatteredness tests.
"""

from dataclasses import dataclass, field as dc_field
from functools import reduce
from operator import xor
from typing import Optional

from .errors import (
    ClosedFormMismatch,
    DegenerateSystem,
    InvariantViolation,
    WorkLimitExceeded,
)
from .field import BinaryField
from .linalg import fq_rank, fqm_span_dim, gaussian_binomial
from .scatter import (
    DEFAULT_BUDGET,
    _check_incidences,
    exhaustive_scan,
    weight_spectrum,
)


@dataclass
class RankCode:
    """[n, k]_{q^m/q} code with generator columns an F_q-basis of U."""

    field: BinaryField
    n: int
    k: int
    m: int
    system: object  # the FqSubspace U
    _span_histograms: Optional[tuple] = dc_field(default=None, repr=False)

    def encode(self, message):
        """The codeword (m . u_j)_j over U's basis vectors u_j."""
        mul = self.field.mul
        return tuple(
            reduce(xor, map(mul, message, u), 0) for u in self.system.basis
        )


def code_from_system(U):
    """Build the code whose generator columns are U's canonical basis."""
    field = U.field
    k = U.r
    n = U.dim_q
    if fqm_span_dim(field, U.basis) < k:
        raise DegenerateSystem("system does not span the ambient space")
    return RankCode(field, n, k, field.m, U)


def rank_weight(field, v):
    """dim_{F_q} of the span of the codeword coordinates."""
    return fq_rank(field, [(x,) for x in v])


# -- codeword scan -----------------------------------------------------------


def codeword_scan(C, workers=1, budget=DEFAULT_BUDGET):
    """Minimum rank weight and weight distribution over all codewords.

    Message m's codeword (m . u_j)_j has rank weight n - weight(U, m^⊥),
    and scaling m by F_{q^m}^* keeps m^⊥, so the scan walks one normal
    per hyperplane (gfbatch.CodewordScanner, through exhaustive_scan,
    which checks the complete hyperplane histogram against
    scatter._check_incidences) and multiplies each count by the orbit
    size q^m - 1.  Exhaustive (q = 2 only); returns (d, distribution
    dict w -> count).
    """
    field = C.field
    orbits = (field.order**C.k - 1) // (field.order - 1)
    if orbits > budget:
        raise WorkLimitExceeded(orbits, budget)
    from .gfbatch import CodewordScanner

    _, hist = exhaustive_scan(C.system, C.k - 1, CodewordScanner, workers)
    dist = {C.n - w: (field.order - 1) * c for w, c in enumerate(hist) if c}
    return min(dist), dist


# -- span table (F_q side) ----------------------------------------------------


def span_histograms(C, workers=1, budget=DEFAULT_BUDGET):
    """N[d][s] = number of d-dim S <= U with dim <S>_{F_{q^m}} = s.

    One complete FqSpanScanner scan per d = 1..n; N[0] is the zero
    subspace's.  Cached on the code object.
    """
    if C._span_histograms is not None:
        return C._span_histograms
    total = sum(gaussian_binomial(C.n, d, C.field.q) for d in range(C.n + 1))
    if total > budget:
        raise WorkLimitExceeded(total, budget)
    from .gfbatch import FqSpanScanner

    hists = [(1,)]
    for d in range(1, C.n + 1):
        _, hist = exhaustive_scan(C.system, d, FqSpanScanner, workers)
        hists.append(tuple(hist))
    C._span_histograms = tuple(hists)
    return C._span_histograms


def span_table(C, workers=1, budget=DEFAULT_BUDGET):
    """best[j] = max dim_q of S <= U with dim <S>_{F_{q^m}} <= j.

    minspan[d], the least span of a d-dim subspace of U, is the first
    nonzero entry of the d-th span histogram.
    """
    minspan = [
        next(s for s, c in enumerate(hist) if c)
        for hist in span_histograms(C, workers, budget)
    ]
    return tuple(
        max(d for d in range(C.n + 1) if minspan[d] <= j) for j in range(C.k + 1)
    )


# -- distances ----------------------------------------------------------------


def mrd_weight_distribution(n, m, d, q):
    """Rank weight distribution of a linear MRD code (Delsarte 1978).

    The code has minimum distance d in F_q^{m x n}; returns {weight:
    count} over its nonzero codewords, weights d..min(m, n).
    """
    small, large = min(m, n), max(m, n)
    out = {}
    for s in range(d, small + 1):
        acc = 0
        for j in range(s - d + 1):
            acc += (
                (-1) ** j
                * q ** (j * (j - 1) // 2)
                * gaussian_binomial(s, j, q)
                * (q ** (large * (s - d - j + 1)) - 1)
            )
        out[s] = gaussian_binomial(small, s, q) * acc
    return out


def generalized_weight(C, rho, workers=1, budget=DEFAULT_BUDGET):
    """rho-generalized rank weight d_rho, 1 <= rho <= k, read off the
    F_q-side span table and cross-checked by the codim-rho subspace scan."""
    if not 1 <= rho <= C.k:
        raise ValueError("rho out of range")
    fq_side = C.n - span_table(C, workers=workers, budget=budget)[C.k - rho]
    scan = C.n
    if rho < C.k:
        scan -= max(weight_spectrum(C.system, codim=rho, workers=workers, budget=budget))
    if scan != fq_side:
        raise InvariantViolation(
            "d_%d is %d by the F_q side, %d by the subspace scan" % (rho, fq_side, scan)
        )
    return fq_side


# the d_rho cross-checked by subspace scans in classify: rho = 1 reads
# the hyperplane scan behind d, and rho = 2 (the 17M-line scan) is left out
ORACLE_RHOS = (1, 3, 4)


def classify(C, workers=1, budget=DEFAULT_BUDGET):
    """The code-profile certificate block: n, k, m, d, every d_rho, the
    Singleton and MRD flags, the weight distribution and its checks.

    d and the distribution come from the codeword scan, whose hyperplane
    histogram must have the moments j = 0..n that the span histograms
    give; d_rho from the F_q-side table, cross-checked by subspace scans
    for every rho in ORACLE_RHOS.  An MRD code's codeword distribution
    must equal Delsarte's closed form.
    """
    n, k, m = C.n, C.k, C.m
    d, dist = codeword_scan(C, workers=workers, budget=budget)
    best = span_table(C, workers=workers, budget=budget)
    spec1 = {n - w: c // (C.field.order - 1) for w, c in dist.items()}
    hist = [spec1.get(w, 0) for w in range(n + 1)]
    spans = span_histograms(C, workers=workers, budget=budget)  # cached by span_table
    _check_incidences(C.system, k - 1, hist, dict(enumerate(spans)))
    d_rho = [n - best[k - rho] for rho in range(1, k + 1)]
    checks = {
        "d_codeword_scan": d,
        "d_hyperplane_scan": d,
        "hyperplane_weight_hist": {str(w): c for w, c in sorted(spec1.items())},
    }
    for rho in ORACLE_RHOS:
        if rho == 1:
            got = n - max(spec1)  # = d, checked against d_1 below
        else:
            got = generalized_weight(C, rho, workers=workers, budget=budget)
        checks["d_%d_subspace_scan" % rho] = got
    mk = m * k
    singleton_ok = mk <= min(m * (n - d + 1), n * (m - d + 1))
    is_mrd = mk == min(m * (n - d + 1), n * (m - d + 1))
    rho_mrd = [d_rho[rho - 1] == n - k + rho for rho in range(1, k + 1)]
    if d != d_rho[0]:
        raise InvariantViolation("d = %d but d_1 = %d" % (d, d_rho[0]))
    if is_mrd:
        delsarte = mrd_weight_distribution(n, m, d, C.field.q)
        if dist != {w: c for w, c in delsarte.items() if c}:
            raise ClosedFormMismatch(
                "MRD code has distribution %r, Delsarte gives %r" % (dist, delsarte)
            )
    return {
        "n": n,
        "k": k,
        "m": m,
        "d": d,
        "d_rho": d_rho,
        "singleton_ok": singleton_ok,
        "is_mrd": is_mrd,
        "rho_mrd": rho_mrd,
        "near_mrd": d == n - k and all(rho_mrd[1:]),
        "mode": "exhaustive",
        "spectrum": {str(w): c for w, c in sorted(dist.items())},
        "checks": checks,
    }
