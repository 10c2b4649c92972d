"""Rank-metric code of a q-system and its generalized weight profile.

The code of an [n, k] system U < F_{q^m}^k has a k x n generator whose
columns are an F_q-basis of U.  Minimum distance and the generalized
weights d_rho are each computed by two independent algorithms:

* geometric side: d_rho = n - max weight of a codim-rho subspace
  (exhaustive scans over F_{q^m}-subspaces);
* F_q side: d_rho = n - max{dim_q S : S <= U, dim <S>_{F_{q^m}} <= k - rho}
  (exhaustive scan over F_q-subspaces of U), the primary algorithm;
* for d additionally a codeword scan over one message per
  F_{q^m}^*-orbit, whose weight distribution must equal (q^m - 1) times
  the hyperplane weight histogram, and Delsarte's closed form when the
  code is MRD.

Both subspace scans run through scatter.exhaustive_scan, the driver of
the scatteredness tests; the codeword scan splits its messages into
contiguous ranges instead.
"""

from dataclasses import dataclass, field as dc_field
from typing import Optional

from .errors import (
    ClosedFormMismatch,
    DegenerateSystem,
    InvariantViolation,
    WorkLimitExceeded,
)
from .field import BinaryField
from .parallel import run_partitioned
from .linalg import fq_rank, fqm_span_dim, gaussian_binomial
from .scatter import DEFAULT_BUDGET, exhaustive_scan, weight_spectrum


@dataclass
class RankCode:
    """[n, k]_{q^m/q} code with generator columns an F_q-basis of U."""

    field: BinaryField
    n: int
    k: int
    m: int
    generator: tuple  # k rows of length n
    system: object  # the FqSubspace U
    _span_table: Optional[tuple] = dc_field(default=None, repr=False)

    def encode(self, message):
        mul = self.field.mul
        out = []
        for j in range(self.n):
            acc = 0
            for i in range(self.k):
                acc ^= mul(message[i], self.generator[i][j])
            out.append(acc)
        return tuple(out)


def code_from_system(U):
    """Build the code whose generator columns are U's canonical basis."""
    field = U.field
    k = U.r
    n = U.dim_q
    if fqm_span_dim(field, U.basis) < k:
        raise DegenerateSystem("system does not span the ambient space")
    generator = tuple(
        tuple(U.basis[j][i] for j in range(n)) for i in range(k)
    )
    return RankCode(field, n, k, field.m, generator, U)


def rank_weight(field, v):
    """dim_{F_q} of the span of the codeword coordinates."""
    return fq_rank(field, [(x,) for x in v])


# -- codeword scan -----------------------------------------------------------


def _codeword_scan_worker(args, widx, nworkers):
    from .gfbatch import Gf64Tables, CodewordScanner

    field, gen_rows = args
    scanner = CodewordScanner(Gf64Tables(field), gen_rows)
    total = scanner.total_messages()
    per, rem = divmod(total, nworkers)
    lo = widx * per + min(widx, rem)
    hi = lo + per + (1 if widx < rem else 0)
    if hi <= lo:
        return {"min": None, "counts": [0] * 7}
    minw, counts = scanner.scan_range(lo, hi)
    return {"min": minw, "counts": [int(c) for c in counts]}


def codeword_scan(C, workers=1, budget=DEFAULT_BUDGET):
    """Minimum rank weight and weight distribution over all codewords.

    Scaling a message by F_{q^m}^* keeps the rank weight of its codeword,
    so one message per orbit is scanned (first nonzero coordinate 1, in
    gfbatch.ids_to_points order) and each count is multiplied by the
    orbit size q^m - 1.  Exhaustive (q = 2 only); returns (d,
    distribution dict w -> count).
    """
    from .gfbatch import CodewordScanner, check_scan_shape

    field = C.field
    orbits = (field.order**C.k - 1) // (field.order - 1)
    if orbits > budget:
        raise WorkLimitExceeded(orbits, budget)
    check_scan_shape(CodewordScanner, field, C.k, C.n)
    scale = field.order - 1
    results = run_partitioned(_codeword_scan_worker, (field, C.generator), workers)
    counts = [0] * 7
    d = C.n
    for res in results:
        if res["min"] is not None:
            d = min(d, res["min"])
        counts = [a + b for a, b in zip(counts, res["counts"])]
    return d, {w: scale * c for w, c in enumerate(counts) if c}


# -- span table (F_q side) ----------------------------------------------------


def span_table(C, workers=1, budget=DEFAULT_BUDGET):
    """best[j] = max dim_q of S <= U with dim <S>_{F_{q^m}} <= j.

    Derived from minspan[d], the least span of a d-dim subspace of U
    (the first nonzero entry of its span histogram), which is
    non-decreasing in d; cached on the code object.
    """
    if C._span_table is not None:
        return C._span_table
    field = C.field
    total = sum(gaussian_binomial(C.n, d, field.q) for d in range(C.n + 1))
    if total > budget:
        raise WorkLimitExceeded(total, budget)
    ds = range(1, C.n + 1)
    scans = exhaustive_scan(C.system, ds, False, workers)
    minspan = [0] + [next(v for v, c in enumerate(hist) if c) for _, hist in scans]
    best = []
    for j in range(C.k + 1):
        best.append(max(d for d in range(C.n + 1) if minspan[d] <= j))
    table = tuple(best)
    C._span_table = table
    return table


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


def _checked_distance(C, workers, budget):
    """d by codeword scan and by hyperplane scan, which must agree.

    The nonzero messages of one F_{q^m}^*-orbit have one hyperplane H as
    kernel, and their codewords have rank weight n - weight(U, H), so the
    whole codeword distribution must equal q^m - 1 times the hyperplane
    histogram read at n - w.  Returns (d, codeword weight distribution,
    hyperplane weight histogram).
    """
    d_code, dist = codeword_scan(C, workers=workers, budget=budget)
    spec1 = weight_spectrum(C.system, codim=1, workers=workers, budget=budget)
    d_hyper = C.n - max(spec1)
    if d_code != d_hyper:
        raise InvariantViolation(
            "codeword scan gives d = %d, hyperplane scan d = %d" % (d_code, d_hyper)
        )
    scale = C.field.order - 1
    from_hyperplanes = {C.n - w: scale * c for w, c in spec1.items()}
    if dist != from_hyperplanes:
        raise InvariantViolation(
            "codeword distribution %r, hyperplane scan gives %r"
            % (dist, from_hyperplanes)
        )
    return d_code, dist, spec1


def min_distance(C, workers=1, budget=DEFAULT_BUDGET):
    """Minimum distance by codeword scan and hyperplane scan; must agree."""
    return _checked_distance(C, workers, budget)[0]


def generalized_weight(
    C, rho, algorithm="both", workers=1, budget=DEFAULT_BUDGET
):
    """rho-generalized rank weight d_rho, 1 <= rho <= k."""
    if not 1 <= rho <= C.k:
        raise ValueError("rho out of range")
    vals = {}
    if algorithm in ("fq_side", "both"):
        best = span_table(C, workers=workers, budget=budget)
        vals["fq_side"] = C.n - best[C.k - rho]
    if algorithm in ("subspace_scan", "both"):
        if rho == C.k:
            vals["subspace_scan"] = C.n
        else:
            spec = weight_spectrum(
                C.system, codim=rho, workers=workers, budget=budget
            )
            vals["subspace_scan"] = C.n - max(spec)
    if len(set(vals.values())) != 1:
        raise InvariantViolation("d_%d disagrees between algorithms: %r" % (rho, vals))
    return next(iter(vals.values()))


@dataclass
class WeightProfile:
    """Distance profile and MRD classification of one code."""

    n: int
    k: int
    m: int
    d: int
    d_rho: tuple  # indexed rho = 1..k
    singleton_ok: bool
    is_mrd: bool
    rho_mrd_flags: tuple
    near_mrd: bool
    mode: str
    spectrum: Optional[dict] = None
    checks: dict = dc_field(default_factory=dict)

    def to_json(self):
        return {
            "n": self.n,
            "k": self.k,
            "m": self.m,
            "d": self.d,
            "d_rho": list(self.d_rho),
            "singleton_ok": self.singleton_ok,
            "is_mrd": self.is_mrd,
            "rho_mrd": list(self.rho_mrd_flags),
            "near_mrd": self.near_mrd,
            "mode": self.mode,
            "spectrum": (
                {str(w): c for w, c in sorted(self.spectrum.items())}
                if self.spectrum is not None
                else None
            ),
            "checks": self.checks,
        }


# the d_rho cross-checked by subspace scans in classify: rho = 1 reads
# the hyperplane scan behind d, and rho = 2 (the 17M-line scan) is left out
ORACLE_RHOS = (1, 3, 4)


def classify(C, workers=1, budget=DEFAULT_BUDGET):
    """Full profile: d, all d_rho, Singleton equality and MRD flags.

    d comes from the codeword scan and the hyperplane scan (must agree);
    d_rho from the F_q-side table, cross-checked by subspace scans for
    every rho in ORACLE_RHOS.  An MRD code's codeword distribution must
    equal Delsarte's closed form.
    """
    n, k, m = C.n, C.k, C.m
    d, dist, spec1 = _checked_distance(C, workers, budget)
    best = span_table(C, workers=workers, budget=budget)
    d_rho = tuple(n - best[k - rho] for rho in range(1, k + 1))
    checks = {
        "d_codeword_scan": d,
        "d_hyperplane_scan": d,
        "hyperplane_weight_hist": {str(w): c for w, c in sorted(spec1.items())},
    }
    for rho in ORACLE_RHOS:
        if rho == 1:
            got = n - max(spec1)
        else:
            got = generalized_weight(
                C, rho, algorithm="subspace_scan", workers=workers, budget=budget
            )
        if got != d_rho[rho - 1]:
            raise InvariantViolation(
                "subspace scan gives d_%d = %d, F_q side %r" % (rho, got, d_rho)
            )
        checks["d_%d_subspace_scan" % rho] = got
    mk = m * k
    singleton_ok = mk <= min(m * (n - d + 1), n * (m - d + 1))
    is_mrd = mk == min(m * (n - d + 1), n * (m - d + 1))
    rho_mrd_flags = tuple(d_rho[rho - 1] == n - k + rho for rho in range(1, k + 1))
    near_mrd = d == n - k and all(rho_mrd_flags[1:])
    if d != d_rho[0]:
        raise InvariantViolation("d = %d but d_1 = %d" % (d, d_rho[0]))
    if is_mrd:
        delsarte = mrd_weight_distribution(n, m, d, C.field.q)
        if dist != {w: c for w, c in delsarte.items() if c}:
            raise ClosedFormMismatch(
                "MRD code has distribution %r, Delsarte gives %r" % (dist, delsarte)
            )
    return WeightProfile(
        n=n,
        k=k,
        m=m,
        d=d,
        d_rho=d_rho,
        singleton_ok=singleton_ok,
        is_mrd=is_mrd,
        rho_mrd_flags=rho_mrd_flags,
        near_mrd=near_mrd,
        mode="exhaustive",
        spectrum=dist,
        checks=checks,
    )
