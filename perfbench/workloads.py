"""The four workloads, the inputs each makes from its seed, and the checks
that every certificate it produces must pass.

Deterministic certificates are compared with stored references
(reference/*.json) and, independently of any second scan, with closed
forms.  Seeded certificates are checked against invariants that hold
for every seed.
"""

import json
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable, Tuple

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

Q8_SAMPLES = 10_000  # per test (fast and oracle): ~3 s per step
AGREEMENT_COUNT = 150  # random subspaces: ~7 s per step


def gaussian_binomial(n, k, q):
    """Number of k-dim subspaces of an n-dim space over F_q."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def mrd_weight_distribution(n, m, d, q):
    """Rank weight distribution of a linear MRD code (Delsarte 1978).

    Codewords are m x n matrices over F_q seen with n <= m; returns
    {weight: count} for the nonzero codewords, weights d..n.
    """
    out = {}
    for s in range(d, n + 1):
        acc = 0
        for j in range(s - d + 1):
            acc += (
                (-1) ** j
                * q ** (j * (j - 1) // 2)
                * gaussian_binomial(s, j, q)
                * (q ** (m * (s - d - j + 1)) - 1)
            )
        out[s] = gaussian_binomial(n, s, q) * acc
    return out


# q = 2 constants of U_1 < F_64^4 (dim_q U = 8, |L(U)| = 255).
LINES = gaussian_binomial(4, 2, 64)  # 17,047,617
HYPERPLANES = gaussian_binomial(4, 3, 64)  # 266,305
# every nonzero u in U lies in [3, 2]_64 = [3, 1]_64 = 4161 hyperplanes
# (and lines), so sum_H (2^w(H) - 1) counts 255 * 4161 incidences
INCIDENCES = (2**8 - 1) * gaussian_binomial(3, 1, 64)  # 1,061,055
# the [8, 4, 4]_{64/2} code: 8 x 6 matrices, so n = 6 <= m = 8 for Delsarte
CODEWORDS = mrd_weight_distribution(6, 8, 4, 2)  # {4: 166005, 5: ..., 6: ...}
TRIPLES = comb(255, 3)  # 2,731,135


def _incidences(hist):
    return sum((2 ** int(w) - 1) * c for w, c in hist.items())


def _canonical(obj):
    return json.dumps(obj, sort_keys=True, indent=2)


def load_reference(name):
    return json.loads((REFERENCE_DIR / (name + ".json")).read_text())


def _run_checks(checks, cert):
    """[(check name, passed)]; a malformed certificate fails the check."""
    out = []
    for name, pred in checks:
        try:
            ok = bool(pred(cert))
        except (KeyError, TypeError, ValueError, AttributeError, IndexError):
            ok = False
        out.append((name, ok))
    return out


def _reference_checks(ref_name):
    ref = load_reference(ref_name)
    return [
        ("command", lambda c: c["command"] == ref["command"]),
        ("reference_result",
         lambda c: _canonical(c["result"]) == _canonical(ref["result"])),
    ]


def check_verify_q2(cert):
    fast = lambda c: c["result"]["fast"]  # noqa: E731
    oracle = lambda c: c["result"]["oracle"]  # noqa: E731
    hist = lambda c: oracle(c)["details"]["weight_hist"]  # noqa: E731
    return _run_checks(
        _reference_checks("verify_scattered_q2") + [
            ("ok", lambda c: c["ok"] is True),
            ("fast_count", lambda c: fast(c)["checked_count"] == gaussian_binomial(8, 3, 2)),
            ("fast_no_witness", lambda c: fast(c)["ok"] and fast(c)["witness"] is None),
            ("oracle_count", lambda c: oracle(c)["checked_count"] == LINES),
            ("oracle_no_witness", lambda c: oracle(c)["ok"] and oracle(c)["witness"] is None),
            ("line_hist_total", lambda c: sum(hist(c).values()) == LINES),
            ("line_incidences", lambda c: _incidences(hist(c)) == INCIDENCES),
            ("weight2_lines", lambda c: hist(c)["2"] == gaussian_binomial(8, 2, 2)),
        ],
        cert,
    )


def check_code_profile(cert):
    prof = lambda c: c["result"]["profile"]  # noqa: E731
    hyper = lambda c: prof(c)["checks"]["hyperplane_weight_hist"]  # noqa: E731
    spectrum = lambda c: {int(w): n for w, n in prof(c)["spectrum"].items()}  # noqa: E731
    return _run_checks(
        _reference_checks("code_profile_q2") + [
            ("ok", lambda c: c["ok"] is True),
            ("mrd_distribution", lambda c: spectrum(c) == CODEWORDS),
            ("codeword_total", lambda c: sum(spectrum(c).values()) == 64**4 - 1),
            ("hyperplane_total", lambda c: sum(hyper(c).values()) == HYPERPLANES),
            ("hyperplane_incidences", lambda c: _incidences(hyper(c)) == INCIDENCES),
            ("spectrum_matches_hyperplanes",
             lambda c: spectrum(c) == {8 - int(w): 63 * n for w, n in hyper(c).items()}),
            ("d_rho", lambda c: prof(c)["d_rho"] == [4, 6, 7, 8] and prof(c)["d"] == 4),
            ("near_mrd", lambda c: prof(c)["near_mrd"] is True),
        ],
        cert,
    )


def check_saturating(cert):
    verdict = lambda c: c["result"]["verdict"]  # noqa: E731
    return _run_checks(
        _reference_checks("saturating_q2") + [
            ("ok", lambda c: c["ok"] is True and verdict(c)["ok"] is True),
            ("triples", lambda c: verdict(c)["checked_count"] == TRIPLES),
            ("covered", lambda c: verdict(c)["details"]["covered_points"] == HYPERPLANES),
            ("no_witness", lambda c: verdict(c)["witness"] is None),
        ],
        cert,
    )


def check_sampled_q8(cert, seed, samples):
    def test(key):
        def pred(c):
            v = c["result"][key]
            return (
                v["ok"] is True
                and v["mode"] == "sampled"
                and v["checked_count"] == samples
                and v["witness"] is None
                and v["details"]["seed"] == seed
            )
        return pred

    return _run_checks(
        [
            ("command", lambda c: c["command"] == "verify-scattered"),
            ("ok", lambda c: c["ok"] is True),
            ("fast", test("fast")),
            ("oracle", test("oracle")),
        ],
        cert,
    )


def check_agreement(cert, seed, count):
    res = lambda c: c["result"]  # noqa: E731
    return _run_checks(
        [
            ("ok", lambda c: c["ok"] is True),
            ("seed", lambda c: res(c)["seed"] == seed),
            ("no_mismatch", lambda c: res(c)["mismatches"] == []),
            ("rows", lambda c: res(c)["indices"] == list(range(count))),
        ],
        cert,
    )


# -- workloads -----------------------------------------------------------------


@dataclass(frozen=True)
class Step:
    """One program run: a fresh process, its certificate and its checks."""

    module: str  # run as `python -m <module> <args>`; has main(argv) -> exit code
    args: Tuple[str, ...]
    check: Callable  # certificate -> [(check name, passed)]
    items: Callable  # certificate -> certified work items


@dataclass(frozen=True)
class Workload:
    name: str
    h: int  # tower exponent of the field built by the set-up probe
    steps: Callable  # seed -> [Step]


def _verify_items(c):
    return c["result"]["fast"]["checked_count"] + c["result"]["oracle"]["checked_count"]


def _certify_steps(seed):
    return [
        Step("qscat.cli",
             ("verify-scattered", "--order", "2", "--oracle", "exhaustive", "--workers", "1"),
             check_verify_q2, _verify_items),
        Step("qscat.cli", ("code-profile", "--workers", "1"), check_code_profile,
             lambda c: sum(c["result"]["profile"]["spectrum"].values())),
    ]


def _saturate_steps(seed):
    return [
        Step("qscat.cli", ("saturating", "--rho", "2", "--workers", "2"), check_saturating,
             lambda c: c["result"]["verdict"]["checked_count"]),
    ]


def _sampled_steps(seed):
    args = ("verify-scattered", "--h", "3", "--mode", "sampled", "--oracle", "sampled",
            "--seed", str(seed), "--samples", str(Q8_SAMPLES))
    return [
        Step("qscat.cli", args, lambda c: check_sampled_q8(c, seed, Q8_SAMPLES), _verify_items),
    ]


def _agreement_steps(seed):
    return [
        Step("perfbench.agreement", (str(AGREEMENT_COUNT), str(seed)),
             lambda c: check_agreement(c, seed, AGREEMENT_COUNT),
             lambda c: len(c["result"]["indices"])),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("q2_certify", 1, _certify_steps),
        Workload("q2_saturate", 1, _saturate_steps),
        Workload("q8_sampled", 3, _sampled_steps),
        Workload("q2_agreement", 1, _agreement_steps),
    )
}
