"""Certificate `result` blocks compared byte for byte with stored goldens.

The files under tests/golden/ hold the expected `result` block of each
command below, so any change to what a certificate says shows up here.
Commands whose scans take a worker count run at 1 and 2 workers.  The
sampled goldens (h = 1, 3, 5 at orders 1-3) and the planted q = 2
verdicts were written by the one-sample-at-a-time sampled loops that the
batched ones replaced; `saturating --rho 1` by
the point-id kernels that built [P, 64, 4] coordinate arrays before the
XOR-packed ones; closed_forms.json by the constructions that listed each
system's two T-families by hand; verify_dual_h3 and equivalence_h3 by the
dual scene that intersected F_q-spans, solved for Gamma-perp by
elimination and rebuilt A.U_1 to compare it; verify_dual_h5 and
equivalence_h5 by the layer that wrapped each F_{q^6} matrix in a class
and built its inverse in apply_gl.
"""

import json
from pathlib import Path

import pytest

from qscat import cli
from qscat.dual import (
    build_scene,
    dual_closed_form_1,
    dual_closed_form_2,
    primal_closed_form,
    rearranged_dual,
)
from qscat.linalg import rows_to_text
from qscat.scatter import (
    build_U5prime,
    build_Us,
    is_h_scattered_fast,
    is_h_scattered_oracle,
)

GOLDEN = Path(__file__).resolve().parent / "golden"

# name -> (argv, takes_workers, exit code)
CASES = {
    "field_selftest": (["field-selftest"], False, 0),
    "verify_dual": (["verify-dual"], False, 0),
    "equivalence": (["equivalence"], False, 0),
    "verify_dual_h3": (["verify-dual", "--h", "3"], False, 0),
    "equivalence_h3": (["equivalence", "--h", "3"], False, 0),
    # GF(2^30) has no exp/log tables: det, mat_vec and apply_gl multiply
    # by poly_mulmod there
    "verify_dual_h5": (["verify-dual", "--h", "5"], False, 0),
    "equivalence_h5": (["equivalence", "--h", "5"], False, 0),
    "system_count": (["system-count", "--count", "500", "--seed", "7"], False, 0),
    "spectrum_codim3": (["spectrum", "--codim", "3"], True, 0),
    "spectrum_codim1_fixed": (["spectrum", "--codim", "1", "--fixed-only"], True, 0),
    # refuted: the witness is the first point off the marked lines
    "saturating_rho1": (["saturating", "--rho", "1"], True, 1),
    "verify_scattered_q8_sampled": (
        ["verify-scattered", "--h", "3", "--mode", "sampled", "--oracle",
         "sampled", "--samples", "300", "--seed", "42"],
        True,
        0,
    ),
}
for _h, _samples in ((1, 500), (3, 200), (5, 100)):
    for _order in (1, 2, 3):
        CASES["sampled_h%d_order%d" % (_h, _order)] = (
            ["verify-scattered", "--h", str(_h), "--mode", "sampled", "--oracle",
             "sampled", "--order", str(_order), "--samples", str(_samples),
             "--seed", "5"],
            False,
            1 if (_h, _order) == (1, 3) else 0,
        )

RUNS = [
    (name, workers)
    for name, (_, takes_workers, _) in CASES.items()
    for workers in ((1, 2) if takes_workers else (1,))
]


def golden_text(name):
    return (GOLDEN / ("%s.json" % name)).read_text()


def as_golden(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("name,workers", RUNS)
def test_result_matches_golden(name, workers, capsys):
    argv, _, code = CASES[name]
    assert cli.main(argv + ["--workers", str(workers)]) == code
    result = json.loads(capsys.readouterr().out)["result"]
    assert as_golden(result) == golden_text(name)


def test_closed_form_bases_match_golden(F, F8):
    """The canonical bases of the eight closed-form systems, as
    rows_to_text writes them, at q = 2 and q = 8."""
    got = {}
    for field in (F, F8):
        systems = {
            "U1": build_Us(field, 1),
            "U5": build_Us(field, 5),
            "U5prime": build_U5prime(field),
            "primal": primal_closed_form(field),
            "dual1": dual_closed_form_1(field),
            "dual2": dual_closed_form_2(field),
            "rearranged": rearranged_dual(field),
            "W": build_scene(field).W,
        }
        got[str(field.q)] = {
            name: rows_to_text(field, U.r, U.basis) for name, U in systems.items()
        }
    assert as_golden(got) == golden_text("closed_forms")


def test_planted_q2_sampled_verdicts(U_planted):
    U = U_planted
    verdicts = {
        "fast_order1": is_h_scattered_fast(U, 1, mode="sampled", samples=20000, seed=3),
        "fast_order2": is_h_scattered_fast(U, 2, mode="sampled", samples=20000, seed=3),
        "oracle_order2": is_h_scattered_oracle(
            U, 2, mode="sampled", samples=20000, seed=3
        ),
    }
    assert not any(v.ok for v in verdicts.values())
    got = {name: v.to_json() for name, v in verdicts.items()}
    assert as_golden(got) == golden_text("planted_q2_sampled")
