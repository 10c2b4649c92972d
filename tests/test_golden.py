"""Certificate `result` blocks compared byte for byte with stored goldens.

The files under tests/golden/ hold the expected `result` block of each
command below, so any change to what a certificate says shows up here.
Commands whose scans take a worker count run at 1 and 2 workers.
"""

import json
from pathlib import Path

import pytest

from qscat import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "field_selftest": (["field-selftest"], False),
    "verify_dual": (["verify-dual"], False),
    "equivalence": (["equivalence"], False),
    "system_count": (["system-count", "--count", "500", "--seed", "7"], False),
    "spectrum_codim3": (["spectrum", "--codim", "3"], True),
    "spectrum_codim1_fixed": (["spectrum", "--codim", "1", "--fixed-only"], True),
    "verify_scattered_q8_sampled": (
        ["verify-scattered", "--h", "3", "--mode", "sampled", "--oracle",
         "sampled", "--samples", "300", "--seed", "42"],
        True,
    ),
}

RUNS = [
    (name, workers)
    for name, (_, takes_workers) in CASES.items()
    for workers in ((1, 2) if takes_workers else (1,))
]


@pytest.mark.parametrize("name,workers", RUNS)
def test_result_matches_golden(name, workers, capsys):
    argv = CASES[name][0] + ["--workers", str(workers)]
    assert cli.main(argv) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    expected = (GOLDEN / ("%s.json" % name)).read_text()
    assert json.dumps(result, sort_keys=True, indent=2) + "\n" == expected
