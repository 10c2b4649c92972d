"""The q2_agreement step: fast/oracle agreement on seeded random subspaces.

    python -m perfbench.agreement <count> <seed>

There is no CLI command for this library call (acceptance criterion 10's
workload), so this prints a certificate-shaped JSON object for it and
exits 0 when no subspace gets different verdicts from the two tests.

Only order 1 is checked.  At order 2 every random subspace is refuted by
an oracle line scan that stops at its first witness, whose position is
spread so widely that 100 subspaces cost 14-19 s depending on the seed
(interquartile range 17.5% of the median over five seeds); a seed-steady
figure would need ~500 subspaces per run.  The full line scan is timed
on q2_certify instead.
"""

import json
import sys

ORDERS = (1,)


def main(argv):
    count, seed = int(argv[0]), int(argv[1])
    from qscat.field import default_field
    from qscat import scatter

    mismatches, rows = scatter.fast_oracle_agreement(
        default_field(1), count, seed=seed, orders=ORDERS, workers=1
    )
    cert = {
        "command": "fast-oracle-agreement",
        "ok": not mismatches,
        "result": {
            "count": count,
            "seed": seed,
            "orders": list(ORDERS),
            "indices": [r["index"] for r in rows],
            "mismatches": [r["index"] for r in mismatches],
        },
    }
    print(json.dumps(cert, sort_keys=True))
    return 0 if not mismatches else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
