"""Run one workload step with the tracing wrappers installed.

    python -m perfbench.traced <trace.json> <run id> <module> <args...>

The step runs as it does untraced: `<module>.main(args)`, the function
`python -m <module> <args...>` calls.  The spans and counters are
written to <trace.json> when it ends.
"""

import importlib
import json
import sys

from perfbench import spans


def main(argv):
    out_path, run_id, module, rest = argv[0], argv[1], argv[2], argv[3:]
    tracer = spans.Tracer(run_id)
    spans.install(tracer)
    try:
        return importlib.import_module(module).main(rest)
    finally:
        with open(out_path, "w") as fh:
            json.dump(tracer.to_json(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
