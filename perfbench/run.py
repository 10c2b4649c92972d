"""qscat benchmark runner.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a qscat source tree (src/qscat must exist).  Each
repetition runs the workload's steps as fresh processes, exactly as a
user runs them, and validates every certificate.  With --trace 0 the
last stdout line holds the end-to-end metrics; with --trace 1 it holds
the per-layer metrics of one traced repetition (see README.md).  The
line before it records the machine, the tree and the raw samples.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from importlib import metadata
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import spans  # noqa: E402
from perfbench.layers import layer_metrics  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

OUT_DIR = ROOT / "perfbench" / ".out"
STEP_TIMEOUT_S = 150
SETUP_REPS = 5

# import of qscat plus the workload's field and U_s, timed in a fresh process
SETUP_CODE = (
    "import time; t0 = time.perf_counter(); import qscat; "
    "from qscat.field import default_field; from qscat.scatter import build_Us; "
    "build_Us(default_field(%d), 1); print(time.perf_counter() - t0)"
)


def child_env():
    env = dict(os.environ)
    path = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


def run_process(argv, stdout_path):
    """Run argv to completion; returns (exit code, rusage of its tree)."""
    with open(stdout_path, "w") as out, open(stdout_path.with_suffix(".err"), "w") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=child_env())
        timer = threading.Timer(STEP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            # wait4 reports the child's own rusage, including the fork
            # workers it reaped, rather than a running total over all children
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def run_step(step, trace_path=None, run_id=""):
    """One step in a fresh process: time, resources, items and checks."""
    stdout_path = OUT_DIR / ("step-%d.out" % os.getpid())
    if trace_path is None:
        argv = [sys.executable, "-m", step.module, *step.args]
    else:
        argv = [sys.executable, "-m", "perfbench.traced", str(trace_path), run_id,
                step.module, *step.args]
    t0 = perf_counter()
    rc, usage = run_process(argv, stdout_path)
    try:
        cert = json.loads(stdout_path.read_text())
    except ValueError:
        cert = None
    checks = [("exit_code", rc == 0)]
    if cert is None:
        checks.append(("certificate", False))
        items = 0
    else:
        checks += step.check(cert)
        try:
            items = int(step.items(cert))
        except (KeyError, TypeError, ValueError):
            items = 0
    wall = perf_counter() - t0
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "items": items,
        "failed": [name for name, ok in checks if not ok],
        "attempted": len(checks),
        "stderr_tail": stdout_path.with_suffix(".err").read_text()[-2000:] if rc else "",
    }


def run_rep(steps, trace_dir=None, run_id=""):
    """All steps of one repetition; q2_certify's two commands add up."""
    outs = []
    for i, step in enumerate(steps):
        trace_path = None if trace_dir is None else trace_dir / ("trace-%d.json" % i)
        outs.append(run_step(step, trace_path, "%s/%d" % (run_id, i)))
    wall = sum(o["wall_s"] for o in outs)
    items = sum(o["items"] for o in outs)
    return {
        "wall_s": wall,
        "cpu_s": sum(o["cpu_s"] for o in outs),
        "peak_rss_mb": max(o["peak_rss_mb"] for o in outs),
        "items": items,
        "items_per_s": items / wall,
        "attempted": sum(o["attempted"] for o in outs),
        "failed": [f for o in outs for f in o["failed"]],
        "stderr_tail": "".join(o["stderr_tail"] for o in outs),
    }


def measure_setup(h):
    """Median set-up time over SETUP_REPS fresh processes (one untimed
    warm-up first, so byte-compiling src/ is not counted)."""
    argv = [sys.executable, "-c", SETUP_CODE % h]
    samples = []
    for i in range(SETUP_REPS + 1):
        path = OUT_DIR / ("setup-%d.out" % os.getpid())
        rc, _ = run_process(argv, path)
        if rc != 0:
            raise RuntimeError("set-up probe failed: %s" % path.with_suffix(".err").read_text())
        if i:
            samples.append(float(path.read_text()))
    return statistics.median(samples), samples


def run_reps(steps, budget_s):
    """Repeat until the next repetition would end after budget_s (>= 1)."""
    reps = []
    t0 = perf_counter()
    while True:
        reps.append(run_rep(steps))
        elapsed = perf_counter() - t0
        if elapsed + elapsed / len(reps) > budget_s:
            return reps


def machine_info():
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "caches": {},
        "python": platform.python_version(),
        "numpy": None,
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            if kind in ("Unified", "Data") and level in ("2", "3"):
                info["caches"]["L" + level] = (idx / "size").read_text().strip()
    except OSError:
        pass
    try:
        info["numpy"] = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        pass
    return info


def tree_info():
    """Git commit when the tree is a checkout, plus src/ size and digest.

    The line count is informational: it is not a gated metric, so a
    change that adds code is never scored as a regression for it.
    """
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"git_commit": commit, "src_sha256": digest.hexdigest(), "src_lines": lines}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(reps, setup_s):
    med = lambda key: statistics.median(r[key] for r in reps)  # noqa: E731
    return {
        "wall_s": _metric(med("wall_s"), "s"),
        "items_per_s": _metric(med("items_per_s"), "1/s"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(med("peak_rss_mb"), "MB"),
        "cpu_s": _metric(med("cpu_s"), "s"),
    }


def traced(steps, run_id, reps):
    """One traced repetition; per-layer metrics plus tracing overhead."""
    trace_dir = OUT_DIR / ("trace-%d" % os.getpid())
    trace_dir.mkdir(parents=True, exist_ok=True)
    rep = run_rep(steps, trace_dir, run_id)
    traces = []
    for i in range(len(steps)):
        path = trace_dir / ("trace-%d.json" % i)
        traces.append(json.loads(path.read_text()))
        path.unlink()
    trace_dir.rmdir()
    all_spans, counts = spans.merge_traces(traces)
    metrics = {k: _metric(v, u) for k, (v, u) in layer_metrics(all_spans, counts).items()}
    baseline = statistics.median(r["wall_s"] for r in reps)
    metrics["trace.overhead_s"] = _metric(rep["wall_s"] - baseline, "s")
    return rep, metrics, spans.span_summary(all_spans)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = p.parse_args(argv)

    if not (ROOT / "src" / "qscat" / "__init__.py").is_file():
        print("perfbench: no qscat source tree at %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    try:
        return measure(ns)
    finally:
        for path in OUT_DIR.glob("*-%d.*" % os.getpid()):
            path.unlink()


def measure(ns):
    """Set-up, repetitions and (traced) metrics of one run; prints them."""
    workload = WORKLOADS[ns.workload]
    steps = workload.steps(ns.seed)

    setup_s, setup_samples = measure_setup(workload.h)
    budget = ns.seconds / 2 if ns.trace else ns.seconds
    reps = run_reps(steps, budget)
    all_reps = list(reps)
    summary = None
    if ns.trace:
        traced_rep, metrics, summary = traced(
            steps, "%s/seed=%d" % (workload.name, ns.seed), reps)
        all_reps.append(traced_rep)
    else:
        metrics = end_to_end(reps, setup_s)

    attempted = sum(r["attempted"] for r in all_reps)
    failed = sum(len(r["failed"]) for r in all_reps)
    if ns.trace:
        metrics["fail_ratio"] = _metric(failed / attempted, "ratio")
    for r in all_reps:
        if r["stderr_tail"]:
            print(r["stderr_tail"], file=sys.stderr)
    info = {
        "workload": workload.name,
        "seed": ns.seed,
        "seconds": ns.seconds,
        "trace": ns.trace,
        "inputs": [[s.module, *s.args] for s in steps],
        "machine": machine_info(),
        "tree": tree_info(),
        "setup_samples_s": setup_samples,
        "reps": [
            {k: r[k] for k in ("wall_s", "cpu_s", "peak_rss_mb", "items", "failed")}
            for r in all_reps
        ],
        "spans": summary,
    }
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
