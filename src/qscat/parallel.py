"""Deterministic work partitioning: worker `start` of `stride`.

Each fn decides what worker start of stride takes: the exhaustive
scans deal contiguous chunks round-robin (chunk k to worker k mod
stride, gfbatch._rref_chunks), and the agreement suite and saturation
deal items start, start + stride, ....  Workers receive their
arguments, built field objects included, as they are (one worker) or
pickled into a fork pool; results merge in worker-index order so
certificates do not depend on the worker count.
"""

import multiprocessing


def _invoke(payload):
    fn, args, start, stride = payload
    return fn(args, start, stride)


def run_partitioned(fn, args, workers):
    """Run fn(args, start, workers) for start in range(workers)."""
    if workers <= 1:
        return [fn(args, 0, 1)]
    ctx = multiprocessing.get_context("fork")
    payloads = [(fn, args, w, workers) for w in range(workers)]
    with ctx.Pool(workers) as pool:
        return pool.map(_invoke, payloads)
