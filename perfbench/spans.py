"""Out-of-program tracing: spans and counters around qscat's public calls.

Nothing under src/ knows about this module.  `install` replaces functions
and methods at the module or class attribute through which qscat reaches
them (including names a module imported from another with
`from .x import name`), so one traced process records:

* spans (name, start, end, parent, run id, attrs) for the coarse calls:
  scans, certifications, scanner chunks, fork calls;
* counters (calls, inclusive seconds) for the hot scalar calls, where a
  span per call would cost more memory than the run itself.

Fork workers reached through `parallel.run_partitioned` record into their
own copy of the tracer; the wrapped `run_partitioned` ships that copy back
with the worker's result and grafts it under the call's span.
"""

import functools
import os
import sys
from time import perf_counter

# The tracer the installed wrappers record into.  Wrappers are process
# global by nature (they replace module attributes), and fork workers
# find their copy of the tracer here.
_ACTIVE = None


class Tracer:
    """In-memory spans and counters of one traced process."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.counts = {}
        self._stack = []

    def begin(self, name, **attrs):
        span = {
            "id": len(self.spans),
            "name": name,
            "start": perf_counter(),
            "end": None,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "run": self.run_id,
            "attrs": attrs,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span):
        span["end"] = perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError("span %s closed out of order" % span["name"])

    def counter(self, name):
        """The [calls, seconds] cell for `name`, shared with its wrapper."""
        return self.counts.setdefault(name, [0, 0.0])

    def reset(self):
        """Forget everything recorded (a fork worker's inherited copy)."""
        self.spans = []
        self._stack = []
        for cell in self.counts.values():
            cell[0] = 0
            cell[1] = 0.0

    def graft(self, spans, counts, parent):
        """Add a worker's spans under span `parent` and sum its counters."""
        offset = len(self.spans)
        for s in spans:
            s = dict(s)
            s["id"] += offset
            s["parent"] = parent if s["parent"] is None else s["parent"] + offset
            self.spans.append(s)
        for name, (calls, secs) in counts.items():
            cell = self.counter(name)
            cell[0] += calls
            cell[1] += secs

    def to_json(self):
        return {
            "run": self.run_id,
            "spans": self.spans,
            "counts": {k: list(v) for k, v in self.counts.items()},
        }


# -- wrappers -----------------------------------------------------------------


def span_call(tracer, name, attrs_in=None, attrs_out=None):
    """Wrap a call in a span; attrs_in/attrs_out derive attrs from the
    arguments and from the return value."""

    def wrap(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = attrs_in(*args, **kwargs) if attrs_in else {}
            span = tracer.begin(name, **attrs)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if attrs_out:
                span["attrs"].update(attrs_out(out))
            return out

        return wrapper

    return wrap


def span_generator(tracer, name, items):
    """Wrap a generator function: one span per next(), items per yield.

    Only the time spent producing an item is inside a span; the
    consumer's work between items is not.
    """

    def wrap(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    span = tracer.begin(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.end(span)
                    span["attrs"]["items"] = items(item)
                    yield item
            finally:
                inner.close()

        return wrapper

    return wrap


def count_calls(tracer, name):
    def wrap(fn):
        cell = tracer.counter(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    return wrap


def time_calls(tracer, name):
    def wrap(fn):
        cell = tracer.counter(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                cell[0] += 1
                cell[1] += perf_counter() - t0

        return wrapper

    return wrap


class _WorkerCall:
    """Picklable stand-in for the fn given to run_partitioned."""

    def __init__(self, fn):
        self.fn = fn
        self.caller_pid = os.getpid()

    def __call__(self, args, start, stride):
        tracer = _ACTIVE
        remote = os.getpid() != self.caller_pid
        if remote:
            tracer.reset()
        span = tracer.begin("parallel.worker", worker=start)
        try:
            out = self.fn(args, start, stride)
        finally:
            tracer.end(span)
        if remote:
            return _WorkerTrace(out, tracer.spans, tracer.counts)
        return out


class _WorkerTrace:
    """A fork worker's result together with what it recorded."""

    def __init__(self, result, spans, counts):
        self.result = result
        self.spans = spans
        self.counts = {k: list(v) for k, v in counts.items()}


def traced_run_partitioned(tracer):
    def wrap(fn):
        @functools.wraps(fn)
        def wrapper(work, args, workers):
            span = tracer.begin("parallel.call", workers=workers)
            try:
                outs = fn(_WorkerCall(work), args, workers)
            finally:
                tracer.end(span)
            results = []
            for out in outs:
                if isinstance(out, _WorkerTrace):
                    tracer.graft(out.spans, out.counts, span["id"])
                    out = out.result
                results.append(out)
            return results

        return wrapper

    return wrap


# -- installation -------------------------------------------------------------


def _patch(owner, attr, wrap, undo):
    """Replace owner.attr by wrap(original) everywhere qscat reaches it."""
    orig = owner.__dict__[attr]
    if isinstance(owner, type):
        if isinstance(orig, classmethod):
            setattr(owner, attr, classmethod(wrap(orig.__func__)))
        else:
            setattr(owner, attr, wrap(orig))
        undo.append((owner, attr, orig))
        return
    new = wrap(orig)
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("qscat"):
            continue
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, new)
                undo.append((mod, key, orig))


def _verdict_attrs(v):
    return {"mode": v.mode, "checked": v.checked_count}


def install(tracer):
    """Install every wrapper; returns a function that removes them."""
    global _ACTIVE
    import qscat.cli  # noqa: F401  (holds `weight` imported by name)
    from qscat import field, gf2, gfbatch, linalg, parallel, rankcode, rng
    from qscat import saturate, scatter

    _ACTIVE = tracer
    undo = []
    t = tracer

    def patch(owner, attr, wrap):
        _patch(owner, attr, wrap, undo)

    patch(parallel, "run_partitioned", traced_run_partitioned(t))

    # gfbatch: scanner chunks and batch kernels
    patch(
        gfbatch.DualCodimScanner, "iter_weights",
        span_generator(t, "gfbatch.dual_codim", lambda item: len(item[0])),
    )
    patch(
        gfbatch.FqSpanScanner, "iter_span_dims",
        span_generator(t, "gfbatch.fq_span", lambda item: len(item[0])),
    )
    patch(
        gfbatch.CodewordScanner, "scan_range",
        span_call(t, "gfbatch.codeword",
                  attrs_in=lambda self, lo, hi, **kw: {"items": hi - lo}),
    )
    patch(
        gfbatch, "rank_batch",
        span_call(t, "gfbatch.rank_batch",
                  attrs_in=lambda rows, *a, **kw: {"items": len(rows)}),
    )
    patch(
        gfbatch, "rref_small_batch",
        span_call(t, "gfbatch.rref_small",
                  attrs_in=lambda tables, mats: {"items": len(mats)}),
    )
    patch(
        gfbatch, "plane_point_ids",
        span_call(t, "gfbatch.plane_point_ids",
                  attrs_out=lambda ids: {"items": int(ids.size)}),
    )
    patch(gfbatch.Gf64Tables, "__init__", span_call(t, "gfbatch.tables"))

    # scatter
    patch(scatter, "is_h_scattered_fast",
          span_call(t, "scatter.fast", attrs_out=_verdict_attrs))
    patch(scatter, "is_h_scattered_oracle",
          span_call(t, "scatter.oracle", attrs_out=_verdict_attrs))
    patch(scatter, "weight_spectrum", span_call(t, "scatter.spectrum"))
    patch(
        scatter, "fast_oracle_agreement",
        span_call(t, "scatter.agreement",
                  attrs_out=lambda out: {"items": len(out[1])}),
    )
    patch(scatter, "random_fq_subspace", time_calls(t, "scatter.random_subspace"))

    # rankcode
    for name in ("codeword_scan", "span_table", "generalized_weight", "classify"):
        patch(rankcode, name, span_call(t, "rankcode." + name))

    # saturate
    patch(saturate, "linear_set_points", span_call(t, "saturate.linear_set"))
    patch(
        saturate, "is_rho_saturating",
        span_call(t, "saturate.saturating",
                  attrs_out=lambda inst: {"checked": inst.verdict.checked_count}),
    )
    patch(saturate, "_mark_planes", span_call(t, "saturate.mark"))

    # scalar layers: counters only
    patch(linalg, "fqm_span_dim", time_calls(t, "linalg.fqm_span_dim"))
    patch(linalg, "weight", time_calls(t, "linalg.weight"))
    patch(linalg.FqSubspace, "span", count_calls(t, "linalg.fq_span"))
    patch(linalg.FqmSubspace, "span", count_calls(t, "linalg.fqm_span"))
    patch(linalg.RrefEnumerator, "decode", count_calls(t, "linalg.rref_decode"))
    patch(field.BinaryField, "__init__", time_calls(t, "field.build"))
    patch(field.BinaryField, "mul", count_calls(t, "field.mul"))
    patch(field.BinaryField, "frob", count_calls(t, "field.frob"))
    for name in ("rank_bits", "rref_bits", "apply_cols"):
        patch(gf2, name, time_calls(t, "gf2." + name))
    patch(rng.XorShift64Star, "next_u64", count_calls(t, "rng.draws"))

    def uninstall():
        global _ACTIVE
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)
        _ACTIVE = None

    return uninstall


# -- analysis -----------------------------------------------------------------


def merge_traces(traces):
    """One span list and counter table from several traced processes."""
    merged = Tracer(None)
    for tr in traces:
        merged.graft(tr["spans"], tr["counts"], None)
    return merged.spans, merged.counts


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """span id -> duration minus the part of it its children cover.

    Children of one span may overlap (fork workers run side by side), so
    the covered part is the union of their intervals clipped to the span.
    """
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        clipped = [
            (max(c["start"], lo), min(c["end"], hi))
            for c in children.get(s["id"], ())
            if c["end"] > lo and c["start"] < hi
        ]
        out[s["id"]] = (hi - lo) - _covered(clipped)
    return out


def span_summary(spans):
    """name -> {calls, s, self_s} over all spans of that name."""
    selfs = self_times(spans)
    out = {}
    for s in spans:
        row = out.setdefault(s["name"], {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += s["end"] - s["start"]
        row["self_s"] += selfs[s["id"]]
    return out
