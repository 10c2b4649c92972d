"""Per-layer metrics derived from one traced run's spans and counters.

Times of spans recorded in fork workers are summed over workers, so a
layer's `items_per_s` is its per-worker throughput.  A layer the
workload never reaches reads 0.
"""

POINT_COUNT = 64**3 + 64**2 + 64 + 1  # points of PG(3, 64)


def _ancestor_named(spans_by_id, span, name):
    p = span["parent"]
    while p is not None:
        s = spans_by_id[p]
        if s["name"] == name:
            return s
        p = s["parent"]
    return None


def _rate(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(spans, counts):
    """name -> (value, unit) for every per-layer metric but the run-level
    ones (trace.overhead_s and fail_ratio, which run.py adds)."""
    by_id = {s["id"]: s for s in spans}
    dur = {}
    items = {}
    n_spans = {}
    for s in spans:
        d = s["end"] - s["start"]
        dur[s["name"]] = dur.get(s["name"], 0.0) + d
        items[s["name"]] = items.get(s["name"], 0) + s["attrs"].get("items", 0)
        n_spans[s["name"]] = n_spans.get(s["name"], 0) + 1

    def total(name):
        return dur.get(name, 0.0)

    def throughput(name):
        return (_rate(items.get(name, 0), total(name)), "1/s")

    def cnt(name):
        return counts.get(name, [0, 0.0])

    m = {}

    # gfbatch
    m["gfbatch.dual_codim.items_per_s"] = throughput("gfbatch.dual_codim")
    m["gfbatch.dual_codim.s"] = (total("gfbatch.dual_codim"), "s")
    m["gfbatch.fq_span.items_per_s"] = throughput("gfbatch.fq_span")
    m["gfbatch.codeword.items"] = (items.get("gfbatch.codeword", 0), "count")
    m["gfbatch.codeword.items_per_s"] = throughput("gfbatch.codeword")
    scanners = (total("gfbatch.dual_codim") + total("gfbatch.fq_span")
                + total("gfbatch.codeword"))
    m["gfbatch.rank_batch.rows_per_s"] = throughput("gfbatch.rank_batch")
    m["gfbatch.rank_batch.share"] = (_rate(total("gfbatch.rank_batch"), scanners), "ratio")
    m["gfbatch.rref_small.items_per_s"] = throughput("gfbatch.rref_small")
    m["gfbatch.plane_point_ids.ids_per_s"] = throughput("gfbatch.plane_point_ids")
    m["gfbatch.tables.builds"] = (n_spans.get("gfbatch.tables", 0), "count")
    m["gfbatch.tables.s"] = (total("gfbatch.tables"), "s")

    # scatter
    m["scatter.fast.s"] = (total("scatter.fast"), "s")
    m["scatter.oracle.s"] = (total("scatter.oracle"), "s")
    m["scatter.spectrum.s"] = (total("scatter.spectrum"), "s")
    checked = sum(
        s["attrs"]["checked"] for s in spans
        if s["name"] == "scatter.oracle" and s["attrs"].get("mode") == "exhaustive"
    )
    yielded = sum(
        s["attrs"].get("items", 0) for s in spans
        if s["name"] == "gfbatch.dual_codim"
        and _ancestor_named(by_id, s, "scatter.oracle") is not None
    )
    m["scatter.oracle.useful_ratio"] = (_rate(checked, yielded), "ratio")
    for key, name in (("sampled_fast", "scatter.fast"), ("sampled_oracle", "scatter.oracle")):
        sampled = [s for s in spans if s["name"] == name and s["attrs"].get("mode") == "sampled"]
        m["scatter.%s.samples_per_s" % key] = (
            _rate(sum(s["attrs"]["checked"] for s in sampled),
                  sum((s["end"] - s["start"] for s in sampled), 0.0)),
            "1/s")
    m["scatter.agreement.subspaces_per_s"] = throughput("scatter.agreement")
    m["scatter.random_subspace.s"] = (cnt("scatter.random_subspace")[1], "s")

    # rankcode
    for name in ("codeword_scan", "span_table", "generalized_weight", "classify"):
        m["rankcode.%s.s" % name] = (total("rankcode." + name), "s")

    # saturate
    m["saturate.linear_set.s"] = (total("saturate.linear_set"), "s")
    discovery = [
        s for s in spans
        if s["name"] == "parallel.call"
        and _ancestor_named(by_id, s, "saturate.saturating") is not None
    ]
    disc_s = sum((s["end"] - s["start"] for s in discovery), 0.0)
    sat_s = total("saturate.saturating")
    triples = sum(s["attrs"].get("checked", 0) for s in spans
                  if s["name"] == "saturate.saturating")
    m["saturate.discovery.s"] = (disc_s, "s")
    m["saturate.discovery.triples_per_s"] = (_rate(triples, disc_s), "1/s")
    m["saturate.mark.s"] = (total("saturate.mark"), "s")
    stamped = sum(
        s["attrs"].get("items", 0) for s in spans
        if s["name"] == "gfbatch.plane_point_ids"
        and _ancestor_named(by_id, s, "saturate.mark") is not None
    )
    m["saturate.mark.ids_stamped"] = (stamped, "count")
    m["saturate.mark.useful_ratio"] = (
        _rate(POINT_COUNT * n_spans.get("saturate.mark", 0), stamped), "ratio")
    m["saturate.serial_share"] = (_rate(sat_s - disc_s, sat_s), "ratio")

    # parallel: busy, imbalance and overhead over the outermost calls only,
    # since a nested call runs inside a worker of the outer one
    calls = [s for s in spans if s["name"] == "parallel.call"]
    outer = [s for s in calls if _ancestor_named(by_id, s, "parallel.call") is None]
    outer_ids = {s["id"] for s in outer}
    busy = {}
    longest = {}
    for s in spans:
        if s["name"] == "parallel.worker" and s["parent"] in outer_ids:
            d = s["end"] - s["start"]
            busy[s["attrs"]["worker"]] = busy.get(s["attrs"]["worker"], 0.0) + d
            longest[s["parent"]] = max(longest.get(s["parent"], 0.0), d)
    m["parallel.calls"] = (len(calls), "count")
    m["parallel.worker0.busy_s"] = (busy.get(0, 0.0), "s")
    m["parallel.worker1.busy_s"] = (busy.get(1, 0.0), "s")
    mean_busy = sum(busy.values()) / len(busy) if busy else 0.0
    m["parallel.imbalance"] = (_rate(max(busy.values(), default=0.0), mean_busy), "ratio")
    m["parallel.overhead_s"] = (
        sum(((s["end"] - s["start"]) - longest.get(s["id"], 0.0) for s in outer), 0.0),
        "s")

    # scalar layers
    for name in ("fqm_span_dim", "weight"):
        m["linalg.%s.calls" % name] = (cnt("linalg." + name)[0], "count")
        m["linalg.%s.s" % name] = (cnt("linalg." + name)[1], "s")
    for name in ("fq_span", "fqm_span", "rref_decode"):
        m["linalg.%s.calls" % name] = (cnt("linalg." + name)[0], "count")
    m["field.mul.calls"] = (cnt("field.mul")[0], "count")
    m["field.frob.calls"] = (cnt("field.frob")[0], "count")
    m["field.build.count"] = (cnt("field.build")[0], "count")
    m["field.build.s"] = (cnt("field.build")[1], "s")
    for name in ("rank_bits", "rref_bits", "apply_cols"):
        m["gf2.%s.calls" % name] = (cnt("gf2." + name)[0], "count")
        m["gf2.%s.s" % name] = (cnt("gf2." + name)[1], "s")
    m["rng.draws"] = (cnt("rng.draws")[0], "count")
    return m
