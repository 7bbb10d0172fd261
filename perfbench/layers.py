"""Per-layer metrics from the traced pass: spans plus ``stats`` deltas.

Every name in :data:`PER_LAYER` is reported for every workload; a layer
a workload does not exercise reports 0.  Span times come from
``time.perf_counter`` (the system monotonic clock), so spans recorded in
the server processes are compared directly with the load generator's
measured window.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from .probes import ROW_OVERHEAD_BYTES

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("index.filtering.select_ms_per_fp", "ms", "lower"),
    ("index.filtering.blocks_per_fp", "count", "lower"),
    ("index.filtering.share_of_engine", "ratio", "lower"),
    ("index.batch.engine_ms_per_fp", "ms", "lower"),
    ("index.batch.scan_ms_per_fp", "ms", "lower"),
    ("index.batch.coalescing_factor", "ratio", "higher"),
    ("index.batch.rows_gathered_per_result", "count", "lower"),
    ("index.batch.segments_skipped_ratio", "ratio", "higher"),
    ("index.planner.plans", "count", "lower"),
    ("index.planner.serial", "count", "lower"),
    ("index.planner.threads", "count", "lower"),
    ("index.planner.processes", "count", "lower"),
    ("serve.protocol.decode_ms_per_req", "ms", "lower"),
    ("serve.protocol.encode_ms_per_req", "ms", "lower"),
    ("serve.protocol.response_bytes_per_fp", "B", "lower"),
    ("serve.batcher.wait_ms_p50", "ms", "lower"),
    ("serve.batcher.mean_fill", "count", "higher"),
    ("serve.batcher.engine_stall_tail_ms", "ms", "lower"),
    ("serve.batcher.shed", "count", "lower"),
    ("serve.cache.hit_rate", "ratio", "higher"),
    ("serve.cache.gather_hit_rate", "ratio", "higher"),
    ("serve.cache.inflight_deduped", "count", "higher"),
    ("serve.cache.invalidations", "count", "lower"),
    ("cbcd.voting.vote_ms_per_req", "ms", "lower"),
    ("cbcd.voting.estimate_ms_per_req", "ms", "lower"),
    ("cbcd.voting.identifiers_per_req", "count", "lower"),
    ("cbcd.voting.share_of_detect", "ratio", "lower"),
    ("index.segmented.add_ms_tail", "ms", "lower"),
    ("index.segmented.wal_append_ms_tail", "ms", "lower"),
    ("index.segmented.wal_mean_group_size", "count", "higher"),
    ("index.segmented.wal_bytes_per_user_byte", "ratio", "lower"),
    ("index.segmented.seals", "count", "lower"),
    ("index.segmented.seal_s", "s", "lower"),
    ("index.segmented.compactions", "count", "lower"),
    ("index.segmented.compact_s", "s", "lower"),
    ("index.segmented.rewrite_bytes_per_ingested_byte", "ratio", "lower"),
    ("index.segmented.backpressure_sheds", "count", "lower"),
    ("storage.fetch_bytes_per_fp", "B", "lower"),
    ("storage.fetch_ms_per_fp", "ms", "lower"),
    ("storage.collect_ms_per_fp", "ms", "lower"),
    ("storage.full_fetch_bytes_per_fp", "B", "lower"),
    ("storage.promotions", "count", "lower"),
    ("storage.demotions", "count", "lower"),
    ("storage.prefetch_hit_ratio", "ratio", "higher"),
    ("storage.result_bytes_per_fetched_byte", "ratio", "higher"),
    ("cluster.router.fanout_per_query", "count", "lower"),
    ("cluster.router.shard_skip_ratio", "ratio", "higher"),
    ("cluster.router.merge_ms_per_req", "ms", "lower"),
    ("cluster.router.select_ms_per_fp", "ms", "lower"),
    ("cluster.router.failovers", "count", "lower"),
    ("loadgen.lag_tail_ms", "ms", "lower"),
    ("loadgen.client_decode_ms_per_req", "ms", "lower"),
    ("self.serve.protocol_ms_per_req", "ms", "lower"),
    ("self.serve.batcher_ms_per_req", "ms", "lower"),
    ("self.index.filtering_ms_per_req", "ms", "lower"),
    ("self.index.batch_ms_per_req", "ms", "lower"),
    ("self.cbcd.voting_ms_per_req", "ms", "lower"),
    ("self.index.segmented_ms_per_req", "ms", "lower"),
    ("self.storage_ms_per_req", "ms", "lower"),
    ("self.cluster.router_ms_per_req", "ms", "lower"),
    ("self.loadgen_ms_per_req", "ms", "lower"),
    ("trace.overhead_p50_ms", "ms", "lower"),
    ("trace.overhead_fp_per_s_ratio", "ratio", "lower"),
    ("e2e.query_fp_per_s", "fp/s", "higher"),
    ("e2e.query_p50_ms", "ms", "lower"),
    ("e2e.query_tail_ms", "ms", "lower"),
    ("e2e.detect_fp_per_s", "fp/s", "higher"),
    ("e2e.detect_p50_ms", "ms", "lower"),
    ("e2e.detect_tail_ms", "ms", "lower"),
    ("e2e.ingest_rows_per_s", "rows/s", "higher"),
    ("e2e.ingest_p50_ms", "ms", "lower"),
    ("e2e.ingest_tail_ms", "ms", "lower"),
    ("workload.repeat_share", "ratio", "higher"),
    ("workload.rows_per_fp", "count", "lower"),
    ("workload.archive_mb", "MB", "lower"),
    ("workload.budget_mb", "MB", "lower"),
]

#: Which span names make up each layer's self time.
SELF_SPANS = {
    "serve.protocol": ["serve.protocol.decode", "serve.protocol.result_to_wire",
                       "serve.protocol.encode_frame"],
    "index.filtering": ["index.filtering.statistical_blocks_batch_cached",
                        "index.filtering.statistical_blocks_multi"],
    "index.batch": ["index.batch.query_batch"],
    "cbcd.voting": ["cbcd.voting.vote", "cbcd.voting.estimate_offset"],
    "index.segmented": ["index.segmented.add", "index.segmented.wal_append",
                        "index.segmented.compact", "index.segmented.seal"],
    "storage": ["storage.fetch_ranges", "storage.collect"],
    "cluster.router": ["cluster.router.select", "cluster.router.merge"],
    "loadgen": ["loadgen.client_decode"],
}


def div(a: float, b: float) -> float:
    return float(a) / float(b) if b else 0.0


def window(spans: dict, t0: float, t1: float) -> dict:
    """Spans that started inside the measured window."""
    return {name: [s for s in rows if t0 <= s[0] <= t1] for name, rows in spans.items()}


def _dur(rows) -> float:
    return sum(s[1] - s[0] for s in rows)


def _self(rows) -> float:
    return sum(s[2] for s in rows)


def _tail(values, pct: float) -> float:
    return float(np.percentile(values, pct)) if len(values) else 0.0


def _batcher_waits(spans: dict) -> list[float]:
    """Per request: ``submit_many`` time not spent in its engine call.

    The engine call that answered a request is the last ``query_batch``
    to end inside the request's ``submit_many`` span.
    """
    batches = sorted((s[1], s[1] - s[0]) for s in spans.get("index.batch.query_batch", []))
    ends = np.array([b[0] for b in batches])
    waits = []
    for start, end, _, _ in spans.get("serve.batcher.submit_many", []):
        i = int(np.searchsorted(ends, end, side="right")) - 1
        engine = batches[i][1] if i >= 0 and ends[i] >= start else 0.0
        waits.append(max(0.0, (end - start) - engine))
    return waits


def delta(before: dict, after: dict, *path, default=0.0) -> float:
    def get(d):
        for key in path:
            if not isinstance(d, dict) or key not in d or d[key] is None:
                return default
            d = d[key]
        return d
    return get(after) - get(before)


#: ``stats`` counters reported as they are, summed over serving engines.
COUNTERS = {
    "index.segmented.seals": ("ingest", "maintenance", "seals"),
    "index.segmented.compactions": ("ingest", "maintenance", "compactions"),
    "index.segmented.backpressure_sheds": ("ingest", "backpressure_sheds"),
    "storage.promotions": ("storage", "manager", "counters", "promotions"),
    "storage.demotions": ("storage", "manager", "counters", "demotions"),
    "serve.batcher.shed": ("batcher", "shed"),
}


def counters(stats: list[tuple[dict, dict]]) -> dict[str, float]:
    """The :data:`COUNTERS` deltas and the batcher's mean fill.

    ``stats`` is a ``(before, after)`` pair of ``stats`` payloads per
    serving engine.
    """
    def total(*path):
        return sum(delta(b, a, *path) for b, a in stats)

    out = {name: total(*path) for name, path in COUNTERS.items()}
    out["serve.batcher.mean_fill"] = div(total("batcher", "queries"),
                                          total("batcher", "batches"))
    return out


def per_layer(spans: dict, stats: list[tuple[dict, dict]], router_stats, samples,
              tail_pct: float, ndims: int) -> dict[str, float]:
    """Compute every :data:`PER_LAYER` metric.

    ``stats`` is a ``(before, after)`` pair of ``stats`` payloads per
    serving engine (one server, or every shard); ``router_stats`` the
    router's pair or ``None``; ``samples`` the measured client samples.
    """
    m: dict[str, float] = defaultdict(float)
    sp = defaultdict(list, spans)
    row_bytes = ndims + ROW_OVERHEAD_BYTES
    reads = [s for s in samples if s.op in ("query", "detect") and s.error is None]
    n_req = len(samples)
    read_fp = sum(s.size for s in reads)

    # index.filtering / index.batch
    sel = sp["index.filtering.statistical_blocks_batch_cached"]
    sel_q = sum(s[3][0] for s in sel if s[3])
    sel_blocks = sum(s[3][1] for s in sel if s[3])
    qb = sp["index.batch.query_batch"]
    deltas = np.array([s[3] for s in qb if s[3]] or [[0] * 6], dtype=np.float64)
    q, logical, unique, results, skipped = deltas[:, :5].sum(axis=0)
    seg_pairs = float((deltas[:, 0] * deltas[:, 5]).sum())
    m["index.filtering.select_ms_per_fp"] = div(_dur(sel) * 1e3, sel_q)
    m["index.filtering.blocks_per_fp"] = div(sel_blocks, sel_q)
    m["index.filtering.share_of_engine"] = div(_dur(sel), _dur(qb))
    m["index.batch.engine_ms_per_fp"] = div(_dur(qb) * 1e3, q)
    m["index.batch.scan_ms_per_fp"] = div((_dur(qb) - _dur(sel)) * 1e3, q)
    m["index.batch.coalescing_factor"] = div(logical, unique)
    m["index.batch.rows_gathered_per_result"] = div(unique, q)
    m["index.batch.segments_skipped_ratio"] = div(skipped, seg_pairs)
    m["workload.rows_per_fp"] = div(results, q)

    # Counter deltas summed over every serving engine.
    def total(*path):
        return sum(delta(b, a, *path) for b, a in stats)

    m.update(counters(stats))

    m["index.planner.plans"] = total("planner", "plans")
    for strategy in ("serial", "threads", "processes"):
        m[f"index.planner.{strategy}"] = total("planner", "decisions", strategy)

    # serve.protocol
    dec = sp["serve.protocol.decode"]
    frames = [s for s in sp["serve.protocol.encode_frame"] if s[3]]
    m["serve.protocol.decode_ms_per_req"] = div(_dur(dec) * 1e3, len(dec))
    m["serve.protocol.encode_ms_per_req"] = div(
        (_dur(sp["serve.protocol.result_to_wire"]) + _dur(frames)) * 1e3, len(frames))
    m["serve.protocol.response_bytes_per_fp"] = div(
        sum(s[3][0] for s in frames), sum(s[3][1] for s in frames))

    # serve.batcher / serve.cache
    waits = _batcher_waits(sp)
    m["serve.batcher.wait_ms_p50"] = float(np.median(waits)) * 1e3 if waits else 0.0
    m["serve.batcher.engine_stall_tail_ms"] = max(
        [a.get("batcher", {}).get("engine_stall", {}).get("p99_ms", 0.0)
         for _, a in stats] or [0.0])
    caches = list(stats)
    if router_stats is not None:
        rb, ra = router_stats
        caches.append(({"cache": rb["cluster"]["cache"]}, {"cache": ra["cluster"]["cache"]}))

    def cache_total(*path):
        return sum(delta(b, a, "cache", *path) for b, a in caches)

    m["serve.cache.hit_rate"] = div(cache_total("hits"),
                                     cache_total("hits") + cache_total("misses"))
    m["serve.cache.gather_hit_rate"] = div(
        total("cache", "gather", "hits"),
        total("cache", "gather", "hits") + total("cache", "gather", "misses"))
    m["serve.cache.inflight_deduped"] = cache_total("inflight_deduped")
    m["serve.cache.invalidations"] = cache_total("invalidations")

    # cbcd.voting
    votes = sp["cbcd.voting.vote"]
    detect_s = sum(s.latency for s in samples if s.op == "detect")
    m["cbcd.voting.vote_ms_per_req"] = div(_dur(votes) * 1e3, len(votes))
    m["cbcd.voting.estimate_ms_per_req"] = div(
        _dur(sp["cbcd.voting.estimate_offset"]) * 1e3, len(votes))
    m["cbcd.voting.identifiers_per_req"] = div(
        sum(s[3] for s in votes if s[3] is not None), len(votes))
    m["cbcd.voting.share_of_detect"] = div(_dur(votes), detect_s)

    # index.segmented
    adds = sp["index.segmented.add"]
    user_bytes = sum(s[3][1] for s in adds if s[3])
    m["index.segmented.add_ms_tail"] = _tail([(s[1] - s[0]) * 1e3 for s in adds], tail_pct)
    appends = sp["index.segmented.wal_append"]
    m["index.segmented.wal_append_ms_tail"] = _tail(
        [(s[1] - s[0]) * 1e3 for s in appends], tail_pct)
    per_wal: dict[int, list] = {}
    for s in appends:
        wal_id, size, commits, records, size_before = s[3]
        lo = per_wal.setdefault(wal_id, [size_before, size, commits, commits, records, records])
        lo[0] = min(lo[0], size_before)
        lo[1] = max(lo[1], size)
        lo[2] = min(lo[2], commits)
        lo[3] = max(lo[3], commits)
        lo[4] = min(lo[4], records)
        lo[5] = max(lo[5], records)
    wal_bytes = sum(v[1] - v[0] for v in per_wal.values())
    m["index.segmented.wal_mean_group_size"] = div(
        sum(v[5] - v[4] for v in per_wal.values()),
        sum(v[3] - v[2] for v in per_wal.values()))
    m["index.segmented.wal_bytes_per_user_byte"] = div(wal_bytes, user_bytes)
    m["index.segmented.seal_s"] = _dur(sp["index.segmented.seal"])
    m["index.segmented.compact_s"] = _dur(sp["index.segmented.compact"])
    m["index.segmented.rewrite_bytes_per_ingested_byte"] = div(
        sum(s[3] for s in sp["index.segmented.compact"] if s[3]) * row_bytes, user_bytes)

    # storage
    tiers = ("storage", "manager", "counters")
    fetch_bytes = total(*tiers, "fetch_bytes")
    m["storage.fetch_bytes_per_fp"] = div(fetch_bytes, read_fp)
    m["storage.fetch_ms_per_fp"] = div(_dur(sp["storage.fetch_ranges"]) * 1e3, read_fp)
    m["storage.collect_ms_per_fp"] = div(_dur(sp["storage.collect"]) * 1e3, read_fp)
    m["storage.full_fetch_bytes_per_fp"] = div(total(*tiers, "full_fetch_bytes"), read_fp)
    hits, misses = total(*tiers, "prefetch_hits"), total(*tiers, "prefetch_misses")
    m["storage.prefetch_hit_ratio"] = div(hits, hits + misses)
    m["storage.result_bytes_per_fetched_byte"] = div(results * row_bytes, fetch_bytes)

    # cluster.router
    if router_stats is not None:
        rb, ra = router_stats
        shards_b = {s["shard"]: s for s in rb["cluster"]["per_shard"]}
        fanouts = skips = failovers = 0
        for s in ra["cluster"]["per_shard"]:
            before = shards_b[s["shard"]]
            fanouts += s["fanouts"] - before["fanouts"]
            skips += s["skips"] - before["skips"]
            failovers += s["failovers"] - before["failovers"]
        m["cluster.router.fanout_per_query"] = div(fanouts, len(reads))
        m["cluster.router.shard_skip_ratio"] = div(skips, fanouts + skips)
        m["cluster.router.failovers"] = failovers
    m["cluster.router.merge_ms_per_req"] = div(_dur(sp["cluster.router.merge"]) * 1e3,
                                                len(reads))
    m["cluster.router.select_ms_per_fp"] = div(_dur(sp["cluster.router.select"]) * 1e3,
                                                read_fp)

    # loadgen
    m["loadgen.lag_tail_ms"] = _tail([(s.sent - s.due) * 1e3 for s in samples], tail_pct)
    m["loadgen.client_decode_ms_per_req"] = div(
        _dur(sp["loadgen.client_decode"]) * 1e3, sum(s.op == "query" for s in reads))

    # Self time per layer, per measured request.
    for layer, names in SELF_SPANS.items():
        m[f"self.{layer}_ms_per_req"] = div(sum(_self(sp[n]) for n in names) * 1e3, n_req)
    m["self.serve.batcher_ms_per_req"] = div(sum(waits) * 1e3, n_req)
    return m
