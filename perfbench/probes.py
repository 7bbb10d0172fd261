"""Which public entry points the traced pass wraps, and what it notes.

Each probe names the place its caller looks the function up — the module
global the caller imported it into, or the class attribute an instance
call resolves — so the wrapper sees every call the program makes.  The
annotators turn arguments and return values into the counts the
per-layer metrics need (fingerprints, blocks, bytes, counter deltas).
"""

from __future__ import annotations

from .spans import Tracer

#: Bytes of one stored row: uint8 fingerprint, uint32 id, float64 timecode.
ROW_OVERHEAD_BYTES = 4 + 8


def _selection_blocks(args, kwargs, result, state):
    """(queries, blocks selected) of a batched block selection."""
    if result is None:
        return None
    return [len(result), int(sum(len(sel) for sel in result))]


def _batch_delta(args, kwargs, result, state):
    """Engine counters moved by one ``query_batch`` call."""
    executor = args[0]
    stats = executor.stats
    now = (stats.queries, stats.logical_rows, stats.unique_rows,
           stats.results, stats.segments_skipped)
    if state is None:
        return now
    segments = getattr(executor.index, "num_segments", 1)
    return [b - a for a, b in zip(state, now)] + [int(segments)]


def _frame_bytes(args, kwargs, result, state):
    """(payload bytes, fingerprints answered) of a result frame."""
    if result is None:
        return None
    message = args[0] if args else kwargs.get("message", {})
    body = message.get("result") if isinstance(message, dict) else None
    if not isinstance(body, dict):
        return None
    if "results" in body:
        return [len(result), len(body["results"])]
    if "detections" in body:
        return [len(result), int(body.get("num_queries", 0))]
    return None


def _vote_ids(args, kwargs, result, state):
    """Distinct identifiers the vote considered."""
    if result is None:
        return None
    matches = args[0] if args else kwargs.get("matches", [])
    ids = set()
    for m in matches:
        ids.update(int(i) for i in m.ids)
    return len(ids)


def _wal_sizes(args, kwargs, result, state):
    """WAL identity, file size and group counters around one append."""
    wal = args[0]
    return [id(wal), int(wal.size_bytes), int(wal.group_commits),
            int(wal.group_records), None if state is None else state[1]]


def _added_rows(args, kwargs, result, state):
    if result is None:
        return None
    fps = args[1] if len(args) > 1 else kwargs["fingerprints"]
    return [int(result), int(fps.shape[0] * (fps.shape[1] + ROW_OVERHEAD_BYTES))]


def _compacted(args, kwargs, result, state):
    if result is None:
        return None
    return int(result.merged_rows)


#: (where the caller looks the function up, span name, annotator).
SERVER_PROBES = [
    ("repro.serve.protocol.fingerprints_from_wire", "serve.protocol.decode", None),
    ("repro.serve.protocol.result_to_wire", "serve.protocol.result_to_wire", None),
    ("repro.serve.protocol.encode_frame", "serve.protocol.encode_frame", _frame_bytes),
    ("repro.serve.batcher.MicroBatcher.submit_many", "serve.batcher.submit_many", None),
    ("repro.index.batch.BatchQueryExecutor.query_batch", "index.batch.query_batch",
     _batch_delta),
    ("repro.index.batch.statistical_blocks_batch_cached",
     "index.filtering.statistical_blocks_batch_cached", _selection_blocks),
    ("repro.index.filtering.statistical_blocks_multi",
     "index.filtering.statistical_blocks_multi", None),
    ("repro.serve.server.vote", "cbcd.voting.vote", _vote_ids),
    ("repro.cbcd.voting.estimate_offset", "cbcd.voting.estimate_offset", None),
    ("repro.index.segmented.lsm.SegmentedS3Index.add", "index.segmented.add", _added_rows),
    ("repro.index.segmented.wal.WriteAheadLog.append", "index.segmented.wal_append",
     _wal_sizes),
    ("repro.index.segmented.lsm.SegmentedS3Index.compact", "index.segmented.compact",
     _compacted),
    # The maintenance worker seals through this entry; the index has no
    # public seal function the worker calls.
    ("repro.index.segmented.lsm.SegmentedS3Index._background_seal",
     "index.segmented.seal", None),
    ("repro.storage.manager.TierManager.fetch_ranges", "storage.fetch_ranges", None),
    ("repro.storage.manager.TierManager.collect", "storage.collect", None),
]

#: The router process: the shard fan-out replaces the local engine.
ROUTER_PROBES = [
    ("repro.serve.protocol.fingerprints_from_wire", "serve.protocol.decode", None),
    ("repro.serve.protocol.encode_frame", "serve.protocol.encode_frame", _frame_bytes),
    ("repro.cluster.router.statistical_blocks_multi", "cluster.router.select", None),
    ("repro.cluster.router.merge_query_wires", "cluster.router.merge", None),
    ("repro.cluster.router.vote", "cbcd.voting.vote", _vote_ids),
]

#: The load generator: parsing served results back into arrays.
CLIENT_PROBES = [
    ("repro.serve.client.WireResult.from_wire", "loadgen.client_decode", None),
]


def install(tracer: Tracer, probes) -> None:
    for target, name, annotate in probes:
        tracer.install(target, name, annotate)
