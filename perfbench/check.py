"""The answer checker: served answers against in-process references.

* ``query`` — bit for bit against a cold solo ``statistical_query`` on
  the directory the server loaded (threshold cache reset per query);
* ``detect`` — the served detections against ``vote`` run in process
  over those reference results, with the ``ServeConfig`` defaults;
* ``live-ingest`` — restricted to the rows present before the run, each
  answer equals the quiesced reference as a multiset of
  ``(id, timecode, fingerprint bytes)``; and every acknowledged row is
  readable after a reopen.

Each check returns the number of wrong answers it found.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import numpy as np

from repro.cbcd.voting import QueryMatches, vote
from repro.index.segmented import SegmentedS3Index
from repro.serve.server import ServeConfig

from .workloads import ALPHA


def solo_results(directory: Path, queries: np.ndarray) -> list:
    """Cold solo statistical queries, one per row of *queries*."""
    index = SegmentedS3Index.open(directory, mmap=True)
    try:
        out = []
        for q in queries:
            index.reset_threshold_cache()
            out.append(index.statistical_query(q, ALPHA))
        return out
    finally:
        index.close()


def same_result(served, reference) -> bool:
    return (
        np.array_equal(served.rows, reference.rows)
        and np.array_equal(served.ids, reference.ids)
        and np.array_equal(served.timecodes, reference.timecodes)
        and served.fingerprints is not None
        # Equal rows imply equal lengths, so flat bytes compare the matrices
        # (an empty served matrix travels as shape (0, 0)).
        and np.array_equal(served.fingerprints.ravel(), reference.fingerprints.ravel())
    )


def _row_multiset(ids, timecodes, fingerprints) -> Counter:
    fps = np.asarray(fingerprints, dtype=np.uint8)
    return Counter(
        (int(i), float(t), f.tobytes()) for i, t, f in zip(ids, timecodes, fps)
    )


def same_rows_below(served, reference, id_limit: int) -> bool:
    """Multiset equality of the rows whose id is below *id_limit*."""
    keep = served.ids < id_limit
    fps = served.fingerprints[keep] if len(served) else served.fingerprints
    return _row_multiset(served.ids[keep], served.timecodes[keep], fps) == \
        _row_multiset(reference.ids, reference.timecodes, reference.fingerprints)


def check_queries(directory: Path, pairs: list) -> int:
    """Wrong answers among ``(fingerprint, WireResult)`` pairs (bit for bit)."""
    if not pairs:
        return 0
    refs = solo_results(directory, np.stack([q for q, _ in pairs]))
    return sum(not same_result(served, ref) for (_, served), ref in zip(pairs, refs))


def check_queries_pre_run(reference_dir: Path, pairs: list, id_limit: int) -> int:
    """Wrong answers, restricted to pre-run rows, against the quiesced copy."""
    if not pairs:
        return 0
    refs = solo_results(reference_dir, np.stack([q for q, _ in pairs]))
    return sum(not same_rows_below(served, ref, id_limit)
               for (_, served), ref in zip(pairs, refs))


def reference_detections(directory: Path, fingerprints: np.ndarray,
                         timecodes: np.ndarray) -> list[dict]:
    """What the server's ``detect`` op should answer, computed in process."""
    cfg = ServeConfig()
    results = solo_results(directory, fingerprints)
    matches = [
        QueryMatches(timecode=float(tc), ids=r.ids, timecodes=r.timecodes)
        for r, tc in zip(results, timecodes) if len(r)
    ]
    votes = vote(matches, tolerance=cfg.vote_tolerance, tukey_c=cfg.tukey_c,
                 min_matches=cfg.min_matches)
    return [
        {"video_id": int(v.video_id), "offset": float(v.offset),
         "nsim": int(v.nsim), "num_candidates": int(v.num_candidates)}
        for v in votes if v.nsim >= cfg.decision_threshold
    ]


def check_detections(directory: Path, kept: list) -> int:
    """Wrong answers among kept ``(request, detections)`` pairs."""
    return sum(
        reference_detections(directory, req.fingerprints, req.timecodes) != served
        for req, served in kept
    )


def check_acked_readable(directory: Path, acked: list, id_limit: int) -> int:
    """Acknowledged ingest requests not fully readable after a reopen.

    Reads every row back with one full-range ``range_query`` and compares
    the rows at or above *id_limit* with what was acknowledged.
    """
    index = SegmentedS3Index.open(directory, mmap=True)
    try:
        everything = index.range_query(np.full(index.ndims, 127.5),
                                       255.0 * np.sqrt(index.ndims) + 1.0)
    finally:
        index.close()
    new = everything.ids >= id_limit
    stored = _row_multiset(everything.ids[new], everything.timecodes[new],
                           everything.fingerprints[new])
    wrong = 0
    for req in acked:
        rows = _row_multiset(req.ids, req.timecodes, req.fingerprints)
        if any(stored[key] < count for key, count in rows.items()):
            wrong += 1
        stored.subtract(rows)
    # Rows nobody acknowledged (or acknowledged once, stored twice).
    if any(count > 0 for count in stored.values()):
        wrong += 1
    return wrong
