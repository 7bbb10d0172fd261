"""Inputs of the workloads: a fixed reference archive, seeded traffic.

Paper settings throughout: alpha = 0.8, a normal distortion model of
sigma = 10 grey levels, block depth 16.  The reference material is a
synthetic corpus from ``build_reference_corpus``; ``scale_store`` grows
it to the archive size with resampled ballast.  One key-frame of a clip
carries about 13 fingerprints (all rows sharing an id and a timecode).

The reference material — corpus, archive, re-air catalogue and its
popularity order — is the same for every seed, so runs with different
seeds differ only in their traffic.  Request ``k`` of stream ``s`` is a
pure function of (seed, s, k), so a seed fixes every input whatever the
speed of the program.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from repro.corpus import build_reference_corpus, scale_store
from repro.distortion.model import NormalDistortionModel
from repro.index.segmented import SegmentedS3Index
from repro.index.store import FingerprintStore

ALPHA = 0.8
SIGMA = 10.0
DEPTH = 16
#: Seed of the reference material (corpus, archive ballast, catalogue).
REFERENCE_SEED = 0
#: Identifiers of broadcast material ingested during ``live-ingest``.
INGEST_ID_BASE = 3_000_000
#: Client threads of a closed-loop workload.
STREAMS = 2
#: Key-frames per ``detect`` window and per ``ingest`` request.
DETECT_KEYFRAMES = 3
INGEST_KEYFRAMES = 10
#: Every ``REAIR_CYCLE``-th ``detect`` window is stream material; the
#: others (80%) re-air a referenced clip, whose popularity is Zipf with
#: exponent ``ZIPF_S``.
REAIR_CYCLE = 5
ZIPF_S = 1.2
#: Step of the Kronecker sequence that draws re-aired windows.
GOLDEN = (5 ** 0.5 - 1) / 2


@dataclass
class Request:
    op: str  # "query", "detect" or "ingest"
    fingerprints: np.ndarray
    timecodes: Optional[np.ndarray] = None
    ids: Optional[np.ndarray] = None

    @property
    def size(self) -> int:
        return int(self.fingerprints.shape[0])


class Corpus:
    """Referenced clips' fingerprints grouped into key-frames."""

    def __init__(self, videos: int, frames: int):
        self.store = build_reference_corpus(videos, frames, seed=REFERENCE_SEED).store
        keys = self.store.ids.astype(np.float64) * 1e6 + self.store.timecodes
        order = np.argsort(keys, kind="stable")
        _, starts = np.unique(keys[order], return_index=True)
        #: Row indices of each key-frame, clip by clip in time order.
        self.keyframes = np.split(order, starts[1:])
        self.keyframe_clip = np.array(
            [int(self.store.ids[kf[0]]) for kf in self.keyframes]
        )

    def windows(self, length: int) -> list[np.ndarray]:
        """Every run of *length* consecutive key-frames of one clip."""
        out = []
        for i in range(len(self.keyframes) - length + 1):
            clips = self.keyframe_clip[i:i + length]
            if (clips == clips[0]).all():
                out.append(np.arange(i, i + length))
        return out


def model(ndims: int) -> NormalDistortionModel:
    return NormalDistortionModel(ndims, SIGMA)


def archive_store(corpus: Corpus, rows: int) -> FingerprintStore:
    return scale_store(corpus.store, rows, rng=np.random.default_rng([REFERENCE_SEED, 7]))


def build_archive(directory: Path, store: FingerprintStore, segments: int) -> None:
    """Seal *store* into a segmented archive of *segments* segments."""
    index = SegmentedS3Index.create(
        directory, store.ndims, depth=DEPTH, model=model(store.ndims),
        flush_rows=len(store) + 1,
    )
    try:
        n = len(store)
        for i in range(segments):
            lo, hi = i * n // segments, (i + 1) * n // segments
            index.add(store.fingerprints[lo:hi], store.ids[lo:hi],
                      store.timecodes[lo:hi])
            index.flush()
    finally:
        index.close()


def _distort(rng, fps: np.ndarray) -> np.ndarray:
    """Paper §V-A planted copy: Q = S + N(0, sigma), clipped to bytes."""
    noisy = fps.astype(np.float64) + rng.normal(0.0, SIGMA, fps.shape)
    return np.clip(noisy, 0.0, 255.0)


class QueryStream:
    """``query`` requests: one key-frame's planted distorted copies.

    The noise is continuous, so no fingerprint is ever repeated.

    A key-frame's answer ranges from about 200 to 2,500 rows per
    fingerprint, so independent draws would make each run's mix — and
    its throughput — differ between seeds.  The streams therefore deal
    the key-frames out in rounds: round ``r`` is a seeded permutation of
    every key-frame, and request ``k`` of stream ``s`` takes entry
    ``k * STREAMS + s`` of the concatenated rounds, so a run covers the
    key-frames evenly, in an order and with noise the seed sets.
    """

    def __init__(self, corpus: Corpus, seed: int, stream: int):
        self.corpus, self.seed, self.stream = corpus, seed, stream

    def __call__(self, k: int) -> Request:
        count = len(self.corpus.keyframes)
        r, i = divmod(k * STREAMS + self.stream, count)
        order = np.random.default_rng([self.seed, 8, r]).permutation(count)
        rng = np.random.default_rng([self.seed, 1, self.stream, k])
        kf = self.corpus.keyframes[int(order[i])]
        return Request("query", _distort(rng, self.corpus.store.fingerprints[kf]))


class DetectStream:
    """``detect`` windows: Zipf re-airs of referenced clips plus §V-B material.

    A re-aired window is the same broadcast again, so its fingerprints
    repeat exactly (its distortion is fixed per window); only its
    timecodes move with the airing.  Stream material is fresh every
    time and has no answer in the archive.

    A run holds only about forty windows, and their voting cost varies
    threefold, so independent draws would make each run's mix — and its
    latency — differ widely between seeds.  The share of stream material
    is therefore exact, and re-aired windows are drawn from the Zipf law
    by a Kronecker sequence (its start set by the seed) that the two
    streams interleave: every run gets the popular windows in their
    expected proportions.
    """

    def __init__(self, corpus: Corpus, seed: int, stream: int):
        self.corpus, self.seed, self.stream = corpus, seed, stream
        self.start = float(np.random.default_rng([seed, 6]).random())
        windows = corpus.windows(DETECT_KEYFRAMES)
        order = np.random.default_rng([REFERENCE_SEED, 2]).permutation(len(windows))
        self.windows = [windows[i] for i in order]
        weights = 1.0 / np.arange(1, len(windows) + 1) ** ZIPF_S
        self.cdf = np.cumsum(weights) / weights.sum()

    def window(self, w: int) -> tuple[np.ndarray, np.ndarray]:
        """Fingerprints and source timecodes of re-aired window *w*."""
        rows = np.concatenate([self.corpus.keyframes[i] for i in self.windows[w]])
        rng = np.random.default_rng([REFERENCE_SEED, 3, w])
        store = self.corpus.store
        return _distort(rng, store.fingerprints[rows]), store.timecodes[rows]

    def __call__(self, k: int) -> Request:
        rng = np.random.default_rng([self.seed, 4, self.stream, k])
        airing = float(rng.uniform(0.0, 100_000.0))
        if k % REAIR_CYCLE != REAIR_CYCLE - 1:
            j = (k - k // REAIR_CYCLE) * STREAMS + self.stream
            w = int(np.searchsorted(self.cdf, (self.start + j * GOLDEN) % 1.0))
            fps, tcs = self.window(min(w, len(self.windows) - 1))
            return Request("detect", fps, tcs + airing)
        counts = [len(self.corpus.keyframes[int(i)]) for i in
                  rng.integers(len(self.corpus.keyframes), size=DETECT_KEYFRAMES)]
        fps = _stream_material(rng, self.corpus.store, sum(counts))
        tcs = np.repeat(airing + np.arange(DETECT_KEYFRAMES) * 3.0, counts)
        return Request("detect", fps, tcs)


def _stream_material(rng, pool: FingerprintStore, n: int) -> np.ndarray:
    """§V-B candidate material: real-looking fingerprints, no planted copy."""
    rows = rng.integers(0, len(pool), size=n)
    noisy = pool.fingerprints[rows].astype(np.float64) + rng.normal(0.0, 12.0, (n, pool.ndims))
    return np.clip(noisy, 0.0, 255.0)


class IngestStream:
    """``ingest`` requests: ten key-frames of new broadcast material.

    Fingerprints are whole grey levels (what the archive stores); every
    request is a new programme with its own identifier.
    """

    def __init__(self, corpus: Corpus, seed: int):
        self.corpus, self.seed = corpus, seed
        self.sizes = [len(kf) for kf in corpus.keyframes]

    def __call__(self, k: int) -> Request:
        rng = np.random.default_rng([self.seed, 5, k])
        counts = [self.sizes[int(i)] for i in
                  rng.integers(len(self.sizes), size=INGEST_KEYFRAMES)]
        n = sum(counts)
        fps = np.rint(_stream_material(rng, self.corpus.store, n))
        tcs = np.repeat(np.arange(INGEST_KEYFRAMES) * 5.0, counts).astype(np.float64)
        ids = np.full(n, INGEST_ID_BASE + k, dtype=np.int64)
        return Request("ingest", fps, tcs, ids)
