"""The benchmark's own tests.

    python -m pytest perfbench/tests -q

* a smoke-size run of every workload prints every metric with its unit
  and checks its answers;
* the answer checker rejects planted wrong answers;
* outside a full checkout the benchmark fails without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import check, layers, run  # noqa: E402
from perfbench import workloads as wl  # noqa: E402
from repro.serve.client import WireResult  # noqa: E402


def _run(*args, cwd=ROOT, timeout=300):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric(workload, trace):
    out = _result(_run("--workload", workload, "--seed", "3", "--seconds", "1",
                       "--trace", str(trace), "--smoke"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    expected = run.END_TO_END if trace == 0 else layers.PER_LAYER
    assert {n: {"unit": u} for n, u, *_ in expected} == {
        n: {"unit": m["unit"]} for n, m in out["metrics"].items()}
    assert all(isinstance(m["value"], float) for m in out["metrics"].values())


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {n: w for n, w in run.WORKLOADS.items() if n not in run.UNLISTED}
    assert [w["name"] for w in spec["workloads"]] == list(listed)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        layers.PER_LAYER
    for workload, entry in zip(listed.values(), spec["workloads"]):
        assert entry["why"].endswith(f"tail = p{workload.tail_pct:g}")


def test_fails_without_program_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "archive-query", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ----------------------------------------------------------------------
# the checker against planted wrong answers
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    corpus = wl.Corpus(videos=3, frames=90)
    store = wl.archive_store(corpus, 6_000)
    directory = tmp_path_factory.mktemp("archive") / "index"
    wl.build_archive(directory, store, segments=2)
    return corpus, directory


def _served(result) -> WireResult:
    """A solo result as the client would parse it off the wire."""
    return WireResult(rows=result.rows.copy(), ids=result.ids.astype(np.int64),
                      timecodes=result.timecodes.copy(),
                      fingerprints=result.fingerprints.copy())


def _queries(corpus, directory, n=4):
    """*n* planted-copy fingerprints that have a non-empty answer."""
    stream = wl.QueryStream(corpus, seed=5, stream=0)
    candidates = np.concatenate([stream(k).fingerprints for k in range(4)])
    answered = [len(r) > 0 for r in check.solo_results(directory, candidates)]
    return candidates[answered][:n]


def test_checker_accepts_then_rejects_a_planted_query_answer(archive):
    corpus, directory = archive
    queries = _queries(corpus, directory)
    served = [_served(r) for r in check.solo_results(directory, queries)]
    assert len(served) == 4 and all(len(s) for s in served)
    assert check.check_queries(directory, list(zip(queries, served))) == 0
    served[1].fingerprints[0, 0] ^= 1
    served[2].rows = served[2].rows[:-1]
    assert check.check_queries(directory, list(zip(queries, served))) == 2


def test_checker_rejects_a_planted_row_in_a_pre_run_answer(archive):
    corpus, directory = archive
    queries = _queries(corpus, directory, 2)
    served = [_served(r) for r in check.solo_results(directory, queries)]
    # Rows ingested during the run are ignored; pre-run rows must match.
    extra = WireResult(
        rows=np.append(served[0].rows, 10**6),
        ids=np.append(served[0].ids, wl.INGEST_ID_BASE),
        timecodes=np.append(served[0].timecodes, 1.0),
        fingerprints=np.vstack([served[0].fingerprints, served[0].fingerprints[:1]]),
    )
    assert check.check_queries_pre_run(
        directory, [(queries[0], extra)], wl.INGEST_ID_BASE) == 0
    extra.ids[0] += 1
    assert check.check_queries_pre_run(
        directory, [(queries[0], extra)], wl.INGEST_ID_BASE) == 1


def test_checker_rejects_a_planted_detection(archive):
    corpus, directory = archive
    request = wl.DetectStream(corpus, seed=5, stream=0)(0)
    served = check.reference_detections(directory, request.fingerprints, request.timecodes)
    assert check.check_detections(directory, [(request, served)]) == 0
    planted = [{"video_id": 0, "offset": 1.5, "nsim": 9, "num_candidates": 9}]
    assert check.check_detections(directory, [(request, served + planted)]) == 1


def test_checker_rejects_an_acknowledged_row_that_is_missing(tmp_path, archive):
    corpus, directory = archive
    copy = tmp_path / "index"
    shutil.copytree(directory, copy)
    stream = wl.IngestStream(corpus, seed=5)
    stored, lost = stream(0), stream(1)
    from repro.index.segmented import SegmentedS3Index

    index = SegmentedS3Index.open(copy)
    index.add(stored.fingerprints, stored.ids, stored.timecodes)
    index.close()
    assert check.check_acked_readable(copy, [stored], wl.INGEST_ID_BASE) == 0
    assert check.check_acked_readable(copy, [stored, lost], wl.INGEST_ID_BASE) == 1
    # A stored row nobody acknowledged is wrong too.
    assert check.check_acked_readable(copy, [], wl.INGEST_ID_BASE) == 1
