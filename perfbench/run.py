"""The repository benchmark: served workloads, one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

For the workload it builds the archive through the public API, starts
the real server process (``python -m repro.cli serve``, or ``cluster
serve``), drives it over sockets from this process with two client
threads, and checks the answers (:mod:`perfbench.check`).

* ``--trace 0`` prints the end-to-end metrics of :data:`END_TO_END`:
  ``fp_per_s`` counts every answered fingerprint and acknowledged row;
  ``p50_ms``/``tail_ms`` time the ``query``/``detect`` requests;
  ``success_ratio`` is one minus the share of requests that failed, were
  refused (``unavailable`` included) or got a wrong answer.  The
  ``ingest`` latency of ``live-ingest`` is reported per layer
  (``e2e.ingest_*``): it is one WAL fsync, too noisy to bound.
* ``--trace 1`` runs the same untraced pass, then a second pass against a
  server started through :mod:`perfbench.launch` with span probes, and
  prints the per-layer metrics of :data:`perfbench.layers.PER_LAYER`
  (self times and the tracing overhead included).

The last line of standard output is one JSON object with the keys
``correct`` (no wrong answer), ``attempted``, ``failed`` (failed, refused
or wrong) and ``metrics``; the line before it records the run's
properties (host, seed, workload shape).  ``--smoke`` shrinks every
archive for a quick functional run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent

#: Setups per ``--trace 0`` run; ``setup_s`` is their median.
SETUP_REPEATS = 3
WARMUP_S = 1.0
#: Answers kept for the checker: every Nth request of each stream, and
#: how many of its fingerprints are compared.
KEEP_EVERY = 5
CHECK_FP_PER_REQUEST = 2
MAX_DETECT_CHECKS = 4


@dataclass(frozen=True)
class Workload:
    rows: int
    segments: int
    #: Latency percentile reported as ``*_tail_ms`` (fixed per workload:
    #: the highest one with at least ten samples beyond it in a 20 s run).
    tail_pct: float
    shards: int = 0
    budget_share: Optional[float] = None
    ingest_rate: float = 0.0
    query_rate: float = 0.0


WORKLOADS = {
    "archive-query": Workload(rows=500_000, segments=8, tail_pct=90),
    "rebroadcast-detect": Workload(rows=50_000, segments=2, tail_pct=65),
    "live-ingest": Workload(rows=100_000, segments=7, tail_pct=70, budget_share=0.25,
                            ingest_rate=20.0, query_rate=3.0),
    "routed-query": Workload(rows=500_000, segments=8, tail_pct=85, shards=2),
}

#: Workloads that run by hand but are not listed in ``BENCHMARK.json``.
#: Under ``live-ingest`` a query racing a compaction now and then gets
#: ``unavailable`` (a cold segment's blob is deleted while a pinned view
#: still reads it), so its failure count does not repeat between runs.
UNLISTED = ("live-ingest",)

END_TO_END = [
    ("setup_s", "s"),
    ("fp_per_s", "fp/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("server_rss_mb", "MB"),
    ("success_ratio", "ratio"),
]


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _host_block() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


# ----------------------------------------------------------------------
# one pass: setup, load, answers
# ----------------------------------------------------------------------
class Pass:
    """One served run of a workload against one server instance."""

    def __init__(self, name: str, spec: Workload, ctx, trace_out: Optional[Path]):
        self.name, self.spec, self.ctx, self.trace_out = name, spec, ctx, trace_out
        self.server = None

    def setup(self) -> float:
        """Build the archive, plan, start the server; returns seconds."""
        from perfbench import workloads as wl
        from perfbench.server import ServerProcess

        ctx = self.ctx
        for d in (ctx.archive, ctx.cluster):
            shutil.rmtree(d, ignore_errors=True)
        t0 = time.perf_counter()
        wl.build_archive(ctx.archive, ctx.store, self.spec.segments)
        args = ["--host", "127.0.0.1", "--port", "0", "--alpha", str(wl.ALPHA)]
        if self.spec.shards:
            from repro.cluster import plan_cluster

            plan_cluster(ctx.archive, ctx.cluster, num_shards=self.spec.shards, replicas=1)
            cli = ["cluster", "serve", str(ctx.cluster), *args, "--mode", "process"]
        else:
            cli = ["serve", str(ctx.archive), *args]
            if self.spec.budget_share is not None:
                cli += ["--storage-budget", str(ctx.budget_bytes),
                        "--cold-dir", str(ctx.workdir / "cold"),
                        "--durability", "group"]
        self.server = ServerProcess(ROOT, ctx.workdir, cli, trace_out=self.trace_out,
                                    router=bool(self.spec.shards))
        self.server.start()
        return time.perf_counter() - t0

    def stop(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def _stats(self) -> tuple[list, Optional[dict]]:
        """``stats`` of every serving engine, plus the router's if any."""
        from repro.serve.client import ServeClient

        with ServeClient(port=self.server.port, timeout=30.0) as client:
            top = client.stats()
        if "cluster" not in top:
            return [top], None
        engines = []
        for shard in top["cluster"]["per_shard"]:
            for replica in shard["replicas"]:
                host, port = replica["address"].rsplit(":", 1)
                with ServeClient(host=host, port=int(port), timeout=30.0) as client:
                    engines.append(client.stats())
        return engines, top

    def run(self, seconds: float) -> dict:
        """Drive the load; stop the server; check the answers."""
        from perfbench import loadgen
        from perfbench import workloads as wl

        ctx, spec = self.ctx, self.spec
        keep = (lambda k: k % KEEP_EVERY == 0)
        if self.name == "rebroadcast-detect":
            streams = [loadgen.Stream(wl.DetectStream(ctx.corpus, ctx.seed, s), keep=keep)
                       for s in range(wl.STREAMS)]
        elif self.name == "live-ingest":
            streams = [
                loadgen.Stream(wl.IngestStream(ctx.corpus, ctx.seed), rate=spec.ingest_rate),
                loadgen.Stream(wl.QueryStream(ctx.corpus, ctx.seed, 0), keep=keep,
                               rate=spec.query_rate),
            ]
        else:
            streams = [loadgen.Stream(wl.QueryStream(ctx.corpus, ctx.seed, s), keep=keep)
                       for s in range(wl.STREAMS)]

        before: dict = {}
        tracer = None
        if self.trace_out is not None:
            from perfbench import probes
            from perfbench.spans import Tracer

            tracer = Tracer()
            probes.install(tracer, probes.CLIENT_PROBES)
        try:
            t_measure, t_end = loadgen.drive(
                self.server.port, streams, WARMUP_S, seconds,
                on_measure=lambda: before.update(zip(("engines", "router"), self._stats())),
            )
        finally:
            if tracer is not None:
                tracer.uninstall()
        after_engines, after_router = self._stats()
        rss = self.server.peak_rss_mb()
        self.stop()

        samples = [s for st in streams for s in st.samples if s.measured]
        out = {
            "samples": samples,
            "seconds": seconds,
            "closed_streams": sum(st.rate is None for st in streams),
            "t_measure": t_measure,
            "t_end": max([t_end] + [s.done for s in samples]),
            "rss_mb": rss,
            "stats": list(zip(before["engines"], after_engines)),
            "router_stats": (before["router"], after_router) if after_router else None,
            "client_spans": dict(tracer.spans) if tracer is not None else {},
            "wrong": self._check(streams),
            "repeat_share": _repeat_share(streams),
        }
        return out

    def _check(self, streams) -> int:
        import numpy as np

        from perfbench import check
        from perfbench import workloads as wl

        ctx = self.ctx
        kept = [pair for st in streams for pair in st.kept]
        if self.name == "rebroadcast-detect":
            return check.check_detections(ctx.archive, kept[:MAX_DETECT_CHECKS])
        pairs = []
        for i, (request, answer) in enumerate(kept):
            rng = np.random.default_rng([ctx.seed, 9, i])
            picks = rng.choice(request.size, size=min(CHECK_FP_PER_REQUEST, request.size),
                               replace=False)
            pairs += [(request.fingerprints[j], answer[j]) for j in picks]
        if self.name == "live-ingest":
            acked = [r for st in streams for r in st.acked]
            return (check.check_queries_pre_run(ctx.reference, pairs, wl.INGEST_ID_BASE)
                    + check.check_acked_readable(ctx.archive, acked, wl.INGEST_ID_BASE))
        return check.check_queries(ctx.archive, pairs)


def _repeat_share(streams) -> float:
    """Share of sent read fingerprints identical to one sent before."""
    seen: set = set()
    repeats = total = 0
    # Requests are regenerated from their index: a pure function of the seed.
    for st in streams:
        for k in range(len(st.samples)):
            request = st.make(k)
            if request.op == "ingest":
                continue
            for row in request.fingerprints:
                key = row.tobytes()
                repeats += key in seen
                seen.add(key)
                total += 1
    return repeats / total if total else 0.0


class Context:
    """Inputs and directories shared by the passes of one run."""

    def __init__(self, name: str, spec: Workload, seed: int, smoke: bool):
        from perfbench import workloads as wl

        self.seed = seed
        self.workdir = ROOT / ".perfbench" / f"{name}-{os.getpid()}"
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.archive = self.workdir / "archive"
        self.cluster = self.workdir / "cluster"
        self.reference = self.workdir / "reference"
        self.corpus = wl.Corpus(videos=4 if smoke else 8, frames=100 if smoke else 120)
        self.store = wl.archive_store(self.corpus, spec.rows)
        self.archive_bytes = len(self.store) * (self.store.ndims + 4 + 8)
        self.budget_bytes = (int(self.archive_bytes * spec.budget_share)
                             if spec.budget_share is not None else None)
        if spec.budget_share is not None:
            wl.build_archive(self.reference, self.store, spec.segments)

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def _rate(result: dict, samples: list) -> float:
    """Fingerprints (or rows) completed per second by *samples*.

    Open loop: per second from the start of the measured window to the
    last measured completion, so the rate drops when the server falls
    behind the schedule.  Closed loop: each client is always busy, so
    the rate is the work done per second of client-busy time, times the
    number of clients (Little's law) — this uses whole requests and no
    partial one at the window edges.
    """
    done = sum(s.size for s in samples if s.error is None)
    if not result["closed_streams"]:
        return done / (max(s.done for s in samples) - result["t_measure"])
    busy = sum(s.done - s.sent for s in samples)
    return done * result["closed_streams"] / busy if busy else 0.0


def _pct(values: list, q: float) -> float:
    """The Harrell-Davis estimate of the *q*-th percentile.

    It weighs every order statistic by a beta density centred on the
    percentile, so with a few dozen samples it moves far less from run
    to run than the one or two order statistics ``np.percentile`` uses.
    """
    import numpy as np
    from scipy.stats import beta

    if not values:
        return 0.0
    x = np.sort(values)
    n, p = len(x), q / 100.0
    weights = np.diff(beta.cdf(np.arange(n + 1) / n, (n + 1) * p, (n + 1) * (1 - p)))
    return float(weights @ x)


def end_to_end(result: dict, spec: Workload) -> dict[str, float]:
    samples = result["samples"]
    ok = [s for s in samples if s.error is None]
    lat = [s.latency * 1e3 for s in ok if s.op in ("query", "detect")]
    bad = (len(samples) - len(ok)) + result["wrong"]
    return {
        "fp_per_s": _rate(result, samples),
        "p50_ms": _pct(lat, 50),
        "tail_ms": _pct(lat, spec.tail_pct),
        "server_rss_mb": result["rss_mb"],
        "success_ratio": 1.0 - bad / max(len(samples), 1),
    }


def per_op(result: dict, tail_pct: float) -> dict[str, float]:
    """The per-op end-to-end split (``e2e.*``), from the untraced pass."""
    out = {}
    for op, rate in (("query", "fp_per_s"), ("detect", "fp_per_s"),
                     ("ingest", "rows_per_s")):
        mine = [s for s in result["samples"] if s.op == op]
        lat = [s.latency * 1e3 for s in mine if s.error is None]
        out[f"e2e.{op}_{rate}"] = _rate(result, mine) if mine else 0.0
        out[f"e2e.{op}_p50_ms"] = _pct(lat, 50)
        out[f"e2e.{op}_tail_ms"] = _pct(lat, tail_pct)
    return out


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    import statistics

    from perfbench import layers, spans

    spec = WORKLOADS[name]
    if smoke:
        spec = Workload(**{**spec.__dict__, "rows": spec.rows // 20,
                           "ingest_rate": spec.ingest_rate / 2})
    ctx = Context(name, spec, seed, smoke)
    untraced = Pass(name, spec, ctx, trace_out=None)
    traced = None
    try:
        setups = []
        for i in range(1 if trace else SETUP_REPEATS):
            setups.append(untraced.setup())
            if i + 1 < (1 if trace else SETUP_REPEATS):
                untraced.stop()
        base = untraced.run(seconds)
        metrics = {"setup_s": statistics.median(setups), **end_to_end(base, spec)}
        attempted = len(base["samples"])
        failed = sum(s.error is not None for s in base["samples"]) + base["wrong"]
        wrong = base["wrong"]
        if trace:
            trace_out = ctx.workdir / "spans.json"
            traced = Pass(name, spec, ctx, trace_out=trace_out)
            traced.setup()
            tr = traced.run(seconds)
            attempted += len(tr["samples"])
            failed += sum(s.error is not None for s in tr["samples"]) + tr["wrong"]
            wrong += tr["wrong"]
            server_spans = [spans.load(trace_out)] + [
                spans.load(p) for p in sorted(ctx.workdir.glob("spans.json.shard*"))]
            all_spans = layers.window(
                spans.merge(*server_spans, tr["client_spans"]), tr["t_measure"], tr["t_end"])
            lay = layers.per_layer(all_spans, tr["stats"], tr["router_stats"], tr["samples"],
                                   spec.tail_pct, ctx.store.ndims)
            traced_e2e = end_to_end(tr, spec)
            lay["trace.overhead_p50_ms"] = traced_e2e["p50_ms"] - metrics["p50_ms"]
            lay["trace.overhead_fp_per_s_ratio"] = (
                metrics["fp_per_s"] / traced_e2e["fp_per_s"] - 1.0)
            lay.update(per_op(base, spec.tail_pct))
            lay["workload.repeat_share"] = base["repeat_share"]
            lay["workload.archive_mb"] = ctx.archive_bytes / 1e6
            lay["workload.budget_mb"] = (ctx.budget_bytes or 0) / 1e6
            report = {n: {"value": float(lay[n]), "unit": u} for n, u, _ in layers.PER_LAYER}
        else:
            report = {n: {"value": float(metrics[n]), "unit": u} for n, u in END_TO_END}
        properties = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "host": _host_block(),
            "tail_percentile": spec.tail_pct,
            "measured_requests": len(base["samples"]),
            "failed_requests": sum(s.error is not None for s in base["samples"]),
            "wrong_answers": base["wrong"],
            "first_error": next((s.error for s in base["samples"] if s.error), None),
            "repeat_share": base["repeat_share"],
            "archive_rows": len(ctx.store),
            "archive_bytes": ctx.archive_bytes,
            "resident_budget_bytes": ctx.budget_bytes,
            **layers.counters(base["stats"]),
            "setup_s_each": setups,
        }
        return {"properties": properties,
                "result": {"correct": wrong == 0, "attempted": attempted,
                           "failed": failed, "metrics": report}}
    finally:
        untraced.stop()
        if traced is not None:
            traced.stop()
        ctx.cleanup()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small archives, for a quick functional run")
    args = parser.parse_args(argv)
    # A shell that starts the benchmark in the background ignores SIGINT,
    # and the servers would inherit that and ignore the graceful stop;
    # a handler installed here is reset to the default across exec.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _fail(f"no program source under {ROOT / 'src'}; run from a full checkout")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    out = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps({"properties": out["properties"]}))
    print(json.dumps(out["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
