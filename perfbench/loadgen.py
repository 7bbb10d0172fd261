"""Load generation over real sockets: closed and open loops.

One process drives the server with at most two client threads, each
with its own connection (:class:`repro.serve.client.ServeClient` with no
hidden retries, so a refusal or failure is seen and counted).

* **Closed loop** — each thread sends its next request when the previous
  one is answered; latency runs from send to answer.
* **Open loop** — each stream sends on a fixed schedule; latency runs
  from the request's due time, so a stall also charges the requests
  queued behind it, and ``lag`` records how late the generator sent.

Every request is sent once.  A refusal, including the retryable
``unavailable`` code (a cold-tier read failure or an ingest backpressure
shed), fails the request and is counted; nothing is resent.  Requests
sent during the warm-up are executed but not measured.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.serve.client import ServeClient

from .workloads import Request


@dataclass
class Sample:
    op: str
    size: int
    due: float
    sent: float
    done: float
    error: Optional[str] = None
    measured: bool = True

    @property
    def latency(self) -> float:
        return self.done - self.due


@dataclass
class Stream:
    """One client thread's request source.

    ``make(k)`` builds request ``k``; ``keep(k)`` says whether its
    answer is kept for the checker; ``rate`` (requests per second) makes
    the stream open-loop.
    """

    make: Callable[[int], Request]
    keep: Callable[[int], bool] = lambda k: False
    rate: Optional[float] = None
    samples: list = field(default_factory=list)
    #: (request, answer) pairs kept for the checker.
    kept: list = field(default_factory=list)
    #: Every acknowledged ingest request.
    acked: list = field(default_factory=list)


def _execute(client: ServeClient, request: Request):
    if request.op == "query":
        # The checker compares matched fingerprint bytes too.
        return client.query(request.fingerprints, include_fingerprints=True)
    if request.op == "detect":
        return client.detect(request.fingerprints, request.timecodes)
    return client.ingest(request.fingerprints, request.ids, request.timecodes)


def _run_stream(port: int, stream: Stream, t_start: float, t_measure: float,
                t_end: float, errors: list) -> None:
    try:
        with ServeClient(port=port, timeout=120.0, retries=0,
                         retry_overloaded=False) as client:
            k = 0
            while True:
                now = time.perf_counter()
                if stream.rate is not None:
                    due = t_start + k / stream.rate
                    if due >= t_end:
                        break
                    if due > now:
                        time.sleep(due - now)
                else:
                    if now >= t_end:
                        break
                    due = now
                request = stream.make(k)
                sent = time.perf_counter()
                error = None
                answer = None
                try:
                    answer = _execute(client, request)
                except Exception as exc:  # counted, never fatal
                    error = f"{type(exc).__name__}: {exc}"
                    client.close()
                done = time.perf_counter()
                stream.samples.append(Sample(request.op, request.size, due, sent, done,
                                             error, measured=due >= t_measure))
                if error is None:
                    if request.op == "ingest":
                        stream.acked.append(request)
                    elif stream.keep(k):
                        stream.kept.append((request, answer))
                k += 1
    except Exception as exc:
        errors.append(exc)


def drive(port: int, streams: list[Stream], warmup: float, seconds: float,
          on_measure: Optional[Callable[[], None]] = None) -> tuple[float, float]:
    """Run every stream for ``warmup + seconds``; returns the measured window.

    ``on_measure`` runs on the calling thread when measurement starts
    (e.g. a ``stats`` snapshot).
    """
    t_start = time.perf_counter() + 0.05
    t_measure = t_start + warmup
    t_end = t_measure + seconds
    errors: list = []
    threads = [
        threading.Thread(target=_run_stream,
                         args=(port, s, t_start, t_measure, t_end, errors))
        for s in streams
    ]
    for t in threads:
        t.start()
    if on_measure is not None:
        time.sleep(max(0.0, t_measure - time.perf_counter()))
        on_measure()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return t_measure, t_end
