"""Benchmark-owned service launcher: ``build_service`` in its own process.

Starts the ingestion service on ephemeral ports and prints one line,
``READY <ingest port> <http port>``, once both listeners are bound.  A
SIGTERM drains it gracefully.  With ``--trace 1`` every layer's public
calls are wrapped in spans (see ``benchlib.instrument``) and each
session queue stamps its records, so the time records wait for the
drain loop is measured too.  When the service stops, a summary (peak
evidence units, peak RSS, and in traced runs the spans and queue waits)
is written to ``--out``.

    python3 perfbench/serve_launcher.py --trace 0 --out summary.json
"""

from __future__ import annotations

import argparse
import asyncio
import collections
import contextlib
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from benchlib import Tracer, instrument, vm_hwm_mb  # noqa: E402

#: per-session queue bound (records); block admission pushes back beyond it
QUEUE_BOUND = 1024


class StampedQueue(asyncio.Queue):
    """A session queue that records, for each record, when it left the
    queue and how long it waited in it (``perf_counter`` is the
    system-wide monotonic clock, so the load generator can match the
    times to its phases)."""

    def __init__(self, maxsize: int, waits: list):
        super().__init__(maxsize)
        self._waits = waits
        self._stamps: collections.deque = collections.deque()

    def _put(self, item):
        self._stamps.append(time.perf_counter())
        super()._put(item)

    def _get(self):
        now = time.perf_counter()
        self._waits.append((now, now - self._stamps.popleft()))
        return super()._get()


@contextlib.contextmanager
def keep_runtimes(runtimes: list):
    """Remember every runtime the service builds (one per rebuild)."""
    from repro.runtime import Runtime

    original = Runtime.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        runtimes.append(self)

    Runtime.__init__ = init
    try:
        yield
    finally:
        Runtime.__init__ = original


def peak_memory_units(runtimes: list) -> int:
    """The largest evidence peak any of the service's runtimes reached
    (each shard executor samples its detector after every boundary)."""
    peaks = [sum(shard.result.memory.peak_units for shard in rt.shards)
             for rt in runtimes if rt.last_boundary > 0]
    return max(peaks, default=0)


@contextlib.contextmanager
def stamp_session_queues(waits: list):
    from repro.serve.session import StreamSession

    original = StreamSession.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        self.queue = StampedQueue(self.queue.maxsize, waits)

    StreamSession.__init__ = init
    try:
        yield
    finally:
        StreamSession.__init__ = original


async def serve(trace: bool, out_path: str) -> None:
    from repro import DetectorConfig
    from repro.serve import build_service

    tracer = Tracer()
    waits: list = []
    runtimes: list = []
    with contextlib.ExitStack() as stack:
        stack.enter_context(keep_runtimes(runtimes))
        if trace:
            stack.enter_context(instrument(tracer, serve=True))
            stack.enter_context(stamp_session_queues(waits))
        server = build_service(DetectorConfig(), host="127.0.0.1", port=0,
                               http_port=0, queue_bound=QUEUE_BOUND)
        await server.start()
        server.install_signal_handlers()
        print(f"READY {server.address[1]} {server.http_address[1]}",
              flush=True)
        await server.stopped.wait()
    summary = {"peak_memory_units": peak_memory_units(runtimes),
               "vm_hwm_mb": vm_hwm_mb(), "queue_waits": waits,
               "counts": tracer.counts}
    if trace:
        summary["spans"] = [s.as_dict() for s in tracer.spans]
    with open(out_path, "w") as fh:
        json.dump(summary, fh)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True,
                    help="where to write the summary when the service stops")
    args = ap.parse_args()
    asyncio.run(serve(bool(args.trace), args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
