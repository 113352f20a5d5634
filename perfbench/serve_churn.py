"""``serve-churn``: the ingestion service under open-loop load with churn.

This process is the load generator.  It starts ``repro serve`` through
the benchmark-owned launcher (``serve_launcher.py``) and drives it over
exactly two NDJSON producer connections, which split one seeded stock
trace between them (even seqs on one, odd on the other) and both
subscribe to the 8 G-class queries.  A third, non-producer connection
and the HTTP control plane only sample the backlog.

Segments, on one continuous stream:

1. *warm-up* -- the first swift window, sent closed loop as fast as the
   service takes it (``runtime.warmup_s``);
2. ``ROUNDS`` rounds of
   *open loop* -- records are due on a fixed schedule at
   ``OFFERED_PPS``; each ``points`` op carries the records due by the
   time it is sent and never waits for the reply, so a stalled service
   makes the generator late (reported) instead of slowing the offer --
   and *saturation* -- closed loop under block admission;
   ``throughput_pps`` is the rate the service drains the saturation
   segments at.  Each segment starts once the service has caught up
   with the one before.  The machine's speed drifts over tens of
   seconds, so latency and capacity are each sampled in segments
   spread over the whole run rather than in one stretch;
3. *churn* -- open loop again, and every ``CHURN_EVERY`` boundaries one
   connection, alternately, registers an extra query or deregisters
   the one it registered -- the workload-mutation path (runtime rebuild
   through ``retained_points``/``preload``) beside the ingest path.
   A change is made at a boundary ``C`` once the service has answered
   every boundary before ``C``; the connection sends no record at or
   past ``C`` until the reply is back, so the service cannot reach
   ``C`` before the change, and the change takes effect exactly at
   ``C``.  Every extra query is therefore live over a known span of
   boundaries, and each of its due boundaries in that span -- and none
   outside it -- must be pushed.

Latency of boundary ``t`` runs from the due time of the record that
completes ``t`` (the later of seqs ``t`` and ``t+1``, one per
connection) to the arrival of ``t``'s ``outliers`` push; it is sampled
in the open-loop segments before the churn.

After the service stopped, every push is checked against an offline
``Runtime.run`` over the merged stream with the churned queries
replayed, and a seeded sample of that oracle against brute force.
"""

from __future__ import annotations

import asyncio
import collections
import gc
import json
import math
import os
import random
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional

from repro import QueryGroup
from repro.baselines.naive import brute_force_outliers
from repro.core.parser import parse_workload
from repro.core.point import get_metric
from repro.runtime import Runtime
from repro.streams.source import batches_by_boundary

from benchlib import (OUT_DIR, ROOT, Report, check_determinism, median,
                      outputs_digest, p99, runtime_counters, tail,
                      trace_metrics, work_counters)
from workloads import (SERVE_RANGES, SMOKE_RANGES, extra_queries,
                       population, stock_points, stock_queries, wire_query)

HERE = os.path.dirname(os.path.abspath(__file__))

#: offered rate of the open-loop segments (points per second, both
#: connections together): about a quarter of the service's capacity on
#: the reference machine.  At 40% the machine's speed swings moved the
#: load enough to queue boundaries behind each other, and the tail's
#: run-to-run spread exceeded the bound
OFFERED_PPS = 250.0
#: boundaries between churn operations (each rebuilds the runtime)
CHURN_EVERY = 10
#: shares of ``--seconds`` spent in the open loop without and with churn.
#: A rebuild stalls the service for most of a second; with stalls inside
#: the latency sample, where the tail percentile falls among them swung
#: the tail by a third between runs, so latency is sampled before churn
STEADY_SHARE = 0.5
CHURN_SHARE = 0.15
#: the saturation segments hold this share of ``--seconds`` times
#: ``NOMINAL_CAPACITY`` points (about that share of the run at the
#: service's capacity); fixed in points, so every run drains the same
#: data
SATURATION_SHARE = 0.35
NOMINAL_CAPACITY = 1000.0
#: open-loop + saturation rounds before the churn
ROUNDS = 3
#: records per ``points`` op (open loop: at most; closed loop: exactly)
OPEN_BATCH = 25
SATURATION_BATCH = 200
#: service lifetimes per run, the extra ones only set up (``setup_s`` is
#: the median over all)
SETUP_REPEATS = 5
#: the latency limit fixed on the tail percentile; a run whose tail
#: misses it counts one failed attempt
LATENCY_LIMIT_MS = 500.0
#: backlog / stat sampling periods (seconds)
STAT_PERIOD = 0.05
METRICS_PERIOD = 0.25
#: oracle cells re-checked against brute force
GATE_CELLS = 6
#: a service lifetime that takes longer than this has hung
SESSION_TIMEOUT = 150.0


class Conn:
    """One NDJSON connection: pipelined requests, routed replies, pushes."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self.replies: collections.deque = collections.deque()
        #: t -> (first arrival, {handle: seqs})
        self.pushes: Dict[int, tuple] = {}
        self.stream_end = asyncio.Event()
        self.task = asyncio.get_running_loop().create_task(self._read())

    @classmethod
    async def open(cls, port: int, tenant: str, producer: bool = True):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        conn = cls(reader, writer)
        reply = await conn.call("hello", tenant=tenant, admission="block",
                                producer=producer)
        if not reply.get("ok"):
            raise RuntimeError(f"hello rejected: {reply}")
        return conn

    async def _read(self) -> None:
        while True:
            line = await self.reader.readline()
            if not line:
                # the service went away: nothing pending will be answered
                while self.replies:
                    self.replies.popleft().set_exception(
                        ConnectionError("service closed the connection"))
                return
            now = time.perf_counter()
            msg = json.loads(line)
            if "ok" in msg:
                self.replies.popleft().set_result(msg)
            elif msg.get("type") == "outliers":
                t = int(msg["t"])
                outs = {int(h): frozenset(v)
                        for h, v in msg["outputs"].items()}
                if t in self.pushes:
                    self.pushes[t][1].update(outs)
                else:
                    self.pushes[t] = (now, outs)
            elif msg.get("type") == "stream-end":
                self.stream_end.set()

    def send(self, op: str, **fields) -> asyncio.Future:
        return self.send_line(_line(op, **fields))

    def send_line(self, line: bytes) -> asyncio.Future:
        fut = asyncio.get_running_loop().create_future()
        self.replies.append(fut)
        self.writer.write(line)
        return fut

    async def call(self, op: str, **fields) -> dict:
        return await self.call_line(_line(op, **fields))

    async def call_line(self, line: bytes) -> dict:
        fut = self.send_line(line)
        await self.writer.drain()
        return await fut

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass
        self.task.cancel()
        await asyncio.gather(self.task, return_exceptions=True)


def _line(op: str, **fields) -> bytes:
    return (json.dumps({"op": op, **fields}) + "\n").encode()


def _record(p) -> list:
    return [p.seq, list(p.values), p.time]


def _batches(pts, batch: int) -> List[bytes]:
    """``points`` requests of ``batch`` records each, encoded up front so
    the closed loops spend no time encoding inside the timed segments."""
    return [_line("points", records=[_record(p) for p in pts[i:i + batch]])
            for i in range(0, len(pts), batch)]


async def _http_metrics(port: int) -> dict:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(b"GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n")
    await writer.drain()
    raw = await reader.read()
    writer.close()
    return json.loads(raw.partition(b"\r\n\r\n")[2])


class Service:
    """The service subprocess started through the launcher."""

    def __init__(self, trace: bool, out_path: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        self.out_path = out_path
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "serve_launcher.py"),
             "--trace", str(int(trace)), "--out", out_path],
            stdout=subprocess.PIPE, env=env, cwd=ROOT)

    async def ready(self, timeout: float = 60.0):
        line = await asyncio.wait_for(
            asyncio.get_running_loop().run_in_executor(
                None, self.proc.stdout.readline), timeout)
        parts = line.decode().split()
        if len(parts) != 3 or parts[0] != "READY":
            raise RuntimeError(f"service failed to start: {line!r}")
        return int(parts[1]), int(parts[2])

    def stop(self) -> dict:
        """SIGTERM (graceful drain), wait, and read the summary."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        with open(self.out_path) as fh:
            return json.load(fh)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def plan(base: QueryGroup, steady_points: int, sat_points: int,
         churn_points: int) -> List[tuple]:
    """The segments ``(kind, lo, hi)`` of seqs after the warm-up: the
    open-loop and saturation points split over ``ROUNDS`` rounds, then
    the churn; bounds on multiples of the swift slide."""
    slide = base.swift.slide
    lo = (base.swift.win // slide + 1) * slide

    def upto(n: int) -> int:
        return lo + max(2, n // slide) * slide

    segments = []
    for _ in range(ROUNDS):
        for kind, n in (("open", steady_points), ("closed", sat_points)):
            segments.append((kind, lo, upto(n // ROUNDS)))
            lo = segments[-1][2]
    segments.append(("churn", lo, upto(churn_points)))
    return segments


class Session:
    """One service lifetime driven through the segments of ``plan``."""

    def __init__(self, base: QueryGroup, points, segments: List[tuple],
                 extras, churn_every: int, trace: bool, out_path: str):
        self.base = base
        self.points = points
        self.slide = base.swift.slide
        # a base query is due at every swift boundary, so the push of
        # boundary t shows that the service has processed every boundary
        # up to t (the churn's exactness rests on it)
        if not any(q.window.slide == self.slide for q in base.queries):
            raise ValueError("no base query runs on the swift slide")
        self.warm_end = segments[0][1]
        self.segments = segments
        self.extras = list(extras)
        self.churn_every = churn_every
        self.trace = trace
        self.out_path = out_path
        self.gen_lags: List[float] = []
        self.backlog: List[tuple] = []
        self.errors: List[str] = []
        self.ops = 0
        #: extra query handle -> [extra query index, first boundary it
        #: is live at, first boundary it is withdrawn at]
        self.extra_spans: Dict[int, list] = {}
        #: per connection, the handle of its live extra query
        self._live: Dict[int, Optional[int]] = {0: None, 1: None}
        self._next_extra = 0
        self.conns: List[Conn] = []
        #: (lo, hi, start, end) of every open-loop segment but the churn
        self.open_spans: List[tuple] = []
        #: (points, seconds) of every saturation segment
        self.drains: List[tuple] = []
        self._starts: List[tuple] = []
        self._metrics_depth = 0
        self._pending = 0

    def due(self, seq: int) -> float:
        """When record ``seq`` of an open-loop segment was due."""
        for lo, hi, start in self._starts:
            if lo <= seq < hi:
                return start + (seq - lo) / OFFERED_PPS
        raise ValueError(f"seq {seq} is in no open-loop segment")

    @staticmethod
    async def _pushed(conn: Conn, t: int) -> float:
        """Wait for boundary ``t``'s push; returns when it arrived."""
        while t not in conn.pushes:
            await asyncio.sleep(0.001)
        return conn.pushes[t][0]

    # ------------------------------------------------------------ segments

    async def drive(self, setup_only: bool = False) -> dict:
        """Run the segments; ``setup_only`` stops after the set-up (the
        extra set-ups ``setup_s`` takes the median over)."""
        service = Service(self.trace, self.out_path)
        try:
            t0 = time.perf_counter()
            port, http_port = await service.ready()
            conns = self.conns = [await Conn.open(port, "producer-a"),
                                  await Conn.open(port, "producer-b")]
            ctl = await Conn.open(port, "sampler", producer=False)
            for q in self.base.queries:
                await self._ok(conns[0].call("register",
                                             query=wire_query(q)))
            for h in range(len(self.base)):
                await self._ok(conns[1].call("claim", handle=h))
            for c in conns:
                await self._ok(c.call("subscribe"))
            mine = [[p for p in self.points if p.seq % 2 == i]
                    for i in (0, 1)]
            await self._ok(conns[0].call("points",
                                         records=[_record(self.points[0])]))
            setup_s = time.perf_counter() - t0
            if setup_only:
                for c in conns + [ctl]:
                    await c.close()
                service.stop()
                return {"setup_s": setup_s}
            sampler = asyncio.get_running_loop().create_task(
                self._sample(ctl, http_port))

            # warm-up: the first swift window, closed loop
            lines = [_batches([p for p in m if 1 <= p.seq < self.warm_end],
                              SATURATION_BATCH) for m in mine]
            t0 = time.perf_counter()
            await asyncio.gather(*(self._closed_loop(c, ls)
                                   for c, ls in zip(conns, lines)))
            await self._pushed(conns[0], self.warm_end - self.slide)
            warmup_s = time.perf_counter() - t0

            for kind, lo, hi in self.segments:
                await self._segment(conns, mine, kind, lo, hi)
            for i, c in enumerate(conns):
                if self._live[i] is not None:
                    await self._churn(i, c, self.segments[-1][2])
            for c in conns:
                await self._ok(c.call("end"))
            await asyncio.wait_for(
                asyncio.gather(*(c.stream_end.wait() for c in conns)), 120)
            capacity = (sum(n for n, _ in self.drains)
                        / sum(s for _, s in self.drains))
            sampler.cancel()
            await asyncio.gather(sampler, return_exceptions=True)
            metrics = await _http_metrics(http_port)
            for c in conns + [ctl]:
                await c.close()
            summary = service.stop()
        except BaseException:
            service.kill()
            raise
        return {
            "setup_s": setup_s, "warmup_s": warmup_s, "capacity": capacity,
            "pushes": [c.pushes for c in conns], "metrics": metrics,
            "summary": summary,
            "final_boundary": metrics["service"]["boundaries"]["last"],
        }

    async def _ok(self, fut) -> dict:
        reply = await fut
        self.ops += 1
        if not reply.get("ok"):
            self.errors.append(json.dumps(reply)[:200])
        return reply

    async def _segment(self, conns, mine, kind: str, lo: int, hi: int
                       ) -> None:
        """Send seqs ``lo .. hi-1`` once the service has caught up."""
        await self._pushed(conns[0], lo - self.slide)
        pts = [[p for p in m if lo <= p.seq < hi] for m in mine]
        if kind == "closed":
            lines = [_batches(m, SATURATION_BATCH) for m in pts]
            t0 = time.perf_counter()
            await asyncio.gather(*(self._closed_loop(c, ls)
                                   for c, ls in zip(conns, lines)))
            # drained once the last boundary these records complete is
            done = await self._pushed(conns[0], hi - self.slide)
            self.drains.append((hi - lo, done - t0))
            return
        start = time.perf_counter()
        self._starts.append((lo, hi, start))
        await asyncio.gather(*(
            self._open_loop(i, c, m, lo if kind == "churn" else None)
            for i, (c, m) in enumerate(zip(conns, pts))))
        if kind == "open":
            self.open_spans.append((lo, hi, start, time.perf_counter()))

    async def _closed_loop(self, conn: Conn, lines: List[bytes]) -> None:
        for line in lines:
            await self._ok(conn.call_line(line))

    async def _open_loop(self, idx: int, conn: Conn, pts,
                         churn_from: Optional[int]) -> None:
        """Send ``pts`` on schedule; from seq ``churn_from`` on (if
        given), churn every ``churn_every`` boundaries."""
        replies = []
        churn_at = self.slide * self.churn_every
        # this connection owns every other churn event (odd / even)
        next_event = (math.inf if churn_from is None
                      else churn_from + churn_at * (2 - idx))
        i = 0
        while i < len(pts):
            if pts[i].seq >= next_event:
                await self._churn(idx, conn, next_event)
                next_event += 2 * churn_at
                continue
            due = self.due(pts[i].seq)
            now = time.perf_counter()
            if due > now:
                await asyncio.sleep(due - now)
                now = time.perf_counter()
            j = i + 1
            while (j < len(pts) and j - i < OPEN_BATCH
                   and pts[j].seq < next_event
                   and self.due(pts[j].seq) <= now):
                j += 1
            if churn_from is None:
                # the churn pauses the generator on purpose
                self.gen_lags.append(now - due)
            replies.append(conn.send(
                "points", records=[_record(p) for p in pts[i:j]]))
            await conn.writer.drain()
            i = j
        for fut in replies:
            await self._ok(fut)

    async def _churn(self, idx: int, conn: Conn, at: int) -> None:
        """Register an extra query, or deregister the one registered,
        effective at boundary ``at``.

        The caller has sent every record of this connection before
        ``at`` and none after.  Once boundary ``at - slide`` is answered
        the service has processed every boundary before ``at`` and can
        process ``at`` only after this connection's next record, which
        is sent after the reply.
        """
        await self._pushed(self.conns[0], at - self.slide)
        live = self._live[idx]
        if live is None:
            q = self._next_extra
            self._next_extra += 1
            reply = await self._ok(conn.call(
                "register", query=wire_query(self.extras[q])))
            if reply.get("ok"):
                self._live[idx] = reply["handle"]
                self.extra_spans[reply["handle"]] = [q, at, None]
            return
        self._live[idx] = None
        reply = await self._ok(conn.call("deregister", handle=live))
        if reply.get("ok"):
            self.extra_spans[live][2] = at

    async def _sample(self, ctl: Conn, http_port: int) -> None:
        """Backlog samples: queue depth (``/metrics``) + pending (``stat``)."""
        next_metrics = 0.0
        while True:
            reply = await ctl.call("stat")
            self._pending = reply.get("engine", {}).get("records_pending", 0)
            now = time.perf_counter()
            if now >= next_metrics:
                m = await _http_metrics(http_port)
                self._metrics_depth = m["service"]["queue"]["depth"]
                next_metrics = now + METRICS_PERIOD
            self.backlog.append((now, self._metrics_depth + self._pending))
            await asyncio.sleep(STAT_PERIOD)


def _latencies(sess: Session, pushes) -> List[float]:
    """Due-time latency (ms) of every open-loop boundary with a push."""
    arrivals: Dict[int, float] = {}
    for conn_pushes in pushes:
        for t, (at, _) in conn_pushes.items():
            arrivals[t] = min(at, arrivals.get(t, at))
    out = []
    for t, at in sorted(arrivals.items()):
        if any(lo <= t and t + 1 < hi for lo, hi, _, _ in sess.open_spans):
            out.append((at - max(sess.due(t), sess.due(t + 1))) * 1000.0)
    return out


def _oracle(sess: Session) -> tuple:
    """Offline ``Runtime`` over the merged stream with the base queries
    and, after them, every extra query the session registered (in
    handle order); returns ``(queries, runtime, outputs)``."""
    extras = [sess.extras[sess.extra_spans[h][0]]
              for h in sorted(sess.extra_spans)]
    queries = list(sess.base.queries) + extras
    runtime = Runtime(QueryGroup(queries))
    return queries, runtime, runtime.run(sess.points).outputs


def _check(report: Report, sess: Session, run: dict, oracle: tuple,
           seed: int) -> str:
    """Pushes vs the offline oracle; returns the digest of every pushed
    (handle, boundary) cell."""
    queries, _, outputs = oracle
    base_n = len(sess.base)
    index = {h: h for h in range(base_n)}
    index.update({h: base_n + i for i, h in enumerate(sorted(sess.extra_spans))})
    final = run["final_boundary"]
    cells = {}
    seen = collections.defaultdict(set)  # extra handle -> pushed boundaries
    for conn_pushes in run["pushes"]:
        base_seen = collections.defaultdict(set)
        for t, (_, outs) in conn_pushes.items():
            for h, seqs in outs.items():
                report.attempt()
                (base_seen if h < base_n else seen)[h].add(t)
                want = outputs.get((index[h], t)) if h in index else None
                if seqs != want:
                    report.fail(f"push t={t} handle {h} differs from the "
                                "offline oracle")
                cells[(h, t)] = seqs
        # every due boundary of a base query is pushed to both producers
        for h in range(base_n):
            due = {t for t in range(sess.slide, final + 1, sess.slide)
                   if sess.base[h].window.due_at(t)}
            report.attempt(len(due))
            if due - base_seen[h]:
                report.fail(f"{len(due - base_seen[h])} push(es) for handle "
                            f"{h} missing", len(due - base_seen[h]))
    # an extra query is pushed at exactly its due boundaries while live
    for h, (q, start, stop) in sorted(sess.extra_spans.items()):
        stop = final + sess.slide if stop is None else stop
        due = {t for t in range(start, stop, sess.slide)
               if sess.extras[q].window.due_at(t)}
        report.attempt(len(due))
        if due - seen[h]:
            report.fail(f"extra handle {h} missed {len(due - seen[h])} due "
                        f"boundar(ies) in [{start}, {stop})",
                        len(due - seen[h]))
        if seen[h] - due:
            report.fail(f"extra handle {h} pushed at "
                        f"{len(seen[h] - due)} boundar(ies) outside "
                        f"[{start}, {stop})")
    metric = get_metric("euclidean")
    rng = random.Random(seed)
    for qi, t in rng.sample(sorted(outputs), min(GATE_CELLS, len(outputs))):
        q = queries[qi]
        report.attempt()
        want = brute_force_outliers(population(sess.points, t, q.win),
                                    q.r, q.k, metric)
        if outputs[(qi, t)] != want:
            report.fail(f"oracle query {qi} boundary {t} differs from "
                        "brute force")
    return outputs_digest(cells)


def _offline_replay(base: QueryGroup, points, start: int):
    """Offline ``Runtime`` over the same stream and base workload: its
    rate over the boundaries past ``start``, the runtime, and its
    result."""
    runtime = Runtime(base)
    busy, n = 0.0, 0
    for t, batch in batches_by_boundary(points, base.swift.slide, base.kind):
        a = time.perf_counter()
        runtime.step(t, batch)
        if t > start:
            busy += time.perf_counter() - a
            n += len(batch)
    return n / busy, runtime, runtime.finish()


def run(seed: int, seconds: float, trace: bool, smoke: bool = False
        ) -> Report:
    report = Report("serve-churn", seed, trace)
    base = stock_queries(8, SMOKE_RANGES if smoke else SERVE_RANGES)
    runs_wanted = 2 if trace else 1
    segments = plan(
        base, int(OFFERED_PPS * seconds * STEADY_SHARE / runs_wanted),
        int(NOMINAL_CAPACITY * seconds * SATURATION_SHARE / runs_wanted),
        int(OFFERED_PPS * seconds * CHURN_SHARE / runs_wanted))
    points = stock_points(segments[-1][2], seed)
    # the trace lives as long as the process: keep the collector from
    # scanning it, so the generator's pauses stay short
    gc.freeze()
    extras = extra_queries(base, 64)
    os.makedirs(OUT_DIR, exist_ok=True)

    setups, warmups = [], []

    def set_up_only(count: int) -> None:
        for _ in range(count):
            sess = Session(base, points, segments, extras, CHURN_EVERY,
                           False, os.path.join(OUT_DIR, "serve-setup.json"))
            result = asyncio.run(asyncio.wait_for(
                sess.drive(setup_only=True), SESSION_TIMEOUT))
            setups.append(result["setup_s"])

    # the extra set-ups come before and after the measured lifetimes, so
    # their median does not hang on the machine's speed at one moment
    extra = SETUP_REPEATS - runs_wanted
    set_up_only(extra // 2)
    sessions = []
    for traced in ([False, True] if trace else [False]):
        sess = Session(base, points, segments, extras,
                       1 if smoke else CHURN_EVERY, traced, os.path.join(
                           OUT_DIR, f"serve-summary-seed{seed}"
                                    f"-trace{int(traced)}.json"))
        result = asyncio.run(asyncio.wait_for(sess.drive(), SESSION_TIMEOUT))
        setups.append(result["setup_s"])
        warmups.append(result["warmup_s"])
        sessions.append((sess, result))
    set_up_only(extra - extra // 2)
    # every lifetime's replies and pushes go through the gate; they
    # register the same extra queries, so they share one oracle
    oracles: Dict[tuple, tuple] = {}
    digests = []
    for sess, result in sessions:
        report.attempt(sess.ops)
        for err in sess.errors:
            report.fail(f"error reply: {err}")
        key = tuple(q for q, _, _ in sess.extra_spans.values())
        if key not in oracles:
            oracles[key] = _oracle(sess)
        digests.append(_check(report, sess, result, oracles[key], seed))
    sess, result = sessions[0]
    latencies = _latencies(sess, result["pushes"])
    tail_ms, tail_pct, n = tail(latencies)
    report.attempt()
    if tail_ms > LATENCY_LIMIT_MS:
        report.fail(f"latency tail {tail_ms:.1f} ms over the "
                    f"{LATENCY_LIMIT_MS:g} ms limit")
    summary = result["summary"]
    per_span = [[b for at, b in sess.backlog if start <= at <= end]
                for _, _, start, end in sess.open_spans]
    backlog = [b for span in per_span for b in span]
    growing = any(_backlog_grows(span) for span in per_span)
    open_s = sum(end - start for _, _, start, end in sess.open_spans)
    report.note("latency_tail", f"p{tail_pct:.1f} of {n} pushes; limit "
                f"{LATENCY_LIMIT_MS:g} ms "
                f"{'met' if tail_ms <= LATENCY_LIMIT_MS else 'MISSED'}")
    report.note("offered_pps", f"{OFFERED_PPS:g} for {open_s:.1f} s"
                f" ({'UNSUSTAINABLE: backlog grows' if growing else 'sustained'})")
    report.note("serve_capacity_pps", round(result["capacity"], 1))
    report.note("gen_lag_p99_ms", round(p99(sess.gen_lags) * 1000.0, 3))
    report.note("backlog_max", max(backlog, default=0))
    report.note("churn", f"{len(sess.extra_spans)} extra queries "
                "registered and withdrawn")
    # counts that repeat exactly for a seed: the pushed outputs, the
    # evidence peak of the service's runtimes (every rebuild happens at
    # a fixed boundary), and the detector counters of the oracle replay
    oracle_counters = runtime_counters(oracles[next(iter(oracles))][1])
    for other in digests[1:]:
        if other != digests[0]:
            report.note("determinism.lifetimes",
                        f"CHANGED outputs digest {digests[0]} / {other}")
    check_determinism(report, {
        "outputs_digest": digests[0],
        "peak_memory_units": summary["peak_memory_units"],
        **{f"oracle.{k}": oracle_counters[k]
           for k in ("ksky.runs", "sop.fully_safe_marked")},
        **{f"oracle.{k}": v for k, v in oracle_counters.items()
           if k.startswith("refresh.auto_choice")},
    }, f"n{len(points)}")

    report.put("throughput_pps", result["capacity"])
    report.put("latency_p50_ms", median(latencies))
    report.put("latency_tail_ms", tail_ms)
    report.put("setup_s", median(setups))
    report.put("runtime.warmup_s", median(warmups))
    report.note("warmup_s", f"{median(warmups):.4f} (median of "
                f"{len(warmups)} service lifetime(s))")
    report.put("peak_memory_units", summary["peak_memory_units"])
    report.put("peak_rss_mb", summary["vm_hwm_mb"])
    if trace:
        _layer_metrics(report, base, points, sessions)
    return report


def _backlog_grows(samples: List[int]) -> bool:
    """Backlog in the last quarter of an open-loop segment well above
    the first."""
    if len(samples) < 8:
        return False
    q = len(samples) // 4
    return median(samples[-q:]) > 2 * median(samples[:q]) + 500


def _layer_metrics(report, base, points, sessions) -> None:
    (plain, plain_res), (traced, res) = sessions
    spans = res["summary"]["spans"]
    for name, value in trace_metrics(spans).items():
        report.put(name, value)
    # a rebuild: retained window + new runtime + preload, and the first
    # boundary of the new runtime (which rebuilds every point's evidence)
    # (the first boundary may fall in a later pump than the rebuild)
    ordered = sorted(spans, key=lambda s: s["start"])
    rebuilds = []
    for i, s in enumerate(ordered):
        if s["name"] == "serve.retained":
            cost = 0.0
            for k in ordered[i:]:
                if k["name"] in ("serve.retained", "serve.build",
                                 "serve.preload", "runtime.step"):
                    cost += k["end"] - k["start"]
                if k["name"] == "runtime.step":
                    break
            rebuilds.append(cost * 1000.0)
    # queue waits of records that left their queue in the open loop,
    # before the churn
    waits = [w for at, w in res["summary"]["queue_waits"]
             if any(start <= at <= end
                    for _, _, start, end in traced.open_spans)]
    report.put("serve.rebuilds", len(rebuilds))
    report.put("serve.rebuild_ms", median(rebuilds))
    report.put("serve.queue_wait_ms", median(waits) * 1000.0)
    backlog = [b for _, b in plain.backlog]
    report.put("serve.backlog_max", max(backlog, default=0))
    report.put("serve.records_rejected",
               plain_res["metrics"]["service"]["records"]["rejected"])
    report.put("serve.pushes",
               sum(len(p) for p in plain_res["pushes"]))
    offline, replay, result = _offline_replay(base, points, plain.warm_end)
    report.put("serve.overhead_ratio", offline / plain_res["capacity"])
    report.put("serve.capacity_pps", plain_res["capacity"])
    report.put("serve.gen_lag_p99_ms", p99(plain.gen_lags) * 1000.0)
    report.put("trace.overhead_ratio",
               plain_res["capacity"] / res["capacity"])
    # detector counters the service does not expose over the wire come
    # from the offline replay of the same stream and base workload; the
    # refresh and prefilter counters are the service's own (/metrics)
    counts = res["summary"]["counts"]
    report.put("runtime.replication_ratio",
               counts.get("partition.routed", 0)
               / max(1, counts.get("partition.points", 0)))
    counters = runtime_counters(replay)
    counters.update(work_counters(plain_res["metrics"]["work"]))
    counters["evaluate.due_queries"] = len(result.outputs)
    for key, value in counters.items():
        if key != "peak_memory_units":
            report.put(key, value)
    plans = []
    for _ in range(9):
        t0 = time.perf_counter()
        plan = parse_workload(base)
        plans.append(time.perf_counter() - t0)
    report.put("parser.plan_ms", median(plans) * 1000.0)
    report.put("parser.layers", plan.n_layers)
    report.note("trace.capacity", f"untraced {plain_res['capacity']:.1f} / "
                f"traced {res['capacity']:.1f}")
