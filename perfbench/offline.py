"""The offline workload, ``dense-window``.

A run builds one :class:`~repro.runtime.Runtime` and steps it boundary by
boundary over the workload's seeded stream, timing each ``Runtime.step``,
until ``--seconds`` are spent (and at least the workload's check prefix
is processed).  Boundaries up to the first swift-window fill are the
warm-up; the rest are the steady state the throughput and latency
figures come from.  The machine's speed drifts over seconds, so the
other figures are sampled across the whole run rather than at its
start: set-up -- runtime construction, which parses the shared plan and
builds every shard's detector -- is timed once after every boundary and
reports the median, and a traced run repeats the warm-up on fresh
runtimes at even intervals through the run.

A latency sample is the mean ``Runtime.step`` time of a group of
``LATENCY_GROUP`` consecutive steady boundaries (see there why).

Outputs digest, work counters, peak evidence and peak RSS are taken at
the end of the check prefix, so they do not depend on how far a run
gets (the RSS at the end of the run is printed as a note); a seeded
sample of the prefix's (query, boundary) cells is checked against brute
force after the timed region.

A traced run (``--trace 1``) alternates blocks of traced and untraced
boundaries: spans come from the traced blocks, the tracing overhead is
the untraced rate over the traced one.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import random
import time
from typing import Dict, List

from repro import DetectorConfig
from repro.baselines.naive import brute_force_outliers
from repro.core.parser import parse_workload
from repro.core.point import get_metric
from repro.runtime import Runtime

from benchlib import (OUT_DIR, Report, Tracer, check_determinism,
                      instrument, median, outputs_digest, runtime_counters,
                      tail, trace_metrics, vm_hwm_mb)
from workloads import clustered_stream, dense_queries, population

NAME = "dense-window"
#: qn exact prefilter, 2 serial shards
CONFIG = DetectorConfig(prefilter="qn", prefilter_mode="exact", shards=2,
                        backend="serial")
#: every run processes at least this prefix (smoke: the second figure);
#: outputs digest, work counters and the brute-force gate are taken over
#: it, so they repeat exactly for a seed however fast the program is
CHECK_POINTS = (65536, 4096)
#: (query, boundary) cells checked against brute force per run
GATE_CELLS = (3, 2)
#: first-window fills timed in a traced run (the median is
#: ``runtime.warmup_s``)
WARM_REPEATS = 7
#: set-ups before the run starts (more follow every boundary)
SETUP_REPEATS = 21
#: boundaries per traced / untraced block of a traced run
TRACE_BLOCK = 8
#: consecutive steady boundaries per latency sample.  Every steady
#: boundary costs the same, so a single boundary's step time samples
#: little but the machine's speed, which on a shared host sits at one of
#: two levels ~1.45x apart for about a second at a time; the median of
#: single steps then snaps to one level or the other from run to run.
#: A sample averaging 4 steps (~0.5 s) often mixes both levels, and
#: leaves about 60 samples per 30-s run for the tail
LATENCY_GROUP = 4


def _setup(group) -> Runtime:
    runtime = Runtime(group, config=CONFIG)
    runtime.shards  # builds every shard's detector and shared plan
    return runtime


def _warm_up(group, points) -> float:
    """Time one first swift-window fill on a fresh runtime."""
    runtime = _setup(group)
    slide, win = group.swift.slide, group.swift.win
    busy = 0.0
    for t in range(slide, win + 1, slide):
        batch = points[t - slide:t]
        a = time.perf_counter()
        runtime.step(t, batch)
        busy += time.perf_counter() - a
    return busy


def _gate(report: Report, group, points, outputs, seed: int,
          n_cells: int) -> None:
    """Check a seeded sample of (query, boundary) cells by brute force."""
    metric = get_metric(CONFIG.metric)
    cells = sorted(outputs)
    rng = random.Random(seed)
    for qi, t in rng.sample(cells, min(n_cells, len(cells))):
        q = group[qi]
        want = brute_force_outliers(population(points, t, q.win), q.r, q.k,
                                    metric)
        report.attempt()
        if outputs[(qi, t)] != want:
            report.fail(f"query {qi} boundary {t}: "
                        f"{len(outputs[(qi, t)] ^ want)} seqs differ")


def run(seed: int, seconds: float, trace: bool, smoke: bool = False
        ) -> Report:
    report = Report(NAME, seed, trace)
    group = dense_queries(smoke)
    check_points = CHECK_POINTS[smoke]
    slide, swift_win = group.swift.slide, group.swift.win
    check_end = (check_points // slide) * slide
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        _setup(group)
        setups.append(time.perf_counter() - t0)

    tracer = Tracer()
    stream = clustered_stream(seed)
    prefix: List = []        # the check prefix, kept for the gate
    outputs: Dict[tuple, frozenset] = {}
    steps: List[tuple] = []  # (t, points, seconds, traced)
    counters: Dict[str, float] = {}
    runtime = _setup(group)
    warmups: List[float] = []
    start = time.perf_counter()
    excluded = 0.0           # time spent in the extra warm-ups
    t = 0
    while True:
        batch = list(itertools.islice(stream, slide))
        t += slide
        if t <= check_end:
            prefix.extend(batch)
        traced = (trace and t > swift_win
                  and (t // slide) // TRACE_BLOCK % 2 == 1)
        with (instrument(tracer) if traced else contextlib.nullcontext()):
            a = time.perf_counter()
            out = runtime.step(t, batch)
            steps.append((t, len(batch), time.perf_counter() - a, traced))
        if t <= check_end:
            for qi, seqs in out.items():
                outputs[(qi, t)] = seqs
        if t == check_end:
            counters = runtime_counters(runtime)
            rss = vm_hwm_mb()
        a = time.perf_counter()
        _setup(group)
        setups.append(time.perf_counter() - a)
        spent = time.perf_counter() - start - excluded
        if trace and t > swift_win and len(warmups) < WARM_REPEATS - 1 and (
                spent >= seconds * (len(warmups) + 1) / WARM_REPEATS):
            a = time.perf_counter()
            warmups.append(_warm_up(group, prefix))
            excluded += time.perf_counter() - a
        if t >= check_end and spent >= seconds:
            break
    report.note("peak_rss_mb.run_end", f"{vm_hwm_mb():.1f}")
    warmups.append(sum(s[2] for s in steps if s[0] <= swift_win))
    steady = [s for s in steps if s[0] > swift_win and not s[3]]
    report.note("boundaries", f"{len(steps)} ({len(steady)} steady "
                f"untraced), {sum(s[1] for s in steps)} points")

    report.attempt(len(steps))
    check_determinism(report, {
        "outputs_digest": outputs_digest(outputs),
        **{k: counters[k] for k in ("ksky.runs", "sop.fully_safe_marked",
                                    "peak_memory_units")},
        **{k: v for k, v in counters.items()
           if k.startswith("refresh.auto_choice")},
    }, f"n{check_points}")
    _gate(report, group, prefix, outputs, seed, GATE_CELLS[smoke])

    latencies = [
        sum(s[2] for s in steady[i:i + LATENCY_GROUP]) * 1000.0
        / LATENCY_GROUP
        for i in range(0, len(steady) - LATENCY_GROUP + 1, LATENCY_GROUP)]
    tail_ms, tail_pct, n = tail(latencies)
    pps = _rate(steady)
    report.note("latency_tail", f"p{tail_pct:.1f} of {n} samples (mean "
                f"step time of {LATENCY_GROUP} consecutive boundaries)")
    report.put("throughput_pps", pps)
    report.put("latency_p50_ms", median(latencies))
    report.put("latency_tail_ms", tail_ms)
    report.put("setup_s", median(setups))
    report.put("runtime.warmup_s", median(warmups))
    report.note("warmup_s", f"{median(warmups):.4f} (median of "
                f"{len(warmups)} first-window fills)")
    report.put("peak_memory_units", counters["peak_memory_units"])
    report.put("peak_rss_mb", rss)
    if trace:
        traced_pps = _rate([s for s in steps if s[3]])
        _layer_metrics(report, group, tracer, counters, len(outputs))
        report.put("trace.overhead_ratio", pps / traced_pps)
        report.note("trace.pps",
                    f"untraced {pps:.1f} / traced {traced_pps:.1f}")
    return report


def _rate(steps) -> float:
    """Points per second over the given steps (busy time only)."""
    return sum(s[1] for s in steps) / sum(s[2] for s in steps)


def _layer_metrics(report, group, tracer, counters, due) -> None:
    spans = [s.as_dict() for s in tracer.spans]
    for name, value in trace_metrics(spans).items():
        report.put(name, value)
    routed = tracer.counts.get("partition.routed", 0)
    report.put("runtime.replication_ratio",
               routed / max(1, tracer.counts.get("partition.points", 0)))
    for key, value in counters.items():
        if key != "peak_memory_units":
            report.put(key, value)
    report.put("evaluate.due_queries", due)
    plans = []
    for _ in range(9):
        t0 = time.perf_counter()
        plan = parse_workload(group)
        plans.append(time.perf_counter() - t0)
    report.put("parser.plan_ms", median(plans) * 1000.0)
    report.put("parser.layers", plan.n_layers)
    for key in ("serve.pump_ms", "serve.queue_wait_ms", "serve.rebuilds",
                "serve.rebuild_ms", "serve.backlog_max",
                "serve.records_rejected", "serve.pushes",
                "serve.overhead_ratio", "serve.capacity_pps",
                "serve.gen_lag_p99_ms"):
        report.put(key, 0.0)
    path = os.path.join(OUT_DIR, f"spans-{report.workload}"
                                 f"-seed{report.seed}.json")
    tracer.dump(path)
    report.note("spans_file", os.path.relpath(path))
