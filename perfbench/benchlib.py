"""Shared pieces of the benchmark: statistics, tracing, reporting.

Tracing is done entirely from outside the program: :func:`instrument`
patches the public entry points of each layer (``Runtime.step``,
``StreamPartitioner.split``, ``Merger.merge_boundary``,
``ShardExecutor.step`` plus an ``ExecutorSubscriber`` on the stage hooks,
``InlierScreen.prune_mask``, and for the service ``ServiceEngine.pump``,
``Runtime.preload``, ``Runtime.retained_points`` and ``Runtime``
construction) for the duration of a ``with`` block.  Spans stay in
memory and are written out when the run ends.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import json
import os
import statistics
import sys
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: the checkout root (the directory holding ``perfbench/`` and ``src/``)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: where runs leave span files, reports and determinism records
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

# --------------------------------------------------------------- metric names

END_TO_END = (
    ("throughput_pps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_memory_units", "count"),
    ("peak_rss_mb", "MB"),
)

#: traced layer spans; self time is reported for each
LAYERS = (
    "runtime.step", "runtime.partition", "runtime.merge", "shard.step",
    "sop.ingest", "sop.expire", "sop.refresh", "sop.evaluate",
    "prefilter.screen", "serve.pump", "serve.retained", "serve.build",
    "serve.preload",
)

PER_LAYER = (
    ("runtime.warmup_s", "s"),
    ("runtime.step_ms", "ms"),
    ("runtime.partition_ms", "ms"),
    ("runtime.merge_ms", "ms"),
    ("runtime.replication_ratio", "ratio"),
    ("runtime.shard_skew", "ratio"),
    ("sop.ingest_ms", "ms"),
    ("sop.expire_ms", "ms"),
    ("sop.refresh_ms", "ms"),
    ("sop.evaluate_ms", "ms"),
    ("prefilter.screen_ms", "ms"),
    ("prefilter.screened", "count"),
    ("prefilter.pruned", "count"),
    ("prefilter.prune_ratio", "ratio"),
    ("refresh.kernel_launches", "count"),
    ("refresh.distance_rows", "count"),
    ("refresh.rows_per_launch", "ratio"),
    ("refresh.python_insert_iters", "count"),
    ("refresh.candidates_pruned", "count"),
    ("refresh.auto_choice.batched", "count"),
    ("refresh.auto_choice.grid", "count"),
    ("refresh.auto_choice.per-point", "count"),
    ("ksky.runs", "count"),
    ("ksky.points_examined", "count"),
    ("ksky.early_term_ratio", "ratio"),
    ("sop.fully_safe_marked", "count"),
    ("sop.evidence_units_peak", "count"),
    ("evaluate.due_queries", "count"),
    ("evaluate.flatten_rebuilds", "count"),
    ("parser.plan_ms", "ms"),
    ("parser.layers", "count"),
    ("serve.pump_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.rebuilds", "count"),
    ("serve.rebuild_ms", "ms"),
    ("serve.backlog_max", "count"),
    ("serve.records_rejected", "count"),
    ("serve.pushes", "count"),
    ("serve.overhead_ratio", "ratio"),
    ("serve.capacity_pps", "1/s"),
    ("serve.gen_lag_p99_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
) + tuple((f"self_ms.{name}", "ms") for name in LAYERS)

AUTO_ENGINES = ("batched", "grid", "per-point")


# ----------------------------------------------------------------- statistics

def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(samples: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, n)``: the 11th-largest sample and its
    percentile rank.  With fewer than 11 samples nothing qualifies; the
    maximum is returned with percentile 100.
    """
    n = len(samples)
    if n == 0:
        return 0.0, 0.0, 0
    ordered = sorted(samples)
    if n < 11:
        return float(ordered[-1]), 100.0, n
    i = n - 11
    return float(ordered[i]), 100.0 * i / (n - 1), n


def p99(samples: Sequence[float]) -> float:
    if len(samples) < 2:
        return float(samples[0]) if samples else 0.0
    return float(statistics.quantiles(samples, n=100)[98])


def vm_hwm_mb(pid: str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found in /proc status")


def outputs_digest(outputs: Dict[Tuple[int, int], Iterable[int]]) -> str:
    """Order-independent digest of ``{(query, boundary): seqs}``."""
    h = hashlib.sha256()
    for key in sorted(outputs):
        h.update(repr((key, sorted(outputs[key]))).encode())
    return h.hexdigest()[:16]


def work_counters(work: Dict[str, int]) -> Dict[str, float]:
    """Refresh and prefilter metrics from merged ``work_stats`` counters."""
    launches = work.get("kernel_launches", 0)
    screened = work.get("prefilter_screened", 0)
    pruned = work.get("prefilter_pruned", 0)
    return {
        "refresh.kernel_launches": launches,
        "refresh.distance_rows": work.get("distance_rows", 0),
        "refresh.rows_per_launch": work.get("batch_rows", 0) / max(1, launches),
        "refresh.python_insert_iters": work.get("python_insert_iters", 0),
        "refresh.candidates_pruned": work.get("candidates_pruned", 0),
        "prefilter.screened": screened,
        "prefilter.pruned": pruned,
        "prefilter.prune_ratio": pruned / max(1, screened),
    }


def runtime_counters(runtime) -> Dict[str, float]:
    """Work counters of a stepped runtime so far, from the public stats
    of every shard (``det.stats``, ``work_stats()``, the executors'
    memory meters and AutoRefresh's decision trace)."""
    stats: Dict[str, int] = collections.Counter()
    choices: Dict[str, int] = collections.Counter()
    peaks = []
    for shard in runtime.shards:
        stats.update(shard.detector.stats)
        for _, choice, _ in getattr(shard.detector.refresh_engine,
                                    "decisions", ()):
            choices[choice] += 1
        peaks.append(shard.result.memory.peak_units)
    runs = stats["ksky_runs"]
    out = {
        "ksky.runs": runs,
        "ksky.points_examined": stats["points_examined"],
        "ksky.early_term_ratio": stats["early_terminations"] / max(1, runs),
        "sop.fully_safe_marked": stats["fully_safe_marked"],
        "sop.evidence_units_peak": max(peaks),
        "evaluate.flatten_rebuilds": stats["eval_flatten_rebuilds"],
        "peak_memory_units": sum(peaks),
        **work_counters(runtime.work_stats()),
    }
    for engine in AUTO_ENGINES:
        out[f"refresh.auto_choice.{engine}"] = choices[engine]
    return out


# -------------------------------------------------------------------- tracing

class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "trace", "tag")

    def __init__(self, sid, name, start, parent, trace, tag=None):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.trace = trace
        self.tag = tag

    def as_dict(self) -> dict:
        return {"id": self.sid, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent,
                "trace": self.trace, "tag": self.tag}


class Tracer:
    """In-memory span recorder for one single-threaded process.

    Spans nest by a stack: the parent of a new span is the innermost
    open one, and its trace id is the boundary ``t`` it serves.
    """

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        #: counts recorded at the same layer boundaries as the spans
        self.counts: Dict[str, float] = {}
        #: stage-hook subscriber per shard executor (attached once, kept
        #: across instrumented blocks)
        self.stage_subs: Dict[object, "_StageSpans"] = {}

    def open(self, name: str, trace=None, tag=None) -> Span:
        parent = self._stack[-1] if self._stack else None
        if trace is None and parent is not None:
            trace = parent.trace
        span = Span(len(self.spans), name, time.perf_counter(),
                    parent.sid if parent is not None else None, trace, tag)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span, name: Optional[str] = None) -> None:
        span.end = time.perf_counter()
        if name is not None:
            span.name = name
        if not self._stack or self._stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        self._stack.pop()

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"spans": [s.as_dict() for s in self.spans],
                       "counts": self.counts}, fh)


def self_times(spans: Sequence[dict]) -> Dict[str, float]:
    """Total self time per span name, in seconds.

    A span's self time is its duration minus the part of that interval
    its child spans cover (children nest and do not overlap: every span
    comes from one thread).
    """
    child_time: Dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                       + s["end"] - s["start"])
    out: Dict[str, float] = {}
    for s in spans:
        own = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
        out[s["name"]] = out.get(s["name"], 0.0) + own
    return out


def span_totals(spans: Sequence[dict]) -> Dict[str, float]:
    """Total duration per span name, in seconds."""
    out: Dict[str, float] = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
    return out


class _StageSpans:
    """Executor subscriber turning the stage hooks into stage spans.

    Hooks fire *after* their stage, so each hook closes the running
    stage span and opens the next.  The span opened after ``on_expire``
    is named at close time: ``sop.refresh`` if ``on_refresh`` fired,
    otherwise the evaluate stage ran in it.  Outside an instrumented
    block no stage is running and the hooks do nothing.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.stage: Optional[Span] = None
        self.executor = None

    def on_attach(self, executor) -> None:
        self.executor = executor

    def begin(self) -> None:
        self.stage = self.tracer.open("sop.ingest")

    def _next(self, name: str) -> None:
        if self.stage is not None:
            self.tracer.close(self.stage)
            self.stage = self.tracer.open(name)

    def on_ingest(self, t, batch) -> None:
        self._next("sop.expire")

    def on_expire(self, t, evicted) -> None:
        self._next("sop.refresh")

    def on_refresh(self, t) -> None:
        self._next("sop.evaluate")

    def on_evaluate(self, t, outputs) -> None:
        if self.stage is not None:
            self.tracer.close(self.stage, name="sop.evaluate")
            self.stage = None

    def on_boundary_end(self, t, outputs) -> None:
        pass

    def on_stream_end(self, result) -> None:
        pass


def _patch(patches: list, owner, attr: str, make):
    original = getattr(owner, attr)
    patches.append((owner, attr, original))
    setattr(owner, attr, make(original))


@contextlib.contextmanager
def instrument(tracer: Tracer, serve: bool = False):
    """Record spans around each layer's public calls inside the block."""
    from repro.core.prefilter import InlierScreen
    from repro.runtime import Runtime
    from repro.runtime.merger import Merger
    from repro.runtime.partitioner import StreamPartitioner
    from repro.runtime.shard import ShardExecutor

    patches: list = []
    stage_subs = tracer.stage_subs

    def timed(name, trace_of=None):
        def make(orig):
            def wrapper(self, *args, **kwargs):
                span = tracer.open(
                    name, trace=trace_of(self, *args) if trace_of else None)
                try:
                    return orig(self, *args, **kwargs)
                finally:
                    tracer.close(span)
            return wrapper
        return make

    _patch(patches, Runtime, "step",
           timed("runtime.step", lambda self, t, *a: int(t)))
    _patch(patches, Merger, "merge_boundary", timed("runtime.merge"))
    _patch(patches, InlierScreen, "prune_mask", timed("prefilter.screen"))

    def make_split(orig):
        def split(self, batch):
            span = tracer.open("runtime.partition")
            try:
                shard_batches, owners = orig(self, batch)
            finally:
                tracer.close(span)
            tracer.count("partition.points", len(batch))
            tracer.count("partition.routed",
                         sum(len(b) for b in shard_batches))
            return shard_batches, owners
        return split

    _patch(patches, StreamPartitioner, "split", make_split)

    def make_shard_step(orig):
        def step(self, t, batch):
            sub = stage_subs.get(self.executor)
            if sub is None:
                sub = stage_subs[self.executor] = _StageSpans(tracer)
                self.executor.subscribe(sub)
            span = tracer.open("shard.step", tag=self.shard_id)
            sub.begin()
            try:
                return orig(self, t, batch)
            finally:
                tracer.close(span)
        return step

    _patch(patches, ShardExecutor, "step", make_shard_step)

    if serve:
        from repro.serve.engine import ServiceEngine

        def first_boundary(engine, watermark):
            return engine.last_boundary + (engine.slide or 0)

        _patch(patches, ServiceEngine, "pump",
               timed("serve.pump", first_boundary))
        _patch(patches, Runtime, "retained_points", timed("serve.retained"))
        _patch(patches, Runtime, "preload", timed("serve.preload"))
        _patch(patches, Runtime, "__init__", timed("serve.build"))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def trace_metrics(spans: Sequence[dict]) -> Dict[str, float]:
    """Per-layer span metrics in ms per boundary (per ``runtime.step``)."""
    steps = sum(1 for s in spans if s["name"] == "runtime.step")
    per = 1000.0 / max(1, steps)
    selfs = self_times(spans)
    totals = span_totals(spans)
    out = {f"self_ms.{name}": selfs.get(name, 0.0) * per for name in LAYERS}
    for name in ("runtime.step", "runtime.partition", "runtime.merge",
                 "sop.ingest", "sop.expire", "sop.refresh", "sop.evaluate",
                 "prefilter.screen", "serve.pump"):
        out[f"{name}_ms"] = totals.get(name, 0.0) * per
    busy: Dict[object, float] = {}
    for s in spans:
        if s["name"] == "shard.step":
            busy[s["tag"]] = busy.get(s["tag"], 0.0) + s["end"] - s["start"]
    if busy:
        out["runtime.shard_skew"] = max(busy.values()) / (
            sum(busy.values()) / len(busy))
    out["trace.spans"] = float(len(spans))
    return out


# ----------------------------------------------------------------- reporting

class Report:
    """Collects one run's figures and prints the result line."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.metrics: Dict[str, float] = {}
        self.notes: Dict[str, object] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def put(self, name: str, value: float) -> None:
        self.metrics[name] = float(value)

    def note(self, key: str, value) -> None:
        self.notes[key] = value

    def attempt(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, why: str, n: int = 1) -> None:
        self.failed += n
        if len(self.failures) < 20:
            self.failures.append(why)

    def emit(self) -> int:
        wanted = PER_LAYER if self.trace else END_TO_END
        missing = [name for name, _ in wanted if name not in self.metrics]
        if missing:
            raise RuntimeError(f"metrics not measured: {missing}")
        metrics = {name: {"value": self.metrics[name], "unit": unit}
                   for name, unit in wanted}
        error_rate = self.failed / max(1, self.attempted)
        for key, value in sorted(self.notes.items()):
            print(f"# {key}: {value}")
        for why in self.failures:
            print(f"# FAILED: {why}")
        for name, _ in wanted:
            m = metrics[name]
            print(f"{name} = {m['value']:.6g} {m['unit']}")
        print(f"error_rate = {error_rate:.6g} ({self.failed}/"
              f"{self.attempted})")
        correct = self.failed == 0
        self._save(metrics, error_rate)
        print(json.dumps({"correct": correct, "attempted": self.attempted,
                          "failed": self.failed, "metrics": metrics}))
        sys.stdout.flush()
        return 1 if self.failed else 0

    def _save(self, metrics, error_rate) -> None:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(
            OUT_DIR, f"report-{self.workload}-seed{self.seed}"
                     f"-trace{int(self.trace)}.json")
        with open(path, "w") as fh:
            json.dump({"workload": self.workload, "seed": self.seed,
                       "trace": self.trace, "metrics": metrics,
                       "error_rate": error_rate, "notes": self.notes,
                       "failures": self.failures}, fh, indent=1,
                      default=str)


def check_determinism(report: Report, record: Dict[str, object],
                      input_id: str) -> None:
    """Flag counts that should repeat exactly under one seed but changed.

    The record of the first run with this workload, seed and input
    (``input_id``: whatever else sizes the input) is kept in the output
    directory; later runs compare against it.  AutoRefresh
    picks its large-window engine by wall clock, so its choices are kept
    in the record (to attribute differences) but never flagged.
    """
    path = os.path.join(OUT_DIR, "determinism",
                        f"{report.workload}-seed{report.seed}-{input_id}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    if os.path.exists(path):
        with open(path) as fh:
            first = json.load(fh)
        changed = sorted(k for k, v in record.items()
                         if "refresh.auto_choice" not in k
                         and k in first and first[k] != v)
        report.note("determinism", "CHANGED " + ",".join(changed)
                    if changed else "repeats")
        if changed:
            report.note("determinism.first", {k: first[k] for k in changed})
            report.note("determinism.now", {k: record[k] for k in changed})
    else:
        with open(path, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
        report.note("determinism", "recorded")
    report.note("determinism.record", record)
