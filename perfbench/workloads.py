"""Workload inputs and query sets.

Every input is a pure function of ``--seed``.  The *shape* of each
workload -- query set, ticker layout, cluster geometry, detector config --
is fixed, so runs under different seeds measure the same workload on a
different realization of its data.  That is what makes figures from
different seeds comparable, and what lets a later claim be re-checked on
the held-out seed.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro import OutlierQuery, QueryGroup, WindowSpec
from repro.bench import ScaledRanges, build_workload
from repro.core.point import Point
from repro.streams.stock import StockTradeSimulator

#: seed for the everyday runs, and the seed kept back for confirming a
#: claimed gain on data the change was not tuned on
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

#: the query sets are part of a workload's identity, not of its data
QUERY_SET_SEED = 11

#: stock-scale Table 2 ranges for the service's G-class queries (the
#: stock projection lives on a small value scale; radii are chosen for a
#: single-digit outlier percentage); slides are short, so nearly every
#: boundary pushes (one latency sample per boundary)
SERVE_RANGES = ScaledRanges(r=(2.0, 20.0), k=(3, 30), win=(500, 4000),
                            slide=(50, 200), slide_quantum=50)
SMOKE_RANGES = replace(SERVE_RANGES, win=(100, 400), slide=(50, 100))

#: fixed ticker layout: base prices spread over the simulator's range,
#: alternating its calm / volatile per-trade volatilities
N_TICKERS = 8
TICKER_PRICES = (20.0, 400.0)
TICKER_SIGMAS = (0.0004, 0.0025)
#: per-trade pull of each walk back to its base price (relaxation over
#: ~200 of the ticker's trades, a few per window)
REVERSION = 1.0 / 200.0


def stock_points(n: int, seed: int) -> Tuple[Point, ...]:
    """A stock trace whose market layout is fixed and whose trades are not.

    The simulator draws every trade (ticker, arrival time, volume, price
    innovation, injected anomaly) from ``seed``.  It also draws each
    ticker's base price and volatility regime, which move the neighbour
    density -- and with it the detector's cost -- by 2x between seeds.
    Those two are pinned here: each ticker's walk of non-anomalous log
    prices is rescaled to a fixed volatility (a rolling RMS divides the
    regime bursts out) and made to revert to a fixed base price, so
    every window sees the same market statistically -- a plain random
    walk drifts, and one run's cost would depend on where it drifted.
    Fat-finger prints keep their deviation from the walk.
    Points are ``(price, log1p(volume))`` like ``make_stock_points``.
    """
    sim = StockTradeSimulator(n_trades=n, n_tickers=N_TICKERS, seed=seed)
    bases = np.linspace(*TICKER_PRICES, N_TICKERS)
    records = list(sim.records())
    names = sorted({rec.name for rec in records})
    by_ticker: Dict[str, List[int]] = {name: [] for name in names}
    for i, rec in enumerate(records):
        by_ticker[rec.name].append(i)
    prices = [0.0] * n
    for name, idx in by_ticker.items():
        tix = names.index(name)
        walk = [i for i in idx if not records[i].is_anomaly]
        steps = np.diff(np.log([records[i].price for i in walk]))
        steps = steps * (TICKER_SIGMAS[tix % 2] / _local_scale(steps))
        base = math.log(bases[tix])
        level = 0.0
        raw_prev = None
        step_at = 0
        for i in idx:
            rec = records[i]
            if rec.is_anomaly:
                # deviation of the print from the walk it interrupts
                ratio = rec.price / raw_prev if raw_prev else 1.0
                prices[i] = math.exp(base + level) * ratio
                continue
            if raw_prev is not None:
                level = level * (1.0 - REVERSION) + float(steps[step_at])
                step_at += 1
            raw_prev = rec.price
            prices[i] = math.exp(base + level)
    return tuple(
        Point(seq=rec.trans_id, values=(prices[i], math.log1p(rec.volume)),
              time=rec.time)
        for i, rec in enumerate(records))


def _local_scale(steps: np.ndarray, half: int = 32) -> np.ndarray:
    """Centred rolling RMS of ``steps`` (regime bursts divide out)."""
    if len(steps) == 0:
        return np.ones(0)
    sq = np.concatenate([[0.0], np.cumsum(steps * steps)])
    idx = np.arange(len(steps))
    lo = np.maximum(0, idx - half)
    hi = np.minimum(len(steps), idx + half + 1)
    rms = np.sqrt((sq[hi] - sq[lo]) / (hi - lo))
    return np.where(rms > 0, rms, 1.0)


SEGMENT = 1000

#: fixed cluster layout of the dense stream: 8 centres on a ring inside
#: the generator's value box, far apart relative to the spread
CLUSTER_CENTRES = tuple(
    (5000.0 + 2500.0 * math.cos(2 * math.pi * i / 8),
     5000.0 + 2500.0 * math.sin(2 * math.pi * i / 8)) for i in range(8))


def clustered_stream(seed: int) -> Iterator[Point]:
    """The prefilter headline stream: 8 clusters, spread 80, 1% outliers.

    The recipe of ``make_synthetic_points`` (Gaussian inliers around
    slowly drifting centres, exactly 1% uniform outliers per 1000-point
    segment) with the centres pinned: where the generator happens to
    place them, and how much they overlap, otherwise moves the cost by
    a fifth between seeds.  Unbounded; generated as it is consumed.
    """
    rng = np.random.default_rng(seed)
    centres = np.array(CLUSTER_CENTRES)
    seq = 0
    while True:
        which = rng.integers(0, len(centres), size=SEGMENT)
        block = centres[which] + rng.normal(0.0, 80.0, size=(SEGMENT, 2))
        slots = rng.choice(SEGMENT, size=SEGMENT // 100, replace=False)
        block[slots] = rng.uniform(0.0, 10000.0, size=(len(slots), 2))
        for x, y in block.tolist():
            yield Point(seq=seq, values=(x, y))
            seq += 1
        centres = centres + rng.normal(0.0, 4.0, size=centres.shape)


def stock_queries(n: int, ranges: ScaledRanges = SERVE_RANGES
                  ) -> QueryGroup:
    """``n`` Table 1 class-G queries over the stock-scale ranges."""
    return build_workload("G", n, QUERY_SET_SEED, ranges)


def extra_queries(base: QueryGroup, n: int) -> List[OutlierQuery]:
    """Churn queries: class G, but no wider than the base swift window and
    on multiples of its swift slide, so a registration never changes the
    shared window and every (query, boundary) answer is a plain function
    of the merged stream."""
    rng = np.random.default_rng(QUERY_SET_SEED + 1)
    swift = base.swift
    out = []
    for _ in range(n):
        win = int(rng.integers(min(SERVE_RANGES.win[0], swift.win),
                               swift.win + 1))
        steps = max(1, min(win, SERVE_RANGES.slide[1]) // swift.slide)
        slide = swift.slide * int(rng.integers(1, steps + 1))
        out.append(OutlierQuery(
            r=round(float(rng.uniform(*SERVE_RANGES.r)), 3),
            k=int(rng.integers(*SERVE_RANGES.k)),
            window=WindowSpec(win=win, slide=slide, kind="count")))
    return out


def dense_queries(smoke: bool = False) -> QueryGroup:
    """r=200, k in {10..30}, win 16384/{1,2,4}, slide 2048 (smoke: win
    1024/{1,2,4}, slide 256)."""
    win, slide = (1024, 256) if smoke else (16384, 2048)
    return QueryGroup([
        OutlierQuery(r=200.0, k=k,
                     window=WindowSpec(win=win // d, slide=slide,
                                       kind="count"))
        for k, d in zip((10, 15, 20, 25, 30), (1, 2, 1, 4, 1))])


def wire_query(q: OutlierQuery) -> dict:
    return {"r": q.r, "k": q.k, "win": q.window.win,
            "slide": q.window.slide, "kind": q.kind}


def population(points: Sequence[Point], t: int, win: int
               ) -> Sequence[Point]:
    """Count-window population of boundary ``t`` (seqs are 0..n-1)."""
    return points[max(0, t - win):min(t, len(points))]
