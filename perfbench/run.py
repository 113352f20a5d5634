"""Repository benchmark: one workload per run, or every workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload dense-window --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 30

With ``--trace 0`` the run measures the end-to-end metrics with tracing
off; with ``--trace 1`` it records spans around every layer and reports
the per-layer metrics, each layer's self time, and the tracing overhead.
The last line of standard output is one JSON object::

    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

``--all`` runs each workload in a fresh interpreter, so peak RSS and warm
caches never carry from one workload to the next.  ``--smoke`` shrinks
every workload to a tiny size (used by ``perfbench/test_perfbench.py``).
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dense-window", "serve-churn")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true",
                    help="run every workload, each in a fresh interpreter")
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the workloads' default seed)")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the benchmark's own smoke test")
    args = ap.parse_args(argv)
    if bool(args.all) == bool(args.workload):
        ap.error("give exactly one of --workload or --all")
    return args


def _run_all(args) -> int:
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", name, "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        if args.smoke:
            cmd.append("--smoke")
        print(f"## {name}", flush=True)
        status = subprocess.run(cmd, cwd=ROOT).returncode or status
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no repro sources under src/ -- run from a full "
              "checkout", file=sys.stderr)
        return 2
    if args.all:
        return _run_all(args)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from workloads import DEFAULT_SEED

    seed = DEFAULT_SEED if args.seed is None else args.seed
    if args.workload == "serve-churn":
        import serve_churn
        report = serve_churn.run(seed, args.seconds, bool(args.trace),
                                 smoke=args.smoke)
    else:
        import offline
        report = offline.run(seed, args.seconds, bool(args.trace),
                             smoke=args.smoke)
    return report.emit()


if __name__ == "__main__":
    sys.exit(main())
