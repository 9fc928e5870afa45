#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hot_reads --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` makes a separate traced run with the same seed and prints the
per-layer metrics, the per-layer self-time table, the unexplained transport
residual and the tracing overhead.  Human-readable lines come first; the
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every answer
matched its oracle.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("hot_reads", "write_mix")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run unwinds like an interrupted one, so every server it
    # started is stopped and every scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))

    import importlib

    from perfbench.env import machine_fingerprint
    from perfbench.report import declare_bypassed, print_report, result_line
    from perfbench.stats import NotMeasured, TooFewSamples

    trace = bool(args.trace)
    workload = importlib.import_module(f"perfbench.{args.workload}")
    try:
        result = workload.run(args.seed, args.seconds, trace)
    except (NotMeasured, TooFewSamples) as exc:
        print(f"perfbench: {args.workload}: benchmark bug: {exc}", file=sys.stderr)
        return 1
    if trace:
        declare_bypassed(result, workload.BYPASSED_LAYER_METRICS)
        write_spans(result.spans, args.workload, args.seed)
    line = result_line(result, trace)
    print_report(result, machine_fingerprint(), trace, args.seed)
    print(line, flush=True)
    return 0 if json.loads(line)["correct"] else 1


def write_spans(recorder, workload: str, seed: int) -> None:
    """Write a traced run's in-memory spans out as JSON lines."""
    from perfbench.env import WORK_ROOT

    if recorder.spans:
        WORK_ROOT.mkdir(parents=True, exist_ok=True)
        path = WORK_ROOT / f"spans-{workload}-seed{seed}.jsonl"
        recorder.write_jsonl(str(path))
        print(f"# spans: {len(recorder.spans)} written to {path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
