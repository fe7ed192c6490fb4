#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload moss-collect --seed 0 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with tracing off;
``--trace 1`` prints the per-layer metrics of a traced run and writes its
spans to ``.perfbench_out/``.  Every metric is printed by name with its
unit; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every correctness gate held.  The program is imported from
``src/`` of the same checkout; without it the run exits 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
import tempfile
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("moss-collect", "daemon-ingest")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _module(workload: str):
    """``perfbench.moss_collect`` for ``moss-collect``, and so on."""
    return importlib.import_module("perfbench." + workload.replace("-", "_"))


def result_line(outcome, trace: bool) -> dict:
    """The final JSON object: every metric of the run's kind, with its unit."""
    from perfbench import harness

    attempted = outcome.attempted + len(outcome.gates)
    failed = outcome.failed + len(outcome.gate_failures)
    if trace:
        values = dict.fromkeys(harness.PER_LAYER, 0.0)
        values.update(outcome.per_layer)
        values["failed_ratio"] = failed / attempted
        units = harness.PER_LAYER
    else:
        values, units = outcome.end_to_end, harness.END_TO_END
    unknown = set(values) - set(units)
    if unknown:
        raise KeyError(f"metrics without a declared unit: {sorted(unknown)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()
        },
    }


def _write_trace(stamp: dict, outcome) -> str:
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{stamp['workload']}-seed{stamp['seed']}-trace.json")
    doc = {
        "stamp": stamp,
        "passes": outcome.trace["passes"],
        "spans": [span._asdict() for span in outcome.trace["spans"]],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program at {os.path.relpath(SRC)}/repro; nothing to run",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    from perfbench import harness

    stamp = harness.stamp(ROOT, args.workload, args.seed, args.seconds, args.trace)
    os.makedirs(WORK, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        outcome = _module(args.workload).measure(
            args.seed, args.seconds, bool(args.trace), work_dir
        )
    except Exception:
        traceback.print_exc()
        print(f"perfbench: {args.workload} raised; no result", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    result = result_line(outcome, bool(args.trace))
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("stamp " + json.dumps(stamp, sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:>16.6f} {metric['unit']}")
    for key, value in sorted(outcome.notes.items()):
        print(f"  note {key}: {value}")
    for reason in outcome.gate_failures:
        print(f"  GATE FAILED: {reason}")
    if outcome.trace is not None:
        print(f"  spans written to {os.path.relpath(_write_trace(stamp, outcome), ROOT)}")
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
