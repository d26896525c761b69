"""Benchmark command for pairedk.

    python3 perfbench/run.py --workload identities --seed 1 --seconds 30 --trace 0

Runs one workload (identities, truncations or kernels) as ``SLICES``
processes of bench.py one after the other, each timing an equal share of
``--seconds`` and taking up the pool where the one before stopped, and
prints one JSON object as its last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (setup_s, ops_per_s,
op_p50_ms, peak_rss_mb); with ``--trace 1`` they are the per-layer ones,
from a single process.  A process keeps much of its speed for its whole
life: on a 2-core VM, five processes ran the same four truncations rounds in
5.3 to 8.0 s, each repeating its own time more closely than the others'.
Spreading a run over five processes averages that out; ``setup_s`` is the
median of the five set-ups.  The full record of each run is written to
perfbench/out/.  pairedk is imported from src/ of the checkout; nothing
needs installing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOADS = ("identities", "truncations", "kernels")

# one run is this many processes, each timing an equal share of --seconds
SLICES = 5
# the whole command must end within 180 s
BUDGET_S = 170
UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


def bench(args: list, deadline: float) -> dict:
    """Run bench.py to completion and return the record on its last line."""
    cmd = [sys.executable, str(HERE / "bench.py"), *args]
    timeout = max(deadline - time.monotonic(), 1.0)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_slices(common: list, seconds: float, deadline: float) -> dict:
    """Run the slices in turn and merge their records into one."""
    slices, start = [], 0
    for _ in range(SLICES):
        rec = bench(common + ["--seconds", str(seconds), "--start", str(start)], deadline)
        slices.append(rec)
        start += rec["attempted"]
    times = [t for rec in slices for t in rec["op_seconds"]]
    attempted = sum(rec["attempted"] for rec in slices)
    failed = sum(rec["failed"] for rec in slices)
    return {
        "correct": all(rec["correct"] for rec in slices),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": statistics.median(rec["setup_s"] for rec in slices),
            "ops_per_s": (attempted - failed) / sum(rec["elapsed_s"] for rec in slices),
            "op_p50_ms": 1000.0 * statistics.median(times),
            "peak_rss_mb": max(rec["peak_rss_mb"] for rec in slices),
        },
        "problems": [p for rec in slices for p in rec["problems"]][:20],
        "failures": [f for rec in slices for f in rec["failures"]][:20],
        "slices": [{k: rec[k] for k in ("setup_s", "elapsed_s", "attempted", "op_seconds")} for rec in slices],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pairedk benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pairedk" / "__init__.py").is_file():
        print(f"error: no pairedk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        if args.trace:
            record = bench(common + ["--seconds", str(args.seconds), "--trace", "1"], deadline)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in record["metrics"].items()}
        else:
            record = run_slices(common, args.seconds / SLICES, deadline)
            metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in record["metrics"].items()}
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    for problem in record.get("problems", []) + record.get("failures", []):
        print(f"# {problem}")
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
