"""Build perfbench/catalogue.json, the measured trial costs of the truncations workload.

    python3 perfbench/make_catalogue.py

Draws ``SIZE`` master seeds each for ``P_FINRANK`` and ``P_ALMOST`` from a
fixed stream and times one trial per seed, in ``PASSES`` passes over all of
them (one thread, ``RunConfig(parallelism=1)``, the two properties
interleaved, so that drifts of machine speed touch every seed alike).  The
catalogue keeps each seed with its mean time.  The seeds are a plain sample
of the master-seed space: none is dropped.  bench.py builds each round of
the truncations workload from one ``P_FINRANK`` and one ``P_ALMOST`` seed
whose costs add up to about the same (see ``TruncationRounds``).  Every
timed trial must pass; the script stops if one does not.  Takes about twelve
minutes on a 2-core VM.
"""

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import platform
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

PIDS = ("P_FINRANK", "P_ALMOST")
SIZE = 192
PASSES = 2
STREAM = 20261018


def main():
    import pairedk

    cfg = pairedk.properties.RunConfig(parallelism=1)
    rng = np.random.default_rng(STREAM)
    masters = {pid: [int(m) for m in rng.integers(0, 2**31 - 1, size=SIZE)] for pid in PIDS}
    # one untimed trial each, so imports and first-call set-up stay out of the costs
    for pid in PIDS:
        pairedk.properties.run_property(pid, 1, STREAM, cfg)
    cost = {pid: np.zeros((PASSES, SIZE)) for pid in PIDS}
    for p in range(PASSES):
        for i in range(SIZE):
            for pid in PIDS:
                t0 = time.perf_counter()
                report = pairedk.properties.run_property(pid, 1, masters[pid][i], cfg)
                cost[pid][p, i] = time.perf_counter() - t0
                if not report.all_pass():
                    raise SystemExit(f"{pid} master seed {masters[pid][i]} fails: {report.failures}")
    out = {
        "measured_on": f"Python {platform.python_version()}, numpy {np.__version__}, {os.cpu_count()} cores",
        "stream": STREAM,
        "passes": PASSES,
    }
    for pid in PIDS:
        mean = cost[pid].mean(axis=0)
        # how well one pass predicts another: the median relative difference
        rel = np.median(np.abs(cost[pid][0] - cost[pid][-1]) / mean)
        print(f"{pid}: {np.min(mean):.3f} .. {np.max(mean):.3f} s, mean {np.mean(mean):.3f} s, "
              f"passes differ by {100 * rel:.1f} % (median)")
        out[pid] = [[masters[pid][i], round(float(mean[i]), 4)] for i in np.argsort(mean, kind="stable")]
    (HERE / "catalogue.json").write_text(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
