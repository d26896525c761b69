"""Time two checkouts of pairedk against each other, operation by operation, in one process.

    python3 tools/ab_inprocess.py PARENT CHANGE --workload identities --ops 160

PARENT and CHANGE are checkouts.  Each one's ``src/pairedk`` is imported
from where it lies, under a module name of its own (``pairedk_parent`` and
``pairedk_change``); nothing is copied and nothing stays on the import path.
Each side builds its own pool and warm-up from the workload classes of
``perfbench/bench.py`` of the checkout holding this script, imported without
writing anything under ``perfbench/``, with BLAS on one thread as in the
benchmark.  After both warm-ups, operation k runs pool entry k on both
sides, the parent first for even k and the change first for odd k, so a
drift of machine speed falls on both alike.

It prints the median and quartiles of the per-operation time ratio
change / parent, the number of operations the change ran faster, the ratio
of total times, and how many outputs differ or failed.  The exit code is 1
when an output differs or an operation failed on either side, 0 otherwise.
"""

import argparse
import copy
import gc
import importlib.util
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PERFBENCH = HERE.parent / "perfbench"
SIDES = ("parent", "change")


def load_bench():
    """perfbench/bench.py as a module.  Importing it pins BLAS to one thread,
    so it comes before numpy loads; the import path is restored after it,
    which drops the ``src/`` that bench.py puts first."""
    sys.dont_write_bytecode = True
    saved = list(sys.path)
    sys.path.insert(0, str(PERFBENCH))  # for bench.py's own ``import fftcheck``
    try:
        spec = importlib.util.spec_from_file_location("bench", PERFBENCH / "bench.py")
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
    finally:
        sys.path[:] = saved
    return bench


def load_pairedk(root: Path, name: str):
    """``root/src/pairedk`` and its CLI, imported as the package ``name``."""
    src = root / "src" / "pairedk"
    spec = importlib.util.spec_from_file_location(name, src / "__init__.py", submodule_search_locations=[str(src)])
    pk = importlib.util.module_from_spec(spec)
    sys.modules[name] = pk
    spec.loader.exec_module(pk)
    importlib.import_module(f"{name}.cli")
    return pk


def main(argv=None) -> int:
    bench = load_bench()
    import numpy as np

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout timed as the parent")
    parser.add_argument("change", help="checkout timed as the change")
    parser.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    parser.add_argument("--ops", type=int, required=True, help="operations timed on each side")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    sides = {}
    for side, root in zip(SIDES, (args.parent, args.change)):
        workload = copy.copy(bench.WORKLOADS[args.workload])  # build() binds the side's pairedk
        pk = load_pairedk(Path(root).resolve(), f"pairedk_{side}")
        pool = workload.build(pk, args.seed)
        warm = workload.build(pk, args.seed, tag=bench.TAG_WARMUP, count=workload.warmup_ops)
        bench.run_ops(workload, warm)
        sides[side] = (workload, pool)
    gc.collect()

    times = {side: [] for side in SIDES}
    prints = {side: [] for side in SIDES}
    failed = {side: 0 for side in SIDES}
    for k in range(args.ops):
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            workload, pool = sides[side]
            done, t, f = bench.run_ops(workload, [pool[k % len(pool)]])
            times[side] += t
            failed[side] += len(f)
            prints[side].append(workload.fingerprint(done[0][1]) if done else None)

    parent, change = (np.array(times[side]) for side in SIDES)
    q1, median, q3 = np.percentile(change / parent, [25, 50, 75])
    differ = sum(a != b for a, b in zip(*prints.values()))
    print(f"{args.workload}: {args.ops} operations a side, seed {args.seed}")
    print(f"time ratio change/parent per operation: median {median:.4f}, quartiles {q1:.4f} to {q3:.4f}")
    print(f"change faster in {int(np.sum(change < parent))} of {args.ops} operations")
    print(f"total time: parent {parent.sum():.4f} s, change {change.sum():.4f} s, ratio {change.sum() / parent.sum():.4f}")
    print(f"outputs that differ: {differ}; failed operations: parent {failed['parent']}, change {failed['change']}")
    return int(bool(differ or failed["parent"] or failed["change"]))


if __name__ == "__main__":
    sys.exit(main())
