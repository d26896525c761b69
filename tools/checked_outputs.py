"""Write pairedk's checked outputs to one canonical text file.

    python3 tools/checked_outputs.py OUT.txt [--root CHECKOUT]

A change that must not move any answer is compared with its parent by
running this script on both checkouts and diffing the two files:

    python3 tools/checked_outputs.py parent.txt --root ../parent
    python3 tools/checked_outputs.py change.txt
    diff parent.txt change.txt

``--root`` names the checkout whose ``src/`` and ``perfbench/`` are imported
(by default the one holding this script), so the script also runs against a
checkout that predates it.  Each output is one line, ``<section> <key>
<JSON value>``, and the file holds, in order:

- ``trial``: the repr of every per-trial ``(ok, detail)`` of all registered
  properties, 6 trials at master seeds 0 and 7 (360 lines);
- ``c4``: the same per trial for criterion C4 at its seeds (P_PRODRES
  100@44, P_COMMEXP 100@45, P_EQUIV 100@46, P_RH 100@47; 400 lines);
- ``c7``: the same per trial for criterion C7 (P_NORM 100@50; 100 lines):
  the operator norms that ``operator_norm`` certifies by its Krylov phase;
- ``kernel``: stdout, stderr and exit code of the 700 seed-1 queries of the
  benchmark's ``kernels`` workload, run in-process through ``cli.main``; the
  pool is built by ``perfbench/bench.py``, imported without writing
  anything under ``perfbench/``;
- ``norm``: ``operator_norm(node, 64)`` of the ``Paired`` or ``Transposed``
  node of the first 100 of those queries (100 lines), most of which take the
  SVD fallback;
- ``suite``: the canonical payloads of ``run_suite`` over every property at
  10 trials and master seed 0, sequentially and with ``parallelism`` 2;
- ``payload``: the canonical payloads of criteria C5 (P_RANK1 100@48), C6
  (P_ADJ 100@49) and C10's third run (P_COBURN_S 500@42);
- ``membership``: the verdict of every ``SpaceTag`` on 50 symbols of each
  sampler class (the ``CLASS_CONSTRAINTS`` of this checkout's sampler;
  ``sample_symbol`` on the ``GENERIC`` profile at master seed 3, circle
  zeros allowed in every other trial), on their ``conj_circle()``
  and on their ``reciprocal()`` (900 lines); a sample the sampler refuses
  records its error.

That is 2 565 lines.  Wall times stay out of every line.  BLAS runs on one
thread, as in the benchmark: ``bench.py`` pins it before numpy loads.
"""

import argparse
import ast
import contextlib
import importlib.util
import io
import json
import sys
import time
from pathlib import Path

TRIAL_SEEDS, TRIALS = (0, 7), 6
C4 = (("P_PRODRES", 44), ("P_COMMEXP", 45), ("P_EQUIV", 46), ("P_RH", 47))
C4_TRIALS = 100
C7 = ("P_NORM", 50, 100)
NORM_QUERIES, NORM_N = 100, 64
KERNEL_SEED = 1
PAYLOADS = (("C5", "P_RANK1", 100, 48), ("C6", "P_ADJ", 100, 49), ("C10", "P_COBURN_S", 500, 42))
MEMBERSHIP_SEED, MEMBERSHIP_COUNT = 3, 50


def load_bench(root: Path):
    """perfbench/bench.py of ``root`` as a module: it pins BLAS to one
    thread and puts ``root/src`` first on the import path."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(root / "perfbench"))
    spec = importlib.util.spec_from_file_location("bench", root / "perfbench" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def trials(props, pid, seed, count):
    cfg = props.RunConfig()
    for i in range(count):
        yield f"{pid}@{seed}#{i}", repr(props._run_single(pid, seed, cfg, props.tol.current(), i))


def kernel_queries(pk, bench):
    for query in bench.WORKLOADS["kernels"].build(pk, KERNEL_SEED):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = pk.cli.main(query["argv"])
        yield f"query{query['i']}", [out.getvalue(), err.getvalue(), rc]


def query_norms(pk, bench):
    node_of = {"paired": pk.Paired, "transposed": pk.Transposed}
    for query in bench.WORKLOADS["kernels"].build(pk, KERNEL_SEED, count=NORM_QUERIES):
        a, b = (pk.RationalSymbol.from_json(query[s]) for s in "ab")
        yield f"query{query['i']}", pk.operator_norm(node_of[query["kind"]](a, b), NORM_N)


def sampler_classes():
    """``CLASS_CONSTRAINTS`` of the sampler in the checkout holding this
    script, read from its source, so that a run against an older ``--root``
    draws the same classes."""
    tree = ast.parse((Path(__file__).resolve().parents[1] / "src/pairedk/sampling.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["CLASS_CONSTRAINTS"]:
            return ast.literal_eval(node.value)
    raise LookupError("the sampler names no CLASS_CONSTRAINTS")


def memberships(pk):
    for c in sampler_classes():
        for i in range(MEMBERSHIP_COUNT):
            profile = pk.properties.GENERIC.tighter(class_constraint=c, allow_circle_zeros=bool(i % 2))
            try:
                f = pk.sample_symbol(profile, pk.trial_rng(MEMBERSHIP_SEED, i))
            except pk.PairedKError as exc:
                yield f"{c}#{i}", repr(exc)
                continue
            for form, g in (("f", f), ("conj", f.conj_circle()), ("reciprocal", f.reciprocal())):
                yield f"{c}#{i}.{form}", {tag.value: g.membership(tag) for tag in pk.SpaceTag}


def outputs(pk, bench):
    props = pk.properties
    for seed in TRIAL_SEEDS:
        for pid in props.registered_ids():
            yield from (("trial", k, v) for k, v in trials(props, pid, seed, TRIALS))
    for pid, seed in C4:
        yield from (("c4", k, v) for k, v in trials(props, pid, seed, C4_TRIALS))
    yield from (("c7", k, v) for k, v in trials(props, *C7))
    yield from (("kernel", k, v) for k, v in kernel_queries(pk, bench))
    yield from (("norm", k, v) for k, v in query_norms(pk, bench))
    for workers in (1, 2):
        suite = props.run_suite(props.registered_ids(), 10, 0, props.RunConfig(parallelism=workers))
        yield "suite", f"parallelism{workers}", "\n".join(r.canonical_payload() for r in suite.reports)
    for name, pid, count, seed in PAYLOADS:
        yield "payload", name, props.run_property(pid, count, seed, props.RunConfig()).canonical_payload()
    yield from (("membership", k, v) for k, v in memberships(pk))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="file to write")
    parser.add_argument("--root", default=str(Path(__file__).resolve().parents[1]), help="checkout to import")
    args = parser.parse_args(argv)
    bench = load_bench(Path(args.root).resolve())
    pk = bench.import_pairedk()
    t0, counts = time.perf_counter(), {}
    with open(args.out, "w") as fh:
        for section, key, value in outputs(pk, bench):
            fh.write(f"{section} {key} {json.dumps(value)}\n")
            counts[section] = counts.get(section, 0) + 1
    print(f"{sum(counts.values())} outputs {counts} from {pk.__file__} in {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
