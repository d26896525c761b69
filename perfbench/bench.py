"""One slice of a benchmark workload in one process: set-up, warm-up, timed phase, checks.

Normally started by run.py, which runs several slices one after the other;
by hand:

    python3 perfbench/bench.py --workload kernels --seed 1 --seconds 5 --start 0

prints one JSON record as the last line of standard output: the set-up time,
the time of every operation, the checks' verdict.  ``--start`` is the pool
index of the first timed operation.  With ``--trace 1`` it runs a fixed
number of operations twice, untraced and then traced, and reports per-layer
metrics.
"""

import os
import sys

# One BLAS/OpenMP thread; these must be set before numpy loads.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import importlib
import io
import json
import statistics
import time
from pathlib import Path

import numpy as np  # loaded before the set-up clock starts: its import is not pairedk's

import fftcheck as fc

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
sys.path.insert(0, str(HERE.parent / "src"))

# Relative tolerance of the FFT checks: the exact answers agree with the
# boundary-sampled ones to ~1e-14, far below this.
FFT_TOL = 1e-9

# Stream tags keep the seeded streams of different purposes apart.
TAG_ROUNDS, TAG_WARMUP, TAG_IMAGES, TAG_QUERIES = 11, 12, 13, 14


def _rng(*key):
    return np.random.default_rng([int(k) for k in key])


class PropertyRounds:
    """Each operation is one round of seeded trials, one trial per property,
    run through ``properties.run_property`` with ``RunConfig(parallelism=1)``.
    A round is a tuple of master seeds, one per property."""

    pool_size = 256
    warmup_ops = 1

    def __init__(self, name, pids, trace_ops, image_checks):
        self.name = name
        self.pids = pids
        self.trace_ops = trace_ops
        self.image_checks = image_checks

    def build(self, pk, seed, tag=TAG_ROUNDS, count=None):
        self.pk = pk
        self.cfg = pk.properties.RunConfig(parallelism=1)
        rng = _rng(seed, tag)
        masters = rng.integers(0, 2**31 - 1, size=count or self.pool_size)
        return [(int(m),) * len(self.pids) for m in masters]

    def run(self, masters):
        run_property = self.pk.properties.run_property  # looked up per call: tracing patches it
        return tuple(run_property(pid, 1, m, self.cfg) for pid, m in zip(self.pids, masters))

    @staticmethod
    def fingerprint(reports):
        return "\n".join(r.canonical_payload() for r in reports)

    def check(self, seed, done):
        problems = []
        for masters, reports in done:
            for m, rep in zip(masters, reports):
                if not rep.all_pass():
                    problems.append(f"{rep.property_id} master seed {m}: {rep.failures}")
        for masters, _ in done[: self.image_checks]:
            problems += check_images(self.pk, seed, masters[0])
        return problems


class TruncationRounds(PropertyRounds):
    """Property rounds whose two costly trials are paired by measured cost.

    A ``P_FINRANK`` trial costs 0.05 to 2.3 s and a ``P_ALMOST`` trial 0.03
    to 1.7 s, so with one random seed per round the median round of a
    20-round run moved with the seed by about 10 %.  ``catalogue.json``
    (written by make_catalogue.py) holds a plain sample of master seeds for
    each of the two properties with the measured cost of each.  Round ``k``
    takes the ``k``-th ``P_FINRANK`` seed of a seeded permutation of the
    catalogue, and a ``P_ALMOST`` seed, not yet used in the run, drawn among
    the ``NEAREST`` whose cost brings the pair closest to the cost of a
    median ``P_FINRANK`` trial plus a median ``P_ALMOST`` trial.  Most rounds
    then cost about the same, and the median round moves little with the
    seed.  The other three trials take plain seeds, and so does the warm-up,
    which stays off the catalogue.
    """

    pool_size = 36
    catalogue = HERE / "catalogue.json"
    NEAREST = 3

    def build(self, pk, seed, tag=TAG_ROUNDS, count=None):
        rounds = super().build(pk, seed, tag, count=count)
        if tag != TAG_ROUNDS:
            return rounds
        cat = json.loads(self.catalogue.read_text())
        finrank, almost = cat["P_FINRANK"], list(cat["P_ALMOST"])
        target = statistics.median(c for _, c in finrank) + statistics.median(c for _, c in almost)
        rng = _rng(seed, tag, 1)
        out = []
        for r, i in zip(rounds, rng.permutation(len(finrank))):
            f, cost = finrank[i]
            near = sorted(range(len(almost)), key=lambda j: abs(cost + almost[j][1] - target))[: self.NEAREST]
            a = almost.pop(near[int(rng.integers(len(near)))])[0]
            out.append(tuple({"P_FINRANK": f, "P_ALMOST": a}.get(pid, m) for pid, m in zip(self.pids, r)))
        return out


class KernelQueries:
    """Each operation is one ``pairedk kernel`` query run in-process through
    ``cli.main`` on a seeded pair with a prescribed winding, with ``--N 64``."""

    name = "kernels"
    pool_size = 700  # 50 blocks of the 14 (type, winding) combinations
    warmup_ops = 14
    trace_ops = 280
    windings = range(-3, 4)

    def build(self, pk, seed, tag=TAG_QUERIES, count=None):
        self.pk = pk
        sampling = pk.sampling
        # roots well clear of the circle, so the N = 64 oracle is certified
        profile = sampling.SamplerProfile(
            degree_bound=3, inside_annulus=(0.25, 0.6), outside_annulus=(1.6, 4.0)
        )
        pool = []
        for i in range(count or self.pool_size):
            kind = ("paired", "transposed")[i % 2]
            w = self.windings[(i // 2) % len(self.windings)]
            rng = _rng(seed, tag, i)
            for attempt in range(64):
                try:
                    pair = sampling.sample_pair_with_kernel(profile, rng, -w, "invertible")
                    break
                except pk.DegenerateSymbol:
                    if attempt == 63:
                        raise
            a, b = pair.a.to_json(), pair.b.to_json()
            if (i // 14) % 2:
                # every other block leaves root locations for the parser to classify
                a, b = _drop_loc(a), _drop_loc(b)
            argv = ["kernel", "--type", kind, "--a", json.dumps(a), "--b", json.dumps(b), "--N", "64"]
            pool.append({"i": i, "kind": kind, "w": w, "a": a, "b": b, "argv": argv})
        return pool

    def run(self, query):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.pk.cli.main(query["argv"])
        if rc != 0:
            raise RuntimeError(f"pairedk kernel exited with {rc}")
        return buf.getvalue()

    @staticmethod
    def fingerprint(out):
        return out

    def check(self, seed, done):
        problems = []
        for query, out in done:
            problems += check_kernel_answer(query, json.loads(out))
        return problems


WORKLOADS = {
    "identities": PropertyRounds(
        "identities", ("P_PRODRES", "P_COMMEXP", "P_EQUIV", "P_RH"), trace_ops=8, image_checks=3
    ),
    "truncations": TruncationRounds(
        "truncations", ("P_FINRANK", "P_ALMOST", "P_RANK1", "P_ADJ", "P_NORM"), trace_ops=6, image_checks=0
    ),
    "kernels": KernelQueries(),
}


def _drop_loc(data):
    """The same symbol JSON without its root location tags."""
    if "coeffs" in data:
        return data

    def strip(roots):
        return [{k: v for k, v in r.items() if k != "loc"} for r in roots]

    return dict(data, zeros=strip(data["zeros"]), poles=strip(data["poles"]))


# ----------------------------------------------------------------------
# output checks against the independent FFT oracle


def check_kernel_answer(query, payload):
    """Dimension from the winding, oracle agreement, witness, and every basis
    element solving its kernel equations on the circle."""
    tag = f"query {query['i']} ({query['kind']}, winding {query['w']})"
    z = fc.circle_grid()
    a, b = fc.eval_json(query["a"], z), fc.eval_json(query["b"], z)
    wind = fc.winding(a) - fc.winding(b)
    dim = max(0, -wind)
    problems = []
    if wind != query["w"]:
        problems.append(f"{tag}: sampled pair winds {wind} times")
    if payload.get("dimension") != dim or len(payload.get("basis", ())) != dim:
        problems.append(
            f"{tag}: dimension {payload.get('dimension')} with {len(payload.get('basis', ()))} "
            f"basis elements, expected max(0, -winding) = {dim}"
        )
    if payload.get("oracle", {}).get("dim_estimate") != payload.get("dimension"):
        problems.append(f"{tag}: oracle dimension {payload.get('oracle')} disagrees")
    if payload.get("nontrivial") is not (dim > 0):
        problems.append(f"{tag}: nontrivial = {payload.get('nontrivial')}")
    if dim > 0 and payload.get("witness_checks") != [{"witness_verified": True}]:
        problems.append(f"{tag}: witness not verified: {payload.get('witness_checks')}")
    elements = list(payload.get("basis", ()))
    if "witness" in payload:
        elements.append(payload["witness"])
    for k, e in enumerate(elements):
        if query["kind"] == "paired":
            if "plus" in e:
                plus, minus = fc.eval_json(e["plus"], z), fc.eval_json(e["minus"], z)
                phi = plus + minus
                halves = max(fc.rel(fc.riesz(plus, "minus"), phi), fc.rel(fc.riesz(minus, "plus"), phi))
            else:
                phi, halves = fc.eval_json(e, z), 0.0
            ap, bm = a * fc.riesz(phi, "plus"), b * fc.riesz(phi, "minus")
            resid = max(fc.rel(ap + bm, ap, bm), halves)
        else:
            psi = fc.eval_json(e, z)
            resid = max(fc.rel(fc.riesz(a * psi, "plus"), a * psi), fc.rel(fc.riesz(b * psi, "minus"), b * psi))
        if not resid <= FFT_TOL:
            problems.append(f"{tag}: element {k} misses its kernel equations by {resid:.3g}")
    return problems


def check_images(pk, seed, master):
    """Exact images of composed paired/transposed operators against the same
    operators applied to boundary samples through FFT projections."""
    ops = pk.operators
    profile = pk.sampling.SamplerProfile(
        degree_bound=3, inside_annulus=(0.2, 0.7), outside_annulus=(1.4, 5.0)
    )
    rng = _rng(seed, TAG_IMAGES, master)
    a, b, c, d, f = [pk.sampling.sample_symbol(profile, rng) for _ in range(5)]
    z = fc.circle_grid()
    A, B, C, D, F = [fc.eval_json(s.to_json(), z) for s in (a, b, c, d, f)]

    def paired(x, y, v):
        return x * fc.riesz(v, "plus") + y * fc.riesz(v, "minus")

    def transposed(x, y, v):
        return fc.riesz(x * v, "plus") + fc.riesz(y * v, "minus")

    cases = [
        ("paired*paired", ops.Compose(ops.Paired(a, b), ops.Paired(c, d)), paired(A, B, paired(C, D, F))),
        (
            "transposed*transposed",
            ops.Compose(ops.Transposed(a, b), ops.Transposed(c, d)),
            transposed(A, B, transposed(C, D, F)),
        ),
        (
            "[paired, transposed]",
            ops.Commutator(ops.Paired(a, b), ops.Transposed(c, d)),
            paired(A, B, transposed(C, D, F)) - transposed(C, D, paired(A, B, F)),
        ),
    ]
    problems = []
    for label, node, want in cases:
        got = fc.eval_json(ops.apply_exact(node, f).to_json(), z)
        scale = fc.sup_norm(F) * max(fc.sup_norm(A), fc.sup_norm(B)) * max(fc.sup_norm(C), fc.sup_norm(D))
        err = fc.sup_norm(got - want) / max(scale, 1e-300)
        if not err <= FFT_TOL:
            problems.append(f"{label} image at master seed {master} differs from FFT by {err:.3g}")
    return problems


# ----------------------------------------------------------------------
# phases


def import_pairedk():
    pk = importlib.import_module("pairedk")
    importlib.import_module("pairedk.cli")
    return pk


def run_ops(workload, items):
    """Run the items in order; returns (done, per-op seconds, failures)."""
    done, times, failed = [], [], []
    for item in items:
        t0 = time.perf_counter()
        try:
            out = workload.run(item)
        except Exception as exc:  # an operation that fails is counted, not fatal
            failed.append(f"{type(exc).__name__}: {exc}")
        else:
            done.append((item, out))
        times.append(time.perf_counter() - t0)
    return done, times, failed


def run_timed(workload, pool, start, seconds):
    """Closed loop, one operation at a time from pool index ``start`` on,
    until ``seconds`` have passed; the operation in flight at the deadline
    completes and counts.  An output is kept once per pool entry, so memory
    does not grow with the number of operations a faster program completes."""
    distinct, times, failed = {}, [], []
    t0 = time.perf_counter()
    deadline = t0 + seconds
    i = 0
    while True:
        k = (start + i) % len(pool)
        done, t, f = run_ops(workload, [pool[k]])
        times += t
        failed += f
        for item, out in done:
            distinct.setdefault((k, workload.fingerprint(out)), (item, out))
        i += 1
        if time.perf_counter() >= deadline:
            break
    return list(distinct.values()), times, failed, time.perf_counter() - t0


def peak_rss_mb():
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--start", type=int, default=0, help="pool index of the first timed operation")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    t0 = time.perf_counter()
    pk = import_pairedk()
    pool = workload.build(pk, args.seed)
    setup_s = time.perf_counter() - t0

    # warm-up on inputs of their own stream, never on the timed ones
    warm = workload.build(pk, args.seed, tag=TAG_WARMUP, count=workload.warmup_ops)
    run_ops(workload, warm)
    gc.collect()

    if args.trace:
        record = traced_run(workload, pool, args)
    else:
        done, times, failed, elapsed = run_timed(workload, pool, args.start, args.seconds)
        problems = workload.check(args.seed, done)
        record = {
            "correct": not problems,
            "attempted": len(times),
            "failed": len(failed),
            "setup_s": setup_s,
            "elapsed_s": elapsed,
            "peak_rss_mb": peak_rss_mb(),
            "problems": problems[:20],
            "failures": failed[:20],
            "op_seconds": times,
        }
    print(json.dumps(record))
    return 0


def traced_run(workload, pool, args):
    """Each of a fixed list of operations runs untraced and then traced, on
    fresh inputs each time; the outputs must agree.  Interleaving the two
    keeps slow drifts of machine speed out of ``trace.overhead_s``."""
    import tracer

    items = [pool[i % len(pool)] for i in range(workload.trace_ops)]
    tr = tracer.Tracer()
    plain, traced, failed = [], [], []
    untraced_s = traced_s = 0.0
    for item in items:
        done, t, f = run_ops(workload, [item])
        plain += done
        failed += f
        untraced_s += t[0]
        tr.install()
        try:
            done, t, f = run_ops(workload, [item])
        finally:
            tr.uninstall()
        traced += done
        failed += f
        traced_s += t[0]
    problems = workload.check(args.seed, traced)
    if [workload.fingerprint(o) for _, o in plain] != [workload.fingerprint(o) for _, o in traced]:
        problems.append("traced outputs differ from untraced outputs")
    spans = tr.spans()
    OUT_DIR.mkdir(exist_ok=True)
    np.savez(OUT_DIR / f"spans-{workload.name}-seed{args.seed}.npz", names=np.array(tracer.NAMES), **spans)
    metrics = tracer.layer_metrics(spans)
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return {
        "correct": not problems,
        "attempted": 2 * len(items),
        "failed": len(failed),
        "metrics": metrics,
        "problems": problems[:20],
        "failures": failed[:20],
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "spans": len(spans["id"]),
        "wrapped_sites": tr.sites,
    }


if __name__ == "__main__":
    sys.exit(main())
