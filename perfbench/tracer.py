"""Span tracer for the traced benchmark run.

Wraps pairedk's public functions from outside the package: every module
attribute and class attribute that binds a target function is replaced by a
wrapper, because patching only the defining module misses the names that
other modules imported (``poly_roots`` in ``pairedk.rational``, ``truncate``
in ``pairedk.kernels``, and so on).  Spans (name, start, end, parent) are
kept in flat in-memory arrays and turned into per-function call counts and
self times when the run ends.  Private helpers are not wrapped, so their
time counts toward the nearest wrapped caller.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# (metric prefix, owner path, attribute); one prefix may name several
# attributes (``laurent.add`` covers ``__add__`` and ``__sub__``).  Aliases
# such as ``__radd__ = __add__`` are found by identity when patching.
TARGETS = [
    ("laurent.init", "pairedk.laurent:LaurentPoly", "__init__"),
    ("laurent.mul", "pairedk.laurent:LaurentPoly", "__mul__"),
    ("laurent.add", "pairedk.laurent:LaurentPoly", "__add__"),
    ("laurent.add", "pairedk.laurent:LaurentPoly", "__sub__"),
    ("laurent.from_roots", "pairedk.laurent:LaurentPoly", "from_roots"),
    ("laurent.eval", "pairedk.laurent:LaurentPoly", "eval"),
    ("roots.poly_roots", "pairedk.roots", "poly_roots"),
    ("rational.from_fraction", "pairedk.rational:RationalSymbol", "from_fraction"),
    ("rational.add", "pairedk.rational:RationalSymbol", "__add__"),
    ("rational.mul", "pairedk.rational:RationalSymbol", "__mul__"),
    ("rational.riesz", "pairedk.rational:RationalSymbol", "riesz"),
    ("rational.fourier_range", "pairedk.rational:RationalSymbol", "fourier_range"),
    ("rational.equals", "pairedk.rational:RationalSymbol", "equals"),
    ("rational.membership", "pairedk.rational:RationalSymbol", "membership"),
    ("rational.conj_circle", "pairedk.rational:RationalSymbol", "conj_circle"),
    ("rational.sup_circle", "pairedk.rational:RationalSymbol", "sup_circle"),
    ("rational.inner_product", "pairedk.rational", "inner_product"),
    ("factorization.wiener_hopf", "pairedk.factorization", "wiener_hopf"),
    ("factorization.inner_outer", "pairedk.factorization", "inner_outer"),
    ("operators.apply_exact", "pairedk.operators", "apply_exact"),
    ("operators.truncate", "pairedk.operators", "truncate"),
    ("operators.numerical_rank", "pairedk.operators", "numerical_rank"),
    ("operators.operator_norm", "pairedk.operators", "operator_norm"),
    ("operators.adjoint_residual", "pairedk.operators", "adjoint_residual"),
    ("kernels.toeplitz_kernel", "pairedk.kernels", "toeplitz_kernel"),
    ("kernels.paired_kernel", "pairedk.kernels", "paired_kernel"),
    ("kernels.transposed_kernel", "pairedk.kernels", "transposed_kernel"),
    ("kernels.nontrivial_S", "pairedk.kernels", "nontrivial_S"),
    ("kernels.nontrivial_Sigma", "pairedk.kernels", "nontrivial_Sigma"),
    ("kernels.member_S", "pairedk.kernels", "member_S"),
    ("kernels.member_Sigma", "pairedk.kernels", "member_Sigma"),
    ("kernels.kernel_oracle", "pairedk.kernels", "kernel_oracle"),
    ("kernels.span_defect", "pairedk.kernels", "span_defect"),
    ("numpy.svd", "numpy.linalg", "svd"),
    ("sampling.sample_symbol", "pairedk.sampling", "sample_symbol"),
    ("sampling.sample_pair_with_kernel", "pairedk.sampling", "sample_pair_with_kernel"),
    ("sampling.sample_quotient_with_winding", "pairedk.sampling", "sample_quotient_with_winding"),
    ("properties.run_property", "pairedk.properties", "run_property"),
    ("cli.main", "pairedk.cli", "main"),
]

NAMES = list(dict.fromkeys(name for name, _, _ in TARGETS))

RATIOS = [
    ("ratio.poly_roots_per_riesz", "roots.poly_roots", "rational.riesz"),
    ("ratio.riesz_per_truncate", "rational.riesz", "operators.truncate"),
    ("ratio.laurent_init_per_rational_add", "laurent.init", "rational.add"),
]


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = sys.modules[module]
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Install with ``install()``, run the traced code, then ``uninstall()``."""

    def __init__(self):
        self._ids = array("q")
        self._parents = array("q")
        self._names = array("H")
        self._t0 = array("d")
        self._t1 = array("d")
        self._stack = [-1]
        self._next = 0
        self._patches = []  # (owner, attribute, original)
        self.sites = {}  # bindings patched per metric by the last install

    def _wrap(self, name_id: int, fn):
        stack = self._stack
        ids, parents, names = self._ids, self._parents, self._names
        t0s, t1s = self._t0, self._t1
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                ids.append(sid)
                parents.append(parent)
                names.append(name_id)
                t0s.append(t0)
                t1s.append(t1)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self):
        self.sites = dict.fromkeys(NAMES, 0)
        modules = [m for n, m in list(sys.modules.items()) if n == "pairedk" or n.startswith("pairedk.")]
        for name, path, attr in TARGETS:
            owner = _owner(path)
            original = owner.__dict__[attr]
            name_id = NAMES.index(name)
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(name_id, original.__func__))
            else:
                wrapped = self._wrap(name_id, original)
            # every binding of the same object: class aliases and imported names
            sites = [owner] + ([] if isinstance(owner, type) else [m for m in modules if m is not owner])
            for site in sites:
                for key, value in list(vars(site).items()):
                    if value is original:
                        self._patches.append((site, key, original))
                        setattr(site, key, wrapped)
                        self.sites[name] += 1

    def uninstall(self):
        for site, key, original in reversed(self._patches):
            setattr(site, key, original)
        self._patches.clear()

    def spans(self) -> dict:
        return {
            "id": np.frombuffer(self._ids, dtype=np.int64).copy(),
            "parent": np.frombuffer(self._parents, dtype=np.int64).copy(),
            "name": np.frombuffer(self._names, dtype=np.uint16).copy(),
            "t0": np.frombuffer(self._t0, dtype=np.float64).copy(),
            "t1": np.frombuffer(self._t1, dtype=np.float64).copy(),
        }


def layer_metrics(spans: dict) -> dict:
    """Per-function calls and self seconds, plus the call-count ratios."""
    n = len(spans["id"])
    dur = spans["t1"] - spans["t0"]
    has_parent = spans["parent"] >= 0
    child = np.bincount(spans["parent"][has_parent], weights=dur[has_parent], minlength=n)
    self_s = dur - child[spans["id"]]
    calls = np.bincount(spans["name"], minlength=len(NAMES))
    selfs = np.bincount(spans["name"], weights=self_s, minlength=len(NAMES))
    out = {}
    for i, name in enumerate(NAMES):
        out[f"{name}.calls"] = (int(calls[i]), "count")
        out[f"{name}.self_s"] = (float(selfs[i]), "s")
    for ratio, num, den in RATIOS:
        c_num, c_den = out[f"{num}.calls"][0], out[f"{den}.calls"][0]
        out[ratio] = (c_num / c_den if c_den else 0.0, "ratio")
    return out

