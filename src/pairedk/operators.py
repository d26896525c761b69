"""Operator expressions over L2 of the circle, exact application, and
rectangular truncations used as the numerical oracle.

The expression language covers multiplication-projection operators
(a P+ + b P-, P+ a + P- b), their Toeplitz/Hankel compressions, multiplication
operators, projections, and the usual algebra (compose, sum, scale, adjoint,
commutator).  Truncations are rectangular: the domain window is [-N..N]
(intersected with the domain space) while the codomain window is padded by
the expression bandwidth, so polynomial inputs are mapped exactly.

Each leaf node class owns its semantics (spaces, adjoint, exact action and
truncation); the tree walkers below branch only on the five combinators.  A
composition truncates as the product of its factors' truncations, padded by
``decay_window``: pole-free trees stay exact, and a tree with poles drops
the coefficient tails beyond w, where r^w < 1e-16 for the largest pole decay
radius r.  That rule ignores pole multiplicity, so the dropped tails can be
larger (2.4e-13 relative for a triple pole at 0.7; ROADMAP item 10).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import ClassVar, Dict, List, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import tolerances as tol
from .errors import (
    DomainMismatch,
    PoleOnCircle,
    SymbolNotBounded,
    WindowOverflow,
)
from .rational import RationalSymbol, SpaceTag, decay_window

L2, H2P, H2M = SpaceTag.L2, SpaceTag.H2PLUS, SpaceTag.H2MINUS
_SIDE = {H2P: "plus", H2M: "minus"}  # the Riesz projection onto each Hardy space

_OPS: Dict[str, type] = {}  # wire-format op name -> node class


def _on_side(idx: np.ndarray, side: str) -> slice:
    """The entries of the contiguous ascending range ``idx`` that the Riesz
    projection on ``side`` keeps, as a slice."""
    p = int(np.searchsorted(idx, 0))
    return slice(p, None) if side == "plus" else slice(None, p)


def _fill(out: np.ndarray, s: RationalSymbol, ks: np.ndarray, in_idx: np.ndarray) -> None:
    """Write the truncated multiplication matrix, entry (k, j) = hat s(k - j),
    for the contiguous ascending ranges ``ks`` (rows) and ``in_idx``
    (columns) into the block ``out``.  Row k reads hat s(k - j) from one
    Fourier window in reverse, so the block is a strided view of that
    window, copied once."""
    if len(ks) and len(in_idx):
        w = s.fourier_range(int(ks[0] - in_idx[-1]), int(ks[-1] - in_idx[0]))
        out[...] = sliding_window_view(w[::-1], len(in_idx))[::-1]


# ----------------------------------------------------------------------
# AST nodes (plain constructors; build() validates and normalizes)


class _Node:
    """An expression node; each concrete class registers its wire ``op``."""

    op: ClassVar[str]

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "op" in vars(cls):
            _OPS[cls.op] = cls


class _Leaf(_Node):
    """A node whose fields are symbols.  It declares its (domain, codomain)
    ``spaces`` and implements ``adjoint()``, ``apply(f)`` (the exact image of
    a rational function) and ``columns(in_idx, ks)`` (its truncation to rows
    ``ks`` and columns ``in_idx``)."""

    spaces: ClassVar[Tuple[SpaceTag, SpaceTag]] = (L2, L2)


@dataclass(frozen=True)
class Paired(_Leaf):
    """a P+ + b P-."""

    op = "paired"
    a: RationalSymbol
    b: RationalSymbol

    def adjoint(self):
        return Transposed(self.a.conj_circle(), self.b.conj_circle())

    def apply(self, f):
        return self.a * f.riesz("plus") + self.b * f.riesz("minus")

    def columns(self, in_idx, ks):
        out = np.empty((len(ks), len(in_idx)), dtype=complex)
        for s, side in ((self.a, "plus"), (self.b, "minus")):  # a on columns j >= 0, b on j < 0
            cols = _on_side(in_idx, side)
            _fill(out[:, cols], s, ks, in_idx[cols])
        return out


@dataclass(frozen=True)
class Transposed(_Leaf):
    """P+ a + P- b."""

    op = "transposed"
    a: RationalSymbol
    b: RationalSymbol

    def adjoint(self):
        return Paired(self.a.conj_circle(), self.b.conj_circle())

    def apply(self, f):
        return (self.a * f).riesz("plus") + (self.b * f).riesz("minus")

    def columns(self, in_idx, ks):
        out = np.empty((len(ks), len(in_idx)), dtype=complex)
        for s, side in ((self.a, "plus"), (self.b, "minus")):  # a on rows k >= 0, b on k < 0
            rows = _on_side(ks, side)
            _fill(out[rows], s, ks[rows], in_idx)
        return out


@dataclass(frozen=True)
class Mult(_Leaf):
    """Multiplication by eta."""

    op = "mult"
    eta: RationalSymbol

    def adjoint(self):
        return Mult(self.eta.conj_circle())

    def apply(self, f):
        return self.eta * f

    def columns(self, in_idx, ks):
        out = np.empty((len(ks), len(in_idx)), dtype=complex)
        _fill(out, self.eta, ks, in_idx)
        return out


@dataclass(frozen=True)
class _Compression(_Leaf):
    """P a from the domain Hardy space to the codomain Hardy space.  The
    projection is the codomain's, and the adjoint (with the conjugate
    symbol) is the compression with the two spaces swapped."""

    a: RationalSymbol

    @property
    def side(self) -> str:
        return _SIDE[self.spaces[1]]

    def adjoint(self):
        return _COMPRESSIONS[self.spaces[::-1]](self.a.conj_circle())

    def apply(self, f):
        return (self.a * f).riesz(self.side)

    def columns(self, in_idx, ks):
        out = np.zeros((len(ks), len(in_idx)), dtype=complex)
        rows = _on_side(ks, self.side)  # the other rows stay 0
        _fill(out[rows], self.a, ks[rows], in_idx)
        return out


class Toeplitz(_Compression):
    """P+ a on H2+."""

    op, spaces = "toeplitz", (H2P, H2P)


class DualToeplitz(_Compression):
    """P- a on H2-."""

    op, spaces = "dual_toeplitz", (H2M, H2M)


class Hankel(_Compression):
    """P- a from H2+ to H2-."""

    op, spaces = "hankel", (H2P, H2M)


class HankelTilde(_Compression):
    """P+ a from H2- to H2+."""

    op, spaces = "hankel_tilde", (H2M, H2P)


_COMPRESSIONS = {c.spaces: c for c in (Toeplitz, DualToeplitz, Hankel, HankelTilde)}


@dataclass(frozen=True)
class _Projection(_Leaf):
    """The self-adjoint Riesz projection on ``side``."""

    side: ClassVar[str]

    def adjoint(self):
        return self

    def apply(self, f):
        return f.riesz(self.side)

    def columns(self, in_idx, ks):
        out = np.zeros((len(ks), len(in_idx)), dtype=complex)
        cols = _on_side(in_idx, self.side)
        out[:, cols] = ks[:, None] == in_idx[cols]
        return out


class ProjPlus(_Projection):
    op, side = "proj_plus", "plus"


class ProjMinus(_Projection):
    op, side = "proj_minus", "minus"


@dataclass(frozen=True)
class Compose(_Node):
    op = "compose"
    x: object
    y: object


@dataclass(frozen=True)
class Sum(_Node):
    op = "sum"
    x: object
    y: object


@dataclass(frozen=True)
class Scale(_Node):
    op = "scale"
    lam: complex = field(metadata={"json": "lambda"})
    x: object


@dataclass(frozen=True)
class Adjoint(_Node):
    op = "adjoint"
    x: object


@dataclass(frozen=True)
class Commutator(_Node):
    op = "commutator"
    x: object
    y: object


def identity() -> Mult:
    return Mult(RationalSymbol.const(1.0))


def _symbols_in(node) -> List[RationalSymbol]:
    """Every symbol of the tree under ``node``, repeats included: a field
    annotated RationalSymbol holds a symbol, one annotated object an operand."""
    out, stack = [], [node]
    while stack:
        n = stack.pop()
        out += [getattr(n, f.name) for f in fields(n) if f.type == "RationalSymbol"]
        stack += [getattr(n, f.name) for f in fields(n) if f.type == "object"]
    return out


def _adjoint(node):
    """Adjoint of an Adjoint-free tree."""
    if isinstance(node, (Compose, Commutator)):
        return type(node)(_adjoint(node.y), _adjoint(node.x))
    if isinstance(node, Sum):
        return Sum(_adjoint(node.x), _adjoint(node.y))
    if isinstance(node, Scale):
        return Scale(complex(node.lam).conjugate(), _adjoint(node.x))
    return node.adjoint()


def _normalize(node):
    """Push adjoints to the leaves; returns an Adjoint-free tree."""
    if isinstance(node, Adjoint):
        return _adjoint(_normalize(node.x))
    if isinstance(node, (Compose, Sum, Commutator)):
        return type(node)(_normalize(node.x), _normalize(node.y))
    if isinstance(node, Scale):
        return Scale(complex(node.lam), _normalize(node.x))
    return node


def spaces(node) -> Tuple[SpaceTag, SpaceTag]:
    """(domain, codomain) tags of a normalized node."""
    if isinstance(node, Scale):
        return spaces(node.x)
    if not isinstance(node, (Compose, Sum, Commutator)):
        return node.spaces
    dx, cx = spaces(node.x)
    dy, cy = spaces(node.y)
    if isinstance(node, Compose):
        if not (cy == dx or dx == L2):
            raise DomainMismatch("composition spaces do not chain")
        return (dy, cx)
    if isinstance(node, Sum):
        if dx != dy:
            raise DomainMismatch("summands must share a domain")
        return (dx, cx if cx == cy else L2)
    if not (dx == cx == dy == cy):
        raise DomainMismatch("commutator needs two endomorphisms of one space")
    return (dx, cx)


def _symbol_bandwidth(s: RationalSymbol) -> int:
    if s.is_zero:
        return 0
    num = s.num
    return max(abs(num.lo), abs(num.hi), s.den.degree_span())


def bandwidth(node) -> int:
    if isinstance(node, (Compose, Commutator)):
        return bandwidth(node.x) + bandwidth(node.y)
    if isinstance(node, Sum):
        return max(bandwidth(node.x), bandwidth(node.y))
    if isinstance(node, Scale):
        return bandwidth(node.x)
    if isinstance(node, _Leaf):
        return max((_symbol_bandwidth(s) for s in _symbols_in(node)), default=0)
    raise TypeError(f"bandwidth of an unnormalized node {node!r}")


def build(node):
    """Validate an expression: bounded symbols, coherent spaces, no Adjoint."""
    norm = _normalize(node)
    if any(s.has_circle_pole for s in _symbols_in(norm)):
        raise SymbolNotBounded("symbol has a pole on the circle")
    spaces(norm)  # raises DomainMismatch on incoherent trees
    return norm


# ----------------------------------------------------------------------
# exact application


def apply_exact(node, f: RationalSymbol) -> RationalSymbol:
    """Apply the operator to a rational L2 function, exactly."""
    node = _normalize(node)
    if f.has_circle_pole:
        raise PoleOnCircle("input lies outside L2")
    dom, _ = spaces(node)
    if dom != L2 and not f.membership(dom):
        raise DomainMismatch(f"input not in declared domain {dom.value}")
    return _apply(node, f)


def _apply(node, f: RationalSymbol) -> RationalSymbol:
    if isinstance(node, Compose):
        return _apply(node.x, _apply(node.y, f))
    if isinstance(node, Sum):
        return _apply(node.x, f) + _apply(node.y, f)
    if isinstance(node, Scale):
        return _apply(node.x, f) * node.lam
    if isinstance(node, Commutator):
        return _apply(node.x, _apply(node.y, f)) - _apply(node.y, _apply(node.x, f))
    return node.apply(f)


# ----------------------------------------------------------------------
# truncation


@dataclass(frozen=True)
class TruncationMatrix:
    entries: np.ndarray
    in_indices: np.ndarray
    out_indices: np.ndarray


def _window(tag: SpaceTag, lo: int, hi: int) -> np.ndarray:
    ks = np.arange(lo, hi + 1)
    return ks if tag == L2 else ks[_on_side(ks, _SIDE[tag])]


def truncate(node, N: int) -> TruncationMatrix:
    """Rectangular truncation; column j holds the Fourier window of the image
    of z^j.  Compositions are matrix products padded by ``decay_window``, as
    the module docstring says: exact for pole-free trees, else the tails
    beyond r^w < 1e-16 are dropped, which is not a bound on them where poles
    are multiple."""
    node = build(node)
    d = bandwidth(node)
    if N < d:
        raise WindowOverflow(f"window N={N} below expression bandwidth {d}")
    if N > 4096:
        raise WindowOverflow("window too large")
    dom, cod = spaces(node)
    in_idx = _window(dom, -N, N)
    out_idx = _window(cod, -N - d, N + d)
    return TruncationMatrix(_columns(node, in_idx, out_idx), in_idx, out_idx)


def _columns(node, in_idx: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Truncation of a normalized node to the windows ``ks`` x ``in_idx``.
    Both are contiguous ascending ranges: the leaves read each block as a
    strided view of one Fourier window, which needs exactly that."""
    if not (len(in_idx) and len(ks)):  # an H2- window at N = 0
        return np.zeros((len(ks), len(in_idx)), dtype=complex)
    if isinstance(node, Sum):
        return _columns(node.x, in_idx, ks) + _columns(node.y, in_idx, ks)
    if isinstance(node, Scale):
        return node.lam * _columns(node.x, in_idx, ks)
    if isinstance(node, Compose):  # images of z^j spread by the bandwidth and pole tails
        pad = bandwidth(node) + decay_window(_symbols_in(node), floor=0)
        mid = np.arange(min(ks[0], in_idx[0]) - pad, max(ks[-1], in_idx[-1]) + pad + 1)
        return _columns(node.x, mid, ks) @ _columns(node.y, in_idx, mid)
    if isinstance(node, Commutator):
        xy = _columns(Compose(node.x, node.y), in_idx, ks)
        yx = _columns(Compose(node.y, node.x), in_idx, ks)
        top = np.maximum(np.abs(xy).max(axis=0), np.abs(yx).max(axis=0))
        xy -= yx
        # a column cancelling to roundoff is zero, as the rational difference would be
        keep = np.abs(xy).max(axis=0) > tol.EPS_EQ * top
        xy[:, ~keep] = 0
        return xy
    return node.columns(in_idx, ks)


# ----------------------------------------------------------------------
# norms / ranks / adjoint residuals


@dataclass(frozen=True)
class RankResult:
    rank: int
    gap: float
    indeterminate: bool
    sigma_max: float


def operator_norm(node, N: int) -> float:
    """A lower bound for the norm of the operator: a singular value of its
    truncation at window N, to within ``NORM_CERT`` relative (0.0 for a zero
    or empty truncation).

    Where every symbol of the expression has constant modulus on the circle
    (``RationalSymbol.circle_modulus``), a short Golub-Kahan-Lanczos run
    (``_krylov_norm``) tries to certify its top Ritz value.  That is the
    largest singular value unless the fixed start vector has no component
    along the top singular vectors; then it is a smaller one, still a lower
    bound.  Every other expression, and every run that certifies nothing,
    takes the full SVD and so the largest singular value itself."""
    A = truncate(node, N).entries
    if not A.any():
        return 0.0
    top = _krylov_norm(A) if all(s.circle_modulus() for s in _symbols_in(node)) else None
    return float(np.linalg.svd(A, compute_uv=False)[0]) if top is None else top


def _krylov_norm(A: np.ndarray) -> Optional[float]:
    """Top singular value of ``A`` from a short Golub-Kahan-Lanczos run, or
    None where the run certifies nothing.

    For the top singular triple (theta, x, y) of B_k, A^H U_k x - theta V_k y
    is beta_k x_k times the next V vector, so a singular value of A lies
    within beta_k |x_k| of theta; theta is returned once that bound is at
    most ``NORM_CERT * theta``.  The run gives up after n // ``NORM_STEP_COST``
    steps on n columns: a step costs about m n flops against m n^2 for the
    SVD, so a failed run adds a bounded share to the SVD that follows."""
    m, n = A.shape
    for _, _, B in _golub_kahan(A, min(n // tol.NORM_STEP_COST, m)):
        k = len(B) - 1
        x, s, _ = np.linalg.svd(B[:, :-1])
        if B[k, k + 1] * abs(x[k, 0]) <= tol.NORM_CERT * s[0]:
            return float(s[0])
    return None


# start vector: the chirp exp(i pi phi k^2), phi the golden ratio's fraction.
# It is fixed and of unit modulus, and its discrete Fourier transform has
# nearly flat modulus, so it weighs every point of the circle alike (a single
# mode exp(2 pi i phi k) is the Dirichlet kernel moved to one point)
_PHASE = (5**0.5 - 1) / 2


def _golub_kahan(A: np.ndarray, steps: int):
    """Golub-Kahan-Lanczos bidiagonalization of ``A`` (Golub and Kahan, SIAM
    J. Numer. Anal. B 2, 1965) from a fixed start vector, so every result
    depends on A alone.  After step k it yields (U_k, V_k, B), with
    A V_k = U_k B_k for the upper bidiagonal B_k = B[:, :-1] and beta_k =
    B[k, k + 1] the norm of the next V vector.  Each new vector is
    orthogonalized against all earlier ones once: after the three-term
    recurrence its components along them are at roundoff level, so one
    pass keeps U_k and V_k orthonormal to roundoff while alpha_k and beta_k
    stay above roundoff; past that the Krylov space is invariant and the new
    vectors are noise.  The run ends at an exact zero alpha_k or beta_k."""
    m, n = A.shape
    U = np.empty((steps, m), dtype=complex)
    V = np.empty((steps + 1, n), dtype=complex)
    B = np.zeros((steps + 1, steps + 1))  # alpha_k at [k, k], beta_k at [k, k + 1]
    V[0] = np.exp(1j * np.pi * _PHASE * np.arange(n) ** 2) / np.sqrt(n)
    for k in range(steps):
        u = A @ V[k]
        if k:
            u -= B[k - 1, k] * U[k - 1]
            u -= (U[:k] @ u.conj()).conj() @ U[:k]
        B[k, k] = np.linalg.norm(u)
        if B[k, k] == 0.0:
            return
        U[k] = u / B[k, k]
        v = (U[k].conj() @ A).conj() - B[k, k] * V[k]
        v -= (V[: k + 1] @ v.conj()).conj() @ V[: k + 1]
        B[k, k + 1] = np.linalg.norm(v)
        yield U[: k + 1], V[: k + 1], B[: k + 1, : k + 2]
        if B[k, k + 1] == 0.0:
            return
        V[k + 1] = v / B[k, k + 1]


def numerical_rank(M, rank_tol: Optional[float] = None) -> RankResult:
    """Certified numerical rank, the one rule that turns singular values into
    a decision: the rank counts the values above thr = rank_tol * sigma_max,
    and the gap is the last value kept over the first one dropped, thr
    standing in for a missing neighbour (thr / s_max at rank 0, s_min / thr
    at full rank; inf where the first dropped value is exactly 0).  A zero
    or empty matrix has rank 0 and an infinite gap."""
    rank_tol = tol.RANK_TOL if rank_tol is None else rank_tol
    entries = M.entries if isinstance(M, TruncationMatrix) else np.asarray(M)
    s = np.linalg.svd(entries, compute_uv=False) if entries.size else ()
    smax = float(s[0]) if len(s) else 0.0
    if smax == 0.0:
        return RankResult(0, float("inf"), False, 0.0)
    thr = rank_tol * smax
    rank = int(np.sum(s > thr))
    above = float(s[rank - 1]) if rank > 0 else thr
    below = float(s[rank]) if rank < len(s) else thr
    gap = float("inf") if below == 0.0 else above / below
    return RankResult(rank, gap, gap < tol.GAP_MIN, smax)


def adjoint_residual(node_x, node_y, k: int) -> float:
    """max |<X z^i, z^j> - <z^i, Y z^j>| over the monomials |i|, |j| <= k of
    X's domain and codomain: the largest entry of T_X - T_Y^H, truncated as
    in ``truncate`` (exact for pole-free trees, else padded by
    ``decay_window``)."""
    x, y = build(node_x), build(node_y)
    dom, cod = spaces(x)
    if spaces(y) != (cod, dom):
        raise DomainMismatch("the candidate adjoint must map the codomain back to the domain")
    cols, rows = _window(dom, -k, k), _window(cod, -k, k)
    diff = _columns(x, cols, rows) - _columns(y, rows, cols).conj().T
    return float(np.abs(diff).max(initial=0.0))


# ----------------------------------------------------------------------
# JSON wire format: {"op": ..., field: value, ...} over the node's dataclass
# fields in order; Scale's factor travels as "lambda".

_ENCODE = {"RationalSymbol": lambda s: s.to_json(), "complex": lambda c: [c.real, c.imag]}
_DECODE = {"RationalSymbol": RationalSymbol.from_json, "complex": lambda v: complex(v[0], v[1])}


def _wire_name(f) -> str:
    return f.metadata.get("json", f.name)


def ast_to_json(node):
    return _to_json(_normalize(node))


def _to_json(node):
    out = {"op": node.op}
    for f in fields(node):
        out[_wire_name(f)] = _ENCODE.get(f.type, _to_json)(getattr(node, f.name))
    return out


def ast_from_json(data):
    cls = _OPS.get(data["op"])
    if cls is None:
        raise ValueError(f"unknown op {data['op']!r}")
    return cls(*[_DECODE.get(f.type, ast_from_json)(data[_wire_name(f)]) for f in fields(cls)])
