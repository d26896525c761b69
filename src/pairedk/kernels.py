"""Exact kernels of Toeplitz, paired, and transposed paired operators with
rational symbols, plus the numerical kernel oracle.

For a regular quotient g = a/b (no zeros or poles on the circle) with winding
index kappa = -n < 0 and Wiener-Hopf data g = g_minus z^kappa g_plus:

* ker T_g           = span{ z^j / g_plus : 0 <= j < n }
* ker (a P+ + b P-) = { phi_+ + phi_- : phi_+ in ker T_g, phi_- = -g phi_+ }
* ker (P+ a + P- b) = { p(z) / (g_plus b) : deg p < n,
                        p vanishing at each circle zero of b to its order }

The last description is what makes the transposed kernel computable exactly:
writing psi in the kernel as psi = (b psi)/b forces b*psi into ker T_g, and
membership of psi in L2 is exactly the vanishing condition at the circle
zeros of b.  Symbols whose *quotient* carries circle zeros or poles are
routed to the numerical oracle instead of being enumerated.

A nontriviality witness is the first element of the exact kernel: for the
paired kernel phi_+ + phi_- = 1/g_plus - z^kappa g_minus (the paper's
O_+ - I_- O_-), for the transposed kernel q/(g_plus b) (its O_+/b).

The oracle truncates the operator once, at window N, and counts its kernel
as columns - numerical_rank of that matrix, the rank rule every span and
commutator rank uses; the count reads singular values only, and the
candidate vectors come from one vector SVD made when
``OracleResult.candidates`` is first read.  Its stability check repeats the
count on the N/2 sub-block of the same matrix.  For a nontrivial kernel the
gap divides by a singular value at roundoff level, so its digits are
roundoff: only ``gap >= GAP_MIN`` certifies the dimension.  ``stable`` false
flags kernel elements whose tails decay too slowly for the N/2 window to
hold them, not a wrong dimension at N; it is None (unknown) where the N/2
count is not certified.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    CertificateFailed,
    DegenerateInput,
    DegenerateSymbol,
    NotInHardySpace,
    NotInKernel,
    NotInner,
    OracleIndeterminate,
    PartitionOfUnityFails,
    PoleOnCircle,
    SymbolNotBounded,
    TrivialKernel,
    WindowOverflow,
)
from .factorization import blaschke, inner_outer, wiener_hopf, winding_index
from .operators import bandwidth, build, numerical_rank, truncate
from .rational import RationalSymbol, SpaceTag, decay_window
from .roots import LOC_IN, LOC_OUT, Root

H2P, H2M = SpaceTag.H2PLUS, SpaceTag.H2MINUS

STATUS_EXACT = "exact"
STATUS_EMPTY = "empty"
STATUS_NEEDS_ORACLE = "needs_oracle"


@dataclass(frozen=True)
class SymbolPair:
    """Symbols (a, b), both bounded, both nonzero a.e. on the circle."""

    a: RationalSymbol
    b: RationalSymbol

    def __post_init__(self):
        if self.a.is_zero or self.b.is_zero:
            raise DegenerateSymbol("both symbols must be nonzero a.e.")
        if self.a.has_circle_pole or self.b.has_circle_pole:
            raise SymbolNotBounded("symbols must be essentially bounded")

    @property
    def nondegenerate(self) -> bool:
        return not self.a.equals(self.b)

    def quotient(self) -> RationalSymbol:
        return self.a / self.b

    def swap(self) -> "SymbolPair":
        return SymbolPair(self.b, self.a)


@dataclass(frozen=True)
class PairedElement:
    plus: RationalSymbol
    minus: RationalSymbol

    @property
    def total(self) -> RationalSymbol:
        return self.plus + self.minus


@dataclass(frozen=True)
class KernelBasis:
    elements: tuple
    status: str
    dimension: Optional[int]
    certificate: dict = field(default_factory=dict)

    @property
    def is_empty(self) -> bool:
        return self.status == STATUS_EMPTY

    def to_json(self):
        basis = []
        for e in self.elements:
            if isinstance(e, PairedElement):
                basis.append({"plus": e.plus.to_json(), "minus": e.minus.to_json()})
            else:
                basis.append(e.to_json())
        payload = {
            "status": self.status,
            "dimension": self.dimension,
            "basis": basis,
        }
        if self.certificate:
            payload["certificate"] = self.certificate
        return payload


# ----------------------------------------------------------------------
# membership tests (exact, valid for every rational symbol pair)


def member_S(f: RationalSymbol, p: SymbolPair) -> bool:
    """Exact test a*P+f + b*P-f == 0."""
    if f.has_circle_pole:
        raise PoleOnCircle("membership test needs an L2 input")
    if f.is_zero:
        return True
    lhs = p.a * f.riesz("plus")
    rhs = -(p.b * f.riesz("minus"))
    return lhs.equals(rhs)


def member_Sigma(f: RationalSymbol, p: SymbolPair) -> bool:
    """Exact test P+(a f) == 0 and P-(b f) == 0."""
    if f.has_circle_pole:
        raise PoleOnCircle("membership test needs an L2 input")
    if f.is_zero:
        return True
    af = p.a * f
    bf = p.b * f
    return af.membership(H2M) and bf.membership(H2P)


# ----------------------------------------------------------------------
# exact kernels


def _regular_quotient(g: RationalSymbol, noun: str, **empty_cert):
    """The step the three exact kernels share.  A circle zero or pole of g
    gives a needs_oracle basis and winding >= 0 an empty one; otherwise the
    certified Wiener-Hopf factorization of g is returned."""
    if g.has_circle_pole or g.has_circle_zero:
        return KernelBasis(
            (),
            STATUS_NEEDS_ORACLE,
            None,
            {"reason": f"{noun} has zeros or poles on the circle; no exact enumeration"},
        )
    kappa = winding_index(g)
    if kappa >= 0:
        return KernelBasis((), STATUS_EMPTY, 0, {"kappa": kappa, **empty_cert})
    return wiener_hopf(g)


def _toeplitz_elements(g: RationalSymbol, fac):
    """The basis elements e = z^j / g_plus of ker T_g in order, each with
    its image g e, verified to lie in H2-."""
    inv_plus = fac.g_plus.reciprocal()
    for j in range(-fac.kappa):
        e = inv_plus * RationalSymbol.monomial(j)
        img = g * e
        if not (img.membership(H2M) and e.membership(H2P)):
            raise CertificateFailed("constructed Toeplitz kernel element fails verification")
        yield e, img


def toeplitz_kernel(g: RationalSymbol) -> KernelBasis:
    """Kernel of f -> P+(g f) on the plus Hardy space (domain-filtered)."""
    if g.is_zero:
        raise DegenerateSymbol("Toeplitz symbol must be nonzero a.e.")
    fac = _regular_quotient(g, "symbol")
    if isinstance(fac, KernelBasis):
        return fac
    elements = tuple(e for e, _ in _toeplitz_elements(g, fac))
    return KernelBasis(elements, STATUS_EXACT, -fac.kappa, {"kappa": fac.kappa})


def paired_kernel(p: SymbolPair, *, _limit: Optional[int] = None) -> KernelBasis:
    """Kernel of a P+ + b P- as pairs (phi_+, phi_-), phi_- = -g phi_+.
    Only the first ``_limit`` elements are built when it is given."""
    if not p.nondegenerate:
        # multiplication by a nonzero a.e. function is injective
        return KernelBasis((), STATUS_EMPTY, 0, {"reason": "degenerate pair: multiplication operator"})
    g = p.quotient()
    fac = _regular_quotient(g, "symbol")
    if isinstance(fac, KernelBasis):
        return fac
    elements = []
    for phi_plus, img in itertools.islice(_toeplitz_elements(g, fac), _limit):
        el = PairedElement(phi_plus, -img)
        if not member_S(el.total, p):
            raise CertificateFailed("constructed paired kernel element fails verification")
        elements.append(el)
    return KernelBasis(tuple(elements), STATUS_EXACT, -fac.kappa, {"kappa": fac.kappa})


def _circle_zero_poly(sym: RationalSymbol) -> Tuple[RationalSymbol, int]:
    """(monic polynomial through the circle zeros of sym, total multiplicity)."""
    roots = sym.circle_zeros()
    m = sum(r.mult for r in roots)
    if m == 0:
        return RationalSymbol.const(1.0), 0
    return RationalSymbol(1.0, 0, tuple(roots), ()), m


def transposed_kernel(p: SymbolPair, *, _limit: Optional[int] = None) -> KernelBasis:
    """Kernel of P+ a + P- b, enumerated exactly for regular quotients.
    Only the first ``_limit`` elements are built when it is given."""
    if not p.nondegenerate:
        # a f in H2+ and H2- simultaneously forces a f = 0, hence f = 0
        return KernelBasis((), STATUS_EMPTY, 0, {"reason": "degenerate pair: kernel is {0}"})
    fac = _regular_quotient(p.quotient(), "quotient", reason="paired kernel already trivial")
    if isinstance(fac, KernelBasis):
        return fac
    n = -fac.kappa
    qsym, m_on = _circle_zero_poly(p.b)
    cert = {
        "kappa": fac.kappa,
        "circle_zero_mult_b": m_on,
        # L2 side conditions for the canonical representation of the quotient
        "side_conditions": {
            "O_minus_over_a_in_L2": (fac.g_minus / p.a).membership(SpaceTag.L2),
            "O_plus_over_b_in_L2": (fac.g_plus.reciprocal() / p.b).membership(SpaceTag.L2),
        },
    }
    if n <= m_on:
        cert["reason"] = (
            "every candidate (b psi)/b leaves L2: the circle zeros of b absorb "
            "the whole Toeplitz kernel"
        )
        return KernelBasis((), STATUS_EMPTY, 0, cert)
    base = qsym / (fac.g_plus * p.b)  # O_+/b with O_+ = q/g_plus outer
    elements = []
    for j in range(n - m_on)[:_limit]:
        e = base * RationalSymbol.monomial(j)
        if not member_Sigma(e, p):
            raise CertificateFailed("constructed transposed kernel element fails verification")
        elements.append(e)
    return KernelBasis(tuple(elements), STATUS_EXACT, n - m_on, cert)


# ----------------------------------------------------------------------
# nontriviality with witnesses


@dataclass(frozen=True)
class NontrivialityResult:
    status: object  # True | False | "needs_oracle"
    witness: Optional[RationalSymbol]
    certificate: dict

    def __bool__(self):
        return self.status is True

    @classmethod
    def from_kernel(cls, kb: KernelBasis) -> "NontrivialityResult":
        """Read off a kernel enumerated at least to its first element, which
        is the witness (for a paired element, its total)."""
        if kb.status == STATUS_NEEDS_ORACLE:
            return cls(STATUS_NEEDS_ORACLE, None, kb.certificate)
        if kb.is_empty:
            return cls(False, None, kb.certificate)
        first = kb.elements[0]
        return cls(True, first.total if isinstance(first, PairedElement) else first, kb.certificate)


def nontrivial_S(p: SymbolPair) -> NontrivialityResult:
    """Decide ker(a P+ + b P-) != {0}; the witness is the first kernel
    element, O_+ - I_- O_- = 1/g_plus - z^kappa g_minus."""
    return NontrivialityResult.from_kernel(paired_kernel(p, _limit=1))


def nontrivial_Sigma(p: SymbolPair) -> NontrivialityResult:
    """Decide ker(P+ a + P- b) != {0}; the witness is the first kernel
    element, O_+/b."""
    if not p.nondegenerate:
        raise DegenerateSymbol("nondegenerate pair required")
    return NontrivialityResult.from_kernel(transposed_kernel(p, _limit=1))


def kernels_equal_S(p: SymbolPair, q: SymbolPair) -> bool:
    """For a nontrivial paired kernel: equality holds iff a*b~ == a~*b."""
    res = nontrivial_S(p)
    if res.status is not True:
        raise TrivialKernel("equality criterion requires a nontrivial kernel")
    return (p.a * q.b).equals(q.a * p.b)


# ----------------------------------------------------------------------
# the unique paired kernel through a given function


def symbols_from_function(phi_plus: RationalSymbol, phi_minus: RationalSymbol) -> SymbolPair:
    """Construct the symbol pair whose paired kernel contains phi_+ + phi_-.

    Build conj(I_+)/O_+ and -conj(I_-)/O_- from inner-outer data, then clear
    circle zeros of the outer parts with a common polynomial so both symbols
    stay bounded.  The output passes the exact kernel membership test.
    """
    if phi_plus.is_zero or phi_minus.is_zero:
        raise DegenerateInput("a kernel element has both halves nonzero")
    if not phi_plus.membership(H2P) or not phi_minus.membership(H2M):
        raise NotInHardySpace("inputs must lie in their Hardy spaces")
    io_p = inner_outer(phi_plus, "plus")
    io_m = inner_outer(phi_minus, "minus")
    clear_roots = tuple(io_p.outer.circle_zeros()) + tuple(io_m.outer.circle_zeros())
    w = RationalSymbol(1.0, 0, clear_roots, ()) if clear_roots else RationalSymbol.const(1.0)
    a = io_p.inner.conj_circle() * w / io_p.outer
    b = -(io_m.inner.conj_circle()) * w / io_m.outer
    pair = SymbolPair(a, b)
    if not member_S(phi_plus + phi_minus, pair):
        raise CertificateFailed("constructed pair fails the kernel membership")
    return pair


# ----------------------------------------------------------------------
# the map between the two kernel types


def j_map(
    psi: RationalSymbol,
    p: SymbolPair,
    inverse: bool = False,
    a_prime: Optional[RationalSymbol] = None,
    b_prime: Optional[RationalSymbol] = None,
) -> RationalSymbol:
    """Forward: psi in ker(P+ a + P- b) -> (a-b) psi in ker(a P+ + b P-).

    Inverse: needs a', b' with a a' + b b' = 1; then a' P- - b' P+ maps the
    paired kernel back.  When b (or a) has no circle zeros the witnesses
    (0, 1/b) (resp. (1/a, 0)) are supplied automatically.
    """
    if not p.nondegenerate:
        raise DegenerateSymbol("nondegenerate pair required")
    if not inverse:
        if not member_Sigma(psi, p):
            raise NotInKernel("input is not in the transposed kernel")
        out = (p.a - p.b) * psi
        if not member_S(out, p):
            raise CertificateFailed("forward image fails paired membership")
        return out
    if not member_S(psi, p):
        raise NotInKernel("input is not in the paired kernel")
    if a_prime is None and b_prime is None:
        if not p.b.has_circle_zero:
            a_prime, b_prime = RationalSymbol.zero(), p.b.reciprocal()
        elif not p.a.has_circle_zero:
            a_prime, b_prime = p.a.reciprocal(), RationalSymbol.zero()
        else:
            raise PartitionOfUnityFails(
                "no automatic witnesses: both symbols vanish on the circle"
            )
    a_prime = a_prime if a_prime is not None else RationalSymbol.zero()
    b_prime = b_prime if b_prime is not None else RationalSymbol.zero()
    if a_prime.has_circle_pole or b_prime.has_circle_pole:
        raise PartitionOfUnityFails("witnesses must be bounded")
    if not (p.a * a_prime + p.b * b_prime).equals(RationalSymbol.const(1.0)):
        raise PartitionOfUnityFails("a a' + b b' != 1")
    out = a_prime * psi.riesz("minus") - b_prime * psi.riesz("plus")
    if not member_Sigma(out, p):
        raise CertificateFailed("inverse image fails transposed membership")
    return out


# ----------------------------------------------------------------------
# inclusion of transposed kernels


def _has_plus_inner_factor(h: RationalSymbol) -> bool:
    """Nonconstant inner factor of a rational bounded-analytic function."""
    return h.zpow > 0 or h.zeros_at(LOC_IN) > 0


def _has_minus_inner_factor(h: RationalSymbol) -> bool:
    """Nonconstant inner factor of conj(h) for h in the conjugate algebra."""
    return h.delta_infinity < 0 or h.zeros_at(LOC_OUT) > 0


def sigma_inclusion(p: SymbolPair, q: SymbolPair) -> str:
    """Compare ker(P+ a + P- b) for two pairs: subset / equal / no_subset / unknown."""
    if not p.nondegenerate:
        raise DegenerateSymbol("nondegenerate pair required")
    kb_p = transposed_kernel(p)
    if kb_p.is_empty:
        raise TrivialKernel("inclusion criterion requires a nontrivial kernel")
    kb_q = transposed_kernel(q)
    if kb_p.status != STATUS_NEEDS_ORACLE and kb_q.status != STATUS_NEEDS_ORACLE:
        forward = all(member_Sigma(e, q) for e in kb_p.elements)
        backward = all(member_Sigma(e, p) for e in kb_q.elements)
        if forward and backward and kb_p.dimension == kb_q.dimension:
            return "equal"
        if forward:
            return "subset"
        return "no_subset"
    h_minus = q.a / p.a
    h_plus = q.b / p.b
    if h_minus.membership(SpaceTag.HINF_BAR) and h_plus.membership(SpaceTag.HINF):
        strict = _has_minus_inner_factor(h_minus) or _has_plus_inner_factor(h_plus)
        return "subset" if strict else "equal"
    r_minus = p.a / q.a
    r_plus = p.b / q.b
    if r_minus.membership(SpaceTag.HINF_BAR) and r_plus.membership(SpaceTag.HINF):
        if _has_minus_inner_factor(r_minus) or _has_plus_inner_factor(r_plus):
            return "no_subset"
        return "equal"
    return "unknown"


# ----------------------------------------------------------------------
# model spaces


def model_space_basis(theta: RationalSymbol) -> KernelBasis:
    """Basis of the model space K_theta = ker(P+ conj(theta) + P- 1)."""
    if not theta.membership(SpaceTag.INNER_PLUS):
        raise NotInner("model spaces need an inner function")
    pair = SymbolPair(theta.conj_circle(), RationalSymbol.const(1.0))
    factors: List[RationalSymbol] = []
    kernels: List[RationalSymbol] = []
    for _ in range(theta.zpow):
        factors.append(RationalSymbol.monomial(1))
        kernels.append(RationalSymbol.const(1.0))
    for r in theta.zeros:
        refl = 1.0 / r.value.conjugate()
        k_a = RationalSymbol(-1.0 / r.value.conjugate(), 0, (), (Root(refl, 1, LOC_OUT),))
        for _ in range(r.mult):
            factors.append(blaschke(r.value))
            kernels.append(k_a)
    elements = []
    prefix = RationalSymbol.const(1.0)
    for fac, ker in zip(factors, kernels):
        e = prefix * ker
        if not member_Sigma(e, pair):
            raise CertificateFailed("model space element fails membership")
        elements.append(e)
        prefix = prefix * fac
    dim = len(elements)
    return KernelBasis(tuple(elements), STATUS_EXACT if dim else STATUS_EMPTY, dim, {})


# ----------------------------------------------------------------------
# linear-algebra helpers over coefficient windows


def coeff_matrix(elems: Sequence[RationalSymbol], half_width: Optional[int] = None) -> np.ndarray:
    elems = list(elems)
    if not elems:
        return np.zeros((0, 1), dtype=complex)
    K = decay_window(elems) if half_width is None else half_width
    return np.vstack([e.fourier_range(-K, K) for e in elems])


def span_rank(elems: Sequence[RationalSymbol], half_width: Optional[int] = None) -> int:
    """Numerical rank of the coefficient windows of ``elems`` (half-width
    ``half_width``, by default their decay window), gap-certified."""
    res = numerical_rank(coeff_matrix(elems, half_width))
    if res.indeterminate:
        raise OracleIndeterminate("span rank lacks a spectral gap", res)
    return res.rank


def linearly_independent(elems: Sequence[RationalSymbol]) -> bool:
    elems = list(elems)
    return span_rank(elems) == len(elems)


def span_defect(basis: Sequence[RationalSymbol], images: Sequence[RationalSymbol]) -> int:
    """dim(span(basis + images)) - dim(span(basis)), gap-certified, both
    read on one coefficient window."""
    both = list(basis) + list(images)
    K = decay_window(both)
    return span_rank(both, K) - span_rank(basis, K)


# ----------------------------------------------------------------------
# numerical kernel oracle


@dataclass(frozen=True, eq=False)
class OracleResult:
    dim_estimate: int
    gap: float
    matrix: np.ndarray = field(repr=False)  # the trimmed truncation, read-only
    kept_indices: np.ndarray
    stable: Optional[bool]
    sigma_max: float

    @functools.cached_property
    def candidates(self) -> np.ndarray:
        """Rows: kernel candidates over the kept column indices.  The right
        singular vectors of ``matrix`` for its dim_estimate smallest singular
        values, from one vector SVD made on first read (every column of a
        zero matrix, none for dimension 0)."""
        A = self.matrix
        if self.sigma_max == 0.0:
            return np.eye(A.shape[1], dtype=complex)
        if not self.dim_estimate:
            return np.zeros((0, A.shape[1]), dtype=complex)
        # A is tall unless it is zero, so the reduced vh is the full one
        vh = np.linalg.svd(A, full_matrices=False)[2]
        return vh[len(vh) - self.dim_estimate :].conj()

    def to_json(self):
        return {
            "dim_estimate": self.dim_estimate,
            "gap": self.gap if math.isfinite(self.gap) else "inf",
            "stable": self.stable,
            "sigma_max": self.sigma_max,
        }


def _oracle_window(M, n: int, d: int):
    """Columns |j| <= n and rows |k| <= n + d of the truncation ``M``, less d
    columns at each artificial window edge: (matrix, kept column indices).
    A leaf's column j does not depend on the window, so for n < N this is
    the window-n truncation read off the window-N one (for a composition,
    up to the tails its padding drops)."""
    ins = M.in_indices
    keep = np.abs(ins) <= n
    if d > 0:
        cols = ins[keep]
        if cols[0] <= -n:  # artificial window edge on the low side
            keep &= ins >= cols[0] + d
        if cols[-1] >= n:
            keep &= ins <= cols[-1] - d
    # both index sets are contiguous runs, so the block is a view of M
    return M.entries[_run(np.abs(M.out_indices) <= n + d), _run(keep)], ins[keep]


def _run(mask):
    """The one contiguous run of True entries of ``mask``, as a slice."""
    i = int(mask.argmax())
    return slice(i, i + int(mask.sum()))


def oracle_min_window(node) -> int:
    """The smallest window ``kernel_oracle`` accepts: twice the bandwidth."""
    return 2 * max(bandwidth(node), 1)


def kernel_oracle(node, N: int) -> OracleResult:
    """SVD-based kernel dimension estimate with an edge buffer and a
    stability cross-check at half the window size.

    The operator is truncated once, at N; the dimension is the column count
    of the trimmed matrix less its ``numerical_rank``, whose gap and
    sigma_max the result carries with the matrix (``candidates`` are
    computed on first read).  The cross-check counts the kernel of the N/2
    sub-block (rows |k| <= N/2 + d, columns |j| <= N/2, the same edge trim)
    the same way, and ``stable`` is false when the two counts differ: kernel
    tails too slow for the N/2 window, not a wrong dimension.  ``stable`` is
    None (unknown) when N/2 is below the smallest window, or when the
    sub-block's own rank is indeterminate: an uncertified count is not
    compared.  For a nontrivial kernel the gap divides by a singular value
    at roundoff level (inf where it is exactly 0), and at dimension 0 it is
    sigma_min over the threshold; only ``gap >= GAP_MIN`` certifies, and
    below it OracleIndeterminate is raised."""
    node = build(node)
    least = oracle_min_window(node)
    if N < least:
        raise WindowOverflow(f"oracle window N={N} below twice the bandwidth, {least}")
    M, d = truncate(node, N), bandwidth(node)
    A, kept = _oracle_window(M, N, d)
    A.flags.writeable = False
    res = numerical_rank(A)
    dim = A.shape[1] - res.rank
    stable = None
    if N // 2 >= least:
        half, _ = _oracle_window(M, N // 2, d)
        half_res = numerical_rank(half)
        if not half_res.indeterminate:
            stable = half.shape[1] - half_res.rank == dim
    result = OracleResult(dim, res.gap, A, kept, stable, res.sigma_max)
    if res.indeterminate:
        raise OracleIndeterminate(f"kernel oracle gap {res.gap:.3g} below certificate", result)
    return result


def principal_angle(
    oracle: OracleResult, exact: Sequence[RationalSymbol]
) -> float:
    """Largest principal angle between the oracle candidates and the exact
    span.  Reading ``oracle.candidates`` makes the oracle's one vector SVD
    the first time."""
    exact = list(exact)
    if not exact or oracle.dim_estimate == 0:
        return 0.0 if not exact and oracle.dim_estimate == 0 else float("nan")
    lo, hi = int(oracle.kept_indices[0]), int(oracle.kept_indices[-1])
    B = np.vstack([e.fourier_range(lo, hi) for e in exact])
    A = oracle.candidates
    qa, _ = np.linalg.qr(A.T)
    qb, _ = np.linalg.qr(B.T)
    svals = np.linalg.svd(qa.conj().T @ qb, compute_uv=False)
    svals = np.clip(svals, -1.0, 1.0)
    return float(np.arccos(np.min(svals)))
