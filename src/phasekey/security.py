"""Security quantities of the phase-keyed scheme, closed form and oracle.

The central objects are the trace distances an adversary can exploit:

* unencrypted: D = sqrt(1 - e^{-4 w |alpha|^2}) between two codewords
  that differ in w positions;
* encrypted: D = sum_k q_k sqrt(1 - A_k^2) over the residue-class blocks
  of the key-averaged state, with block weight q_k and block overlap A_k;
* their ratio R, which measures how much the encryption suppresses
  distinguishability.

Closed forms evaluate in O(E + d) time via total-photon-number residue
sums.  They take the Poisson(E) terms from fock.poisson_terms, the same
terms that size number-basis cutoffs, at tail SERIES_TAIL_EPS = 1e-14, and
add them in index order (np.bincount, np.cumsum); that fixed order is what
keeps the sweep CSVs byte-identical.  Past E ~ 708.4, where e^{-E} is no
longer a normal double, the terms start at the first normal one, so the
closed forms hold at every energy the cutoff cap admits.  The series, the
class sums and the encrypted distance are memoized per process in bounded
caches, so a sweep row builds each of them once.
Every closed form has a brute-force companion (the dense channel average of
encoding with fock.trace_distance_numeric; here, the support-basis oracle,
tuple enumeration and the numeric pretty-good measurement) so the formulas
are never trusted on their own.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .encoding import EMPTY_BLOCK_FLOOR, BitString, codeword_fock
from .fock import (
    coherent_fock,
    density_from_fock,
    mean_photon_number,
    occupation_array,
    poisson_terms,
    total_photon_numbers,
)

# Residue sums and limit series are truncated once the Poisson tail drops
# below this; the discarded mass sits far below every reported tolerance.
SERIES_TAIL_EPS = 1e-14

# Relative eigenvalue threshold for the pseudoinverse square root.
PGM_PINV_CUT = 1e-12

# Most parameter sets whose class sums _class_sums keeps, and whose
# distance encrypted_trace_distance keeps.
_CLASS_SUMS_CACHE_SIZE = 64


@dataclass(frozen=True)
class SecurityParams:
    """Scenario parameters: m modes, d keys, amplitude |alpha|, weight w.

    w is the Hamming weight of u XOR v for the codeword pair under attack.
    """

    m: int
    d: int
    abs_alpha: float
    w: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if self.d < 1:
            raise ValueError("d must be at least 1")
        if not math.isfinite(self.E):
            raise ValueError(f"|alpha| must be finite with m|alpha|^2 a finite double, "
                             f"got |alpha| = {self.abs_alpha!r}")
        if self.abs_alpha < 0:
            raise ValueError("|alpha| must be nonnegative")
        if not 0 <= self.w <= self.m:
            raise ValueError("w must satisfy 0 <= w <= m")

    @property
    def E(self) -> float:
        return mean_photon_number(self.abs_alpha, self.m)


@dataclass(frozen=True)
class PgmResult:
    a_plus: float
    a_minus: float
    p_same: float
    p_diff: float
    i_single: float
    i_total: float


@dataclass(frozen=True)
class SuppressionRatio:
    ratio: float
    encrypted: float
    unencrypted: float


def rank2_eigenvalues(C: float, cos_theta: float):
    """Nonzero eigenvalues of |x><x| - C|x><y| - C|y><x| + |y><y|.

    For unit vectors with real overlap <x|y> = cos_theta the two nonzero
    eigenvalues are (1 +- C)(1 -+ cos_theta).
    """
    if abs(cos_theta) > 1:
        raise ValueError("cos_theta must lie in [-1, 1]")
    return (1 + C) * (1 - cos_theta), (1 - C) * (1 + cos_theta)


@functools.lru_cache(maxsize=_CLASS_SUMS_CACHE_SIZE)
def _class_sums(params: SecurityParams):
    """Residue-class sums (q_k, signed_k) for k = 0..d-1, read-only.

    Grouping the occupation tuples of a class by their total photon number
    t turns both the weight and the signed overlap sum into single Poisson
    series: q_k collects p_t = e^{-E} E^t / t! over t = k (mod d), the signed
    sum collects e^{-E} c^t / t! with c = (m - 2w)|alpha|^2.  While
    poisson_terms starts at t = 0 (E up to ~708.4) that is a scalar loop
    from e^{-E}, whose bits the goldens pin.  Past it, it is p_t r^t with
    r = (m - 2w)/m and r^t one np.cumprod of r, which keeps A = +-1 exact
    at w = 0 and w = m.
    """
    pois = poisson_terms(params.E, SERIES_TAIL_EPS)
    if pois[0] > 0.0:
        c = (params.m - 2 * params.w) * params.abs_alpha ** 2
        x = float(pois[0])
        signed = [x] + [x := x * c / t for t in range(1, len(pois))]
    else:
        r = (params.m - 2 * params.w) / params.m
        signed = pois * np.cumprod(np.concatenate(([1.0], np.full(len(pois) - 1, r))))
    residues = np.arange(len(pois)) % params.d
    q = np.bincount(residues, pois, minlength=params.d)
    s = np.bincount(residues, signed, minlength=params.d)
    q.flags.writeable = s.flags.writeable = False
    return q, s


def qk_ak_finite(params: SecurityParams, k: int):
    """Finite-d block weight and overlap (q_k, A_k).

    A block whose weight underflows is reported absent as (0.0, 1.0); the
    conventional A keeps sqrt(1 - A^2) at zero for absent blocks.
    """
    if not 0 <= k < params.d:
        raise ValueError("k must satisfy 0 <= k < d")
    q, s = _class_sums(params)
    if q[k] < EMPTY_BLOCK_FLOOR:
        return 0.0, 1.0
    return float(q[k]), float(min(1.0, max(-1.0, s[k] / q[k])))


def qk_ak_enumeration(params: SecurityParams, n_max: int):
    """Brute-force (q, A) arrays by direct summation over occupation tuples.

    Slow companion to qk_ak_finite: enumerates every tuple z up to the
    cutoff, splits |b_z|^2 by total photon number mod d, and applies the
    sign pattern of a weight-w difference string.  Intended for m <= 3.
    """
    m, d = params.m, params.d
    psi = coherent_fock([params.abs_alpha] * m, n_max)
    weight2 = np.abs(psi.amps) ** 2
    flipped = occupation_array(n_max, m)[:, :params.w].sum(axis=1)
    signs = np.where(flipped % 2 == 1, -1.0, 1.0)
    residues = total_photon_numbers(n_max, m) % d
    q = np.bincount(residues, weight2, minlength=d)
    s = np.bincount(residues, signs * weight2, minlength=d)
    a = np.ones(d)
    present = q >= EMPTY_BLOCK_FLOOR
    a[present] = s[present] / q[present]
    q[~present] = 0.0
    return q, a


@functools.lru_cache(maxsize=_CLASS_SUMS_CACHE_SIZE)
def encrypted_trace_distance(params: SecurityParams) -> float:
    """Trace distance between key-averaged codewords differing in w bits.

    Sums q_k sqrt(1 - A_k^2) over the residue-class blocks at finite d.
    Equal codewords (w = 0) are at distance 0.0 at any energy, with no
    series, so no cutoff cap applies to them.
    """
    if params.w == 0:
        return 0.0
    q, s = _class_sums(params)
    present = q >= EMPTY_BLOCK_FLOOR
    a = np.minimum(1.0, np.maximum(-1.0, s[present] / q[present]))
    blocks = q[present] * np.sqrt(np.maximum(0.0, 1.0 - a * a))
    return _sum_in_order(blocks)


def encrypted_trace_distance_limit(params: SecurityParams) -> float:
    """The d -> infinity value: sum_{k>=1} e^{-E} E^k / k! sqrt(1 - r^{2k}).

    r = (m - 2w)/m; the k = 0 block never contributes since A_0 = 1.
    It is 0.0 at w = 0 (r = 1) at any energy, with no series.
    """
    if params.w == 0:
        return 0.0
    pois = poisson_terms(params.E, SERIES_TAIL_EPS)
    r2 = ((params.m - 2 * params.w) / params.m) ** 2
    r2k = np.cumprod(np.full(len(pois) - 1, r2))  # k = 1..t_max
    return _sum_in_order(pois[1:] * np.sqrt(np.maximum(0.0, 1.0 - r2k)))


def _sum_in_order(terms: np.ndarray) -> float:
    # Left to right, unlike the pairwise np.sum or the compensated builtin
    # sum of Python >= 3.12, so the output bytes never depend on either.
    return float(np.cumsum(terms)[-1]) if len(terms) else 0.0


def unencrypted_trace_distance(w: int, abs_alpha: float) -> float:
    """sqrt(1 - e^{-4 w |alpha|^2}), the plain codeword-pair distance."""
    if w < 0:
        raise ValueError("w must be nonnegative")
    if math.isnan(abs_alpha):
        raise ValueError("|alpha| must be a number, got nan")
    if w == 0:  # equal codewords, where 0 * inf would give NaN at |alpha|^2 = inf
        return 0.0
    return math.sqrt(-math.expm1(-4.0 * w * mean_photon_number(abs_alpha, 1)))


def suppression_ratio(params: SecurityParams) -> SuppressionRatio:
    """R = encrypted over unencrypted distance, with both parts reported.

    Undefined (ValueError) where the denominator is 0.0: at w = 0, alpha = 0
    or |alpha| below about 1.5e-162, where |alpha|^2 rounds to 0.
    """
    unenc = unencrypted_trace_distance(params.w, params.abs_alpha)
    if unenc == 0.0:
        raise ValueError("suppression ratio is undefined where the unencrypted distance is 0")
    enc = encrypted_trace_distance(params)
    return SuppressionRatio(ratio=enc / unenc, encrypted=enc, unencrypted=unenc)


def encrypted_distance_oracle(u: BitString, v: BitString, alpha: float, d: int,
                              n_max: int) -> float:
    """Brute-force trace distance between the key-averaged states of u and v.

    The difference of the two channel outputs is supported on the span of
    the 2d rotated codewords R_k psi = sum_t e^{-i theta_k t} psi|_t, where
    psi|_t is psi restricted to total photon number t.  In sector t those
    codewords span at most psi_u|_t and psi_v|_t, so one Gram-Schmidt step
    per sector, over every grid amplitude and vectorized over t, gives an
    orthonormal basis of at most 2(n_max + 1) vectors and each sector's
    2x2 triangle [[r11, r12], [0, r22]]; r22 is the norm of the residual
    psi_v|_t - (r12 / r11) psi_u|_t itself, not a difference of squared
    norms, which would cancel for (near-)parallel pairs.  The triangles
    times the key phases are the rotated codewords' coordinates in that
    basis.  The R factor of their QR holds the same codewords in a basis of
    at most 2d vectors, where the Hermitian difference is assembled and
    eigensolved; no basis vector is ever formed.  Exact for the truncated
    operators, with no Poisson series, residue class or rank-2 formula.
    """
    if len(u) != len(v):
        raise ValueError("bit strings must have equal length")
    if d < 1:
        raise ValueError("key space size d must be at least 1")
    t = total_photon_numbers(n_max, len(u))
    n_totals = int(t.max()) + 1
    a = codeword_fock(u, alpha, n_max).amps
    b = codeword_fock(v, alpha, n_max).amps
    aa = np.bincount(t, (a.conj() * a).real, n_totals)
    a_b = a.conj() * b
    # ab's parts over the real aa (a complex division takes 1/aa, inf once aa is
    # subnormal; |ab| <= sqrt(aa bb)); an empty sector (r11 = 0) gets r12 = 0
    ab = np.column_stack([np.bincount(t, a_b.real, n_totals), np.bincount(t, a_b.imag, n_totals)])
    coef = np.divide(ab, aa[:, None], out=np.zeros_like(ab), where=aa[:, None] > 0.0)
    coef = coef.view(complex)[:, 0]
    resid = b - coef[t] * a
    r12 = coef * (r11 := np.sqrt(aa))
    r22 = np.sqrt(np.bincount(t, (resid.conj() * resid).real, n_totals))
    phase = np.exp(-2j * math.pi / d * np.outer(np.arange(n_totals), np.arange(d)))
    coords = np.block([[r11[:, None] * phase, r12[:, None] * phase],
                       [np.zeros((n_totals, d)), r22[:, None] * phase]])
    r = np.linalg.qr(coords, mode="r")
    gu, gv = r[:, :d], r[:, d:]
    lam = np.linalg.eigvalsh((gu @ gu.conj().T - gv @ gv.conj().T) / d)
    return 0.5 * float(np.abs(lam).sum())


def _binary_mutual_information(p: np.ndarray) -> float:
    """I(X;Y) in bits for uniform X over {0,1} and conditional matrix p[j, l]."""
    marg = 0.5 * p.sum(axis=1)
    total = 0.0
    for ell in range(2):
        for j in range(2):
            joint = 0.5 * p[j, ell]
            if joint > 0.0 and marg[j] > 0.0:
                total += joint * math.log2(p[j, ell] / marg[j])
    return total


def pgm_closed_form(abs_alpha: float, modes: int = 1) -> PgmResult:
    """Pretty-good-measurement statistics for the pair |alpha>, |-alpha>.

    a_pm = (1 pm e^{-2|alpha|^2})/2 are the eigenvalues of the equal
    mixture; the PGM identifies the state with probability
    (sqrt(a_+) + sqrt(a_-))^2 / 2, and the per-mode information is
    u^2 log2 u + v^2 log2 v with u, v = sqrt(a_+) pm sqrt(a_-).  The
    probability is capped at 1 and the information at the one bit a mode
    carries.
    """
    if math.isnan(abs_alpha):
        raise ValueError("|alpha| must be a number, got nan")
    B = math.exp(-2.0 * mean_photon_number(abs_alpha, 1))
    a_plus = 0.5 * (1.0 + B)
    a_minus = 0.5 * (1.0 - B)
    u = math.sqrt(a_plus) + math.sqrt(a_minus)
    v = math.sqrt(a_plus) - math.sqrt(a_minus)
    p_diff = 0.5 * v * v
    i_single = u * u * math.log2(u)
    if v > 0.0:
        i_single += v * v * math.log2(v)
    # rounding lifts p_same to 1 + 2e-16 and the sum to 1 + 4e-16 once the
    # states are orthogonal to double precision (|alpha| >~ 4.5)
    p_same = min(0.5 * u * u, 1.0)
    i_single = min(i_single, 1.0)
    return PgmResult(a_plus=a_plus, a_minus=a_minus, p_same=p_same, p_diff=p_diff,
                     i_single=i_single, i_total=modes * i_single)


def pgm_numeric_oracle(abs_alpha: float, n_max: int) -> PgmResult:
    """Pretty-good measurement evaluated directly on truncated density matrices.

    Builds the equal mixture of |alpha><alpha| and |-alpha><-alpha|, forms
    the PGM elements through a pseudoinverse square root (relative cut
    1e-12), and checks they resolve the identity on the mixture's support
    to 1e-9 before reporting probabilities and mutual information.
    """
    rhos = [density_from_fock(coherent_fock([s * abs_alpha], n_max)).entries
            for s in (1.0, -1.0)]
    mix = 0.5 * (rhos[0] + rhos[1])
    lam, vec = np.linalg.eigh(mix)
    keep = lam > PGM_PINV_CUT * lam.max()
    inv_sqrt = (vec[:, keep] * (1.0 / np.sqrt(lam[keep]))) @ vec[:, keep].conj().T
    elements = [inv_sqrt @ (0.5 * rho) @ inv_sqrt for rho in rhos]
    support = vec[:, keep] @ vec[:, keep].conj().T
    defect = np.abs(elements[0] + elements[1] - support).max()
    if defect > 1e-9:
        raise ValueError(
            f"PGM elements miss the support projector by {defect:.3e}; "
            "pseudoinverse rank defect beyond tolerance")
    p = np.empty((2, 2))
    for j in range(2):
        for ell in range(2):
            p[j, ell] = float(np.trace(elements[j] @ rhos[ell]).real)
    i_single = _binary_mutual_information(p)
    a_sorted = np.sort(lam)
    return PgmResult(a_plus=float(a_sorted[-1]), a_minus=float(a_sorted[-2]),
                     p_same=float(p[0, 0]), p_diff=float(p[1, 0]),
                     i_single=i_single, i_total=i_single)
