"""Security quantities of the phase-keyed scheme, closed form and oracle.

The central objects are the trace distances an adversary can exploit:

* unencrypted: D = sqrt(1 - e^{-4 w |alpha|^2}) between two codewords
  that differ in w positions;
* encrypted: D = sum_k q_k sqrt(1 - A_k^2) over the residue-class blocks
  of the key-averaged state, with block weight q_k and block overlap A_k;
* their ratio R, which measures how much the encryption suppresses
  distinguishability.

Closed forms evaluate in O(E) time at any d via total-photon-number residue
sums.  They take the Poisson(E) terms p_t from fock.poisson_terms, the same
terms that size number-basis cutoffs, at tail SERIES_TAIL_EPS = 1e-14.  Each
block is held as two nonnegative class parts, a_k and b_k, the sums of
p_t (1 - r^t) and p_t (1 + r^t) over t = k (mod d) with r = (m - 2w)/m, so
q_k sqrt(1 - A_k^2) = sqrt(a_k b_k) and nothing cancels; the d -> infinity
limit is the same sum with one class per t.  The parts are added in index
order from 0.0 (np.bincount), with only +, -, *, / and sqrt on the
numbers; that fixed order is what keeps the sweep CSVs byte-identical.
Past E ~ 708.4, where e^{-E} is no longer a normal double, the terms start
at the first normal one, so the closed forms hold at every energy the
cutoff cap admits.  The series, and one record per parameter set of its
class parts, distance and limit, are memoized per process in bounded
caches, so each is built once.  A sweep line, one (m, d) over an |alpha|
grid and several w, comes whole from _line_distances, one float64 array
per w, built in array passes of at most _LINE_ENTRIES series terms; a
single call is the same code on one row: each row runs the same IEEE
operations in the same order as it would alone, so every row keeps its
bits.
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

from .encoding import BitString, codeword_fock
from .fock import (
    as_int,
    coherent_fock,
    density_from_fock,
    mean_photon_number,
    occupation_array,
    poisson_terms,
    total_photon_numbers,
)

# The class-part series are truncated once the Poisson tail drops below
# this; the discarded mass sits far below every reported tolerance.
SERIES_TAIL_EPS = 1e-14

# Relative eigenvalue threshold for the pseudoinverse square root.
PGM_PINV_CUT = 1e-12

# Most parameter sets whose class parts, distance and limit _class_sums keeps.
_CLASS_SUMS_CACHE_SIZE = 64

# Most entries, series terms times |alpha| rows, that one array of a sweep
# line holds: 2^13 doubles (64 kB).  A longer line runs in several passes.
_LINE_ENTRIES = 2 ** 13


@dataclass(frozen=True)
class SecurityParams:
    """Scenario parameters: m modes, d keys, amplitude |alpha|, weight w.

    w is the Hamming weight of u XOR v for the codeword pair under attack.
    m, d and w are stored as Python ints; a non-integer count is refused.
    """

    m: int
    d: int
    abs_alpha: float
    w: int

    def __post_init__(self):
        for name, least in (("m", 1), ("d", 1), ("w", None)):
            object.__setattr__(self, name, as_int(name, getattr(self, name), least))
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


def _series_runs(m: int, abs_alphas):
    """Yield (series, width): the Poisson(m|alpha|^2) series of consecutive
    runs of abs_alphas and the longest one's length.

    A run grows while width times its rows stays within _LINE_ENTRIES, so
    an error is raised at the first |alpha|, in order, whose series fails.
    """
    series, width = [], 0
    for abs_alpha in abs_alphas:
        pois = poisson_terms(mean_photon_number(abs_alpha, m), SERIES_TAIL_EPS)
        if series and max(width, len(pois)) * (len(series) + 1) > _LINE_ENTRIES:
            yield series, width
            series, width = [], 0
        series.append(pois)
        width = max(width, len(pois))
    if series:
        yield series, width


def _parts(m: int, w: int, n: int) -> np.ndarray:
    """Rows u_t = 1 - r^t and v_t = 1 + r^t for t < n, r = (m - 2w)/m: the only place r^t is formed.

    Both come from |r|^t, one running product of |r| = (m - 2s)/m with s
    = min(w, m - w), and 1 - |r|^t = (2s/m) sum_{j<t} |r|^j, one running
    sum, so no entry is a difference of nearly equal numbers.  Where r < 0
    (2w > m), r^t = -|r|^t at odd t, which swaps u and v there.  u is
    exactly 0 at w = 0 (r = 1) and exactly 0 or 2 at w = m (r = -1).  The
    running product and sum are the ufuncs' accumulate, the loops of
    np.cumprod and np.cumsum without their Python wrappers.
    """
    s = min(w, m - w)
    steps = np.full(n, (m - 2 * s) / m)
    steps[0] = 1.0
    powers = np.multiply.accumulate(steps)
    below = np.add.accumulate(np.concatenate(([0.0], powers[:-1])))
    parts = np.array((2 * s / m * below, 1.0 + powers))
    if 2 * w > m:
        parts[:, 1::2] = parts[::-1, 1::2].copy()
    return parts


def _in_order(values: np.ndarray) -> float:
    """sum(values) left to right from 0.0, as np.bincount adds.

    Never np.sum's pairwise or Python >= 3.12's compensated order, so the
    output bytes depend on neither.
    """
    return float(np.bincount(np.zeros(len(values), dtype=np.intp), values, 1)[0])


def _line_distances(m: int, d: int, ws, abs_alphas) -> np.ndarray:
    """Row i is the line of ws[i]: its distance at each of abs_alphas, float64.

    The distances are encrypted_trace_distance at (m, d, w, |alpha|), bit
    for bit.  Each run of _series_runs sits zero-padded in the columns of
    terms[t, j], which every w shares.  Class k of row j sits at k * rows
    + j, for k below min(d, width), and index sends each entry of
    terms.ravel() there, so one np.bincount adds each class part in index
    order from 0.0, as _class_sums does for one series, and another adds
    each row's sqrt(a_k b_k) in class order.  Equal codewords (w = 0) are
    at 0.0 with no series, so lines of only those build none.
    """
    lines = np.zeros((len(ws), len(abs_alphas)))
    if not any(ws):
        return lines
    at = 0
    for series, width in _series_runs(m, abs_alphas):
        rows = len(series)
        terms = np.zeros((width, rows))
        for j, pois in enumerate(series):
            terms[:len(pois), j] = pois
        # t < width, so t mod min(d, width) is t mod d, and a d past int64 never reaches numpy
        classes = min(d, width)
        index = ((np.arange(width) % classes * rows)[:, None] + np.arange(rows)).ravel()
        owners = np.tile(np.arange(rows), classes)
        for w, line in zip(ws, lines):
            if w:
                pu, pv = _parts(m, w, width)[:, :, None] * terms
                a, b = np.bincount(index, pu.ravel()), np.bincount(index, pv.ravel())
                line[at:at + rows] = np.bincount(owners, np.sqrt(a * b), rows)
        at += rows
    return lines


@functools.lru_cache(maxsize=_CLASS_SUMS_CACHE_SIZE)
def _class_sums(params: SecurityParams):
    """(a, b, D, D_inf): the class parts a_k, b_k (read-only), the distance and its d -> inf limit.

    Grouping the occupation tuples of a class by their total photon number
    t turns each block into Poisson series: with p_t = e^{-E} E^t / t! and
    r = (m - 2w)/m, a_k = sum_{t = k (mod d)} p_t (1 - r^t) and b_k = the
    same with 1 + r^t (_parts).  Both are sums of nonnegative terms, and
    the block weight and overlap are q_k = (a_k + b_k)/2 and A_k = (b_k -
    a_k)/(a_k + b_k), so the block's share of the distance, q_k sqrt(1 -
    A_k^2), is sqrt(a_k b_k) with nothing left to cancel.  D sums those;
    D_inf is the same sum with one class per t, the distance at any d past
    the series, bit for bit.  k < min(d, n + 1): the series has n + 1
    terms, so no class past them is ever nonempty.  One entry serves the
    distance, the limit and every k's (q_k, A_k); it is the line kernel's
    one-row case.
    """
    pois = poisson_terms(params.E, SERIES_TAIL_EPS)
    pu, pv = pois * _parts(params.m, params.w, len(pois))
    residues = np.arange(len(pois)) % min(params.d, len(pois))  # as in _line_distances
    a, b = np.bincount(residues, pu), np.bincount(residues, pv)
    a.flags.writeable = b.flags.writeable = False
    return a, b, _in_order(np.sqrt(a * b)), _in_order(np.sqrt(pu * pv))


def qk_ak_finite(params: SecurityParams, k: int):
    """Finite-d block weight and overlap (q_k, A_k) = ((a_k + b_k)/2, (b_k - a_k)/(a_k + b_k)).

    |A_k| <= 1 holds with no clip, since a_k, b_k >= 0 and rounding is
    monotone.  A class past the series, or one whose terms all underflow
    (past E ~ 708.4 the series starts at its first normal term), is
    reported absent as (0.0, 1.0); the conventional A keeps sqrt(1 - A^2)
    at zero for absent blocks.
    """
    k = as_int("k", k)
    if not 0 <= k < params.d:
        raise ValueError("k must satisfy 0 <= k < d")
    a, b, *_ = _class_sums(params)
    if k >= len(a) or a[k] + b[k] == 0.0:
        return 0.0, 1.0
    return float((a[k] + b[k]) / 2), float((b[k] - a[k]) / (a[k] + b[k]))


def qk_ak_enumeration(params: SecurityParams, n_max: int):
    """Brute-force (q, A) arrays by direct summation over occupation tuples.

    Slow companion to qk_ak_finite: enumerates every tuple z up to the
    cutoff, splits |b_z|^2 by total photon number mod d, and applies the
    sign pattern of a weight-w difference string.  One entry per class k <
    min(d, n_max + 1), the classes the grid's totals reach; one of weight
    exactly 0 reads (0.0, 1.0), as in qk_ak_finite.  Intended for m <= 3.
    """
    m = params.m
    psi = coherent_fock([params.abs_alpha] * m, n_max)
    d = min(params.d, psi.cutoff + 1)
    weight2 = np.abs(psi.amps) ** 2
    flipped = occupation_array(n_max, m)[:, :params.w].sum(axis=1)
    signs = np.where(flipped % 2 == 1, -1.0, 1.0)
    residues = total_photon_numbers(n_max, m) % d
    q = np.bincount(residues, weight2, minlength=d)
    s = np.bincount(residues, signs * weight2, minlength=d)
    return q, np.divide(s, q, out=np.ones(d), where=q > 0.0)


def encrypted_trace_distance(params: SecurityParams) -> float:
    """Trace distance between key-averaged codewords differing in w bits.

    Sums q_k sqrt(1 - A_k^2) = sqrt(a_k b_k) over the residue-class blocks
    at finite d (_class_sums).
    Equal codewords (w = 0) are at distance 0.0 at any energy, with no
    series, so no cutoff cap applies to them.
    """
    return _class_sums(params)[2] if params.w else 0.0


def encrypted_trace_distance_limit(params: SecurityParams) -> float:
    """The d -> infinity value: sum_t sqrt(p_t (1 - r^t) p_t (1 + r^t)), r = (m - 2w)/m.

    It is the distance with one class per total photon number t, and
    equals encrypted_trace_distance at any d past the series (d = 2^63),
    bit for bit, from the same memo entry.  It is 0.0 at w = 0 (r = 1) at
    any energy, with no series.
    """
    return _class_sums(params)[3] if params.w else 0.0


def unencrypted_trace_distance(w: int, abs_alpha: float) -> float:
    """sqrt(1 - e^{-4 w |alpha|^2}), the plain codeword-pair distance."""
    w = as_int("w", w)
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
    Every d > n_max keeps only the pairs t = t', as d = n_max + 1 does, so
    the keys stop there and the cost does not grow with d.
    """
    if len(u) != len(v):
        raise ValueError("bit strings must have equal length")
    d = as_int("key space size d", d, least=1)
    n_totals = as_int("n_max", n_max) + 1
    t = total_photon_numbers(n_max, len(u))
    d = min(d, n_totals)
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
    u^2 log2 u + v^2 log2 v with u, v = sqrt(a_+) pm sqrt(a_-).  Below
    |alpha|^2 = 0.01 that sum cancels (it reads 0 at |alpha| = 1e-10), so
    there the information is its equal (s atanh(s) + log1p(-s^2) / 2) / ln 2,
    s = sqrt(1 - e^{-4|alpha|^2}), which is ~2|alpha|^2 / ln 2 with every
    digit; that form loses digits as s nears 1.  The probability is capped
    at 1 and the information at the one bit a mode carries.
    """
    modes = as_int("modes", modes, least=1)
    if math.isnan(abs_alpha):
        raise ValueError("|alpha| must be a number, got nan")
    a2 = mean_photon_number(abs_alpha, 1)
    B = math.exp(-2.0 * a2)
    a_plus = 0.5 * (1.0 + B)
    a_minus = 0.5 * (1.0 - B)
    u = math.sqrt(a_plus) + math.sqrt(a_minus)
    v = math.sqrt(a_plus) - math.sqrt(a_minus)
    p_diff = 0.5 * v * v
    if a2 < 0.01:
        s2 = -math.expm1(-4.0 * a2)
        s = math.sqrt(s2)
        i_single = (s * math.atanh(s) + 0.5 * math.log1p(-s2)) / math.log(2.0)
    else:
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
