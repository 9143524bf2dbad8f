"""Homomorphically allowed operations: passive linear optics and nonlinear phases.

Interferometers act on coherent codewords as a plain m x m matrix product
on the mode amplitudes.  Nonlinear phase gates are diagonal in the number
basis, multiplying the coefficient of |z> by exp(-i t sum_terms g prod_k
z_k^{n_k}); they require the Fock representation.  Both families conserve
total photon number, which is why they commute with the encryption
rotation and can run on ciphertexts.

In the number basis an interferometer is exponentiated one fixed-total-
photon block at a time, each by a single Hermitian eigensolve.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .encoding import AmplitudeVector
from .fock import FockVector, coherent_coefficients, occupation_array

UNITARITY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Interferometer:
    """Passive linear-optical element: an m x m unitary on mode amplitudes."""

    u: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=complex)
        object.__setattr__(self, "u", u)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise ValueError("interferometer matrix must be square")
        # every entry of a unitary lies in the unit disc; the check also keeps
        # NaN, infinite and huge entries out of the product below
        if not np.abs(u).max() <= 1.0 + UNITARITY_TOL:
            raise ValueError("matrix is not unitary: an entry is non-finite or above 1 in modulus")
        defect = np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()
        if defect > UNITARITY_TOL:
            raise ValueError(f"matrix is not unitary: max |u^dag u - 1| = {defect:.3e}")

    @property
    def modes(self) -> int:
        return self.u.shape[0]


@dataclass(frozen=True, eq=False)
class NonlinearPhaseSpec:
    """Number-diagonal evolution exp(-i t sum g prod_k n_k^{e_k}), hbar = 1.

    terms maps an exponent tuple (e_1, ..., e_m) to its real coupling g.
    The single-mode Kerr interaction is terms={(1,): -K, (2,): K}; the
    cross-Kerr gate on two modes is terms={(1, 1): K}.
    """

    terms: dict
    t: float = 1.0

    def __post_init__(self):
        cleaned = {}
        for exps, g in dict(self.terms).items():
            exps = tuple(int(e) for e in exps)
            if any(e < 0 for e in exps):
                raise ValueError("exponents must be nonnegative")
            if not any(exps):
                raise ValueError("each term needs at least one nonzero exponent")
            if not math.isfinite(float(g)):
                raise ValueError("couplings must be finite")
            cleaned[exps] = float(g)
        if not cleaned:
            raise ValueError("at least one term is required")
        lengths = {len(e) for e in cleaned}
        if len(lengths) != 1:
            raise ValueError("all exponent tuples must cover the same mode count")
        t = float(self.t)
        if not math.isfinite(t):
            raise ValueError("the evolution time t must be finite")
        object.__setattr__(self, "terms", cleaned)
        object.__setattr__(self, "t", t)

    @property
    def modes(self) -> int:
        return len(next(iter(self.terms)))


def apply_interferometer(u: Interferometer, v: AmplitudeVector) -> AmplitudeVector:
    """Coherent amplitudes transform linearly: amps' = u amps."""
    if u.modes != v.modes:
        raise ValueError("interferometer size must match the mode count")
    return AmplitudeVector(u.u @ v.amps)


def haar_random_unitary(m: int, seed) -> Interferometer:
    """Haar-distributed unitary from a seeded complex Gaussian matrix.

    QR with the R diagonal phases folded back in gives the uniform
    distribution; the result is deterministic per seed.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return Interferometer(q * (diag / np.abs(diag)))


def nonlinear_phase_evolve(spec: NonlinearPhaseSpec, psi: FockVector) -> FockVector:
    """Apply the diagonal phases exp(-i t phi(z)) to every amplitude.

    Phases are accumulated in double precision; 0^0 counts as 1 so a term
    ignoring a mode leaves that mode's vacuum component untouched.
    """
    if spec.modes != psi.modes:
        raise ValueError("phase specification must match the mode count")
    occ = occupation_array(psi.cutoff, psi.modes).astype(float)
    phi = np.zeros(len(psi.amps))
    for exps, g in spec.terms.items():
        term = np.full(len(psi.amps), g)
        for mode, e in enumerate(exps):
            term *= occ[:, mode] ** e
        phi += term
    return FockVector(cutoff=psi.cutoff, modes=psi.modes,
                      amps=psi.amps * np.exp(-1j * spec.t * phi))


def kerr_cat_reference(alpha: complex, n_max: int) -> FockVector:
    """Coherent state evolved under the pure n^2 phase at the cat point.

    Applies exp(-i (pi/2) n^2) to |alpha>, i.e. the quadratic Kerr phase
    evaluated at K t = pi/2.
    """
    n = np.arange(n_max + 1)
    amps = coherent_coefficients(alpha, n_max) * np.exp(-0.5j * math.pi * n ** 2)
    return FockVector(cutoff=n_max, modes=1, amps=amps)


def cat_state_target(alpha: complex, n_max: int) -> FockVector:
    """The balanced superposition (e^{-i pi/4}|alpha> + e^{i pi/4}|-alpha>)/sqrt(2)."""
    plus = coherent_coefficients(alpha, n_max)
    minus = coherent_coefficients(-alpha, n_max)
    amps = (np.exp(-0.25j * math.pi) * plus + np.exp(0.25j * math.pi) * minus) / math.sqrt(2)
    return FockVector(cutoff=n_max, modes=1, amps=amps)


def _evolve_hermitian(hb: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """exp(-i hb) @ vec for Hermitian hb, by one eigensolve."""
    ev, w = np.linalg.eigh(hb)
    return w @ (np.exp(-1j * ev) * (w.conj().T @ vec))


def _mode_generator(u: Interferometer) -> np.ndarray:
    """Hermitian h with exp(-i h) = u, from one general eigensolve of u.

    Eigenvectors are re-orthonormalized by QR, so repeated eigenvalues
    still give a unitary eigenbasis.  Each eigenvalue contributes minus
    its angle, in [-pi, pi]: the branch of the principal matrix logarithm,
    h = i logm(u).  On an eigenvalue -1 the sign of its rounded imaginary
    part picks +-pi, as in the logarithm, which matters only for the
    clipped blocks of interferometer_fock.
    """
    w, v = np.linalg.eig(u.u)
    q, _ = np.linalg.qr(v)
    h = (q * -np.angle(w)) @ q.conj().T
    return 0.5 * (h + h.conj().T)


class _Sectors(NamedTuple):
    """Fixed-total-photon blocks of the (n_max+1)^m grid, read-only.

    order lists the flat indices grouped by total n (index order inside a
    block), block n being order[starts[n]:starts[n+1]]; occ holds their
    occupations as floats.  The hops of block n, hop_starts[n] to
    hop_starts[n+1], carry a photon from mode k to mode j: local row and
    column inside the block, the pair (j, k), and sqrt(z_k (z_j + 1)).
    Hops that would push a mode past n_max are absent, which is what
    clips a block.
    """

    order: np.ndarray
    starts: np.ndarray
    occ: np.ndarray
    hop_starts: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    js: np.ndarray
    ks: np.ndarray
    factors: np.ndarray


@functools.lru_cache(maxsize=8)
def _sectors(n_max: int, m: int) -> _Sectors:
    occ = occupation_array(n_max, m)
    totals = occ.sum(axis=1)
    blocks = np.arange(m * n_max + 2)
    order = np.argsort(totals, kind="stable")
    starts = np.searchsorted(totals[order], blocks)
    local = np.empty(len(occ), dtype=np.int64)
    local[order] = np.arange(len(occ)) - starts[totals[order]]
    j_of, k_of = np.nonzero(~np.eye(m, dtype=bool))
    movable = (occ[:, k_of] > 0) & (occ[:, j_of] < n_max)
    src, pair = np.nonzero(movable)
    js, ks = j_of[pair], k_of[pair]
    place = (n_max + 1) ** np.arange(m - 1, -1, -1)
    tgt = src + place[js] - place[ks]
    factors = np.sqrt(occ[src, ks] * (occ[src, js] + 1.0))
    by_block = np.argsort(totals[src], kind="stable")
    hop_starts = np.searchsorted(totals[src][by_block], blocks)
    sectors = _Sectors(order=order, starts=starts, occ=occ[order].astype(float),
                       hop_starts=hop_starts, rows=local[tgt][by_block],
                       cols=local[src][by_block], js=js[by_block], ks=ks[by_block],
                       factors=factors[by_block])
    for arr in sectors:
        arr.flags.writeable = False
    return sectors


def interferometer_fock(u: Interferometer, psi: FockVector) -> FockVector:
    """Apply a passive m-mode unitary in the number basis.

    Lifts u = exp(-i h) (h from _mode_generator) to the quadratic
    Hamiltonian H = sum_jk h_jk a_j^dag a_k and applies exp(-i H_n) to
    each fixed-total-photon block, one Hermitian eigensolve per block.  It
    is the one number-basis interferometer, for every m and every unitary;
    a two-mode beamsplitter exp(theta (a^dag b - a b^dag)) is the matrix
    [[cos theta, sin theta], [-sin theta, cos theta]].  Blocks clipped by
    the per-mode cutoff stay unitary but only approximate the untruncated
    action near the edge.
    """
    m = psi.modes
    if u.modes != m:
        raise ValueError("interferometer size must match the mode count")
    h = _mode_generator(u)
    s = _sectors(psi.cutoff, m)
    diag = s.occ @ h.diagonal().real
    hops = h[s.js, s.ks] * s.factors
    grouped = psi.amps[s.order]
    for n in range(len(s.starts) - 1):
        a, b = s.starts[n], s.starts[n + 1]
        hb = np.diag(diag[a:b].astype(complex))
        sl = slice(s.hop_starts[n], s.hop_starts[n + 1])
        hb[s.rows[sl], s.cols[sl]] = hops[sl]
        grouped[a:b] = _evolve_hermitian(hb, grouped[a:b])
    amps = np.empty_like(grouped)
    amps[s.order] = grouped
    return FockVector(cutoff=psi.cutoff, modes=m, amps=amps)
