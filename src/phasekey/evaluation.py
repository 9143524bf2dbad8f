"""Homomorphically allowed operations: passive linear optics and nonlinear phases.

Interferometers act on coherent codewords as a plain m x m matrix product
on the mode amplitudes.  Nonlinear phase gates are diagonal in the number
basis, multiplying the coefficient of |z> by exp(-i t sum_terms g prod_k
z_k^{n_k}); they require the Fock representation.  Both families conserve
total photon number, which is why they commute with the encryption
rotation and can run on ciphertexts.

In the number basis an interferometer acts one fixed-total-photon block
at a time, on the layout and sector tables that fock defines; each block
is built from u by the one-photon recursion, so its elements are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .encoding import AmplitudeVector
from .fock import FockVector, as_int, coherent_coefficients, occupation_array, sector_tables

UNITARITY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Interferometer:
    """Passive linear-optical element: an m x m unitary on mode amplitudes.

    u is a read-only copy of the matrix given, so a later write to the
    caller's array cannot undo the unitarity check.
    """

    u: np.ndarray

    def __post_init__(self):
        u = np.array(self.u, dtype=complex)
        u.flags.writeable = False
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
            exps = tuple(as_int("exponent", e) for e in exps)
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
    m = as_int("m", m, least=1)
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return Interferometer(q * (diag / np.abs(diag)))


def nonlinear_phase_evolve(spec: NonlinearPhaseSpec, psi: FockVector) -> FockVector:
    """Apply the diagonal phases exp(-i t phi(z)) to every amplitude.

    Phases are accumulated in double precision; 0^0 counts as 1 so a term
    ignoring a mode leaves that mode's vacuum component untouched.  A
    phase t phi(z) that is not a finite double at some kept occupation
    raises ValueError before any exponential is taken.
    """
    if spec.modes != psi.modes:
        raise ValueError("phase specification must match the mode count")
    occ = occupation_array(psi.cutoff, psi.modes).astype(float)
    phi = np.zeros(len(psi.amps))
    # an overflow anywhere leaves a non-finite phase, which the check names
    with np.errstate(over="ignore", invalid="ignore"):
        for exps, g in spec.terms.items():
            term = np.full(len(psi.amps), g)
            for mode, e in enumerate(exps):
                term *= occ[:, mode] ** e
            phi += term
        finite = np.isfinite(spec.t * phi).all()
    if not finite:
        raise ValueError(f"nonlinear phase t * phi(z) overflows a double on the grid "
                         f"of cutoff {psi.cutoff}")
    return replace(psi, amps=psi.amps * np.exp(-1j * spec.t * phi))


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


def interferometer_fock(u: Interferometer, psi: FockVector) -> FockVector:
    """Apply a passive m-mode unitary in the number basis.

    Builds each fixed-total-photon block of the lifted unitary from u
    alone, block n from block n - 1 by the one-photon recursion
    <z'|U|z> = z_k^{-1/2} sum_j u_jk sqrt(z'_j) <z' - e_j|U|z - e_k>
    (Miatto & Quesada, arXiv:2004.11002), so the elements are those of the
    permanent formula perm(u[z', z]) / sqrt(z'! z!), with no eigensolve.
    Any occupied mode k of z gives them; peeling the most occupied one
    keeps the rounding small (at m = 2 near 1e-13 up to total 200, where
    peeling the first occupied mode is already 2e-3 off at total 100).

    It is the one number-basis interferometer, for every m and every
    unitary; a two-mode beamsplitter exp(theta (a^dag b - a b^dag)) is the
    matrix [[cos theta, sin theta], [-sin theta, cos theta]].  The grid
    holds every block whole, so the lift is exact there and keeps the norm.
    """
    return _lift_interferometer(u, [psi])[0]


def _lift_interferometer(u: Interferometer, states: list) -> list:
    """interferometer_fock on every state of one grid, each block built once.

    Block n (sector n of fock.sector_tables) is built from block n - 1 and
    applied to each state before the next is built, so one block is held at
    a time and each result has the bits of interferometer_fock on it alone.
    """
    cutoff, m = states[0].cutoff, states[0].modes
    if u.modes != m:
        raise ValueError("interferometer size must match the mode count")
    starts, all_roots, all_down, all_peel = sector_tables(cutoff, m)
    amps = np.array([s.amps for s in states])
    block = np.ones((1, 1), dtype=complex)
    for a, b in zip(starts[1:-1], starts[2:]):
        roots, down, peel = all_roots[a:b], all_down[a:b], all_peel[a:b]
        cols = np.arange(b - a)
        prev = block[:, down[cols, peel]]
        block = sum(roots[:, j, None] * prev[down[:, j]] * u.u[j, peel]
                    for j in range(m)) / roots[cols, peel]
        for row in amps:
            row[a:b] = block @ row[a:b]
    return [replace(s, amps=row) for s, row in zip(states, amps)]
