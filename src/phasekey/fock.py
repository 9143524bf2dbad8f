"""Truncated Fock-space linear algebra for multimode coherent states.

Everything works in the photon-number basis with a per-mode cap n_max.
Multimode amplitudes are flat arrays indexed lexicographically by
occupation tuple (z_1, ..., z_m) with z_1 most significant, which is
exactly the index order produced by chained Kronecker products of
single-mode vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_TRUNCATION_EPS = 1e-10
HARD_CUTOFF_CAP = 4096


class CapacityError(Exception):
    """A requested computation exceeds the configured size caps."""


def coherent_coefficients(alpha: complex, n_max: int) -> np.ndarray:
    """Number-basis coefficients b_n = e^{-|alpha|^2/2} alpha^n / sqrt(n!).

    Computed by the recurrence b_{n+1} = b_n * alpha / sqrt(n+1), which
    stays finite where the factorial form would overflow past n ~ 170.
    Raises CapacityError where the start e^{-|alpha|^2/2} underflows to 0
    (|alpha|^2 above ~1490), which would give an all-zero state.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    alpha = complex(alpha)
    b = np.empty(n_max + 1, dtype=complex)
    b[0] = math.exp(-abs(alpha) ** 2 / 2.0)
    if b[0] == 0.0:
        raise CapacityError(f"e^(-|alpha|^2/2) underflows to 0 at |alpha| = {abs(alpha):g}")
    for n in range(n_max):
        b[n + 1] = b[n] * alpha / math.sqrt(n + 1)
    return b


def poisson_terms(E: float, eps: float = DEFAULT_TRUNCATION_EPS,
                  hard_cap: int = HARD_CUTOFF_CAP) -> np.ndarray:
    """Poisson(E) probabilities e^{-E} E^t / t! for t = 0..n, n the cutoff.

    n is the smallest count whose tail mass beyond n is below eps.  The
    terms come from the recurrence p_t = p_{t-1} E / t started at e^{-E};
    every closed form sums these same terms.  Raises CapacityError when n
    would exceed hard_cap.
    """
    E = float(E)
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if E < 0.0:
        raise ValueError("total energy must be nonnegative")
    if E == 0.0:
        return np.ones(1)
    # Collect probability terms until they are far below eps and past the
    # distribution mode, then form tails by summing small terms first so
    # the tail values carry no cancellation error.
    terms = [math.exp(-E)]
    t = 0
    while terms[-1] >= eps * 1e-6 or t < 2.0 * E + 4.0:
        t += 1
        terms.append(terms[-1] * E / t)
        if t > 2 * hard_cap + 64:
            raise CapacityError(
                f"cutoff for tail {eps:g} at energy {E:g} exceeds the cap {hard_cap}")
    terms = np.asarray(terms)
    # tails[n] = P(total >= n); the mass beyond n is tails[n + 1]
    tails = np.cumsum(terms[::-1])[::-1]
    below = np.flatnonzero(tails[1:] < eps)
    if len(below) == 0 or below[0] > hard_cap:
        raise CapacityError(
            f"cutoff for tail {eps:g} at energy {E:g} exceeds the cap {hard_cap}")
    return terms[:below[0] + 1]


def truncation_bound(abs_alpha_sq_total: float, eps: float = DEFAULT_TRUNCATION_EPS,
                     hard_cap: int = HARD_CUTOFF_CAP) -> int:
    """Smallest n_max whose Poisson(E) tail mass beyond n_max is below eps.

    E is the total mean photon number of the computation (m|alpha|^2 for
    codewords); the total photon number of a multimode coherent state is
    Poisson(E), so a joint cutoff at n_max discards less than eps of the
    state's mass.  This is the last index of poisson_terms(E, eps), with
    its ValueError and CapacityError cases, and a CapacityError where the
    start e^{-E} underflows to 0 (E above ~745), which would give cutoff 0.
    """
    terms = poisson_terms(abs_alpha_sq_total, eps, hard_cap)
    if terms[0] == 0.0:
        raise CapacityError(f"e^-E underflows to 0 at energy {abs_alpha_sq_total:g}")
    return len(terms) - 1


def occupation_array(n_max: int, modes: int) -> np.ndarray:
    """All occupation tuples as an integer array of shape (dim, modes).

    Row order is lexicographic with the first mode most significant; this
    is the documented index order of every flat multimode array in the
    package.
    """
    grids = np.indices((n_max + 1,) * modes)
    return grids.reshape(modes, (n_max + 1) ** modes).T


def total_photon_numbers(n_max: int, modes: int) -> np.ndarray:
    """Total photon number of each occupation tuple, in index order."""
    return occupation_array(n_max, modes).sum(axis=1)


@dataclass(frozen=True, eq=False)
class FockVector:
    """A pure state on `modes` optical modes, truncated at photon cap `cutoff`.

    amps holds the (cutoff+1)^modes complex amplitudes in the lexicographic
    occupation-tuple order of occupation_array.
    """

    cutoff: int
    modes: int
    amps: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex)
        object.__setattr__(self, "amps", amps)
        expected = (self.cutoff + 1) ** self.modes
        if amps.shape != (expected,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, expected ({expected},)")

    def squared_norm(self) -> float:
        return float(np.vdot(self.amps, self.amps).real)


def coherent_fock(amps: "np.ndarray | list | tuple", n_max: int) -> FockVector:
    """Tensor product of coherent states with the given mode amplitudes."""
    amps = np.atleast_1d(np.asarray(amps, dtype=complex))
    vec = np.array([1.0 + 0.0j])
    for a in amps:
        vec = np.kron(vec, coherent_coefficients(a, n_max))
    return FockVector(cutoff=n_max, modes=len(amps), amps=vec)


def overlap(u: FockVector, v: FockVector) -> complex:
    """Hermitian inner product <u|v>."""
    if u.cutoff != v.cutoff or u.modes != v.modes:
        raise ValueError("overlap requires matching cutoffs and mode counts")
    return complex(np.vdot(u.amps, v.amps))


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian operator on the truncated Fock space, stored dense."""

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=complex)
        object.__setattr__(self, "entries", entries)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("entries must be a square matrix")
        if np.abs(entries - entries.conj().T).max() > 1e-12:
            raise ValueError("entries are not Hermitian within 1e-12")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def validate(self, expected_trace: float = 1.0) -> None:
        """Check trace and spectrum against the density-operator contract."""
        tr = np.trace(self.entries).real
        if abs(tr - expected_trace) > 1e-9:
            raise ValueError(f"trace {tr!r} differs from {expected_trace!r} by more than 1e-9")
        lo = np.linalg.eigvalsh(self.entries).min()
        if lo < -1e-10:
            raise ValueError(f"negative eigenvalue {lo!r} below the -1e-10 floor")


def density_from_fock(psi: FockVector) -> DensityOperator:
    """Rank-one density operator |psi><psi|."""
    return DensityOperator(np.outer(psi.amps, psi.amps.conj()))


def trace_distance_numeric(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Trace distance (1/2)||rho - sigma||_1 by Hermitian eigensolve.

    eigvalsh is deterministic for identical input bits, which keeps
    regression values stable.
    """
    if rho.dim != sigma.dim:
        raise ValueError("trace distance requires equal dimensions")
    lam = np.linalg.eigvalsh(rho.entries - sigma.entries)
    return 0.5 * float(np.abs(lam).sum())
