"""Truncated Fock-space linear algebra for multimode coherent states.

Everything works in the photon-number basis with a per-mode cap n_max.
Multimode amplitudes are flat arrays indexed lexicographically by
occupation tuple (z_1, ..., z_m) with z_1 most significant, which is
exactly the index order produced by chained Kronecker products of
single-mode vectors.  This module alone knows that layout: one cached,
read-only index per grid behind occupation_array and total_photon_numbers,
grid_size and block_entries for its sizes without a huge power,
sector_tables for its fixed-total blocks, mode_overlap_norms for per-mode
contractions, tile_pairs for the tiles dense operators are checked in,
and mean_photon_number for the energy m|alpha|^2 that sets its cutoff
(inf where a double overflows).
"""

from __future__ import annotations

import bisect
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

DEFAULT_TRUNCATION_EPS = 1e-10
HARD_CUTOFF_CAP = 4096
_LN_MIN_NORMAL = math.log(sys.float_info.min)
_TOO_LONG = "cutoff for tail {:g} at energy {:g} exceeds the cap {}"

# Most series poisson_terms keeps: above the 101 energies of a golden sweep's
# alpha grid, so a sweep over several w finds each energy still held.
_SERIES_CACHE_SIZE = 256

# Most that dropping the off-sector part of an operator may move half its
# trace norm in a sector-wise eigensolve.
SECTOR_LEAK_TOL = 1e-12

# Rows and columns of one tile of a dense operator's Hermitian check: the
# check holds a 256 kB tile at a time, never a full-size difference.  The
# sector-wise eigensolve sums its off-sector leak over slices of _TILE rows.
_TILE = 128


class CapacityError(Exception):
    """A requested computation exceeds the configured size caps."""


def mean_photon_number(abs_alpha: float, modes: int) -> float:
    """modes * abs_alpha ** 2 (m|alpha|^2), bit for bit; inf, with no warning, past a double."""
    try:
        return modes * abs_alpha ** 2
    except OverflowError:  # the float power raises past |alpha| ~ 1.34e154
        return math.inf


def _poisson_start(E: float, root: int = 1):
    """(t, v): the first t where v, the root-th root of e^{-E} E^t / t!, is a normal double.

    t = 0 with v = math.exp(-E / root), bit for bit, while that is normal
    (E up to root * 708.4); past it, t is bisected below the mode floor(E).
    """
    if E <= -root * _LN_MIN_NORMAL:
        return 0, math.exp(-E / root)

    def term(t):
        return math.exp((t * math.log(E) - E - math.lgamma(t + 1)) / root)
    below_mode = range(min(math.floor(E), sys.maxsize))  # bisect needs an index-sized length
    t = bisect.bisect_left(below_mode, sys.float_info.min, key=term)
    return t, term(t)


def coherent_coefficients(alpha: complex, n_max: int) -> np.ndarray:
    """Number-basis coefficients b_n = e^{-|alpha|^2/2} alpha^n / sqrt(n!).

    Computed by the recurrence b_{n+1} = b_n * alpha / sqrt(n+1), which
    stays finite where the factorial form would overflow past n ~ 170.  It
    starts at the first normal |b_n| (n = 0 for |alpha|^2 up to ~1417) times
    the phase of alpha^n; the entries below, all if n > n_max, stay 0.
    Raises CapacityError when |alpha|^2 overflows a double.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    alpha = complex(alpha)
    if not np.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    E = mean_photon_number(abs(alpha), 1)
    if E == math.inf:  # before _poisson_start, whose floor(E) would overflow too
        raise CapacityError(_TOO_LONG.format(DEFAULT_TRUNCATION_EPS, E, HARD_CUTOFF_CAP))
    b = np.zeros(n_max + 1, dtype=complex)
    start, mag = _poisson_start(E, root=2)
    b[start:start + 1] = mag * (alpha / abs(alpha)) ** start if start else mag
    for n in range(start, n_max):
        b[n + 1] = b[n] * alpha / math.sqrt(n + 1)
    return b


def poisson_terms(E: float, eps: float = DEFAULT_TRUNCATION_EPS,
                  hard_cap: int = HARD_CUTOFF_CAP) -> np.ndarray:
    """Poisson(E) probabilities e^{-E} E^t / t! for t = 0..n, n the cutoff.

    n is the smallest count whose tail mass beyond n is below eps.  The
    terms follow p_t = p_{t-1} E / t from the first normal one, until the
    first t > E whose term is below eps * 1e-6.  Up to E ~ 708.4 that is
    e^{-E} at t = 0 and a scalar loop, (p E) / t left to right, which keeps
    the bits the goldens pin; its steps up to t = floor(E) + 1 never stop,
    so only the tail tests the stop rule.  Past that, no golden pins them,
    and a loop of thousands of steps would cost most of a sweep row: the
    terms are one np.cumprod of E / t seeded with the first normal term
    (same cutoff as the loop, terms within 1e-12 relative), the terms below
    the start are 0 and the kept ones are divided by their sum, which
    rounding in the log-form start would lift above 1.  The product runs
    over t up to E + 12 sqrt(E) + 64, where the rule stops it for every
    eps down to about 1e-25, and over the cap's whole window only if the
    rule does not fire there; being sequential, it gives the same bits
    either way.  Raises CapacityError when n would exceed hard_cap.

    Each series is computed once per process: the result is memoized, for
    the last _SERIES_CACHE_SIZE (E, eps, hard_cap), and returned read-only
    so no caller can change another's.  Errors are not memoized.
    """
    return _poisson_terms(float(E), float(eps), int(hard_cap))


@functools.lru_cache(maxsize=_SERIES_CACHE_SIZE)
def _poisson_terms(E: float, eps: float, hard_cap: int) -> np.ndarray:
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if not E >= 0.0:  # NaN too
        raise ValueError(f"total energy must be nonnegative, got {E!r}")
    limit = 2 * hard_cap + 64
    if not E <= limit:  # inf too: the loop below would pass the limit before the mode
        raise CapacityError(_TOO_LONG.format(eps, E, hard_cap))
    # Collect probability terms until they are far below eps and past the
    # distribution mode, then form tails by summing small terms first so
    # the tail values carry no cancellation error.
    start, x = _poisson_start(E)
    if start:
        # one cumulative product, cut where the loop below would stop: the
        # first t > E whose term is below eps * 1e-6.  The product runs in
        # order, so a window sized from E holds the first terms of the full
        # one, bit for bit; the full window is taken only when it misses
        for end in (min(math.ceil(E + 12.0 * math.sqrt(E)) + 64, limit + 1), limit + 1):
            t = np.arange(start + 1, end + 1)
            terms = np.cumprod(np.concatenate(([x], E / t)))
            stops = np.flatnonzero((terms[1:] < eps * 1e-6) & (t > E))
            if len(stops):
                break
        t = int(t[stops[0]]) if len(stops) else limit + 1
        terms = terms[:t - start + 1]
    else:
        # the goldens pin these bits: x E / t, left to right, from e^{-E};
        # every step up to t = floor(E) + 1 is taken, so only the tail
        # tests the stop rule
        t = math.floor(E) + 1
        terms = [x] + [x := x * E / s for s in range(1, t + 1)]
        while x >= eps * 1e-6 and t <= limit:
            t += 1
            x = x * E / t
            terms.append(x)
        terms = np.asarray(terms)
    # tails[j] = P(total >= start + j); the mass beyond start + j is tails[j + 1]
    tails = np.cumsum(terms[::-1])[::-1]
    below = np.flatnonzero(tails[1:] < eps)
    if t > limit or len(below) == 0 or start + below[0] > hard_cap:
        raise CapacityError(_TOO_LONG.format(eps, E, hard_cap))
    kept = terms[:below[0] + 1]
    # a copy, not a view: the cache should hold no writable base or unkept terms
    kept = np.concatenate((np.zeros(start), kept / kept.sum())) if start else kept.copy()
    kept.flags.writeable = False
    return kept


def truncation_bound(abs_alpha_sq_total: float, eps: float = DEFAULT_TRUNCATION_EPS,
                     hard_cap: int = HARD_CUTOFF_CAP) -> int:
    """Smallest n_max whose Poisson(E) tail mass beyond n_max is below eps.

    E is the total mean photon number of the computation (m|alpha|^2 for
    codewords); the total photon number of a multimode coherent state is
    Poisson(E), so a joint cutoff at n_max discards less than eps of the
    state's mass.  This is the last index of poisson_terms(E, eps), with
    its ValueError and CapacityError cases.
    """
    return len(poisson_terms(abs_alpha_sq_total, eps, hard_cap)) - 1


@functools.lru_cache(maxsize=8)
def _grid(n_max: int, modes: int):
    """(occupations, totals) of the grid, read-only: row i and total of flat index i."""
    if n_max < 0 or modes < 1:
        raise ValueError(f"a grid needs n_max >= 0 and modes >= 1, got {n_max} and {modes}")
    occ = np.indices((n_max + 1,) * modes).reshape(modes, -1).T
    totals = occ.sum(axis=1)
    occ.flags.writeable = totals.flags.writeable = False
    return occ, totals


def occupation_array(n_max: int, modes: int) -> np.ndarray:
    """All occupation tuples as a read-only integer array of shape (dim, modes)."""
    return _grid(n_max, modes)[0]


def total_photon_numbers(n_max: int, modes: int) -> np.ndarray:
    """Total photon number of each occupation tuple, in index order, read-only."""
    return _grid(n_max, modes)[1]


def grid_size(n_max: int, modes: int, cap: int) -> int:
    """min((n_max+1)^modes, cap + 1), in at most cap.bit_length() + 1 products."""
    if n_max < 0 or modes < 1:
        raise ValueError(f"a grid needs n_max >= 0 and modes >= 1, got {n_max} and {modes}")
    size = 1
    for _ in range(modes if n_max else 0):
        size *= n_max + 1
        if size > cap:
            return cap + 1
    return size


def sector_sizes(n_max: int, modes: int) -> np.ndarray:
    """Occupation tuples per total 0..modes*n_max, the coefficients of (1+x+...+x^n_max)^modes."""
    sizes = np.ones(1, dtype=np.int64)
    for _ in range(modes):
        sizes = np.convolve(sizes, np.ones(n_max + 1, dtype=np.int64))
    return sizes


def block_entries(n_max: int, modes: int, cap: int) -> int:
    """min(sum_n d_n^2, cap + 1) over the grid's block sizes d_n = sector_sizes(n_max, modes)."""
    size = grid_size(n_max, modes, cap)  # entries >= amplitudes: sum only a grid within the cap
    if n_max and size <= cap:
        size = min(int(np.sum(sector_sizes(n_max, modes) ** 2)), cap + 1)
    return size


@functools.lru_cache(maxsize=8)
def sector_tables(n_max: int, modes: int):
    """(order, starts, roots, down, peel): the grid's fixed-total blocks, read-only.

    order lists the flat indices grouped by total n (index order inside a
    block), block n being order[starts[n]:starts[n+1]].  Row i of roots
    holds sqrt(z_j) for the i-th occupation z in that order; down[i, j] is
    the local index of z - e_j inside block n - 1 (0 where z_j = 0, which
    roots zeroes out) and peel[i] the most occupied mode of z, the first
    of them on a tie.  Removing a photon never leaves the grid, so every
    block reaches the one below.  Built once per grid, on first use.
    """
    occ, totals = _grid(n_max, modes)
    order = np.argsort(totals, kind="stable")
    starts = np.searchsorted(totals[order], np.arange(modes * n_max + 2))
    local = np.empty(len(occ), dtype=np.int64)
    local[order] = np.arange(len(occ)) - starts[totals[order]]
    occ = occ[order]
    # flat index of z - e_j is that of z less the place value of mode j
    place = (n_max + 1) ** np.arange(modes - 1, -1, -1)
    down = np.where(occ > 0, local[np.maximum(order[:, None] - place, 0)], 0)
    tables = (order, starts, np.sqrt(occ), down, np.argmax(occ, axis=1))
    for arr in tables:
        arr.flags.writeable = False
    return tables


def tile_pairs(dim: int):
    """(rows, cols) slice pairs covering the upper triangle of a dim x dim matrix by tiles.

    Tiles of _TILE indices, row tile before column tile; the diagonal
    pairs have rows == cols, and every other entry lies in exactly one
    pair's tile or its mirror (cols, rows).
    """
    tiles = [slice(lo, min(lo + _TILE, dim)) for lo in range(0, dim, _TILE)]
    return [(rows, cols) for i, rows in enumerate(tiles) for cols in tiles[i:]]


@dataclass(frozen=True, eq=False)
class FockVector:
    """A pure state on `modes` optical modes, truncated at photon cap `cutoff`.

    amps holds the (cutoff+1)^modes complex amplitudes in the lexicographic
    occupation-tuple order of occupation_array, as a read-only copy of the
    values given, so a later write to the caller's array cannot change the
    state (or a wire body already encoded from it).
    """

    cutoff: int
    modes: int
    amps: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amps, dtype=complex)
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)
        # grid_size also rejects cutoff < 0 and modes < 1
        if amps.ndim != 1 or grid_size(self.cutoff, self.modes, len(amps)) != len(amps):
            raise ValueError(f"amplitude vector has shape {amps.shape}, expected "
                             f"(cutoff+1)^m = {self.cutoff + 1}^{self.modes} entries")

    def squared_norm(self) -> float:
        return float(np.vdot(self.amps, self.amps).real)


def coherent_fock(amps: "np.ndarray | list | tuple", n_max: int) -> FockVector:
    """Tensor product of coherent states with the given mode amplitudes."""
    amps = np.atleast_1d(np.asarray(amps, dtype=complex))
    vec = np.array([1.0 + 0.0j])
    for a in amps:
        vec = np.kron(vec, coherent_coefficients(a, n_max))
    return FockVector(cutoff=n_max, modes=len(amps), amps=vec)


def mode_overlap_norms(psi: FockVector, single: np.ndarray) -> np.ndarray:
    """||<single|_j psi|| for each mode j, single holding one mode's cutoff+1 coefficients."""
    tensor = psi.amps.reshape((psi.cutoff + 1,) * psi.modes)
    return np.array([np.linalg.norm(np.tensordot(single.conj(), tensor, axes=([0], [mode])))
                     for mode in range(psi.modes)])


def overlap(u: FockVector, v: FockVector) -> complex:
    """Hermitian inner product <u|v>."""
    if u.cutoff != v.cutoff or u.modes != v.modes:
        raise ValueError("overlap requires matching cutoffs and mode counts")
    return complex(np.vdot(u.amps, v.amps))


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Finite Hermitian operator on the truncated Fock space, stored dense.

    The Hermitian check compares each tile with its mirror (tile_pairs),
    so it forms no full-size difference; every entry still meets the 1e-12
    rule, and a NaN or inf anywhere still fails it.

    sectors holds one integer label per basis state (default all zeros,
    one sector).  Eigensolves treat the operator as block diagonal over
    equal labels and check that what lies outside those blocks is
    negligible (see SECTOR_LEAK_TOL), so a label states structure the
    entries are verified to have, never an assumption.
    """

    entries: np.ndarray
    sectors: np.ndarray | None = None

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=complex)
        object.__setattr__(self, "entries", entries)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1] or not len(entries):
            raise ValueError("entries must be a nonempty square matrix")
        # a NaN or inf entry makes its deviation NaN or inf, which fails the
        # check too; |E - E^H| is the same at (i, j) and (j, i), so the tile
        # pairs of the upper triangle cover every entry
        with np.errstate(invalid="ignore", over="ignore"):
            for rows, cols in tile_pairs(len(entries)):
                diff = np.conj(entries[cols, rows].T, order="C")
                np.subtract(entries[rows, cols], diff, out=diff)
                if not np.abs(diff).max() <= 1e-12:  # a NaN fails; max(0.0, nan) would not
                    raise ValueError("entries are not finite and Hermitian within 1e-12")
        sectors = (np.zeros(len(entries), dtype=np.int64) if self.sectors is None
                   else np.asarray(self.sectors))
        if sectors.shape != (len(entries),) or sectors.dtype.kind not in "iu":
            raise ValueError(f"sectors must be {len(entries)} integer labels, "
                             f"got shape {sectors.shape} of {sectors.dtype}")
        object.__setattr__(self, "sectors", sectors)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def validate(self, expected_trace: float = 1.0) -> None:
        """Check trace and spectrum against the density-operator contract."""
        tr = np.trace(self.entries).real
        if abs(tr - expected_trace) > 1e-9:
            raise ValueError(f"trace {tr!r} differs from {expected_trace!r} by more than 1e-9")
        lo = _sector_eigvalsh(self.entries, self.sectors).min()
        if lo < -1e-10:
            raise ValueError(f"negative eigenvalue {lo!r} below the -1e-10 floor")


def _sector_eigvalsh(mat: np.ndarray, sectors: np.ndarray,
                     minus: np.ndarray | None = None) -> np.ndarray:
    """Eigenvalues of the diagonal blocks of Hermitian mat - minus over equal sector labels.

    minus defaults to zero.  Each sector's block is one gather from each
    matrix, mat[ix] - minus[ix] with ix = np.ix_(idx, idx): the bits of
    (mat - minus)[ix], without forming the whole difference.  Raises
    ValueError unless the dropped off-block part E of mat - minus obeys
    (1/2) sqrt(dim) ||E||_F <= SECTOR_LEAK_TOL.  Since ||E||_1 <= sqrt(dim)
    ||E||_F, half the summed |eigenvalues| is then within SECTOR_LEAK_TOL of
    the full eigensolve's, and (Weyl) every eigenvalue moves by at most
    ||E||_2 <= ||E||_F.  ||E||_F^2 is summed over contiguous slices of _TILE
    rows of mat - minus, formed one at a time in one buffer with their
    same-sector entries zeroed; with one sector there is no E.
    """
    order = np.argsort(sectors, kind="stable")
    lams = []
    for idx in np.split(order, np.flatnonzero(np.diff(sectors[order])) + 1):
        ix = np.ix_(idx, idx)
        lams.append(np.linalg.eigvalsh(mat[ix] if minus is None else mat[ix] - minus[ix]))
    leak = 0.0
    if len(lams) > 1:
        buf = np.empty((min(_TILE, len(mat)), len(mat)), dtype=complex)
        for lo in range(0, len(mat), _TILE):
            rows = slice(lo, lo + _TILE)
            off = np.subtract(mat[rows], 0.0 if minus is None else minus[rows],
                              out=buf[:len(mat) - lo])
            np.putmask(off, sectors[rows, None] == sectors, 0.0)
            leak += float(np.vdot(off, off).real)
    bound = 0.5 * math.sqrt(len(mat) * leak)
    if not bound <= SECTOR_LEAK_TOL:  # a NaN leak fails too
        raise ValueError(f"operator is not block diagonal over its sectors: off-sector "
                         f"part moves the trace norm by up to {bound:.3e} > {SECTOR_LEAK_TOL:g}")
    return np.concatenate(lams)


def density_from_fock(psi: FockVector) -> DensityOperator:
    """Rank-one density operator |psi><psi|."""
    return DensityOperator(np.outer(psi.amps, psi.amps.conj()))


def trace_distance_numeric(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Trace distance (1/2)||rho - sigma||_1 by Hermitian eigensolves, one per sector.

    When rho and sigma carry equal sector labels, each sector's diagonal
    block of rho - sigma is eigensolved on its own and |eigenvalues| are
    summed over the blocks; otherwise the whole difference is one sector.
    The off-sector part is checked, not assumed, to move the result by at
    most SECTOR_LEAK_TOL (ValueError beyond).  rho - sigma is never formed
    whole: each sector's block is gathered from both and subtracted on its
    own, with the same bits, so the blocks, eigenvalues and distance are
    those of the whole difference.  eigvalsh is deterministic for identical
    input bits, which keeps regression values stable.
    """
    if rho.dim != sigma.dim:
        raise ValueError("trace distance requires equal dimensions")
    sectors = (rho.sectors if np.array_equal(rho.sectors, sigma.sectors)
               else np.zeros(rho.dim, dtype=np.int64))
    lam = _sector_eigvalsh(rho.entries, sectors, minus=sigma.entries)
    return 0.5 * float(np.abs(lam).sum())
