"""Truncated Fock-space linear algebra for multimode coherent states.

The photon-number basis is cut on the total: the grid of cutoff n_max on
m modes holds the C(n_max+m, m) occupations z with z_1 + ... + z_m <=
n_max, ordered by total, then lexicographically with z_1 most significant,
so sector n (total n) is one slice and one mode is 0..n_max, and the grid
of a smaller cutoff is a prefix of it.  Only this module knows that
layout: one grid is held per mode count, at the largest cutoff asked, and
occupation_array and total_photon_numbers read read-only prefix views of
it; grid_size and block_entries size a grid without a huge binomial, one
cached builder gives sector_tables its fixed-total blocks and
mode_overlap_norms its per-mode contractions; mean_photon_number
(inf past a double) and distance_cutoff give its cutoff.  poisson_terms
gives the Poisson(E) series behind every cutoff and closed form.  as_int
is the package's one rule for counts: a grid's n_max and modes pass it
before any grid cache sees them.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

DEFAULT_TRUNCATION_EPS = 1e-10
HARD_CUTOFF_CAP = 4096
_LN_MIN_NORMAL = math.log(sys.float_info.min)
_TOO_LONG = "cutoff for tail {:g} at energy {:g} exceeds the cap {}"

# Most series poisson_terms keeps: above the 101 energies of a golden sweep's
# alpha grid, so commands that share an alpha grid in one process (the
# enc_distance and ratio goldens) find each energy still held, and the
# cross-checks build each energy they repeat once.
_SERIES_CACHE_SIZE = 256

# Most that dropping the off-sector part of an operator may move half its
# trace norm in a sector-wise eigensolve.
SECTOR_LEAK_TOL = 1e-12

# Rows and columns of one tile of a dense operator's Hermitian check: the
# check holds a 256 kB tile at a time, never a full-size difference.
_TILE = 128


class CapacityError(Exception):
    """A requested computation exceeds the configured size caps."""


def as_int(name: str, value, least: int | None = None) -> int:
    """The one rule for every count: value as a Python int, not below least where that is given.

    operator.index takes ints, bools and numpy integers; what it refuses
    (2.5, 2.0, "3"), or a value below least, is a ValueError naming the field.
    """
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}")
    return value


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
    n_max = as_int("n_max", n_max)
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
    terms follow p_t = p_{t-1} E / t from the first normal one, over one
    window that a Poisson tail bound sizes from E and eps, and are cut at
    the first t > E whose term is below eps * 1e-6: up to E ~ 708.4 the
    scalar steps x E / t from e^{-E}, whose bits the goldens pin, and past
    it one np.cumprod (same cutoff, terms within 1e-12 relative) whose
    terms below the start are 0 and whose kept ones are divided by their
    sum, which rounding in the log-form start would lift above 1.  Raises
    CapacityError when n would exceed hard_cap, ValueError for eps outside
    (0, 1) or below about 2.23e-302.

    Each series is computed once per process: the result is memoized, for
    the last _SERIES_CACHE_SIZE (E, eps, hard_cap), and returned read-only
    so no caller can change another's.  Errors are not memoized.
    """
    return _poisson_terms(float(E), float(eps), int(hard_cap))


@functools.lru_cache(maxsize=_SERIES_CACHE_SIZE)
def _poisson_terms(E: float, eps: float, hard_cap: int) -> np.ndarray:
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if eps * 1e-6 < sys.float_info.min:  # subnormal terms would stop where rounding puts them
        raise ValueError(f"eps must be at least {sys.float_info.min / 1e-6:.3g}")
    if not E >= 0.0:  # NaN too
        raise ValueError(f"total energy must be nonnegative, got {E!r}")
    limit = 2 * hard_cap + 64
    if not E <= limit:  # inf too: the mode, and so any cut, lies past the limit
        raise CapacityError(_TOO_LONG.format(eps, E, hard_cap))
    # One window: by Bennett's inequality in Bernstein form, P(total >= E + y) <=
    # exp(-y^2 / (2 (E + y/3))), so every term past E + L/3 + sqrt(L^2/9 + 2LE) is
    # below e^{-L} = eps * 1e-6.  Both forms run left to right: the terms up to the
    # cut have the bits of a loop that stops there.
    L = -math.log(eps) - math.log(1e-6)
    end = min(math.floor(E + L / 3 + math.sqrt(L * L / 9 + 2 * L * E)) + 1, limit + 1)
    start, x = _poisson_start(E)
    if start:
        terms = np.cumprod(np.concatenate(([x], E / np.arange(start + 1, end + 1))))
    else:
        terms = [x] + [x := x * E / t for t in range(1, end + 1)]
    # One cut, the first t > E whose term is below eps * 1e-6.  Past floor(E) + 1
    # each step multiplies by E / t < 1 (fl(x E) < x t; fl(E / t) <= 1) and rounding
    # is monotone, so the tail does not rise and a bisection finds the cut; with
    # none in the window, t = limit + 1 is refused below.  The key is the float
    # method, p < eps * 1e-6 with no numpy scalar comparison.
    i = bisect.bisect_left(terms, True, math.floor(E) + 1 - start, key=(eps * 1e-6).__gt__)
    t = start + i if i < len(terms) else limit + 1
    # tails[j] = P(total >= start + j), summed small terms first so they carry no
    # cancellation error; the mass beyond start + j is tails[j + 1]
    terms = np.asarray(terms[:t - start + 1])
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


def distance_cutoff(abs_alpha_sq_total: float, tol: float) -> int:
    """truncation_bound(E, tol ** 2): dropped mass eps moves a distance by up to about sqrt(eps).

    Raises ValueError unless 0 < tol < 1 and tol ** 2 * 1e-6, poisson_terms'
    stop threshold, is a normal double (tol above about 1.49e-151).
    """
    if not (0.0 < tol < 1.0 and tol ** 2 * 1e-6 >= sys.float_info.min):  # NaN too
        raise ValueError(f"tol must lie in (0, 1) with tol ** 2 * 1e-6 a normal double "
                         f"(tol above about 1.49e-151), got {tol!r}")
    return truncation_bound(abs_alpha_sq_total, tol ** 2)


def _check_grid(n_max: int, modes: int) -> tuple:
    """(n_max, modes) as Python ints, checked before any grid cache sees them (2.0 hashes as 2)."""
    n_max, modes = as_int("n_max", n_max), as_int("modes", modes)
    if n_max < 0 or modes < 1:
        raise ValueError(f"a grid needs n_max >= 0 and modes >= 1, got {n_max} and {modes}")
    return n_max, modes


# modes -> the grid at the largest cutoff asked so far, for the last
# _HELD_MODES mode counts used, least recently used first (see _grid)
_HELD_MODES = 8
_held: dict = {}


def _build_grid(n_max: int, modes: int):
    """(occupations, totals, starts, binomials) of a checked grid, read-only, built afresh."""
    binomials = np.zeros((modes + 1, n_max + 2), dtype=np.int64)
    binomials[0, 1:] = 1
    for k in range(1, modes + 1):
        binomials[k, 1:] = np.cumsum(binomials[k - 1, 1:])
    occ, totals = np.zeros((1, 0), dtype=np.int64), np.zeros(1, dtype=np.int64)
    for _ in range(modes):  # a new first mode, with each count the cutoff leaves room for
        room = n_max - totals + 1
        first = np.arange(room.sum()) - np.repeat(np.cumsum(room) - room, room)
        occ = np.column_stack([first, np.repeat(occ, room, axis=0)])
        totals = np.repeat(totals, room) + first
    order = np.lexsort(np.vstack([occ.T[::-1], totals]))  # total, then z_1, z_2, ...
    grid = (occ[order], totals[order], binomials[modes], binomials)
    for arr in grid:
        arr.flags.writeable = False
    return grid


@functools.lru_cache(maxsize=8)
def _grid(n_max: int, modes: int):
    """(occupations, totals, starts, binomials) of a checked grid, read-only views.

    Row i of occupations is the tuple at flat index i, sector n is rows
    starts[n]:starts[n+1], and binomials[k, s + 1] = C(s+k, k) counts the
    k-mode tuples of total at most s (0 at s = -1), k = 0..modes.

    Ordered by total first, the grid at n_max is the first C(n_max+m, m)
    rows of any larger one, so each is served as prefix views, with the
    integers of a fresh build, of the one grid held for its mode count: the
    grid at the largest cutoff asked so far, rebuilt only for a larger one.
    Memory is that grid per held mode count, plus older ones still under
    the views this memo holds.
    """
    held = _held.pop(modes, None)  # read once: the slices below come from this grid
    if held is None or len(held[2]) < n_max + 2:
        held = _build_grid(n_max, modes)
    _held[modes] = held  # most recently used last
    if len(_held) > _HELD_MODES:
        del _held[next(iter(_held))]
    occ, totals, starts, binomials = held
    size = starts[n_max + 1]
    return occ[:size], totals[:size], starts[:n_max + 2], binomials[:, :n_max + 2]


def _rank(occ: np.ndarray, binomials: np.ndarray) -> np.ndarray:
    """Index of each k-mode row of occ inside its fixed-total sector, in the grid's order.

    With S_i = z_i + ... + z_k (modes from 1), the sum over i < k of
    C(S_i+k-i, k-i) - C(S_{i+1}+k-i, k-i): the combinatorial number system.
    """
    suffix = np.cumsum(occ[:, ::-1], axis=1)[:, ::-1]
    order = np.arange(occ.shape[1] - 1, 0, -1)
    return (binomials[order, suffix[:, :-1] + 1] - binomials[order, suffix[:, 1:] + 1]).sum(axis=1)


def occupation_array(n_max: int, modes: int) -> np.ndarray:
    """All occupation tuples as a read-only integer array of shape (dim, modes)."""
    return _grid(*_check_grid(n_max, modes))[0]


def total_photon_numbers(n_max: int, modes: int) -> np.ndarray:
    """Total photon number of each occupation tuple, in index order, read-only."""
    return _grid(*_check_grid(n_max, modes))[1]


def grid_size(n_max: int, modes: int, cap: int) -> int:
    """min(C(n_max+modes, modes), cap + 1), in at most cap.bit_length() + 1 products."""
    n_max, modes = _check_grid(n_max, modes)
    small, big = sorted((n_max, modes))
    size = 1
    for i in range(1, small + 1):  # C(big+i, i), at least doubling each step
        size = size * (big + i) // i
        if size > cap:
            break
    return min(size, cap + 1)


def block_entries(n_max: int, modes: int, cap: int) -> int:
    """min(sum_n d_n^2, cap + 1) over the grid's sector sizes d_n = C(n+modes-1, modes-1)."""
    total = grid_size(n_max, modes, cap)  # entries >= states: sum only a grid within the cap
    if modes > 1 and total <= cap:
        total = size = 1
        for n in range(1, n_max + 1):
            size = size * (n + modes - 1) // n
            total += size * size
    return min(total, cap + 1)


@functools.lru_cache(maxsize=8)
def _tables(n_max: int, modes: int):
    """sector_tables' arrays, then slots: amplitude i at flat slot slots[j, i] of mode j's matrix.

    That matrix holds z at row (index of z without z_j on the grid of the
    other modes), column z_j.  All read-only, built once per grid.
    """
    occ, totals, starts, binomials = _grid(n_max, modes)
    down = np.stack([_rank(occ - e, binomials) for e in np.eye(modes, dtype=np.int64)], axis=1)
    slots = np.stack([(binomials[modes - 1, totals - occ[:, j]] + _rank(np.delete(occ, j, axis=1),
                       binomials)) * (n_max + 1) + occ[:, j] for j in range(modes)])
    tables = (starts, np.sqrt(occ), np.where(occ > 0, down, 0), np.argmax(occ, axis=1), slots)
    for arr in tables:
        arr.flags.writeable = False
    return tables


def sector_tables(n_max: int, modes: int):
    """(starts, roots, down, peel): the grid's fixed-total blocks, read-only, built on first use.

    Block n is the slice starts[n]:starts[n+1].  For z at flat index i,
    roots[i] is sqrt(z), down[i, j] the _rank of z - e_j in block n - 1 (0
    where z_j = 0, which roots zeroes out), peel[i] z's first largest mode.
    """
    return _tables(*_check_grid(n_max, modes))[:4]


@dataclass(frozen=True, eq=False)
class FockVector:
    """A pure state on `modes` optical modes, truncated at total photon number `cutoff`.

    amps holds the C(cutoff+m, m) complex amplitudes in the order of
    occupation_array, as a read-only copy of the values given, so a later
    write to the caller's array cannot change the state (or a wire body
    already encoded from it).
    """

    cutoff: int
    modes: int
    amps: np.ndarray

    def __post_init__(self):
        for name in ("cutoff", "modes"):
            object.__setattr__(self, name, as_int(name, getattr(self, name)))
        amps = np.array(self.amps, dtype=complex)
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)
        # grid_size also rejects cutoff < 0 and modes < 1
        if amps.ndim != 1 or grid_size(self.cutoff, self.modes, len(amps)) != len(amps):
            want = grid_size(self.cutoff, self.modes, sys.maxsize)
            raise ValueError(f"{amps.size} amplitudes in shape {amps.shape}, expected a vector of "
                             f"C(cutoff+m, m) = C({self.cutoff + self.modes}, {self.modes}) = "
                             f"{want if want <= sys.maxsize else 'over 2^63'}, one per occupation")


def coherent_fock(amps: "np.ndarray | list | tuple", n_max: int) -> FockVector:
    """Tensor product of coherent states with the given mode amplitudes.

    Each amplitude multiplies its modes' coefficients left to right from
    1+0j, the bits of chained np.kron at every occupation the grid keeps.
    """
    amps = np.atleast_1d(np.asarray(amps, dtype=complex))
    occ = occupation_array(n_max, len(amps))
    vec = np.full(len(occ), 1.0 + 0.0j)
    for mode, a in enumerate(amps):
        vec = vec * coherent_coefficients(a, n_max)[occ[:, mode]]
    return FockVector(cutoff=n_max, modes=len(amps), amps=vec)


def mode_overlap_norms(psi: FockVector, single: np.ndarray) -> np.ndarray:
    """||<single|_j psi|| per mode j: conj(single) times mode j's matrix of _tables' slots."""
    starts, *_, slots = _tables(psi.cutoff, psi.modes)
    rows = int(starts[-1] - starts[-2])  # (m-1)-mode tuples of total <= cutoff: the last sector
    bra = single.conj().reshape(1, -1)
    norms = []
    for slot in slots:
        mat = np.zeros((rows, psi.cutoff + 1), dtype=complex)
        mat.reshape(-1)[slot] = psi.amps
        norms.append(np.linalg.norm(np.dot(bra, mat.T)))
    return np.array(norms)


def overlap(u: FockVector, v: FockVector) -> complex:
    """Hermitian inner product <u|v>."""
    if u.cutoff != v.cutoff or u.modes != v.modes:
        raise ValueError("overlap requires matching cutoffs and mode counts")
    return complex(np.vdot(u.amps, v.amps))


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Finite Hermitian operator on the truncated Fock space, stored dense.

    The Hermitian check compares each _TILE x _TILE tile of the upper
    triangle with its mirror, so it forms no full-size difference; every
    entry still meets the 1e-12 rule, and a NaN or inf anywhere fails it.

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
        tiles = [slice(lo, lo + _TILE) for lo in range(0, len(entries), _TILE)]
        with np.errstate(invalid="ignore", over="ignore"):
            for rows, cols in ((r, c) for i, r in enumerate(tiles) for c in tiles[i:]):
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


def density_from_fock(psi: FockVector) -> DensityOperator:
    """Rank-one density operator |psi><psi|."""
    return DensityOperator(np.outer(psi.amps, psi.amps.conj()))


def trace_distance_numeric(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Trace distance (1/2)||rho - sigma||_1 by Hermitian eigensolves, one per sector.

    Unequal sector labels on rho and sigma count as one sector.  Sector by
    sector, in label order, its rows of rho - sigma are formed once and held
    only while it is solved: eigvalsh takes their in-sector columns, the
    bits of (rho - sigma)[np.ix_(inside, inside)], and the other columns are
    the off-sector strip E, empty for a single sector.  eigvalsh is
    deterministic for identical input bits.

    Raises ValueError unless the dropped off-block part E of rho - sigma
    obeys (1/2) sqrt(dim) ||E||_F <= SECTOR_LEAK_TOL.  Since ||E||_1 <=
    sqrt(dim) ||E||_F, the result is then within SECTOR_LEAK_TOL of the
    full eigensolve's.
    """
    if rho.dim != sigma.dim:
        raise ValueError("trace distance requires equal dimensions")
    sectors = (rho.sectors if np.array_equal(rho.sectors, sigma.sectors)
               else np.zeros(rho.dim, dtype=np.int64))
    lams = []
    leak = 0.0
    for label in sorted(set(sectors.tolist())):  # np.unique's first call: +1.6 MB peak RSS
        inside = sectors == label
        rows = rho.entries[inside]
        rows -= sigma.entries[inside]
        lams.append(np.linalg.eigvalsh(rows[:, inside]))
        strip = rows[:, ~inside]
        leak += float(np.vdot(strip, strip).real)
    bound = 0.5 * math.sqrt(rho.dim * leak)
    if not bound <= SECTOR_LEAK_TOL:  # a NaN leak fails too
        raise ValueError(f"operator is not block diagonal over its sectors: off-sector "
                         f"part moves the trace norm by up to {bound:.3e} > {SECTOR_LEAK_TOL:g}")
    return 0.5 * float(np.abs(np.concatenate(lams)).sum())
