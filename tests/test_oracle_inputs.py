"""The oracles' inputs agree with the straightforward constructions they replace.

encryption_channel_density looks the rotation phases up by total photon
number and builds the matrix as one product of the rotated codewords; its
entries must agree, to within rounding of a d-term sum, with the channel
sum built with one complex exponential per amplitude, be Hermitian to the
same rounding, vanish exactly where the codeword does, and repeat byte for
byte on a second build; neither the build nor the dense trace distance may
hold a second full-size matrix.  encrypted_distance_oracle builds the
codewords' coordinates one total-photon-number sector at a time and QRs
only those; it must agree within 1e-12 with the grid-wide version that QRs
all 2d rotated codewords on the whole grid, forms Q and projects the
codewords onto it.  Past d = n_max + 1 both cut the key space at the grid,
so their cost, and their bits, no longer depend on d; so do the paper's
partition, block_decomposition, and the tuple enumeration, qk_ak_enumeration.
"""

import math
import time
import tracemalloc

import numpy as np
import pytest

from phasekey.encoding import (
    BitString,
    block_decomposition,
    codeword_fock,
    encryption_channel_density,
)
from phasekey.fock import (
    distance_cutoff,
    poisson_terms,
    total_photon_numbers,
    trace_distance_numeric,
    truncation_bound,
)
from phasekey.security import (
    SERIES_TAIL_EPS,
    SecurityParams,
    encrypted_distance_oracle,
    encrypted_trace_distance,
    qk_ak_enumeration,
    qk_ak_finite,
)


# --- references ---------------------------------------------------------------

def ref_channel_entries(x, alpha, d, n_max):
    """The d-term channel sum with one exponential per amplitude."""
    psi = codeword_fock(x, alpha, n_max)
    t = total_photon_numbers(n_max, len(x))
    rho = np.zeros((len(psi.amps), len(psi.amps)), dtype=complex)
    for k in range(d):
        rotated = np.exp(-2j * math.pi * k / d * t) * psi.amps
        rho += np.outer(rotated, rotated.conj())
    rho /= d
    return 0.5 * (rho + rho.conj().T)


def ref_distance_oracle(u, v, alpha, d, n_max):
    """Support-basis oracle through the reduced Q: coordinates Q^H C."""
    t = total_photon_numbers(n_max, len(u))
    psi_u = codeword_fock(u, alpha, n_max).amps
    psi_v = codeword_fock(v, alpha, n_max).amps
    cols = np.empty((len(psi_u), 2 * d), dtype=complex)
    for k in range(d):
        phase = np.exp(-2j * math.pi * k / d * t)
        cols[:, 2 * k] = phase * psi_u
        cols[:, 2 * k + 1] = phase * psi_v
    basis, _ = np.linalg.qr(cols)
    proj = basis.conj().T @ cols
    delta = np.zeros((proj.shape[0], proj.shape[0]), dtype=complex)
    for k in range(d):
        gu = proj[:, 2 * k]
        gv = proj[:, 2 * k + 1]
        delta += np.outer(gu, gu.conj()) - np.outer(gv, gv.conj())
    delta /= d
    delta = 0.5 * (delta + delta.conj().T)
    return 0.5 * float(np.abs(np.linalg.eigvalsh(delta)).sum())


def _pair(m, w):
    return BitString((0,) * m), BitString(tuple([1] * w + [0] * (m - w)))


# --- the dense channel --------------------------------------------------------

# checks._check_encrypted_dense's grid, the oracle benchmark's dense shapes,
# a three-mode point, and a key count above the largest total photon number
CHANNEL_GRID = [(m, alpha, d, w)
                for m in (1, 2) for alpha in (0.3, 0.7, 1.0) for d in (2, 3, 5)
                for w in range(m + 1)]
CHANNEL_GRID += [(1, 0.7, 7, 1), (2, 0.79, 5, 1), (3, 0.21, 3, 1), (3, 0.3, 4, 2),
                 (1, 0.5, 40, 1)]


def _check_channel(m, n_max, alpha, d, w):
    """rho within rounding of the literal key sum, Hermitian, labelled, and reproducible."""
    for x in _pair(m, w):
        rho = encryption_channel_density(x, alpha, d, n_max)
        psi = codeword_fock(x, alpha, n_max).amps
        # a sum of d products, each within a few ulps: Higham, Accuracy and
        # Stability of Numerical Algorithms, 2nd ed., section 3.1
        bound = 4 * (d + 1) * 2.0 ** -53 * np.outer(np.abs(psi), np.abs(psi))
        assert np.all(np.abs(rho.entries - ref_channel_entries(x, alpha, d, n_max)) <= bound)
        assert np.all(np.abs(rho.entries - rho.entries.conj().T) <= bound)
        assert np.all(rho.entries[np.outer(psi, psi.conj()) == 0] == 0)
        np.testing.assert_array_equal(rho.sectors, total_photon_numbers(n_max, m) % d)
        again = encryption_channel_density(x, alpha, d, n_max)
        assert again.entries.tobytes() == rho.entries.tobytes()
        assert again.sectors.tobytes() == rho.sectors.tobytes()


@pytest.mark.parametrize("m,alpha,d,w", CHANNEL_GRID)
def test_channel_entries_equal_per_amplitude_exponentials(m, alpha, d, w):
    # equal to within rounding: the one product sums the keys in its own order
    _check_channel(m, truncation_bound(m * alpha ** 2), alpha, d, w)


# the Hermitian check runs over tiles of fock._TILE = 128 states: grids of
# 127, 128 and 129 states (one mode) and 8 (seven modes at cutoff 1), 91
# with one key and with more keys than totals, and the oracle benchmark's
# 165-state shape, whose last tile is partial
TILE_GRID = [(1, 126, 3.0, 3, 1), (1, 127, 3.0, 3, 1), (1, 128, 3.0, 3, 1),
             (7, 1, 0.3, 3, 2), (2, 12, 0.7, 1, 1), (2, 12, 0.7, 30, 2), (3, 8, 0.21, 3, 1)]


@pytest.mark.parametrize("m,n_max,alpha,d,w", TILE_GRID)
def test_channel_entries_keep_their_bits_across_tiles(m, n_max, alpha, d, w):
    # a second build keeps every byte; the entries match the key sum to rounding
    _check_channel(m, n_max, alpha, d, w)


# the vacuum, whose amplitudes vanish above the empty state (a coherent
# codeword has no zero amplitude on the grids above)
@pytest.mark.parametrize("m,n_max,d", [(1, 5, 40), (2, 3, 3), (3, 4, 5)])
def test_vacuum_channel_is_zero_off_the_empty_state(m, n_max, d):
    _check_channel(m, n_max, 0.0, d, 1)


def _peak_bytes(fn, *args):
    """Peak traced allocation of fn(*args) above what was held before the call."""
    tracemalloc.start()
    try:
        held, _ = tracemalloc.get_traced_memory()
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - held


def test_dense_oracle_makes_no_full_size_temporary():
    # three modes at cutoff 14: 680 states, 7.4 MB per matrix, so the 128 x 128
    # tiles of the Hermitian check are small beside it (at the oracle benchmark's
    # cutoff 8, 165 states, a tile is 0.6 of the matrix).  The one product holds
    # the matrix and the d rotated codewords; a full-size scaled copy or
    # Hermitization would add a matrix, and forming rho - sigma first adds about
    # 1.67 matrices to the distance.
    u, v = _pair(3, 1)
    rho = encryption_channel_density(u, 0.21, 3, 14)
    sigma = encryption_channel_density(v, 0.21, 3, 14)
    matrix = rho.entries.nbytes
    assert _peak_bytes(encryption_channel_density, u, 0.21, 3, 14) <= 1.25 * matrix
    assert _peak_bytes(trace_distance_numeric, rho, sigma) <= 1.25 * matrix


# --- the support-basis oracle -------------------------------------------------

# checks._check_encrypted_support_basis's grid, under its original test ids
SUPPORT_GRID = [(alpha, d, w) for alpha in (0.3, 0.7, 1.0, 1.5) for d in (2, 3, 5, 8)
                for w in range(1, 4)]
SUPPORT_CASES = [pytest.param(3, alpha, d, w, truncation_bound(3 * alpha ** 2),
                              id=f"{alpha}-{d}-{w}") for alpha, d, w in SUPPORT_GRID]
# one and two modes; at w = 0 and w = m, psi_v|_t = (-1)^(w t) psi_u|_t is
# parallel to psi_u|_t in every sector, so r22 vanishes
SUPPORT_CASES += [pytest.param(m, alpha, d, w, truncation_bound(m * alpha ** 2),
                               id=f"m{m}-{alpha}-{d}-{w}")
                  for m in (1, 2) for alpha in (0.7, 1.5) for d in (3, 8) for w in range(m + 1)]
# the oracle benchmark's support shapes at its 1e-12 cutoff (n_max 15, 18, 22)
SUPPORT_CASES += [pytest.param(3, alpha, d, w, truncation_bound(3 * alpha ** 2, 1e-12),
                               id=f"bench-{alpha}-{d}-{w}")
                  for d, alpha in ((6, 0.61), (10, 0.8), (16, 1.0)) for w in range(1, 4)]
# more keys than totals: 40 keys, n_max + 1 = 11 totals
SUPPORT_CASES += [pytest.param(3, 0.4, 40, w, truncation_bound(0.48), id=f"d40-{w}")
                  for w in (1, 3)]
# alpha = 0: every sector above t = 0 is empty
SUPPORT_CASES += [pytest.param(m, 0.0, 5, m, 4, id=f"vacuum-m{m}") for m in (1, 3)]


@pytest.mark.parametrize("m,alpha,d,w,n_max", SUPPORT_CASES)
def test_support_oracle_from_r_matches_q_projection(m, alpha, d, w, n_max):
    u, v = _pair(m, w)
    got = encrypted_distance_oracle(u, v, alpha, d, n_max)
    assert abs(got - ref_distance_oracle(u, v, alpha, d, n_max)) <= 1e-12


@pytest.mark.parametrize("m,alpha,d,n_max", [
    (3, 0.4, 8, 1),  # 2d = 16 rotated codewords on an 8-state grid
    (1, 0.7, 2, 0),  # n_max = 0: one state, one sector
    (3, 0.7, 5, 0),
    (2, 1.0, 3, 1),
])
def test_support_oracle_with_fewer_states_than_codewords(m, alpha, d, n_max):
    u, v = _pair(m, 1)
    got = encrypted_distance_oracle(u, v, alpha, d, n_max)
    assert abs(got - ref_distance_oracle(u, v, alpha, d, n_max)) <= 1e-12


# --- key spaces past the grid ---------------------------------------------------

# Totals on the grid differ by at most n_max, so the key average at any
# d > n_max is the one at d = n_max + 1, and both oracles cut the keys there.

@pytest.mark.parametrize("m", [1, 2])
def test_support_oracle_past_an_int64_is_its_value_at_the_grid(m):
    # one phase column per key would pass numpy's largest dimension at d = 2**63
    u, v = _pair(m, 1)
    n_max = 12
    at_grid = encrypted_distance_oracle(u, v, 0.5, n_max + 1, n_max)
    for d in (10 ** 5, 2 ** 63):
        assert encrypted_distance_oracle(u, v, 0.5, d, n_max) == at_grid


def test_support_oracle_at_a_huge_key_space_matches_the_closed_form():
    u, v = _pair(2, 1)
    n_max = distance_cutoff(2 * 0.7 ** 2, 1e-6)
    closed = encrypted_trace_distance(SecurityParams(m=2, d=2 ** 63, abs_alpha=0.7, w=1))
    assert abs(encrypted_distance_oracle(u, v, 0.7, 2 ** 63, n_max) - closed) <= 1e-6


def test_dense_channel_at_a_large_key_space_is_its_operator_at_the_grid():
    x, n_max = BitString((1,)), 12
    at_grid = encryption_channel_density(x, 0.5, n_max + 1, n_max)
    assert _peak_bytes(encryption_channel_density, x, 0.5, 10 ** 5, n_max) < 2 ** 20
    rho = encryption_channel_density(x, 0.5, 10 ** 5, n_max)
    assert rho.entries.tobytes() == at_grid.entries.tobytes()
    assert rho.sectors.tobytes() == at_grid.sectors.tobytes()
    np.testing.assert_array_equal(rho.sectors, total_photon_numbers(n_max, 1) % 10 ** 5)


# Past an int64 first: there a residue formed before the cut is an OverflowError.
HUGE_KEY_SPACES = (2 ** 63, 10 ** 12, 10 ** 5)


def _partition(m, d, n_max):
    """The paper's partition of the all-zeros codeword as (j, q_j, amplitude bytes) per block."""
    return [(b.j, b.q_j, b.gtilde.amps.tobytes()) for b in block_decomposition(0.5, m, d, n_max)]


def _enumeration(m, d, n_max):
    """The tuple enumeration's q and A arrays as bytes, at w = 1."""
    q, a = qk_ak_enumeration(SecurityParams(m=m, d=d, abs_alpha=0.5, w=1), n_max)
    return q.tobytes(), a.tobytes()


@pytest.mark.parametrize("build", [_partition, _enumeration])
@pytest.mark.parametrize("m", [1, 2])
def test_partition_and_enumeration_past_the_grid_are_their_value_at_the_grid(build, m):
    # at most n_max + 1 classes can hold a tuple, so no residue loop or array
    # may be sized by d itself
    n_max = 12
    at_grid = build(m, n_max + 1, n_max)
    for d in HUGE_KEY_SPACES:
        start = time.perf_counter()
        got = build(m, d, n_max)
        assert time.perf_counter() - start < 0.05
        assert got == at_grid


@pytest.mark.parametrize("m", [1, 2])
def test_enumeration_and_finite_blocks_share_the_cut(m):
    # with n_max one below the series' length, the closed form and the
    # enumeration hold the same classes: they agree on each, and every class
    # past them is absent, (0.0, 1.0)
    for w in range(m + 1):
        p = SecurityParams(m=m, d=2 ** 63, abs_alpha=0.5, w=w)
        n_max = len(poisson_terms(p.E, SERIES_TAIL_EPS)) - 1
        q_ref, a_ref = qk_ak_enumeration(p, n_max)
        assert len(q_ref) == len(a_ref) == n_max + 1
        for k in range(n_max + 1):
            q, a = qk_ak_finite(p, k)
            assert q == pytest.approx(q_ref[k], rel=1e-12)
            assert a == pytest.approx(a_ref[k], abs=1e-12)
        for k in (n_max + 1, 10 ** 12, p.d - 1):
            assert qk_ak_finite(p, k) == (0.0, 1.0)
