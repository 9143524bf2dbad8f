"""Tests for the number-basis layout that fock alone defines.

Covers the occupation index, served as prefix views of one grid held
per mode count in any order of cutoffs, the capped grid size, the sector
tables of the interferometer recursion, the rejection of impossible grids
and non-finite amplitudes, the per-mode contraction, block-entry count and
overflow-safe energy that fock owns, and the callers that now read fock
instead of doing their own grid arithmetic.  The references are brute
force: every tuple of itertools.product, kept where its total is at most
the cutoff and sorted by total, then lexicographically.
"""

import inspect
import itertools
import math
import time
import warnings

import numpy as np
import pytest

from phasekey import checks, cli, encoding, evaluation, fock, protocol, security
from phasekey.encoding import BitString, codeword_fock, encode, encryption_channel_density
from phasekey.evaluation import (
    NonlinearPhaseSpec,
    cat_state_target,
    haar_random_unitary,
    interferometer_fock,
    kerr_cat_reference,
)
from phasekey.fock import (
    CapacityError,
    FockVector,
    block_entries,
    coherent_coefficients,
    coherent_fock,
    grid_size,
    mean_photon_number,
    mode_overlap_norms,
    occupation_array,
    sector_tables,
    total_photon_numbers,
)
from phasekey.protocol import CircuitDescription, run_protocol
from phasekey.security import SecurityParams, encrypted_distance_oracle, qk_ak_enumeration


def ref_occupations(n_max, modes):
    """The grid by brute force: tuples of total <= n_max, by total, then lexicographically."""
    kept = [z for z in itertools.product(range(n_max + 1), repeat=modes) if sum(z) <= n_max]
    return np.array(sorted(kept, key=lambda z: (sum(z), z)), dtype=np.int64).reshape(-1, modes)


class TestGridIndex:
    @pytest.mark.parametrize("modes", [1, 2, 3, 4])
    @pytest.mark.parametrize("n_max", [0, 1, 2, 3, 4])
    def test_matches_np_indices_and_is_read_only(self, n_max, modes):
        # the brute-force grid, which np.indices gave before the cut on the total
        occ = occupation_array(n_max, modes)
        totals = total_photon_numbers(n_max, modes)
        ref = ref_occupations(n_max, modes)
        np.testing.assert_array_equal(occ, ref)
        np.testing.assert_array_equal(totals, ref.sum(axis=1))
        assert occ.dtype == ref.dtype and totals.dtype == ref.dtype
        for arr in (occ, totals):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_built_once_per_grid(self):
        assert occupation_array(3, 2) is occupation_array(3, 2)
        assert total_photon_numbers(3, 2) is total_photon_numbers(3, 2)

    @pytest.mark.parametrize("n_max, modes", [(-1, 2), (-3, 1), (2, 0), (2, -1)])
    def test_impossible_grids_are_rejected(self, n_max, modes):
        with pytest.raises(ValueError, match="a grid needs"):
            occupation_array(n_max, modes)
        with pytest.raises(ValueError, match="a grid needs"):
            total_photon_numbers(n_max, modes)


def _forget_grids():
    """Drop every grid fock holds or memoizes, so the next call builds afresh."""
    fock._grid.cache_clear()
    fock._tables.cache_clear()
    fock._held.clear()


@pytest.fixture
def builds(monkeypatch):
    """Start with no grid held or memoized; list the (n_max, modes) of every grid built."""
    calls = []
    real = fock._build_grid

    def counted(n_max, modes):
        calls.append((n_max, modes))
        return real(n_max, modes)

    _forget_grids()
    monkeypatch.setattr(fock, "_build_grid", counted)
    yield calls
    _forget_grids()


def _served(n_max, modes):
    """Every array fock serves for one grid."""
    return (occupation_array(n_max, modes), total_photon_numbers(n_max, modes),
            *sector_tables(n_max, modes))


def _bytes(arrays):
    return [(arr.dtype.str, arr.shape, arr.tobytes()) for arr in arrays]


PREFIX_CUTOFFS = [0, 1, 2, 4, 7]
PREFIX_ORDERS = {"ascending": PREFIX_CUTOFFS, "descending": PREFIX_CUTOFFS[::-1],
                 "interleaved": [4, 0, 7, 2, 1]}


class TestGridPrefixes:
    """One grid per mode count, at the largest cutoff asked; every cutoff is a prefix view of it."""

    @pytest.mark.parametrize("order", PREFIX_ORDERS.values(), ids=PREFIX_ORDERS.keys())
    @pytest.mark.parametrize("modes", [1, 2, 3, 5])
    def test_any_order_serves_the_arrays_of_a_fresh_build(self, builds, modes, order):
        fresh = {}
        for n in PREFIX_CUTOFFS:  # each grid the only one asked: a fresh build at its cutoff
            _forget_grids()
            fresh[n] = _bytes(_served(n, modes))
            ref = ref_occupations(n, modes)
            np.testing.assert_array_equal(occupation_array(n, modes), ref)
            np.testing.assert_array_equal(total_photon_numbers(n, modes), ref.sum(axis=1))
        _forget_grids()
        for n in order:
            served = _served(n, modes)
            assert _bytes(served) == fresh[n]
            for arr in served:
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[(0,) * arr.ndim] = 0

    @pytest.mark.parametrize("order", PREFIX_ORDERS.values(), ids=PREFIX_ORDERS.keys())
    @pytest.mark.parametrize("modes", [1, 2, 3, 5])
    def test_mode_overlap_norms_keep_their_bytes_in_any_order(self, builds, modes, order):
        rng = np.random.default_rng(modes)
        states = {}
        for n in PREFIX_CUTOFFS:
            dim = math.comb(n + modes, modes)
            states[n] = (FockVector(cutoff=n, modes=modes,
                                    amps=rng.normal(size=dim) + 1j * rng.normal(size=dim)),
                         rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1))
        fresh = {}
        for n, (psi, single) in states.items():
            _forget_grids()
            fresh[n] = mode_overlap_norms(psi, single).tobytes()
        _forget_grids()
        for n in order:
            assert mode_overlap_norms(*states[n]).tobytes() == fresh[n]

    @pytest.mark.parametrize("modes", [1, 2, 3, 5])
    def test_a_smaller_cutoff_is_a_view_of_the_held_grid(self, builds, modes):
        occupation_array(7, modes)
        held = fock._held[modes]
        for n in (0, 3, 6):
            served = _served(n, modes)
            for arr, base in zip(served[:3], held[:3]):  # occupations, totals, starts
                assert np.shares_memory(arr, base)
        assert builds == [(7, modes)]

    @pytest.mark.parametrize("modes", [1, 2, 3, 5])
    def test_a_larger_cutoff_replaces_the_held_grid(self, builds, modes):
        occupation_array(3, modes)
        smaller = fock._held[modes]
        occupation_array(6, modes)
        assert builds == [(3, modes), (6, modes)]
        assert list(fock._held) == [modes] and fock._held[modes] is not smaller
        assert len(fock._held[modes][0]) == math.comb(6 + modes, modes)

    def test_at_most_eight_mode_counts_are_held(self, builds):
        for modes in range(1, 10):
            occupation_array(2, modes)
        assert list(fock._held) == list(range(2, 10))  # the least recently used, 1, dropped
        occupation_array(1, 2)  # a prefix of the held grid: now the most recently used
        occupation_array(2, 1)
        assert list(fock._held) == [4, 5, 6, 7, 8, 9, 2, 1]
        assert builds == [(2, modes) for modes in range(1, 10)] + [(2, 1)]

    def test_a_second_full_check_run_builds_no_grid(self, builds):
        checks.run_checks("full")
        assert builds
        builds.clear()
        assert all(result.passed for result in checks.run_checks("full"))
        assert builds == []


class TestGridSize:
    @pytest.mark.parametrize("n_max", [0, 1, 2, 5])
    @pytest.mark.parametrize("modes", [1, 3, 7])
    @pytest.mark.parametrize("cap", [0, 8, 10 ** 6])
    def test_is_the_capped_power(self, n_max, modes, cap):
        # the capped binomial C(n_max+modes, modes), the power (n_max+1)^modes before
        assert grid_size(n_max, modes, cap) == min(math.comb(n_max + modes, modes), cap + 1)
        assert grid_size(n_max, modes, cap) == min(len(ref_occupations(n_max, modes)), cap + 1)

    def test_huge_mode_count_is_fast(self):
        start = time.perf_counter()
        assert grid_size(2, 10 ** 7, 2 ** 22) == 2 ** 22 + 1
        assert grid_size(0, 10 ** 7, 5) == 1
        assert grid_size(10 ** 18, 10 ** 18, 2 ** 22) == 2 ** 22 + 1
        assert grid_size(10 ** 18, 1, 2 ** 63) == 10 ** 18 + 1
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("n_max, modes", [(-1, 2), (2, 0)])
    def test_impossible_grids_are_rejected(self, n_max, modes):
        with pytest.raises(ValueError, match="a grid needs"):
            grid_size(n_max, modes, 10)


class TestFockVectorShape:
    def test_huge_mode_count_fails_fast(self):
        # 3^(10^7) alone takes seconds to form; the length check never forms it
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"C\(cutoff\+m, m\) = C\(10000002, 10000000\) = "
                                             r"50000015000001, one per"):
            FockVector(cutoff=2, modes=10 ** 7, amps=[1])
        with pytest.raises(ValueError, match=r"1 amplitudes .* = over 2\^63, one per"):
            FockVector(cutoff=10 ** 18, modes=10 ** 18, amps=[1])
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("cutoff, modes", [(-2, 2), (-1, 1), (1, 0), (1, -1)])
    def test_impossible_grids_are_rejected(self, cutoff, modes):
        with pytest.raises(ValueError, match="a grid needs"):
            FockVector(cutoff=cutoff, modes=modes, amps=[1])

    # C(3, 2) = 3 states; 4 is the (cutoff+1)^m of the grid before the cut on the total
    @pytest.mark.parametrize("amps", [np.ones(4), np.ones(5), np.ones((2, 2)), 1.0])
    def test_wrong_length_is_rejected(self, amps):
        with pytest.raises(ValueError, match=r"C\(cutoff\+m, m\) = C\(3, 2\) = 3, one per"):
            FockVector(cutoff=1, modes=2, amps=amps)


class TestSectorTables:
    @pytest.mark.parametrize("n_max, modes", [(0, 1), (3, 1), (2, 2), (3, 3), (1, 4)])
    def test_blocks_and_down_indices(self, n_max, modes):
        tables = sector_tables(n_max, modes)
        starts, roots, down, peel = tables
        occ = ref_occupations(n_max, modes)
        totals = occ.sum(axis=1)
        np.testing.assert_array_equal(np.diff(starts), np.bincount(totals))
        np.testing.assert_array_equal(
            np.diff(starts), [math.comb(n + modes - 1, modes - 1) for n in range(n_max + 1)])
        index = {tuple(z): i for i, z in enumerate(occ)}
        for n in range(len(starts) - 1):
            np.testing.assert_array_equal(np.arange(starts[n], starts[n + 1]),
                                          np.flatnonzero(totals == n))
            for i in range(starts[n], starts[n + 1]):
                z = occ[i]
                np.testing.assert_array_equal(roots[i], np.sqrt(z))
                assert peel[i] == int(np.argmax(z))
                for j in range(modes):
                    below = tuple(z - np.eye(modes, dtype=int)[j])
                    assert down[i, j] == (index[below] - starts[n - 1] if z[j] else 0)
        assert not any(arr.flags.writeable for arr in tables)

    def test_forty_modes_lift_past_int64_place_values(self):
        # 3^40 > 2^63, so no flat index of the (n_max+1)^m product grid fits an int64
        assert 3 ** 40 > 2 ** 63
        starts, _, down, _ = sector_tables(2, 40)
        occ = occupation_array(2, 40)
        assert len(occ) == math.comb(42, 2) and down.max() < math.comb(41, 2)
        for i in (1, 40, 41, 500, len(occ) - 1):
            z = occ[i]
            for j in np.flatnonzero(z):
                below = occ[starts[z.sum() - 1] + down[i, j]]
                np.testing.assert_array_equal(below, z - np.eye(40, dtype=np.int64)[j])
        # the lift keeps each total, so the truncated coherent state maps to the truncated image
        amps = 0.01 * np.exp(0.3j * np.arange(40))
        u = haar_random_unitary(40, 4)
        got = interferometer_fock(u, coherent_fock(amps, 2))
        np.testing.assert_allclose(got.amps, coherent_fock(u.u @ amps, 2).amps, rtol=0, atol=1e-14)

    def test_light_oracles_never_build_them(self):
        # the support oracle and the enumeration read only occupations and totals
        before = fock._tables.cache_info().misses
        encrypted_distance_oracle(BitString((0, 0, 0)), BitString((1, 0, 0)), 0.31, 3, 11)
        qk_ak_enumeration(SecurityParams(m=3, d=4, abs_alpha=0.31, w=1), 11)
        assert fock._tables.cache_info().misses == before

    def test_interferometer_builds_them_once(self):
        # one builder serves the lift and the decoder's per-mode contraction
        psi = coherent_fock([0.2, -0.1j], 9)
        u = haar_random_unitary(2, 5)
        interferometer_fock(u, psi)
        before = fock._tables.cache_info().misses
        interferometer_fock(u, psi)
        mode_overlap_norms(psi, coherent_coefficients(0.2, 9))
        assert fock._tables.cache_info().misses == before


class TestNonFiniteAlpha:
    BAD = [math.inf, -math.inf, math.nan]

    @pytest.mark.parametrize("alpha", BAD)
    def test_codeword_fock(self, alpha):
        with pytest.raises(ValueError, match="finite"):
            codeword_fock(BitString((0, 1)), alpha, 3)

    @pytest.mark.parametrize("alpha", BAD)
    def test_encode(self, alpha):
        with pytest.raises(ValueError, match="finite"):
            encode(BitString((1, 0, 1)), alpha)

    @pytest.mark.parametrize("alpha", BAD)
    def test_encryption_channel_density(self, alpha):
        with pytest.raises(ValueError, match="finite"):
            encryption_channel_density(BitString((0, 1)), alpha, 3, 4)

    @pytest.mark.parametrize("alpha", BAD)
    def test_encrypted_distance_oracle(self, alpha):
        with pytest.raises(ValueError, match="finite"):
            encrypted_distance_oracle(BitString((0, 0)), BitString((1, 0)), alpha, 3, 4)

    @pytest.mark.parametrize("alpha", BAD + [complex(0, math.nan), complex(math.inf, 0)])
    def test_coherent_fock(self, alpha):
        with pytest.raises(ValueError, match="finite"):
            coherent_fock([0.5, alpha], 4)
        with pytest.raises(ValueError, match="finite"):
            coherent_coefficients(alpha, 4)

    @pytest.mark.parametrize("alpha", BAD)
    def test_kerr_cat_reference(self, alpha):
        with pytest.raises(ValueError, match="finite"):
            kerr_cat_reference(alpha, 4)

    @pytest.mark.parametrize("alpha", [40.0, -55j])
    def test_large_finite_alpha_is_a_coherent_state(self, alpha):
        # every amplitude below n = 3 is under 1e-300, and the full state is normalized
        assert np.abs(coherent_fock([alpha], 3).amps).max() < 1e-300
        n_max = fock.truncation_bound(abs(alpha) ** 2, 1e-12)
        psi = coherent_fock([alpha], n_max)
        np.testing.assert_array_equal(psi.amps, coherent_coefficients(alpha, n_max))
        assert np.vdot(psi.amps, psi.amps).real == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("alpha", [1e200, -1e200j])
    @pytest.mark.parametrize("build", [
        coherent_coefficients, lambda a, n: coherent_fock([a], n), kerr_cat_reference,
        cat_state_target], ids=["coherent_coefficients", "coherent_fock",
                                "kerr_cat_reference", "cat_state_target"])
    def test_overflowing_energy_is_a_capacity_error(self, alpha, build):
        # |alpha|^2 overflows a double: the energy is infinite, like poisson_terms(inf)
        with pytest.raises(CapacityError, match="at energy inf exceeds the cap"):
            build(alpha, 3)


def ref_qk_ak_enumeration(params, n_max):
    """The np.add.at form the enumeration had before it used np.bincount."""
    m, d = params.m, params.d
    psi = coherent_fock([params.abs_alpha] * m, n_max)
    weight2 = np.abs(psi.amps) ** 2
    occ = ref_occupations(n_max, m)
    x = np.array([1] * params.w + [0] * (m - params.w), dtype=np.int64)
    signs = np.where((occ @ x) % 2 == 1, -1.0, 1.0)
    residues = occ.sum(axis=1) % d
    q = np.zeros(d)
    s = np.zeros(d)
    np.add.at(q, residues, weight2)
    np.add.at(s, residues, signs * weight2)
    a = np.ones(d)
    present = q >= 1e-300
    a[present] = s[present] / q[present]
    q[~present] = 0.0
    return q, a


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("d", [1, 2, 5, 9])
@pytest.mark.parametrize("alpha", [0.3, 0.9, 1.4])
def test_enumeration_is_bit_identical_to_add_at(m, d, alpha):
    for w in range(m + 1):
        p = SecurityParams(m=m, d=d, abs_alpha=alpha, w=w)
        n_max = fock.truncation_bound(p.E, 1e-12)
        q, a = qk_ak_enumeration(p, n_max)
        q_ref, a_ref = ref_qk_ak_enumeration(p, n_max)
        # the enumeration stops at the classes the grid's totals reach, and the
        # reference's classes past them are empty (n_max = 7 < d - 1 at 0.3-9-1)
        kept = min(d, n_max + 1)
        assert len(q) == len(a) == kept
        assert q.tobytes() == q_ref[:kept].tobytes() and a.tobytes() == a_ref[:kept].tobytes()
        assert np.all(q_ref[kept:] == 0.0) and np.all(a_ref[kept:] == 1.0)


class TestRunProtocolDecryptsOnce:
    @pytest.mark.parametrize("circuit", [
        CircuitDescription(gates=()),
        CircuitDescription(gates=(haar_random_unitary(2, 3),)),
        CircuitDescription(gates=(NonlinearPhaseSpec(terms={(1, 1): 0.2}),
                                  haar_random_unitary(2, 4))),
    ])
    def test_one_decryption_and_the_same_transcript(self, monkeypatch, circuit):
        x = BitString((1, 0))
        expected = run_protocol(x, 0.9, 50, circuit, seed=7).to_jsonl()
        calls = []
        real = protocol.client_decrypt

        def counted(ct, key):
            calls.append(ct)
            return real(ct, key)

        monkeypatch.setattr(protocol, "client_decrypt", counted)
        assert run_protocol(x, 0.9, 50, circuit, seed=7).to_jsonl() == expected
        assert len(calls) == 1


def ref_mode_overlap_norms(psi, single):
    """The per-mode reshape and tensordot the protocol decoder did before fock owned it.

    psi is placed in the (cutoff+1)^m product tensor, zero past the cutoff
    on the total; at one mode that is its amplitude vector itself.
    """
    tensor = np.zeros((psi.cutoff + 1,) * psi.modes, dtype=complex)
    tensor[tuple(ref_occupations(psi.cutoff, psi.modes).T)] = psi.amps
    return [np.linalg.norm(np.tensordot(single.conj(), tensor, axes=([0], [mode])))
            for mode in range(psi.modes)]


class TestModeOverlapNorms:
    @pytest.mark.parametrize("modes", [1, 2, 3])
    @pytest.mark.parametrize("cutoff", range(7))
    def test_equals_the_decoder_reshape(self, cutoff, modes):
        rng = np.random.default_rng(100 * modes + cutoff)
        dim = math.comb(cutoff + modes, modes)
        psi = FockVector(cutoff=cutoff, modes=modes,
                         amps=rng.normal(size=dim) + 1j * rng.normal(size=dim))
        single = rng.normal(size=cutoff + 1) + 1j * rng.normal(size=cutoff + 1)
        got = mode_overlap_norms(psi, single)
        assert got.shape == (modes,)
        if modes == 1:  # the decoder's bits, which the single-mode transcripts pin
            assert list(got) == ref_mode_overlap_norms(psi, single)
        else:
            np.testing.assert_allclose(got, ref_mode_overlap_norms(psi, single),
                                       rtol=1e-13, atol=0)

    def test_balanced_kerr_cat_ties_and_decodes_to_zero(self):
        alpha = 1.5
        cat = kerr_cat_reference(alpha, 20)
        plus = mode_overlap_norms(cat, coherent_coefficients(alpha, 20))
        minus = mode_overlap_norms(cat, coherent_coefficients(-alpha, 20))
        assert plus[0] == pytest.approx(minus[0], rel=1e-12)
        assert protocol._decode(cat, alpha) == BitString((0,))


class TestSingleModeKeepsItsBytes:
    """At one mode the cut on the total changes nothing: grid, order, amplitudes and transcripts."""

    @pytest.mark.parametrize("n_max", [0, 5, 40])
    def test_grid_and_coherent_state(self, n_max):
        np.testing.assert_array_equal(occupation_array(n_max, 1), np.arange(n_max + 1)[:, None])
        b = coherent_coefficients(0.8 - 0.3j, n_max)
        got = coherent_fock([0.8 - 0.3j], n_max).amps
        assert got.tobytes() == np.kron(np.array([1.0 + 0.0j]), b).tobytes()

    # the second one ties the decoder's scores, so rounding picks its bit
    @pytest.mark.parametrize("argv", [["--alpha", "1.5", "--x", "0"], ["--seed", "3"]],
                             ids=["alpha-1.5", "seed-3"])
    def test_kerr_cat_transcript(self, argv, monkeypatch, tmp_path, capsys):
        def transcript():
            out = tmp_path / "t.jsonl"
            assert cli.main(["protocol-demo", "--m", "1", "--circuit", "kerr-cat", *argv,
                             "--out", str(out)]) == 0
            return out.read_bytes()

        def kron_fock(amps, n_max):
            vec = np.array([1.0 + 0.0j])
            for a in amps:
                vec = np.kron(vec, coherent_coefficients(a, n_max))
            return FockVector(cutoff=n_max, modes=len(amps), amps=vec)

        now = transcript()
        # the product-grid state and decoder, as they were before the cut on the total
        monkeypatch.setattr(protocol, "coherent_fock", kron_fock)
        monkeypatch.setattr(protocol, "mode_overlap_norms",
                            lambda psi, single: np.array(ref_mode_overlap_norms(psi, single)))
        assert now == transcript()
        capsys.readouterr()


class TestBlockEntries:
    @pytest.mark.parametrize("n_max", [0, 1, 2, 5])
    @pytest.mark.parametrize("modes", [1, 2, 3, 4])
    @pytest.mark.parametrize("cap", [0, 8, 100, 10 ** 6])
    def test_is_the_capped_sum_of_squared_sector_sizes(self, n_max, modes, cap):
        want = min(int(np.sum(np.bincount(ref_occupations(n_max, modes).sum(axis=1)) ** 2)),
                   cap + 1)
        assert block_entries(n_max, modes, cap) == want
        assert np.array_equal(np.diff(sector_tables(n_max, modes)[0]),
                              [math.comb(n + modes - 1, modes - 1) for n in range(n_max + 1)])

    def test_huge_mode_count_is_fast(self):
        start = time.perf_counter()
        assert block_entries(1, 10 ** 7, 2 ** 22) == 2 ** 22 + 1
        assert block_entries(0, 10 ** 7, 5) == 1
        # a huge cutoff too, at one mode and at many
        assert block_entries(10 ** 18, 1, 2 ** 22) == 2 ** 22 + 1
        assert block_entries(10 ** 18, 10 ** 18, 2 ** 22) == 2 ** 22 + 1
        assert time.perf_counter() - start < 1.0


class TestMeanPhotonNumber:
    def test_bitwise_equal_to_the_expression(self):
        rng = np.random.default_rng(13)
        for a, m in zip(10.0 ** rng.uniform(-8, 150, 500), rng.integers(1, 1000, 500)):
            a, m = float(a), int(m)
            got = mean_photon_number(a, m)
            assert type(got) is float and got == m * a ** 2

    @pytest.mark.parametrize("abs_alpha, modes", [(1e200, 1), (1e154, 10)],
                             ids=["power-raises", "product-overflows"])
    def test_overflow_is_inf_without_warning(self, abs_alpha, modes):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mean_photon_number(abs_alpha, modes) == math.inf

    def test_run_protocol_overflow_has_the_series_wording(self):
        with pytest.raises(CapacityError, match="at energy inf exceeds the cap"):
            run_protocol(BitString((0,)), 1e200, 5, CircuitDescription(
                gates=(NonlinearPhaseSpec(terms={(2,): 1.0}),)), seed=0)


@pytest.mark.parametrize("module", [checks, cli, encoding, evaluation, protocol, security])
def test_no_layout_arithmetic_outside_fock(module):
    source = inspect.getsource(module)
    for banned in (".reshape(", "sector_sizes", "* n_max + 1"):
        assert banned not in source


@pytest.mark.parametrize("owner", [SecurityParams, coherent_coefficients])
def test_energy_comes_from_mean_photon_number(owner):
    source = inspect.getsource(owner)
    assert "mean_photon_number(" in source and "OverflowError" not in source
