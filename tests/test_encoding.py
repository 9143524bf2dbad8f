"""Tests for codewords, keys, the encryption channel, and its blocks."""

import math

import numpy as np
import pytest
from scipy.stats import poisson

from phasekey.encoding import (
    AmplitudeVector,
    BitString,
    PhaseKey,
    apply_sign_flips,
    block_decomposition,
    codeword_fock,
    encode,
    encryption_channel_density,
    keygen,
    phase_rotate,
    phase_rotate_fock,
)
from phasekey.fock import (
    CapacityError,
    coherent_fock,
    overlap,
    trace_distance_numeric,
    truncation_bound,
)


class TestBitString:
    def test_weight_and_xor(self):
        u = BitString.from_text("1101")
        v = BitString.from_text("0111")
        assert u.weight == 3
        assert (u ^ v).to_text() == "1010"

    def test_rejects_empty_and_nonbinary(self):
        with pytest.raises(ValueError):
            BitString(())
        with pytest.raises(ValueError):
            BitString((0, 2))

    def test_xor_length_mismatch(self):
        with pytest.raises(ValueError):
            BitString((0,)) ^ BitString((0, 1))


class TestEncode:
    def test_all_zeros(self):
        np.testing.assert_array_equal(encode(BitString((0, 0)), 1.0).amps, [1.0, 1.0])

    def test_leading_one(self):
        np.testing.assert_array_equal(encode(BitString((1, 0)), 1.0).amps, [-1.0, 1.0])

    def test_degenerate_zero_amplitude(self):
        # alpha = 0 collapses the code: both logical values give the vacuum
        np.testing.assert_array_equal(encode(BitString((1,)), 0.0).amps, [0.0])


class TestKeygen:
    def test_singleton_key_space(self):
        assert keygen(1, 123).k == 0

    def test_deterministic_per_seed(self):
        assert keygen(100, 42) == keygen(100, 42)

    def test_uniformity_chi_square(self):
        d = 100
        draws = 10 ** 6
        rng = np.random.default_rng(7)
        counts = np.bincount(rng.integers(d, size=draws), minlength=d)
        # keygen draws through the same generator contract; spot-check a
        # prefix of individual keys against it
        probe = np.random.default_rng(7)
        sample = [keygen(d, probe.integers(2 ** 63)).k for _ in range(300)]
        assert min(sample) >= 0 and max(sample) < d
        expected = draws / d
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        dof = d - 1
        assert chi2 < dof + 5 * math.sqrt(2 * dof)

    def test_invalid_d(self):
        with pytest.raises(ValueError):
            keygen(0, 1)
        with pytest.raises(ValueError):
            PhaseKey(k=3, d=3)


class TestAmplitudeVector:
    def test_keeps_a_read_only_copy(self):
        arr = np.array([0.5, -0.5j])
        v = AmplitudeVector(arr)
        arr[0] = np.nan
        np.testing.assert_array_equal(v.amps, [0.5, -0.5j])
        with pytest.raises(ValueError, match="read-only"):
            v.amps[0] = np.nan


class TestPhaseRotate:
    def test_identity(self):
        v = AmplitudeVector(np.array([0.3 + 0.1j, -0.7]))
        np.testing.assert_array_equal(phase_rotate(v, 0.0).amps, v.amps)

    def test_pi_is_parity_flip(self):
        got = phase_rotate(AmplitudeVector(np.array([0.8])), math.pi)
        np.testing.assert_allclose(got.amps, [-0.8], atol=1e-15)

    def test_quarter_turn(self):
        got = phase_rotate(AmplitudeVector(np.array([1.0, -1.0])), math.pi / 2)
        np.testing.assert_allclose(got.amps, [-1j, 1j], atol=1e-15)

    @pytest.mark.parametrize("theta", [0.3, math.pi / 2, 2.2])
    def test_matches_number_operator_action(self, theta):
        # e^{-i theta n} on the Fock expansion lands on the rotated coherent state
        alpha = 1.1
        n_max = truncation_bound(alpha ** 2, 1e-12)
        rotated_fock = phase_rotate_fock(coherent_fock([alpha], n_max), theta)
        target = coherent_fock([alpha * np.exp(-1j * theta)], n_max)
        fidelity = abs(overlap(rotated_fock, target))
        assert fidelity >= 1 - 1e-10


class TestEncryptionChannel:
    def test_single_key_returns_plain_state(self):
        x = BitString((1, 0))
        n_max = truncation_bound(2.0)
        rho = encryption_channel_density(x, 1.0, 1, n_max)
        psi = codeword_fock(x, 1.0, n_max)
        np.testing.assert_allclose(rho.entries, np.outer(psi.amps, psi.amps.conj()),
                                   atol=1e-14)

    def test_even_d_hides_global_flip(self):
        # theta = pi sits in the key group for even d, so x and its
        # complement average to the same state
        n_max = truncation_bound(1.0)
        rho0 = encryption_channel_density(BitString((0,)), 1.0, 2, n_max)
        rho1 = encryption_channel_density(BitString((1,)), 1.0, 2, n_max)
        assert np.abs(rho0.entries - rho1.entries).max() <= 1e-12

    def test_complement_pairs_multimode(self):
        n_max = truncation_bound(2 * 0.8 ** 2)
        for d in (2, 4):
            rho_u = encryption_channel_density(BitString((0, 1)), 0.8, d, n_max)
            rho_v = encryption_channel_density(BitString((1, 0)), 0.8, d, n_max)
            assert np.abs(rho_u.entries - rho_v.entries).max() <= 1e-12

    def test_large_d_kills_off_residue_entries(self):
        # once d exceeds the largest total photon number, only entries with
        # equal totals survive
        n_max = 6
        d = 2 * n_max + 1
        rho = encryption_channel_density(BitString((0, 0)), 0.9, d, n_max)
        from phasekey.fock import total_photon_numbers

        t = total_photon_numbers(n_max, 2)
        off = t[:, None] != t[None, :]
        assert np.abs(rho.entries[off]).max() < 1e-12

    def test_is_valid_density_operator(self):
        # one mode, and two modes with several sectors per key class
        for x, alpha, n_max in [((1,), 1.0, truncation_bound(1.0, 1e-12)),
                                ((0, 0), 0.8, truncation_bound(2 * 0.8 ** 2))]:
            rho = encryption_channel_density(BitString(x), alpha, 5, n_max)
            assert np.linalg.eigvalsh(rho.entries).min() >= -1e-10
            assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-9)

    def test_invariant_under_key_group(self):
        d = 5
        n_max = truncation_bound(1.0)
        rho = encryption_channel_density(BitString((1,)), 1.0, d, n_max)
        from phasekey.fock import total_photon_numbers

        phase = np.exp(-2j * math.pi / d * total_photon_numbers(n_max, 1))
        conj = phase[:, None] * rho.entries * phase.conj()[None, :]
        assert np.abs(conj - rho.entries).max() <= 1e-12

    def test_memory_cap(self):
        with pytest.raises(CapacityError):
            encryption_channel_density(BitString((0, 0, 0)), 1.5, 4, 40)

    # one mode or two: 4097 and C(92, 2) = 4186 states, each a matrix of about 270 MB
    @pytest.mark.parametrize("m,n_max", [(1, 4096), (2, 90)])
    def test_memory_cap_counts_states(self, m, n_max):
        with pytest.raises(CapacityError, match="more than 4096 states"):
            encryption_channel_density(BitString((0,) * m), 0.5, 3, n_max)


class TestBlockDecomposition:
    def test_vacuum_input(self):
        blocks, skipped = block_decomposition(0.0, 2, 4, 5)
        assert [b.j for b in blocks] == [0]
        assert blocks[0].q_j == pytest.approx(1.0, abs=1e-15)
        assert skipped == [1, 2, 3]
        assert abs(blocks[0].gtilde.amps[0]) == pytest.approx(1.0, abs=1e-15)

    def test_weights_sum_to_one(self):
        n_max = truncation_bound(2.0, 1e-12)
        blocks, _ = block_decomposition(1.0, 2, 5, n_max)
        assert sum(b.q_j for b in blocks) == pytest.approx(1.0, abs=1e-11)

    def test_weights_match_poisson_classes(self):
        # q_j collects the Poisson(E) mass on totals congruent to j
        n_max = truncation_bound(2.0, 1e-12)
        blocks, _ = block_decomposition(1.0, 2, 5, n_max)
        for b in blocks:
            want = sum(poisson.pmf(t, 2.0) for t in range(b.j, n_max * 2 + 1, 5))
            assert b.q_j == pytest.approx(want, abs=1e-10)

    def test_blocks_have_disjoint_support(self):
        blocks, _ = block_decomposition(0.9, 2, 3, 6)
        supports = [set(np.nonzero(b.gtilde.amps)[0]) for b in blocks]
        for i in range(len(supports)):
            for j in range(i + 1, len(supports)):
                assert not (supports[i] & supports[j])
                got = overlap(blocks[i].gtilde, blocks[j].gtilde)
                assert got == 0.0

    def test_reconstruction_matches_channel(self):
        # rho_x = sum_j q_j |F_x g_j><F_x g_j| for every x, F_x the sign flips of x
        n_max = truncation_bound(2 * 0.8 ** 2, 1e-12)
        blocks, _ = block_decomposition(0.8, 2, 5, n_max)
        for x in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            dim = len(blocks[0].gtilde.amps)
            rebuilt = np.zeros((dim, dim), dtype=complex)
            for b in blocks:
                g = apply_sign_flips(b, BitString(x)).amps
                rebuilt += b.q_j * np.outer(g, g.conj())
            rho = encryption_channel_density(BitString(x), 0.8, 5, n_max)
            assert np.abs(rebuilt - rho.entries).max() <= 1e-9

    def test_single_mode_large_d_gives_poisson_weights(self):
        n_max = truncation_bound(1.0, 1e-12)
        blocks, _ = block_decomposition(1.0, 1, n_max + 1, n_max)
        for b in blocks:
            assert b.q_j == pytest.approx(math.exp(-1.0) / math.factorial(b.j), abs=1e-12)


class TestSignFlips:
    def test_zero_string_is_identity(self):
        blocks, _ = block_decomposition(1.0, 2, 3, 8)
        flipped = apply_sign_flips(blocks[1], BitString((0, 0)))
        np.testing.assert_array_equal(flipped.amps, blocks[1].gtilde.amps)

    def test_support_stays_in_class(self):
        blocks, _ = block_decomposition(1.0, 2, 3, 8)
        from phasekey.fock import total_photon_numbers

        t = total_photon_numbers(8, 2)
        flipped = apply_sign_flips(blocks[1], BitString((1, 0)))
        assert np.all(t[np.nonzero(flipped.amps)[0]] % 3 == blocks[1].j)

    def test_cross_block_overlaps_vanish(self):
        blocks, _ = block_decomposition(1.0, 2, 3, 8)
        h = apply_sign_flips(blocks[0], BitString((1, 1)))
        for b in blocks[1:]:
            assert overlap(h, b.gtilde) == 0.0

    def test_balanced_string_zeroes_the_diagonal_overlap(self):
        # m = 2, w = 1: within class j = 1 the signed mass cancels exactly
        n_max = truncation_bound(2.0, 1e-12)
        blocks, _ = block_decomposition(1.0, 2, 5, n_max)
        block1 = [b for b in blocks if b.j == 1][0]
        h = apply_sign_flips(block1, BitString((1, 0)))
        assert abs(overlap(h, block1.gtilde)) <= 1e-12

    def test_diagonal_overlap_is_real(self):
        n_max = truncation_bound(2 * 1.21, 1e-12)
        blocks, _ = block_decomposition(1.1, 2, 4, n_max)
        for b in blocks:
            h = apply_sign_flips(b, BitString((1, 0)))
            assert abs(overlap(h, b.gtilde).imag) <= 1e-12

    def test_mode_count_mismatch(self):
        blocks, _ = block_decomposition(1.0, 2, 3, 6)
        with pytest.raises(ValueError):
            apply_sign_flips(blocks[0], BitString((1, 0, 1)))


def test_channel_distance_between_complements_is_zero_numerically():
    n_max = truncation_bound(2.0)
    rho_u = encryption_channel_density(BitString((0, 0)), 1.0, 4, n_max)
    rho_v = encryption_channel_density(BitString((1, 1)), 1.0, 4, n_max)
    assert trace_distance_numeric(rho_u, rho_v) <= 1e-10
