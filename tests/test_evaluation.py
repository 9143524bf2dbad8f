"""Tests for the allowed homomorphic operations."""

import functools
import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm, logm

from phasekey.encoding import AmplitudeVector, phase_rotate, phase_rotate_fock
from phasekey.evaluation import (
    Interferometer,
    NonlinearPhaseSpec,
    apply_interferometer,
    cat_state_target,
    haar_random_unitary,
    interferometer_fock,
    kerr_cat_reference,
    nonlinear_phase_evolve,
)
from phasekey.fock import (
    FockVector,
    coherent_fock,
    occupation_array,
    overlap,
    total_photon_numbers,
    truncation_bound,
)


def _random_fock(rng, n_max, modes):
    dim = len(total_photon_numbers(n_max, modes))
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return FockVector(cutoff=n_max, modes=modes, amps=amps / np.linalg.norm(amps))


def _number_state(n_max, z):
    """The number state |z> on the grid of cutoff n_max."""
    amps = (occupation_array(n_max, len(z)) == z).all(axis=1).astype(complex)
    return FockVector(cutoff=n_max, modes=len(z), amps=amps)


def _amplitude(psi, z):
    """<z|psi>, read through the grid's occupations."""
    return psi.amps[(occupation_array(psi.cutoff, psi.modes) == z).all(axis=1)].item()


def _truncated_lowering(n_max, modes):
    """a_k on the (n_max+1)^modes product grid, one dense matrix per mode."""
    lower = np.diag(np.sqrt(np.arange(1.0, n_max + 1)), 1)
    eye = np.eye(n_max + 1)
    return [functools.reduce(np.kron, [lower if i == k else eye for i in range(modes)])
            for k in range(modes)]


def _expm_per_block(gen, psi):
    """expm(gen) applied one total-photon block at a time.

    gen lives on the product grid of _truncated_lowering, whose ladder
    matrices give exact matrix elements between kept occupations.  A block
    with total n <= n_max has no occupation at the cutoff's edge, so there
    expm is the exact lifted unitary; those are the grid's blocks, read at
    the grid's occupations in the grid's order.
    """
    keep = occupation_array(psi.cutoff, psi.modes) @ (
        (psi.cutoff + 1) ** np.arange(psi.modes - 1, -1, -1))
    gen = gen[np.ix_(keep, keep)]
    totals = total_photon_numbers(psi.cutoff, psi.modes)
    out = psi.amps.copy()
    for n in np.unique(totals):
        idx = np.nonzero(totals == n)[0]
        out[idx] = expm(gen[np.ix_(idx, idx)]) @ psi.amps[idx]
    return out


def _reference_interferometer_fock(u, psi):
    """h = i logm(u), H = sum_jk h_jk a_j^dag a_k densely, expm(-iH) per block."""
    h = 1j * logm(u.u)
    h = 0.5 * (h + h.conj().T)
    a = _truncated_lowering(psi.cutoff, psi.modes)
    big_h = sum(h[j, k] * (a[j].T @ a[k])
                for j in range(psi.modes) for k in range(psi.modes))
    return _expm_per_block(-1j * big_h, psi)


@functools.lru_cache(maxsize=None)
def _ryser_subsets(n):
    subsets = np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.longdouble)
    return subsets, (-1.0) ** (n - subsets.sum(axis=1))


def _permanent(a):
    """Ryser's formula, in extended precision: its alternating sum cancels."""
    subsets, signs = _ryser_subsets(a.shape[0])
    return complex(np.sum(signs * np.prod(a.astype(np.clongdouble) @ subsets.T, axis=0)))


def _permanent_lift(u, n_max):
    """<z'|U|z> = perm(u[z', z]) / sqrt(z'! z!) on the whole (n_max+1)^m grid."""
    occ = occupation_array(n_max, u.modes)
    totals = occ.sum(axis=1)
    norms = np.array([math.prod(math.factorial(int(c)) for c in z) for z in occ], dtype=float)
    modes = [np.repeat(np.arange(u.modes), z) for z in occ]
    lift = np.zeros((len(occ), len(occ)), dtype=complex)
    for r, c in zip(*np.nonzero(totals[:, None] == totals[None, :])):
        lift[r, c] = _permanent(u.u[np.ix_(modes[r], modes[c])]) / math.sqrt(norms[r] * norms[c])
    return lift


def _lifted_matrix(u, n_max):
    """interferometer_fock applied to every number state of the grid."""
    basis = np.eye(len(occupation_array(n_max, u.modes)))
    return np.stack([interferometer_fock(u, FockVector(cutoff=n_max, modes=u.modes, amps=e)).amps
                     for e in basis], axis=1)


# Grids for the permanent checks, small enough for Ryser's 2^n terms.
_PERMANENT_CUTOFF = {1: 6, 2: 5, 3: 3}


def _rotation(theta):
    """Mode matrix of the beamsplitter exp(theta (a^dag b - a b^dag))."""
    return Interferometer(np.array([[math.cos(theta), math.sin(theta)],
                                    [-math.sin(theta), math.cos(theta)]]))


def _with_eigenvalues(seed, eigenvalues):
    """Unitary with the given eigenvalues on a Haar-random eigenbasis."""
    v = haar_random_unitary(len(eigenvalues), seed).u
    return v @ np.diag(eigenvalues) @ v.conj().T


# Hard cases for a matrix logarithm: a -1 eigenvalue whose rounded angle
# is +pi (seed 0) or -pi (seed 3), and a repeated eigenvalue, for which
# eigensolvers return eigenvectors far from orthogonal.  Whichever branch
# logm takes, the logm/expm reference is exact on totals <= n_max.
_EDGE_UNITARIES = {
    "rotated-minus-one-0": _with_eigenvalues(0, [-1.0, np.exp(0.3j)]),
    "rotated-minus-one-3": _with_eigenvalues(3, [-1.0, np.exp(0.3j)]),
    "repeated-eigenvalue": _with_eigenvalues(
        0, [np.exp(0.5j), np.exp(0.5j), np.exp(-0.9j)]),
    "phase-flip": np.array([[-1.0]]),
    "hadamard": np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2),
    "minus-identity": -np.eye(2),
    "identity-2": np.eye(2),
    "identity-3": np.eye(3),
    "three-cycle": np.eye(3)[[1, 2, 0]],
    "swap-of-three": np.eye(3)[[1, 0, 2]],
}


class TestInterferometer:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            Interferometer(np.array([[1.0, 0.1], [0.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            Interferometer(np.ones((2, 3)))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, complex(0, math.inf), 1e200],
                             ids=["inf", "-inf", "imag-inf", "1e200"])
    def test_rejects_unbounded_entry_without_warnings(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not unitary"):
                Interferometer(np.array([[bad, 0.0], [0.0, 1.0]]))

    def test_keeps_a_read_only_copy(self):
        arr = np.eye(2, dtype=complex)
        gate = Interferometer(arr)
        arr[0, 0] = 7
        np.testing.assert_array_equal(gate.u, np.eye(2))
        with pytest.raises(ValueError, match="read-only"):
            gate.u[0, 0] = 7

    def test_haar_unitarity(self):
        u = haar_random_unitary(4, 3)
        assert np.abs(u.u.conj().T @ u.u - np.eye(4)).max() < 1e-12

    def test_haar_single_mode_is_a_phase(self):
        u = haar_random_unitary(1, 5)
        assert abs(abs(u.u[0, 0]) - 1.0) < 1e-12

    def test_haar_deterministic_and_seed_sensitive(self):
        np.testing.assert_array_equal(haar_random_unitary(3, 9).u,
                                      haar_random_unitary(3, 9).u)
        assert np.abs(haar_random_unitary(3, 9).u - haar_random_unitary(3, 10).u).max() > 1e-3


class TestApplyInterferometer:
    def test_identity(self):
        v = AmplitudeVector(np.array([0.3, -0.8j]))
        got = apply_interferometer(Interferometer(np.eye(2)), v)
        np.testing.assert_array_equal(got.amps, v.amps)

    def test_balanced_splitter_merges_equal_inputs(self):
        u = Interferometer(np.array([[1, 1], [1, -1]]) / math.sqrt(2))
        alpha = 0.9
        got = apply_interferometer(u, AmplitudeVector(np.array([alpha, alpha])))
        np.testing.assert_allclose(got.amps, [math.sqrt(2) * alpha, 0.0], atol=1e-15)

    def test_balanced_splitter_against_fock_evolution(self):
        # the same matrix applied in the number basis must land on the
        # coherent state of the mapped amplitudes
        alpha = 0.9
        u = Interferometer(np.array([[1, 1], [1, -1]]) / math.sqrt(2))
        n_max = truncation_bound(2 * alpha ** 2, 1e-12) + 6
        evolved = interferometer_fock(u, coherent_fock([alpha, alpha], n_max))
        target = coherent_fock([math.sqrt(2) * alpha, 0.0], n_max)
        assert abs(overlap(evolved, target)) >= 1 - 1e-9

    def test_commutes_with_phase_rotation(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = int(rng.integers(1, 5))
            u = haar_random_unitary(m, int(rng.integers(2 ** 32)))
            v = AmplitudeVector(rng.standard_normal(m) + 1j * rng.standard_normal(m))
            theta = float(rng.uniform(0, 2 * math.pi))
            left = apply_interferometer(u, phase_rotate(v, theta))
            right = phase_rotate(apply_interferometer(u, v), theta)
            assert np.abs(left.amps - right.amps).max() <= 1e-12

    def test_energy_conservation(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            u = haar_random_unitary(4, int(rng.integers(2 ** 32)))
            v = AmplitudeVector(rng.standard_normal(4) + 1j * rng.standard_normal(4))
            got = apply_interferometer(u, v)
            assert got.total_energy() == pytest.approx(v.total_energy(), abs=1e-12)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            apply_interferometer(Interferometer(np.eye(3)), AmplitudeVector(np.ones(2)))


class TestNonlinearPhase:
    def test_zero_time_is_identity(self):
        psi = coherent_fock([0.8], 10)
        spec = NonlinearPhaseSpec(terms={(2,): 1.0}, t=0.0)
        np.testing.assert_array_equal(nonlinear_phase_evolve(spec, psi).amps, psi.amps)

    def test_single_mode_kerr_fixes_low_occupations(self):
        # phases -tK(n^2 - n) vanish at n = 0 and n = 1
        psi = coherent_fock([1.1], 12)
        spec = NonlinearPhaseSpec(terms={(1,): -0.7, (2,): 0.7}, t=1.3)
        evolved = nonlinear_phase_evolve(spec, psi)
        np.testing.assert_allclose(evolved.amps[:2], psi.amps[:2], atol=1e-15)
        assert abs(evolved.amps[2] - psi.amps[2]) > 1e-3

    def test_cross_kerr_phase_on_number_state(self):
        psi = _number_state(5, (2, 3))
        spec = NonlinearPhaseSpec(terms={(1, 1): 0.4}, t=0.9)
        evolved = nonlinear_phase_evolve(spec, psi)
        got = _amplitude(evolved, (2, 3))
        assert got == pytest.approx(np.exp(-1j * 0.4 * 0.9 * 6), abs=1e-14)

    def test_number_distribution_preserved(self):
        psi = coherent_fock([0.9, -0.5], 6)
        spec = NonlinearPhaseSpec(terms={(2, 0): 0.3, (1, 1): -0.2}, t=2.0)
        evolved = nonlinear_phase_evolve(spec, psi)
        np.testing.assert_allclose(np.abs(evolved.amps) ** 2, np.abs(psi.amps) ** 2,
                                   atol=1e-14)

    @pytest.mark.parametrize("terms, t", [({(400,): 1.0}, 1.0), ({(2,): 1.0}, 1e308),
                                          ({(2,): 1e308}, 1.0)],
                             ids=["exps-400", "t-1e308", "g-1e308"])
    def test_overflowing_phase_raises_without_warnings(self, terms, t):
        psi = coherent_fock([1.0], truncation_bound(1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows a double"):
                nonlinear_phase_evolve(NonlinearPhaseSpec(terms=terms, t=t), psi)

    def test_large_finite_phase_is_applied(self):
        # t phi(z) reaches 1.2e301 at the cutoff, still a finite double
        psi = coherent_fock([1.0], 12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            evolved = nonlinear_phase_evolve(NonlinearPhaseSpec(terms={(1,): 1e300}), psi)
        np.testing.assert_allclose(np.abs(evolved.amps), np.abs(psi.amps), rtol=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            NonlinearPhaseSpec(terms={(0, 0): 1.0})
        with pytest.raises(ValueError):
            NonlinearPhaseSpec(terms={(-1,): 1.0})
        with pytest.raises(ValueError):
            NonlinearPhaseSpec(terms={})
        with pytest.raises(ValueError):
            NonlinearPhaseSpec(terms={(1,): 1.0, (1, 1): 2.0})


class TestKerrCat:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
    def test_cat_identity(self, alpha):
        n_max = truncation_bound(alpha ** 2, 1e-12) + 4
        evolved = kerr_cat_reference(alpha, n_max)
        target = cat_state_target(alpha, n_max)
        assert abs(overlap(evolved, target)) >= 1 - 1e-8

    def test_vacuum_input(self):
        evolved = kerr_cat_reference(0.0, 5)
        assert abs(evolved.amps[0]) == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(evolved.amps[1:], 0.0, atol=1e-15)

    def test_number_distribution_unchanged(self):
        alpha = 1.2
        n_max = truncation_bound(alpha ** 2, 1e-12)
        evolved = kerr_cat_reference(alpha, n_max)
        plain = coherent_fock([alpha], n_max)
        np.testing.assert_allclose(np.abs(evolved.amps) ** 2, np.abs(plain.amps) ** 2,
                                   atol=1e-16)

    def test_matches_general_phase_gate(self):
        alpha = 0.8
        n_max = 12
        spec = NonlinearPhaseSpec(terms={(2,): 1.0}, t=math.pi / 2)
        via_gate = nonlinear_phase_evolve(spec, coherent_fock([alpha], n_max))
        np.testing.assert_allclose(via_gate.amps, kerr_cat_reference(alpha, n_max).amps,
                                   atol=1e-14)


class TestBeamsplitterFock:
    """exp(theta (a^dag b - a b^dag)) as interferometer_fock of _rotation(theta)."""

    def test_zero_angle_is_identity(self):
        psi = coherent_fock([0.5, -0.3], 5)
        np.testing.assert_array_equal(interferometer_fock(_rotation(0.0), psi).amps, psi.amps)

    def test_single_photon_block_against_expm(self):
        n_max = 3
        psi = _number_state(n_max, (1, 0))
        got = interferometer_fock(_rotation(math.pi / 4), psi)
        # oracle: the n = 1 sector generator is [[0, -1], [1, 0]] in the
        # ordered basis (|0,1>, |1,0>)
        block = expm(math.pi / 4 * np.array([[0.0, -1.0], [1.0, 0.0]]))
        want01, want10 = block @ np.array([0.0, 1.0])
        assert _amplitude(got, (0, 1)) == pytest.approx(want01, abs=1e-12)
        assert _amplitude(got, (1, 0)) == pytest.approx(want10, abs=1e-12)
        assert abs(abs(_amplitude(got, (1, 0))) - 1 / math.sqrt(2)) < 1e-12
        # every sector, n = 0 .. n_max, against expm of a^dag b - a b^dag
        # built from truncated ladder matrices and against the permanent formula
        psi = _random_fock(np.random.default_rng(15), n_max, 2)
        a, b = _truncated_lowering(n_max, 2)
        want = _expm_per_block(math.pi / 4 * (a.T @ b - a @ b.T), psi)
        np.testing.assert_allclose(interferometer_fock(_rotation(math.pi / 4), psi).amps, want,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(_lifted_matrix(_rotation(math.pi / 4), n_max),
                                   _permanent_lift(_rotation(math.pi / 4), n_max),
                                   rtol=0, atol=1e-12)

    def test_total_photon_distribution_invariant(self):
        rng = np.random.default_rng(8)
        psi = _random_fock(rng, 5, 2)
        evolved = interferometer_fock(_rotation(1.1), psi)
        t = total_photon_numbers(5, 2)
        for n in range(6):
            before = float(np.sum(np.abs(psi.amps[t == n]) ** 2))
            after = float(np.sum(np.abs(evolved.amps[t == n]) ** 2))
            assert after == pytest.approx(before, abs=1e-10)

    def test_coherent_amplitude_map(self):
        # exp(theta (a^dag b - a b^dag)) sends |beta, gamma> to the coherent
        # state of the rotated amplitudes
        theta = 0.37
        beta, gamma = 0.6, -0.8
        n_max = truncation_bound(1.0, 1e-12) + 8
        evolved = interferometer_fock(_rotation(theta), coherent_fock([beta, gamma], n_max))
        rot = np.array([[math.cos(theta), math.sin(theta)],
                        [-math.sin(theta), math.cos(theta)]])
        target = coherent_fock(rot @ np.array([beta, gamma]), n_max)
        assert abs(overlap(evolved, target)) >= 1 - 1e-9

    def test_norm_preserved(self):
        rng = np.random.default_rng(9)
        psi = _random_fock(rng, 6, 2)
        out = interferometer_fock(_rotation(0.8), psi)
        assert np.vdot(out.amps, out.amps).real == pytest.approx(1.0, abs=1e-12)

    def test_mode_count_guard(self):
        with pytest.raises(ValueError):
            interferometer_fock(_rotation(0.5), coherent_fock([1.0], 4))


class TestInterferometerFock:
    def test_matches_beamsplitter_for_rotations(self):
        theta = 0.61
        rng = np.random.default_rng(10)
        psi = _random_fock(rng, 5, 2)
        via_lift = interferometer_fock(_rotation(theta), psi)
        a, b = _truncated_lowering(5, 2)
        via_blocks = _expm_per_block(theta * (a.T @ b - a @ b.T), psi)
        np.testing.assert_allclose(via_lift.amps, via_blocks, atol=1e-10)

    @pytest.mark.parametrize("m", [2, 3])
    def test_coherent_amplitude_map(self, m):
        u = haar_random_unitary(m, 77 + m)
        amps_in = np.array([0.5, -0.4, 0.3][:m])
        n_max = truncation_bound(float(np.sum(np.abs(amps_in) ** 2)), 1e-12) + 6
        evolved = interferometer_fock(u, coherent_fock(amps_in, n_max))
        target = coherent_fock(u.u @ amps_in, n_max)
        assert abs(overlap(evolved, target)) >= 1 - 1e-9

    def test_coherent_amplitude_map_at_high_photon_number(self):
        # totals up to ~170: the recursion must not amplify its rounding
        u = haar_random_unitary(2, 5)
        amps_in = math.sqrt(50.0) * np.array([1.0, np.exp(1j)])
        n_max = truncation_bound(100.0)
        evolved = interferometer_fock(u, coherent_fock(amps_in, n_max))
        np.testing.assert_allclose(evolved.amps, coherent_fock(u.u @ amps_in, n_max).amps,
                                   rtol=0, atol=1e-12)

    def test_permutation_matrix(self):
        u = Interferometer(np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float))
        amps_in = np.array([0.4, -0.2, 0.1])
        n_max = truncation_bound(float(np.sum(np.abs(amps_in) ** 2)), 1e-12) + 6
        evolved = interferometer_fock(u, coherent_fock(amps_in, n_max))
        target = coherent_fock(u.u @ amps_in, n_max)
        assert abs(overlap(evolved, target)) >= 1 - 1e-10

    def test_norm_preserved(self):
        rng = np.random.default_rng(12)
        psi = _random_fock(rng, 4, 2)
        u = haar_random_unitary(2, 44)
        out = interferometer_fock(u, psi)
        assert np.vdot(out.amps, out.amps).real == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n_max", [4, 5, 6])
    def test_haar_against_logm_expm_reference(self, m, n_max):
        rng = np.random.default_rng(100 * m + n_max)
        for seed in range(3):
            u = haar_random_unitary(m, 1000 * m + 10 * n_max + seed)
            psi = _random_fock(rng, n_max, m)
            np.testing.assert_allclose(interferometer_fock(u, psi).amps,
                                       _reference_interferometer_fock(u, psi),
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", sorted(_EDGE_UNITARIES))
    def test_edge_unitaries_against_logm_expm_reference(self, name):
        u = Interferometer(_EDGE_UNITARIES[name])
        rng = np.random.default_rng(len(name))
        for n_max in (4, 5, 6):
            psi = _random_fock(rng, n_max, u.modes)
            np.testing.assert_allclose(interferometer_fock(u, psi).amps,
                                       _reference_interferometer_fock(u, psi),
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_haar_against_permanents(self, m):
        n_max = _PERMANENT_CUTOFF[m]
        for seed in range(3):
            u = haar_random_unitary(m, 1000 * m + 10 * n_max + seed)
            np.testing.assert_allclose(_lifted_matrix(u, n_max), _permanent_lift(u, n_max),
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", sorted(_EDGE_UNITARIES))
    def test_edge_unitaries_against_permanents(self, name):
        u = Interferometer(_EDGE_UNITARIES[name])
        n_max = _PERMANENT_CUTOFF[u.modes]
        np.testing.assert_allclose(_lifted_matrix(u, n_max), _permanent_lift(u, n_max),
                                   rtol=0, atol=1e-12)


class TestFockLevelCommutation:
    def test_global_phase_commutes_with_nonlinear_gate(self):
        rng = np.random.default_rng(13)
        spec = NonlinearPhaseSpec(terms={(2, 0): 0.5, (1, 1): -0.3}, t=1.7)
        for _ in range(5):
            psi = _random_fock(rng, 4, 2)
            theta = float(rng.uniform(0, 2 * math.pi))
            left = nonlinear_phase_evolve(spec, phase_rotate_fock(psi, theta))
            right = phase_rotate_fock(nonlinear_phase_evolve(spec, psi), theta)
            assert np.abs(left.amps - right.amps).max() <= 1e-10

    def test_global_phase_commutes_with_beamsplitter(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            psi = _random_fock(rng, 4, 2)
            theta = float(rng.uniform(0, 2 * math.pi))
            left = interferometer_fock(_rotation(0.75), phase_rotate_fock(psi, theta))
            right = phase_rotate_fock(interferometer_fock(_rotation(0.75), psi), theta)
            assert np.abs(left.amps - right.amps).max() <= 1e-10
