"""Tests for the truncated Fock-space layer."""

import math

import numpy as np
import pytest
from scipy.stats import poisson

from phasekey.fock import (
    CapacityError,
    DensityOperator,
    FockVector,
    coherent_coefficients,
    coherent_fock,
    density_from_fock,
    occupation_array,
    overlap,
    total_photon_numbers,
    trace_distance_numeric,
    truncation_bound,
)


class TestCoherentCoefficients:
    def test_vacuum(self):
        np.testing.assert_array_equal(coherent_coefficients(0.0, 3), [1, 0, 0, 0])

    def test_alpha_one_first_two(self):
        b = coherent_coefficients(1.0, 1)
        # b_0 = b_1 = e^{-1/2}
        assert b[0] == pytest.approx(0.6065306597126334, abs=1e-15)
        assert b[1] == pytest.approx(b[0], abs=1e-15)

    def test_imaginary_alpha_ground_term(self):
        b = coherent_coefficients(2j, 0)
        assert b[0] == pytest.approx(math.exp(-2.0), abs=1e-15)

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 1.7, 0.8 + 0.6j, -1.2j])
    def test_normalization(self, alpha):
        n_max = truncation_bound(abs(alpha) ** 2, 1e-12)
        b = coherent_coefficients(alpha, n_max)
        assert np.vdot(b, b).real == pytest.approx(1.0, abs=1e-11)

    def test_recurrence_matches_factorial_form(self):
        alpha = 1.3 - 0.4j
        b = coherent_coefficients(alpha, 12)
        for n in range(13):
            direct = math.exp(-abs(alpha) ** 2 / 2) * alpha ** n / math.sqrt(math.factorial(n))
            assert b[n] == pytest.approx(direct, abs=1e-14)

    def test_negative_cutoff_rejected(self):
        with pytest.raises(ValueError):
            coherent_coefficients(1.0, -1)

    @pytest.mark.parametrize("alpha", [40.0, -55j])
    def test_underflowing_start_raises(self, alpha):
        # e^{-|alpha|^2/2} is 0 here: the state would be all zeros
        with pytest.raises(CapacityError, match="underflows"):
            coherent_coefficients(alpha, 3)


class TestTruncationBound:
    def test_zero_energy(self):
        assert truncation_bound(0.0, 1e-10) == 0

    def test_regression_constants(self):
        # values frozen from direct Poisson tail summation
        assert truncation_bound(1.0, 1e-10) == 12
        assert truncation_bound(10.0, 1e-12) == 39
        assert truncation_bound(2.25, 1e-10) == 17
        assert truncation_bound(4.5, 1e-10) == 24
        assert truncation_bound(6.75, 1e-10) == 29
        assert truncation_bound(40.0, 1e-14) == 97

    @pytest.mark.parametrize("E", [0.09, 1.0, 3.3, 12.0, 25.0])
    @pytest.mark.parametrize("eps", [1e-6, 1e-10, 1e-13])
    def test_against_survival_function(self, E, eps):
        n = truncation_bound(E, eps)
        assert poisson.sf(n, E) < eps
        if n > 0:
            assert poisson.sf(n - 1, E) >= eps

    def test_tightening_eps_never_shrinks_cutoff(self):
        bounds = [truncation_bound(5.0, eps) for eps in (1e-4, 1e-8, 1e-12)]
        assert bounds == sorted(bounds)

    def test_hard_cap(self):
        with pytest.raises(CapacityError):
            truncation_bound(6000.0, 1e-12)

    @pytest.mark.parametrize("E", [746.0, 800.0, 1600.0])
    def test_underflowing_start_raises(self, E):
        # e^{-E} is 0 here, which would give cutoff 0
        with pytest.raises(CapacityError, match="underflows"):
            truncation_bound(E)

    def test_bad_eps(self):
        with pytest.raises(ValueError):
            truncation_bound(1.0, 0.0)


class TestIndexing:
    def test_occupation_array_lexicographic(self):
        rows = occupation_array(1, 2)
        np.testing.assert_array_equal(rows, [[0, 0], [0, 1], [1, 0], [1, 1]])

    def test_totals_match_tuples(self):
        occ = occupation_array(3, 2)
        np.testing.assert_array_equal(total_photon_numbers(3, 2), occ.sum(axis=1))

    def test_kron_consistency(self):
        a, b = 0.7, -0.4 + 0.2j
        joint = coherent_fock([a, b], 6)
        manual = np.kron(coherent_coefficients(a, 6), coherent_coefficients(b, 6))
        np.testing.assert_allclose(joint.amps, manual, atol=1e-15)


class TestFockVector:
    def test_multimode_norm_within_truncation(self):
        n_max = truncation_bound(3 * 1.0, 1e-10)
        psi = coherent_fock([1.0, -1.0, 1.0], n_max)
        assert psi.squared_norm() >= 1 - 1e-10
        assert psi.squared_norm() <= 1 + 1e-12

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            FockVector(cutoff=2, modes=2, amps=np.zeros(5))


class TestOverlap:
    def test_self_overlap(self):
        psi = coherent_fock([0.9], truncation_bound(0.81, 1e-12))
        assert overlap(psi, psi).real == pytest.approx(1.0, abs=1e-11)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 1.5, 2.0])
    def test_opposite_coherent_states(self, alpha):
        n_max = truncation_bound(alpha ** 2)
        u = coherent_fock([alpha], n_max)
        v = coherent_fock([-alpha], n_max)
        assert overlap(u, v) == pytest.approx(math.exp(-2 * alpha ** 2), abs=1e-10)

    def test_general_coherent_overlap_identity(self):
        # <alpha|beta> = exp(-(|alpha|^2+|beta|^2)/2 + conj(alpha) beta)
        alpha, beta = 1.0, 1.0j
        n_max = truncation_bound(1.0, 1e-13) + 4
        got = overlap(coherent_fock([alpha], n_max), coherent_fock([beta], n_max))
        want = np.exp(-(abs(alpha) ** 2 + abs(beta) ** 2) / 2 + np.conj(alpha) * beta)
        assert got == pytest.approx(want, abs=1e-10)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            overlap(coherent_fock([1.0], 5), coherent_fock([1.0], 6))


def _random_density(rng, dim, rank=3):
    rho = np.zeros((dim, dim), dtype=complex)
    weights = rng.dirichlet(np.ones(rank))
    for wgt in weights:
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        rho += wgt * np.outer(v, v.conj())
    return DensityOperator(rho)


class TestTraceDistance:
    def test_identical_states(self):
        rho = density_from_fock(coherent_fock([0.8], 10))
        assert trace_distance_numeric(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        zero = np.zeros(4, dtype=complex)
        one = zero.copy()
        zero[0] = 1.0
        one[1] = 1.0
        rho = DensityOperator(np.outer(zero, zero.conj()))
        sig = DensityOperator(np.outer(one, one.conj()))
        assert trace_distance_numeric(rho, sig) == pytest.approx(1.0, abs=1e-14)

    def test_opposite_coherent_states_closed_form(self):
        # sqrt(1 - e^{-4}) for alpha = 1
        n_max = truncation_bound(1.0, 1e-12)
        rho = density_from_fock(coherent_fock([1.0], n_max))
        sig = density_from_fock(coherent_fock([-1.0], n_max))
        got = trace_distance_numeric(rho, sig)
        assert got == pytest.approx(0.9907998592608226, abs=1e-8)

    def test_metric_properties_on_random_triples(self):
        rng = np.random.default_rng(20260817)
        for _ in range(25):
            a, b, c = (_random_density(rng, 6) for _ in range(3))
            dab = trace_distance_numeric(a, b)
            dba = trace_distance_numeric(b, a)
            assert dab == pytest.approx(dba, abs=1e-12)
            assert dab >= 0.0
            assert dab <= trace_distance_numeric(a, c) + trace_distance_numeric(c, b) + 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            trace_distance_numeric(
                density_from_fock(coherent_fock([1.0], 4)),
                density_from_fock(coherent_fock([1.0], 5)),
            )


class TestDensityOperator:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            DensityOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_validate_contract(self):
        rho = density_from_fock(coherent_fock([0.6], truncation_bound(0.36)))
        rho.validate(expected_trace=rho.entries.trace().real)

    def test_validate_flags_bad_trace(self):
        rho = DensityOperator(0.5 * np.eye(3))
        with pytest.raises(ValueError):
            rho.validate(expected_trace=1.0)
