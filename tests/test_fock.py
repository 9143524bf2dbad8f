"""Tests for the truncated Fock-space layer."""

import math

import numpy as np
import pytest
from scipy.stats import poisson

from phasekey.encoding import BitString, encryption_channel_density
from phasekey.fock import (
    SECTOR_LEAK_TOL,
    CapacityError,
    DensityOperator,
    FockVector,
    coherent_coefficients,
    coherent_fock,
    density_from_fock,
    distance_cutoff,
    occupation_array,
    overlap,
    poisson_terms,
    sector_tables,
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

    @pytest.mark.parametrize("alpha", [1e9, 1e10, -1e150j])
    def test_huge_amplitude_is_zero_below_the_cutoff(self, alpha):
        # every b_n with n <= 3 is far below the smallest double
        assert not np.any(coherent_coefficients(alpha, 3))

    def test_negative_cutoff_rejected(self):
        with pytest.raises(ValueError):
            coherent_coefficients(1.0, -1)

    @pytest.mark.parametrize("alpha", [40.0, -55j])
    def test_large_amplitude_matches_log_form(self, alpha):
        # e^{-|alpha|^2/2} underflows here; the recurrence starts where |b_n| is normal
        E = abs(alpha) ** 2
        b = coherent_coefficients(alpha, truncation_bound(E, 1e-12))
        assert np.vdot(b, b).real == pytest.approx(1.0, abs=1e-10)
        phase = alpha / abs(alpha)
        for n in (int(E) - 200, int(E) - 3, int(E), int(E) + 150):
            want = math.exp(n * math.log(abs(alpha)) - E / 2 - math.lgamma(n + 1) / 2) * phase ** n
            assert b[n] == pytest.approx(want, rel=1e-9)


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
    def test_start_past_zero_matches_survival_function(self, E):
        # e^{-E} is 0 here; the series starts at its first normal term
        n = truncation_bound(E)
        assert poisson.sf(n, E) < 1e-10 <= poisson.sf(n - 1, E)

    def test_bad_eps(self):
        with pytest.raises(ValueError):
            truncation_bound(1.0, 0.0)

    # 1.4917e-151 is about the smallest tol whose tol^2 * 1e-6 is a normal double
    @pytest.mark.parametrize("tol", [1.4917e-151, 1e-10, 1e-6, 0.5])
    def test_distance_cutoff_is_the_bound_at_tol_squared(self, tol):
        assert distance_cutoff(3.3, tol) == truncation_bound(3.3, tol ** 2)

    @pytest.mark.parametrize("series", [poisson_terms, truncation_bound])
    def test_nan_energy_is_a_value_error(self, series):
        # not CapacityError: the CLI would report exit 3, capacity exceeded
        with pytest.raises(ValueError, match="nonnegative, got nan"):
            series(math.nan)

    @pytest.mark.parametrize("series", [poisson_terms, truncation_bound])
    def test_infinite_energy_stays_a_capacity_error(self, series):
        with pytest.raises(CapacityError, match="at energy inf"):
            series(math.inf)


class TestIndexing:
    def test_occupation_array_lexicographic(self):
        # total first, then lexicographic with the first mode most significant
        rows = occupation_array(2, 2)
        np.testing.assert_array_equal(rows, [[0, 0], [0, 1], [1, 0], [0, 2], [1, 1], [2, 0]])

    def test_totals_match_tuples(self):
        occ = occupation_array(3, 2)
        np.testing.assert_array_equal(total_photon_numbers(3, 2), occ.sum(axis=1))

    @pytest.mark.parametrize("n_max, modes", [(0, 5), (3, 1), (1, 4), (4, 3)])
    def test_sector_sizes_count_the_totals(self, n_max, modes):
        np.testing.assert_array_equal(np.diff(sector_tables(n_max, modes)[0]),
                                      np.bincount(total_photon_numbers(n_max, modes)))

    def test_kron_consistency(self):
        a, b = 0.7, -0.4 + 0.2j
        joint = coherent_fock([a, b], 6)
        manual = np.kron(coherent_coefficients(a, 6), coherent_coefficients(b, 6))
        # np.kron's entry for (z_1, z_2) sits at 7 z_1 + z_2; every one kept has its bits
        occ = occupation_array(6, 2)
        np.testing.assert_array_equal(joint.amps, manual[7 * occ[:, 0] + occ[:, 1]])


class TestFockVector:
    def test_multimode_norm_within_truncation(self):
        n_max = truncation_bound(3 * 1.0, 1e-10)
        psi = coherent_fock([1.0, -1.0, 1.0], n_max)
        assert psi.squared_norm() >= 1 - 1e-10
        assert psi.squared_norm() <= 1 + 1e-12

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            FockVector(cutoff=2, modes=2, amps=np.zeros(5))

    def test_keeps_a_read_only_copy(self):
        arr = np.array([0.5, -0.5j, 0.25])
        psi = FockVector(cutoff=2, modes=1, amps=arr)
        arr[0] = np.nan
        np.testing.assert_array_equal(psi.amps, [0.5, -0.5j, 0.25])
        with pytest.raises(ValueError, match="read-only"):
            psi.amps[0] = np.nan


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0, math.nan)])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_rejects_non_finite_entries(self, bad, where):
        # RuntimeWarnings are errors in this suite, so this also asserts
        # that the check emits no numpy warning
        entries = np.eye(2, dtype=complex)
        entries[where] = bad
        with pytest.raises(ValueError, match="finite"):
            DensityOperator(entries)

    def test_nan_state_has_no_trace_distance(self):
        # a NaN on the diagonal used to give distance 0.0, "perfectly hidden"
        with pytest.raises(ValueError, match="finite"):
            trace_distance_numeric(DensityOperator([[math.nan, 0.0], [0.0, 1.0]]),
                                   DensityOperator(np.eye(2)))

    def test_rejects_hermitian_difference_that_overflows(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityOperator(np.array([[0.0, 1e308], [-1e308, 0.0]]))

    # 300 states make tiles 0-127, 128-255 and a partial 256-299; each bad
    # entry sits in an off-diagonal tile, its mirror, or the partial tile
    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, math.nan), 1e-11j])
    @pytest.mark.parametrize("where", [(5, 200), (200, 5), (10, 290), (290, 10),
                                       (260, 299), (299, 299)])
    def test_rejects_a_bad_entry_in_any_tile(self, bad, where):
        # 1e-11j added to one entry alone breaks Hermiticity by more than 1e-12
        entries = np.eye(300, dtype=complex) / 300
        entries[where] += bad
        with pytest.raises(ValueError, match="finite and Hermitian"):
            DensityOperator(entries)

    def test_accepts_deviation_up_to_the_rule_in_every_tile(self):
        entries = np.eye(300, dtype=complex) / 300
        for where in [(5, 200), (10, 290), (260, 299)]:
            entries[where] += 0.9e-12j
        DensityOperator(entries)

    @pytest.mark.parametrize("shape", [(0, 0), (2, 3), (4,)])
    def test_rejects_empty_or_non_square_entries(self, shape):
        with pytest.raises(ValueError, match="square matrix"):
            DensityOperator(np.zeros(shape))


# --- sector-wise eigensolve ---------------------------------------------------

def _full_eigvalsh_distance(rho, sigma):
    """Reference: one eigensolve of the whole difference, labels ignored."""
    return 0.5 * float(np.abs(np.linalg.eigvalsh(rho.entries - sigma.entries)).sum())


def _whole_difference_distance(rho, sigma):
    """Reference: the sector-wise distance from the whole difference rho - sigma, formed first."""
    mat = rho.entries - sigma.entries
    sectors = (rho.sectors if np.array_equal(rho.sectors, sigma.sectors)
               else np.zeros(rho.dim, dtype=np.int64))
    lams = []
    leak = 0.0
    order = np.argsort(sectors, kind="stable")
    for idx in np.split(order, np.flatnonzero(np.diff(sectors[order])) + 1):
        rows = mat[idx]
        lams.append(np.linalg.eigvalsh(rows[:, idx]))
        rows[:, idx] = 0.0
        leak += float(np.vdot(rows, rows).real)
    assert 0.5 * math.sqrt(len(mat) * leak) <= SECTOR_LEAK_TOL
    return 0.5 * float(np.abs(np.concatenate(lams)).sum())


def _channel_pair(m, alpha, d, w):
    n_max = truncation_bound(m * alpha ** 2)
    u = BitString((0,) * m)
    v = BitString(tuple([1] * w + [0] * (m - w)))
    return (encryption_channel_density(u, alpha, d, n_max),
            encryption_channel_density(v, alpha, d, n_max))


# the dense-oracle shapes of checks._check_encrypted_dense, then those of
# test_security.TestDistanceOracle (3375 states at m = 3)
DENSE_ORACLE_SHAPES = [(m, alpha, d, w)
                       for m in (1, 2) for alpha in (0.3, 0.7, 1.0) for d in (2, 3, 5)
                       for w in range(m + 1)]
DENSE_ORACLE_SHAPES += [(1, 0.7, 3, 1), (2, 1.0, 5, 1), (2, 1.0, 5, 2), (3, 0.7, 4, 2)]


class TestSectorEigensolve:
    @pytest.mark.parametrize("m,alpha,d,w", DENSE_ORACLE_SHAPES)
    def test_labelled_distance_equals_full_eigensolve(self, m, alpha, d, w):
        rho, sigma = _channel_pair(m, alpha, d, w)
        t = total_photon_numbers(truncation_bound(m * alpha ** 2), m)
        np.testing.assert_array_equal(rho.sectors, t % d)
        np.testing.assert_array_equal(sigma.sectors, t % d)
        got = trace_distance_numeric(rho, sigma)
        # the rows of each sector are subtracted on their own: same bits
        assert got == _whole_difference_distance(rho, sigma)
        assert abs(got - _full_eigvalsh_distance(rho, sigma)) <= 1e-12

    def test_labels_cutting_a_coupled_difference_are_refused(self):
        # two coherent states couple every total photon number with every other
        n_max = truncation_bound(1.0, 1e-12)
        parity = total_photon_numbers(n_max, 1) % 2
        rho = DensityOperator(density_from_fock(coherent_fock([1.0], n_max)).entries,
                              sectors=parity)
        sigma = DensityOperator(density_from_fock(coherent_fock([-1.0], n_max)).entries,
                                sectors=parity)
        with pytest.raises(ValueError, match="not block diagonal"):
            trace_distance_numeric(rho, sigma)

    def test_leak_just_above_the_bound_is_refused(self):
        # E = [[0, eps], [eps, 0]] has (1/2) sqrt(2) ||E||_F = eps
        eps = 2 * SECTOR_LEAK_TOL
        rho = DensityOperator(np.array([[0.5, eps], [eps, 0.5]]), sectors=[0, 1])
        sigma = DensityOperator(np.diag([0.5, 0.5]), sectors=[0, 1])
        with pytest.raises(ValueError, match="not block diagonal"):
            trace_distance_numeric(rho, sigma)
        within = DensityOperator(np.array([[0.5, eps / 4], [eps / 4, 0.5]]), sectors=[0, 1])
        assert trace_distance_numeric(within, sigma) == 0.0

    @pytest.mark.parametrize("d_u,d_v", [(3, 2), (5, 1)])
    def test_mismatched_labels_fall_back_to_one_sector(self, d_u, d_v):
        n_max = truncation_bound(2 * 0.7 ** 2)
        rho = encryption_channel_density(BitString((0, 0)), 0.7, d_u, n_max)
        sigma = encryption_channel_density(BitString((1, 0)), 0.7, d_v, n_max)
        assert not np.array_equal(rho.sectors, sigma.sectors)
        # rho and sigma are block diagonal over different partitions, so
        # neither partition may be used for both
        got = trace_distance_numeric(rho, sigma)
        assert got == _whole_difference_distance(rho, sigma)
        assert abs(got - _full_eigvalsh_distance(rho, sigma)) <= 1e-12
        pure = density_from_fock(coherent_fock([0.7, -0.7], n_max))
        got = trace_distance_numeric(rho, pure)
        assert got == _whole_difference_distance(rho, pure)
        assert abs(got - _full_eigvalsh_distance(rho, pure)) <= 1e-12

    def test_default_is_one_sector(self):
        rho = DensityOperator(np.eye(3) / 3)
        np.testing.assert_array_equal(rho.sectors, [0, 0, 0])

    @pytest.mark.parametrize("sectors", [[0, 1], [0, 1, 2, 3], [[0, 1, 2]], [0.0, 1.0, 2.0],
                                         [True, False, True]])
    def test_malformed_sectors_are_rejected(self, sectors):
        with pytest.raises(ValueError, match="sectors must be 3 integer labels"):
            DensityOperator(np.eye(3) / 3, sectors=sectors)
