"""Tests for the closed-form security quantities and their oracles."""

import decimal
import math

import numpy as np
import pytest

from phasekey import security
from phasekey.encoding import BitString, encryption_channel_density
from phasekey.fock import (CapacityError, distance_cutoff, poisson_terms, trace_distance_numeric,
                           truncation_bound)
from phasekey.security import (
    SERIES_TAIL_EPS,
    PgmResult,
    SecurityParams,
    _class_sums,
    encrypted_distance_oracle,
    encrypted_trace_distance,
    encrypted_trace_distance_limit,
    pgm_closed_form,
    pgm_numeric_oracle,
    qk_ak_enumeration,
    qk_ak_finite,
    rank2_eigenvalues,
    suppression_ratio,
    unencrypted_trace_distance,
)


def params(m, d, alpha, w):
    return SecurityParams(m=m, d=d, abs_alpha=alpha, w=w)


class TestSecurityParams:
    def test_energy(self):
        assert params(10, 100, 0.5, 1).E == pytest.approx(2.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            params(2, 5, 1.0, 3)
        with pytest.raises(ValueError):
            params(0, 5, 1.0, 0)
        with pytest.raises(ValueError):
            params(2, 0, 1.0, 1)

    def test_integer_counts_are_stored_as_python_ints(self):
        # numpy and bool counts name the same parameter set, and so one class-sum entry
        p = SecurityParams(m=np.int64(2), d=np.uint32(3), abs_alpha=1.0, w=True)
        assert [type(v) for v in (p.m, p.d, p.w)] == [int, int, int]
        assert p == params(2, 3, 1.0, 1)
        assert _class_sums(p) is _class_sums(params(2, 3, 1.0, 1))

    # 1e200 overflows the float power in E, 1e154 the product m|alpha|^2
    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, 1e200, 1e154])
    def test_non_finite_alpha_is_a_value_error(self, alpha):
        # not CapacityError: the CLI would report exit 3, capacity exceeded
        with pytest.raises(ValueError, match="finite"):
            params(2, 5, alpha, 1)


class TestRank2Eigenvalues:
    def test_identical_states(self):
        assert rank2_eigenvalues(1.0, 1.0) == (0.0, 0.0)

    def test_equal_coefficients(self):
        B = 0.37
        lam = rank2_eigenvalues(B, B)
        assert lam[0] == pytest.approx(1 - B ** 2, abs=1e-15)
        assert lam[1] == pytest.approx(1 - B ** 2, abs=1e-15)

    def test_orthogonal_states(self):
        assert rank2_eigenvalues(0.0, 0.0) == (1.0, 1.0)

    def test_against_dense_eigensolve(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            C = float(rng.uniform(-1, 1))
            ct = float(rng.uniform(-1, 1))
            x = np.array([1.0, 0.0])
            y = np.array([ct, math.sqrt(1 - ct * ct)])
            mat = (np.outer(x, x) - C * np.outer(x, y) - C * np.outer(y, x)
                   + np.outer(y, y))
            dense = np.sort(np.linalg.eigvalsh(mat))
            formula = np.sort(rank2_eigenvalues(C, ct))
            np.testing.assert_allclose(formula, dense, atol=1e-12)

    def test_rejects_bad_cosine(self):
        with pytest.raises(ValueError):
            rank2_eigenvalues(0.5, 1.5)


class TestLimitBlocks:
    # For an unbounded key space, block k has weight q_k = e^{-E} E^k / k!
    # (poisson_terms) and overlap A_k = r^k with r = (m - 2w)/m.
    def test_qk_at_zero(self):
        p = params(2, 5, 1.0, 1)
        assert poisson_terms(p.E, SERIES_TAIL_EPS)[0] == pytest.approx(math.exp(-2), abs=1e-15)

    def test_ak_linear_case(self):
        m, w = 10, 1
        assert ((m - 2 * w) / m) ** 1 == pytest.approx(0.8, abs=1e-15)

    @pytest.mark.parametrize("m, w", [(10, 1), (4, 2), (4, 4)])  # r = 0.8, 0, -1
    def test_ak_at_zero_is_one(self, m, w):
        assert ((m - 2 * w) / m) ** 0 == 1.0

    def test_ak_balanced_string(self):
        m, w = 2, 1
        for k in (1, 2, 5):
            assert ((m - 2 * w) / m) ** k == 0.0

    def test_qk_sums_to_one(self):
        p = params(3, 7, 1.1, 2)
        total = sum(poisson_terms(p.E, SERIES_TAIL_EPS))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_ak_against_enumeration(self):
        # signed mass over one residue class, tuple by tuple
        m, w = 10, 1
        n_max = 4
        q, a = qk_ak_enumeration(params(m, 100 * 1000, 1.0, w), n_max)
        # with d far beyond the reachable totals, class k holds exactly the
        # total-photon-number-k tuples, matching the unbounded-key formula
        assert a[1] == pytest.approx(((m - 2 * w) / m) ** 1, abs=1e-12)
        assert a[2] == pytest.approx(((m - 2 * w) / m) ** 2, abs=1e-10)


class TestFiniteBlocks:
    def test_trivial_key_space(self):
        p = params(3, 1, 0.9, 2)
        q0, a0 = qk_ak_finite(p, 0)
        assert q0 == pytest.approx(1.0, abs=1e-12)
        assert a0 == pytest.approx(math.exp(-2 * 2 * 0.81), abs=1e-12)

    def test_zero_energy(self):
        q0, a0 = qk_ak_finite(params(2, 4, 0.0, 1), 0)
        assert (q0, a0) == (1.0, 1.0)
        assert qk_ak_finite(params(2, 4, 0.0, 1), 1) == (0.0, 1.0)

    def test_weights_sum_to_one(self):
        p = params(3, 7, 1.2, 1)
        assert sum(qk_ak_finite(p, k)[0] for k in range(7)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    @pytest.mark.parametrize("d", [2, 5])
    def test_matches_enumeration(self, m, alpha, d):
        for w in range(m + 1):
            p = params(m, d, alpha, w)
            n_max = truncation_bound(p.E, 1e-12)
            q_ref, a_ref = qk_ak_enumeration(p, n_max)
            for k in range(d):
                q, a = qk_ak_finite(p, k)
                assert q == pytest.approx(q_ref[k], abs=1e-10)
                if q_ref[k] > 1e-12:
                    assert a == pytest.approx(a_ref[k], abs=1e-10)

    def test_deep_cutoff_enumeration_point(self):
        p = params(2, 5, 1.0, 1)
        q_ref, a_ref = qk_ak_enumeration(p, 40)
        q, a = qk_ak_finite(p, 1)
        assert q == pytest.approx(q_ref[1], abs=1e-10)
        assert a == pytest.approx(a_ref[1], abs=1e-10)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            qk_ak_finite(params(2, 4, 1.0, 1), 4)

    def test_key_space_far_past_the_series(self):
        # the class sums hold one entry per series term, not one per key
        p = params(2, 10 ** 12, 1.0, 1)
        assert len(_class_sums(p)[0]) == truncation_bound(2.0, SERIES_TAIL_EPS) + 1 == 21
        assert qk_ak_finite(p, 10 ** 12 - 1) == (0.0, 1.0)
        assert qk_ak_finite(p, 20) == qk_ak_finite(params(2, 10 ** 5, 1.0, 1), 20)
        assert encrypted_trace_distance(p) == encrypted_trace_distance(params(2, 10 ** 5, 1.0, 1))
        # key spaces past an int64 give the same blocks
        small = params(2, 10 ** 5, 1.0, 1)
        for d in (2 ** 63, 10 ** 30):
            p = params(2, d, 1.0, 1)
            assert encrypted_trace_distance(p) == encrypted_trace_distance(small)
            assert suppression_ratio(p) == suppression_ratio(small)
            assert [qk_ak_finite(p, k) for k in range(21)] == [qk_ak_finite(small, k)
                                                               for k in range(21)]
            assert qk_ak_finite(p, d - 1) == (0.0, 1.0)


class TestEncryptedDistance:
    def test_equal_strings(self):
        assert encrypted_trace_distance(params(4, 10, 1.3, 0)) == pytest.approx(0.0, abs=1e-13)

    def test_limit_balanced_case(self):
        # m = 2, w = 1 makes every block overlap vanish, leaving 1 - e^{-E}
        got = encrypted_trace_distance_limit(params(2, 1, 1.0, 1))
        assert got == pytest.approx(0.8646647167633873, abs=1e-12)

    def test_single_mode_even_d_vanishes(self):
        for d in (2, 4, 10):
            assert encrypted_trace_distance(params(1, d, 1.0, 1)) <= 1e-13

    def test_trivial_key_space_reduces_to_unencrypted(self):
        p = params(3, 1, 0.9, 2)
        assert encrypted_trace_distance(p) == pytest.approx(
            unencrypted_trace_distance(2, 0.9), abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, math.sqrt(2.0)])
    @pytest.mark.parametrize("w", [1, 5])
    def test_d100_converges_to_limit(self, alpha, w):
        p = params(10, 100, alpha, w)
        assert abs(encrypted_trace_distance(p)
                   - encrypted_trace_distance_limit(p)) < 1e-8

    def test_weight_symmetry(self):
        # blocks depend on (m - 2w)^2 only, so w and m - w give equal distances
        for w in (1, 2, 3):
            a = encrypted_trace_distance(params(7, 100, 0.8, w))
            b = encrypted_trace_distance(params(7, 100, 0.8, 7 - w))
            assert a == pytest.approx(b, abs=1e-12)

    def test_nondecreasing_in_alpha(self):
        alphas = np.linspace(0.0, 2.0, 41)
        vals = [encrypted_trace_distance(params(10, 100, a, 3)) for a in alphas]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_nondecreasing_in_w_up_to_half(self):
        vals = [encrypted_trace_distance(params(10, 100, 1.0, w)) for w in range(6)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("w", [1, 2])
    def test_matches_dense_channel_oracle_two_modes(self, d, w):
        alpha = 1.0
        p = params(2, d, alpha, w)
        n_max = distance_cutoff(p.E, 1e-6)
        rho_u = encryption_channel_density(BitString((0, 0)), alpha, d, n_max)
        rho_v = encryption_channel_density(BitString(tuple([1] * w + [0] * (2 - w))),
                                           alpha, d, n_max)
        dense = trace_distance_numeric(rho_u, rho_v)
        assert encrypted_trace_distance(p) == pytest.approx(dense, abs=1e-6)


class TestDistanceOracle:
    @pytest.mark.parametrize("m,alpha,d,w", [
        (1, 0.7, 3, 1),
        (2, 1.0, 5, 1),
        (2, 1.0, 5, 2),
        (3, 0.7, 4, 2),
    ])
    def test_support_basis_equals_dense(self, m, alpha, d, w):
        u = BitString((0,) * m)
        v = BitString(tuple([1] * w + [0] * (m - w)))
        n_max = truncation_bound(m * alpha ** 2)
        dense = trace_distance_numeric(
            encryption_channel_density(u, alpha, d, n_max),
            encryption_channel_density(v, alpha, d, n_max))
        lowdim = encrypted_distance_oracle(u, v, alpha, d, n_max)
        assert lowdim == pytest.approx(dense, abs=1e-10)

    def test_three_mode_point_matches_closed_form(self):
        p = params(3, 5, 1.0, 1)
        n_max = distance_cutoff(p.E, 1e-6)
        got = encrypted_distance_oracle(BitString((0, 0, 0)), BitString((1, 0, 0)),
                                        1.0, 5, n_max)
        assert got == pytest.approx(encrypted_trace_distance(p), abs=1e-6)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            encrypted_distance_oracle(BitString((0,)), BitString((0, 1)), 1.0, 2, 8)

    @pytest.mark.parametrize("d", [0, -3])
    def test_rejects_key_space_below_one(self, d):
        # d = 0 used to return 0.0, "perfectly hidden"
        with pytest.raises(ValueError, match="d must be at least 1"):
            encrypted_distance_oracle(BitString((0, 0)), BitString((1, 0)), 0.7, d, 6)


class TestUnencryptedDistance:
    def test_zero_weight(self):
        assert unencrypted_trace_distance(0, 1.3) == 0.0

    def test_unit_case(self):
        assert unencrypted_trace_distance(1, 1.0) == pytest.approx(
            0.9907998592608226, abs=1e-15)

    def test_orthogonal_limit(self):
        assert unencrypted_trace_distance(40, 2.0) == pytest.approx(1.0, abs=1e-15)

    def test_monotone_in_w(self):
        vals = [unencrypted_trace_distance(w, 0.6) for w in range(8)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_nan_alpha_is_a_value_error(self):
        with pytest.raises(ValueError, match="nan"):
            unencrypted_trace_distance(1, math.nan)

    @pytest.mark.parametrize("alpha", [math.inf, 1e200])
    def test_infinite_energy_is_distance_one(self, alpha):
        assert unencrypted_trace_distance(1, alpha) == 1.0

    @pytest.mark.parametrize("alpha", [math.inf, 1e200])
    def test_zero_weight_at_infinite_energy_is_distance_zero(self, alpha):
        # 0 * inf in the exponent would give NaN
        assert unencrypted_trace_distance(0, alpha) == 0.0

    @pytest.mark.parametrize("alpha,w,m", [(1.0, 1, 1), (0.7, 1, 2), (0.7, 2, 2)])
    def test_matches_numeric_pure_state_distance(self, alpha, w, m):
        from phasekey.encoding import codeword_fock
        from phasekey.fock import density_from_fock

        n_max = truncation_bound(m * alpha ** 2, 1e-12)
        u = BitString((0,) * m)
        v = BitString(tuple([1] * w + [0] * (m - w)))
        numeric = trace_distance_numeric(
            density_from_fock(codeword_fock(u, alpha, n_max)),
            density_from_fock(codeword_fock(v, alpha, n_max)))
        assert numeric == pytest.approx(unencrypted_trace_distance(w, alpha), abs=1e-8)


class TestSuppressionRatio:
    def test_trivial_key_space(self):
        assert suppression_ratio(params(3, 1, 0.9, 2)).ratio == pytest.approx(1.0, abs=1e-12)

    def test_suppression_below_one_at_reference_point(self):
        res = suppression_ratio(params(10, 100, 1.0, 1))
        assert res.ratio < 1.0
        assert res.encrypted == pytest.approx(res.ratio * res.unencrypted, abs=1e-15)

    def test_undefined_cases(self):
        with pytest.raises(ValueError):
            suppression_ratio(params(3, 10, 1.0, 0))
        with pytest.raises(ValueError):
            suppression_ratio(params(3, 10, 0.0, 1))
        # |alpha|^2 rounds to 0, and so does the unencrypted distance
        with pytest.raises(ValueError):
            suppression_ratio(params(1, 10, 1e-200, 1))

    def test_grows_with_code_length(self):
        ratios = [suppression_ratio(params(m, 100, math.sqrt(1.0 / m), 1)).ratio
                  for m in range(2, 13)]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))


class TestPgm:
    def test_degenerate_amplitude(self):
        res = pgm_closed_form(0.0)
        assert res.a_plus == 1.0
        assert res.a_minus == 0.0
        assert res.i_single == 0.0
        assert res.p_same == pytest.approx(0.5, abs=1e-15)

    def test_unit_amplitude_values(self):
        res = pgm_closed_form(1.0)
        assert res.a_plus == pytest.approx(0.5676676416183064, abs=1e-15)
        assert res.a_minus == pytest.approx(0.43233235838169365, abs=1e-15)
        assert res.i_single == pytest.approx(0.9576632521445037, abs=1e-13)

    def test_nan_alpha_is_a_value_error(self):
        with pytest.raises(ValueError, match="nan"):
            pgm_closed_form(math.nan)

    @pytest.mark.parametrize("alpha", [math.inf, 1e200])
    def test_infinite_energy_gives_one_bit(self, alpha):
        res = pgm_closed_form(alpha, modes=3)
        assert res.i_single == 1.0 and res.i_total == 3.0
        assert res.a_plus == res.a_minus == 0.5 and res.p_diff == 0.0

    def test_total_scales_with_modes(self):
        res = pgm_closed_form(0.8, modes=7)
        assert res.i_total == pytest.approx(7 * res.i_single, abs=1e-15)

    def test_probabilities_form_distribution(self):
        res = pgm_closed_form(0.6)
        assert res.p_same + res.p_diff == pytest.approx(1.0, abs=1e-12)
        assert res.a_plus + res.a_minus == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0, 2.0])
    def test_numeric_oracle_agreement(self, alpha):
        n_max = truncation_bound(alpha ** 2, 1e-12)
        numeric = pgm_numeric_oracle(alpha, n_max)
        closed = pgm_closed_form(alpha)
        assert numeric.i_single == pytest.approx(closed.i_single, abs=1e-6)
        assert numeric.p_same == pytest.approx(closed.p_same, abs=1e-6)
        assert numeric.a_plus == pytest.approx(closed.a_plus, abs=1e-8)
        assert numeric.a_minus == pytest.approx(closed.a_minus, abs=1e-8)

    def test_numeric_oracle_probability_rows(self):
        numeric = pgm_numeric_oracle(0.7, truncation_bound(0.49, 1e-12))
        assert numeric.p_same + numeric.p_diff == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_numeric_oracle_guesses_blindly(self):
        numeric = pgm_numeric_oracle(0.0, 6)
        assert numeric.p_same == pytest.approx(0.5, abs=1e-12)
        assert numeric.p_diff == pytest.approx(0.5, abs=1e-12)
        assert numeric.i_single == pytest.approx(0.0, abs=1e-12)

    def test_numeric_oracle_refuses_a_rank_defect(self, monkeypatch):
        # with no cut the mixture's noise eigenvalues (~1e-17) are inverted
        # too, so the elements no longer resolve the support projector
        monkeypatch.setattr(security, "PGM_PINV_CUT", 0.0)
        with pytest.raises(ValueError, match="^PGM elements miss the support projector by"):
            pgm_numeric_oracle(0.5, 10)

    def test_small_amplitude_expansion(self):
        alpha = 0.05
        got = pgm_closed_form(alpha).i_single
        leading = 2 * alpha ** 2 / math.log(2)
        assert got / leading == pytest.approx(0.9966733246110953, abs=1e-12)
        assert 0.99 <= got / leading <= 1.01

    @pytest.mark.parametrize("alpha", [1e-150, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 0.05, 0.0999])
    def test_small_amplitude_information_equals_a_decimal_reference(self, alpha):
        # u^2 log2 u + v^2 log2 v is ~2|alpha|^2 / ln 2 from terms of size
        # |alpha|: evaluated with 60 digits to spare past that cancellation
        with decimal.localcontext() as ctx:
            ctx.prec = 60 + 2 * round(abs(math.log10(alpha)))
            B = (-2 * decimal.Decimal(alpha) ** 2).exp()
            root_plus, root_minus = ((1 + B) / 2).sqrt(), ((1 - B) / 2).sqrt()
            u, v = root_plus + root_minus, root_plus - root_minus
            want = (u * u * u.ln() + v * v * v.ln()) / decimal.Decimal(2).ln()
            res = pgm_closed_form(alpha, modes=2)
            assert res.i_total > 0.0
            assert abs(decimal.Decimal(res.i_single) / want - 1) <= decimal.Decimal("1e-14")
            assert abs(decimal.Decimal(res.i_total) / (2 * want) - 1) <= decimal.Decimal("1e-14")

    def test_near_orthogonal_amplitude(self):
        assert pgm_closed_form(3.0).i_single >= 0.999

    @pytest.mark.parametrize("alpha", [4.5, 5.0, 5.5, 6.0, math.inf])
    def test_orthogonal_pair_success_probability_is_one(self, alpha):
        # a_+ and a_- both round to 1/2 here, and (sqrt(a_+) + sqrt(a_-))^2 / 2
        # rounds to 1 + 2^-52 unless capped
        res = pgm_closed_form(alpha)
        assert res.p_same == 1.0 and res.p_diff == 0.0 and res.i_single == 1.0

    def test_information_increases_with_amplitude(self):
        vals = [pgm_closed_form(a).i_single for a in np.linspace(0, 3, 31)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestEqualCodewords:
    # E = 4900: the tail-1e-14 cutoff of the Poisson series passes the 4096 cap
    @pytest.mark.parametrize("d", [1, 2, 7, 100])
    def test_distance_past_the_cap_is_zero(self, d):
        p = params(1, d, 70.0, 0)
        assert encrypted_trace_distance(p) == 0.0
        assert encrypted_trace_distance_limit(p) == 0.0
        # distinct codewords at the same energy still fail loudly
        with pytest.raises(CapacityError):
            encrypted_trace_distance(params(2, d, 70.0, 1))
        with pytest.raises(CapacityError):
            encrypted_trace_distance_limit(params(2, d, 70.0, 1))

    @pytest.mark.parametrize("E", [0.0, 1e-3, 2.5, 40.0, 700.0, 710.0, 3000.0])
    @pytest.mark.parametrize("m,d", [(1, 2), (5, 3), (40, 1000)])
    def test_series_inside_the_cap_gives_zero_too(self, E, m, d):
        # where the series exists, every block overlap is exactly 1, so the
        # early return at w = 0 moves no value
        p = params(m, d, math.sqrt(E / m), 0)
        assert all(qk_ak_finite(p, k)[1] == 1.0 for k in range(d))
        assert encrypted_trace_distance(p) == 0.0
        assert encrypted_trace_distance_limit(p) == 0.0
