"""The closed forms against two references that need no Poisson series start.

Past E ~ 708.4, e^{-E} is no longer a normal double and the series start
in fock moves to the first normal term.  Two independent references cover
that range:

* the roots-of-unity filter (series multisection), which gives the class
  sums with no truncation and no term above 1 in modulus:
  q_k = (1/d) sum_j u^{-jk} exp(E (u^j - 1)) and
  s_k = (1/d) sum_j u^{-jk} exp(c u^j - E), with u = e^{2 pi i / d} and
  c = (m - 2w)|alpha|^2, both one np.fft.fft;
* the envelope that contractivity and Fuchs-van de Graaf put around every
  distance.  Key averaging over Z_d is a channel and Z_d < Z_kd < U(1),
  so with F = e^{-E (1 - |r|)}, r = (m - 2w)/m, the fidelity of the two
  U(1)-averaged states:
  1 - F <= limit <= enc(kd) <= enc(d) <= unenc, limit <= sqrt(1 - F^2),
  and enc(d = 1) = unenc.

The support-basis oracle is a third, at m <= 2, where its grid stays small:
it needs no series at all, only the codewords' number-basis amplitudes.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasekey.encoding import EMPTY_BLOCK_FLOOR, BitString
from phasekey.fock import distance_cutoff
from phasekey.security import (
    SecurityParams,
    encrypted_distance_oracle,
    encrypted_trace_distance,
    encrypted_trace_distance_limit,
    unencrypted_trace_distance,
)

MULTISECTION_TOL = 1e-6
ENVELOPE_TOL = 1e-12
# d for the limit's reference: beyond every total photon number with any
# mass at E <= 3000, so each class holds one total
LIMIT_D = 2 ** 14


def multisection_distance(p: SecurityParams, d: int) -> float:
    """sum_k q_k sqrt(1 - A_k^2) with the class sums from the roots-of-unity filter."""
    roots = np.exp(2j * math.pi * np.arange(d) / d)
    c = (p.m - 2 * p.w) * p.abs_alpha ** 2
    q = (np.fft.fft(np.exp(p.E * (roots - 1.0))) / d).real
    s = (np.fft.fft(np.exp(c * roots - p.E)) / d).real
    present = q >= EMPTY_BLOCK_FLOOR
    a = np.clip(s[present] / q[present], -1.0, 1.0)
    return float(np.sum(q[present] * np.sqrt(1.0 - a * a)))


def _multisection_cases():
    rng = np.random.default_rng(20261018)
    cases = []
    for E in (700.0, 800.0, 1500.0, 3000.0):
        for _ in range(6):
            m = int(rng.integers(1, 201))
            w = int(rng.integers(0, m + 1))
            d = int(rng.integers(1, 1001))
            cases.append(pytest.param(m, w, d, E, id=f"E{E:g}-m{m}-w{w}-d{d}"))
        # w = 0 and w = m, where every A_k is +-1
        for w in (0, 60):
            cases.append(pytest.param(60, w, 8, E, id=f"E{E:g}-m60-w{w}-d8"))
    # the sets that read 1.0026, 0.0 and 0.0 when e^{-E} started every series
    for a2 in (7.4, 9.0, 30.0):
        cases.append(pytest.param(100, 1, 100, 100 * a2, id=f"m100-w1-d100-a2_{a2:g}"))
    return cases


@pytest.mark.parametrize("m, w, d, E", _multisection_cases())
def test_closed_forms_match_multisection(m, w, d, E):
    p = SecurityParams(m=m, d=d, abs_alpha=math.sqrt(E / m), w=w)
    unenc = unencrypted_trace_distance(w, p.abs_alpha)
    enc = encrypted_trace_distance(p)
    limit = encrypted_trace_distance_limit(p)
    assert enc == pytest.approx(multisection_distance(p, d), abs=MULTISECTION_TOL)
    assert limit == pytest.approx(multisection_distance(p, LIMIT_D), abs=MULTISECTION_TOL)
    assert enc <= unenc + ENVELOPE_TOL and limit <= unenc + ENVELOPE_TOL


@st.composite
def envelope_sets(draw):
    m = draw(st.integers(1, 200))
    E = 10.0 ** draw(st.floats(-3.0, math.log10(3000.0)))
    return (SecurityParams(m=m, d=draw(st.integers(1, 1000)), abs_alpha=math.sqrt(E / m),
                           w=draw(st.integers(0, m))),
            draw(st.sampled_from([2, 3, 4])))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(envelope_sets())
def test_distances_stay_in_their_envelope(case):
    p, k = case
    r = (p.m - 2 * p.w) / p.m
    x = p.E * (1.0 - abs(r))
    lower, upper = -math.expm1(-x), math.sqrt(-math.expm1(-2.0 * x))
    limit = encrypted_trace_distance_limit(p)
    enc_kd = encrypted_trace_distance(dataclasses.replace(p, d=k * p.d))
    enc = encrypted_trace_distance(p)
    enc_1 = encrypted_trace_distance(dataclasses.replace(p, d=1))
    unenc = unencrypted_trace_distance(p.w, p.abs_alpha)
    chain = [lower, limit, enc_kd, enc, unenc]
    assert all(a <= b + ENVELOPE_TOL for a, b in zip(chain, chain[1:])), chain
    assert limit <= upper + ENVELOPE_TOL
    assert enc_1 == pytest.approx(unenc, abs=ENVELOPE_TOL)


# (m, E, d, w): w = 1 at m = 1 and 2, odd-d complements, and even-d
# complements, whose closed form is exactly 0
SUPPORT_PAST_UNDERFLOW = [(1, 720.0, 3, 1), (2, 760.0, 5, 1), (1, 900.0, 7, 1),
                          (2, 760.0, 5, 2), (1, 720.0, 4, 1), (2, 760.0, 4, 2)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("m,E,d,w", SUPPORT_PAST_UNDERFLOW)
def test_support_oracle_past_the_underflow_matches_the_closed_form(m, E, d, w):
    # the weight of the vacuum sector, |b_0|^2, is subnormal here (2e-313 at
    # m = 1, E = 720): a complex division by it overflowed to inf+nanj
    alpha = math.sqrt(E / m)
    closed = encrypted_trace_distance(SecurityParams(m=m, d=d, abs_alpha=alpha, w=w))
    oracle = encrypted_distance_oracle(BitString((0,) * m), BitString((1,) * w + (0,) * (m - w)),
                                       alpha, d, distance_cutoff(E, 1e-6))
    if w == m and d % 2 == 0:
        assert closed == 0.0
    assert abs(oracle - closed) <= 1e-10
