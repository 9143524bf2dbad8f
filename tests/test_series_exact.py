"""The array-form Poisson series agree bit for bit with the term-by-term loops.

The reference functions below are the loop implementations that produced
the stored CSV goldens.  The array forms must return exactly the same
doubles (==, not approx) on a seeded grid of modes, weights, key counts
and energies up to E = 700; above about 708 e^{-E} stops being a normal
double and neither form is right (ROADMAP item 2), so nothing is asserted
there.  The memoized series and class sums must also equal the references
on a repeated call, be read-only and be keyed by every input.
"""

import math

import numpy as np
import pytest

from phasekey.fock import HARD_CUTOFF_CAP, CapacityError, poisson_terms, truncation_bound
from phasekey.security import (
    SERIES_TAIL_EPS,
    SecurityParams,
    _class_sums,
    encrypted_trace_distance,
    encrypted_trace_distance_limit,
    qk_ak_finite,
)


# --- reference loops ---------------------------------------------------------

def ref_truncation_bound(E, eps, hard_cap=HARD_CUTOFF_CAP):
    E = float(E)
    if E == 0.0:
        return 0
    terms = [math.exp(-E)]
    t = 0
    while terms[-1] >= eps * 1e-6 or t < 2.0 * E + 4.0:
        t += 1
        terms.append(terms[-1] * E / t)
        if t > 2 * hard_cap + 64:
            raise CapacityError("cap")
    tails = np.cumsum(np.asarray(terms)[::-1])[::-1]
    for n in range(len(terms) - 1):
        if tails[n + 1] < eps:
            if n > hard_cap:
                raise CapacityError("cap")
            return n
    raise CapacityError("cap")


def ref_series(E, ratio, t_max):
    # e^{-E} ratio^t / t! for t = 0..t_max
    terms = np.empty(t_max + 1)
    terms[0] = math.exp(-E)
    for t in range(t_max):
        terms[t + 1] = terms[t] * ratio / (t + 1)
    return terms


def ref_class_sums(p):
    q = np.zeros(p.d)
    s = np.zeros(p.d)
    if p.E == 0.0:
        q[0] = 1.0
        s[0] = 1.0
        return q, s
    c = (p.m - 2 * p.w) * p.abs_alpha ** 2
    t_max = ref_truncation_bound(p.E, SERIES_TAIL_EPS)
    pois = ref_series(p.E, p.E, t_max)
    signed = ref_series(p.E, c, t_max)
    for t in range(t_max + 1):
        q[t % p.d] += pois[t]
        s[t % p.d] += signed[t]
    return q, s


def ref_qk_ak(q, s, k):
    if q[k] < 1e-300:
        return 0.0, 1.0
    return float(q[k]), float(min(1.0, max(-1.0, s[k] / q[k])))


def ref_distance(p):
    q, s = ref_class_sums(p)
    total = 0.0
    for k in range(p.d):
        if q[k] < 1e-300:
            continue
        a = min(1.0, max(-1.0, s[k] / q[k]))
        total += q[k] * math.sqrt(max(0.0, 1.0 - a * a))
    return total


def ref_limit(p):
    if p.E == 0.0 or p.w == 0:
        return 0.0
    r2 = ((p.m - 2 * p.w) / p.m) ** 2
    t_max = ref_truncation_bound(p.E, SERIES_TAIL_EPS)
    pois = ref_series(p.E, p.E, t_max)
    r2k = 1.0
    total = 0.0
    for k in range(1, t_max + 1):
        r2k *= r2
        total += pois[k] * math.sqrt(max(0.0, 1.0 - r2k))
    return total


# --- seeded grid ---------------------------------------------------------------

E_MAX = 700.0


def _energies(rng, count):
    return [0.0] + list(10.0 ** rng.uniform(-8.0, math.log10(E_MAX), count))


def _grid():
    """SecurityParams covering m in 1..200, w in 0..m (with m = 2w), and d from
    1 through 1000 and past the series cutoff."""
    rng = np.random.default_rng(20171)
    points = []
    for E in _energies(rng, 60):
        m = int(rng.integers(1, 201))
        w_choices = [0, m, int(rng.integers(0, m + 1))]
        if m % 2 == 0:
            w_choices.append(m // 2)
        t_max = ref_truncation_bound(E, SERIES_TAIL_EPS)
        d_choices = [1, 2, 3, int(rng.integers(4, 1001)), t_max + 1 + int(rng.integers(0, 50))]
        for w in w_choices:
            d = d_choices[int(rng.integers(len(d_choices)))]
            points.append(SecurityParams(m=m, d=d, abs_alpha=math.sqrt(E / m), w=w))
    for d in (1, 2, 3, 1000):
        points.append(SecurityParams(m=4, d=d, abs_alpha=0.8, w=2))
    return points


GRID = _grid()


def _mismatches(pairs):
    return [(where, got, want) for where, got, want in pairs if not got == want]


# --- tests -------------------------------------------------------------------------

@pytest.mark.parametrize("eps", [1e-10, 1e-12, 1e-14])
def test_truncation_bound_and_terms_equal_reference(eps):
    rng = np.random.default_rng(7)
    pairs = []
    for E in _energies(rng, 150) + [700.0]:
        n = ref_truncation_bound(E, eps)
        pairs.append((("bound", E), truncation_bound(E, eps), n))
        got = poisson_terms(E, eps)
        want = np.ones(1) if E == 0.0 else ref_series(E, E, n)
        pairs.append((("terms", E), got.tobytes(), want.tobytes()))
    assert _mismatches(pairs) == []


@pytest.mark.parametrize("E,hard_cap", [(30.0, 10), (30.0, 40), (30.0, 80), (2000.0, 100)])
def test_capacity_cases_equal_reference(E, hard_cap):
    try:
        want = ref_truncation_bound(E, 1e-12, hard_cap)
    except CapacityError:
        with pytest.raises(CapacityError):
            truncation_bound(E, 1e-12, hard_cap)
    else:
        assert truncation_bound(E, 1e-12, hard_cap) == want


def test_grid_covers_its_corners():
    assert max(p.m for p in GRID) > 150
    assert any(p.E == 0.0 for p in GRID)
    assert any(p.m == 2 * p.w for p in GRID if p.E > 0)
    assert any(p.w == 0 for p in GRID) and any(p.w == p.m for p in GRID)
    assert {1, 2, 3, 1000} <= {p.d for p in GRID}
    assert any(p.d > ref_truncation_bound(p.E, SERIES_TAIL_EPS) for p in GRID)
    assert max(p.E for p in GRID) > 300


def test_encrypted_trace_distance_equals_reference():
    pairs = [(p, encrypted_trace_distance(p), ref_distance(p)) for p in GRID]
    assert _mismatches(pairs) == []


def test_encrypted_trace_distance_limit_equals_reference():
    pairs = [(p, encrypted_trace_distance_limit(p), ref_limit(p)) for p in GRID]
    assert _mismatches(pairs) == []


def test_qk_ak_finite_equals_reference_for_every_k():
    pairs = []
    for p in GRID:
        q, s = ref_class_sums(p)
        for k in range(p.d):
            pairs.append(((p, k), qk_ak_finite(p, k), ref_qk_ak(q, s, k)))
    assert _mismatches(pairs) == []


# --- memoized series ---------------------------------------------------------------
# poisson_terms and security._class_sums each hand every caller the same
# cached arrays, so they must be read-only, keyed by every input, and equal
# to the uncached reference on each call.

def test_memoized_arrays_are_read_only():
    terms = poisson_terms(3.0, SERIES_TAIL_EPS)
    with pytest.raises(ValueError, match="read-only"):
        terms[0] = 0.5
    for sums in _class_sums(SecurityParams(m=3, d=4, abs_alpha=1.0, w=1)):
        with pytest.raises(ValueError, match="read-only"):
            sums[0] = 0.5


def test_second_call_is_the_memoized_reference():
    E = 123.456
    first = poisson_terms(E, SERIES_TAIL_EPS)
    assert poisson_terms(E, SERIES_TAIL_EPS) is first
    want = ref_series(E, E, ref_truncation_bound(E, SERIES_TAIL_EPS)).tobytes()
    assert first.tobytes() == want
    assert poisson_terms(E, SERIES_TAIL_EPS).tobytes() == want
    p = SecurityParams(m=5, d=7, abs_alpha=math.sqrt(E / 5), w=2)
    assert _class_sums(p) is _class_sums(p)
    for got, ref in zip(_class_sums(p), ref_class_sums(p)):
        assert got.tobytes() == ref.tobytes()


def test_class_sums_are_keyed_by_every_parameter():
    # all four share E = 1 (m |alpha|^2 is exact here) and so one cached series
    variants = [SecurityParams(m=4, d=6, abs_alpha=0.5, w=1),
                SecurityParams(m=1, d=6, abs_alpha=1.0, w=1),
                SecurityParams(m=4, d=6, abs_alpha=0.5, w=3),
                SecurityParams(m=4, d=5, abs_alpha=0.5, w=1)]
    assert {p.E for p in variants} == {1.0}
    for p in variants + variants:
        got, want = _class_sums(p), ref_class_sums(p)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want], p


def test_series_are_keyed_by_tail_and_cap():
    E = 30.0
    for eps in (1e-10, 1e-14, 1e-10):
        assert len(poisson_terms(E, eps)) == ref_truncation_bound(E, eps) + 1
    for cap in (80, 200):
        assert len(poisson_terms(E, 1e-12, cap)) == ref_truncation_bound(E, 1e-12, cap) + 1
    with pytest.raises(CapacityError):  # the cutoff, 76, is held for the caps above
        poisson_terms(E, 1e-12, 40)


@pytest.mark.parametrize("args,error", [((math.inf,), CapacityError),
                                        ((1.0, 0.0), ValueError),
                                        ((1.0, 1.5), ValueError),
                                        ((-1.0,), ValueError)])
def test_errors_raise_on_every_call(args, error):
    for _ in range(2):
        with pytest.raises(error):
            poisson_terms(*args)
