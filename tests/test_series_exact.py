"""The array-form Poisson series agree bit for bit with the term-by-term loops.

The reference functions below are the loop implementations that produced
the stored CSV goldens: the class parts a_k and b_k, sums of the
nonnegative terms p_t (1 - r^t) and p_t (1 + r^t), and the distance,
limit and (q_k, A_k) formed from them.  The array forms must return
exactly the same doubles (==, not approx) on a seeded grid of modes,
weights, key counts and energies up to E = 700, and at the edge of the
e^{-E} underflow (E = 705 and -ln of the smallest normal double).  On the
same grid they must also be within 1e-13 relative of a decimal evaluation
of the same kept terms, and the limit must be the distance at d = 2^63.
Past the underflow edge the series start at their first normal term and
are cumulative products; there the cutoffs and CapacityError cases must
equal those of the scalar loop they replace, and the terms and class parts
must agree within 1e-12; the product over the window a tail bound sizes
from E and eps must give the bits of the product over the cap's whole
window.  The memoized series, class parts and distance must also equal the
references on a repeated call and be keyed by every input, and the arrays
must be read-only.  A sweep line, one (m, d) over a run of |alpha| and
several w, is one array pass per run of series, and each of its values
must be the one-row distance's bits, and the reference loop's wherever
that applies.
"""

import math
import sys
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasekey.fock import (
    HARD_CUTOFF_CAP,
    CapacityError,
    _poisson_start,
    poisson_terms,
    truncation_bound,
)
from phasekey.security import (
    SERIES_TAIL_EPS,
    SecurityParams,
    _class_sums,
    _line_distances,
    _series_runs,
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


def ref_parts(m, w, t_max):
    """(u, v) for t = 0..t_max: u_t = 1 - r^t, v_t = 1 + r^t, r = (m - 2w)/m, as scalar loops.

    |r|^t is a running product of |r| = (m - 2s)/m, s = min(w, m - w), and
    1 - |r|^t = (2s/m) sum_{j<t} |r|^j a running sum; u and v swap at odd t
    where r < 0.
    """
    s = min(w, m - w)
    u, v = [], []
    power, below = 1.0, 0.0
    for t in range(t_max + 1):
        one_minus, one_plus = 2 * s / m * below, 1.0 + power
        if 2 * w > m and t % 2:
            one_minus, one_plus = one_plus, one_minus
        u.append(one_minus)
        v.append(one_plus)
        below += power
        power *= (m - 2 * s) / m
    return u, v


def ref_class_sums(p):
    """(a, b): a_k = sum_{t = k (mod d)} p_t u_t and b_k the same with v_t, each from 0.0."""
    a = np.zeros(p.d)
    b = np.zeros(p.d)
    t_max = ref_truncation_bound(p.E, SERIES_TAIL_EPS)
    pois = ref_series(p.E, p.E, t_max)
    u, v = ref_parts(p.m, p.w, t_max)
    for t in range(t_max + 1):
        a[t % p.d] += pois[t] * u[t]
        b[t % p.d] += pois[t] * v[t]
    return a, b


def ref_qk_ak(a, b, k):
    if a[k] + b[k] == 0.0:
        return 0.0, 1.0
    return float((a[k] + b[k]) / 2), float((b[k] - a[k]) / (a[k] + b[k]))


def ref_distance(p):
    if p.w == 0:
        return 0.0
    a, b = ref_class_sums(p)
    total = 0.0
    for k in range(p.d):
        total += math.sqrt(a[k] * b[k])
    return total


def ref_limit(p):
    if p.w == 0:
        return 0.0
    t_max = ref_truncation_bound(p.E, SERIES_TAIL_EPS)
    pois = ref_series(p.E, p.E, t_max)
    u, v = ref_parts(p.m, p.w, t_max)
    total = 0.0
    for t in range(t_max + 1):
        total += math.sqrt((pois[t] * u[t]) * (pois[t] * v[t]))
    return total


def decimal_closed_forms(p):
    """(a, b, D, D_inf) in 50-digit decimal arithmetic on the library's own kept Poisson terms.

    Each kept double is taken exactly and r^t is a decimal power, so the
    only difference from the library is its double rounding.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        pois = [Decimal(x) for x in poisson_terms(p.E, SERIES_TAIL_EPS).tolist()]
        r = Decimal(p.m - 2 * p.w) / p.m
        classes = min(p.d, len(pois))
        a, b = [Decimal(0)] * classes, [Decimal(0)] * classes
        limit, power = Decimal(0), Decimal(1)
        for t, x in enumerate(pois):
            pu, pv = x * (1 - power), x * (1 + power)
            a[t % classes] += pu
            b[t % classes] += pv
            limit += (pu * pv).sqrt()
            power *= r
        return a, b, sum(((ak * bk).sqrt() for ak, bk in zip(a, b)), Decimal(0)), limit


def _within(got, want, scale, rtol):
    return abs(Decimal(got) - want) <= Decimal(rtol) * scale


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


# The closed forms against decimal_closed_forms, the same kept terms in exact-enough
# arithmetic.  q_k A_k = (b_k - a_k)/2 is a signed sum that cancels in exact
# arithmetic too (to 0 at w = m/2), so it is measured relative to its class
# weight q_k; every other value relative to itself.
DECIMAL_RTOL = 1e-13


def test_closed_forms_are_within_1e13_of_decimal_on_the_grid():
    misses = []
    for p in GRID:
        a, b, distance, limit = decimal_closed_forms(p)
        if p.w:
            if not _within(encrypted_trace_distance(p), distance, distance, DECIMAL_RTOL):
                misses.append(("distance", p))
            if not _within(encrypted_trace_distance_limit(p), limit, limit, DECIMAL_RTOL):
                misses.append(("limit", p))
        for k in range(min(p.d, len(a))):
            q, A = qk_ak_finite(p, k)
            weight = (a[k] + b[k]) / 2
            if not (_within(q, weight, weight, DECIMAL_RTOL)
                    and _within(q * A, (b[k] - a[k]) / 2, weight, DECIMAL_RTOL)):
                misses.append(("qk_ak", p, k))
    assert misses == []


def test_odd_d_complement_at_small_energy_keeps_its_digits():
    # the signed class sums read 1.9954893448963301e-07 here, 0.18% low: 1 - A_k^2
    # cancelled where the nonnegative parts a_k, b_k have nothing to cancel
    p = SecurityParams(m=3, d=7, abs_alpha=0.1066572961828448, w=3)
    assert len(poisson_terms(p.E, SERIES_TAIL_EPS)) == 8
    want = decimal_closed_forms(p)[2]
    assert abs(float(want) / 1.9991795208796434e-07 - 1.0) <= 1e-15
    assert _within(encrypted_trace_distance(p), want, want, 1e-14)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 200), st.floats(0.0, 1.0), st.floats(0.0, 3000.0), st.integers(1, 10 ** 6))
def test_limit_is_the_distance_at_a_key_space_past_every_series(m, share, E, d):
    p = SecurityParams(m=m, d=d, abs_alpha=math.sqrt(E / m), w=round(share * m))
    assert encrypted_trace_distance_limit(p) == encrypted_trace_distance(replace(p, d=2 ** 63))


# --- memoized series ---------------------------------------------------------------
# poisson_terms and security._class_sums each hand every caller the same
# cached arrays, so they must be read-only, keyed by every input, and equal
# to the uncached reference on each call.

def test_memoized_arrays_are_read_only():
    terms = poisson_terms(3.0, SERIES_TAIL_EPS)
    with pytest.raises(ValueError, match="read-only"):
        terms[0] = 0.5
    for sums in _class_sums(SecurityParams(m=3, d=4, abs_alpha=1.0, w=1))[:2]:
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
        got, want = _class_sums(p)[:2], ref_class_sums(p)
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


# --- past the e^{-E} underflow -------------------------------------------------------
# Past UNDERFLOW_E = -ln(smallest normal double) ~ 708.4, poisson_terms is one
# cumulative product from the first normal term.  The references are the
# scalar loop that built the series there before and the class parts with
# 1 -+ r^t formed from r ** t.

UNDERFLOW_E = -math.log(sys.float_info.min)
ABOVE_UNDERFLOW_E = math.nextafter(UNDERFLOW_E, math.inf)
TERM_RTOL = 1e-12
# terms below it are not compared relatively: near the subnormals a product
# keeps no relative precision
TERM_FLOOR = 1e-300


def ref_poisson_terms_loop(E, eps, hard_cap=HARD_CUTOFF_CAP):
    """poisson_terms as a scalar loop x E / t from the first normal term."""
    limit = 2 * hard_cap + 64
    start, x = _poisson_start(E)
    terms = [x]
    t = start
    while (x >= eps * 1e-6 or t <= E) and t <= limit:
        t += 1
        x = x * E / t
        terms.append(x)
    terms = np.asarray(terms)
    tails = np.cumsum(terms[::-1])[::-1]
    below = np.flatnonzero(tails[1:] < eps)
    if t > limit or len(below) == 0 or start + below[0] > hard_cap:
        raise CapacityError("cap")
    kept = terms[:below[0] + 1]
    return np.concatenate((np.zeros(start), kept / kept.sum()))


def _series_or_error(fn, E, eps):
    try:
        return fn(E, eps)
    except CapacityError:
        return None


def _large_energies(seed, count, hi):
    """count log-uniform energies in (UNDERFLOW_E, hi], the first double above the edge first."""
    rng = np.random.default_rng(seed)
    draws = np.exp(rng.uniform(math.log(ABOVE_UNDERFLOW_E), math.log(hi), count - 1))
    return [ABOVE_UNDERFLOW_E] + [float(E) for E in draws]


# up to the largest energy poisson_terms accepts at the default cap
LARGE_E = _large_energies(20261019, 2000, 2 * HARD_CUTOFF_CAP + 64)


@pytest.mark.parametrize("eps", [1e-10, 1e-12, 1e-14])
def test_large_energy_series_equal_the_loop(eps):
    mismatches = []
    capacity_errors = 0
    for E in LARGE_E:
        want = _series_or_error(ref_poisson_terms_loop, E, eps)
        got = _series_or_error(poisson_terms, E, eps)
        if want is None or got is None:
            capacity_errors += want is None
            if got is not want:
                mismatches.append((E, got is None, want is None))
            continue
        big = want > TERM_FLOOR
        if (len(got) != len(want) or truncation_bound(E, eps) != len(want) - 1
                or not np.all(np.abs(got[big] - want[big]) <= TERM_RTOL * want[big])):
            mismatches.append((E, len(got), len(want)))
    assert mismatches == []
    # both sides of the cap are covered
    assert 0 < capacity_errors < len(LARGE_E) - 100


def _large_energy_class_sum_grid():
    """SecurityParams past the underflow with w in {0, m, m/2, random} and d from 1 to 1000."""
    rng = np.random.default_rng(20261020)
    points = []
    # past E ~ 3600 the tail-1e-14 cutoff passes the default cap
    for E in _large_energies(11, 40, 3500.0):
        m = int(rng.integers(1, 201))
        d = [1, 2, 3, int(rng.integers(4, 1001))][int(rng.integers(4))]
        for w in {0, m, m // 2, int(rng.integers(0, m + 1))}:
            points.append(SecurityParams(m=m, d=d, abs_alpha=math.sqrt(E / m), w=w))
    return points


def test_large_energy_class_sums_equal_the_power_form():
    mismatches = []
    for p in _large_energy_class_sum_grid():
        pois = poisson_terms(p.E, SERIES_TAIL_EPS)
        assert pois[0] == 0.0  # past the underflow
        powers = ((p.m - 2 * p.w) / p.m) ** np.arange(len(pois))
        residues = np.arange(len(pois)) % p.d
        a_want = np.bincount(residues, pois * (1.0 - powers), minlength=p.d)
        b_want = np.bincount(residues, pois * (1.0 + powers), minlength=p.d)
        a, b, *_ = _class_sums(p)
        if 2 * p.w in (0, p.m, 2 * p.m):  # r = 1, 0 or -1: every r^t is exact
            ok = a.tobytes() == a_want.tobytes() and b.tobytes() == b_want.tobytes()
        else:  # both parts are sums of nonnegative terms
            ok = all(np.all(np.abs(got - want) <= TERM_RTOL * want + TERM_FLOOR)
                     for got, want in ((a, a_want), (b, b_want)))
        if not ok:
            mismatches.append(p)
    assert mismatches == []


@pytest.mark.parametrize("d", [2, 8, 1000])
def test_large_energy_complements_keep_unit_overlaps(d):
    # w = 0 and w = m at even d: every present block has A_k = +-1 exactly
    for w in (0, 40):
        p = SecurityParams(m=40, d=d, abs_alpha=math.sqrt(2000.0 / 40), w=w)
        overlaps = {qk_ak_finite(p, k)[1] for k in range(d)}
        assert overlaps == ({1.0} if w == 0 else {1.0, -1.0})
        assert encrypted_trace_distance(p) == 0.0


@pytest.mark.parametrize("eps", [1e-10, 1e-12, 1e-14])
def test_series_at_the_underflow_edge(eps):
    # e^{-E} is still normal at 705 and at UNDERFLOW_E: the loop from t = 0, bit for bit
    for E in (705.0, UNDERFLOW_E):
        n = ref_truncation_bound(E, eps)
        assert truncation_bound(E, eps) == n
        assert poisson_terms(E, eps).tobytes() == ref_series(E, E, n).tobytes()
    # one double above, it is not: the series starts at t = 1
    got = poisson_terms(ABOVE_UNDERFLOW_E, eps)
    want = ref_poisson_terms_loop(ABOVE_UNDERFLOW_E, eps)
    assert got[0] == 0.0
    assert len(got) == len(want) == ref_truncation_bound(ABOVE_UNDERFLOW_E, eps) + 1
    assert np.all(np.abs(got - want) <= TERM_RTOL * want)


def _at_most(E, m):
    """The largest |alpha| with m |alpha|^2 <= E."""
    abs_alpha = math.sqrt(E / m)
    while m * abs_alpha ** 2 > E:
        abs_alpha = math.nextafter(abs_alpha, 0.0)
    return abs_alpha


def test_closed_forms_at_the_underflow_edge_equal_reference():
    points = [SecurityParams(m=m, d=d, abs_alpha=_at_most(E, m), w=w)
              for E in (705.0, UNDERFLOW_E) for m, w in ((1, 1), (7, 3), (40, 20), (40, 40))
              for d in (2, 3, 1000)]
    assert all(p.E <= UNDERFLOW_E for p in points)
    pairs = []
    for p in points:
        q, s = ref_class_sums(p)
        pairs.append((("distance", p), encrypted_trace_distance(p), ref_distance(p)))
        pairs.append((("limit", p), encrypted_trace_distance_limit(p), ref_limit(p)))
        pairs += [(("qk_ak", p, k), qk_ak_finite(p, k), ref_qk_ak(q, s, k)) for k in range(p.d)]
    assert _mismatches(pairs) == []


# --- series sized to their support ----------------------------------------------------
# The terms run over one window that a Poisson tail bound sizes from E and eps,
# and the stop rule is searched for only past floor(E).  The bits, the cutoff and
# the CapacityError cases must be those of the full-window product, including
# at tails whose cut lies past the E + 12 sqrt(E) + 64 window an earlier
# version tried first (_window_end).

def ref_full_window_terms(E, eps, hard_cap=HARD_CUTOFF_CAP):
    """poisson_terms past the underflow as one cumulative product over the whole window."""
    limit = 2 * hard_cap + 64
    if not E <= limit:
        raise CapacityError("cap")
    start, x = _poisson_start(E)
    assert start > 0
    t = np.arange(start + 1, limit + 2)
    terms = np.cumprod(np.concatenate(([x], E / t)))
    stops = np.flatnonzero((terms[1:] < eps * 1e-6) & (t > E))
    t = int(t[stops[0]]) if len(stops) else limit + 1
    terms = terms[:t - start + 1]
    tails = np.cumsum(terms[::-1])[::-1]
    below = np.flatnonzero(tails[1:] < eps)
    if t > limit or len(below) == 0 or start + below[0] > hard_cap:
        raise CapacityError("cap")
    kept = terms[:below[0] + 1]
    return np.concatenate((np.zeros(start), kept / kept.sum()))


def _bytes_or_error(fn, *args):
    try:
        return fn(*args).tobytes()
    except CapacityError:
        return None


def _window_end(E):
    # the window the series first tries; the tests below need both sides of it
    return math.ceil(E + 12.0 * math.sqrt(E)) + 64


# past E ~ 3600 the tail-1e-14 cutoff passes the default cap, and past
# 2 * cap + 64 = 8256 every energy is refused before any series
WINDOW_E = (_large_energies(20261021, 300, 2 * HARD_CUTOFF_CAP + 64)
            + [3550.0, 3600.0, 3650.0, 3700.0, 8256.0, math.nextafter(8256.0, math.inf)])


@pytest.mark.parametrize("eps", [1e-10, 1e-14, 1e-40, 1e-100])
def test_windowed_series_equal_the_full_window(eps):
    # at 1e-40 and 1e-100 the stop rule fires past the first window at every
    # energy below the cap, so the fallback runs
    mismatches = []
    for E in WINDOW_E:
        got = _bytes_or_error(poisson_terms, E, eps)
        want = _bytes_or_error(ref_full_window_terms, E, eps)
        if got != want:
            mismatches.append(E)
    assert mismatches == []


def test_windowed_series_cover_the_fallback_and_the_cap():
    cutoffs = {}
    for eps in (1e-14, 1e-40):
        for E in (1000.0, 3000.0):
            cutoffs[eps, E] = truncation_bound(E, eps)
    # 1e-14 stops inside the first window, 1e-40 only past it
    assert all(cutoffs[1e-14, E] < _window_end(E) for E in (1000.0, 3000.0))
    assert all(cutoffs[1e-40, E] >= _window_end(E) for E in (1000.0, 3000.0))
    # both sides of the cap at tail 1e-14, and refused before the series past 8256
    assert _bytes_or_error(poisson_terms, 3550.0, SERIES_TAIL_EPS) is not None
    assert _bytes_or_error(poisson_terms, 3700.0, SERIES_TAIL_EPS) is None
    assert _bytes_or_error(ref_full_window_terms, 3700.0, SERIES_TAIL_EPS) is None


@pytest.mark.parametrize("hard_cap", [1500, 2000, 3000])
def test_windowed_series_keep_the_capacity_cases_of_small_caps(hard_cap):
    # the window can reach past the cap's own, shorter, full window
    energies = [float(E) for E in np.linspace(709.0, 2 * hard_cap + 64, 120)]
    for eps in (1e-10, 1e-40):
        pairs = [(E, _bytes_or_error(poisson_terms, E, eps, hard_cap),
                  _bytes_or_error(ref_full_window_terms, E, eps, hard_cap)) for E in energies]
        assert _mismatches(pairs) == []
        outcomes = {got is None for _, got, _ in pairs}
        assert outcomes == {True, False}


def _integer_energies():
    energies = []
    for E in (1.0, 40.0, 100.0, 708.0):
        energies += [math.nextafter(E, 0.0), E, math.nextafter(E, math.inf)]
    return energies


@pytest.mark.parametrize("eps", [1e-10, 1e-14])
@pytest.mark.parametrize("E", _integer_energies())
def test_loop_head_without_stop_test_equals_reference(E, eps):
    # floor(E) + 1 steps are taken without the stop test: at an integer E and
    # its neighbours that head ends one step to either side of E
    n = ref_truncation_bound(E, eps)
    assert truncation_bound(E, eps) == n
    assert poisson_terms(E, eps).tobytes() == ref_series(E, E, n).tobytes()


# --- memoized distance ----------------------------------------------------------------

def test_memoized_distance_equals_the_reference_on_every_call():
    from phasekey import security

    p = SecurityParams(m=7, d=11, abs_alpha=math.sqrt(321.5 / 7), w=3)
    want = ref_distance(p)
    first = encrypted_trace_distance(p)
    hits = security._class_sums.cache_info().hits
    assert first == want
    assert encrypted_trace_distance(p) == want
    assert encrypted_trace_distance(SecurityParams(m=7, d=11, abs_alpha=p.abs_alpha, w=3)) == want
    assert security._class_sums.cache_info().hits == hits + 2


def test_memoized_distance_is_keyed_by_every_parameter():
    # each variant differs from the first in one field; all share E = 1 but
    # the one with another |alpha|
    variants = [SecurityParams(m=4, d=6, abs_alpha=0.5, w=1),
                SecurityParams(m=1, d=6, abs_alpha=1.0, w=1),
                SecurityParams(m=4, d=5, abs_alpha=0.5, w=1),
                SecurityParams(m=4, d=6, abs_alpha=0.75, w=1),
                SecurityParams(m=4, d=6, abs_alpha=0.5, w=2)]
    wants = [ref_distance(p) for p in variants]
    assert len(set(wants)) == len(wants)
    for _ in range(2):
        assert [encrypted_trace_distance(p) for p in variants] == wants


def test_one_memo_serves_the_distance_the_ratio_and_every_class():
    # the distance and its limit ride in the class-part record: one miss builds
    # it, and the ratio, the limit and every k's (q_k, A_k) read it back
    from phasekey import security

    p = SecurityParams(m=6, d=9, abs_alpha=0.8, w=2)
    security._class_sums.cache_clear()
    distance = encrypted_trace_distance(p)
    assert security.suppression_ratio(p).encrypted == distance
    assert encrypted_trace_distance_limit(p) == ref_limit(p)
    for k in range(p.d):
        qk_ak_finite(p, k)
    info = security._class_sums.cache_info()
    assert (info.misses, info.hits) == (1, p.d + 2)
    assert distance == ref_distance(p)
    assert not hasattr(encrypted_trace_distance, "cache_info")


# --- one window and one cut -------------------------------------------------------------
# poisson_terms builds its terms once, over a window that a Poisson tail bound
# sizes from E and eps, and cuts them at one bisection of the falling tail.  On a
# sample of energies, tails and caps it must keep the bits and the CapacityError
# cases of the loop up to UNDERFLOW_E and of the full-window product past it,
# including tails of 1e-30 and below, whose cut lies past the 12 sqrt(E) + 64 guess.

BOUND_EPS = (1e-300, 1e-40, 1e-30, 1e-14, 1e-6, 0.999999)
BOUND_CAPS = (10, 500, HARD_CUTOFF_CAP)


def _bound_energies():
    rng = np.random.default_rng(20261023)
    edges = [0.0, 1e-300, 0.5, 1.0, 40.0, 708.0, UNDERFLOW_E, ABOVE_UNDERFLOW_E, 709.0,
             3000.0, 8255.9, 8256.0]
    return edges + [float(E) for E in np.exp(rng.uniform(math.log(1e-8), math.log(7900.0), 160))]


def _reference_outcome(E, eps, hard_cap):
    """The loop's bits up to UNDERFLOW_E, the full-window product's past it; None for CapacityError."""
    if E > UNDERFLOW_E:
        return _bytes_or_error(ref_full_window_terms, E, eps, hard_cap)
    try:
        n = len(ref_poisson_terms_loop(E, eps, hard_cap)) - 1
    except CapacityError:
        return None
    return ref_series(E, E, n).tobytes()


def test_bounded_window_keeps_the_bits_and_the_capacity_cases():
    cases = [(E, eps, cap) for E in _bound_energies() for eps in BOUND_EPS for cap in BOUND_CAPS]
    assert len(cases) >= 2000
    mismatches, retries = [], 0
    for E, eps, cap in cases:
        got = _bytes_or_error(poisson_terms, E, eps, cap)
        if got != _reference_outcome(E, eps, cap):
            mismatches.append((E, eps, cap))
        elif got is not None and E > UNDERFLOW_E and eps <= 1e-30:
            retries += len(got) // 8 - 1 >= _window_end(E)  # the cutoff, and so the stop
    assert mismatches == []
    assert retries >= 20  # stops past the old first window, where its retry ran


# --- the eps floor -----------------------------------------------------------------------
# The stop rule compares terms with eps * 1e-6; below eps ~ 2.23e-302 that threshold
# is subnormal, the terms it meets are rounded to a few subnormal steps, and the
# tail-bound window no longer holds the cut, so such eps are refused.

FLOOR_EPS = 2.3e-302


@pytest.mark.parametrize("E", [1.0, 2050.0])
@pytest.mark.parametrize("eps", [2.0e-302, 4e-318, 5e-324])
def test_eps_with_a_subnormal_stop_threshold_is_refused(eps, E):
    with pytest.raises(ValueError, match=r"eps must be at least 2\.23e-302"):
        truncation_bound(E, eps)


@pytest.mark.parametrize("eps", [0.0, -1e-10, 1.0, 2.0])
def test_eps_outside_the_unit_interval_keeps_its_message(eps):
    with pytest.raises(ValueError, match=r"eps must lie in \(0, 1\)"):
        poisson_terms(1.0, eps)


def test_eps_just_above_the_floor_keeps_the_reference_bits():
    assert FLOOR_EPS * 1e-6 >= sys.float_info.min
    for E in (0.0, 1e-8, 1.0, 40.0, 708.0, 2050.0):
        want = _reference_outcome(E, FLOOR_EPS, HARD_CUTOFF_CAP)
        assert want is not None
        assert _bytes_or_error(poisson_terms, E, FLOOR_EPS, HARD_CUTOFF_CAP) == want


# --- sweep lines ---------------------------------------------------------------------------
# security._line_distances evaluates a line, one (m, d) over an |alpha| grid and
# several w, with the series of each run of _series_runs zero-padded side by side.
# Every value must equal the one-row encrypted_trace_distance (==), and ref_distance
# wherever the loop applies: d up to 1000 and e^{-E} a normal double.

def _line(m, d, ws, alphas):
    """(params, got, one_row, reference) per (w, |alpha|) of a line; reference None where the
    loop does not apply."""
    got = _line_distances(m, d, ws, alphas)
    cases = []
    for w, line in zip(ws, got):
        assert len(line) == len(alphas)
        for abs_alpha, value in zip(alphas, line):
            p = SecurityParams(m=m, d=d, abs_alpha=abs_alpha, w=w)
            ref = ref_distance(p) if d <= 1000 and p.E <= UNDERFLOW_E else None
            cases.append((p, value, encrypted_trace_distance(p), ref))
    return cases


def _line_mismatches(cases):
    return [(p, got, one, ref) for p, got, one, ref in cases
            if not (got == one and (ref is None or got == ref))]


def _weights(rng, m):
    return sorted({0, m // 2, m, int(rng.integers(0, m + 1))})


def _random_lines():
    """Seeded lines: m up to 60, w in {0, m/2, m, random}, d from 1 through 10^12 and past the
    series, |alpha| runs from 0, inside the series cap and straddling E ~ 708.4."""
    rng = np.random.default_rng(20261029)
    lines = []
    for i in range(10):
        m = int(rng.integers(1, 61))
        E_hi = [40.0, 700.0, 720.0][i % 3]
        lo = 0.0 if i % 2 else math.sqrt(float(rng.uniform(0.5, 0.95)) * E_hi / m)
        alphas = [float(a) for a in np.linspace(lo, math.sqrt(E_hi / m), int(rng.integers(5, 30)))]
        t_max = ref_truncation_bound(E_hi, SERIES_TAIL_EPS)
        d = [1, 2, 2 * int(rng.integers(1, 50)) + 1, t_max + 1 + int(rng.integers(0, 50)),
             10 ** 12][i % 5]
        lines.append((m, d, _weights(rng, m), alphas))
    return lines


@pytest.mark.parametrize("m, d, ws, alphas", _random_lines())
def test_line_equals_one_row_and_reference(m, d, ws, alphas):
    assert _line_mismatches(_line(m, d, ws, alphas)) == []


def test_line_across_the_underflow_edge():
    # E = 702..718 at m = 1 (the CI sweep's line) and E ~ 707..710 at m = 7: rows on
    # both sides of e^{-E} underflowing, the loop's steps on one side and the product
    # on the other, and at m = 7 both in one run
    straddled = False
    for m, d, alphas in ((1, 7, [26.5 + i * 0.005 for i in range(61)]),
                         (7, 3, [10.05 + i * 0.0005 for i in range(41)])):
        energies = [m * a ** 2 for a in alphas]
        assert min(energies) < UNDERFLOW_E < max(energies)
        straddled |= any({pois[0] > 0.0 for pois in series} == {True, False}
                         for series, _ in _series_runs(m, alphas))
        cases = _line(m, d, [0, 1, m], alphas)
        assert _line_mismatches(cases) == []
        assert sum(ref is not None for *_, ref in cases) >= 20
    assert straddled


def test_line_longer_than_one_run():
    alphas = [i * 0.005 for i in range(401)]  # |alpha| 0..2, series up to ~90 terms
    assert len(list(_series_runs(10, alphas))) > 2
    assert _line_mismatches(_line(10, 100, [0, 1, 5, 10], alphas)) == []


@pytest.mark.parametrize("abs_alpha", [0.0, 1e-200, 0.37, 4.2, 8.45, 8.5, 19.0])
@pytest.mark.parametrize("d", [1, 2, 5, 10 ** 12])
def test_one_row_lines(abs_alpha, d):
    m = 10
    ws = [0, 3, 5, 10]
    ref_ok = d <= 1000 and m * abs_alpha ** 2 <= UNDERFLOW_E
    cases = _line(m, d, ws, [abs_alpha])
    assert _line_mismatches(cases) == []
    assert all((ref is not None) == ref_ok for *_, ref in cases)
