"""Input checks of the library that no other test reaches: each raises its own type and message."""

import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasekey.checks import run_checks
from phasekey.encoding import (
    AmplitudeVector,
    BitString,
    PhaseKey,
    block_decomposition,
    encryption_channel_density,
    keygen,
)
from phasekey.evaluation import NonlinearPhaseSpec, haar_random_unitary, nonlinear_phase_evolve
from phasekey.fock import FockVector, coherent_fock, distance_cutoff, occupation_array
from phasekey.protocol import (
    CircuitDescription,
    ciphertext_from_json,
    circuit_from_json,
    wire_float,
)
from phasekey.security import (
    SecurityParams,
    encrypted_distance_oracle,
    encrypted_trace_distance,
    pgm_closed_form,
    pgm_numeric_oracle,
    qk_ak_enumeration,
    qk_ak_finite,
    unencrypted_trace_distance,
)


def _circuit(gate):
    return circuit_from_json(json.dumps({"type": "circuit", "gates": [gate]}))


def _bad_tol(tol):
    return (lambda: distance_cutoff(1.0, tol),
            "tol must lie in (0, 1) with tol ** 2 * 1e-6 a normal double "
            f"(tol above about 1.49e-151), got {tol!r}")


CASES = {
    "phase-key-d-below-one": (lambda: PhaseKey(k=0, d=0),
                              "key space size d must be at least 1"),
    "empty-amplitudes": (lambda: AmplitudeVector([]),
                         "amplitudes must form a nonempty vector"),
    "non-finite-amplitude": (lambda: AmplitudeVector([1.0, math.nan]),
                             "amplitudes must be finite"),
    "channel-d-below-one": (lambda: encryption_channel_density(BitString((0,)), 1.0, 0, 3),
                            "key space size d must be at least 1"),
    "blocks-d-below-one": (lambda: block_decomposition(1.0, 1, 0, 3),
                           "key space size d must be at least 1"),
    "non-finite-coupling": (lambda: NonlinearPhaseSpec(terms={(2,): math.inf}),
                            "couplings must be finite"),
    "haar-zero-modes": (lambda: haar_random_unitary(0, 1), "m must be at least 1"),
    "phase-mode-mismatch": (lambda: nonlinear_phase_evolve(NonlinearPhaseSpec(terms={(2, 0): 1.0}),
                                                           coherent_fock([1.0], 3)),
                            "phase specification must match the mode count"),
    "non-gate": (lambda: CircuitDescription((object(),)), "unsupported gate object: object"),
    "non-finite-wire-float": (lambda: wire_float(math.nan), "wire formats only carry finite floats"),
    "gate-not-an-object": (lambda: _circuit(1), "circuit gate 0: expected an object"),
    "matrix-not-a-list": (lambda: _circuit({"kind": "interferometer", "matrix": 3}),
                          "circuit gate 0: matrix must be a list of rows"),
    "empty-terms": (lambda: _circuit({"kind": "nonlinear", "terms": []}),
                    "circuit gate 0: terms must be a nonempty list"),
    "term-without-g": (lambda: _circuit({"kind": "nonlinear", "terms": [{"exps": [2]}]}),
                       'circuit gate 0: each term needs "exps" and "g"'),
    "gates-not-a-list": (lambda: circuit_from_json('{"type": "circuit", "gates": {}}'),
                         "circuit gates must be a list"),
    "payload-not-a-list": (lambda: ciphertext_from_json(
        '{"type": "ciphertext", "repr": "amplitude", "m": 1, "payload": "[[1, 0]]"}'),
        "ciphertext payload must be a list of [re, im] pairs"),
    "negative-alpha": (lambda: SecurityParams(m=1, d=2, abs_alpha=-0.5, w=0),
                       "|alpha| must be nonnegative"),
    "negative-w": (lambda: unencrypted_trace_distance(-1, 0.5), "w must be nonnegative"),
    "unknown-check-level": (lambda: run_checks("medium"), "unknown check level 'medium'"),
    "negative-tol": _bad_tol(-1e-3),
    "zero-tol": _bad_tol(0.0),
    "tol-of-one": _bad_tol(1.0),
    "nan-tol": _bad_tol(math.nan),
    "tol-below-a-normal-eps": _bad_tol(1e-152),
    "tol-just-below-a-normal-eps": _bad_tol(1.4916e-151),
    # a count that is not an integer names no code, so it gets no number
    "fractional-m": (lambda: SecurityParams(m=2.5, d=3, abs_alpha=1.0, w=1),
                     "m must be an integer, got 2.5"),
    "fractional-d": (lambda: SecurityParams(m=2, d=2.5, abs_alpha=1.0, w=1),
                     "d must be an integer, got 2.5"),
    "fractional-w": (lambda: SecurityParams(m=2, d=3, abs_alpha=1.0, w=1.5),
                     "w must be an integer, got 1.5"),
    "string-m": (lambda: SecurityParams(m="2", d=3, abs_alpha=1.0, w=1),
                 "m must be an integer, got '2'"),
    "fractional-block": (lambda: qk_ak_finite(SecurityParams(m=2, d=3, abs_alpha=1.0, w=1), 1.5),
                         "k must be an integer, got 1.5"),
    "fractional-key": (lambda: PhaseKey(k=1.5, d=3), "key k must be an integer, got 1.5"),
    "fractional-key-space": (lambda: PhaseKey(k=1, d=2.5),
                             "key space size d must be an integer, got 2.5"),
    "keygen-fractional-key-space": (lambda: keygen(2.5, 0),
                                    "key space size d must be an integer, got 2.5"),
    "keygen-key-space-past-int64": (lambda: keygen(2 ** 63 + 1, 0),
                                    "key space size d must be at most 2^63 to draw a key, "
                                    "got 9223372036854775809"),
    "unencrypted-fractional-w": (lambda: unencrypted_trace_distance(1.5, 0.5),
                                 "w must be an integer, got 1.5"),
    "pgm-negative-modes": (lambda: pgm_closed_form(1.0, modes=-1), "modes must be at least 1"),
    "pgm-fractional-modes": (lambda: pgm_closed_form(1.0, modes=2.5),
                             "modes must be an integer, got 2.5"),
    "fractional-bit": (lambda: BitString((0.5, 1)), "bit must be an integer, got 0.5"),
    "text-bit": (lambda: BitString(("0", "1")), "bit must be an integer, got '0'"),
    "fractional-exponent": (lambda: NonlinearPhaseSpec({(2.5,): 1.0}),
                            "exponent must be an integer, got 2.5"),
    "channel-fractional-d": (lambda: encryption_channel_density(BitString((0,)), 1.0, 2.5, 3),
                             "key space size d must be an integer, got 2.5"),
    "blocks-fractional-d": (lambda: block_decomposition(1.0, 1, 2.5, 3),
                            "key space size d must be an integer, got 2.5"),
    "oracle-fractional-d": (lambda: encrypted_distance_oracle(BitString((0,)), BitString((1,)),
                                                              1.0, 2.5, 3),
                            "key space size d must be an integer, got 2.5"),
    "blocks-fractional-m": (lambda: block_decomposition(1.0, 1.5, 2, 3),
                            "m must be an integer, got 1.5"),
    "haar-fractional-m": (lambda: haar_random_unitary(2.5, 1), "m must be an integer, got 2.5"),
    "fock-vector-fractional-cutoff": (lambda: FockVector(cutoff=2.0, modes=1, amps=np.zeros(3)),
                                      "cutoff must be an integer, got 2.0"),
    "fock-vector-fractional-modes": (lambda: FockVector(cutoff=2, modes=1.0, amps=np.zeros(3)),
                                     "modes must be an integer, got 1.0"),
    "coherent-fractional-cutoff": (lambda: coherent_fock([1.0], 2.5),
                                   "n_max must be an integer, got 2.5"),
    "enumeration-fractional-cutoff": (lambda: qk_ak_enumeration(
        SecurityParams(m=2, d=3, abs_alpha=1.0, w=1), 2.5), "n_max must be an integer, got 2.5"),
    "pgm-oracle-fractional-cutoff": (lambda: pgm_numeric_oracle(1.0, 2.5),
                                     "n_max must be an integer, got 2.5"),
    "oracle-fractional-cutoff": (lambda: encrypted_distance_oracle(BitString((0,)),
                                                                   BitString((1,)), 1.0, 2, 2.5),
                                 "n_max must be an integer, got 2.5"),
    # the grid cache takes 2.0 for 2, so the count is checked before it
    "cached-grid-fractional-cutoff": (lambda: (occupation_array(2, 1), occupation_array(2.0, 1)),
                                      "n_max must be an integer, got 2.0"),
    # int() reads fullwidth digits and names itself in its message
    "fullwidth-bits": (lambda: BitString.from_text("\uff11\uff10"),
                       "bits must be the characters 0 and 1, got '\uff11'"),
    "letter-in-bits": (lambda: BitString.from_text("1a"),
                       "bits must be the characters 0 and 1, got 'a'"),
}


@pytest.mark.parametrize("name", CASES)
def test_rejects_with_its_message(name):
    call, message = CASES[name]
    with pytest.raises(ValueError) as err:
        call()
    assert err.type is ValueError
    assert str(err.value) == message


# Every count that goes through fock.as_int: (field name in the message,
# smallest and largest value drawn, the call on that value).  Each call returns
# what pickle compares bit for bit, stored types included.
_PAIR = (BitString((0, 1)), BitString((1, 1)))


def _channel(d):
    rho = encryption_channel_density(_PAIR[0], 0.7, d, 3)
    return rho.entries, rho.sectors


def _blocks(m, d):
    return [(b.j, b.q_j, b.gtilde.amps) for b in block_decomposition(0.7, m, d, 3)]


def _distance(m=3, d=3, w=1):
    params = SecurityParams(m=m, d=d, abs_alpha=0.8, w=w)
    return params, encrypted_trace_distance(params)


COUNTS = {
    "phase-key-d": ("key space size d", 1, 9, lambda d: PhaseKey(k=0, d=d)),
    "phase-key-k": ("key k", 0, 8, lambda k: PhaseKey(k=k, d=9)),
    "keygen-d": ("key space size d", 1, 9, lambda d: keygen(d, 3)),
    "channel-d": ("key space size d", 1, 6, _channel),
    "blocks-m": ("m", 1, 3, lambda m: _blocks(m, 3)),
    "blocks-d": ("key space size d", 1, 6, lambda d: _blocks(2, d)),
    "params-m": ("m", 1, 5, lambda m: _distance(m=m)),
    "params-d": ("d", 1, 50, lambda d: _distance(d=d)),
    "params-w": ("w", 0, 3, lambda w: _distance(w=w)),
    "block-k": ("k", 0, 2, lambda k: qk_ak_finite(_distance()[0], k)),
    "oracle-d": ("key space size d", 1, 6, lambda d: encrypted_distance_oracle(*_PAIR, 0.7, d, 4)),
    "haar-m": ("m", 1, 4, lambda m: haar_random_unitary(m, 3).u),
    "bit": ("bit", 0, 1, lambda b: BitString((b, 1))),
    "exponent": ("exponent", 1, 4, lambda e: NonlinearPhaseSpec({(e, 0): 1.0}).terms),
    "unencrypted-w": ("w", 0, 5, lambda w: unencrypted_trace_distance(w, 0.6)),
    "pgm-modes": ("modes", 1, 20, lambda modes: pgm_closed_form(0.6, modes)),
    "coherent-n-max": ("n_max", 0, 6, lambda n: coherent_fock([0.7, -0.7], n)),
    "fock-vector-cutoff": ("cutoff", 2, 2,
                           lambda n: FockVector(cutoff=n, modes=2, amps=np.ones(6))),
}

NUMPY_INTEGERS = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(COUNTS)),
       value=st.floats(allow_nan=False, allow_infinity=False).filter(lambda x: not x.is_integer()))
def test_a_fractional_count_is_refused_by_name(name, value):
    field, _, _, call = COUNTS[name]
    with pytest.raises(ValueError) as err:
        call(value)
    assert str(err.value) == f"{field} must be an integer, got {value!r}"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), name=st.sampled_from(sorted(COUNTS)), kind=st.sampled_from(NUMPY_INTEGERS))
def test_a_numpy_integer_count_gives_the_bits_of_the_python_int(data, name, kind):
    _, lo, hi, call = COUNTS[name]
    n = data.draw(st.integers(lo, hi))
    assert pickle.dumps(call(kind(n))) == pickle.dumps(call(n))
