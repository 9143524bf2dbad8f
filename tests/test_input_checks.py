"""Input checks of the library that no other test reaches: each raises its own type and message."""

import json
import math

import pytest

from phasekey.checks import run_checks
from phasekey.encoding import (
    AmplitudeVector,
    BitString,
    PhaseKey,
    block_decomposition,
    encryption_channel_density,
)
from phasekey.evaluation import NonlinearPhaseSpec, haar_random_unitary, nonlinear_phase_evolve
from phasekey.fock import coherent_fock, distance_cutoff
from phasekey.protocol import CircuitDescription, circuit_from_json, wire_float
from phasekey.security import SecurityParams, unencrypted_trace_distance


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
}


@pytest.mark.parametrize("name", CASES)
def test_rejects_with_its_message(name):
    call, message = CASES[name]
    with pytest.raises(ValueError) as err:
        call()
    assert err.type is ValueError
    assert str(err.value) == message
