"""Property tests of the wire parsers and encoders (hypothesis)."""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from phasekey.encoding import AmplitudeVector
from phasekey.evaluation import Interferometer, NonlinearPhaseSpec, haar_random_unitary
from phasekey.fock import FockVector
from phasekey.protocol import (
    CipherText,
    CircuitDescription,
    ciphertext_from_json,
    ciphertext_to_json,
    circuit_from_json,
    circuit_to_json,
)

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)

finite = (st.floats(allow_nan=False, allow_infinity=False)
          | st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e17, -1e17]))
complexes = st.builds(complex, finite, finite)


@st.composite
def ciphertexts(draw):
    if draw(st.booleans()):
        m = draw(st.integers(1, 12))
        amps = draw(st.lists(complexes, min_size=m, max_size=m))
        return AmplitudeVector(np.array(amps))
    m = draw(st.integers(1, 2))
    cutoff = draw(st.integers(0, 4))
    n = (cutoff + 1) ** m
    amps = draw(st.lists(complexes, min_size=n, max_size=n))
    return FockVector(cutoff=cutoff, modes=m, amps=np.array(amps))


@st.composite
def signed_permutations(draw, m):
    """Exact unitaries whose entries include -0.0 and +-1."""
    perm = draw(st.permutations(range(m)))
    u = np.zeros((m, m), dtype=complex)
    for row, col in enumerate(perm):
        u[row, col] = draw(st.sampled_from([1, -1, 1j, -1j, complex(-1, -0.0)]))
    u[u == 0] = draw(st.sampled_from([0j, complex(-0.0, 0), complex(0, -0.0)]))
    return Interferometer(u)


@st.composite
def gates(draw, m):
    kind = draw(st.sampled_from(["haar", "permutation", "nonlinear"]))
    if kind == "haar":
        return haar_random_unitary(m, draw(st.integers(0, 2 ** 32)))
    if kind == "permutation":
        return draw(signed_permutations(m))
    exps = st.lists(st.integers(0, 4), min_size=m, max_size=m).filter(any).map(tuple)
    terms = draw(st.dictionaries(exps, finite, min_size=1, max_size=4))
    return NonlinearPhaseSpec(terms=terms, t=draw(finite))


@st.composite
def circuits(draw):
    m = draw(st.integers(1, 6))
    return CircuitDescription(tuple(draw(st.lists(gates(m), max_size=4))))


@PROPERTY
@given(ciphertexts())
def test_ciphertext_encode_decode_encode_is_byte_identical(ct):
    text = ciphertext_to_json(ct)
    assert ciphertext_to_json(ciphertext_from_json(text)) == text


@PROPERTY
@given(circuits())
def test_circuit_encode_decode_encode_is_byte_identical(circuit):
    text = circuit_to_json(circuit)
    assert circuit_to_json(circuit_from_json(text)) == text


# Arbitrary JSON values, non-finite and out-of-range numbers included.
json_values = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers()
    | st.sampled_from([10 ** 400, -(10 ** 400), 2 ** 64, -1, 0])
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=6), inner,
                                                              max_size=5),
    max_leaves=25)

# Numbers and near-numbers for the slots that must hold a float.
numbers = (st.integers() | st.floats() | st.booleans() | st.none()
           | st.sampled_from([10 ** 400, -(10 ** 400), "1", [1]]))
pairs = st.lists(numbers, min_size=2, max_size=2)

KEYS = {"ciphertext": ["type", "repr", "m", "payload", "cutoff"],
        "circuit": ["type", "gates"]}


def _mutations(valid: dict, keys):
    """A valid message with fields (top level or one gate's) replaced by junk."""
    def mutate(draw_pairs):
        obj = json.loads(json.dumps(valid))
        for where, key, value in draw_pairs:
            target = obj
            gates = obj.get("gates")
            # an earlier pair may have replaced the gate list with junk
            if where == "gate" and isinstance(gates, list) and gates and isinstance(gates[0], dict):
                target = gates[0]
            target[key] = value
        return obj
    fields = st.sampled_from(keys + ["kind", "matrix", "terms", "t", "exps", "g"])
    return st.lists(st.tuples(st.sampled_from(["top", "gate"]), fields, json_values),
                    min_size=1, max_size=3).map(mutate)


VALID_CT = json.loads(ciphertext_to_json(FockVector(cutoff=1, modes=1,
                                                   amps=np.array([0.6, 0.8j]))))
VALID_CIRCUIT = json.loads(circuit_to_json(CircuitDescription((
    NonlinearPhaseSpec(terms={(2,): 1.0, (1,): -0.5}, t=0.3),
    haar_random_unitary(1, 0)))))

parser_inputs = st.one_of(
    st.text(max_size=40),
    json_values.map(lambda v: json.dumps(v)),
    _mutations(VALID_CT, KEYS["ciphertext"]).map(json.dumps),
    _mutations(VALID_CIRCUIT, KEYS["circuit"]).map(json.dumps),
    st.builds(lambda payload: json.dumps({**VALID_CT, "payload": payload}),
              st.lists(pairs, min_size=2, max_size=2)),
    st.builds(lambda entry: json.dumps({"type": "circuit", "gates": [
        {"kind": "interferometer", "matrix": [[entry]]}]}), pairs),
    st.builds(lambda g, t: json.dumps({"type": "circuit", "gates": [
        {"kind": "nonlinear", "terms": [{"exps": [2], "g": g}], "t": t}]}), numbers, numbers),
)


@settings(PROPERTY, max_examples=400)
@given(parser_inputs)
def test_parsers_return_an_object_or_raise_value_error(text):
    for parse, kind in ((ciphertext_from_json, CipherText),
                        (circuit_from_json, CircuitDescription)):
        try:
            obj = parse(text)
        except ValueError:
            continue
        assert isinstance(obj, kind)
