"""One walk over the gates for the ciphertext and its plaintext reference.

run_protocol evaluates the encrypted and the plaintext state together,
building each number-basis interferometer block once, and a Transcript
encodes each wire message once.  These tests hold both to the two
separate evaluator runs and the per-call encoding they replace: the same
transcript bytes and the same state bits.
"""

import dataclasses

import numpy as np
import pytest

from phasekey import protocol
from phasekey.encoding import AmplitudeVector, BitString, encode, keygen
from phasekey.evaluation import (
    NonlinearPhaseSpec,
    apply_interferometer,
    haar_random_unitary,
    interferometer_fock,
    nonlinear_phase_evolve,
)
from phasekey.fock import CapacityError, coherent_fock, truncation_bound
from phasekey.protocol import (
    CircuitDescription,
    Transcript,
    UndecodableError,
    ciphertext_to_json,
    circuit_to_json,
    client_decrypt,
    client_encrypt,
    evaluator_apply,
    run_protocol,
)


def _evaluate_alone(circuit, state, n_max=None):
    """One state through the circuit, every interferometer lifted for it alone.

    The first nonlinear gate expands it at n_max or else, as the evaluator
    does, at the cutoff its own total energy gives.
    """
    for gate in circuit.gates:
        if isinstance(gate, NonlinearPhaseSpec):
            if isinstance(state, AmplitudeVector):
                if n_max is None:
                    n_max = truncation_bound(state.total_energy())
                state = coherent_fock(state.amps, n_max)
            state = nonlinear_phase_evolve(gate, state)
        elif isinstance(state, AmplitudeVector):
            state = apply_interferometer(gate, state)
        else:
            state = interferometer_fock(gate, state)
    return state


def _two_run_protocol(x, alpha, d, circuit, seed):
    """run_protocol with one evaluator run for the ciphertext and one for the plaintext."""
    m = len(x)
    alpha = complex(alpha)
    key = keygen(d, seed)
    flags = []
    if d == 1:
        flags.append("no security: trivial key space")
    if alpha == 0:
        flags.append("degenerate code: alpha = 0")

    sent = client_encrypt(x, alpha, key)
    returned = _evaluate_alone(circuit, sent)
    decrypted = client_decrypt(returned, key)
    # the plaintext reference runs at the cutoff of the ciphertext's run
    reference = _evaluate_alone(circuit, encode(x, alpha), getattr(returned, "cutoff", None))

    if isinstance(decrypted, AmplitudeVector):
        diff = float(np.abs(decrypted.amps - reference.amps).max())
        correctness = {"metric": "amplitude", "value": diff,
                       "pass": diff <= 1e-12 * max(1.0, abs(alpha))}
    else:
        a, b = decrypted.amps, reference.amps
        fid = float(abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b)))
        correctness = {"metric": "overlap", "value": fid, "pass": fid >= 1 - 1e-8}
    try:
        y = protocol._decode(decrypted, alpha)
        y_reference = protocol._decode(reference, alpha)
    except UndecodableError as exc:
        y = y_reference = None
        flags.append(f"undecodable: {exc}")
    return Transcript(
        m=m, d=d, alpha=alpha, seed=seed, key=key, sent=sent, circuit=circuit,
        returned=returned,
        decrypt_ops={"phase_rotations": m, "decode_decisions": m},
        correctness=correctness, y=y, y_reference=y_reference, flags=flags,
        decrypted=decrypted)


def _kerr(m, strength):
    if m == 1:
        return NonlinearPhaseSpec(terms={(2,): strength, (1,): -strength})
    return NonlinearPhaseSpec(terms={(1, 1) + (0,) * (m - 2): strength})


def _circuit(kind, m):
    haar = [haar_random_unitary(m, 40 + i) for i in range(3)]
    gates = {
        "amplitude-only": (haar[0], haar[1]),
        "kerr-only": (_kerr(m, 0.2),),
        "haar-kerr-haar": (haar[0], _kerr(m, 0.15), haar[1]),
        "two-lift": (haar[0], _kerr(m, 0.1), haar[1], _kerr(m, 0.3), haar[2]),
        "kerr-first": (_kerr(m, 0.25), haar[0], haar[1]),
    }[kind]
    return CircuitDescription(gates=gates)


KINDS = ("amplitude-only", "kerr-only", "haar-kerr-haar", "two-lift", "kerr-first")


def _exchange(m):
    rng = np.random.default_rng(m)
    x = BitString(tuple(int(b) for b in rng.integers(0, 2, size=m)))
    return x, float(rng.uniform(0.5, 1.2)), 37, 5 + m


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("kind", KINDS)
class TestOneWalkMatchesTwoRuns:
    def test_transcript_bytes(self, kind, m):
        x, alpha, d, seed = _exchange(m)
        circuit = _circuit(kind, m)
        want = _two_run_protocol(x, alpha, d, circuit, seed)
        got = run_protocol(x, alpha, d, circuit, seed)
        assert got.to_jsonl() == want.to_jsonl()
        np.testing.assert_array_equal(got.returned.amps, want.returned.amps)
        np.testing.assert_array_equal(got.decrypted.amps, want.decrypted.amps)

    def test_returned_and_reference_states(self, kind, m):
        x, alpha, d, seed = _exchange(m)
        circuit = _circuit(kind, m)
        sent = client_encrypt(x, alpha, keygen(d, seed))
        plain = encode(x, alpha)
        returned, reference = protocol._evaluate(circuit, [sent, plain])
        assert type(returned) is type(reference)
        n_max = getattr(returned, "cutoff", None)
        np.testing.assert_array_equal(returned.amps, _evaluate_alone(circuit, sent).amps)
        np.testing.assert_array_equal(reference.amps, _evaluate_alone(circuit, plain, n_max).amps)
        np.testing.assert_array_equal(evaluator_apply(circuit, sent).amps, returned.amps)


class TestCapacity:
    def test_capacity_error_before_any_lift(self, monkeypatch):
        def no_lift(*args):
            raise AssertionError("the number basis was allocated")

        monkeypatch.setattr(protocol, "coherent_fock", no_lift)
        # |alpha| = 0.8 on four modes gives cutoff 18, whose blocks hold 5.97M entries
        circuit = CircuitDescription(gates=(NonlinearPhaseSpec(terms={(2, 0, 0, 0): 1.0}),))
        with pytest.raises(CapacityError, match="block entries"):
            run_protocol(BitString((0, 1, 0, 1)), 0.8, 2, circuit, seed=0)
        with pytest.raises(CapacityError, match="block entries"):
            evaluator_apply(circuit, client_encrypt(BitString((0, 1, 0, 1)), 0.8, keygen(2, 0)))


def _haar_kerr_transcript():
    return run_protocol(BitString((1, 0)), 0.8, 20, _circuit("haar-kerr-haar", 2), seed=3)


def _count_encodes(monkeypatch):
    calls = {"ciphertext": 0, "circuit": 0}

    def counted(name, fn):
        def wrapper(obj):
            calls[name] += 1
            return fn(obj)
        return wrapper

    monkeypatch.setattr(protocol, "ciphertext_to_json",
                        counted("ciphertext", protocol.ciphertext_to_json))
    monkeypatch.setattr(protocol, "circuit_to_json", counted("circuit", protocol.circuit_to_json))
    return calls


class TestTranscriptEncoding:
    def test_repeated_wire_messages_equal_fresh_encoding(self):
        tr = _haar_kerr_transcript()
        fresh = [ciphertext_to_json(tr.sent), circuit_to_json(tr.circuit),
                 ciphertext_to_json(tr.returned)]
        assert tr.wire_messages() == fresh
        assert tr.wire_messages() == fresh
        text = tr.to_jsonl()
        assert all(f'"body":{body}}}' in text for body in fresh)
        assert tr.wire_messages() == fresh

    def test_each_message_encoded_once(self, monkeypatch):
        tr = _haar_kerr_transcript()
        calls = _count_encodes(monkeypatch)
        first = tr.to_jsonl()
        assert calls == {"ciphertext": 2, "circuit": 1}
        tr.wire_messages()
        assert tr.to_jsonl() == first
        assert calls == {"ciphertext": 2, "circuit": 1}

    def test_replace_encodes_afresh(self, monkeypatch):
        tr = _haar_kerr_transcript()
        tr.to_jsonl()
        calls = _count_encodes(monkeypatch)
        flagged = dataclasses.replace(tr, flags=["note"])
        assert flagged.to_jsonl() == tr.to_jsonl().replace('"flags":[]', '"flags":["note"]')
        assert calls == {"ciphertext": 2, "circuit": 1}
        other = client_encrypt(BitString((0, 0)), 0.8, keygen(20, 4))
        swapped = dataclasses.replace(tr, returned=other)
        assert swapped.wire_messages()[2] == ciphertext_to_json(other)
        assert tr.wire_messages()[2] == ciphertext_to_json(tr.returned)

    def test_number_basis_states_are_read_only(self):
        # a write into a state would leave the cached wire bodies describing the old one
        tr = _haar_kerr_transcript()
        bodies = tr.wire_messages()
        with pytest.raises(ValueError, match="read-only"):
            tr.returned.amps[0] = np.nan
        assert tr.wire_messages() == bodies == [ciphertext_to_json(tr.sent),
                                                circuit_to_json(tr.circuit),
                                                ciphertext_to_json(tr.returned)]

    def test_returned_list_is_the_callers(self):
        tr = _haar_kerr_transcript()
        bodies = tr.wire_messages()
        bodies[0] = "changed"
        assert tr.wire_messages()[0] == ciphertext_to_json(tr.sent)

    def test_transcript_is_frozen(self):
        tr = _haar_kerr_transcript()
        with pytest.raises(dataclasses.FrozenInstanceError):
            tr.returned = tr.sent
