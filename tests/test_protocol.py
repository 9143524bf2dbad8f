"""Tests for the end-to-end exchange and its wire formats."""

import itertools
import json
import math

import numpy as np
import pytest

from phasekey.encoding import AmplitudeVector, BitString, PhaseKey, encode
from phasekey.evaluation import (
    Interferometer,
    NonlinearPhaseSpec,
    haar_random_unitary,
    kerr_cat_reference,
)
from phasekey.fock import CapacityError, FockVector, coherent_fock, overlap, truncation_bound
from phasekey.protocol import (
    CipherText,
    CircuitDescription,
    UndecodableError,
    ciphertext_from_json,
    ciphertext_to_json,
    circuit_from_json,
    circuit_to_json,
    client_decrypt_decode,
    client_encrypt,
    evaluator_apply,
    run_protocol,
)

KERR_CAT = CircuitDescription(gates=(NonlinearPhaseSpec(terms={(2,): 1.0}, t=math.pi / 2),))


class TestClientEncrypt:
    def test_zero_key_is_plaintext(self):
        ct = client_encrypt(BitString((1, 0)), 1.0, PhaseKey(k=0, d=7))
        np.testing.assert_allclose(ct.amps, [-1.0, 1.0], atol=1e-15)

    def test_quarter_key(self):
        ct = client_encrypt(BitString((0, 1)), 1.0, PhaseKey(k=1, d=4))
        np.testing.assert_allclose(ct.amps, [-1j, 1j], atol=1e-15)

    def test_energy_is_key_and_message_independent(self):
        for bits, k in [((0, 0), 0), ((1, 0), 3), ((1, 1), 9)]:
            ct = client_encrypt(BitString(bits), 1.3, PhaseKey(k=k, d=10))
            assert ct.total_energy() == pytest.approx(2 * 1.3 ** 2, abs=1e-12)


class TestCipherTextWire:
    def test_amplitude_round_trip(self):
        ct = client_encrypt(BitString((0, 1)), 0.8, PhaseKey(k=2, d=5))
        back = ciphertext_from_json(ciphertext_to_json(ct))
        assert isinstance(back, AmplitudeVector)
        assert back.modes == 2
        np.testing.assert_allclose(back.amps, ct.amps, atol=1e-17)

    def test_fock_round_trip(self):
        psi = coherent_fock([0.7], 6)
        back = ciphertext_from_json(ciphertext_to_json(psi))
        assert isinstance(back, FockVector)
        assert back.cutoff == 6
        np.testing.assert_allclose(back.amps, psi.amps, atol=1e-17)

    def test_field_order_is_fixed(self):
        ct = client_encrypt(BitString((0,)), 1.0, PhaseKey(k=0, d=2))
        assert ciphertext_to_json(ct).startswith(
            '{"type":"ciphertext","repr":"amplitude","m":1,"payload":[[')
        psi = coherent_fock([0.5], 3)
        fock_line = ciphertext_to_json(psi)
        assert fock_line.index('"cutoff"') > fock_line.index('"payload"')

    def test_seventeen_significant_digits(self):
        ct = AmplitudeVector(np.array([complex(1 / 3, 0)]))
        assert '"payload":[[0.33333333333333331,0]]' in ciphertext_to_json(ct)

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            ciphertext_from_json('{"type":"circuit","gates":[]}')
        with pytest.raises(ValueError):
            ciphertext_from_json('{"type":"ciphertext","repr":"dense","m":1,"payload":[[0,0]]}')
        with pytest.raises(ValueError):
            ciphertext_from_json('{"type":"ciphertext","repr":"amplitude","m":2,"payload":[[0,0]]}')
        with pytest.raises(ValueError):
            ciphertext_from_json(
                '{"type":"ciphertext","repr":"fock","m":1,"payload":[[1,0]],"cutoff":3}')


class TestCircuitWire:
    def test_round_trip(self):
        circuit = CircuitDescription(gates=(
            haar_random_unitary(2, 5),
            NonlinearPhaseSpec(terms={(2, 0): 0.5, (1, 1): -0.25}, t=1.5),
        ))
        back = circuit_from_json(circuit_to_json(circuit))
        assert len(back) == 2
        np.testing.assert_allclose(back.gates[0].u, circuit.gates[0].u, atol=1e-17)
        assert back.gates[1].terms == circuit.gates[1].terms
        assert back.gates[1].t == circuit.gates[1].t

    def test_field_order_is_fixed(self):
        line = circuit_to_json(KERR_CAT)
        assert line.startswith('{"type":"circuit","gates":[{"kind":"nonlinear","terms":[')
        assert line.index('"t":') > line.index('"terms"')

    def test_gate_survives_a_write_to_the_callers_array(self):
        arr = haar_random_unitary(3, 2).u.copy()
        circuit = CircuitDescription(gates=(Interferometer(arr),))
        arr[0, 0] = 7
        back = circuit_from_json(circuit_to_json(circuit))
        np.testing.assert_array_equal(back.gates[0].u, circuit.gates[0].u)

    def test_bad_json_reports_position(self):
        with pytest.raises(json.JSONDecodeError) as err:
            circuit_from_json('{"type":"circuit","gates":[}')
        assert err.value.lineno == 1
        assert err.value.colno > 1

    def test_unknown_kind_names_the_gate(self):
        with pytest.raises(ValueError, match="circuit gate 1"):
            circuit_from_json(
                '{"type":"circuit","gates":[{"kind":"nonlinear","terms":[{"exps":[1],"g":1}],'
                '"t":1},{"kind":"squeezer"}]}')


class TestEvaluatorApply:
    def test_empty_circuit(self):
        ct = client_encrypt(BitString((1, 0)), 1.0, PhaseKey(k=1, d=3))
        out = evaluator_apply(CircuitDescription(gates=()), ct)
        np.testing.assert_array_equal(out.amps, ct.amps)

    def test_interferometers_stay_at_amplitude_level(self):
        u = haar_random_unitary(3, 21)
        ct = client_encrypt(BitString((1, 0, 1)), 0.9, PhaseKey(k=4, d=9))
        out = evaluator_apply(CircuitDescription(gates=(u,)), ct)
        assert isinstance(out, AmplitudeVector)
        np.testing.assert_allclose(out.amps, u.u @ ct.amps, atol=1e-14)

    def test_kerr_gate_produces_the_rotated_cat(self):
        alpha, key = 1.0, PhaseKey(k=3, d=7)
        ct = client_encrypt(BitString((0,)), alpha, key)
        out = evaluator_apply(KERR_CAT, ct)
        assert isinstance(out, FockVector)
        target = kerr_cat_reference(alpha * np.exp(-1j * key.theta), out.cutoff)
        assert abs(overlap(out, target)) >= 1 - 1e-10

    def test_nonlinear_mode_cap(self):
        # |alpha| = 0.8 on four modes gives cutoff 18, whose blocks hold 5.97M entries
        ct = client_encrypt(BitString((0, 1, 0, 1)), 0.8, PhaseKey(k=0, d=2))
        spec = NonlinearPhaseSpec(terms={(2, 0, 0, 0): 1.0}, t=1.0)
        with pytest.raises(CapacityError):
            evaluator_apply(CircuitDescription(gates=(spec,)), ct)
        # cutoff 2 gives only C(66, 2) = 2145 amplitudes, but a 2080 x 2080 block at total 2
        ct = client_encrypt(BitString((0,) * 64), 2e-3, PhaseKey(k=0, d=2))
        spec = NonlinearPhaseSpec(terms={(2,) + (0,) * 63: 1.0}, t=1.0)
        with pytest.raises(CapacityError, match="total photon number at most 2 on 64 modes"):
            evaluator_apply(CircuitDescription(gates=(spec,)), ct)

    def test_received_number_basis_state_over_the_cap(self):
        psi = FockVector(cutoff=2, modes=64, amps=np.eye(1, math.comb(66, 2))[0])
        assert isinstance(psi, CipherText)
        with pytest.raises(CapacityError, match="block entries"):
            evaluator_apply(CircuitDescription(gates=()), psi)

    def test_overflowing_energy_is_a_capacity_error_without_warning(self):
        # |alpha|^2 overflows a double; the pytest config turns a numpy
        # RuntimeWarning into an error, so only the CapacityError may surface
        ct = client_encrypt(BitString((0,)), 1e200, PhaseKey(k=0, d=2))
        assert ct.total_energy() == math.inf
        with pytest.raises(CapacityError):
            evaluator_apply(KERR_CAT, ct)

    def test_gate_size_mismatch(self):
        ct = client_encrypt(BitString((0, 1)), 0.5, PhaseKey(k=0, d=2))
        with pytest.raises(ValueError):
            evaluator_apply(CircuitDescription(gates=(haar_random_unitary(3, 1),)), ct)


class TestDecryptDecode:
    def test_round_trip_exhaustive_small(self):
        for m in (1, 2, 3):
            for bits in itertools.product((0, 1), repeat=m):
                for k in (0, 1, 6):
                    x = BitString(bits)
                    key = PhaseKey(k=k, d=7)
                    ct = client_encrypt(x, 1.1, key)
                    assert client_decrypt_decode(ct, key, 1.1) == x

    def test_permutation_circuit_permutes_bits(self):
        perm = Interferometer(np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float))
        circuit = CircuitDescription(gates=(perm,))
        key = PhaseKey(k=5, d=11)
        for bits in itertools.product((0, 1), repeat=3):
            x = BitString(bits)
            ct = evaluator_apply(circuit, client_encrypt(x, 1.0, key))
            got = client_decrypt_decode(ct, key, 1.0)
            assert got.bits == (bits[1], bits[2], bits[0])

    def test_degenerate_alpha(self):
        key = PhaseKey(k=0, d=2)
        ct = client_encrypt(BitString((1,)), 0.0, key)
        with pytest.raises(UndecodableError):
            client_decrypt_decode(ct, key, 0.0)

    def test_fock_decode_of_coherent_codeword(self):
        alpha = 0.9
        n_max = truncation_bound(2 * alpha ** 2)
        for bits in itertools.product((0, 1), repeat=2):
            x = BitString(bits)
            psi = coherent_fock(encode(x, alpha).amps, n_max)
            assert client_decrypt_decode(psi, PhaseKey(k=0, d=1), alpha) == x

    def test_fock_decode_rejects_unreachable_state(self):
        n_max = 30
        amps = np.zeros(n_max + 1, dtype=complex)
        amps[n_max] = 1.0
        ct = FockVector(cutoff=n_max, modes=1, amps=amps)
        with pytest.raises(UndecodableError):
            client_decrypt_decode(ct, PhaseKey(k=0, d=1), 0.5)


class TestRunProtocol:
    def test_linear_round_trip(self):
        circuit = CircuitDescription(gates=(haar_random_unitary(4, 99),))
        tr = run_protocol(BitString((1, 0, 1, 1)), 1.2, 100, circuit, seed=5)
        assert tr.correct
        assert tr.correctness["metric"] == "amplitude"
        assert tr.y == tr.y_reference

    def test_empty_circuit_returns_message(self):
        x = BitString((0, 1, 1))
        tr = run_protocol(x, 0.8, 50, CircuitDescription(gates=()), seed=3)
        assert tr.y == x
        assert tr.correct

    def test_kerr_run_uses_overlap_metric(self):
        tr = run_protocol(BitString((0,)), 1.0, 100, KERR_CAT, seed=11)
        assert tr.correctness["metric"] == "overlap"
        assert tr.correctness["value"] >= 1 - 1e-8
        assert tr.correct

    def test_four_mode_number_basis_exchange(self):
        # cutoff 8: C(12, 4) = 495 amplitudes, 53559 block entries, under the cap
        cross_kerr = NonlinearPhaseSpec(terms={(1, 1, 0, 0): 0.2})
        circuit = CircuitDescription(gates=(haar_random_unitary(4, 3), cross_kerr,
                                            haar_random_unitary(4, 4)))
        tr = run_protocol(BitString((1, 0, 0, 1)), 0.25, 100, circuit, seed=4)
        assert tr.returned.amps.size == math.comb(12, 4)
        assert tr.correctness["metric"] == "overlap"
        assert tr.correct
        assert tr.y is not None and tr.y == tr.y_reference

    def test_amplitude_audit_scales_with_alpha(self):
        # the rotation's rounding grows with |alpha|; 1e-12 alone fails here
        tr = run_protocol(BitString((1,)), 1e200, 100, CircuitDescription(gates=()), seed=0)
        assert tr.correctness["value"] > 1e-12
        assert tr.correct
        assert tr.y == tr.y_reference

    def test_trivial_key_space_is_flagged(self):
        tr = run_protocol(BitString((1,)), 1.0, 1, CircuitDescription(gates=()), seed=0)
        assert "no security: trivial key space" in tr.flags

    def test_degenerate_alpha_is_flagged_not_raised(self):
        tr = run_protocol(BitString((1, 0)), 0.0, 10, CircuitDescription(gates=()), seed=0)
        assert tr.y is None
        assert any(f.startswith("degenerate code") for f in tr.flags)
        assert any(f.startswith("undecodable") for f in tr.flags)

    def test_compactness_operation_counts(self):
        deep = CircuitDescription(gates=tuple(haar_random_unitary(3, s) for s in range(40)))
        shallow = CircuitDescription(gates=(haar_random_unitary(3, 7),))
        x = BitString((0, 1, 0))
        ops_deep = run_protocol(x, 1.0, 20, deep, seed=1).decrypt_ops
        ops_shallow = run_protocol(x, 1.0, 20, shallow, seed=1).decrypt_ops
        assert ops_deep == ops_shallow == {"phase_rotations": 3, "decode_decisions": 3}

    def test_transcript_bytes_deterministic(self):
        circuit = CircuitDescription(gates=(haar_random_unitary(2, 4),))
        a = run_protocol(BitString((0, 1)), 0.9, 30, circuit, seed=8).to_jsonl()
        b = run_protocol(BitString((0, 1)), 0.9, 30, circuit, seed=8).to_jsonl()
        assert a == b

    def test_wire_messages_never_carry_the_key(self):
        circuit = CircuitDescription(gates=(haar_random_unitary(2, 4),
                                            haar_random_unitary(2, 6)))
        tr = run_protocol(BitString((0, 1)), 0.9, 30, circuit, seed=8)
        allowed = {
            "ciphertext": {"type", "repr", "m", "payload", "cutoff"},
            "circuit": {"type", "gates"},
        }
        for line in tr.wire_messages():
            obj = json.loads(line)
            assert set(obj) <= allowed[obj["type"]]
        # the client-side records do hold the key, but only those
        records = [json.loads(line) for line in tr.to_jsonl().splitlines()]
        key_records = [r for r in records if "k" in r]
        assert all(r["type"] == "key" for r in key_records)

    def test_transcript_parses_as_json_lines(self):
        tr = run_protocol(BitString((1,)), 1.0, 5, KERR_CAT, seed=2)
        records = [json.loads(line) for line in tr.to_jsonl().splitlines()]
        kinds = [r["type"] for r in records]
        assert kinds == ["params", "key", "message", "message", "message",
                         "decrypt_ops", "correctness", "output"]
