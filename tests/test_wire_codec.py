"""Wire codec: exact bytes of the payload formatter and parser hardening."""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from phasekey.encoding import AmplitudeVector, BitString
from phasekey.evaluation import Interferometer, NonlinearPhaseSpec, haar_random_unitary
from phasekey.fock import coherent_fock
from phasekey.protocol import (
    CircuitDescription,
    _pairs,
    ciphertext_from_json,
    ciphertext_to_json,
    circuit_from_json,
    circuit_to_json,
    run_protocol,
)


# The float-by-float formatter the one-pass _pairs replaced; the reference
# the new bytes are held to.
def _ref_wire_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("wire formats only carry finite floats")
    return format(x, ".17g")


def _ref_pairs(values) -> str:
    return "[" + ",".join(f"[{_ref_wire_float(z.real)},{_ref_wire_float(z.imag)}]"
                          for z in values) + "]"


def _ref_matrix(u) -> str:
    return "[" + ",".join(_ref_pairs(row) for row in u) + "]"


SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
            1.7976931348623157e308, -1.7976931348623157e308, 1e16, 1e17, -1e17,
            0.1, 1 / 3, -2 / 3, 1.0, 123456789012345678.0, 1e-5, 1e21, 1e22]


def _seeded_complex(rng, shape):
    """Gaussian entries at a random decade, with special values mixed in."""
    scale = 10.0 ** int(rng.integers(-320, 300))
    z = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale
    flat = z.reshape(-1)
    for i in np.flatnonzero(rng.random(flat.size) < 0.3):
        flat[i] = complex(SPECIALS[rng.integers(len(SPECIALS))],
                          SPECIALS[rng.integers(len(SPECIALS))])
    return z


class TestPairsMatchesReference:
    def test_seeded_vectors(self):
        rng = np.random.default_rng(20261018)
        for _ in range(1500):
            v = _seeded_complex(rng, int(rng.integers(0, 40)))
            assert _pairs(v) == _ref_pairs(v)

    def test_seeded_matrices(self):
        rng = np.random.default_rng(4)
        for _ in range(1500):
            n = int(rng.integers(1, 12))
            u = _seeded_complex(rng, (n, n))
            assert _pairs(u) == _ref_matrix(u)

    def test_every_special_value_in_both_parts(self):
        v = np.array([complex(a, b) for a in SPECIALS for b in SPECIALS])
        assert _pairs(v) == _ref_pairs(v)
        assert _pairs(v.reshape(len(SPECIALS), -1)) == _ref_matrix(
            v.reshape(len(SPECIALS), -1))

    def test_haar_matrix_and_strided_input(self):
        u = haar_random_unitary(7, 3).u
        assert _pairs(u) == _ref_matrix(u)
        assert _pairs(u.T) == _ref_matrix(u.T)
        assert _pairs(u[:, 2]) == _ref_pairs(u[:, 2])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("part", ["real", "imag"])
    def test_non_finite_raises(self, bad, part):
        z = complex(bad, 0.5) if part == "real" else complex(0.5, bad)
        v = np.array([1 + 1j, z, 2.0])
        with pytest.raises(ValueError, match="wire formats only carry finite floats"):
            _pairs(v)
        with pytest.raises(ValueError, match="wire formats only carry finite floats"):
            _pairs(np.diag(v))

    def test_interferometer_matrix_bytes(self):
        u = haar_random_unitary(5, 9)
        text = circuit_to_json(CircuitDescription(gates=(u,)))
        assert text == ('{"type":"circuit","gates":[{"kind":"interferometer","matrix":'
                        + _ref_matrix(u.u) + "}]}")


def _ciphertext(payload, m=1, repr_tag="amplitude", cutoff=None) -> str:
    obj = {"type": "ciphertext", "repr": repr_tag, "m": m, "payload": payload}
    if cutoff is not None:
        obj["cutoff"] = cutoff
    return json.dumps(obj)


def _nonlinear(terms, t=1.0) -> str:
    return json.dumps({"type": "circuit",
                       "gates": [{"kind": "nonlinear", "terms": terms, "t": t}]})


class TestParserRejects:
    def test_fock_payload_nan(self):
        with pytest.raises(ValueError, match="finite"):
            ciphertext_from_json(_ciphertext([[math.nan, 0], [0, 0]], repr_tag="fock", cutoff=1))

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_payload_entries(self, bad):
        for tag, cutoff in (("amplitude", None), ("fock", 0)):
            text = _ciphertext([[0, 0]], repr_tag=tag, cutoff=cutoff).replace(
                "[[0, 0]]", f"[[0, {bad}]]")
            with pytest.raises(ValueError):
                ciphertext_from_json(text)

    def test_out_of_range_payload_entry_is_value_error(self):
        with pytest.raises(ValueError, match="malformed payload entry"):
            ciphertext_from_json(_ciphertext([[10 ** 400, 0]]))
        matrix = json.dumps({"type": "circuit", "gates": [
            {"kind": "interferometer", "matrix": [[[10 ** 400, 0]]]}]})
        with pytest.raises(ValueError, match="malformed matrix entry"):
            circuit_from_json(matrix)

    def test_interferometer_nan(self):
        text = '{"type":"circuit","gates":[{"kind":"interferometer","matrix":[[[NaN,0]]]}]}'
        with pytest.raises(ValueError, match="not unitary"):
            circuit_from_json(text)
        with pytest.raises(ValueError, match="not unitary"):
            Interferometer(np.array([[complex(math.nan, 0)]]))

    @pytest.mark.parametrize("t", ["Infinity", "-Infinity", "NaN", "1e999", "null", '"1"',
                                   "true"])
    def test_nonlinear_t(self, t):
        text = _nonlinear([{"exps": [2], "g": 1.0}]).replace('"t": 1.0', f'"t": {t}')
        with pytest.raises(ValueError, match="circuit gate 0: t"):
            circuit_from_json(text)

    def test_nonlinear_spec_rejects_infinite_t(self):
        with pytest.raises(ValueError, match="finite"):
            NonlinearPhaseSpec(terms={(2,): 1.0}, t=math.inf)

    @pytest.mark.parametrize("g", [math.nan, math.inf, pytest.param(10 ** 400, id="1e400"),
                                   True, "0.5", None])
    def test_nonlinear_g(self, g):
        with pytest.raises(ValueError, match="coupling g"):
            circuit_from_json(_nonlinear([{"exps": [2], "g": g}]))

    @pytest.mark.parametrize("exps", [[1.7], [True], [2.0], ["1"], "12", 2, [None]])
    def test_nonlinear_exps_must_be_integers(self, exps):
        with pytest.raises(ValueError, match="exps must be a list of integers"):
            circuit_from_json(_nonlinear([{"exps": exps, "g": 1.0}]))

    @pytest.mark.parametrize("m", [True, False, 1.0, "1", None])
    def test_mode_count_must_be_an_integer(self, m):
        with pytest.raises(ValueError, match="m must be a positive integer"):
            ciphertext_from_json(_ciphertext([[1, 0]], m=m))

    @pytest.mark.parametrize("cutoff", [True, False, 1.0, "1", -1])
    def test_cutoff_must_be_an_integer(self, cutoff):
        with pytest.raises(ValueError, match="cutoff"):
            ciphertext_from_json(_ciphertext([[1, 0], [0, 0]], repr_tag="fock", cutoff=cutoff))

    def test_huge_mode_count_fails_fast(self):
        # C(10^7 + 2, 2) is quick, but a huge binomial would not be; the length
        # check takes at most a few dozen products of a capped running binomial
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"C\(cutoff\+m, m\) = C\(10000002, 10000000\)"):
            ciphertext_from_json(_ciphertext([[1, 0]], m=10 ** 7, repr_tag="fock", cutoff=2))
        assert time.perf_counter() - start < 1.0

    def test_huge_mode_count_and_cutoff_fail_fast(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"1 amplitudes .* = over 2\^63, one per"):
            ciphertext_from_json(_ciphertext([[1, 0]], m=10 ** 30, repr_tag="fock",
                                             cutoff=10 ** 30))
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("cutoff, m", [(1, 2), (3, 2), (2, 3), (10, 3)])
    def test_product_grid_payload_names_both_counts(self, cutoff, m):
        # a (cutoff+1)^m payload, the multi-mode layout before the cut on the
        # total, is always longer than C(cutoff+m, m) and never misread
        old, new = (cutoff + 1) ** m, math.comb(cutoff + m, m)
        assert old > new
        with pytest.raises(ValueError, match=rf"^{old} amplitudes in shape \({old},\), expected "
                                             rf"a vector of C\(cutoff\+m, m\) = "
                                             rf"C\({cutoff + m}, {m}\) = {new},"):
            ciphertext_from_json(_ciphertext([[1, 0]] * old, m=m, repr_tag="fock", cutoff=cutoff))

    @pytest.mark.parametrize("pair", [[True, False], [False, True], [0.0, False]])
    def test_boolean_payload_entry(self, pair):
        with pytest.raises(ValueError, match="malformed payload entry"):
            ciphertext_from_json(_ciphertext([pair]))
        with pytest.raises(ValueError, match="malformed payload entry"):
            ciphertext_from_json(_ciphertext([[1, 0], pair], repr_tag="fock", cutoff=1))

    @pytest.mark.parametrize("pair", [[True, False], [False, True]])
    def test_boolean_matrix_entry(self, pair):
        # without the check both matrices read as unitary: [[1]] or [[1j]], and the identity
        for matrix in ([[pair]], [[[1, 0], [0, 0]], [[0, 0], pair]]):
            text = json.dumps({"type": "circuit", "gates": [
                {"kind": "interferometer", "matrix": matrix}]})
            with pytest.raises(ValueError, match="circuit gate 0: malformed matrix entry"):
                circuit_from_json(text)

    @pytest.mark.parametrize("matrix", [[[[1, 0], [0, 0]], [[0, 0]]], [[]]])
    def test_ragged_matrix_names_the_gate(self, matrix):
        text = json.dumps({"type": "circuit", "gates": [
            {"kind": "interferometer", "matrix": matrix}]})
        with pytest.raises(ValueError, match="circuit gate 0: matrix must be square"):
            circuit_from_json(text)

    def test_deep_nesting_is_value_error(self):
        with pytest.raises(ValueError):
            ciphertext_from_json("[" * 100000 + "]" * 100000)
        with pytest.raises(ValueError):
            circuit_from_json("[" * 100000 + "]" * 100000)


class TestExactRoundTrip:
    def test_negative_zero_keeps_its_sign(self):
        ct = AmplitudeVector(np.array([complex(-0.0, -0.0), 1 + 0j]))
        text = ciphertext_to_json(ct)
        assert '"payload":[[-0,-0],[1,0]]' in text
        back = ciphertext_from_json(text)
        assert math.copysign(1.0, back.amps[0].real) == -1.0
        assert math.copysign(1.0, back.amps[0].imag) == -1.0
        assert ciphertext_to_json(back) == text

    def test_fock_ciphertext(self):
        text = ciphertext_to_json(coherent_fock([0.7 - 0.2j, 0.3j], 4))
        assert ciphertext_to_json(ciphertext_from_json(text)) == text


class TestTranscriptFlags:
    def test_quote_and_backslash_in_a_flag(self):
        tr = run_protocol(BitString((0, 1)), 0.9, 30, CircuitDescription(gates=()), seed=8)
        flags = ['say "hi"', "back\\slash", 'both \\" at once', "plain"]
        tr = dataclasses.replace(tr, flags=flags)
        records = [json.loads(line) for line in tr.to_jsonl().splitlines()]
        assert records[-1]["flags"] == flags

    def test_ascii_flags_keep_their_bytes(self):
        tr = run_protocol(BitString((1,)), 0.0, 1, CircuitDescription(gates=()), seed=0)
        last = tr.to_jsonl().splitlines()[-1]
        assert last.endswith('"flags":["no security: trivial key space",'
                             '"degenerate code: alpha = 0",'
                             '"undecodable: the code is degenerate at alpha = 0"]}')

    def test_message_bodies_are_the_wire_messages(self):
        circuit = CircuitDescription(gates=(haar_random_unitary(3, 2),))
        tr = run_protocol(BitString((0, 1, 1)), 1.1, 40, circuit, seed=6)
        records = [json.loads(line) for line in tr.to_jsonl().splitlines()]
        bodies = [r["body"] for r in records if r["type"] == "message"]
        assert bodies == [json.loads(b) for b in tr.wire_messages()]
