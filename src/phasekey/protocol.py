"""Client/evaluator exchange: encrypt, evaluate on ciphertext, decrypt, decode.

The client encodes a bit string on coherent amplitudes, rotates every
mode by the secret key angle, and ships the ciphertext together with a
circuit description.  The ciphertext is the encrypted state itself: an
AmplitudeVector, or a FockVector, capped by FOCK_SIZE_CAP, once a
nonlinear gate forces the number basis.  The evaluator applies the
circuit without the key.  Decryption is the inverse rotation followed by
a per-mode decision, so its cost never depends on the circuit.  The
energy, size and per-mode overlaps of the number basis come from fock.

run_protocol audits each exchange against the plaintext run of the same
circuit, in one walk over the gates that builds each number-basis
interferometer block once for both.

Wire formats are single-line JSON with a fixed field order and floats
printed at 17 significant digits, so byte-identical transcripts are
reproducible and diffable; a "fock" payload holds the C(cutoff+m, m)
amplitudes of total photon number at most its cutoff, in fock's order.
Each payload or matrix is one %-format over all its floats, with the
bytes that formatting float by float gives.  The parsers raise ValueError
on malformed messages, non-finite or out-of-range numbers included, on
booleans where any number belongs, and on non-integers where an integer
belongs.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .encoding import (
    AmplitudeVector,
    BitString,
    PhaseKey,
    encode,
    keygen,
    phase_rotate,
    phase_rotate_fock,
)
from .evaluation import (
    Interferometer,
    NonlinearPhaseSpec,
    _lift_interferometer,
    apply_interferometer,
    nonlinear_phase_evolve,
)
from .fock import (CapacityError, FockVector, block_entries, coherent_coefficients, coherent_fock,
                   mean_photon_number, mode_overlap_norms, truncation_bound)

# Largest number-basis grid the evaluator lifts to or accepts, in entries of
# its fixed-total blocks (fock.block_entries), which set the interferometer lift's work.
FOCK_SIZE_CAP = 2 ** 22

# Fock-level decode declares a mode undecodable when it overlaps neither
# candidate amplitude beyond this.
DECODE_OVERLAP_FLOOR = 1e-6


class UndecodableError(Exception):
    """Decoding cannot name a bit value for some mode."""


@dataclass(frozen=True, eq=False)
class CircuitDescription:
    """Ordered gate list; every entry is an Interferometer or NonlinearPhaseSpec."""

    gates: tuple

    def __post_init__(self):
        gates = tuple(self.gates)
        for g in gates:
            if not isinstance(g, (Interferometer, NonlinearPhaseSpec)):
                raise ValueError(f"unsupported gate object: {type(g).__name__}")
        object.__setattr__(self, "gates", gates)

    def has_nonlinear(self) -> bool:
        return any(isinstance(g, NonlinearPhaseSpec) for g in self.gates)

    def __len__(self) -> int:
        return len(self.gates)


# The wire object: the encrypted state, carrying neither d nor the key.
CipherText = AmplitudeVector | FockVector


def wire_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("wire formats only carry finite floats")
    return format(x, ".17g")


def _pairs(values) -> str:
    """[[re,im],...] for a complex vector, a list of those for a matrix.

    One %-format over the interleaved parts gives the bytes wire_float
    gives float by float.
    """
    z = np.ascontiguousarray(values, dtype=complex)
    flat = z.view(float).ravel()
    if not np.isfinite(flat).all():
        raise ValueError("wire formats only carry finite floats")
    template = "[" + ",".join(["[%.17g,%.17g]"] * z.shape[-1]) + "]"
    if z.ndim == 2:
        template = "[" + ",".join([template] * z.shape[0]) + "]"
    return template % tuple(flat.tolist())


def ciphertext_to_json(ct: CipherText) -> str:
    if isinstance(ct, AmplitudeVector):
        return f'{{"type":"ciphertext","repr":"amplitude","m":{ct.modes},"payload":{_pairs(ct.amps)}}}'
    return (f'{{"type":"ciphertext","repr":"fock","m":{ct.modes},"payload":{_pairs(ct.amps)}'
            f',"cutoff":{ct.cutoff}}}')


def _wire_int(text: str):
    # %.17g writes the float -0.0 as "-0", which json would read as int 0
    return -0.0 if text == "-0" else int(text)


# what json.loads(text, parse_int=_wire_int) would build on every call
_DECODER = json.JSONDecoder(parse_int=_wire_int)


def _load(text: str):
    try:
        return _DECODER.decode(text)
    except RecursionError:
        raise ValueError("wire JSON is nested too deeply") from None


def _is_int(x) -> bool:
    # JSON true/false parse to bool, which is an int subclass
    return isinstance(x, int) and not isinstance(x, bool)


def _wire_real(x, what: str) -> float:
    # the comparison is False for NaN, infinities and ints beyond the float range
    if isinstance(x, bool) or not isinstance(x, (int, float)) or not abs(x) <= sys.float_info.max:
        raise ValueError(f"{what} must be a finite number")
    return float(x)


def _wire_complexes(pairs, what: str) -> list:
    """complex(re, im) for each JSON [re, im] pair, or ValueError.

    complex() would take true/false as 1/0, so a pair holding a bool is
    dropped from the list and the length check rejects it; other
    non-numbers raise TypeError and ints beyond the float range
    OverflowError.
    """
    try:
        z = [complex(re, im) for re, im in pairs
             if type(re) is not bool and type(im) is not bool]
        if len(z) != len(pairs):
            raise TypeError("true and false are not numbers")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{what} entry: {exc}") from None
    return z


def ciphertext_from_json(text: str) -> CipherText:
    """The state a ciphertext message carries; evaluator_apply caps its size."""
    obj = _load(text)
    if not isinstance(obj, dict) or obj.get("type") != "ciphertext":
        raise ValueError('expected an object with "type": "ciphertext"')
    tag = obj.get("repr")
    m = obj.get("m")
    payload = obj.get("payload")
    if tag not in ("amplitude", "fock"):
        raise ValueError(f"unknown ciphertext repr {tag!r}")
    if not _is_int(m) or m < 1:
        raise ValueError("ciphertext field m must be a positive integer")
    if not isinstance(payload, list):
        raise ValueError("ciphertext payload must be a list of [re, im] pairs")
    amps = np.array(_wire_complexes(payload, "malformed payload"))
    if not np.isfinite(amps).all():
        raise ValueError("ciphertext payload entries must be finite")
    if tag == "amplitude":
        if len(amps) != m:
            raise ValueError("amplitude payload length must equal m")
        return AmplitudeVector(amps)
    cutoff = obj.get("cutoff")
    if not _is_int(cutoff) or cutoff < 0:
        raise ValueError("fock ciphertext needs a nonnegative integer cutoff")
    return FockVector(cutoff=cutoff, modes=m, amps=amps)


def _gate_to_json(gate) -> str:
    if isinstance(gate, Interferometer):
        return f'{{"kind":"interferometer","matrix":{_pairs(gate.u)}}}'
    terms = ",".join(
        '{"exps":[' + ",".join(str(e) for e in exps) + f'],"g":{wire_float(g)}}}'
        for exps, g in gate.terms.items())
    return f'{{"kind":"nonlinear","terms":[{terms}],"t":{wire_float(gate.t)}}}'


def circuit_to_json(circuit: CircuitDescription) -> str:
    gates = ",".join(_gate_to_json(g) for g in circuit.gates)
    return f'{{"type":"circuit","gates":[{gates}]}}'


def _gate_from_obj(obj, index: int):
    where = f"circuit gate {index}"
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected an object")
    kind = obj.get("kind")
    if kind == "interferometer":
        matrix = obj.get("matrix")
        if not isinstance(matrix, list):
            raise ValueError(f"{where}: matrix must be a list of rows")
        what = f"{where}: malformed matrix"
        rows = [_wire_complexes(row, what) for row in matrix]
        if any(len(row) != len(rows) for row in rows):
            raise ValueError(f"{where}: matrix must be square")
        return Interferometer(np.array(rows))
    if kind == "nonlinear":
        terms = obj.get("terms")
        if not isinstance(terms, list) or not terms:
            raise ValueError(f"{where}: terms must be a nonempty list")
        parsed = {}
        for t in terms:
            if not isinstance(t, dict) or "exps" not in t or "g" not in t:
                raise ValueError(f'{where}: each term needs "exps" and "g"')
            exps = t["exps"]
            if not isinstance(exps, list) or not all(_is_int(e) for e in exps):
                raise ValueError(f"{where}: exps must be a list of integers")
            parsed[tuple(exps)] = _wire_real(t["g"], f"{where}: coupling g")
        return NonlinearPhaseSpec(terms=parsed, t=_wire_real(obj.get("t", 1.0), f"{where}: t"))
    raise ValueError(f"{where}: unknown kind {kind!r}")


def circuit_from_json(text: str) -> CircuitDescription:
    obj = _load(text)
    if not isinstance(obj, dict) or obj.get("type") != "circuit":
        raise ValueError('expected an object with "type": "circuit"')
    gates = obj.get("gates")
    if not isinstance(gates, list):
        raise ValueError("circuit gates must be a list")
    return CircuitDescription(tuple(_gate_from_obj(g, i) for i, g in enumerate(gates)))


def client_encrypt(x: BitString, alpha: complex, key: PhaseKey) -> CipherText:
    """Encode x on coherent amplitudes and rotate every mode by the key angle."""
    return phase_rotate(encode(x, alpha), key.theta)


def _check_fock_size(n_max: int, m: int) -> None:
    """CapacityError when the cutoff-n_max grid on m modes exceeds FOCK_SIZE_CAP block entries."""
    if block_entries(n_max, m, FOCK_SIZE_CAP) > FOCK_SIZE_CAP:
        raise CapacityError(f"the number basis of total photon number at most {n_max} on "
                            f"{m} modes exceeds the cap of {FOCK_SIZE_CAP} block entries")


def _evaluate(circuit: CircuitDescription, states: list, n_max: "int | None") -> list:
    """Run the circuit on every state in one walk over the gates.

    The states share a mode count, a representation and, in the number
    basis, a cutoff.  Interferometers act on coherent amplitudes directly;
    the first nonlinear gate expands every state into the number basis at
    one cutoff, n_max or else the one the first state's total energy gives.
    _lift_interferometer builds each number-basis block once for all states,
    with the bits of a run on each alone.  A number-basis grid received or
    lifted to beyond FOCK_SIZE_CAP raises CapacityError before anything is
    allocated for it.
    """
    m = states[0].modes
    if isinstance(states[0], FockVector):
        _check_fock_size(states[0].cutoff, m)
    for index, gate in enumerate(circuit.gates):
        if gate.modes != m:
            raise ValueError("gate size must match the ciphertext mode count")
        if isinstance(gate, NonlinearPhaseSpec):
            if isinstance(states[0], AmplitudeVector):
                if n_max is None:
                    n_max = truncation_bound(states[0].total_energy())
                _check_fock_size(n_max, m)
                states = [coherent_fock(s.amps, n_max) for s in states]
            try:
                states = [nonlinear_phase_evolve(gate, s) for s in states]
            except ValueError as exc:
                raise ValueError(f"circuit gate {index}: {exc}") from None
        elif isinstance(states[0], AmplitudeVector):
            states = [apply_interferometer(gate, s) for s in states]
        else:
            states = _lift_interferometer(gate, states)
    return states


def evaluator_apply(circuit: CircuitDescription, ct: CipherText,
                    n_max: "int | None" = None) -> CipherText:
    """Run the circuit on a ciphertext, never seeing the key.

    The one-state case of _evaluate, the walk run_protocol shares between
    the ciphertext and its plaintext reference: the number-basis cutoff is
    n_max or else the ciphertext's energy's, and a grid over FOCK_SIZE_CAP
    raises CapacityError before anything is allocated for it.
    """
    return _evaluate(circuit, [ct], n_max)[0]


def client_decrypt(ct: CipherText, key: PhaseKey) -> CipherText:
    """The plaintext state: the key rotation undone on every mode, nothing decoded."""
    if isinstance(ct, AmplitudeVector):
        return phase_rotate(ct, -key.theta)
    return phase_rotate_fock(ct, -key.theta)


def _decode(plain: CipherText, alpha: complex) -> BitString:
    """One bit per mode of a plaintext state, by the rules of client_decrypt_decode."""
    if alpha == 0:
        raise UndecodableError("the code is degenerate at alpha = 0")
    if isinstance(plain, AmplitudeVector):
        return BitString(tuple(0 if abs(a - alpha) <= abs(a + alpha) else 1 for a in plain.amps))
    plus, minus = (mode_overlap_norms(plain, coherent_coefficients(a, plain.cutoff))
                   for a in (alpha, -alpha))
    for mode, pair in enumerate(zip(plus, minus)):
        if max(pair) < DECODE_OVERLAP_FLOOR:
            raise UndecodableError(f"mode {mode} overlaps neither candidate amplitude above "
                                   f"{DECODE_OVERLAP_FLOOR:g}")
    return BitString(tuple(0 if p >= q else 1 for p, q in zip(plus, minus)))


def client_decrypt_decode(ct: CipherText, key: PhaseKey, alpha: complex) -> BitString:
    """Undo the key rotation and read one bit per mode.

    Amplitude-level modes decode by the nearest of +-alpha; number-basis
    modes by the larger overlap magnitude with |+-alpha>.  The work is m
    rotations and m decisions however long the evaluated circuit was.
    """
    return _decode(client_decrypt(ct, key), alpha)


@dataclass(frozen=True)
class Transcript:
    """Everything one protocol run produced; to_jsonl writes all of it but decrypted.

    The three wire messages are encoded on the first call to wire_messages
    or to_jsonl and kept; dataclasses.replace starts a new transcript
    without them, so a replaced field is always encoded afresh.
    """

    m: int
    d: int
    alpha: complex
    seed: int
    key: PhaseKey
    sent: CipherText
    circuit: CircuitDescription
    returned: CipherText
    decrypt_ops: dict
    correctness: dict
    y: "BitString | None"
    y_reference: "BitString | None"
    flags: list = field(default_factory=list)
    decrypted: "CipherText | None" = None

    @property
    def correct(self) -> bool:
        return bool(self.correctness.get("pass", False))

    @functools.cached_property
    def _bodies(self) -> tuple:
        return (ciphertext_to_json(self.sent), circuit_to_json(self.circuit),
                ciphertext_to_json(self.returned))

    def wire_messages(self) -> list:
        """The three messages an eavesdropper would see, as wire JSON."""
        return list(self._bodies)

    def to_jsonl(self) -> str:
        sent, circuit, returned = self.wire_messages()
        lines = [
            f'{{"type":"params","m":{self.m},"d":{self.d},'
            f'"alpha":[{wire_float(self.alpha.real)},{wire_float(self.alpha.imag)}],"seed":{self.seed}}}',
            f'{{"type":"key","holder":"client","k":{self.key.k},"d":{self.key.d}}}',
            f'{{"type":"message","direction":"client->evaluator","body":{sent}}}',
            f'{{"type":"message","direction":"client->evaluator","body":{circuit}}}',
            f'{{"type":"message","direction":"evaluator->client","body":{returned}}}',
            f'{{"type":"decrypt_ops","phase_rotations":{self.decrypt_ops["phase_rotations"]},'
            f'"decode_decisions":{self.decrypt_ops["decode_decisions"]}}}',
            f'{{"type":"correctness","metric":"{self.correctness["metric"]}",'
            f'"value":{wire_float(self.correctness["value"])},'
            f'"pass":{"true" if self.correctness["pass"] else "false"}}}',
        ]
        y = "null" if self.y is None else f'"{self.y.to_text()}"'
        ref = "null" if self.y_reference is None else f'"{self.y_reference.to_text()}"'
        match = "true" if (self.y is not None and self.y == self.y_reference) else "false"
        flags = ",".join(json.dumps(f) for f in self.flags)
        lines.append(f'{{"type":"output","y":{y},"reference":{ref},"match":{match},'
                     f'"flags":[{flags}]}}')
        return "\n".join(lines) + "\n"


def run_protocol(x: BitString, alpha: complex, d: int, circuit: CircuitDescription,
                 seed: int) -> Transcript:
    """One full exchange plus the plaintext reference run and its audit.

    Correctness compares the decrypted state against direct plaintext
    evaluation: entrywise at amplitude level, within 1e-12 max(1, |alpha|),
    by overlap once a nonlinear gate has forced the number basis.  The
    ciphertext and the plaintext go through the circuit in one walk at one
    cutoff, sharing every number-basis interferometer lift; each result has
    the bits evaluator_apply gives on that state alone.  Degenerate
    parameter choices are flagged rather than rejected so sweeps can pass
    through them.
    """
    m = len(x)
    alpha = complex(alpha)
    key = keygen(d, seed)
    flags = []
    if d == 1:
        flags.append("no security: trivial key space")
    if alpha == 0:
        flags.append("degenerate code: alpha = 0")

    # one shared cutoff keeps the encrypted and reference paths comparable
    n_max = truncation_bound(mean_photon_number(abs(alpha), m)) if circuit.has_nonlinear() else None

    sent = client_encrypt(x, alpha, key)
    returned, reference = _evaluate(circuit, [sent, encode(x, alpha)], n_max)
    decrypted = client_decrypt(returned, key)

    if isinstance(decrypted, AmplitudeVector):
        diff = float(np.abs(decrypted.amps - reference.amps).max())
        # rounding in the key rotation scales with the amplitudes
        correctness = {"metric": "amplitude", "value": diff,
                       "pass": diff <= 1e-12 * max(1.0, abs(alpha))}
    else:
        a, b = decrypted.amps, reference.amps
        fid = float(abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b)))
        correctness = {"metric": "overlap", "value": fid, "pass": fid >= 1 - 1e-8}

    try:
        y = _decode(decrypted, alpha)
        y_reference = _decode(reference, alpha)
    except UndecodableError as exc:
        y = y_reference = None
        flags.append(f"undecodable: {exc}")

    return Transcript(
        m=m, d=d, alpha=alpha, seed=seed, key=key, sent=sent, circuit=circuit,
        returned=returned,
        decrypt_ops={"phase_rotations": m, "decode_decisions": m},
        correctness=correctness, y=y, y_reference=y_reference, flags=flags,
        decrypted=decrypted)
