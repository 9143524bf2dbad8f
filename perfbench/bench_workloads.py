"""The three workloads: seeded inputs, the operations run on them, and their checks.

Each workload has a fixed batch (what a user types: CLI commands with
known-good outputs) and a stream of seeded operations grouped into
blocks.  Every block holds the same mix of operation kinds, and a run
takes a number of blocks and batches set by --seconds, not by speed, so
its work depends only on the seed.  Operations fall into two classes, "light" and "heavy", whose latencies
are reported apart:

sweep     rows of encrypted_trace_distance / suppression_ratio /
          encrypted_trace_distance_limit; light rows have E <= 40 (short
          residue series, the regime of the golden CSVs), heavy rows E > 40.
oracle    closed forms against brute-force oracles; light points use the
          support-basis oracle, tuple enumeration or the numeric PGM,
          heavy points the dense key-averaged channel and eigvalsh.
protocol  closed-loop client/evaluator exchanges with a wire round trip;
          light exchanges stay at amplitude level, heavy ones lift to the
          number basis (nonlinear gate, then interferometers).

Inputs depend only on the seed and on constants here, never on values the
program computes, so two versions of the program see the same inputs.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from phasekey import cli, encoding, evaluation, fock, protocol, security

# The golden sweep E range and the boundary between light and heavy rows.
SWEEP_E_RANGE = (1e-3, 3000.0)
SWEEP_LIGHT_MAX_E = 40.0
SWEEP_BLOCK_ROWS = 50

# Total energies E = m |alpha|^2 inside the band that gives each
# number-basis cutoff at the default truncation tail (inner part of the
# band); constants, so that the inputs do not move when truncation_bound
# changes.
FOCK_E_BANDS = {10: (0.49, 0.62), 12: (0.85, 1.02), 14: (1.30, 1.49), 16: (1.82, 2.05)}

# Cost-setting shapes, the same in every block and for every seed; the
# seed draws everything else.  Class percentiles then fall inside one
# shape's cluster instead of between two.
AMPLITUDE_SHAPES = ((1, 1), (3, 8), (5, 2), (7, 5), (9, 3), (11, 7), (13, 1), (15, 4),
                    (17, 6), (19, 2), (22, 5), (24, 3), (27, 7), (30, 1), (32, 8))  # (m, gates)
FOCK_SHAPES = ((1, 12), (1, 16), (2, 10), (2, 14), (3, 10))  # (m, n_max)
# Oracle shapes: each |alpha| keeps one cutoff at the oracle tail over
# the +-1% the seed moves it.
SUPPORT_SHAPES = ((3, 0.35), (6, 0.61), (10, 0.8), (16, 1.0))  # (d, |alpha|), m = 3
ENUM_SHAPES = ((2, 5, 0.79), (3, 7, 0.61))  # (m, d, |alpha|)
DENSE_SHAPES = ((1, 7, 0.7), (2, 5, 0.79), (3, 3, 0.21))  # (m, d, |alpha|)

# Above this E, math.exp(-E) is no longer a normal double, and the
# residue and limit series lose their first terms (ROADMAP item 2): up to
# E ~ 745 the values come out above the unencrypted distance, beyond it
# they are exactly 0.  A grid row there that breaks its invariants is the
# known defect: it counts as failed without making the run incorrect.
UNDERFLOW_MIN_E = -math.log(sys.float_info.min)
KNOWN_UNDERFLOW = "known underflow"

CLOSED_VS_ORACLE_TOL = 1e-6
CLASS_SUM_TOL = 1e-10

# Tail mass left out by the oracles' cutoffs.  At the default 1e-10 a
# one-mode complement pair at odd d misses the 1e-6 tolerance, because
# sqrt(1 - A^2) magnifies the truncated mass where |A| is close to 1.
ORACLE_TAIL_EPS = 1e-12


def _capture(argv):
    """Run cli.main with argv, returning (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def golden_commands(root: Path) -> dict:
    """GOLDEN_COMMANDS from tests/test_acceptance.py, read without importing pytest."""
    tree = ast.parse((root / "tests" / "test_acceptance.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "GOLDEN_COMMANDS"):
            return ast.literal_eval(node.value)
    raise RuntimeError("tests/test_acceptance.py defines no GOLDEN_COMMANDS")


# --- single operations ---------------------------------------------------


def sweep_row(m: int, d: int, w: int, E: float):
    """One grid row: True when every invariant of the three quantities holds,
    KNOWN_UNDERFLOW when one breaks at E > UNDERFLOW_MIN_E, else False.

    Invariants: finite values; 0 <= enc, limit <= unenc + 1e-12; both vanish
    below 1e-10 at w = 0; the limit vanishes at w = m and so does enc when d
    is even (complements are invisible under even key counts, while an odd d
    leaves them distinguishable); both are positive for 0 < w < m; and
    suppression_ratio reports enc / unenc, or raises ValueError at w = 0.
    """
    alpha = math.sqrt(E / m)
    p = security.SecurityParams(m=m, d=d, abs_alpha=alpha, w=w)
    enc = security.encrypted_trace_distance(p)
    try:
        ratio = security.suppression_ratio(p)
    except ValueError:
        ratio = None
    limit = security.encrypted_trace_distance_limit(p)
    unenc = security.unencrypted_trace_distance(w, alpha)
    ok = all(math.isfinite(v) for v in (enc, limit, unenc))
    ok = ok and 0.0 <= enc <= unenc + 1e-12 and 0.0 <= limit <= unenc + 1e-12
    if w == 0:
        ok = ok and ratio is None and enc < 1e-10 and limit < 1e-10
    else:
        ok = (ok and ratio is not None and ratio.encrypted == enc
              and ratio.unencrypted == unenc and ratio.ratio == enc / unenc)
        if w == m:
            ok = ok and limit < 1e-10 and (d % 2 == 1 or enc < 1e-10)
        else:
            ok = ok and enc > 0.0 and limit > 0.0
    if not ok and E > UNDERFLOW_MIN_E:
        return KNOWN_UNDERFLOW
    return bool(ok)


def _pair(m: int, w: int):
    return encoding.BitString((0,) * m), encoding.BitString((1,) * w + (0,) * (m - w))


def oracle_point(kind: str, m: int, d: int, w: int, alpha: float) -> bool:
    """One closed form against its brute-force companion."""
    if kind == "pgm":
        n_max = fock.truncation_bound(alpha ** 2, ORACLE_TAIL_EPS)
        numeric = security.pgm_numeric_oracle(alpha, n_max)
        closed = security.pgm_closed_form(alpha)
        return max(abs(numeric.i_single - closed.i_single),
                   abs(numeric.p_same - closed.p_same)) <= CLOSED_VS_ORACLE_TOL
    p = security.SecurityParams(m=m, d=d, abs_alpha=alpha, w=w)
    n_max = fock.truncation_bound(p.E, ORACLE_TAIL_EPS)
    if kind == "enum":
        # compare the class sums q_k and q_k A_k, which the truncated mass
        # bounds directly; A_k alone is ill-conditioned where q_k is tiny
        q_ref, a_ref = security.qk_ak_enumeration(p, n_max)
        for k in range(d):
            q, a = security.qk_ak_finite(p, k)
            if max(abs(q - q_ref[k]), abs(q * a - q_ref[k] * a_ref[k])) > CLASS_SUM_TOL:
                return False
        return True
    u, v = _pair(m, w)
    if kind == "support":
        oracle = security.encrypted_distance_oracle(u, v, alpha, d, n_max)
    else:
        oracle = fock.trace_distance_numeric(
            encoding.encryption_channel_density(u, alpha, d, n_max),
            encoding.encryption_channel_density(v, alpha, d, n_max))
    return abs(security.encrypted_trace_distance(p) - oracle) <= CLOSED_VS_ORACLE_TOL


def exchange(x, alpha: float, d: int, circuit, seed: int, tracer) -> bool:
    """One protocol exchange and a wire round trip of its three messages.

    Passes when the transcript's correctness audit passes, decoding named
    every bit and agrees with the plaintext reference, and decoding then
    re-encoding every wire message reproduces its bytes.
    """
    tr = protocol.run_protocol(x, alpha, d, circuit, seed=seed)
    with tracer.span("protocol.wire_encode"):
        text = tr.to_jsonl()
        bodies = tr.wire_messages()
    with tracer.span("protocol.wire_decode"):
        sent = protocol.ciphertext_from_json(bodies[0])
        circ = protocol.circuit_from_json(bodies[1])
        returned = protocol.ciphertext_from_json(bodies[2])
    with tracer.span("protocol.wire_encode"):
        again = [protocol.ciphertext_to_json(sent), protocol.circuit_to_json(circ),
                 protocol.ciphertext_to_json(returned)]
    tracer.add("protocol.wire_bytes", sum(len(b) for b in bodies))
    return (all(f'"body":{b}}}' in text for b in bodies) and again == bodies
            and tr.correct and tr.y is not None and tr.y == tr.y_reference)


# --- the fixed probe -----------------------------------------------------


def _kerr(m: int, strength: float):
    if m == 1:
        return evaluation.NonlinearPhaseSpec(terms={(2,): strength, (1,): -strength})
    return evaluation.NonlinearPhaseSpec(terms={(1, 1) + (0,) * (m - 2): strength})


def layer_probe(tmp: Path, tracer, with_checks: bool) -> list:
    """One small call into every layer on fixed inputs; returns pass flags.

    Run untraced as the warm-up before timing starts (first eigensolve,
    first QR, first interferometer_fock, first wire parse), and traced
    after every workload's traced pass, with the full check suite added,
    so that every per-layer time is measured on every workload.
    """
    flags = [
        sweep_row(10, 100, 3, 4.0) is True,
        oracle_point("support", 3, 3, 1, 0.5),
        oracle_point("dense", 2, 3, 1, 0.5),
        oracle_point("enum", 2, 3, 1, 0.5),
        oracle_point("pgm", 1, 1, 0, 0.5),
        exchange(encoding.BitString((1, 0, 1)), 1.2, 100,
                 protocol.CircuitDescription((evaluation.haar_random_unitary(3, 1),)), 1, tracer),
        exchange(encoding.BitString((0, 1)), 0.8, 50,
                 protocol.CircuitDescription((evaluation.haar_random_unitary(2, 2), _kerr(2, 0.1),
                                              evaluation.haar_random_unitary(2, 3))), 2, tracer),
    ]
    out = tmp / "probe.csv"
    rc = cli.main(["security-sweep", "--quantity", "ratio", "--m", "4", "--w", "1-2",
                   "--alpha-min", "0.1", "--alpha-max", "0.5", "--alpha-step", "0.1",
                   "--out", str(out)])
    flags.append(rc == cli.EXIT_OK and out.read_text().count("\n") == 11)
    if with_checks:
        rc, _ = _capture(["oracle-check", "--level", "full"])
        flags.append(rc == cli.EXIT_OK)
    return flags


# --- workloads -------------------------------------------------------------


class Op:
    """One seeded operation: a callable on fixed arguments and its latency class.

    Only an operation built with traced=True gets the tracer, as its last
    argument; the layers it calls are traced by bench_trace either way.
    """

    __slots__ = ("cls", "fn", "args", "traced")

    def __init__(self, cls, fn, *args, traced=False):
        self.cls = cls
        self.fn = fn
        self.args = args
        self.traced = traced

    def __call__(self, tracer):
        if self.traced:
            return self.fn(*self.args, tracer)
        return self.fn(*self.args)

    def __repr__(self):
        shown = [repr(a) for a in self.args if isinstance(a, (int, float, str))]
        return f"{self.fn.__name__}({', '.join(shown)})"


class Workload:
    """Seeded inputs plus the batch and block structure of one workload.

    Subclasses set the tail percentile of each latency class: the highest
    of 99/95/90 that leaves at least ten samples beyond it even with half
    the samples a run took at the seeding commit.  It is fixed rather than
    chosen from each run's count, so a faster program does not move the
    tail to another percentile; the run reports how many samples lie
    beyond it.
    """

    name = ""
    tail_pct = {"light": 99.0, "heavy": 99.0}
    blocks_generated = 0
    # Blocks and batches a run takes per second of --seconds (the traced
    # pass runs each unit twice, so it takes fewer blocks).  Constants, so
    # that a run's work, and with it every count, depends only on the seed.
    blocks_per_s = 1.0
    batches_per_s = 1.0
    traced_blocks_per_s = 1.0

    def __init__(self, seed: int, root: Path, tmp: Path):
        self.tmp = tmp
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self.blocks = [self._block() for _ in range(self.blocks_generated)]

    def block(self, index: int) -> list:
        return self.blocks[index % len(self.blocks)]

    def _shuffled(self, ops: list) -> list:
        order = self.rng.permutation(len(ops))
        return [ops[i] for i in order]

    def _block(self) -> list:
        raise NotImplementedError

    def batch(self) -> list:
        """Run the fixed batch; one (label, passed) entry per command or check."""
        raise NotImplementedError


def _near(rng, value):
    return value * float(rng.uniform(0.99, 1.01))


class Sweep(Workload):
    name = "sweep"
    blocks_per_s = 12.0
    batches_per_s = 0.75
    blocks_generated = 600
    traced_blocks_per_s = 2.0

    def __init__(self, seed, root, tmp):
        super().__init__(seed, root, tmp)
        self.golden = golden_commands(root)
        self.expected = {name: (root / "tests" / "golden" / name).read_bytes()
                         for name in self.golden}

    def _strata(self, lo, hi):
        """One uniform draw in each of SWEEP_BLOCK_ROWS equal slices of [lo, hi), shuffled."""
        edges = np.linspace(lo, hi, SWEEP_BLOCK_ROWS + 1)
        return self.rng.permutation(self.rng.uniform(edges[:-1], edges[1:]))

    def _block(self):
        # every block spans the whole log E and d ranges, including the
        # E >~ 720 rows that underflow today
        log_e = self._strata(*map(math.log, SWEEP_E_RANGE))
        keys = self._strata(2, 1001).astype(int)
        ops = []
        for E, d in zip(np.exp(log_e), keys):
            m = int(self.rng.integers(1, 201))
            w = int(self.rng.integers(0, m + 1))
            cls = "light" if E <= SWEEP_LIGHT_MAX_E else "heavy"
            ops.append(Op(cls, sweep_row, m, int(d), w, float(E)))
        return ops

    def batch(self):
        results = []
        for name, argv in self.golden.items():
            out = self.tmp / name
            rc = cli.main(list(argv) + ["--out", str(out)])
            results.append((name, rc == cli.EXIT_OK and out.read_bytes() == self.expected[name]))
        return results


class Oracle(Workload):
    name = "oracle"
    blocks_per_s = 2.1
    batches_per_s = 0.43
    blocks_generated = 128
    tail_pct = {"light": 95.0, "heavy": 90.0}
    traced_blocks_per_s = 0.4

    def _block(self):
        r = self.rng
        ops = [Op("light", oracle_point, "support", 3, d, int(r.integers(1, 4)), _near(r, a))
               for d, a in SUPPORT_SHAPES]
        ops += [Op("light", oracle_point, "enum", m, d, int(r.integers(0, m + 1)), _near(r, a))
                for m, d, a in ENUM_SHAPES]
        ops.append(Op("light", oracle_point, "pgm", 1, 1, 0, float(r.uniform(0.1, 2.0))))
        ops += [Op("heavy", oracle_point, "dense", m, d, int(r.integers(1, m + 1)), _near(r, a))
                for m, d, a in DENSE_SHAPES]
        return self._shuffled(ops)

    def batch(self):
        rc, text = _capture(["oracle-check", "--level", "full"])
        lines = [ln for ln in text.splitlines() if ln.startswith(("PASS ", "FAIL "))]
        results = [(ln.split(":")[0][5:], ln.startswith("PASS ")) for ln in lines]
        results.append(("oracle-check exit code", rc == cli.EXIT_OK and len(lines) == 10))
        return results


class Protocol(Workload):
    name = "protocol"
    blocks_per_s = 1.8
    batches_per_s = 13.0
    blocks_generated = 48
    tail_pct = {"light": 95.0, "heavy": 90.0}
    traced_blocks_per_s = 0.5

    def __init__(self, seed, root, tmp):
        super().__init__(seed, root, tmp)
        circuit = protocol.CircuitDescription((
            evaluation.haar_random_unitary(2, 11), _kerr(2, 0.15),
            evaluation.haar_random_unitary(2, 12)))
        (tmp / "cross_kerr.json").write_text(protocol.circuit_to_json(circuit))
        self.demos = {
            "kerr-cat": ["--m", "1", "--alpha", "1.5", "--x", "0", "--circuit", "kerr-cat"],
            "swap": ["--m", "3", "--alpha", "1.0", "--x", "101", "--circuit", "swap",
                     "--seed", "1"],
            "cross-kerr-file": ["--m", "2", "--alpha", "0.9", "--x", "10", "--circuit",
                                str(tmp / "cross_kerr.json"), "--seed", "2"],
            "empty-m16": ["--m", "16", "--alpha", "1.2", "--circuit", "empty", "--seed", "3"],
        }
        self.first_transcripts = {}

    def _exchange(self, cls, m, alpha, gates):
        r = self.rng
        x = encoding.BitString(tuple(int(b) for b in r.integers(0, 2, size=m)))
        return Op(cls, exchange, x, alpha, int(r.integers(2, 1001)),
                  protocol.CircuitDescription(gates), int(r.integers(2 ** 31)), traced=True)

    def _haar(self, m):
        return evaluation.haar_random_unitary(m, int(self.rng.integers(2 ** 31)))

    def _block(self):
        r = self.rng
        ops = [self._exchange("light", m, float(r.uniform(0.5, 2.0)),
                              tuple(self._haar(m) for _ in range(gates)))
               for m, gates in AMPLITUDE_SHAPES]
        for m, n_max in FOCK_SHAPES:
            alpha = math.sqrt(r.uniform(*FOCK_E_BANDS[n_max]) / m)
            gates = (self._haar(m), _kerr(m, float(r.uniform(0.05, 0.3))), self._haar(m))
            ops.append(self._exchange("heavy", m, alpha, gates))
        return self._shuffled(ops)

    def batch(self):
        results = []
        for name, argv in self.demos.items():
            out = self.tmp / f"{name}.jsonl"
            rc, _ = _capture(["protocol-demo"] + argv + ["--out", str(out)])
            text = out.read_text()
            first = self.first_transcripts.setdefault(name, text)
            lines = {ln["type"]: ln for ln in map(json.loads, text.splitlines())}
            ok = rc == cli.EXIT_OK and text == first and lines["correctness"]["pass"]
            if name == "kerr-cat":
                # the balanced cat ties the two decode scores in exact
                # arithmetic, so rounding picks its bit; check the cat instead
                ok = ok and lines["cat_fidelity"]["value"] >= 1 - 1e-8
            else:
                ok = ok and lines["output"]["match"]
            results.append((name, ok))
        return results


WORKLOADS = {w.name: w for w in (Sweep, Oracle, Protocol)}
