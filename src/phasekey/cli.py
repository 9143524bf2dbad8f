"""Command line front end: figure-data sweeps, cross-checks, protocol demos.

Exit codes: 0 success, 1 usage, 2 a cross-check or correctness invariant
failed, 3 a requested computation exceeds the dense-simulation capacity.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from .checks import run_checks
from .encoding import BitString
from .evaluation import Interferometer, NonlinearPhaseSpec, cat_state_target
from .fock import CapacityError, as_int, mean_photon_number
from .protocol import (
    CircuitDescription,
    circuit_from_json,
    run_protocol,
    wire_float,
)
from .security import (
    SecurityParams,
    _line_distances,
    pgm_closed_form,
    unencrypted_trace_distance,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVARIANT = 2
EXIT_CAPACITY = 3
ALPHA_GRID_CAP = 10 ** 6


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; all usage problems here are 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def parse_int_list(text: str) -> list:
    """Accept "3", "1,4,9" and "2-12" (inclusive), in any combination.

    Refuses a list of more than ALPHA_GRID_CAP values; a range is counted
    before it is built.
    """
    values = set()
    too_long = f"more than {ALPHA_GRID_CAP} values in {text!r}"
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise argparse.ArgumentTypeError(f"empty entry in {text!r}")
        try:
            if "-" in part:
                lo_text, hi_text = part.split("-", 1)
                lo, hi = int(lo_text), int(hi_text)
                if hi < lo:
                    raise argparse.ArgumentTypeError(f"descending range {part!r}")
                if hi - lo >= ALPHA_GRID_CAP:
                    raise argparse.ArgumentTypeError(too_long)
                values.update(range(lo, hi + 1))
            else:
                values.add(int(part))
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer list: {text!r}") from None
        if len(values) > ALPHA_GRID_CAP:
            raise argparse.ArgumentTypeError(too_long)
    return sorted(values)


def parse_mode_list(text: str) -> list:
    """parse_int_list for mode counts, which start at 1."""
    values = parse_int_list(text)
    if values[0] < 1:
        raise argparse.ArgumentTypeError(f"mode counts must be at least 1: {text!r}")
    return values


def parse_mode_count(text: str) -> int:
    """One mode count, checked as parse_mode_list checks lists."""
    values = parse_mode_list(text)
    if len(values) != 1:
        raise argparse.ArgumentTypeError(f"expected one mode count: {text!r}")
    return values[0]


def parse_finite_float(text: str) -> float:
    """A float that is neither NaN nor infinite."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def parse_seed(text: str) -> int:
    """A seed for numpy's generator: an integer, at least 0.

    A non-integer gets the message argparse gives for type=int.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be nonnegative: {text!r}")
    return value


def parse_energy(text: str) -> float:
    """A total energy: a finite float, at least 0."""
    value = parse_finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"energy must be nonnegative: {text!r}")
    return value


def parse_energy_rule(text: str, E: float):
    """Return the total energy as a function of m: "fixed" (always E) or "m^R"."""
    if text == "fixed":
        return lambda m: E
    if text.startswith("m^"):
        try:
            r = float(text[2:])
        except ValueError:
            raise ValueError(f"bad exponent in --energy-rule {text!r}") from None
        if not math.isfinite(r):
            raise ValueError(f"--energy-rule {text!r} needs a finite exponent")

        def rule(m):
            try:
                return float(m) ** r
            except OverflowError:
                raise ValueError(f"--energy-rule {text!r} overflows at m = {m}") from None
        return rule
    raise ValueError(f"unknown --energy-rule {text!r} (expected \"fixed\" or \"m^R\")")


def alpha_grid(lo: float, hi: float, step: float) -> list:
    if step <= 0:
        raise ValueError("--alpha-step must be positive")
    if hi < lo:
        raise ValueError("--alpha-max must not be below --alpha-min")
    span = (hi - lo) / step + 1e-9
    if not span < ALPHA_GRID_CAP:
        raise ValueError(f"--alpha-step gives more than {ALPHA_GRID_CAP} alpha points")
    count = int(math.floor(span)) + 1
    return [lo + i * step for i in range(count)]


def _write_text(out: str, text: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _sweep_value(quantity: str, w: int, alpha: float, enc: float) -> str:
    if quantity == "enc_distance":
        return wire_float(enc)
    unenc = unencrypted_trace_distance(w, alpha)
    if quantity == "unenc_distance":
        return wire_float(unenc)
    # suppression_ratio's rule: undefined where the unencrypted distance is 0.0
    return wire_float(enc / unenc) if unenc != 0.0 else "undefined"


def _add_sweep_rows(rows: list, quantity: str, m: int, d: int, ws: list, alphas: list) -> None:
    """Append the CSV rows of one m to rows: w by w, each over alphas.

    The encrypted distances are the lines of one _line_distances call.  An
    invalid |alpha| raises its ValueError where the first line reaches it,
    after any capacity error of that line's earlier rows.
    """
    for count, alpha in enumerate(alphas):
        try:
            SecurityParams(m=m, d=d, abs_alpha=alpha, w=ws[0])
        except ValueError:
            if quantity != "unenc_distance":
                _line_distances(m, d, ws[:1], alphas[:count])
            raise
    lines = (map(np.ndarray.tolist, _line_distances(m, d, ws, alphas))
             if quantity != "unenc_distance" else [[None] * len(alphas)] * len(ws))
    heads = [f"{quantity},{m},{d},{wire_float(alpha)},"
             f"{wire_float(mean_photon_number(alpha, m))}," for alpha in alphas]
    for w, encs in zip(ws, lines):
        rows += [f"{head}{w},{_sweep_value(quantity, w, alpha, enc)}"
                 for head, alpha, enc in zip(heads, alphas, encs)]


def _cmd_security_sweep(args) -> int:
    ms, ws = args.m, args.w
    if max(ws) > min(ms):
        raise ValueError("every --w value must be <= every --m value")
    rule = parse_energy_rule(args.energy_rule, args.E) if args.energy_rule else None
    rows = ["quantity,m,d,abs_alpha,E,w,value"]
    for m in ms:
        # the grid is passed, not named, so none is held while the text is joined
        _add_sweep_rows(rows, args.quantity, m, args.d, ws,
                        alpha_grid(args.alpha_min, args.alpha_max, args.alpha_step)
                        if rule is None else [math.sqrt(rule(m) / m)])
    rows.append("")  # the final newline, with no second copy of the text
    _write_text(args.out, "\n".join(rows))
    return EXIT_OK


def _cmd_mutinfo(args) -> int:
    as_int("d", args.d, least=1)  # the measurement ignores d; the flag keeps the sweep's range
    rule = parse_energy_rule(args.energy_rule, args.E)
    rows = ["m,E,abs_alpha,i_total"]
    for m in args.m:
        E = rule(m)
        alpha = math.sqrt(E / m)
        res = pgm_closed_form(alpha, modes=m)
        rows.append(",".join([str(m), wire_float(E), wire_float(alpha),
                              wire_float(res.i_total)]))
    _write_text(args.out, "\n".join(rows) + "\n")
    return EXIT_OK


def _cmd_oracle_check(args) -> int:
    results = run_checks(args.level)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: max deviation {r.deviation:.3e} "
              f"(tolerance {r.tolerance:.1e})")
    n_pass = sum(1 for r in results if r.passed)
    print(f"{n_pass}/{len(results)} checks passed at level {args.level}")
    return EXIT_OK if n_pass == len(results) else EXIT_INVARIANT


def _resolve_circuit(spec: str, m: int) -> CircuitDescription:
    """A builtin circuit by name, else one read from a JSON file.

    The builtin names come first: a file named swap is read as ./swap.
    """
    if spec == "empty":
        return CircuitDescription(gates=())
    if spec == "kerr-cat":
        if m != 1:
            raise ValueError("the kerr-cat circuit acts on exactly one mode")
        return CircuitDescription(
            gates=(NonlinearPhaseSpec(terms={(2,): 1.0}, t=math.pi / 2),))
    if spec == "swap":
        if m < 2:
            raise ValueError("the swap circuit needs at least two modes")
        u = np.eye(m)
        u[[0, 1]] = u[[1, 0]]
        return CircuitDescription(gates=(Interferometer(u.astype(complex)),))
    path = Path(spec)
    if not path.is_file():
        raise ValueError(f"unknown circuit {spec!r} and no such file")
    try:
        return circuit_from_json(path.read_text())
    except ValueError as exc:  # bad JSON too: JSONDecodeError is a ValueError
        raise ValueError(f"bad circuit file {spec}: {exc}") from None


def _cat_fidelity(tr, x: BitString) -> float:
    """Fidelity of the decrypted state with the cat of the sent amplitude alpha (-1)^x."""
    target = cat_state_target(tr.alpha * (-1) ** x.bits[0], tr.decrypted.cutoff)
    a, b = tr.decrypted.amps, target.amps
    fid = float(abs(np.vdot(a, b)) ** 2
                / (np.vdot(a, a).real * np.vdot(b, b).real))
    return min(fid, 1.0)


def _cmd_protocol_demo(args) -> int:
    circuit = _resolve_circuit(args.circuit, args.m)
    if args.x is not None:
        try:
            x = BitString.from_text(args.x)
        except ValueError as exc:
            raise ValueError(f"bad --x: {exc}") from None
        if len(x) != args.m:
            raise ValueError(f"--x has {len(x)} bits but --m is {args.m}")
    else:
        rng = np.random.default_rng(args.seed)
        x = BitString(tuple(rng.integers(0, 2, size=args.m)))

    tr = run_protocol(x, args.alpha, args.d, circuit, seed=args.seed)

    text = tr.to_jsonl()
    if args.circuit == "kerr-cat":
        fid = _cat_fidelity(tr, x)
        text += f'{{"type":"cat_fidelity","value":{wire_float(fid)}}}\n'
    _write_text(args.out, text)

    print(f"x = {x.to_text()}  key k = {tr.key.k} of d = {tr.d}")
    print(f"correctness: {'pass' if tr.correct else 'FAIL'} "
          f"({tr.correctness['metric']}, value {tr.correctness['value']:.3e})")
    if tr.y is None:
        print("decoded y: undecodable")
    else:
        match = "matches" if tr.y == tr.y_reference else "DIFFERS FROM"
        print(f"decoded y = {tr.y.to_text()} ({match} plaintext reference)")
    print(f"decrypt cost: {tr.decrypt_ops['phase_rotations']} rotations, "
          f"{tr.decrypt_ops['decode_decisions']} decisions")
    for flag in tr.flags:
        print(f"flag: {flag}")
    return EXIT_OK if tr.correct else EXIT_INVARIANT


@functools.cache
def build_parser() -> _Parser:
    """Return the parser for the four subcommands, built on the first call.

    Later calls in the process return the same parser, so every default is
    immutable: no parse can change what the next one sees.
    """
    parser = _Parser(
        prog="phasekey",
        description="Coherent-state phase-key encryption: sweeps, checks, demos.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    sweep = sub.add_parser(
        "security-sweep",
        help="tabulate distinguishability quantities as CSV",
        description="Write CSV rows of a distinguishability quantity over a "
                    "parameter grid: the trace-distance-versus-amplitude curve "
                    "family (one curve per flipped-bit count w), and with "
                    "--energy-rule the suppression-ratio-versus-m curves at "
                    "fixed total energy or at E = m^r.")
    sweep.add_argument("--quantity", required=True,
                       choices=["enc_distance", "unenc_distance", "ratio"])
    sweep.add_argument("--m", type=parse_mode_list, default=(10,),
                       help="mode counts, e.g. 10 or 2-12 (default 10)")
    sweep.add_argument("--d", type=int, default=100,
                       help="key-space size (default 100)")
    sweep.add_argument("--w", type=parse_int_list, default=(1,),
                       help="flipped-bit counts, e.g. 1 or 1-10 (default 1)")
    sweep.add_argument("--alpha-min", type=parse_finite_float, default=0.0)
    sweep.add_argument("--alpha-max", type=parse_finite_float, default=2.0)
    sweep.add_argument("--alpha-step", type=parse_finite_float, default=0.02)
    sweep.add_argument("--energy-rule", default=None,
                       help='"fixed" (use --E) or "m^R"; omit to sweep alpha')
    sweep.add_argument("--E", type=parse_energy, default=1.0,
                       help="total energy for --energy-rule fixed (default 1.0)")
    sweep.add_argument("--out", default="-", help="output CSV path (default stdout)")
    sweep.set_defaults(handler=_cmd_security_sweep)

    mut = sub.add_parser(
        "mutinfo",
        help="tabulate the eavesdropper's accessible information as CSV",
        description="Write CSV rows of the total accessible information of the "
                    "square-root measurement versus the mode count, under a "
                    "fixed total energy or E = m^r; this is the "
                    "information-versus-m curve that stays flat in one rule "
                    "and grows in the other.")
    mut.add_argument("--m", type=parse_mode_list, default=tuple(range(2, 21)),
                     help="mode counts (default 2-20)")
    mut.add_argument("--d", type=int, default=100,
                     help="key-space size (accepted for flag parity; the "
                          "measurement ignores it)")
    mut.add_argument("--energy-rule", default="fixed",
                     help='"fixed" (use --E) or "m^R" (default fixed)')
    mut.add_argument("--E", type=parse_energy, default=1.0,
                     help="total energy for the fixed rule (default 1.0)")
    mut.add_argument("--out", default="-", help="output CSV path (default stdout)")
    mut.set_defaults(handler=_cmd_mutinfo)

    oc = sub.add_parser(
        "oracle-check",
        help="cross-check every closed form against an independent route",
        description="Run the invariant suite: each closed-form quantity is "
                    "recomputed by brute force or an exact low-rank method and "
                    "the worst deviation is compared against a pinned "
                    "tolerance.")
    oc.add_argument("--level", choices=["fast", "full"], default="fast",
                    help="fast: one- and two-mode dense checks; full: adds the "
                         "three-mode oracle grid and the numeric measurement")
    oc.set_defaults(handler=_cmd_oracle_check)

    demo = sub.add_parser(
        "protocol-demo",
        help="run one encrypt/evaluate/decrypt exchange and dump its transcript",
        description="Execute a full client/evaluator exchange on a random or "
                    "given bit string, write the wire transcript as JSON "
                    "lines, and report correctness against direct plaintext "
                    "evaluation.  The kerr-cat builtin also records the "
                    "fidelity of the decrypted state against the balanced "
                    "two-component superposition it should produce.")
    demo.add_argument("--m", type=parse_mode_count, default=1, help="mode count (default 1)")
    demo.add_argument("--d", type=int, default=100,
                      help="key-space size (default 100)")
    demo.add_argument("--alpha", type=parse_finite_float, default=1.0,
                      help="codeword amplitude (default 1.0)")
    demo.add_argument("--x", default=None,
                      help="plaintext bits, e.g. 0110 (default: seeded random)")
    demo.add_argument("--circuit", default="empty",
                      help='builtin "empty", "kerr-cat", "swap", or a JSON file; '
                           'a builtin name wins, so give a file named swap as ./swap')
    demo.add_argument("--seed", type=parse_seed, default=0,
                      help="seed for the key draw and any random bits")
    demo.add_argument("--out", default="-",
                      help="transcript path (default stdout)")
    demo.set_defaults(handler=_cmd_protocol_demo)

    return parser


def main(argv=None) -> int:
    """Run one command line (sys.argv[1:] when argv is None); return its exit code.

    Every call in a process parses with the one parser of build_parser.
    """
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"phasekey: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as exc:
        print(f"phasekey: capacity exceeded: {exc}", file=sys.stderr)
        return EXIT_CAPACITY


if __name__ == "__main__":
    sys.exit(main())
