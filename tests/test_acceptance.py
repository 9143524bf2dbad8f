"""Top-level acceptance gate.

One test per shipped claim, each printing a single PASS/FAIL line with the
measured margin so a bare pytest -s run reads as a checklist.  Tolerances
are pinned here and nowhere else; loosening one is a red flag.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from phasekey import cli
from phasekey.encoding import BitString, encryption_channel_density
from phasekey.evaluation import cat_state_target, haar_random_unitary, kerr_cat_reference
from phasekey.fock import (
    coherent_fock,
    density_from_fock,
    distance_cutoff,
    overlap,
    trace_distance_numeric,
    truncation_bound,
)
from phasekey.protocol import CircuitDescription, run_protocol
from phasekey.security import (
    SecurityParams,
    encrypted_distance_oracle,
    encrypted_trace_distance,
    encrypted_trace_distance_limit,
    pgm_closed_form,
    pgm_numeric_oracle,
    suppression_ratio,
    unencrypted_trace_distance,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _flip_first(m: int, w: int) -> BitString:
    return BitString(tuple([1] * w + [0] * (m - w)))


def test_criterion_1_closed_form_matches_density_matrix_oracles():
    tol = 1e-6
    worst = 0.0
    for m in (1, 2, 3):
        for alpha in (0.3, 0.7, 1.0, 1.5):
            n_max = distance_cutoff(m * alpha * alpha, tol)
            for d in (2, 3, 5, 8):
                for w in range(m + 1):
                    closed = encrypted_trace_distance(
                        SecurityParams(m=m, d=d, abs_alpha=alpha, w=w))
                    u = BitString((0,) * m)
                    v = _flip_first(m, w)
                    if m <= 2 or alpha == 0.3:
                        oracle = trace_distance_numeric(
                            encryption_channel_density(u, alpha, d, n_max),
                            encryption_channel_density(v, alpha, d, n_max))
                    else:
                        oracle = encrypted_distance_oracle(u, v, alpha, d, n_max)
                    worst = max(worst, abs(closed - oracle))
    _report(1, worst <= tol,
            f"encrypted distance closed form vs oracles, max dev {worst:.2e}, tol {tol:.0e}")


def test_criterion_2_unencrypted_distance_closed_form_is_exact():
    tol = 1e-8
    worst = 0.0
    for m in (1, 2):
        for alpha in (0.3, 0.7, 1.0, 1.5, 2.0):
            n_max = truncation_bound(m * alpha * alpha, 1e-12)
            for w in range(m + 1):
                u = coherent_fock([alpha] * m, n_max)
                v = coherent_fock([-alpha] * w + [alpha] * (m - w), n_max)
                numeric = trace_distance_numeric(
                    density_from_fock(u), density_from_fock(v))
                worst = max(worst, abs(numeric - unencrypted_trace_distance(w, alpha)))
    _report(2, worst <= tol,
            f"plaintext distance vs numeric eigenvalues, max dev {worst:.2e}, tol {tol:.0e}")


def test_criterion_3_hundred_key_channel_sits_on_the_limit_curve():
    tol = 1e-8
    m, d = 10, 100
    worst = 0.0
    for alpha in (0.2, 0.5, 0.8, 1.0, 1.2, math.sqrt(2.0)):
        for w in (1, 5, 10):
            p = SecurityParams(m=m, d=d, abs_alpha=alpha, w=w)
            assert p.E <= 20 + 1e-12
            worst = max(worst, abs(encrypted_trace_distance(p)
                                   - encrypted_trace_distance_limit(p)))
    _report(3, worst <= tol,
            f"d=100 vs infinite-key limit at m=10, E<=20, max dev {worst:.2e}, tol {tol:.0e}")


def test_criterion_4_suppression_below_one_and_growing_with_m():
    slack = 1e-12
    d = 100
    alphas = [0.05 * i for i in range(1, 41)]
    worst_ratio = 0.0
    for m in range(2, 13):
        for w in range(1, m + 1):
            for alpha in alphas:
                r = suppression_ratio(SecurityParams(m=m, d=d, abs_alpha=alpha, w=w))
                worst_ratio = max(worst_ratio, r.ratio)
    below = worst_ratio < 1.0 + slack

    monotone = True
    for energy in (lambda m: 1.0, lambda m: m ** 0.3):
        curve = [suppression_ratio(
            SecurityParams(m=m, d=d, abs_alpha=math.sqrt(energy(m) / m), w=1)).ratio
            for m in range(2, 13)]
        monotone = monotone and all(b > a for a, b in zip(curve, curve[1:]))

    _report(4, below and monotone,
            f"max ratio {worst_ratio:.17g} < 1, monotone in m for both energy rules: {monotone}")


def test_criterion_5_complements_are_invisible_under_even_key_counts():
    tol = 1e-10
    worst_closed = 0.0
    for m in range(1, 7):
        for alpha in (0.3, 0.8, 1.3):
            for d in (2, 4, 6, 10):
                p = SecurityParams(m=m, d=d, abs_alpha=alpha, w=m)
                worst_closed = max(worst_closed, encrypted_trace_distance(p))
    worst_numeric = 0.0
    for m in (1, 2, 3):
        for alpha in (0.5, 1.0):
            n_max = truncation_bound(m * alpha * alpha)
            for d in (2, 4):
                worst_numeric = max(worst_numeric, encrypted_distance_oracle(
                    BitString((0,) * m), BitString((1,) * m), alpha, d, n_max))
    ok = worst_closed <= tol and worst_numeric <= tol
    _report(5, ok,
            f"all-ones flip at even d: closed {worst_closed:.2e}, "
            f"numeric {worst_numeric:.2e}, tol {tol:.0e}")


def test_criterion_6_pretty_good_measurement_information():
    worst = 0.0
    for alpha in (0.1, 0.5, 1.0, 2.0):
        closed = pgm_closed_form(alpha)
        numeric = pgm_numeric_oracle(alpha, truncation_bound(alpha * alpha, 1e-12))
        worst = max(worst, abs(closed.i_single - numeric.i_single))
    agreement = worst <= 1e-6

    small = pgm_closed_form(0.05).i_single / (2 * 0.05 ** 2 / math.log(2))
    small_ok = 0.99 <= small <= 1.01
    large_ok = pgm_closed_form(3.0).i_single >= 0.999

    growing = True
    for energy in (lambda m: 1.0, lambda m: m ** 0.3):
        curve = [pgm_closed_form(math.sqrt(energy(m) / m), modes=m).i_total
                 for m in range(2, 21)]
        growing = growing and all(b > a for a, b in zip(curve, curve[1:]))

    ok = agreement and small_ok and large_ok and growing
    _report(6, ok,
            f"closed vs numeric dev {worst:.2e} (tol 1e-6), small-alpha ratio "
            f"{small:.4f}, i(3)={pgm_closed_form(3.0).i_single:.6f}, "
            f"i_total growing: {growing}")


def test_criterion_7_kerr_evolution_builds_the_cat():
    bound = 1 - 1e-8
    worst = 1.0
    alphas = [0.25 * i for i in range(1, 9)] + [1.2 + 0.9j, 0.3 + 0.1j]
    for alpha in alphas:
        assert abs(alpha) <= 2
        n_max = truncation_bound(abs(alpha) ** 2, 1e-12)
        fid = abs(overlap(cat_state_target(alpha, n_max),
                          kerr_cat_reference(alpha, n_max)))
        worst = min(worst, fid)
    _report(7, worst >= bound,
            f"cat overlap >= {bound} across |alpha| <= 2, min {worst:.12f}")


def test_criterion_8_linear_circuits_decode_exactly_and_compactly():
    failures = 0
    depths_seen = set()
    for seed in range(200):
        m = 2 + seed % 5
        rng = np.random.default_rng(1000 + seed)
        alpha = 0.5 + 1.5 * float(rng.random())
        depth = int(rng.integers(1, 5))
        depths_seen.add(depth)
        x = BitString(tuple(int(b) for b in rng.integers(0, 2, size=m)))
        circuit = CircuitDescription(gates=tuple(
            haar_random_unitary(m, 7919 * seed + g) for g in range(depth)))
        tr = run_protocol(x, alpha, 100, circuit, seed=seed)
        ops_ok = tr.decrypt_ops == {"phase_rotations": m, "decode_decisions": m}
        if not (tr.correct and tr.y is not None and tr.y == tr.y_reference
                and ops_ok):
            failures += 1
    ok = failures == 0 and depths_seen == {1, 2, 3, 4}
    _report(8, ok,
            f"200 random linear runs, failures {failures}, "
            f"circuit depths exercised {sorted(depths_seen)}, "
            "decrypt cost fixed at m rotations + m decisions")


GOLDEN_COMMANDS = {
    "enc_distance_m10_d100.csv": [
        "security-sweep", "--quantity", "enc_distance", "--m", "10", "--d", "100",
        "--w", "1-10", "--alpha-min", "0.0", "--alpha-max", "2.0",
        "--alpha-step", "0.02"],
    "unenc_distance_m10_d100.csv": [
        "security-sweep", "--quantity", "unenc_distance", "--m", "10", "--d", "100",
        "--w", "1-10", "--alpha-min", "0.0", "--alpha-max", "2.0",
        "--alpha-step", "0.02"],
    "ratio_m10_d100.csv": [
        "security-sweep", "--quantity", "ratio", "--m", "10", "--d", "100",
        "--w", "1-10", "--alpha-min", "0.0", "--alpha-max", "2.0",
        "--alpha-step", "0.02"],
    "ratio_vs_m_fixed_E1.csv": [
        "security-sweep", "--quantity", "ratio", "--m", "2-12", "--d", "100",
        "--w", "1", "--energy-rule", "fixed", "--E", "1.0"],
    "ratio_vs_m_power03.csv": [
        "security-sweep", "--quantity", "ratio", "--m", "2-12", "--d", "100",
        "--w", "1", "--energy-rule", "m^0.3"],
    "mutinfo_fixed_E1.csv": [
        "mutinfo", "--m", "2-20", "--energy-rule", "fixed", "--E", "1.0"],
    "mutinfo_power03.csv": [
        "mutinfo", "--m", "2-20", "--energy-rule", "m^0.3"],
}


def test_criterion_9_sweep_outputs_match_stored_goldens(tmp_path):
    mismatched = []
    for name, argv in GOLDEN_COMMANDS.items():
        fresh = tmp_path / name
        rc = cli.main(argv + ["--out", str(fresh)])
        assert rc == 0
        if fresh.read_bytes() != (GOLDEN_DIR / name).read_bytes():
            mismatched.append(name)

    # goldens must also agree with the closed forms, not merely replay them
    row = (GOLDEN_DIR / "enc_distance_m10_d100.csv").read_text().splitlines()[507]
    q, m, d, a, E, w, value = row.split(",")
    p = SecurityParams(m=int(m), d=int(d), abs_alpha=float(a), w=int(w))
    spot_enc = abs(float(value) - encrypted_trace_distance(p))
    row = (GOLDEN_DIR / "mutinfo_power03.csv").read_text().splitlines()[7]
    m_s, E_s, a_s, i_s = row.split(",")
    spot_mi = abs(float(i_s) - pgm_closed_form(float(a_s), modes=int(m_s)).i_total)

    ok = not mismatched and spot_enc <= 1e-15 and spot_mi <= 1e-15
    _report(9, ok,
            f"{len(GOLDEN_COMMANDS)} golden files byte-identical "
            f"(mismatched: {mismatched or 'none'}), spot devs "
            f"{spot_enc:.1e}/{spot_mi:.1e}")
