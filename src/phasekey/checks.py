"""Cross-check suites pairing every closed form with an independent route.

Each check yields its deviations, and _check reports the worst (NaN if any
is NaN, which fails) with the tolerance it must stay under.  The fast level
runs everything that only needs one- and two-mode dense matrices; the full
level adds the three-mode support-basis oracle grid and the numeric
pretty-good measurement.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .encoding import BitString, apply_sign_flips, block_decomposition, encryption_channel_density
from .fock import (
    coherent_fock,
    density_from_fock,
    distance_cutoff,
    overlap,
    trace_distance_numeric,
    truncation_bound,
)
from .security import (
    SecurityParams,
    encrypted_distance_oracle,
    encrypted_trace_distance,
    pgm_closed_form,
    pgm_numeric_oracle,
    qk_ak_enumeration,
    qk_ak_finite,
    rank2_eigenvalues,
    unencrypted_trace_distance,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tolerance


def _check(name: str, tolerance: float):
    """Make a generator of deviations a check of their worst: np.max, so NaN if any is NaN."""
    def wrap(deviations):
        @functools.wraps(deviations)
        def check() -> CheckResult:
            return CheckResult(name, float(np.max(list(deviations()), initial=0.0)), tolerance)
        return check
    return wrap


@_check("coherent-overlap-identity", 1e-10)
def _check_coherent_overlap():
    for alpha in (0.25, 0.5, 1.0, 1.5, 2.0):
        n_max = truncation_bound(alpha ** 2, 1e-14)
        got = overlap(coherent_fock([alpha], n_max), coherent_fock([-alpha], n_max))
        yield abs(got - math.exp(-2 * alpha ** 2))


@_check("unencrypted-distance-closed-vs-numeric", 1e-8)
def _check_unencrypted_distance():
    for m, w, alpha in [(1, 1, 0.5), (1, 1, 1.0), (2, 1, 0.7), (2, 2, 0.7)]:
        n_max = distance_cutoff(m * alpha ** 2, 1e-8)
        u = coherent_fock([alpha] * m, n_max)
        signs = [-alpha] * w + [alpha] * (m - w)
        v = coherent_fock(signs, n_max)
        numeric = trace_distance_numeric(density_from_fock(u), density_from_fock(v))
        yield abs(numeric - unencrypted_trace_distance(w, alpha))


@_check("residue-class-sums-vs-enumeration", 1e-10)
def _check_class_sums():
    for m in (1, 2, 3):
        for alpha in (0.5, 1.0):
            for d in (2, 5):
                for w in range(m + 1):
                    p = SecurityParams(m=m, d=d, abs_alpha=alpha, w=w)
                    n_max = truncation_bound(p.E, 1e-12)
                    q_ref, a_ref = qk_ak_enumeration(p, n_max)
                    for k in range(d):
                        q, a = qk_ak_finite(p, k)
                        yield abs(q - q_ref[k])
                        if q_ref[k] > 1e-12:
                            yield abs(a - a_ref[k])


@_check("encrypted-distance-vs-dense-oracle", 1e-6)
def _check_encrypted_dense():
    for m in (1, 2):
        for alpha in (0.3, 0.7, 1.0):
            n_max = distance_cutoff(m * alpha ** 2, 1e-6)
            for d in (2, 3, 5):
                zeros = encryption_channel_density(BitString((0,) * m), alpha, d, n_max)
                for w in range(m + 1):
                    p = SecurityParams(m=m, d=d, abs_alpha=alpha, w=w)
                    v = BitString(tuple([1] * w + [0] * (m - w)))
                    dense = trace_distance_numeric(
                        zeros, encryption_channel_density(v, alpha, d, n_max))
                    yield abs(encrypted_trace_distance(p) - dense)


@_check("encrypted-distance-vs-support-oracle-m3", 1e-6)
def _check_encrypted_support_basis():
    m = 3
    for alpha in (0.3, 0.7, 1.0, 1.5):
        n_max = distance_cutoff(m * alpha ** 2, 1e-6)
        for d in (2, 3, 5, 8):
            for w in range(1, m + 1):
                p = SecurityParams(m=m, d=d, abs_alpha=alpha, w=w)
                u = BitString((0,) * m)
                v = BitString(tuple([1] * w + [0] * (m - w)))
                oracle = encrypted_distance_oracle(u, v, alpha, d, n_max)
                yield abs(encrypted_trace_distance(p) - oracle)


@_check("block-reconstruction-vs-channel-average", 1e-9)
def _check_block_reconstruction():
    # the paper's partition: rho_x = sum_j q_j |F_x g_j><F_x g_j|, F_x the sign flips of x
    alpha, m, d = 0.8, 2, 5
    n_max = truncation_bound(m * alpha ** 2, 1e-12)
    blocks = block_decomposition(alpha, m, d, n_max)
    for x in map(BitString, itertools.product((0, 1), repeat=m)):
        flipped = [apply_sign_flips(b, x).amps for b in blocks]
        rebuilt = sum(b.q_j * np.outer(g, g.conj()) for b, g in zip(blocks, flipped))
        rho = encryption_channel_density(x, alpha, d, n_max)
        yield float(np.abs(rebuilt - rho.entries).max())


@_check("rank2-eigenvalue-lemma-vs-dense", 1e-12)
def _check_rank2_lemma():
    rng = np.random.default_rng(314159)
    for _ in range(100):
        C = float(rng.uniform(-1, 1))
        ct = float(rng.uniform(-1, 1))
        x = np.array([1.0, 0.0])
        y = np.array([ct, math.sqrt(1 - ct * ct)])
        mat = np.outer(x, x) - C * np.outer(x, y) - C * np.outer(y, x) + np.outer(y, y)
        dense = np.sort(np.linalg.eigvalsh(mat))
        yield float(np.abs(dense - np.sort(rank2_eigenvalues(C, ct))).max())


@_check("complement-indistinguishability-closed-form", 1e-10)
def _check_complement_closed_form():
    for m in (1, 2, 3, 4):
        for alpha in (0.5, 1.0):
            for d in (2, 4):
                p = SecurityParams(m=m, d=d, abs_alpha=alpha, w=m)
                yield encrypted_trace_distance(p)


@_check("complement-indistinguishability-numeric", 1e-10)
def _check_complement_numeric():
    alpha = 0.8
    for m in (1, 2, 3):
        n_max = distance_cutoff(m * alpha ** 2, 1e-10)
        for d in (2, 4):
            yield encrypted_distance_oracle(BitString((0,) * m), BitString((1,) * m), alpha, d, n_max)


@_check("pgm-closed-form-vs-numeric", 1e-6)
def _check_pgm():
    for alpha in (0.1, 0.5, 1.0, 2.0):
        n_max = truncation_bound(alpha ** 2, 1e-12)
        numeric = pgm_numeric_oracle(alpha, n_max)
        closed = pgm_closed_form(alpha)
        yield abs(numeric.i_single - closed.i_single)
        yield abs(numeric.p_same - closed.p_same)


FAST_CHECKS = (
    _check_coherent_overlap,
    _check_unencrypted_distance,
    _check_class_sums,
    _check_encrypted_dense,
    _check_block_reconstruction,
    _check_rank2_lemma,
    _check_complement_closed_form,
)

FULL_ONLY_CHECKS = (
    _check_encrypted_support_basis,
    _check_complement_numeric,
    _check_pgm,
)


def run_checks(level: str = "fast"):
    """Run the requested suite and return its CheckResult list in a fixed order."""
    if level not in ("fast", "full"):
        raise ValueError(f"unknown check level {level!r}")
    suite = FAST_CHECKS + (FULL_ONLY_CHECKS if level == "full" else ())
    return [check() for check in suite]
