"""Codewords, phase keys, the encryption channel, and its block structure.

An m-bit string x is carried by the product state of coherent states with
amplitudes (-1)^{x_j} alpha.  Encryption rotates every mode by the same
secret angle theta_k = 2 pi k / d.  Averaging over the key leaves a state
that is block diagonal over the residue classes of the total photon
number mod d; this module builds both the averaged state and its blocks.
Totals reach at most the cutoff n_max, so both cut the key space at
min(d, n_max + 1), as every larger d gives the same classes; a block of
weight exactly 0 is absent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .fock import (
    CapacityError,
    DensityOperator,
    FockVector,
    as_int,
    coherent_fock,
    grid_size,
    occupation_array,
    total_photon_numbers,
)

# Most basis states, C(n_max+m, m), of a dense channel average.  The average
# is one matrix of at most 4096^2 complex entries (16 bytes each, 268 MB),
# plus the d rotated codewords and the 128 x 128 tiles of its Hermitian check.
DENSE_CHANNEL_CAP = 4096


@dataclass(frozen=True)
class BitString:
    """An m-bit message, m >= 1."""

    bits: tuple

    def __post_init__(self):
        bits = tuple(as_int("bit", b) for b in self.bits)
        if len(bits) < 1:
            raise ValueError("bit string must have at least one bit")
        if any(b not in (0, 1) for b in bits):
            raise ValueError("bits must be 0 or 1")
        object.__setattr__(self, "bits", bits)

    @classmethod
    def from_text(cls, text: str) -> "BitString":
        """Bits from the ASCII characters 0 and 1, surrounding whitespace ignored.

        Any other character, a fullwidth digit too, is a ValueError naming it.
        """
        text = text.strip()
        for c in text:
            if c not in "01":
                raise ValueError(f"bits must be the characters 0 and 1, got {c!r}")
        return cls(tuple(int(c) for c in text))

    def to_text(self) -> str:
        return "".join(str(b) for b in self.bits)

    def __len__(self) -> int:
        return len(self.bits)


@dataclass(frozen=True)
class PhaseKey:
    """Secret key k out of d, selecting the rotation angle 2 pi k / d."""

    k: int
    d: int

    def __post_init__(self):
        object.__setattr__(self, "d", as_int("key space size d", self.d, least=1))
        object.__setattr__(self, "k", as_int("key k", self.k))
        if not 0 <= self.k < self.d:
            raise ValueError("key must satisfy 0 <= k < d")

    @property
    def theta(self) -> float:
        return 2.0 * math.pi * self.k / self.d


@dataclass(frozen=True, eq=False)
class AmplitudeVector:
    """Mode amplitudes of a product of coherent states.

    amps is a read-only copy of the values given, so a later write to the
    caller's array cannot put a non-finite amplitude past the check.
    """

    amps: np.ndarray

    def __post_init__(self):
        amps = np.atleast_1d(np.array(self.amps, dtype=complex))
        if amps.ndim != 1 or len(amps) < 1:
            raise ValueError("amplitudes must form a nonempty vector")
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)

    @property
    def modes(self) -> int:
        return len(self.amps)

    def total_energy(self) -> float:
        """Sum of |alpha_j|^2; inf, without a numpy warning, where that overflows."""
        with np.errstate(over="ignore"):
            return float(np.sum(np.abs(self.amps) ** 2))


@dataclass(frozen=True, eq=False)
class PartitionBlock:
    """One residue-class block of the key-averaged state.

    j is the total-photon-number residue, q_j > 0 the block weight, and
    gtilde the normalized state supported on that class.
    """

    j: int
    q_j: float
    gtilde: FockVector


def encode(x: BitString, alpha: complex) -> AmplitudeVector:
    """Codeword amplitudes (-1)^{x_j} alpha."""
    alpha = complex(alpha)
    if not np.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    signs = np.array([(-1.0) ** b for b in x.bits])
    return AmplitudeVector(signs * alpha)


def keygen(d: int, seed) -> PhaseKey:
    """Uniformly random key, deterministic for a given seed; d at most 2^63, as numpy draws."""
    d = as_int("key space size d", d, least=1)
    if d > 2 ** 63:
        raise ValueError(f"key space size d must be at most 2^63 to draw a key, got {d}")
    rng = np.random.default_rng(seed)
    return PhaseKey(k=rng.integers(d), d=d)


def phase_rotate(v: AmplitudeVector, theta: float) -> AmplitudeVector:
    """Rotate every mode in phase space: alpha -> alpha e^{-i theta}.

    Matches the number-operator convention e^{-i theta n}; encryption with
    key k is phase_rotate(v, theta_k) and decryption phase_rotate(v, -theta_k).
    """
    return AmplitudeVector(v.amps * np.exp(-1j * theta))


def phase_rotate_fock(psi: FockVector, theta: float) -> FockVector:
    """Same rotation applied in the number basis: amplitudes pick up e^{-i theta t}."""
    t = total_photon_numbers(psi.cutoff, psi.modes)
    return replace(psi, amps=psi.amps * np.exp(-1j * theta * t))


def codeword_fock(x: BitString, alpha: complex, n_max: int) -> FockVector:
    """Number-basis expansion of the codeword for x."""
    return coherent_fock(encode(x, alpha).amps, n_max)


def encryption_channel_density(x: BitString, alpha: complex, d: int,
                               n_max: int) -> DensityOperator:
    """Key-averaged encrypted state (1/d) sum_k R_k |psi_x><psi_x| R_k^dag.

    R_k rotates every mode by theta_k = 2 pi k / d, multiplying the
    amplitude of total photon number t by e^{-i theta_k t}; the phases are
    computed once per (k, t) and looked up.  With the rotated codewords
    R_k psi as the rows of a d x N matrix C, the average is the one product
    (C / d)^T C^*.  Its entries agree with the literal key sum to within
    rounding, a few d 2^-53 |psi_i||psi_j|, and are exactly zero where
    psi_i psi_j is; their bits are not part of the contract.  The product
    is Hermitian to within the same rounding, which DensityOperator's
    1e-12 check guards.  Each basis state is labelled with its residue
    t mod d, the sectors over which the average is block diagonal;
    trace_distance_numeric verifies that structure before it eigensolves
    sector by sector.  Totals differ by at most n_max, so every d > n_max
    gives the average and labels of d = n_max + 1, and the keys stop there.
    """
    d = as_int("key space size d", d, least=1)
    m = len(x)
    if grid_size(n_max, m, DENSE_CHANNEL_CAP) > DENSE_CHANNEL_CAP:
        raise CapacityError(f"dense channel average at m={m}, n_max={n_max} holds more "
                            f"than {DENSE_CHANNEL_CAP} states")
    psi = codeword_fock(x, alpha, n_max)
    t = total_photon_numbers(n_max, m)
    totals = np.arange(psi.cutoff + 1)
    d = min(d, psi.cutoff + 1)
    # row k is R_k psi: d vectors of the grid's length
    rotated = np.array([np.exp(-2j * math.pi * k / d * totals)[t] * psi.amps for k in range(d)])
    rho = (rotated / d).T @ rotated.conj()
    return DensityOperator(rho, sectors=t % d)


def block_decomposition(alpha: complex, m: int, d: int, n_max: int) -> list:
    """Residue-class blocks of the key-averaged all-zeros codeword state.

    One PartitionBlock per residue j < min(d, n_max + 1) with weight q_j
    above 0, in order of j; a class of weight exactly 0 is absent, as in
    qk_ak_finite.  Reconstructing sum_j q_j |g_j><g_j| reproduces
    encryption_channel_density for x = 0...0.
    """
    d = as_int("key space size d", d, least=1)
    m = as_int("m", m, least=1)
    psi = coherent_fock([complex(alpha)] * m, n_max)
    d = min(d, psi.cutoff + 1)
    residues = total_photon_numbers(n_max, m) % d
    blocks = []
    for j in range(d):
        mask = residues == j
        q_j = float(np.sum(np.abs(psi.amps[mask]) ** 2))
        if q_j > 0.0:
            amps = np.where(mask, psi.amps, 0.0) / math.sqrt(q_j)
            blocks.append(PartitionBlock(j=j, q_j=q_j,
                                         gtilde=FockVector(cutoff=n_max, modes=m, amps=amps)))
    return blocks


def apply_sign_flips(block: PartitionBlock, x: BitString) -> FockVector:
    """Flip the sign of every amplitude with odd photon count on the set bits of x.

    The coefficient of |z> is multiplied by (-1)^{x . z}; the support stays
    inside the block's residue class.
    """
    psi = block.gtilde
    if len(x) != psi.modes:
        raise ValueError("bit string length must match the mode count")
    parity = occupation_array(psi.cutoff, psi.modes) @ np.asarray(x.bits, dtype=np.int64) % 2
    return replace(psi, amps=psi.amps * np.where(parity == 1, -1.0, 1.0))
