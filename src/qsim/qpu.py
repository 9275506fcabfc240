"""The n-qubit register model: encodings, observables, evolution, sampling.

Outcome labels and array positions use two different bit conventions, and
conflating them is the classic bug in this construction:

* The outcome label k of bits (z_1, ..., z_n) is little-endian:
  k = sum z_i 2^(i-1), so bits [1,0,0] label k=1 at n=3.
* The flat array position of the tensor product |z_1> (x) ... (x) |z_n> is
  big-endian: position = sum z_j 2^(n-j), because factor 1 is the leftmost
  Kronecker factor and therefore the most significant block of the array.

This module owns both maps, and every other module goes through them:
encode/decode handle labels; label_bitstrings writes them as text in wire
order; tensor_index handles array positions; label_permutation tabulates
the composite map. Labels, bits and qubit counts follow linalg.as_count,
with its range messages, and vectors and probabilities linalg.as_numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Sequence

import numpy as np

from .algprob import DensityMatrix, Observable, ProductObservable, law_probabilities, pure_state
from .linalg import as_count, as_numbers, unitary_from_hamiltonian
from .rng import inverse_cdf_counts

BitString = Sequence[int]

# One diagonal factor per wire with eigenvalues (1, prime) makes every
# outcome label a distinct product, and the law separates all 2^n basis
# states for n <= 9 (standard_observable).
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
# Sampling memory is bounded by rng.SHOT_CHUNK + rng.SORT_CHUNK draws, about
# 12 MB, whatever the shot count, so this caps time: 10^8 shots take about
# 0.8-1.1 s of CPU at n = 12 (one core of an Intel Xeon, numpy 2.4).
MAX_SHOTS = 10**8


def encode(k: int, n: int) -> list[int]:
    """Bits (z_1, ..., z_n) of the label k = sum z_i 2^(i-1)."""
    n = as_count("n", n, 1)
    k = as_count("label", k, 0, 2**n - 1)
    return [(k >> i) & 1 for i in range(n)]


def decode(bits: BitString) -> int:
    """Label k of a bit sequence, each bit 0 or 1 by linalg.as_count; inverse
    of encode."""
    if len(bits) < 1:
        raise ValueError("empty bit string")
    return sum(as_count("bit", b, 0, 1) << i for i, b in enumerate(bits))


def tensor_index(bits: BitString) -> int:
    """Flat array position of |z_1> (x) ... (x) |z_n>.

    Wire 1 is the leftmost Kronecker factor, hence the most significant
    position bit: index = sum z_j 2^(n-j).
    """
    return decode(bits[::-1])


def label_bitstrings(n: int) -> list[str]:
    """The bits z_1 ... z_n of each label k = 0 .. 2^n - 1 in wire order ("100"
    is k = 1 at n = 3), as the lines of one decoded (2^n, n + 1) byte matrix:
    byte i - 1 of row k is bit i - 1 of k, and the last byte a '\\n'."""
    n = as_count("n", n, 1)
    lines = np.full((2**n, n + 1), ord("\n"), dtype=np.uint8)
    lines[:, :-1] = (np.arange(2**n)[:, None] >> np.arange(n)).astype(np.uint8) & 1 | ord("0")
    return lines.tobytes().decode().split("\n")[:-1]


def label_permutation(n: int) -> np.ndarray:
    """Array whose k-th entry is the flat tensor position of label k.

    The position is k with its n bits reversed: bit i-1 of the label is
    wire i, which is position bit n-i. Reversing the axes of the positions
    laid out as an n-bit array reverses every index's bits.
    """
    n = as_count("n", n, 1)
    return np.arange(2**n).reshape((2,) * n).transpose().ravel()


def basis_vector(k: int, n: int) -> np.ndarray:
    """Unit vector of the basis state labeled k."""
    position = tensor_index(encode(k, n))  # encode checks k and n first
    v = np.zeros(2**n, dtype=np.complex128)
    v[position] = 1.0
    return v


@dataclass(frozen=True)
class QpuObservable:
    """Register observable given as a Kronecker product of 2x2 factors.

    eigen_labels[k] is the product of each factor's ascending eigenvalues
    selected by the bits of k, i.e. the measured value of basis state k;
    it is read-only, as realized's arrays are.
    """

    n: int
    factors: tuple[Observable, ...]
    realized: ProductObservable
    eigen_labels: np.ndarray


def qpu_observable(factors) -> QpuObservable:
    """Build the register observable from per-wire 2x2 Hermitian factors,
    each checked on its own: realized is their ProductObservable, O(n 2^n),
    whose 2^n x 2^n matrix and eigenvectors are built only when read."""
    realized = ProductObservable(factors)
    n = len(realized.factors)
    # Undo the sort into array-position order, then read each label's position.
    w = np.empty(2**n)
    w[realized.order] = realized.eigenvalues
    labels = w[label_permutation(n)]
    labels.setflags(write=False)
    return QpuObservable(n, realized.factors, realized, labels)


@cache
def _wire_factor(p: int) -> Observable:
    """Observable(diag(1, p)), built and checked once per prime and shared:
    an Observable is read-only."""
    return Observable(np.diag([1.0, float(p)]))


def standard_observable(n: int) -> QpuObservable:
    """Diagonal register observable whose 2^n eigenvalues are all distinct.

    Wire j carries diag(1, p_j) with p_j the j-th prime, so the label of
    outcome k is the square-free product encoding k's bits uniquely. law
    separates them for n <= 9 only: from n = 10 its cluster tolerance merges
    small products (921 of 1,024 outcomes at n = 10). The
    wire factors are shared; each call builds no 2^n x 2^n array, and law
    reads rho's diagonal, the factors' eigenvectors being the identity.
    """
    n = as_count("n", n, 1, len(_PRIMES))
    return qpu_observable([_wire_factor(p) for p in _PRIMES[:n]])


@dataclass(frozen=True)
class Udqc:
    """A register fixed to the all-zeros initial state plus an observable."""

    n: int
    rho0: DensityMatrix

    @property
    def observable(self) -> QpuObservable:
        """standard_observable(n), built on each read from the shared wire
        factors: eigenvalues from theirs, no eigensolve and no 2^n x 2^n
        array."""
        return standard_observable(self.n)


def udqc(n: int) -> Udqc:
    """Digital quantum computer model on 1 to 16 qubits; builds rho0 only."""
    n = as_count("n", n, 1, len(_PRIMES))
    return Udqc(n=n, rho0=pure_state(basis_vector(0, n)))


def liouville_solve(h, rho0: DensityMatrix, t: float) -> DensityMatrix:
    """State at time t of d rho/dt = -i[H, rho] from rho0.

    The solution conjugates rho0 by exp(-itH); rank, trace, and hermiticity
    are preserved for every t. exp(-itH) is checked to be unitary once, by
    unitary_from_hamiltonian, and then conjugates rho0.
    """
    u = unitary_from_hamiltonian(h, t)
    if u.shape[0] != rho0.dim:
        raise ValueError(f"dimension mismatch: {u.shape[0]} vs {rho0.dim}")
    return DensityMatrix(u @ rho0.mat @ u.conj().T)


def _label_law(weights: np.ndarray) -> np.ndarray:
    """Basis weights indexed by array position, read in label order and
    checked by law_probabilities; n is read from their count, a power of 2."""
    n = len(weights).bit_length() - 1
    if 2**n != len(weights):
        raise ValueError(f"dimension {len(weights)} is not a power of 2")
    return law_probabilities(weights[label_permutation(n)])


def basis_distribution(rho: DensityMatrix) -> np.ndarray:
    """Probability of each basis outcome k under the state rho.

    Entry k is <b(k)| rho |b(k)>, i.e. the diagonal entry at k's tensor
    position. This resolves individual basis states even when observable
    eigenvalues collide.
    """
    return _label_law(np.real(np.diagonal(rho.mat)))


def vector_distribution(psi) -> np.ndarray:
    """Probability of each basis outcome k for a pure state vector: the
    squared magnitude at k's tensor position."""
    return _label_law(np.abs(as_numbers("psi", psi, np.complex128, 1)) ** 2)


@dataclass(frozen=True)
class ShotResult:
    """Counts from repeated seeded measurements.

    counts maps each index of the sampled probabilities (for a law over
    labels, the label k itself) to the number of shots that produced it;
    every index appears, including zero counts.
    """

    counts: dict[int, int]
    shots: int
    seed: int

    def frequencies(self) -> dict[int, float]:
        return {k: c / self.shots for k, c in self.counts.items()}


def sample(probabilities, shots: int, seed: int) -> ShotResult:
    """Draw i.i.d. outcome indices from a 1-D array of probabilities, such
    as a law over labels or law(a, rho).probabilities(); identical seeds
    give identical counts. The probabilities pass algprob.law_probabilities,
    which clamps them into [0, 1], and shots (1 to MAX_SHOTS) and seed
    linalg.as_count, or it raises before drawing.
    """
    shots, seed = as_count("shots", shots, 1, MAX_SHOTS), as_count("seed", seed)
    counts = inverse_cdf_counts(law_probabilities(probabilities), shots, seed).tolist()
    return ShotResult(counts=dict(enumerate(counts)), shots=shots, seed=seed)


def law_over_labels(probabilities) -> np.ndarray:
    """The law whose values are the labels 0..N-1: its checked probabilities."""
    return law_probabilities(probabilities)
