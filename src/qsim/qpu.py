"""The n-qubit register model: encodings, observables, evolution, sampling.

Outcome labels and array positions use two different bit conventions, and
conflating them is the classic bug in this construction:

* The outcome label k of bits (z_1, ..., z_n) is little-endian:
  k = sum z_i 2^(i-1), so bits [1,0,0] label k=1 at n=3.
* The flat array position of the tensor product |z_1> (x) ... (x) |z_n> is
  big-endian: position = sum z_j 2^(n-j), because factor 1 is the leftmost
  Kronecker factor and therefore the most significant block of the array.

Both maps are exposed: encode/decode handle labels, tensor_index handles
array positions, and label_permutation tabulates the composite map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algprob import DensityMatrix, Law, Observable, pure_state
from .linalg import as_matrix, as_vector, unitary_from_hamiltonian, is_unitary
from .rng import inverse_cdf_sample

BitString = Sequence[int]

# One diagonal factor per wire with eigenvalues (1, prime) makes every
# outcome label a distinct product, so the register observable separates
# all 2^n basis states.
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def encode(k: int, n: int) -> list[int]:
    """Bits (z_1, ..., z_n) of the label k = sum z_i 2^(i-1)."""
    if n < 1:
        raise ValueError("qubit count must be at least 1")
    if not 0 <= k < 2**n:
        raise ValueError(f"label {k} out of range for {n} qubits")
    return [(k >> i) & 1 for i in range(n)]


def decode(bits: BitString) -> int:
    """Label k of a bit sequence; inverse of encode."""
    if len(bits) < 1:
        raise ValueError("empty bit string")
    k = 0
    for i, b in enumerate(bits):
        if b not in (0, 1):
            raise ValueError(f"bit {b!r} is not 0 or 1")
        k += b << i
    return k


def tensor_index(bits: BitString) -> int:
    """Flat array position of |z_1> (x) ... (x) |z_n>.

    Wire 1 is the leftmost Kronecker factor, hence the most significant
    position bit: index = sum z_j 2^(n-j).
    """
    n = len(bits)
    if n < 1:
        raise ValueError("empty bit string")
    idx = 0
    for j, b in enumerate(bits):
        if b not in (0, 1):
            raise ValueError(f"bit {b!r} is not 0 or 1")
        idx += b << (n - 1 - j)
    return idx


def label_permutation(n: int) -> np.ndarray:
    """Array whose k-th entry is the flat tensor position of label k.

    The position is k with its n bits reversed: bit i-1 of the label is
    wire i, which is position bit n-i.
    """
    if n < 1:
        raise ValueError("qubit count must be at least 1")
    labels = np.arange(2**n)
    positions = np.zeros_like(labels)
    for i in range(n):
        positions |= ((labels >> i) & 1) << (n - 1 - i)
    return positions


def basis_vector(k: int, n: int) -> np.ndarray:
    """Unit vector of the basis state labeled k."""
    v = np.zeros(2**n, dtype=np.complex128)
    v[tensor_index(encode(k, n))] = 1.0
    return v


@dataclass(frozen=True)
class QpuObservable:
    """Register observable given as a Kronecker product of 2x2 factors.

    eigen_labels[k] is the product of each factor's ascending eigenvalues
    selected by the bits of k, i.e. the measured value of basis state k.
    """

    n: int
    factors: tuple[Observable, ...]
    realized: Observable
    eigen_labels: np.ndarray


def qpu_observable(factors, tol: float = 1e-10) -> QpuObservable:
    """Build the register observable from per-wire 2x2 Hermitian factors."""
    obs_factors = []
    for f in factors:
        if not isinstance(f, Observable):
            f = Observable(as_matrix(f), tol)
        if f.dim != 2:
            raise ValueError(f"factor dimension {f.dim} is not 2")
        obs_factors.append(f)
    if not obs_factors:
        raise ValueError("at least one factor is required")
    n = len(obs_factors)
    realized_mat = obs_factors[0].mat
    for f in obs_factors[1:]:
        realized_mat = np.kron(realized_mat, f.mat)
    factor_eigs = [f.spectral.eigenvalues for f in obs_factors]
    labels = np.empty(2**n, dtype=np.float64)
    for k in range(2**n):
        bits = encode(k, n)
        value = 1.0
        for j in range(n):
            value *= float(factor_eigs[j][bits[j]])
        labels[k] = value
    return QpuObservable(
        n=n,
        factors=tuple(obs_factors),
        realized=Observable(realized_mat, tol),
        eigen_labels=labels,
    )


def standard_observable(n: int) -> QpuObservable:
    """Diagonal register observable whose 2^n eigenvalues are all distinct.

    Wire j carries diag(1, p_j) with p_j the j-th prime, so the label of
    outcome k is the square-free product encoding k's bits uniquely.
    """
    if not 1 <= n <= len(_PRIMES):
        raise ValueError(f"qubit count must be between 1 and {len(_PRIMES)}")
    return qpu_observable(
        [np.diag([1.0, float(p)]) for p in _PRIMES[:n]]
    )


@dataclass(frozen=True)
class Udqc:
    """A register fixed to the all-zeros initial state plus an observable."""

    n: int
    observable: QpuObservable
    rho0: DensityMatrix


def udqc(n: int, factors=None) -> Udqc:
    """Digital quantum computer model: |0...0> state and a separating observable."""
    obs = standard_observable(n) if factors is None else qpu_observable(factors)
    if obs.n != n:
        raise ValueError(f"observable acts on {obs.n} qubits, expected {n}")
    return Udqc(n=n, observable=obs, rho0=pure_state(basis_vector(0, n)))


def evolve(u, rho: DensityMatrix, tol: float = 1e-10) -> DensityMatrix:
    """Conjugate the state by a unitary: rho -> U rho U*."""
    u = as_matrix(u)
    if not is_unitary(u, tol):
        raise ValueError("evolution matrix is not unitary within tolerance")
    if u.shape[0] != rho.dim:
        raise ValueError(f"dimension mismatch: {u.shape[0]} vs {rho.dim}")
    return DensityMatrix(u @ rho.mat @ u.conj().T)


def liouville_solve(h, rho0: DensityMatrix, t: float, tol: float = 1e-10) -> DensityMatrix:
    """State at time t of d rho/dt = -i[H, rho] from rho0.

    The solution conjugates rho0 by exp(-itH); rank, trace, and hermiticity
    are preserved for every t.
    """
    u = unitary_from_hamiltonian(as_matrix(h), t, tol)
    return evolve(u, rho0, max(tol, 1e-10))


def basis_distribution(rho: DensityMatrix, n: int | None = None) -> np.ndarray:
    """Probability of each basis outcome k under the state rho.

    Entry k is <b(k)| rho |b(k)>, i.e. the diagonal entry at k's tensor
    position. This resolves individual basis states even when observable
    eigenvalues collide.
    """
    dim = rho.dim
    if n is None:
        n = dim.bit_length() - 1
    if 2**n != dim:
        raise ValueError(f"state dimension {dim} is not 2^{n}")
    diag = np.real(np.diagonal(rho.mat))
    return np.clip(diag[label_permutation(n)], 0.0, 1.0)


def vector_distribution(psi) -> np.ndarray:
    """Probability of each basis outcome k for a pure state vector."""
    psi = as_vector(psi)
    n = psi.shape[0].bit_length() - 1
    if 2**n != psi.shape[0]:
        raise ValueError(f"vector dimension {psi.shape[0]} is not a power of 2")
    weights = np.abs(psi) ** 2
    return weights[label_permutation(n)]


@dataclass(frozen=True)
class ShotResult:
    """Counts from repeated seeded measurements.

    counts maps the outcome's index within the sampled law (for laws over
    basis labels, the label k itself) to the number of shots that produced
    it; every index appears, including zero counts.
    """

    counts: dict[int, int]
    shots: int
    seed: int

    def frequencies(self) -> dict[int, float]:
        return {k: c / self.shots for k, c in self.counts.items()}


def sample(law: Law, shots: int, seed: int) -> ShotResult:
    """Draw i.i.d. outcomes from a law; identical seeds give identical counts."""
    if len(law.outcomes) == 0:
        raise ValueError("cannot sample from an empty law")
    if shots < 1:
        raise ValueError("shots must be at least 1")
    idx = inverse_cdf_sample(law.probabilities(), shots, seed)
    counts = np.bincount(idx, minlength=len(law.outcomes))
    return ShotResult(
        counts={i: int(c) for i, c in enumerate(counts)},
        shots=shots,
        seed=seed,
    )


def law_over_labels(probabilities) -> Law:
    """A law whose values are the outcome labels 0..N-1 themselves."""
    p = np.asarray(probabilities, dtype=np.float64)
    return Law(outcomes=tuple((float(k), float(p[k])) for k in range(len(p))))
