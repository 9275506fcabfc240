"""Factoring unitaries into two-level gates.

Any N x N unitary splits into exactly N(N-1)/2 factors, each the identity
except for a 2x2 unitary block on one coordinate pair. The construction
reduces the first column to (1, 0, ..., 0) with N-1 factors mixing
coordinate 1 against coordinates 2..N in turn, then does the same to
each later column of the remaining block, in one loop over columns with
no size limit from recursion. Identity factors are kept so the count is
always exactly N(N-1)/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gates import (
    TwoLevelGate,
    _parse_header,
    _parse_two_level,
    format_gate,
    gate_pairs,
    mix_pairs,
    realize_gate,
)
from .linalg import as_matrix, as_vector, is_unitary

# A component counts as zero for branch selection below this fraction of
# the vector norm; identity factors are emitted instead of dividing by it.
ZERO_COMPONENT_REL_TOL = 1e-13
RESIDUAL_PHASE_TOL = 1e-9
# Largest relative Frobenius residual of a correct factorization.
RECONSTRUCTION_TOL = 1e-9

_IDENTITY_BLOCK = np.eye(2, dtype=np.complex128)


def k_embed(nn: int, i: int, j: int, v) -> np.ndarray:
    """Identity of size nn with v as the 2x2 block on coordinates i < j."""
    return realize_gate(TwoLevelGate(dim=nn, i=i, j=j, v=v))


def reduce_vector(psi) -> tuple[list[TwoLevelGate], float]:
    """Factors sending psi to (||psi||, 0, ..., 0), plus the norm.

    Exactly N-1 two-level factors are returned; applying them to psi in
    order zeroes coordinates 2..N and leaves the real nonnegative norm in
    coordinate 1. Components already negligible produce identity factors.
    """
    psi = as_vector(psi)
    n = psi.shape[0]
    if n < 2:
        raise ValueError("vector dimension must be at least 2")
    norm = float(np.linalg.norm(psi))
    if norm == 0.0:
        raise ValueError("cannot reduce the zero vector")
    zero_tol = ZERO_COMPONENT_REL_TOL * norm
    factors: list[TwoLevelGate] = []
    # Factor j mixes coordinates 1 and j. Coordinate j is never read again,
    # so only coordinate 1 of the partly reduced vector is tracked, as a.
    a = complex(psi[0])
    for j in range(2, n + 1):
        b = complex(psi[j - 1])
        if abs(b) <= zero_tol:
            if j == 2 and abs(a - abs(a)) > zero_tol:
                # Nothing to eliminate, but coordinate 1 carries a phase;
                # rotate it onto the nonnegative real axis now so the final
                # first component is the norm itself.
                phase = a / abs(a)
                v = np.array(
                    [[phase.conjugate(), 0.0], [0.0, phase]],
                    dtype=np.complex128,
                )
                a = complex(abs(a))
            else:
                v = _IDENTITY_BLOCK
        else:
            r = float(np.hypot(abs(a), abs(b)))
            v = np.array(
                [
                    [a.conjugate() / r, b.conjugate() / r],
                    [-b / r, a / r],
                ],
                dtype=np.complex128,
            )
            a = complex(r)
        factors.append(TwoLevelGate(dim=n, i=1, j=j, v=v))
    return factors, norm


@dataclass(frozen=True)
class Decomposition:
    """Ordered two-level factors of a unitary; factors[0] applies first."""

    dim: int
    factors: tuple[TwoLevelGate, ...]


def reconstruct(d: Decomposition) -> np.ndarray:
    """Multiply the factors back together in application order."""
    if d.dim < 2:
        raise ValueError("ambient dimension must be at least 2")
    out = np.eye(d.dim, dtype=np.complex128)
    for f in d.factors:
        if f.dim != d.dim:
            raise ValueError(
                f"factor dimension {f.dim} does not match ambient {d.dim}"
            )
        # Left multiplication touches only rows i and j.
        mix_pairs(f.v, out, *gate_pairs(f))
    return out


def decompose_unitary(u, tol: float = 1e-10) -> Decomposition:
    """Split a unitary into exactly N(N-1)/2 ordered two-level factors.

    Reconstructing the factors reproduces the input within
    RECONSTRUCTION_TOL relative Frobenius error for well-conditioned unitary
    input.
    """
    u = as_matrix(u)
    n = u.shape[0]
    if u.shape[0] != u.shape[1] or n < 2:
        raise ValueError(f"expected a square matrix of dim >= 2, got {u.shape}")
    if not is_unitary(u, tol):
        raise ValueError("input is not unitary within tolerance")
    u = u.copy()
    # Collected in reverse application order and reversed once at the end:
    # the adjoints of column c's reduction factors act after the factors
    # of every later column.
    factors: list[TwoLevelGate] = []
    for c in range(n - 2):
        block = u[c:, c:]
        column_factors, _ = reduce_vector(block[:, 0])
        for f in column_factors:
            mix_pairs(f.v, block, *gate_pairs(f))
        corner = complex(block[0, 0])
        if abs(corner - 1.0) > max(RESIDUAL_PHASE_TOL, 10.0 * tol):
            raise ArithmeticError(
                f"column reduction left corner {corner}, expected 1"
            )
        # The reduced corner can carry a tiny residual phase; fold it into
        # the first adjoint applied, so the reconstruction stays exact
        # instead of drifting by the phase per column.
        phase = corner / abs(corner)
        for f in column_factors:
            v = f.v.conj().T
            if f is column_factors[-1]:
                v = v @ np.array([[phase, 0.0], [0.0, 1.0]], dtype=np.complex128)
            factors.append(TwoLevelGate(dim=n, i=c + f.i, j=c + f.j, v=v))
    v = np.array(u[n - 2 :, n - 2 :])
    if not is_unitary(v, 1e-12):
        # Input unitarity slack concentrates in the last block; snap it to
        # the nearest unitary so every emitted factor is one.
        w, _, vh = np.linalg.svd(v)
        v = w @ vh
    factors.append(TwoLevelGate(dim=n, i=n - 1, j=n, v=v))
    factors.reverse()
    return Decomposition(dim=n, factors=tuple(factors))


def reconstruction_residual(d: Decomposition, u) -> float:
    """Relative Frobenius distance between reconstruct(d) and u."""
    u = as_matrix(u)
    return float(np.linalg.norm(reconstruct(d) - u) / np.linalg.norm(u))


# --- serialization ---------------------------------------------------------
#
#   QSIM-FACTORS v1 dim=<ASCII digits, at least 2>
#   TWO-LEVEL <i> <j> <8 floats>        (same line format as circuits)

def format_decomposition(d: Decomposition) -> str:
    lines = [f"QSIM-FACTORS v1 dim={d.dim}"]
    lines.extend(format_gate(f) for f in d.factors)
    return "\n".join(lines) + "\n"


def parse_decomposition(text: str) -> Decomposition:
    dim, lines = _parse_header(text, "FACTORS", "dim", 2)
    factors = tuple(_parse_two_level(ln, dim) for ln in lines)
    return Decomposition(dim=dim, factors=factors)
