"""Factoring unitaries into two-level gates.

Any N x N unitary splits into exactly N(N-1)/2 factors, each the identity
except for a 2x2 unitary block on one coordinate pair. The construction
reduces the first column to (1, 0, ..., 0) with N-1 factors mixing
coordinate 1 against coordinates 2..N in turn, then recurses on the
remaining (N-1)-block. Identity factors are kept so the count is always
exactly N(N-1)/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gates import TwoLevelGate, gate_pairs, mix_pairs, realize_gate
from .linalg import as_matrix, as_vector, identity, is_unitary

# A component counts as zero for branch selection below this fraction of
# the vector norm; identity factors are emitted instead of dividing by it.
ZERO_COMPONENT_REL_TOL = 1e-13
RESIDUAL_PHASE_TOL = 1e-9

# The factor record is structurally the circuit gate, shared so both sides
# read and write the same TWO-LEVEL serialization.
TwoLevelFactor = TwoLevelGate

_IDENTITY_BLOCK = np.eye(2, dtype=np.complex128)


def k_embed(nn: int, i: int, j: int, v) -> np.ndarray:
    """Identity of size nn with v as the 2x2 block on coordinates i < j."""
    g = TwoLevelGate(dim=nn, i=i, j=j, v=v)
    return realize_gate(g)


def up_embed(u) -> np.ndarray:
    """Block-extend a unitary with a trailing fixed coordinate: [[U, 0], [0, 1]]."""
    u = as_matrix(u)
    if not is_unitary(u):
        raise ValueError("up_embed input is not unitary within tolerance")
    n = u.shape[0]
    out = identity(n + 1)
    out[:n, :n] = u
    return out


def down_embed(u) -> np.ndarray:
    """Block-extend a unitary with a leading fixed coordinate: [[1, 0], [0, U]]."""
    u = as_matrix(u)
    if not is_unitary(u):
        raise ValueError("down_embed input is not unitary within tolerance")
    n = u.shape[0]
    out = identity(n + 1)
    out[1:, 1:] = u
    return out


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
    out = identity(d.dim)
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

    Reconstructing the factors reproduces the input within 1e-9 relative
    Frobenius error for well-conditioned unitary input.
    """
    u = as_matrix(u)
    n = u.shape[0]
    if u.shape[0] != u.shape[1] or n < 2:
        raise ValueError(f"expected a square matrix of dim >= 2, got {u.shape}")
    if not is_unitary(u, tol):
        raise ValueError("input is not unitary within tolerance")
    return Decomposition(dim=n, factors=tuple(_decompose(u.copy(), n, tol)))


def _decompose(u: np.ndarray, ambient: int, tol: float) -> list[TwoLevelGate]:
    """Recursive core; u is consumed. Factors come back in application order
    with indices already lifted to the ambient dimension."""
    n = u.shape[0]
    offset = ambient - n  # nesting depth: sub-coordinate 1 is ambient 1+offset
    if n == 2:
        v = np.array(u)
        if not is_unitary(v, 1e-12):
            # Input unitarity slack concentrates in the last block; snap it
            # to the nearest unitary so every emitted factor is one.
            w, _, vh = np.linalg.svd(v)
            v = w @ vh
        return [TwoLevelGate(dim=ambient, i=offset + 1, j=offset + 2, v=v)]
    column_factors, _ = reduce_vector(u[:, 0])
    for f in column_factors:
        mix_pairs(f.v, u, *gate_pairs(f))
    corner = complex(u[0, 0])
    if abs(corner - 1.0) > max(RESIDUAL_PHASE_TOL, 10.0 * tol):
        raise ArithmeticError(
            f"column reduction left corner {corner}, expected 1"
        )
    # The reduced corner can carry a tiny residual phase; fold it into the
    # first factor applied after the recursion block so the reconstruction
    # stays exact instead of drifting by the phase per level.
    phase = corner / abs(corner)
    inner = _decompose(u[1:, 1:], ambient, tol)
    lifted: list[TwoLevelGate] = inner
    for idx, f in enumerate(reversed(column_factors)):
        v = f.v.conj().T
        if idx == 0:
            v = v @ np.array(
                [[phase, 0.0], [0.0, 1.0]], dtype=np.complex128
            )
        lifted.append(
            TwoLevelGate(dim=ambient, i=offset + f.i, j=offset + f.j, v=v)
        )
    return lifted


def reconstruction_residual(d: Decomposition, u) -> float:
    """Relative Frobenius distance between reconstruct(d) and u."""
    u = as_matrix(u)
    return float(np.linalg.norm(reconstruct(d) - u) / np.linalg.norm(u))


# --- serialization ---------------------------------------------------------
#
#   QSIM-FACTORS v1 dim=<int>
#   TWO-LEVEL <i> <j> <8 floats>        (same line format as circuits)

def format_decomposition(d: Decomposition) -> str:
    from .gates import format_gate

    lines = [f"QSIM-FACTORS v1 dim={d.dim}"]
    lines.extend(format_gate(f) for f in d.factors)
    return "\n".join(lines) + "\n"


def parse_decomposition(text: str) -> Decomposition:
    from .gates import CircuitParseError, _parse_block

    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if not lines or not lines[0].startswith("QSIM-FACTORS v1 dim="):
        raise CircuitParseError("missing factor-file header")
    try:
        dim = int(lines[0].split("dim=", 1)[1])
    except ValueError as exc:
        raise CircuitParseError(f"bad factor header {lines[0]!r}") from exc
    factors = []
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] != "TWO-LEVEL" or len(parts) != 11:
            raise CircuitParseError(f"bad factor line {ln!r}")
        try:
            i, j = int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise CircuitParseError(f"bad factor line {ln!r}") from exc
        factors.append(TwoLevelGate(dim=dim, i=i, j=j, v=_parse_block(parts[3:])))
    return Decomposition(dim=dim, factors=tuple(factors))
