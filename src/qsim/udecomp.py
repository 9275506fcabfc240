"""Factoring unitaries into two-level gates.

Any N x N unitary splits into exactly N(N-1)/2 factors, each the identity
except for a 2x2 unitary block on one coordinate pair. The construction
reduces the first column to (1, 0, ..., 0) with N-1 factors mixing
coordinate 1 against coordinates 2..N in turn, then does the same to
each later column of the remaining block, in one loop over columns with
no size limit from recursion. Identity factors are kept so the count is
always exactly N(N-1)/2.

Each column is one array pass: its N-1 Givens blocks come from the
running norms of the column at once (the form of Reck et al., PRL 73, 58
(1994)), and the rows of the remaining block are mixed in one step from
their running sums, not one factor at a time.
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


def _column_blocks(psi: np.ndarray) -> tuple[np.ndarray, ...]:
    """reduce_vector's N-1 blocks in one array pass, and what mixing needs.

    Returns (blocks, coef, r, steps). blocks[k], of shape (N-1, 2, 2), is
    the block of the factor mixing coordinates 1 and k+2. coef is psi with
    the components of psi[1:] at most ZERO_COMPONENT_REL_TOL * norm set to
    zero, and r[k] = ||coef[:k+1]|| the running norm, so factor k leaves
    r[k+1] in coordinate 1. steps lists the factors that are not the
    identity: each nonzero coef[k+1] is eliminated by the Givens block
    [[conj(a), conj(b)], [-b, a]] / r[k+1], with b = coef[k+1] and a =
    r[k] once an earlier step has acted, psi[0] before. A phase on psi[0]
    with nothing to eliminate at factor 0 is rotated away by the same
    block with b = 0, diag(conj(phase), phase), so that coordinate 1 ends
    as the norm itself. Every other block is the identity.
    """
    n = psi.shape[0]
    if n < 2:
        raise ValueError("vector dimension must be at least 2")
    norm = float(np.linalg.norm(psi))
    if norm == 0.0:
        raise ValueError("cannot reduce the zero vector")
    if not np.isfinite(norm):
        raise ValueError("cannot reduce a vector with non-finite components")
    zero_tol = ZERO_COMPONENT_REL_TOL * norm
    # Not np.abs, which can round a complex array's moduli differently:
    # with hypot every running norm is bit-identical to the one-at-a-time
    # recurrence r <- hypot(r, |b|).
    mag = np.hypot(psi.real, psi.imag)
    active = mag[1:] > zero_tol
    coef = psi.copy()
    coef[1:][~active] = 0.0
    mag[1:][~active] = 0.0
    a0 = complex(psi[0])
    if not active[0] and abs(a0 - abs(a0)) > zero_tol:
        active[0] = True
    r = np.hypot.accumulate(mag)
    steps = np.flatnonzero(active)
    blocks = np.tile(_IDENTITY_BLOCK, (n - 1, 1, 1))
    if steps.size:
        a = r[steps].astype(np.complex128)
        a[0] = a0
        b = coef[steps + 1]
        givens = np.stack([a.conj(), b.conj(), -b, a], axis=1)
        # Real and imaginary parts divided apart: numpy's complex division
        # by a real multiplies by its reciprocal instead.
        parts = givens.view(np.float64)
        parts /= r[steps + 1, None]
        blocks[steps] = givens.reshape(-1, 2, 2)
    return blocks, coef, r, steps


def reduce_vector(psi) -> tuple[list[TwoLevelGate], float]:
    """Factors sending psi to (||psi||, 0, ..., 0), plus the norm.

    Exactly N-1 two-level factors are returned; applying them to psi in
    order zeroes coordinates 2..N and leaves the real nonnegative norm in
    coordinate 1. Components already negligible produce identity factors.
    """
    psi = as_vector(psi)
    blocks = _column_blocks(psi)[0]
    n = psi.shape[0]
    factors = [TwoLevelGate(dim=n, i=1, j=k + 2, v=v) for k, v in enumerate(blocks)]
    return factors, float(np.linalg.norm(psi))


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
        x = u[c:, c:]
        blocks, coef, r, steps = _column_blocks(x[:, 0])
        corner = complex(x[0, 0])
        if steps.size:
            # Row 0 after step k is s[k+1] / r[k+1], with s the running
            # sum of conj(coef[l]) * row l, so every step reads its row 0
            # from s at once. The first step reads row 0 itself: s holds
            # conj(psi[0]) * row 0 before it, which is 0 when psi[0] is.
            s = np.cumsum(coef.conj()[:, None] * x, axis=0)
            y = np.empty((steps.size, x.shape[1]), dtype=np.complex128)
            y[0] = x[0]
            y[1:] = s[steps[1:]] / r[steps[1:], None]
            g = blocks[steps]
            rows = x[steps + 1]
            x[steps + 1] = g[:, 1, 0, None] * y + g[:, 1, 1, None] * rows
            # Row 0 itself is never read again; only its corner is checked.
            corner = complex(g[-1, 0, 0] * y[-1, 0] + g[-1, 0, 1] * rows[-1, 0])
        if abs(corner - 1.0) > max(RESIDUAL_PHASE_TOL, 10.0 * tol):
            raise ArithmeticError(
                f"column reduction left corner {corner}, expected 1"
            )
        adjoints = np.ascontiguousarray(blocks.conj().transpose(0, 2, 1))
        # The reduced corner can carry a tiny residual phase; fold it into
        # the first adjoint applied, so the reconstruction stays exact
        # instead of drifting by the phase per column.
        phase = corner / abs(corner)
        adjoints[-1] = adjoints[-1] @ np.array(
            [[phase, 0.0], [0.0, 1.0]], dtype=np.complex128
        )
        factors.extend(
            TwoLevelGate(dim=n, i=c + 1, j=c + k + 2, v=v)
            for k, v in enumerate(adjoints)
        )
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
