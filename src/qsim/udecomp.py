"""Factoring unitaries into two-level gates.

Any N x N unitary splits into exactly N(N-1)/2 factors, each the identity
except for a 2x2 unitary block on one coordinate pair. The construction
eliminates U*, not U: it reduces the first column of U* to (1, 0, ..., 0)
with N-1 factors mixing coordinate 1 against coordinates 2..N in turn,
then does the same to each later column of the remaining block, all N-1
columns in one loop with no size limit from recursion. Each column's
leftover corner phase goes into the top row of its last block, and the
last row's corner, the determinant's phase, into the bottom row of the
final block. Then G_m ... G_1 U* = I, so U = G_m ... G_1: the elimination
steps are the factors, in application order. Identity factors are kept
so the count is always exactly N(N-1)/2.

One tolerance, RECONSTRUCTION_TOL, bounds the relative Frobenius residual
and, measured the same way, the input: u is accepted only when
is_unitary(u, sqrt(N) * RECONSTRUCTION_TOL); each column's corner must lie
within that bound of 1, and the last row's corner within it of modulus 1.

Each column is one array pass over its slice of one table of identity
blocks: its Givens blocks come from the running norms of the column at
once (the form of Reck et al., PRL 73, 58 (1994)), and every row of the
remaining block is mixed in one step from the running sums of the rows.
"""

from __future__ import annotations

import numpy as np

# Re-exported: the factor list, its dense oracle and its text live in gates.
from .gates import (
    Decomposition,
    TwoLevelGate,
    format_decomposition,
    k_embed,
    parse_decomposition,
    reconstruct,
)
from .linalg import as_count, as_numbers, is_unitary

# A component counts as zero for branch selection below this fraction of
# the vector norm; identity factors are emitted instead of dividing by it.
ZERO_COMPONENT_REL_TOL = 1e-13
# Largest relative Frobenius residual of a correct factorization, and of
# the input's unitarity defect (module docstring).
RECONSTRUCTION_TOL = 1e-9


def _column_blocks(psi: np.ndarray, blocks: np.ndarray) -> tuple[np.ndarray, ...]:
    """Write reduce_vector's N-1 blocks into blocks, identities on entry:
    blocks[k] is the block of the factor mixing coordinates 1 and k+2.

    Returns (coef, r, active, first). coef is psi with the components of
    psi[1:] at most ZERO_COMPONENT_REL_TOL * norm set to zero, r[k] =
    ||coef[:k+1]|| the running norm, so factor k leaves r[k+1] in coordinate
    1, active marks the factors that are not the identity, and first is the
    first of them, or 0. Each nonzero coef[k+1] is eliminated by the Givens
    block [[conj(a), conj(b)], [-b, a]] / r[k+1], with b = coef[k+1] and
    a = r[k], psi[0] at factor first. A phase on psi[0] with nothing to
    eliminate at factor 0 is rotated away by the same block with b = 0,
    diag(conj(phase), phase), so that coordinate 1 ends as the norm itself.
    """
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
    # From factor first on every r[k+1] is positive, so the blocks are built
    # there alone, and written where a factor acts: the others keep the
    # identity's signed zeros.
    first = int(active.argmax())
    a = r[first:-1].astype(np.complex128)
    a[0] = a0
    b = coef[first + 1:]
    givens = np.empty((len(b), 2, 2), dtype=np.complex128)
    givens[:, 0, 0], givens[:, 0, 1], givens[:, 1, 0], givens[:, 1, 1] = a.conj(), b.conj(), -b, a
    # Real and imaginary parts divided apart: numpy's complex division
    # by a real multiplies by its reciprocal instead.
    parts = givens.view(np.float64)
    parts /= r[first + 1:, None, None]
    np.copyto(blocks[first:], givens, where=active[first:, None, None])
    return coef, r, active, first


def reduce_vector(psi) -> tuple[list[TwoLevelGate], float]:
    """Factors sending psi to (||psi||, 0, ..., 0), plus the norm.

    Exactly N-1 two-level factors are returned; applying them to psi in
    order zeroes coordinates 2..N and leaves the real nonnegative norm in
    coordinate 1. Components already negligible produce identity factors.
    """
    psi = as_numbers("psi", psi, np.complex128, 1)
    n = as_count("vector dimension", psi.shape[0], 2)
    blocks = np.tile(np.eye(2, dtype=np.complex128), (n - 1, 1, 1))
    _column_blocks(psi, blocks)
    factors = Decomposition(n, [1] * (n - 1), range(2, n + 1), blocks).factors
    return list(factors), float(np.linalg.norm(psi))


def decompose_unitary(u) -> Decomposition:
    """Split a unitary into exactly N(N-1)/2 ordered two-level factors:
    the steps eliminating U*, in application order (1,2), ..., (1,N), (2,3), ....

    u must satisfy ||U*U - I|| / ||I|| <= RECONSTRUCTION_TOL, or ValueError
    is raised before any factoring; the factors then reproduce u within
    RECONSTRUCTION_TOL relative Frobenius error.
    """
    u = as_numbers("u", u, np.complex128, 2)
    n = u.shape[0]
    if u.shape[0] != u.shape[1] or n < 2:
        raise ValueError(f"expected a square matrix of dim >= 2, got {u.shape}")
    bound = np.sqrt(n) * RECONSTRUCTION_TOL
    if not is_unitary(u, bound):
        raise ValueError(f"input is not unitary: ||U*U - I|| exceeds {bound:.3g}")
    w = u.conj().T.copy()
    # Column c's factors are the slice [start, end) of one table, in order.
    i, j = np.triu_indices(n, 1)
    blocks = np.tile(np.eye(2, dtype=np.complex128), (len(i), 1, 1))
    end = 0
    for c in range(n - 1):
        x = w[c:, c:]
        start, end = end, end + n - c - 1
        coef, r, active, first = _column_blocks(x[:, 0], blocks[start:end])
        g, rows, acts = blocks[start + first:end], x[first + 1:], active[first:]
        # Row 0 after factor k is s[k+1] / r[k+1], with s the running sum of
        # conj(coef[l]) * row l, so every factor reads its row 0 from s at
        # once. Factor first reads row 0 itself, which no factor has touched.
        s = np.cumsum(coef.conj()[:, None] * x, axis=0)
        y = np.empty_like(rows)
        y[0] = x[0]
        np.divide(s[first + 1:-1], r[first + 1:-1, None], out=y[1:])
        # Row 0 is never written; only its corner after the last factor is checked.
        last = len(acts) - 1 - int(acts[::-1].argmax())
        corner = complex(g[last, 0, 0] * y[last, 0] + g[last, 0, 1] * rows[last, 0]
                         if acts[last] else x[0, 0])
        np.copyto(rows, g[:, 1, 0, None] * y + g[:, 1, 1, None] * rows, where=acts[:, None])
        if abs(corner - 1.0) > bound:
            raise ArithmeticError(f"column reduction left corner {corner}, expected 1")
        # The last block's top row takes off the corner's tiny residual phase,
        # so the product stays exact instead of drifting by it per column.
        blocks[end - 1, 0] *= corner.conjugate() / abs(corner)
    # The last row's corner is the determinant's phase; the final block's
    # bottom row takes it off the same way.
    corner = complex(w[-1, -1])
    if abs(abs(corner) - 1.0) > bound:
        raise ArithmeticError(f"reduction left last corner {corner}, expected modulus 1")
    blocks[-1, 1] *= corner.conjugate() / abs(corner)
    return Decomposition(n, i + 1, j + 1, blocks)


def reconstruction_residual(d: Decomposition, u) -> float:
    """Relative Frobenius distance between reconstruct(d) and u, a nonzero d.dim x d.dim matrix."""
    u = as_numbers("u", u, np.complex128, 2)
    if u.shape != (d.dim, d.dim):
        raise ValueError(f"expected a {d.dim}x{d.dim} matrix, got {u.shape}")
    if not (norm := np.linalg.norm(u)):
        raise ValueError("expected a nonzero matrix, got the zero matrix")
    return float(np.linalg.norm(reconstruct(d) - u) / norm)
