"""Tests for the two-level factorization of unitaries.

The central oracles: applying the emitted column factors really zeroes the
tail of the vector, reconstruction multiplies back to the input within
1e-9 relative Frobenius error, and the factor count is exactly
dim(dim-1)/2 with every factor a genuine two-level unitary.
"""

import inspect
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsim.gates import TwoLevelGate, parse_circuit
from qsim.linalg import ParseError
from qsim.linalg import is_unitary
from qsim.udecomp import (
    RECONSTRUCTION_TOL,
    ZERO_COMPONENT_REL_TOL,
    Decomposition,
    decompose_unitary,
    format_decomposition,
    k_embed,
    parse_decomposition,
    reconstruct,
    reconstruction_residual,
    reduce_vector,
)


def random_unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def apply_factors(factors, psi):
    """Independent dense application: multiply full embedded matrices."""
    psi = np.asarray(psi, dtype=complex)
    n = psi.shape[0]
    for f in factors:
        psi = k_embed(n, f.i, f.j, f.v) @ psi
    return psi


# --- embeddings ---------------------------------------------------------------


def test_k_embed_identity_block():
    assert np.array_equal(k_embed(4, 1, 3, np.eye(2)), np.eye(4))


def test_k_embed_swap_pin():
    """A flip block on coordinates (1, 3) swaps those two axes."""
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    m = k_embed(4, 1, 3, flip)
    want = np.eye(4)[[2, 1, 0, 3]]
    assert np.array_equal(m, want.astype(complex))


def test_k_embed_is_multiplicative_in_the_block():
    rng = np.random.default_rng(1)
    u, v = random_unitary(rng, 2), random_unitary(rng, 2)
    lhs = k_embed(5, 2, 4, u) @ k_embed(5, 2, 4, v)
    rhs = k_embed(5, 2, 4, u @ v)
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_down_embed_shifts_two_level_coordinates():
    """Embedding under one leading coordinate moves block (i,j) to (i+1,j+1)."""
    rng = np.random.default_rng(4)
    v = random_unitary(rng, 2)
    big = np.eye(4, dtype=complex)
    big[1:, 1:] = k_embed(3, 1, 2, v)
    assert np.max(np.abs(big - k_embed(4, 2, 3, v))) < 1e-14


# --- vector reduction ------------------------------------------------------------


def test_reduce_vector_on_aligned_input_gives_identity_factors():
    factors, norm = reduce_vector(np.array([2.0, 0.0, 0.0]))
    assert norm == 2.0
    assert len(factors) == 2
    for f in factors:
        assert np.array_equal(f.v, np.eye(2))


def test_reduce_vector_first_factor_top_row():
    """The elimination block's top row is (conj(a), conj(b)) / r."""
    psi = np.array([3.0, 4.0])
    factors, norm = reduce_vector(psi)
    assert norm == 5.0
    f = factors[0]
    assert np.allclose(f.v[0], [0.6, 0.8], atol=1e-15)
    assert np.allclose(f.v[1], [-0.8, 0.6], atol=1e-15)
    out = apply_factors(factors, psi)
    assert abs(out[0] - 5.0) < 1e-14
    assert abs(out[1]) < 1e-14


def test_reduce_vector_leading_zero_block():
    """Zeros ahead of the first nonzero entry must not break elimination."""
    psi = np.array([0.0, 0.0, 0.0, 0.6, 0.8j], dtype=complex)
    factors, norm = reduce_vector(psi)
    assert len(factors) == 4
    assert norm == pytest.approx(1.0)
    out = apply_factors(factors, psi)
    assert abs(out[0] - norm) < 1e-12
    assert np.max(np.abs(out[1:])) < 1e-12


def test_reduce_vector_phase_only_first_entry():
    """A complex phase on an already-reduced vector is rotated away."""
    psi = np.array([1j, 0.0, 0.0], dtype=complex)
    factors, norm = reduce_vector(psi)
    assert norm == pytest.approx(1.0)
    out = apply_factors(factors, psi)
    assert abs(out[0] - 1.0) < 1e-14
    assert np.max(np.abs(out[1:])) < 1e-14


def test_reduce_vector_count_and_tail_random():
    rng = np.random.default_rng(5)
    for trial in range(1000):
        n = int(rng.integers(2, 17))
        psi = rng.normal(size=n) + 1j * rng.normal(size=n)
        if trial % 3 == 0:
            # Constructed leading-zero blocks exercise the identity branch.
            k = int(rng.integers(1, n))
            psi[:k] = 0.0
        factors, norm = reduce_vector(psi)
        assert len(factors) == n - 1
        assert norm == pytest.approx(float(np.linalg.norm(psi)))
        out = apply_factors(factors, psi)
        assert abs(out[0] - norm) < 1e-10, trial
        assert np.max(np.abs(out[1:])) < 1e-10, trial
        for f in factors:
            assert f.i == 1
            assert is_unitary(f.v, 1e-10)


def test_reduce_vector_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        reduce_vector(np.zeros(4))
    with pytest.raises(ValueError, match="^vector dimension must be at least 2, got 1$"):
        reduce_vector(np.array([1.0]))


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_reduce_vector_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    factors, norm = reduce_vector(psi)
    out = apply_factors(factors, psi)
    assert abs(out[0] - norm) < 1e-10
    assert np.max(np.abs(out[1:])) < 1e-10


# --- full decomposition -------------------------------------------------------------


def test_identity_decomposes_into_identity_factors():
    d = decompose_unitary(np.eye(4))
    assert d.dim == 4
    assert len(d.factors) == 6
    for f in d.factors:
        assert np.array_equal(f.v, np.eye(2))
    assert reconstruction_residual(d, np.eye(4)) == 0.0
    # A row or a column of the input would broadcast against the product,
    # and the zero matrix has no relative distance.
    for bad, message in ((np.eye(4)[:1], r"expected a 4x4 matrix, got \(1, 4\)"),
                         (np.eye(4)[:, :1], r"expected a 4x4 matrix, got \(4, 1\)"),
                         (np.eye(3), r"expected a 4x4 matrix, got \(3, 3\)"),
                         (np.zeros((4, 4)), "expected a nonzero matrix, got the zero matrix")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            reconstruction_residual(d, bad)


def test_two_dimensional_base_case_is_the_input():
    rng = np.random.default_rng(6)
    u = random_unitary(rng, 2)
    d = decompose_unitary(u)
    assert len(d.factors) == 1
    f = d.factors[0]
    assert (f.i, f.j) == (1, 2)
    assert np.max(np.abs(f.v - u)) < 1e-12


def test_factor_count_formula():
    rng = np.random.default_rng(7)
    for n in range(2, 17):
        d = decompose_unitary(random_unitary(rng, n))
        assert len(d.factors) == n * (n - 1) // 2, n


def test_decomposition_round_trip():
    rng = np.random.default_rng(8)
    for n in (2, 3, 4, 5, 8, 12, 16):
        u = random_unitary(rng, n)
        d = decompose_unitary(u)
        assert reconstruction_residual(d, u) <= 1e-9, n
        # reconstruct() agrees with dense multiplication of embedded factors.
        dense = np.eye(n, dtype=complex)
        for f in d.factors:
            dense = k_embed(n, f.i, f.j, f.v) @ dense
        assert np.max(np.abs(dense - reconstruct(d))) < 1e-12


def test_every_factor_is_a_two_level_unitary():
    rng = np.random.default_rng(9)
    u = random_unitary(rng, 6)
    d = decompose_unitary(u)
    for f in d.factors:
        assert 1 <= f.i < f.j <= 6
        assert is_unitary(f.v, 1e-10)
        # Away from rows/cols i, j the embedded matrix is exactly identity.
        m = k_embed(6, f.i, f.j, f.v)
        mask = np.ones((6, 6), dtype=bool)
        for r in (f.i - 1, f.j - 1):
            mask[r, :] = False
            mask[:, r] = False
        assert np.max(np.abs(m[mask] - np.eye(6)[mask])) < 1e-14


def test_decompose_special_structures():
    """Permutations and diagonal phase matrices round-trip too."""
    perm = np.eye(5)[[4, 2, 0, 1, 3]].astype(complex)
    d = decompose_unitary(perm)
    assert reconstruction_residual(d, perm) < 1e-12
    phases = np.diag(np.exp(1j * np.array([0.3, -1.2, 2.7, 0.0])))
    d = decompose_unitary(phases)
    assert reconstruction_residual(d, phases) < 1e-12


def test_decompose_rejects_bad_inputs():
    with pytest.raises(ValueError):
        decompose_unitary(np.ones((3, 3)))
    with pytest.raises(ValueError):
        decompose_unitary(np.eye(1))
    with pytest.raises(ValueError):
        decompose_unitary(np.zeros((2, 3)))
    # Not unitary, so rejected before any factoring: there is no
    # factorization to return.
    with pytest.raises(ValueError, match="not unitary"):
        decompose_unitary(np.diag([2.0, 1.0]))


def perturbed_unitary(rng, n, scale):
    """A Haar unitary plus a random perturbation whose unitarity defect
    ||U*U - I|| is scale times the input bound sqrt(N) * RECONSTRUCTION_TOL."""
    u = random_unitary(rng, n)
    e = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    e *= 1e-9 / np.linalg.norm(e)

    def defect(m):
        return float(np.linalg.norm(m.conj().T @ m - np.eye(n)))

    # The defect is linear in e to first order; one rescale lands on target.
    bound = math.sqrt(n) * RECONSTRUCTION_TOL
    noisy = u + e * (scale * bound / defect(u + e))
    assert abs(defect(noisy) / bound - scale) < 0.002
    return noisy


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16, 32, 64, 128])
def test_decomposition_contract_at_the_input_bound(n):
    """One tolerance: input within 0.99x the bound factors into N(N-1)/2
    unitary factors within RECONSTRUCTION_TOL; at 1.01x it is rejected."""
    rng = np.random.default_rng(1000 + n)
    noisy = perturbed_unitary(rng, n, 0.99)
    d = decompose_unitary(noisy)
    assert len(d.factors) == n * (n - 1) // 2
    assert reconstruction_residual(d, noisy) <= RECONSTRUCTION_TOL
    for f in d.factors:
        assert is_unitary(f.v, 1e-10)
    with pytest.raises(ValueError, match="not unitary"):
        decompose_unitary(perturbed_unitary(rng, n, 1.01))


def test_decomposition_depth_does_not_grow_with_dimension():
    """120 columns under a call-stack allowance of 60 frames: one loop over
    columns needs no frame per column."""
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        d = decompose_unitary(np.eye(120))
    finally:
        sys.setrecursionlimit(old_limit)
    assert len(d.factors) == 120 * 119 // 2
    assert reconstruction_residual(d, np.eye(120)) == 0.0


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_factors_are_the_elimination_steps_of_the_adjoint(seed):
    """The first N-1 factors alone send U*'s first column to e_1, and the
    factors run column by column: d.i is nondecreasing."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 17))
    u = random_unitary(rng, n)
    d = decompose_unitary(u)
    first = Decomposition(n, d.i[: n - 1], d.j[: n - 1], d.blocks[: n - 1])
    e1 = np.eye(n)[0]
    assert np.max(np.abs(reconstruct(first) @ u.conj().T[:, 0] - e1)) <= 1e-13
    assert np.all(np.diff(d.i) >= 0)


@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_decomposition_round_trip_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 10))
    u = random_unitary(rng, n)
    d = decompose_unitary(u)
    assert len(d.factors) == n * (n - 1) // 2
    assert reconstruction_residual(d, u) <= 1e-9


# --- the array column against the sequential reference -------------------------------
#
# The reference takes one factor at a time: the scalar recurrence for the
# blocks of a column, then one two-row mix per factor.


def reference_blocks(psi):
    """The blocks reducing psi, one component at a time."""
    psi = np.asarray(psi, dtype=complex)
    zero_tol = ZERO_COMPONENT_REL_TOL * float(np.linalg.norm(psi))
    a = complex(psi[0])
    blocks = []
    for j in range(1, len(psi)):
        b = complex(psi[j])
        if abs(b) <= zero_tol:
            v = np.eye(2, dtype=complex)
            if j == 1 and abs(a - abs(a)) > zero_tol:
                phase = a / abs(a)
                v = np.diag([phase.conjugate(), phase])
                a = complex(abs(a))
        else:
            r = math.hypot(abs(a), abs(b))
            v = np.array([[a.conjugate() / r, b.conjugate() / r], [-b / r, a / r]])
            a = complex(r)
        blocks.append(v)
    return blocks


def reference_decompose(u):
    """(i, j, block) of each factor in application order: the steps that
    eliminate U*, one mix per factor."""
    w = np.array(u, dtype=complex).conj().T
    n = w.shape[0]
    factors = []
    for c in range(n - 1):
        x = w[c:, c:]
        blocks = reference_blocks(x[:, 0])
        for k, v in enumerate(blocks):
            top, row = x[0].copy(), x[k + 1].copy()
            x[0] = v[0, 0] * top + v[0, 1] * row
            x[k + 1] = v[1, 0] * top + v[1, 1] * row
        blocks[-1][0] *= x[0, 0].conjugate() / abs(x[0, 0])
        factors += [(c + 1, c + k + 2, v) for k, v in enumerate(blocks)]
    factors[-1][2][1] *= w[-1, -1].conjugate() / abs(w[-1, -1])
    return factors


def assert_matches_reference(u, tol):
    got = decompose_unitary(u).factors
    want = reference_decompose(u)
    assert [(f.i, f.j) for f in got] == [(i, j) for i, j, _ in want]
    for f, (_, _, v) in zip(got, want):
        assert np.max(np.abs(f.v - v)) <= tol, (f.i, f.j)
        if np.max(np.abs(v - np.eye(2))) <= 1e-15:
            assert np.array_equal(f.v, np.eye(2)), (f.i, f.j)


def test_column_blocks_match_the_scalar_recurrence():
    rng = np.random.default_rng(12)
    for n in range(2, 65):
        psi = rng.normal(size=n) + 1j * rng.normal(size=n)
        factors, _ = reduce_vector(psi)
        for f, v in zip(factors, reference_blocks(psi), strict=True):
            assert np.max(np.abs(f.v - v)) <= 1e-13, n


def test_decomposition_matches_the_sequential_reference():
    rng = np.random.default_rng(13)
    for n in range(2, 65):
        assert_matches_reference(random_unitary(rng, n), 1e-13)


def test_zero_component_branch_matches_the_reference():
    """Components just below and just above the negligible threshold,
    leading zeros, and a vector already on the last axis."""
    norm = math.sqrt(1.25)
    edge = ZERO_COMPONENT_REL_TOL * norm
    cases = [
        ([1.0, 0.999 * edge, 0.5j], "identity"),
        ([1.0, 1.001 * edge, 0.5j], "givens"),
        ([0.5j, 1.0, 0.999 * edge], "identity"),
        ([0.5j, 1.0, 1.001 * edge], "givens"),
    ]
    for psi, branch in cases:
        assert float(np.linalg.norm(psi)) == norm
        factors, _ = reduce_vector(psi)
        want = reference_blocks(psi)
        small = factors[1] if psi[1] == 1.0 else factors[0]
        assert np.array_equal(small.v, np.eye(2)) == (branch == "identity")
        for f, v in zip(factors, want, strict=True):
            assert np.max(np.abs(f.v - v)) <= 1e-13
    # A negligible component ahead of the first one eliminated must not
    # enter its norm.
    tiny = ZERO_COMPONENT_REL_TOL
    leading = [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.6, 0.8j], [0.0, 1e-300, 1j]]
    for psi in leading + [[0.0, 0.5 * tiny, 3.0 * tiny, 1.0]]:
        factors, _ = reduce_vector(psi)
        for f, v in zip(factors, reference_blocks(psi), strict=True):
            assert np.max(np.abs(f.v - v)) <= 1e-13
    factors, _ = reduce_vector([0.0, 0.0, 1.0])
    assert np.array_equal(factors[0].v, np.eye(2))
    assert np.array_equal(factors[1].v, [[0, 1], [-1, 0]])
    # Columns with negligible components inside a whole decomposition.
    u = np.eye(4, dtype=complex)
    u[:2, :2] = [[1.0, 0.5 * edge], [-0.5 * edge, 1.0]]
    u[:2, :2] /= math.hypot(1.0, 0.5 * edge)
    assert_matches_reference(u, 1e-13)


def test_phase_branch_matches_the_reference():
    """diag(i, 1, 1): nothing to eliminate in column 1 but its phase."""
    u = np.diag([1j, 1.0, 1.0])
    factors, _ = reduce_vector(u[:, 0])
    assert np.array_equal(factors[0].v, np.diag([-1j, 1j]))
    assert np.array_equal(factors[1].v, np.eye(2))
    assert_matches_reference(u, 0.0)
    assert reconstruction_residual(decompose_unitary(u), u) == 0.0


@pytest.mark.parametrize(
    "u",
    [
        np.eye(7),
        np.eye(6)[[3, 0, 5, 1, 2, 4]],
        np.eye(5)[[4, 2, 0, 1, 3]] * np.exp(1j * np.arange(5)),
        np.diag(np.exp(1j * np.array([0.3, -1.2, 2.7, 0.0, 1.0]))),
        np.diag([1, 1j, -1, np.exp(0.3j)]),  # the last block takes off the determinant
    ],
    ids=["identity", "permutation", "phased-permutation", "diagonal-phase", "unit-phases"],
)
def test_structured_inputs_keep_exact_identity_factors(u):
    n = u.shape[0]
    d = decompose_unitary(u)
    assert len(d.factors) == n * (n - 1) // 2
    assert_matches_reference(u, 1e-13)
    assert reconstruction_residual(d, u) < 1e-15


def test_reduce_vector_rejects_non_finite_components():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            reduce_vector([1.0, bad, 0.0])



# --- the block table against the column-by-column arrays it replaced ---------------
#
# The reference builds each column's blocks in an array of their own,
# gathers and scatters the rows of its non-identity factors by index and
# concatenates the columns at the end. The block table and the masked row
# step must give the same bytes, signed zeros included.


def column_run_blocks(psi):
    """(blocks, coef, r, steps) of one column, in arrays of its own."""
    n = psi.shape[0]
    norm = float(np.linalg.norm(psi))
    zero_tol = ZERO_COMPONENT_REL_TOL * norm
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
    blocks = np.tile(np.eye(2, dtype=np.complex128), (n - 1, 1, 1))
    if steps.size:
        a = r[steps].astype(np.complex128)
        a[0] = a0
        b = coef[steps + 1]
        givens = np.stack([a.conj(), b.conj(), -b, a], axis=1)
        parts = givens.view(np.float64)
        parts /= r[steps + 1, None]
        blocks[steps] = givens.reshape(-1, 2, 2)
    return blocks, coef, r, steps


def column_run_decompose(u):
    """(i, j, blocks) of decompose_unitary, one run of arrays per column."""
    w = np.array(u, dtype=np.complex128).conj().T.copy()
    n = w.shape[0]
    runs = []
    for c in range(n - 1):
        x = w[c:, c:]
        blocks, coef, r, steps = column_run_blocks(x[:, 0])
        corner = complex(x[0, 0])
        if steps.size:
            s = np.cumsum(coef.conj()[:, None] * x, axis=0)
            y = np.empty((steps.size, x.shape[1]), dtype=np.complex128)
            y[0] = x[0]
            y[1:] = s[steps[1:]] / r[steps[1:], None]
            g = blocks[steps]
            rows = x[steps + 1]
            x[steps + 1] = g[:, 1, 0, None] * y + g[:, 1, 1, None] * rows
            corner = complex(g[-1, 0, 0] * y[-1, 0] + g[-1, 0, 1] * rows[-1, 0])
        blocks[-1, 0] *= corner.conjugate() / abs(corner)
        runs.append((np.full(n - c - 1, c + 1), np.arange(c + 2, n + 1), blocks))
    corner = complex(w[-1, -1])
    blocks[-1, 1] *= corner.conjugate() / abs(corner)
    return tuple(np.concatenate(column) for column in zip(*runs))


def assert_same_bytes_as_the_column_runs(u):
    d = decompose_unitary(u)
    i, j, blocks = column_run_decompose(u)
    assert np.array_equal(d.i, i) and np.array_equal(d.j, j)
    assert d.blocks.tobytes() == blocks.tobytes()


def embedded_block(rng, n):
    """A Haar block on a few coordinates of a permuted identity."""
    k = int(rng.integers(2, n + 1))
    u = np.eye(n, dtype=complex)
    at = rng.choice(n, size=k, replace=False)
    u[np.ix_(at, at)] = random_unitary(rng, k)
    return u[rng.permutation(n)]


def test_block_table_gives_the_bytes_of_the_column_runs_on_haar_unitaries():
    rng = np.random.default_rng(31)
    for n in [*range(2, 65), 128]:
        assert_same_bytes_as_the_column_runs(random_unitary(rng, n))


def test_block_table_gives_the_bytes_of_the_column_runs_on_structured_unitaries():
    rng = np.random.default_rng(32)
    for n in (2, 3, 4, 5, 8, 13, 32):
        phases = np.exp(2j * np.pi * rng.random(n))
        for u in (np.eye(n)[rng.permutation(n)] * phases,  # a permutation with phases
                  np.diag(phases), np.diag(np.sign(rng.normal(size=n))),  # diagonals
                  embedded_block(rng, n), embedded_block(rng, n)):
            assert_same_bytes_as_the_column_runs(u)


def test_block_table_gives_the_bytes_of_the_column_runs_near_the_zero_threshold():
    """reduce_vector on the vectors of test_zero_component_branch_matches_the_reference,
    and decompose_unitary on unitaries with such a first column."""
    edge = ZERO_COMPONENT_REL_TOL * math.sqrt(1.25)
    tiny = ZERO_COMPONENT_REL_TOL
    vectors = [
        [1.0, 0.999 * edge, 0.5j], [1.0, 1.001 * edge, 0.5j],
        [0.5j, 1.0, 0.999 * edge], [0.5j, 1.0, 1.001 * edge],
        [0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.6, 0.8j], [0.0, 1e-300, 1j],
        [0.0, 0.5 * tiny, 3.0 * tiny, 1.0], [1j, 0.0, 0.0], [-1.0, 0.0, -0.0],
    ]
    for psi in vectors:
        psi = np.asarray(psi, dtype=complex)
        factors, _ = reduce_vector(psi)
        got = np.array([f.v for f in factors])
        assert got.tobytes() == column_run_blocks(psi)[0].tobytes(), psi
        # The unitary whose adjoint has psi / ||psi|| as its first column.
        q = np.linalg.qr(np.column_stack([psi / np.linalg.norm(psi), np.eye(len(psi))[:, 1:]]))[0]
        q[:, 0] = psi / np.linalg.norm(psi)
        assert_same_bytes_as_the_column_runs(q.conj().T)


# --- serialization --------------------------------------------------------------------


def test_factor_file_round_trip():
    rng = np.random.default_rng(11)
    u = random_unitary(rng, 5)
    d = decompose_unitary(u)
    text = format_decomposition(d)
    assert text.startswith("QSIM-FACTORS v1 dim=5\n")
    back = parse_decomposition(text)
    assert back.dim == 5
    assert len(back.factors) == len(d.factors)
    for orig, parsed in zip(d.factors, back.factors):
        assert (orig.i, orig.j) == (parsed.i, parsed.j)
        assert np.array_equal(orig.v, parsed.v)
    assert reconstruction_residual(back, u) <= 1e-9


def test_factor_file_parse_errors():
    with pytest.raises(ParseError):
        parse_decomposition("")
    with pytest.raises(ParseError):
        parse_decomposition("QSIM-FACTORS v1 dim=x\n")
    with pytest.raises(ParseError):
        parse_decomposition("QSIM-FACTORS v1 dim=4\nWIRE 1 1 0 0 0 0 0 1 0\n")
    with pytest.raises(ParseError):
        parse_decomposition("QSIM-FACTORS v1 dim=4\nTWO-LEVEL 1 2 1 0\n")
    # Every line parse_circuit rejects with ParseError, and a
    # dimension with no two-level gates.
    for line in (
        "TWO-LEVEL 1 2 1 0 1 0 1 0 1 0",  # not unitary
        "TWO-LEVEL 1 2 1e200 0 0 0 0 0 1 0",  # its square overflows
        "TWO-LEVEL 2 1 1 0 0 0 0 0 1 0",  # i > j
        "TWO-LEVEL 1 3 1 0 0 0 0 0 1 0",  # j > dim
        # i and j are ASCII digits only, as in the header.
        "TWO-LEVEL +1 2 1 0 0 0 0 0 1 0",
        "TWO-LEVEL 1 0_2 1 0 0 0 0 0 1 0",
        "TWO-LEVEL \u0661 2 1 0 0 0 0 0 1 0",
    ):
        with pytest.raises(ParseError):
            parse_decomposition(f"QSIM-FACTORS v1 dim=2\n{line}\n")
        with pytest.raises(ParseError):
            parse_circuit(f"QSIM-CIRCUIT v2 n=1\n{line}\n")
    # dim is ASCII digits only, at least 2 (U+0663 is ARABIC-INDIC DIGIT THREE).
    for dim in ("0", "1", "-4", "1_0", " 4", "+4", "\u0663"):
        with pytest.raises(ParseError):
            parse_decomposition(f"QSIM-FACTORS v1 dim={dim}\n")


def test_factor_file_block_rejects_non_ascii_digits_and_separators():
    # float() reads "1_0e-1" as 1.0, U+0661 as 1 and strips the tab from
    # "1\t"; none of them is written.
    for entry in ("1_0e-1", "\u0661", "1\t", "\t1"):
        line = f"TWO-LEVEL 1 2 {entry} 0 0 0 0 0 1 0"
        with pytest.raises(ParseError, match="non-ASCII text or '_'"):
            parse_decomposition(f"QSIM-FACTORS v1 dim=2\n{line}\n")


def test_factor_record_is_shared_with_the_gate_type():
    """A factor read from a Decomposition is a TwoLevelGate with the same
    fields as its columns; TWO-LEVEL lines belong to factor files only."""
    dec = decompose_unitary(random_unitary(np.random.default_rng(5), 4))
    assert all(type(f) is TwoLevelGate for f in dec.factors)
    assert [(f.i, f.j) for f in dec.factors] == list(zip(dec.i.tolist(), dec.j.tolist()))
    assert all(np.array_equal(f.v, v) for f, v in zip(dec.factors, dec.blocks, strict=True))
    factor_lines = format_decomposition(dec).splitlines()[1:]
    assert all(line.startswith("TWO-LEVEL ") for line in factor_lines)
    for line in factor_lines:
        with pytest.raises(ParseError, match="unknown kind"):
            parse_circuit(f"QSIM-CIRCUIT v2 n=2\n{line}\n")


def test_reconstruct_validates_dimensions():
    eye = np.eye(2)[None]
    with pytest.raises(ValueError, match=r"^j must be at most 4, got 5$"):
        reconstruct(Decomposition(4, [1], [5], eye))
    with pytest.raises(ValueError, match="^dim must be at least 2, got 1$"):
        reconstruct(Decomposition(1, np.array([], int), np.array([], int), eye[:0]))
    with pytest.raises(ValueError, match="^gate columns differ in length$"):
        Decomposition(4, [1, 2], [2, 3], eye)
