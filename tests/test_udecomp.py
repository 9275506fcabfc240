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

from qsim.gates import (
    Circuit,
    CircuitParseError,
    TwoLevelGate,
    format_circuit,
    parse_circuit,
)
from qsim.linalg import is_unitary
from qsim.udecomp import (
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
    with pytest.raises(ValueError):
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


def test_decompose_accepts_slightly_perturbed_unitary_with_loose_tol():
    rng = np.random.default_rng(10)
    u = random_unitary(rng, 4)
    noisy = u + 1e-9 * rng.normal(size=(4, 4))
    with pytest.raises(ValueError):
        decompose_unitary(noisy, tol=1e-12)
    d = decompose_unitary(noisy, tol=1e-6)
    assert reconstruction_residual(d, noisy) < 1e-6
    for f in d.factors:
        assert is_unitary(f.v, 1e-10)


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
    """(i, j, block) of each factor in application order, one mix per factor."""
    u = np.array(u, dtype=complex)
    n = u.shape[0]
    factors = []
    for c in range(n - 2):
        x = u[c:, c:]
        blocks = reference_blocks(x[:, 0])
        for k, v in enumerate(blocks):
            top, row = x[0].copy(), x[k + 1].copy()
            x[0] = v[0, 0] * top + v[0, 1] * row
            x[k + 1] = v[1, 0] * top + v[1, 1] * row
        phase = x[0, 0] / abs(x[0, 0])
        adjoints = [v.conj().T for v in blocks]
        adjoints[-1] = adjoints[-1] @ np.diag([phase, 1.0])
        factors += [(c + 1, c + k + 2, v) for k, v in enumerate(adjoints)]
    factors.append((n - 1, n, u[n - 2 :, n - 2 :]))
    return factors[::-1]


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
    ],
    ids=["identity", "permutation", "phased-permutation", "diagonal-phase"],
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
    with pytest.raises(CircuitParseError):
        parse_decomposition("")
    with pytest.raises(CircuitParseError):
        parse_decomposition("QSIM-FACTORS v1 dim=x\n")
    with pytest.raises(CircuitParseError):
        parse_decomposition("QSIM-FACTORS v1 dim=4\nWIRE 1 1 0 0 0 0 0 1 0\n")
    with pytest.raises(CircuitParseError):
        parse_decomposition("QSIM-FACTORS v1 dim=4\nTWO-LEVEL 1 2 1 0\n")
    # Every line parse_circuit rejects with CircuitParseError, and a
    # dimension with no two-level gates.
    for line in (
        "TWO-LEVEL 1 2 1 0 1 0 1 0 1 0",  # not unitary
        "TWO-LEVEL 2 1 1 0 0 0 0 0 1 0",  # i > j
        "TWO-LEVEL 1 3 1 0 0 0 0 0 1 0",  # j > dim
    ):
        with pytest.raises(CircuitParseError):
            parse_decomposition(f"QSIM-FACTORS v1 dim=2\n{line}\n")
        with pytest.raises(CircuitParseError):
            parse_circuit(f"QSIM-CIRCUIT v1 n=1\n{line}\n")
    # dim is ASCII digits only, at least 2 (U+0663 is ARABIC-INDIC DIGIT THREE).
    for dim in ("0", "1", "-4", "1_0", " 4", "+4", "\u0663"):
        with pytest.raises(CircuitParseError):
            parse_decomposition(f"QSIM-FACTORS v1 dim={dim}\n")


def test_factor_record_is_shared_with_the_gate_type():
    """Factors and circuit two-level gates are one type, one line format."""
    dec = decompose_unitary(random_unitary(np.random.default_rng(5), 4))
    assert all(type(f) is TwoLevelGate for f in dec.factors)
    factor_lines = format_decomposition(dec).splitlines()[1:]
    gate_lines = format_circuit(Circuit(n=2, gates=dec.factors)).splitlines()[1:]
    assert factor_lines == gate_lines


def test_reconstruct_validates_dimensions():
    f = TwoLevelGate(dim=3, i=1, j=2, v=np.eye(2))
    with pytest.raises(ValueError):
        reconstruct(Decomposition(dim=4, factors=(f,)))
    with pytest.raises(ValueError):
        reconstruct(Decomposition(dim=1, factors=()))
