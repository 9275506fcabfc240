"""Tests for the dense linear algebra kernel.

Oracle style: spectra and exponentials are checked against independent
reference computations (eigenpair pins, Taylor series), not against the
same numpy call the implementation uses.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsim.linalg import (
    UNITARY_TOL,
    as_counts,
    as_matrix,
    as_reals,
    as_vector,
    hermitian_eig,
    is_hermitian,
    is_unitary,
    unitary_from_hamiltonian,
)


def random_complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_unitary(rng, n):
    """Haar-ish unitary via QR with the standard phase fix."""
    q, r = np.linalg.qr(random_complex(rng, n, n))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_hermitian(rng, n):
    a = random_complex(rng, n, n)
    return (a + a.conj().T) / 2.0


# --- coercion ----------------------------------------------------------------


def test_as_matrix_accepts_lists_and_rejects_other_ranks():
    m = as_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.complex128
    assert m.shape == (2, 2)
    with pytest.raises(ValueError):
        as_matrix([1, 2, 3])
    with pytest.raises(ValueError):
        as_matrix(np.zeros((2, 2, 2)))


def test_as_vector_accepts_lists_and_rejects_matrices():
    v = as_vector([1, 2j])
    assert v.dtype == np.complex128
    assert v.shape == (2,)
    with pytest.raises(ValueError):
        as_vector([[1, 2]])


# --- Kronecker product ---------------------------------------------------


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_kron_of_unitaries_is_unitary(seed):
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, 2)
    v = random_unitary(rng, 3)
    assert is_unitary(np.kron(u, v), 1e-10)


# --- predicates ------------------------------------------------------------


def test_is_hermitian_pins():
    assert is_hermitian(np.eye(3))
    assert is_hermitian(np.array([[1.0, 2 - 1j], [2 + 1j, 5.0]]))
    assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert not is_hermitian(np.zeros((2, 3)))
    # Tolerance is a real threshold, not a suggestion.
    almost = np.eye(2) + np.array([[0.0, 1e-6], [0.0, 0.0]])
    assert not is_hermitian(almost, 1e-9)
    assert is_hermitian(almost, 1e-5)


def test_is_unitary_pins():
    assert is_unitary(np.eye(4))
    c, s = math.cos(0.3), math.sin(0.3)
    assert is_unitary(np.array([[c, -s], [s, c]]))
    assert not is_unitary(np.eye(2) * 1.001, 1e-9)
    assert not is_unitary(np.zeros((2, 3)))


# --- eigendecomposition ------------------------------------------------------


def test_hermitian_eig_diagonal_pin():
    w, v = hermitian_eig(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(w, [1.0, 2.0, 3.0])
    assert v.shape == (3, 3)
    # Ascending order means the first eigenvector belongs to eigenvalue 1,
    # which sits at diagonal position 1.
    assert abs(abs(v[1, 0]) - 1.0) < 1e-12


def test_hermitian_eig_returns_the_eigh_pair():
    """The result is a plain (eigenvalues, eigenvectors) pair of arrays,
    equal to what np.linalg.eigh gives for the same matrix."""
    a = random_hermitian(np.random.default_rng(30), 4)
    pair = hermitian_eig(a)
    assert type(pair) is tuple and len(pair) == 2
    w, v = np.linalg.eigh(a)
    assert np.array_equal(pair[0], w) and np.array_equal(pair[1], v)


def test_hermitian_eig_bit_flip_pin():
    """Eigen-pairs of [[0,1],[1,0]]: -1 with (1,-1)/sqrt(2), +1 with (1,1)/sqrt(2)."""
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    w, v = hermitian_eig(flip)
    assert np.allclose(w, [-1.0, 1.0])
    minus, plus = v[:, 0], v[:, 1]
    assert abs(abs(np.vdot(minus, [1, -1]) / math.sqrt(2)) - 1.0) < 1e-12
    assert abs(abs(np.vdot(plus, [1, 1]) / math.sqrt(2)) - 1.0) < 1e-12


def test_hermitian_eig_reconstruction_and_orthonormality():
    rng = np.random.default_rng(31)
    for n in (2, 5, 8, 16):
        a = random_hermitian(rng, n)
        w, v = hermitian_eig(a)
        assert np.all(np.diff(w) >= -1e-12)
        assert np.max(np.abs(v.conj().T @ v - np.eye(n))) < 1e-12
        assert np.linalg.norm(v @ np.diag(w) @ v.conj().T - a) < 1e-10 * max(
            np.linalg.norm(a), 1.0
        )


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_inaccurate_eigenpairs_raise_arithmetic_errors(monkeypatch):
    """An eigh whose pairs do not rebuild the matrix fails the residual
    check; one whose vectors are not orthonormal gives an exponential off
    the unitary group."""
    h = np.diag([1.0, 2.0])
    monkeypatch.setattr(np.linalg, "eigh", lambda a: (np.array([1.0, 3.0]), np.eye(2)))
    with pytest.raises(ArithmeticError, match="^eigendecomposition residual"):
        hermitian_eig(h)
    with pytest.raises(ArithmeticError, match="^eigendecomposition residual"):
        unitary_from_hamiltonian(h, 1.0)
    # Columns of norm 1 + 3e-11 rebuild h within tolerance (residual 1.3e-10
    # against 2.2e-10), but exp(-itH) from them misses the unitary group by
    # 1.7e-10.
    monkeypatch.setattr(np.linalg, "eigh", lambda a: (np.array([1.0, 2.0]), (1 + 3e-11) * np.eye(2)))
    with pytest.raises(ArithmeticError, match="^exponential drifted off the unitary group$"):
        unitary_from_hamiltonian(h, 1.0)


def test_hermiticity_threshold_is_unitary_tol():
    """hermitian_eig and unitary_from_hamiltonian accept an A - A* residual
    below UNITARY_TOL and reject one above it."""
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]]) / math.sqrt(2)  # ||A - A*|| = 2|eps|
    for scale, ok in ((0.4, True), (2.0, False)):
        h = np.diag([1.0, 2.0]) + scale * UNITARY_TOL * skew
        if ok:
            hermitian_eig(h)
            unitary_from_hamiltonian(h, 0.5)
        else:
            with pytest.raises(ValueError):
                hermitian_eig(h)
            with pytest.raises(ValueError):
                unitary_from_hamiltonian(h, 0.5)


# --- the unitary group from Hermitian generators -----------------------------


def test_a_time_that_is_not_finite_is_rejected_before_the_eigensolve(monkeypatch):
    """exp(-itH) needs a finite t: NaN and the infinities are a ValueError
    naming t, raised before H is decomposed, so a non-Hermitian H gets the
    same message and eigh is never called."""
    monkeypatch.setattr(np.linalg, "eigh", lambda a: pytest.fail("eigh was called"))
    for h in (np.diag([1.0, 2.0]), np.array([[0.0, 1.0], [0.0, 0.0]])):
        for t in (math.nan, math.inf, -math.inf, np.float64(math.nan)):
            with pytest.raises(ValueError) as info:
                unitary_from_hamiltonian(h, t)
            assert str(info.value) == f"t must be finite, got {t!r}"


def test_as_counts_reads_each_entry_by_as_count():
    """A new int64 column when every entry is an integer within the bounds,
    from a list, a tuple or an array; otherwise as_count's ValueError for the
    first entry that fails, whichever rule it breaks."""
    ints = np.array([3, 1, 2])
    for x in ([3, np.int64(1), np.uint8(2)], (3, 1, 2), ints, ints.astype(np.uint8)):
        got = as_counts("k", x, 1, 3)
        assert got.dtype == np.int64 and got.tolist() == [3, 1, 2]
        assert not np.shares_memory(got, x)
    for x in ([], np.array([]), np.array([], dtype=bool)):  # no entry fails
        assert as_counts("k", x).dtype == np.int64 and len(as_counts("k", x)) == 0
    for x, least, most, message in (
        ([1, True, 2.0], None, None, "k must be an integer, got True"),
        ([1, 2.0], None, None, "k must be an integer, got 2.0"),
        ((0, "1"), None, None, "k must be an integer, got '1'"),
        (np.array([1.0]), None, None, r"k must be an integer, got \S*1\.0\S*"),
        (np.array([1, 0]) > 0, None, None, r"k must be an integer, got \S*True\S*"),
        ([1, 5, 0], 1, 3, r"k must be at most 3, got 5"),
        (np.array([1, 5, 0]), 1, 3, r"k must be at most 3, got 5"),
        ([1, 0, 5], 1, 3, r"k must be at least 1, got 0"),
        (np.array([2**62, -1]), 0, None, r"k must be at least 0, got -1"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            as_counts("k", x, least, most)


def test_a_time_that_is_not_real_is_rejected_before_the_eigensolve(monkeypatch):
    """t is read by as_reals's rule, so a complex, string or bool t, or an int
    beyond float range, is a ValueError naming t, raised before H is
    decomposed, and never the ArithmeticError that marks a numerical fault;
    so is a list or an array of times, even of one."""
    monkeypatch.setattr(np.linalg, "eigh", lambda a: pytest.fail("eigh was called"))
    for t, kind in ((1 + 1j, "complex"), (np.complex128(0.5), "complex128"), ("1", "str"),
                    (True, "bool")):
        with pytest.raises(ValueError) as info:
            unitary_from_hamiltonian(np.eye(2), t)
        assert str(info.value) == f"t must be real numbers, got ['{kind}']"
    for call in (lambda: unitary_from_hamiltonian(np.eye(2), 10**400),
                 lambda: as_reals("t", 10**400)):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == "t must be real numbers within float range"
    for t, shape in (([0.5], (1,)), (np.array([0.5, 0.7]), (2,)), (np.array([0.5]), (1,))):
        with pytest.raises(ValueError) as info:
            unitary_from_hamiltonian(np.diag([1.0, 2.0]), t)
        assert str(info.value) == f"t must be a single number, got shape {shape}"


def test_generator_zero_gives_identity():
    assert np.array_equal(
        unitary_from_hamiltonian(np.zeros((3, 3)), 1.7), np.eye(3)
    )


def test_generator_diagonal_phases():
    h = np.diag([1.0, 2.0])
    t = 0.9
    u = unitary_from_hamiltonian(h, t)
    want = np.diag([np.exp(-1j * t), np.exp(-2j * t)])
    assert np.max(np.abs(u - want)) < 1e-12


def test_generator_matches_power_series():
    """Taylor oracle: sum_m (-itH)^m / m! at small t converges fast."""
    rng = np.random.default_rng(41)
    h = random_hermitian(rng, 4)
    t = 0.01
    series = np.zeros((4, 4), dtype=np.complex128)
    term = np.eye(4, dtype=np.complex128)
    for m in range(1, 25):
        series += term
        term = term @ (-1j * t * h) / m
    u = unitary_from_hamiltonian(h, t)
    assert np.max(np.abs(u - series)) < 1e-14


def test_generator_group_law_and_inverse():
    rng = np.random.default_rng(42)
    h = random_hermitian(rng, 5)
    s, t = 0.37, -1.21
    u_s = unitary_from_hamiltonian(h, s)
    u_t = unitary_from_hamiltonian(h, t)
    u_st = unitary_from_hamiltonian(h, s + t)
    assert np.max(np.abs(u_s @ u_t - u_st)) < 1e-10
    u_back = unitary_from_hamiltonian(h, -s)
    assert np.max(np.abs(u_s @ u_back - np.eye(5))) < 1e-10
    assert np.max(np.abs(u_back - u_s.conj().T)) < 1e-12


def test_generator_rejects_non_hermitian():
    with pytest.raises(ValueError):
        unitary_from_hamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


@settings(deadline=None, max_examples=20)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
)
def test_generator_always_unitary(seed, t):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, 4)
    assert is_unitary(unitary_from_hamiltonian(h, t), 1e-10)
