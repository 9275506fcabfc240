"""Tests for the dense linear algebra kernel.

Oracle style: spectra and exponentials are checked against independent
reference computations (eigenpair pins, Taylor series), not against the
same numpy call the implementation uses. The number rule, as_numbers, is
checked at every entry point of the library that reads an array.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsim import rng as qrng
from qsim.algprob import (DensityMatrix, Observable, StateValidationError, conjugate, law,
                          law_probabilities, pure_state, validate_state)
from qsim.gates import (
    Circuit,
    Decomposition,
    TwoLevelGate,
    apply_vector,
    control_projector,
    controlled_gate,
    k_embed,
)
from qsim.grover_rudolph import DensitySegment, PiecewisePolyDensity
from qsim.linalg import (
    UNITARY_TOL,
    as_counts,
    as_numbers,
    hermitian_eig,
    is_hermitian,
    is_unitary,
    scaled_norm,
    unitary_from_hamiltonian,
)
from qsim.qpu import liouville_solve, sample, udqc, vector_distribution
from qsim.udecomp import decompose_unitary, reconstruction_residual, reduce_vector


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


def test_as_numbers_reads_lists_as_matrices_and_rejects_other_ranks():
    m = as_numbers("m", [[1, 2], [3, 4]], np.complex128, 2)
    assert m.dtype == np.complex128
    assert m.shape == (2, 2)
    with pytest.raises(ValueError, match="^m must be a 2-D array, got a 1-D input$"):
        as_numbers("m", [1, 2, 3], np.complex128, 2)
    with pytest.raises(ValueError, match="^m must be a 2-D array, got a 3-D input$"):
        as_numbers("m", np.zeros((2, 2, 2)), np.complex128, 2)


def test_as_numbers_reads_lists_as_vectors_and_rejects_matrices():
    v = as_numbers("psi", [1, 2j], np.complex128, 1)
    assert v.dtype == np.complex128
    assert v.shape == (2,)
    with pytest.raises(ValueError, match="^psi must be a 1-D array, got a 2-D input$"):
        as_numbers("psi", [[1, 2]], np.complex128, 1)


def test_as_numbers_returns_an_ndarray_of_its_dtype_itself():
    """No copy for an ndarray already of dtype, whatever its layout; a new
    array for anything else, so a caller that writes or freezes its result
    copies only the first kind."""
    m = random_complex(np.random.default_rng(1), 3, 3)
    assert as_numbers("m", m, np.complex128, 2) is m
    assert as_numbers("m", m.T, np.complex128, 2).base is m
    x = np.linspace(0.0, 1.0, 5)
    assert as_numbers("x", x) is x
    for other in (x.astype(np.float32), x.tolist(), x.astype(np.int64)):
        assert not np.shares_memory(as_numbers("x", other, np.complex128), other)
    assert as_numbers("x", x, np.complex128).dtype == np.complex128


def _bad(x, kind):
    """x, as nested lists or an array, with every entry turned to kind."""
    a = np.array(x, dtype=np.float64)
    return {"str": a.astype(str).tolist(), "bool": a.astype(bool).tolist(),
            "numpy str": a.astype(str), "numpy bool": a.astype(bool),
            "complex": (a + 0j).tolist()}[kind]


def _got(kind) -> str:
    """The type names as_numbers reports for _bad(x, kind): numpy's entry
    types for an array, Python's for lists."""
    numpy = {"numpy str": np.str_, "numpy bool": np.bool_}
    name = numpy[kind].__name__ if kind in numpy else kind.split()[-1]
    return f"['{name}']"


def _stacked(x):
    """A column of the one block x: an array with a new first axis, a list in a list."""
    return x[None] if isinstance(x, np.ndarray) else [x]


_DENSITY = PiecewisePolyDensity((DensitySegment(0.0, 1.0, (1.0,)),))
_ROT = Circuit(1, [1], [0], [0], None, [0.3])
_EYE = np.eye(2)


def _mass(a=0.0, b=1.0):
    return DensitySegment(0.0, 1.0, (1.0,)).mass(a, b)


# (entry point, its call on a good argument x, the argument's name, real, x)
_ENTRY_POINTS = [
    ("Observable", Observable, "mat", False, _EYE),
    ("conjugate m", lambda x: conjugate(x, _EYE), "m", False, _EYE),
    ("conjugate v", lambda x: conjugate(_EYE, x), "v", False, _EYE),
    ("is_hermitian", is_hermitian, "a", False, _EYE),
    ("is_unitary", is_unitary, "u", False, _EYE),
    ("hermitian_eig", hermitian_eig, "a", False, _EYE),
    ("unitary_from_hamiltonian", lambda x: unitary_from_hamiltonian(x, 0.5), "h", False, _EYE),
    ("decompose_unitary", decompose_unitary, "u", False, _EYE),
    ("reconstruction_residual",
     lambda x: reconstruction_residual(decompose_unitary(_EYE), x), "u", False, _EYE),
    ("pure_state", pure_state, "psi", False, [1.0, 0.0]),
    ("reduce_vector", reduce_vector, "psi", False, [1.0, 1.0]),
    ("vector_distribution", vector_distribution, "psi", False, [1.0, 0.0]),
    ("apply_vector", lambda x: apply_vector(_ROT, x), "psi", False, [1.0, 0.0]),
    ("law_probabilities", law_probabilities, "probabilities", True, [0.5, 0.5]),
    ("rng.cdf", qrng.cdf, "probabilities", True, [0.5, 0.5]),
    ("rng.inverse_cdf_counts", lambda x: qrng.inverse_cdf_counts(x, 3, 0),
     "probabilities", True, [0.5, 0.5]),
    ("qpu.sample", lambda x: sample(x, 10, 0), "probabilities", True, [0.5, 0.5]),
    ("masses", _DENSITY.masses, "edges", True, [0.0, 0.5, 1.0]),
    ("DensitySegment.mass a", lambda x: _mass(a=x), "a", True, 0.0),
    ("DensitySegment.mass b", lambda x: _mass(b=x), "b", True, 1.0),
    # A segment's own numbers: test_grover_rudolph's density number-rule test.
    ("Circuit", lambda x: Circuit(1, [1], [0], [0], x, [math.nan]), "gate block", False, [_EYE]),
    ("Decomposition", lambda x: Decomposition(2, [1], [2], x), "gate block", False, [_EYE]),
    ("Circuit, one block",
     lambda x: Circuit(1, [1], [0], [0], _stacked(x), [math.nan]), "gate block", False, _EYE),
    ("Decomposition, one block",
     lambda x: Decomposition(2, [1], [2], _stacked(x)), "gate block", False, _EYE),
    ("TwoLevelGate", lambda x: TwoLevelGate(2, 1, 2, x), "gate block", False, _EYE),
    ("k_embed", lambda x: k_embed(2, 1, 2, x), "gate block", False, _EYE),
    ("controlled_gate", lambda x: controlled_gate(1, 1, (), x), "gate block", False, _EYE),
    ("control_projector", lambda x: control_projector(1, 1, (), x), "block", False, _EYE),
    ("DensityMatrix", DensityMatrix, "mat", False, np.diag([1.0, 0.0])),
]


@pytest.mark.parametrize("call, name, real, x", [e[1:] for e in _ENTRY_POINTS],
                         ids=[e[0] for e in _ENTRY_POINTS])
def test_every_array_the_library_reads_passes_the_number_rule(call, name, real, x):
    """A str or a bool, in a list or as a numpy array, is no number for any
    state, matrix, vector, block, probability or density number, and a
    complex number is none where reals are read: each is a ValueError
    naming the argument, raised before anything is computed from it. The
    good argument passes."""
    call(x)
    what = "real numbers" if real else "numbers"
    for kind in ("str", "bool", "numpy str", "numpy bool", *["complex"] * real):
        with pytest.raises(ValueError) as info:
            call(_bad(x, kind))
        assert str(info.value) == f"{name} must be {what}, got {_got(kind)}"


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
    # Finite eigenvalues with NaN vectors: a NaN residual is no small residual.
    monkeypatch.setattr(np.linalg, "eigh", lambda a: (np.array([1.0, 2.0]), np.full((2, 2), np.nan)))
    with pytest.raises(ArithmeticError, match="^eigendecomposition residual nan exceeds"):
        hermitian_eig(h)


def test_an_overflowing_norm_keeps_the_residual_check(monkeypatch):
    """Where ||A|| overflows (entries of about 1e154 and up), the residual and
    its bound are measured on A and w scaled by a power of two: correct pairs
    pass with w unscaled, and pairs that do not rebuild A still fail, where a
    bound of UNITARY_TOL * inf would pass any pair."""
    big = np.diag([1e200, 2e200])
    assert hermitian_eig(big)[0].tolist() == [1e200, 2e200]
    monkeypatch.setattr(np.linalg, "eigh", lambda a: (np.array([1e200, 5e200]), np.eye(2)))
    with pytest.raises(ArithmeticError, match="^eigendecomposition residual"):
        hermitian_eig(big)


def test_scaled_norm_scales_only_an_overflowing_norm():
    """A finite norm comes back as np.linalg.norm's, with s = 1; an
    overflowing one as the norm of A times 2^-e, its largest |entry| in [0.5, 1)."""
    rng = np.random.default_rng(3)
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    assert scaled_norm(a) == (float(np.linalg.norm(a)), 1.0)
    assert scaled_norm(a * 1e150) == (float(np.linalg.norm(a * 1e150)), 1.0)
    norm, s = scaled_norm(np.diag([1e200, 2e200]))
    assert s == 2.0**-666 and 0.5 <= 2e200 * s < 1.0
    assert norm == float(np.linalg.norm(np.diag([1e200, 2e200]) * s))
    assert scaled_norm(np.array([[np.inf, 1.0]]))[1] == 1.0


def test_an_eigenvalue_beyond_float_range_is_bad_input():
    """Finite entries whose eigenvalue, or whose eigenvalue times t, overflows
    are a ValueError, not a matrix with an infinite eigenvalue nor the
    ArithmeticError that marks a numerical fault."""
    big = np.full((2, 2), 1e308)
    for call in (lambda: hermitian_eig(big), lambda: Observable(big),
                 lambda: unitary_from_hamiltonian(big, 1.0),
                 lambda: liouville_solve(big, udqc(1).rho0, 1.0)):
        with pytest.raises(ValueError, match="^matrix has an eigenvalue beyond float range"):
            call()
    with pytest.raises(ValueError, match="^t [*] H has an eigenvalue beyond float range at t = 10"):
        unitary_from_hamiltonian(np.diag([1e308, 0.0]), 10.0)
    w, _ = hermitian_eig(np.diag([1e308, -1e308]))  # large, but in range
    assert w.tolist() == [-1e308, 1e308]


_INF = [[np.inf, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("call, want", [
    pytest.param(lambda: is_unitary(_INF), False, id="is_unitary inf"),
    pytest.param(lambda: is_hermitian(_INF), False, id="is_hermitian inf"),
    pytest.param(lambda: is_unitary([[1e308, 0.0], [1e308, 0.0]]), False, id="is_unitary 1e308"),
    pytest.param(lambda: Observable(_INF), ValueError, id="Observable inf"),
    pytest.param(lambda: liouville_solve(_INF, udqc(1).rho0, 1.0), ValueError,
                 id="liouville_solve inf"),
    pytest.param(lambda: validate_state(DensityMatrix(_INF)), StateValidationError,
                 id="validate_state inf"),
    pytest.param(lambda: validate_state(DensityMatrix(np.full((2, 2), 1e308))),
                 StateValidationError, id="validate_state 1e308"),
    pytest.param(lambda: validate_state(DensityMatrix([[0.5, 1e308], [1e308, 0.5]])),
                 StateValidationError, id="validate_state off-diagonal 1e308"),
    pytest.param(lambda: law(Observable(np.eye(2)), DensityMatrix(_INF)), StateValidationError,
                 id="law inf"),
    pytest.param(lambda: law(Observable(np.eye(2)), DensityMatrix([[0.5, 1e308], [1e308, 0.5]])),
                 StateValidationError, id="law off-diagonal 1e308"),
    pytest.param(lambda: pure_state([1e308, 1e308]), ValueError, id="pure_state 1e308"),
    pytest.param(lambda: decompose_unitary(_INF), ValueError, id="decompose_unitary inf"),
    pytest.param(lambda: decompose_unitary([[1e308, 0.0], [1e308, 0.0]]), ValueError,
                 id="decompose_unitary 1e308"),
])
def test_non_finite_or_overflowing_entries_give_the_documented_result(call, want):
    """An entry that is not finite, or whose products overflow, fails a dense
    check with its documented result and no numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if isinstance(want, bool):
            assert call() is want
        else:
            with pytest.raises(want):
                call()


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
    """A new int64 column when every entry is an integer within the bounds and
    there is one axis, from a list, a tuple or an array; otherwise as_count's
    ValueError for the first entry that fails, whichever rule it breaks, or
    as_numbers's for the axes."""
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
        # Bounds are clamped to int64's range, so no entry wraps or overflows.
        ([1, 2**65], 1, 2**70, rf"k must be at most {2**63 - 1}, got {2**65}"),
        (np.array([1, 2**63], np.uint64), 1, 2**64, rf"k must be at most {2**63 - 1}, got {2**63}"),
        ([-(2**64)], None, None, rf"k must be at least {-(2**63)}, got {-(2**64)}"),
        # A column has one axis; an entry is still read first.
        (1, None, None, r"k must be a 1-D array, got a 0-D input"),
        ([[1, 2]], None, None, r"k must be a 1-D array, got a 2-D input"),
        (np.ones((0, 2), np.int64), None, None, r"k must be a 1-D array, got a 2-D input"),
        ([[1, 2.0]], None, None, r"k must be an integer, got 2.0"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            as_counts("k", x, least, most)
    # A dim of 2^63 or more leaves no coordinate column beyond int64's rule.
    for dim, i, j, big in ((2**70, [1], [2**65], 2**65),
                           (2**64, np.array([1], np.uint64), np.array([2**63], np.uint64), 2**63)):
        with pytest.raises(ValueError, match=rf"^j must be at most {2**63 - 1}, got {big}$"):
            Decomposition(dim, i, j, [np.eye(2)])


def test_a_time_that_is_not_real_is_rejected_before_the_eigensolve(monkeypatch):
    """t is read by as_numbers's rule, so a complex, string or bool t, or an int
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
                 lambda: as_numbers("t", 10**400)):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == "t must be real numbers within float range"
    for t, ndim in (([0.5], 1), (np.array([0.5, 0.7]), 1), (np.array([[0.5]]), 2)):
        with pytest.raises(ValueError) as info:
            unitary_from_hamiltonian(np.diag([1.0, 2.0]), t)
        assert str(info.value) == f"t must be a 0-D array, got a {ndim}-D input"


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
