"""Tests for states, observables, and measurement laws.

The probability oracle used throughout: diagonalize the state by hand and
accumulate sum_i w_i |<e_k, psi_i>|^2 over eigenvector overlaps, written as
explicit double loops independent of the library's einsum path.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsim.algprob import (
    LAW_SUM_TOL,
    NEGATIVE_PROB_TOL,
    STATE_TOL,
    DensityMatrix,
    Law,
    Observable,
    StateValidationError,
    conjugate,
    law,
    law_probabilities,
    pure_state,
    validate_state,
)
from qsim.linalg import EIG_CLUSTER_REL_TOL, is_hermitian


def random_unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_density(rng, n, rank=None):
    """Random mixed state: convex combination of random pure projectors."""
    rank = rank or n
    weights = rng.random(rank)
    weights /= weights.sum()
    mat = np.zeros((n, n), dtype=np.complex128)
    for w in weights:
        psi = rng.normal(size=n) + 1j * rng.normal(size=n)
        psi /= np.linalg.norm(psi)
        mat += w * np.outer(psi, psi.conj())
    return DensityMatrix(mat)


# --- states ------------------------------------------------------------------


def test_pure_state_projector_pin():
    rho = pure_state(np.array([1.0, 0.0]))
    assert np.array_equal(rho.mat, np.diag([1.0, 0.0]).astype(complex))
    plus = pure_state(np.array([1.0, 1.0]) / math.sqrt(2))
    assert np.max(np.abs(plus.mat - 0.5 * np.ones((2, 2)))) < 1e-15
    assert rho.dim == 2


def test_pure_state_rejects_unnormalized():
    with pytest.raises(ValueError):
        pure_state(np.array([1.0, 1.0]))
    pure_state(np.array([1.0 + 0.5 * STATE_TOL, 0.0]))
    with pytest.raises(ValueError):
        pure_state(np.array([1.0 + 2.0 * STATE_TOL, 0.0]))
    # A NaN norm compares false with everything, so it must fail the check.
    for bad in (np.nan, np.inf, -np.inf):
        for psi in ([bad, 0.0], [1.0, bad], [complex(0.0, bad), 0.0]):
            with pytest.raises(ValueError):
                pure_state(np.array(psi))


def test_validate_state_ranks():
    assert validate_state(pure_state(np.array([0.0, 1.0]))) == 1
    assert validate_state(DensityMatrix(np.eye(4) / 4.0)) == 4
    assert validate_state(DensityMatrix(np.diag([0.5, 0.5, 0.0, 0.0]))) == 2


def test_validate_state_three_distinguished_failures():
    """Each defining condition reports its own name when violated."""
    with pytest.raises(StateValidationError) as err:
        validate_state(DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]])))
    assert err.value.condition == "hermitian"

    with pytest.raises(StateValidationError) as err:
        validate_state(DensityMatrix(np.diag([1.5, -0.5]).astype(complex)))
    assert err.value.condition == "eigenvalues"

    with pytest.raises(StateValidationError) as err:
        validate_state(DensityMatrix(np.diag([0.6, 0.6]).astype(complex)))
    assert err.value.condition == "trace"

    with pytest.raises(StateValidationError) as err:
        validate_state(DensityMatrix(np.zeros((2, 3), dtype=complex)))
    assert err.value.condition == "hermitian"

    # The hermitized matrix overflows: no factor certifies it, and no rank is returned.
    with pytest.raises(StateValidationError, match="^eigenvalues beyond float range$") as err:
        validate_state(DensityMatrix([[0.5, 1e308], [1e308, 0.5]]))
    assert err.value.condition == "eigenvalues"


def test_validate_state_tolerance_is_respected():
    """A negative eigenvalue above -STATE_TOL passes; one below it raises."""
    def state(eps):
        return DensityMatrix(np.diag([1.0 + eps, -eps]).astype(complex))

    assert validate_state(state(0.5 * STATE_TOL)) == 1
    with pytest.raises(StateValidationError) as err:
        validate_state(state(2.0 * STATE_TOL))
    assert err.value.condition == "eigenvalues"


def test_cholesky_certificate_decides_as_the_smallest_eigenvalue():
    """Haar-rotated states whose smallest eigenvalue is -f * STATE_TOL, on
    both sides of the tolerance: law and validate_state accept or reject
    exactly as eigvalsh's smallest eigenvalue does, with its message."""
    rng = np.random.default_rng(29)
    cases = 0
    for dim in (2, 3, 8, 64, 128):
        a = Observable(np.diag(np.arange(dim, dtype=float)))
        for f in (0.5, 0.99, 1.01, 2.0):
            for _ in range(12):
                w = rng.random(dim) + 0.1
                w[0] = -f * STATE_TOL
                w[1:] *= (1.0 - w[0]) / w[1:].sum()
                u = random_unitary(rng, dim)
                rho = DensityMatrix((u * w) @ u.conj().T)
                low = float(np.linalg.eigvalsh((rho.mat + rho.mat.conj().T) / 2.0)[0])
                for check in (validate_state, lambda r: law(a, r)):
                    if low < -STATE_TOL:
                        with pytest.raises(StateValidationError) as err:
                            check(rho)
                        assert err.value.condition == "eigenvalues"
                        assert str(err.value) == f"negative eigenvalue {low:.3e}"
                    else:
                        check(rho)
                assert (low < -STATE_TOL) == (f > 1.0), (dim, f, low)
                cases += 1
    assert cases == 240


def test_law_runs_no_eigensolve_on_a_valid_state(monkeypatch):
    """A valid state is certified by its Cholesky factor alone: law calls
    neither eigvalsh nor eigh on the 2^n x 2^n state; validate_state still
    computes the spectrum for its rank."""
    from qsim.qpu import standard_observable

    n = 7
    rng = np.random.default_rng(7)
    rho = random_density(rng, 2**n, rank=5)
    a = standard_observable(n).realized
    shapes = []

    def counted(f):
        return lambda m, *args, **kwargs: shapes.append(np.shape(m)) or f(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted(np.linalg.eigvalsh))
    monkeypatch.setattr(np.linalg, "eigh", counted(np.linalg.eigh))
    law(a, rho)
    assert (2**n, 2**n) not in shapes, shapes
    assert validate_state(rho) == 5
    assert shapes == [(2**n, 2**n)]


# --- observables -------------------------------------------------------------


def test_observable_requires_hermitian():
    with pytest.raises(ValueError):
        Observable(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_observable_is_a_read_only_value():
    """Observable keeps a read-only copy of the caller's matrix, so a later
    write to it changes neither the matrix nor the eigenpairs, and its fields
    cannot be rebound; from_eig freezes the arrays it is handed in place,
    without a copy."""
    m = np.diag([1.0, 2.0]).astype(complex)
    o = Observable(m)
    m[1, 1] = 7.0
    assert o.mat[1, 1] == 2.0 and o.eigenvalues.tolist() == [1.0, 2.0]
    for a in (o.mat, o.eigenvalues, o.eigenvectors):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0
    with pytest.raises(AttributeError):
        o.mat = m
    w, v = np.array([1.0, 2.0]), np.eye(2, dtype=complex)
    fresh = Observable.from_eig(m, w, v)
    assert fresh.mat is m and fresh.eigenvalues is w and fresh.eigenvectors is v
    assert not (m.flags.writeable or w.flags.writeable or v.flags.writeable)


def test_eigenvalue_clusters_merge_degeneracies():
    """Equal eigenvalues, and ascending ones within the cluster tolerance of
    the next, however long the run, are one outcome valued at their mean."""
    rho = pure_state(np.array([0.6, 0.0, 0.8]))
    lw = law(Observable(np.diag([2.0, 2.0, 5.0])), rho)
    assert lw.values() == [2.0, 5.0]
    assert lw.probabilities() == pytest.approx([0.36, 0.64], abs=1e-15)
    # 1e-12 apart merges; a run of steps within tol merges end to end.
    assert law(Observable(np.diag([1.0, 1.0 + 1e-12, 2.0])), rho).values() == [
        (1.0 + (1.0 + 1e-12)) / 2, 2.0]
    assert len(law(Observable(np.diag([1.0, 1.0 + 9e-10, 1.0 + 1.8e-9])), rho).outcomes) == 1
    assert law(Observable(np.array([[5.0]])), pure_state(np.array([1.0]))).outcomes == ((5.0, 1.0),)


def test_eigenvalue_clusters_keep_separated_values_apart():
    """A gap above the tolerance starts a new outcome, the first one
    included: diag(1, 1 + 1e-3, 4) has three, and 1, 2, 3 has three."""
    rho = pure_state(np.array([0.6, 0.0, 0.8]))
    assert len(law(Observable(np.diag([1.0, 1.0 + 1e-3, 4.0])), rho).outcomes) == 3
    assert law(Observable(np.diag([1.0, 2.0, 3.0])), rho).values() == [1.0, 2.0, 3.0]
    assert len(law(Observable(np.diag([1.0, 1.0 + 2e-9, 1.0 + 4e-9])), rho).outcomes) == 3


# --- laws ---------------------------------------------------------------------


def test_bernoulli_law_pin():
    """Measuring diag(1, 0), then the bit flip, in the state cos(t)|0> + sin(t)|1>."""
    t = 0.7
    rho = pure_state(np.array([math.cos(t), math.sin(t)]))
    lw = law(Observable(np.diag([1.0, 0.0])), rho)
    assert lw.values() == [0.0, 1.0]
    probs = dict(lw.outcomes)
    assert probs[1.0] == pytest.approx(math.cos(t) ** 2, abs=1e-14)
    assert probs[0.0] == pytest.approx(math.sin(t) ** 2, abs=1e-14)
    # The flip's +1 eigenspace is spanned by (1, 1)/sqrt(2).
    flip = law(Observable(np.array([[0.0, 1.0], [1.0, 0.0]])), rho)
    assert flip.values() == pytest.approx([-1.0, 1.0], abs=1e-14)
    assert flip.probabilities()[1] == pytest.approx((1 + math.sin(2 * t)) / 2, abs=1e-14)


def test_law_against_double_loop_oracle():
    """p(v) = sum over eigenvector columns c of <c| rho |c>, expanded by hand."""
    rng = np.random.default_rng(60)
    rho = random_density(rng, 4)
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    a = Observable((h + h.conj().T) / 2)
    lw = law(a, rho)
    for (value, idx), (lv, lp) in zip(eigenvalue_clusters(a), lw.outcomes):
        assert value == pytest.approx(lv)
        want = 0.0
        for col in idx:
            c = a.eigenvectors[:, col]
            acc = 0.0 + 0.0j
            for i in range(4):
                for k in range(4):
                    acc += np.conj(c[i]) * rho.mat[i, k] * c[k]
            want += acc.real
        assert lp == pytest.approx(want, abs=1e-12)


def eigenvalue_clusters(a):
    """(mean, eigenvector indices) of each cluster, by one loop step per
    ascending eigenvalue: a value within the tolerance of the one before
    joins its cluster."""
    tol = EIG_CLUSTER_REL_TOL * max(float(np.linalg.norm(a.mat)), 1.0)
    groups, prev = [], None
    for i, x in enumerate(a.eigenvalues.tolist()):
        if prev is not None and abs(x - prev) <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])
        prev = x
    sums = np.add.reduceat(a.eigenvalues, [g[0] for g in groups])
    return list(zip((sums / [len(g) for g in groups]).tolist(), groups))


def per_cluster_law(a, rho):
    """The law as it was built from eigenvalue_clusters' index lists: one
    expectation per eigenvector, summed from each cluster's first index."""
    v = a.eigenvectors
    expectations = np.einsum("ij,ij->j", v.conj(), rho.mat @ v).real
    values, groups = zip(*eigenvalue_clusters(a))
    probs = law_probabilities(np.add.reduceat(expectations, [g[0] for g in groups]))
    return tuple(zip(values, probs.tolist()))


def test_law_matches_the_per_cluster_reference():
    """Random and colliding spectra of non-diagonal observables, N <= 128."""
    rng = np.random.default_rng(62)
    for n in (2, 3, 8, 17, 64, 128):
        for colliding in (False, True):
            if colliding:
                # A few exact repeats, and pairs 1e-13 apart that still merge.
                w = rng.integers(-2, 3, size=n).astype(float)
                w += 1e-13 * rng.integers(0, 2, size=n)
            else:
                w = rng.normal(size=n)
            u = random_unitary(rng, n)
            a = Observable((u * w) @ u.conj().T)
            g = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
            rho = DensityMatrix(g @ g.conj().T / np.linalg.norm(g) ** 2)
            got = law(a, rho).outcomes
            assert got == per_cluster_law(a, rho)
            if colliding:
                assert len(got) <= 5
            # Each probability within 1e-12 of one einsum over its cluster.
            for (_, p), (_, g) in zip(got, eigenvalue_clusters(a)):
                cols = a.eigenvectors[:, g]
                want = float(np.real(np.einsum("ij,ik,kj->", cols.conj(), rho.mat, cols)))
                assert abs(p - min(max(want, 0.0), 1.0)) <= 1e-12


def test_law_probabilities_is_the_one_readout_check():
    """Noise within the floor clamps; anything else that is not a law raises."""
    tiny = 0.5 * NEGATIVE_PROB_TOL
    assert law_probabilities([1.0 + tiny, -tiny]).tolist() == [1.0, 0.0]
    assert law_probabilities([0.5, 0.5 + 0.5 * LAW_SUM_TOL]).tolist() == [
        0.5,
        0.5 + 0.5 * LAW_SUM_TOL,
    ]
    for raw, condition in (
        ([1.0 + 2 * NEGATIVE_PROB_TOL, -2 * NEGATIVE_PROB_TOL], "eigenvalues"),
        ([np.nan, 1.0], "eigenvalues"),
        ([np.inf, 0.0], "eigenvalues"),
        ([0.5, 0.5 + 2 * LAW_SUM_TOL], "trace"),
        ([0.3, 0.3], "trace"),
    ):
        with pytest.raises(StateValidationError) as err:
            law_probabilities(raw)
        assert err.value.condition == condition


def test_law_of_maximally_mixed_state_is_dimension_counting():
    rho = DensityMatrix(np.eye(4) / 4.0)
    a = Observable(np.diag([1.0, 1.0, 3.0, 7.0]))
    lw = law(a, rho)
    probs = dict(lw.outcomes)
    assert probs[1.0] == pytest.approx(0.5)
    assert probs[3.0] == pytest.approx(0.25)
    assert probs[7.0] == pytest.approx(0.25)


def test_law_validates_the_state_first():
    a = Observable(np.diag([1.0, 0.0]))
    with pytest.raises(StateValidationError):
        law(a, DensityMatrix(np.diag([0.6, 0.6]).astype(complex)))


def test_law_rejects_dimension_mismatch():
    a = Observable(np.diag([1.0, 0.0]))
    with pytest.raises(ValueError):
        law(a, DensityMatrix(np.eye(3) / 3.0))


def test_law_outcomes_sum_to_one_random():
    rng = np.random.default_rng(61)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        rho = random_density(rng, n)
        h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        lw = law(Observable((h + h.conj().T) / 2), rho)
        assert sum(lw.probabilities()) == pytest.approx(1.0, abs=1e-9)
        assert all(0.0 <= p <= 1.0 for p in lw.probabilities())
        vals = lw.values()
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_law_object_accessors():
    lw = Law(outcomes=((0.0, 0.25), (1.0, 0.75)))
    assert lw.values() == [0.0, 1.0]
    assert lw.probabilities() == [0.25, 0.75]


# --- conjugation invariance ----------------------------------------------------


def test_conjugation_requires_unitary():
    with pytest.raises(ValueError):
        conjugate(np.eye(2), np.eye(2) * 2.0)


def test_conjugation_requires_unitary_and_matching_dim():
    """M must be square, of V's dimension, as in liouville_solve and
    gates.apply; numpy's matmul message would name neither."""
    rho = np.eye(2) / 2.0
    with pytest.raises(ValueError):
        conjugate(rho, np.eye(2) * 2.0)
    for m, v, message in ((rho, np.eye(4), "dimension mismatch: 4 vs 2"),
                          (np.eye(4) / 4.0, np.eye(2), "dimension mismatch: 2 vs 4"),
                          (np.ones((2, 3)), np.eye(2), "dimension mismatch: 2 vs shape (2, 3)")):
        with pytest.raises(ValueError) as info:
            conjugate(m, v)
        assert str(info.value) == message


def test_conjugation_by_identity_fixes_state():
    rng = np.random.default_rng(90)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    rho = pure_state(psi)
    assert np.array_equal(conjugate(rho.mat, np.eye(4)), rho.mat)


def test_conjugation_preserves_rank_and_undoes_with_adjoint():
    u = random_unitary(np.random.default_rng(91), 4)
    rho = DensityMatrix(np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex))
    moved = DensityMatrix(conjugate(rho.mat, u))
    assert validate_state(moved) == 2
    back = conjugate(moved.mat, u.conj().T)
    assert np.max(np.abs(back - rho.mat)) < 1e-12


def test_conjugation_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(70)
    rho = random_density(rng, 4)
    v = random_unitary(rng, 4)
    moved = conjugate(rho.mat, v)
    assert complex(np.trace(moved)) == pytest.approx(1.0, abs=1e-12)
    assert is_hermitian(moved, 1e-10)


def test_law_invariant_under_simultaneous_conjugation():
    """Moving both A and rho by the same unitary leaves the law unchanged."""
    rng = np.random.default_rng(71)
    for n in (2, 4, 8):
        rho = random_density(rng, n)
        h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = Observable((h + h.conj().T) / 2)
        v = random_unitary(rng, n)
        before = law(a, rho)
        after = law(
            Observable(conjugate(a.mat, v)), DensityMatrix(conjugate(rho.mat, v))
        )
        assert np.allclose(before.values(), after.values(), atol=1e-8)
        assert np.allclose(
            before.probabilities(), after.probabilities(), atol=1e-8
        )


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_law_invariance_property(seed):
    rng = np.random.default_rng(seed)
    n = 4
    rho = random_density(rng, n)
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a = Observable((h + h.conj().T) / 2)
    v = random_unitary(rng, n)
    before = law(a, rho)
    after = law(
        Observable(conjugate(a.mat, v)), DensityMatrix(conjugate(rho.mat, v))
    )
    assert np.allclose(before.probabilities(), after.probabilities(), atol=1e-8)
