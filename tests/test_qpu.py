"""Tests for the register model: encodings, observables, evolution, sampling.

Endianness is the heart of this module and every pin below spells it out:
outcome labels are little-endian in the wire bits (k = sum z_i 2^(i-1)),
while flat tensor positions are big-endian (wire 1 is the leftmost, hence
most significant, Kronecker factor).
"""

import bisect
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsim import qpu
from qsim.algprob import (
    DensityMatrix,
    Observable,
    StateValidationError,
    law_probabilities,
    pure_state,
    validate_state,
)
from qsim.linalg import is_hermitian, unitary_from_hamiltonian
from qsim.qpu import (
    ShotResult,
    basis_distribution,
    basis_vector,
    bitstring,
    decode,
    encode,
    label_bitstrings,
    label_permutation,
    law_over_labels,
    liouville_solve,
    qpu_observable,
    sample,
    standard_observable,
    tensor_index,
    udqc,
    vector_distribution,
)
from qsim import rng as qrng
from qsim.rng import (
    BUCKETS,
    GOLDEN_GAMMA,
    SHOT_CHUNK,
    SORT_CHUNK,
    inverse_cdf_counts,
    inverse_cdf_sample,
    splitmix64_stream,
)


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2.0


# --- encodings ---------------------------------------------------------------


def test_encode_pins():
    # k=1 has bit z_1 set (little-endian): bits [1, 0, 0].
    assert encode(1, 3) == [1, 0, 0]
    # k=4 = 2^2 has bit z_3 set.
    assert encode(4, 3) == [0, 0, 1]
    assert encode(0, 4) == [0, 0, 0, 0]
    assert encode(6, 3) == [0, 1, 1]
    assert encode(7, 3) == [1, 1, 1]


def test_encode_range_checks():
    with pytest.raises(ValueError):
        encode(8, 3)
    with pytest.raises(ValueError):
        encode(-1, 3)
    with pytest.raises(ValueError):
        encode(0, 0)


def test_decode_round_trip():
    for n in (1, 2, 3, 5):
        for k in range(2**n):
            assert decode(encode(k, n)) == k
    with pytest.raises(ValueError):
        decode([])
    with pytest.raises(ValueError):
        decode([0, 2])


def test_numpy_bits_decode_as_python_ints():
    """Each bit is read as a Python int, so a 64-bit label does not wrap as
    an int64 shift would: 64 numpy ones are 2^64 - 1, and wire 1 alone set
    among 64 wires is position 2^63."""
    assert decode(list(np.ones(64, np.int64))) == 2**64 - 1
    assert tensor_index(np.array([1] + [0] * 63)) == 2**63
    assert type(decode(np.ones(3, np.uint8))) is int


def test_bitstring_is_wire_order_and_decodes_back():
    assert bitstring(1, 3) == "100"
    assert bitstring(6, 3) == "011"
    for k in range(2**5):
        assert decode([int(ch) for ch in bitstring(k, 5)]) == k
    for k, n in ((8, 3), (-1, 3), (0, 0)):
        with pytest.raises(ValueError) as want:
            encode(k, n)
        with pytest.raises(ValueError, match=f"^{want.value}$"):
            bitstring(k, n)


def test_label_bitstrings_is_bitstring_of_every_label():
    assert label_bitstrings(2) == ["00", "10", "01", "11"]
    for n in range(1, 17):
        assert label_bitstrings(n) == [bitstring(k, n) for k in range(2**n)]
    labels = label_bitstrings(20)  # the CLI's cap
    assert len(labels) == 2**20
    for k in (0, 1, 2**19, 2**20 - 1):
        assert labels[k] == bitstring(k, 20)
    with pytest.raises(ValueError, match="^n must be at least 1, got 0$"):
        label_bitstrings(0)


def test_labels_and_qubit_counts_follow_the_integer_rule():
    """A label or a qubit count is an integer, Python or numpy, and not a
    bool or a float: linalg.as_count's rule, checked before any array is
    made, and within its range, by its range messages."""
    for call, message in (
        (lambda: encode(True, 3), "label must be an integer, got True"),
        (lambda: bitstring(True, 3), "label must be an integer, got True"),
        (lambda: basis_vector(True, 2), "label must be an integer, got True"),
        (lambda: encode(1, True), "n must be an integer, got True"),
        (lambda: bitstring(1.5, 3), "label must be an integer, got 1.5"),
        (lambda: encode(1.0, 3), "label must be an integer, got 1.0"),
        (lambda: basis_vector(0, 2.5), "n must be an integer, got 2.5"),
        (lambda: label_bitstrings(True), "n must be an integer, got True"),
        (lambda: label_permutation(True), "n must be an integer, got True"),
        (lambda: label_permutation(2.0), "n must be an integer, got 2.0"),
        (lambda: standard_observable(True), "n must be an integer, got True"),
        (lambda: udqc(True), "n must be an integer, got True"),
        (lambda: udqc(2.0), "n must be an integer, got 2.0"),
        (lambda: label_permutation(0), "n must be at least 1, got 0"),
        (lambda: encode(8, np.int64(3)), "label must be at most 7, got 8"),
        (lambda: bitstring(-1, 3), "label must be at least 0, got -1"),
        (lambda: udqc(17), "n must be at most 16, got 17"),
        (lambda: standard_observable(0), "n must be at least 1, got 0"),
    ):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message
    # numpy integers are read as Python ints.
    bits = encode(np.int64(6), np.uint8(3))
    assert bits == [0, 1, 1] and {type(b) for b in bits} == {int}
    assert bitstring(np.int64(1), np.int64(3)) == "100"
    assert label_bitstrings(np.int64(2)) == label_bitstrings(2)
    assert label_permutation(np.int64(3)).tobytes() == label_permutation(3).tobytes()
    assert np.array_equal(basis_vector(np.int64(1), np.int64(2)), basis_vector(1, 2))
    assert type(udqc(np.int64(2)).n) is int


def test_tensor_index_pins():
    # Wire 1 is the leftmost Kronecker factor = most significant position
    # bit, so bits [1, 0, 0] sit at flat position 4, not 1.
    assert tensor_index([1, 0, 0]) == 4
    assert tensor_index([0, 0, 1]) == 1
    assert tensor_index([1, 1, 0]) == 6
    assert tensor_index([0, 1]) == 1
    with pytest.raises(ValueError):
        tensor_index([])
    with pytest.raises(ValueError):
        tensor_index([0, 2])


def test_label_permutation_is_bit_reversal():
    perm = label_permutation(3)
    assert list(perm) == [0, 4, 2, 6, 1, 5, 3, 7]
    # A permutation: every position hit exactly once.
    assert sorted(perm) == list(range(8))


def test_label_permutation_matches_per_label_positions():
    for n in range(1, 13):
        want = [tensor_index(encode(k, n)) for k in range(2**n)]
        assert np.array_equal(label_permutation(n), want)
    with pytest.raises(ValueError):
        label_permutation(0)


def bit_loop_permutation(n):
    """label_permutation's reference: each label bit shifted into its
    reversed place, one bit at a time."""
    labels = np.arange(2**n)
    positions = np.zeros_like(labels)
    for i in range(n):
        positions |= ((labels >> i) & 1) << (n - 1 - i)
    return positions


def test_label_permutation_equals_the_bit_loop_up_to_n_20():
    for n in range(1, 21):
        got, want = label_permutation(n), bit_loop_permutation(n)
        assert got.dtype == want.dtype and np.array_equal(got, want), n


def test_basis_vector_matches_kron_of_unit_vectors():
    """Brute-force oracle: build |z_1> (x) |z_2> (x) |z_3> by hand."""
    e = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    for k in range(8):
        bits = encode(k, 3)
        want = np.kron(np.kron(e[bits[0]], e[bits[1]]), e[bits[2]])
        assert np.array_equal(basis_vector(k, 3), want.astype(complex))


def test_basis_vector_pin():
    v = basis_vector(1, 3)
    assert v[4] == 1.0
    assert np.count_nonzero(v) == 1


# --- register observables -------------------------------------------------------


def test_qpu_observable_sign_factors():
    """Two diag(1, -1) factors: label of outcome k is the product of signs."""
    sign = np.diag([1.0, -1.0])
    obs = qpu_observable([sign, sign])
    # Ascending per-factor eigenvalues are (-1, 1), selected by each bit.
    # bit 0 -> -1, bit 1 -> +1 for each factor.
    want = {0: 1.0, 1: -1.0, 2: -1.0, 3: 1.0}
    for k, v in want.items():
        assert obs.eigen_labels[k] == pytest.approx(v)
    assert np.max(np.abs(obs.realized.mat - np.kron(sign, sign))) < 1e-14


def test_qpu_observable_realizes_kron_product():
    rng = np.random.default_rng(80)
    factors = [random_hermitian(rng, 2) for _ in range(3)]
    obs = qpu_observable(factors)
    want = np.kron(np.kron(factors[0], factors[1]), factors[2])
    assert np.max(np.abs(obs.realized.mat - want)) < 1e-12
    assert obs.n == 3


def test_qpu_observable_labels_are_per_label_products():
    """eigen_labels[k] multiplies wire j's eigenvalue selected by bit j of k,
    in wire order, exactly."""
    rng = np.random.default_rng(81)
    for n in range(1, 6):
        obs = qpu_observable([random_hermitian(rng, 2) for _ in range(n)])
        eigs = [f.eigenvalues for f in obs.factors]
        want = []
        for k in range(2**n):
            value = 1.0
            for j, b in enumerate(encode(k, n)):
                value *= float(eigs[j][b])
            want.append(value)
        assert np.array_equal(obs.eigen_labels, want)


def test_qpu_observable_products_equal_np_kron():
    """realized.mat and realized.eigenvectors, built by one outer product
    chain each, are byte for byte reduce(np.kron, ...) of the factors', the
    eigenvectors in ascending eigenvalue order."""
    from functools import reduce

    rng = np.random.default_rng(83)
    for n in range(1, 8):
        obs = qpu_observable([random_hermitian(rng, 2) for _ in range(n)])
        mat = reduce(np.kron, [f.mat for f in obs.factors])
        v = reduce(np.kron, [f.eigenvectors for f in obs.factors])
        w = reduce(np.multiply.outer, [f.eigenvalues for f in obs.factors]).ravel()
        assert obs.realized.mat.tobytes() == mat.tobytes(), n
        ascending = v[:, np.argsort(w, kind="stable")]
        assert obs.realized.eigenvectors.tobytes() == ascending.tobytes(), n


def test_qpu_observable_law_equals_the_dense_eigensolve():
    """realized takes its eigenpairs from the factors' Kronecker products; its
    law equals that of Observable(kron(...)), which runs eigh on the dense
    product, within 1e-12, also when diag(1, 1) factors make eigenvalues
    collide."""
    from functools import reduce

    from qsim.algprob import law

    rng = np.random.default_rng(82)
    for n in range(1, 7):
        for trial in range(3):
            factors = [random_hermitian(rng, 2) for _ in range(n)]
            for j in rng.choice(n, size=trial, replace=True):
                factors[j] = np.diag([1.0, 1.0])
            obs = qpu_observable(factors)
            dense = Observable(reduce(np.kron, factors))
            assert np.max(np.abs(obs.realized.mat - dense.mat)) == 0.0
            assert np.max(np.abs(obs.realized.eigenvalues - dense.eigenvalues)) < 1e-12
            a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
            rho = a @ a.conj().T
            rho = DensityMatrix((rho + rho.conj().T) / (2.0 * np.trace(rho).real))
            got, want = law(obs.realized, rho), law(dense, rho)
            assert len(got.outcomes) == len(want.outcomes)
            assert np.max(np.abs(np.subtract(got.values(), want.values()))) < 1e-12
            assert np.max(np.abs(np.subtract(got.probabilities(), want.probabilities()))) < 1e-12


def test_qpu_observable_checks_no_register_sized_matrix(monkeypatch):
    """The factors are checked one 2x2 at a time, and realized keeps the
    Kronecker products of their eigenpairs as they are: no hermiticity
    test, eigensolve or norm runs on a 2^n x 2^n matrix."""
    from qsim import linalg

    shapes = []

    def counted(f):
        return lambda a, *args, **kwargs: shapes.append(np.shape(a)) or f(a, *args, **kwargs)

    monkeypatch.setattr(linalg, "is_hermitian", counted(linalg.is_hermitian))
    monkeypatch.setattr(np.linalg, "eigh", counted(np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "norm", counted(np.linalg.norm))
    rng = np.random.default_rng(84)
    for n in (3, 7):
        for factors in ([random_hermitian(rng, 2) for _ in range(n)], None):
            shapes.clear()
            obs = standard_observable(n) if factors is None else qpu_observable(factors)
            assert obs.realized.mat.shape == obs.realized.eigenvectors.shape == (2**n, 2**n)
            assert shapes and set(shapes) <= {(2, 2)}, set(shapes)


def test_qpu_observable_rejects_bad_factors():
    with pytest.raises(ValueError):
        qpu_observable([np.eye(3)])
    with pytest.raises(ValueError):
        qpu_observable([])
    with pytest.raises(ValueError):
        qpu_observable([np.array([[0.0, 1.0], [0.0, 0.0]])])


def test_standard_observable_separates_all_outcomes():
    for n in (1, 2, 3, 4):
        obs = standard_observable(n)
        labels = obs.eigen_labels
        assert len(set(labels.tolist())) == 2**n
    with pytest.raises(ValueError):
        standard_observable(0)
    with pytest.raises(ValueError):
        standard_observable(17)


def test_standard_observable_measures_basis_states_deterministically():
    """In basis state k the register observable shows label(k) with prob 1."""
    for n in (1, 2, 3, 4):
        obs = standard_observable(n)
        for k in range(2**n):
            rho = pure_state(basis_vector(k, n))
            lw = {v: p for v, p in zip(*_law_pairs(obs.realized, rho))}
            assert lw[obs.eigen_labels[k]] == pytest.approx(1.0, abs=1e-9)


def _law_pairs(observable, rho):
    from qsim.algprob import law

    lw = law(observable, rho)
    return lw.values(), lw.probabilities()


def test_liouville_solve_rejects_a_time_that_is_not_finite():
    """A NaN or infinite t is bad input, a ValueError, not a numerical fault."""
    rho = udqc(2).rho0
    h = np.diag([1.0, 2.0, 3.0, 4.0])
    for t in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"^t must be finite, got {t!r}$"):
            liouville_solve(h, rho, t)
    # A complex or string t is no time either: the same ValueError family,
    # not the internal-fault ArithmeticError.
    for t, kind in ((1 + 1j, "complex"), ("1", "str"), (True, "bool")):
        with pytest.raises(ValueError, match=rf"^t must be real numbers, got \['{kind}'\]$"):
            liouville_solve(h, rho, t)


def test_udqc_initial_state_is_all_zeros():
    machine = udqc(3)
    assert machine.n == 3
    assert validate_state(machine.rho0) == 1
    # |000> has label 0 and flat position 0.
    assert machine.rho0.mat[0, 0] == pytest.approx(1.0)
    dist = basis_distribution(machine.rho0)
    assert dist[0] == pytest.approx(1.0)
    assert np.max(dist[1:]) < 1e-14


def test_udqc_builds_its_observable_only_when_read(monkeypatch):
    calls = []

    def counting(n):
        calls.append(n)
        return standard_observable(n)

    monkeypatch.setattr(qpu, "standard_observable", counting)
    machine = udqc(3)
    assert calls == []
    assert np.array_equal(
        machine.observable.eigen_labels, standard_observable(3).eigen_labels
    )
    assert calls == [3]


def test_udqc_checks_the_qubit_count_before_building_a_state(monkeypatch):
    def no_state(psi):
        raise AssertionError("udqc built a state for an invalid qubit count")

    monkeypatch.setattr(qpu, "pure_state", no_state)
    for n in (0, 17):
        with pytest.raises(ValueError):
            udqc(n)


# --- distributions over outcomes ---------------------------------------------


def test_basis_distribution_uses_label_order():
    # Pure state on flat position 4 = bits (1,0,0) = label 1.
    rho = pure_state(basis_vector(1, 3))
    dist = basis_distribution(rho)
    assert dist[1] == pytest.approx(1.0)
    assert sum(dist) == pytest.approx(1.0)


def test_vector_distribution_pins():
    psi = np.zeros(8, dtype=complex)
    psi[4] = 1.0  # flat 4 = bits (1,0,0) = label 1
    dist = vector_distribution(psi)
    assert dist[1] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        vector_distribution(np.ones(3) / math.sqrt(3))


def test_distributions_reject_what_is_not_a_law():
    """A negative, NaN or unnormalized diagonal, and a vector off the unit
    sphere, raise instead of being clipped into something law-shaped."""

    def state(*diag):
        return DensityMatrix(np.diag(diag).astype(complex))

    for rho, condition in (
        (state(1.5, -0.5), "eigenvalues"),
        (state(np.nan, 1.0), "eigenvalues"),
        (state(0.3, 0.3), "trace"),
    ):
        with pytest.raises(StateValidationError) as err:
            basis_distribution(rho)
        assert err.value.condition == condition
    for psi, condition in (
        ([3.0, 4.0], "trace"),
        ([np.nan, 0.0], "eigenvalues"),
        ([np.inf, 0.0], "eigenvalues"),
    ):
        with pytest.raises(StateValidationError) as err:
            vector_distribution(psi)
        assert err.value.condition == condition
    # Rounding noise within the floor clamps to zero, as in a law.
    assert np.array_equal(basis_distribution(state(1.0, -1e-13)), [1.0, 0.0])


def test_distributions_read_a_power_of_two_dimension():
    for law, arg in ((basis_distribution, DensityMatrix(np.eye(3) / 3)),
                     (vector_distribution, np.ones(3) / math.sqrt(3))):
        with pytest.raises(ValueError, match="^dimension 3 is not a power of 2$"):
            law(arg)


def test_distributions_agree_on_pure_states():
    rng = np.random.default_rng(81)
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi /= np.linalg.norm(psi)
    a = vector_distribution(psi)
    b = basis_distribution(pure_state(psi))
    assert np.max(np.abs(a - b)) < 1e-12


# --- time evolution ---------------------------------------------------------


def test_time_zero_is_identity_evolution():
    rng = np.random.default_rng(100)
    h = random_hermitian(rng, 4)
    rho = DensityMatrix(np.eye(4) / 4.0)
    out = liouville_solve(h, rho, 0.0)
    assert np.max(np.abs(out.mat - rho.mat)) < 1e-14


def test_time_derivative_matches_commutator():
    """Central difference (rho(h) - rho(-h)) / 2h against -i[H, rho] at t=0."""
    rng = np.random.default_rng(101)
    for rank in (1, 2):
        h = random_hermitian(rng, 4)
        rho0 = _random_low_rank_state(rng, 4, rank)
        step = 1e-5
        plus = liouville_solve(h, rho0, step).mat
        minus = liouville_solve(h, rho0, -step).mat
        fd = (plus - minus) / (2.0 * step)
        commutator = -1j * (h @ rho0.mat - rho0.mat @ h)
        assert np.max(np.abs(fd - commutator)) < 1e-6


def _random_low_rank_state(rng, n, rank):
    weights = rng.random(rank)
    weights /= weights.sum()
    mat = np.zeros((n, n), dtype=np.complex128)
    for w in weights:
        psi = rng.normal(size=n) + 1j * rng.normal(size=n)
        psi /= np.linalg.norm(psi)
        mat += w * np.outer(psi, psi.conj())
    return DensityMatrix(mat)


def test_time_evolution_group_property():
    rng = np.random.default_rng(102)
    h = random_hermitian(rng, 4)
    rho0 = _random_low_rank_state(rng, 4, 2)
    one = liouville_solve(h, liouville_solve(h, rho0, 0.4), 0.7)
    two = liouville_solve(h, rho0, 1.1)
    assert np.max(np.abs(one.mat - two.mat)) < 1e-10


def test_time_evolution_preserves_invariants_along_trajectory():
    rng = np.random.default_rng(103)
    for rank in (1, 2):
        h = random_hermitian(rng, 4)
        rho0 = _random_low_rank_state(rng, 4, rank)
        for t in np.linspace(-2.0, 2.0, 10):
            rho_t = liouville_solve(h, rho0, float(t))
            assert validate_state(rho_t) == rank
            assert complex(np.trace(rho_t.mat)) == pytest.approx(1.0, abs=1e-10)
            assert is_hermitian(rho_t.mat, 1e-10)


def test_time_evolution_matches_direct_conjugation():
    rng = np.random.default_rng(104)
    h = random_hermitian(rng, 4)
    rho0 = _random_low_rank_state(rng, 4, 2)
    t = 0.83
    u = unitary_from_hamiltonian(h, t)
    want = u @ rho0.mat @ u.conj().T
    assert np.max(np.abs(liouville_solve(h, rho0, t).mat - want)) < 1e-12


def test_liouville_solve_checks_the_unitary_once(monkeypatch):
    """exp(-itH) passes is_unitary once, in unitary_from_hamiltonian, and
    conjugates the state bit for bit as conjugate would."""
    from qsim import algprob, linalg

    rng = np.random.default_rng(105)
    for dim in (2, 16, 128):
        h = random_hermitian(rng, dim)
        rho0 = _random_low_rank_state(rng, dim, 2)
        want = algprob.conjugate(rho0.mat, unitary_from_hamiltonian(h, 0.61))
        calls = []
        for module in (linalg, algprob):
            f = module.is_unitary
            monkeypatch.setattr(module, "is_unitary",
                                lambda u, *args, f=f: calls.append(np.shape(u)) or f(u, *args))
        got = liouville_solve(h, rho0, 0.61)
        monkeypatch.undo()
        assert calls == [(dim, dim)]
        assert got.mat.tobytes() == want.tobytes()
    with pytest.raises(ValueError, match=r"^dimension mismatch: 4 vs 2$"):
        liouville_solve(random_hermitian(rng, 4), DensityMatrix(np.eye(2) / 2.0), 0.3)


# --- the raw generator ---------------------------------------------------------


def _mix64_reference(z):
    """Sequential scalar oracle for the 64-bit finalizer."""
    mask = (1 << 64) - 1
    z &= mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def test_generator_seed_zero_reference_values():
    """First outputs for seed 0, as published for this generator."""
    out = splitmix64_stream(0, 3)
    assert int(out[0]) == 0xE220A8397B1DCDAF
    assert int(out[1]) == 0x6E789E6AA1B965F4
    assert int(out[2]) == 0x06C45D188009454F


def test_generator_matches_sequential_oracle():
    mask = (1 << 64) - 1
    for seed in (0, 1, 42, 2**63 + 11, -17):
        got = splitmix64_stream(seed, 64)
        state = seed & mask
        for i in range(64):
            state = (state + 0x9E3779B97F4A7C15) & mask
            assert int(got[i]) == _mix64_reference(state), (seed, i)


def test_generator_rejects_negative_count():
    with pytest.raises(ValueError, match="^count must be at least 0, got -1$"):
        splitmix64_stream(0, -1)
    with pytest.raises(ValueError, match="^shots must be at least 0, got -1$"):
        inverse_cdf_counts([0.5, 0.5], -1, 0)


@pytest.mark.parametrize(
    "probabilities,match",
    [
        ([], "nonempty 1-D"),
        ([[0.5, 0.5]], "nonempty 1-D"),
        ([0.5, math.nan], r"^probability nan at index 1 is negative or not finite$"),
        ([-0.25, 1.25], r"^probability -0.25 at index 0 is negative or not finite$"),
    ],
)
def test_cdf_rejects_what_is_not_a_probability_vector(probabilities, match):
    with pytest.raises(ValueError, match=match):
        qrng.cdf(probabilities)


def test_chunk_streams_continue_the_unchunked_stream():
    """The stream seeded with s + j * GOLDEN_GAMMA is seed s's stream from output j."""
    for seed in (0, 5, -17, 2**64 - 1):
        whole = splitmix64_stream(seed, 96)
        for j in (0, 1, 31, 64):
            assert np.array_equal(splitmix64_stream(seed + j * GOLDEN_GAMMA, 96 - j), whole[j:])


def test_the_last_step_keeps_the_bucket_bits():
    """x ^= x >> 31 leaves the top 31 bits, so the top 16 (the bucket) can
    be read before it; the value before it is y ^ (y >> 31) ^ (y >> 62)."""
    g = np.random.default_rng(30)
    edges = np.array([0, 2**64 - 1, 2**63, 2**33 - 1], dtype=np.uint64)
    for x in (g.integers(0, 2**64, size=10**5, dtype=np.uint64, endpoint=False), edges):
        last = x ^ (x >> np.uint64(31))
        assert np.array_equal(last >> np.uint64(33), x >> np.uint64(33))
        assert np.array_equal(_before_last_step(last), x)


def test_premix_and_the_last_step_are_the_stream():
    """The mixer, seeded at a chunk's start, then finished, gives that
    chunk of splitmix64_stream."""
    count = 40
    steps = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(GOLDEN_GAMMA)
    for seed in (0, -17, 2**64 - 1):
        whole = splitmix64_stream(seed, 2**16 - 1 + count)
        for start in (0, 1, 2**16 - 1):
            out, spare = np.empty(count, dtype=np.uint64), np.empty(count, dtype=np.uint64)
            qrng.splitmix64_premix(seed + start * GOLDEN_GAMMA, steps, out, spare)
            out ^= out >> np.uint64(31)
            assert np.array_equal(out, whole[start : start + count]), (seed, start)


def test_uniforms_range_and_top_bits_rule():
    """A draw reads the uniform u = (x >> 11) * 2^-53 of stream output x, in
    [0, 1): over 2^k equal masses, whose cdf is exact, it is the top k bits
    of x, and no draw is clipped."""
    raw = splitmix64_stream(12345, 10000)
    for k in (1, 8, 16):
        p = np.full(2**k, 2.0**-k)
        want = raw >> np.uint64(64 - k)
        assert np.array_equal(inverse_cdf_sample(p, 10000, 12345), want), k


# --- sampling -------------------------------------------------------------------


def _draws_reference(probabilities, seed, count):
    """docs/PRNG.md in pure Python: first i with u < cdf[i], else the last i."""
    cdf = list(itertools.accumulate(float(p) for p in probabilities))
    draws = []
    for i in range(count):
        u = (_mix64_reference(seed + (i + 1) * 0x9E3779B97F4A7C15) >> 11) * 2.0**-53
        draws.append(min(bisect.bisect_right(cdf, u), len(cdf) - 1))
    return draws


def _random_law(g, n, zero_fraction=0.0):
    p = g.random(2**n)
    p[g.random(2**n) < zero_fraction] = 0.0
    p[g.integers(2**n)] += 0.5
    return p / p.sum()


def _per_draw_counts(probabilities, shots, seed):
    return np.bincount(inverse_cdf_sample(probabilities, shots, seed), minlength=len(probabilities))


def test_counts_equal_the_per_draw_rule_and_the_reference():
    g = np.random.default_rng(12)
    for n in range(1, 13):
        p = _random_law(g, n, zero_fraction=0.25)
        for seed in (0, 7, -3, 2**63 + 1):
            for shots in (1, 64, 5000):
                got = inverse_cdf_counts(p, shots, seed)
                assert np.array_equal(got, _per_draw_counts(p, shots, seed)), (n, seed, shots)
                if shots == 64:
                    ref = np.bincount(_draws_reference(p, seed, shots), minlength=len(p))
                    assert np.array_equal(got, ref), (n, seed)
                shots_result = sample(law_over_labels(p), shots, seed)
                assert shots_result.counts == dict(enumerate(got.tolist()))


def test_counts_at_the_benchmark_shape():
    """10^6 shots at n = 10 and 12, as one synth_sample op draws."""
    g = np.random.default_rng(51)
    for n in (10, 12):
        p = _random_law(g, n, zero_fraction=0.15)
        for seed in (51, 2**63 + 5):
            got = inverse_cdf_counts(p, 10**6, seed)
            assert np.array_equal(got, _per_draw_counts(p, 10**6, seed)), (n, seed)


def _quarter_law():
    """BUCKETS/4 - 1 outcomes of mass 1/BUCKETS, then the rest: as many
    boundary buckets as the bucket count allows, holding a quarter of the
    draws."""
    return np.array([1.0 / BUCKETS] * (BUCKETS // 4 - 1) + [0.75 + 1.0 / BUCKETS])


@pytest.mark.parametrize(
    "shots",
    [SORT_CHUNK - 1, SORT_CHUNK, SORT_CHUNK + 1, 3 * SORT_CHUNK + 5, SHOT_CHUNK - 1, SHOT_CHUNK + 1],
)
def test_counts_across_chunk_boundaries(shots):
    """Bucketed at n = 6; at n = 16 every bucket holds a cdf value and every
    draw is kept, so the sort chunk's seams are crossed too."""
    for n in (6, 16):
        p = _random_law(np.random.default_rng(shots), n, zero_fraction=0.25)
        got = inverse_cdf_counts(p, shots, 2026)
        assert got.sum() == shots
        assert np.array_equal(got, _per_draw_counts(p, shots, 2026)), n


def test_counts_with_small_chunks_equal_one_pass(monkeypatch):
    """Chunk sizes are read at call time: with 7-draw stream chunks and
    5 kept draws per sort, every seam is crossed many times."""
    laws = (_random_law(np.random.default_rng(3), 4, zero_fraction=0.25), _quarter_law(),
            _random_law(np.random.default_rng(4), 15))
    shot_counts = [*range(1, 40), 200]
    whole = [[inverse_cdf_counts(p, shots, 11) for shots in shot_counts] for p in laws]
    monkeypatch.setattr(qrng, "SHOT_CHUNK", 7)
    monkeypatch.setattr(qrng, "SORT_CHUNK", 5)
    for p, want in zip(laws, whole):
        for shots, one_pass in zip(shot_counts, want):
            got = inverse_cdf_counts(p, shots, 11)
            assert np.array_equal(got, one_pass), shots
            assert np.array_equal(got, _per_draw_counts(p, shots, 11)), shots


@pytest.mark.parametrize(
    "p",
    [
        [0.25, 0.0, 0.25, 0.5],
        [0.5, 0.5],
        [2.0**-8] * 2**8,
        [2.0**-16] * 2**16,  # a cdf value on every bucket edge
        _quarter_law(),
        [0.0] * 100 + [0.3, 0.7] + [0.0] * 100,  # leading and trailing zeros
        [0.2] * 4 + [0.2 - 1e-12],  # the cdf ends just below 1
        [0.2] * 4 + [0.2 + 1e-9],  # ... and just above 1
        [0.5, 0.75, 0.0],  # ... and well past 1
        [3.0, 1e300],
        [1.0],
        [1.0] + [0.0] * 9,
        [0.0] * 9 + [1.0],
        _random_law(np.random.default_rng(16), 16),  # more than BUCKETS / 4 limits
        _random_law(np.random.default_rng(17), 17, zero_fraction=0.5),
    ],
    ids=lambda p: f"len{len(p)}",
)
def test_counts_on_bucket_edges_and_at_the_ends_of_the_cdf(p):
    for seed in (0, 42, 2**64 - 1):
        for shots in (1, 7, 2**16 + 1, 300_001):
            got = inverse_cdf_counts(p, shots, seed)
            assert np.array_equal(got, _per_draw_counts(p, shots, seed)), (seed, shots)


def test_counts_memory_is_bounded_by_the_chunks():
    """3 * 2^20 + 5 shots at n = 12 hold a stream chunk, the kept draws and
    the bucket arrays: about 12 MiB, where sorting every draw in 2^20-draw
    chunks held 24 MiB."""
    p = _random_law(np.random.default_rng(12), 12, zero_fraction=0.25)
    tracemalloc.start()
    try:
        inverse_cdf_counts(p, 3 * 2**20 + 5, 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


def test_counts_with_zero_outcomes_up_to_16_qubits():
    g = np.random.default_rng(16)
    for n in (13, 14, 16):
        p = _random_law(g, n, zero_fraction=0.9)
        got = inverse_cdf_counts(p, 30000, n)
        assert np.array_equal(got, _per_draw_counts(p, 30000, n))
        assert not got[p == 0.0].any()
    point = np.zeros(2**16)
    point[12345] = 1.0
    assert sample(law_over_labels(point), 1000, 1).counts[12345] == 1000


def _before_last_step(y):
    """The value whose last splitmix64 step, x ^= x >> 31, gives y."""
    return y ^ (y >> np.uint64(31)) ^ (y >> np.uint64(62))


def _inject_outputs(monkeypatch, bits):
    """Make every stream's outputs `bits`, through the mixer that both
    inverse_cdf_counts and splitmix64_stream call."""
    pre = _before_last_step(bits)
    monkeypatch.setattr(qrng, "splitmix64_premix",
                        lambda seed, steps, out, spare: np.copyto(out, pre[: len(out)]))


def test_counts_on_ties_and_past_the_last_cdf_value(monkeypatch):
    """Uniforms on a dyadic law's cdf go to the next outcome with mass; those
    at or past cdf[-1] go to the last outcome."""
    p = [0.25, 0.0, 0.25, 0.25]  # cdf 0.25, 0.25, 0.5, 0.75: a 0.25 shortfall
    u = np.array([0.0, 0.25, 0.25, 0.5, 0.75, 0.9, 0.1, 0.74, 0.5 - 2.0**-53])
    bits = (u * 2.0**53).astype(np.uint64) << np.uint64(11)  # outputs whose uniforms are u
    _inject_outputs(monkeypatch, bits)
    want = [2, 0, 3, 4]  # draws 0 0 | 2 2 2 | 3 3 3 3
    assert inverse_cdf_counts(p, len(u), 0).tolist() == want
    assert np.bincount(inverse_cdf_sample(p, len(u), 0), minlength=4).tolist() == want


def test_counts_next_to_a_cdf_value_off_the_uniform_grid(monkeypatch):
    """0.1 * 2^53 is not an integer: the uniforms on either side of 0.1 go
    to either side of it."""
    m = math.floor(0.1 * 2.0**53)
    bits = np.array([m - 1, m, m + 1, m + 2], dtype=np.uint64) << np.uint64(11)
    _inject_outputs(monkeypatch, bits)
    assert inverse_cdf_counts([0.1, 0.9], 4, 0).tolist() == [2, 2]
    assert inverse_cdf_sample([0.1, 0.9], 4, 0).tolist() == [0, 0, 1, 1]


@pytest.mark.parametrize(
    "probabilities,match",
    [
        ([0.5, -0.2, 0.7], "negative or not finite"),
        ([math.nan, 0.5, 0.5], "negative or not finite"),
        ([0.5, math.inf, 0.5], "negative or not finite"),
        ([0.2, 0.2, 0.2], "sum to 0.6"),
    ],
)
def test_sample_rejects_laws_that_are_not_distributions(probabilities, match):
    with pytest.raises(ValueError, match=match):
        sample(law_over_labels(probabilities), 1000, 0)


def test_sample_reads_a_law_as_law_probabilities_does():
    """Rounding noise below zero is clamped, not rejected: the law that
    law_probabilities makes [1, 0] draws every shot on outcome 0."""
    p = [1 + 5e-13, -5e-13]
    assert law_probabilities(p).tolist() == [1.0, 0.0]
    assert sample(law_over_labels(p), 10, 0).counts == {0: 10, 1: 0}


def test_sample_is_deterministic_per_seed():
    lw = law_over_labels([0.1, 0.2, 0.3, 0.4])
    a = sample(lw, 4096, 42)
    b = sample(lw, 4096, 42)
    assert a.counts == b.counts
    c = sample(lw, 4096, 43)
    assert a.counts != c.counts


def test_sample_point_mass_law():
    result = sample(law_over_labels([0.0, 1.0, 0.0]), 100, 7)
    assert result.counts == {0: 0, 1: 100, 2: 0}
    assert result.shots == 100
    assert result.seed == 7


def test_sample_reports_every_outcome_index():
    result = sample(law_over_labels([0.999, 0.001]), 10, 3)
    assert set(result.counts) == {0, 1}
    assert sum(result.counts.values()) == 10


def test_sample_rejects_empty_and_no_shots():
    with pytest.raises(ValueError):
        sample([], 5, 0)
    with pytest.raises(ValueError, match="^shots must be at least 1, got 0$"):
        sample(law_over_labels([1.0]), 0, 0)
    with pytest.raises(ValueError, match="^shots must be at most 100000000, got 100000001$"):
        sample(law_over_labels([1.0]), qpu.MAX_SHOTS + 1, 0)


def test_seed_and_shots_are_integers_by_one_rule():
    """A numpy seed draws the counts of the equal Python int at any shot
    count, past the first 2^16-draw chunk too; a bool or a float is no seed
    and no shot count."""
    p = law_over_labels([0.1, 0.2, 0.3, 0.4])
    seeds = [(5, (np.int64, np.uint64)), (2**63 + 11, (np.uint64,)), (-17, (np.int64,))]
    for shots in (1000, 100_000):
        for seed, kinds in seeds:
            want = sample(p, shots, seed).counts
            for kind in kinds:
                got = sample(p, np.int64(shots), kind(seed))
                assert got.counts == want and type(got.seed) is int, (shots, seed, kind)
                counts = inverse_cdf_counts(p, shots, kind(seed))
                assert counts.tolist() == list(want.values())
    for bad in (True, np.bool_(True), 2048.0, np.float64(5.0), "5", None):
        with pytest.raises(ValueError, match="^shots must be an integer, got "):
            sample(p, bad, 0)
        with pytest.raises(ValueError, match="^seed must be an integer, got "):
            sample(p, 10, bad)
        with pytest.raises(ValueError, match="^seed must be an integer, got "):
            splitmix64_stream(bad, 4)


def test_sample_frequencies_within_binomial_noise():
    """5-sigma band around p for each of 8 outcomes at 80000 shots."""
    probs = np.array([1, 3, 5, 7, 7, 5, 3, 1], dtype=float) / 32.0
    shots = 80000
    result = sample(law_over_labels(probs), shots, 2026)
    freqs = result.frequencies()
    for k, p in enumerate(probs):
        sigma = math.sqrt(p * (1 - p) / shots)
        assert abs(freqs[k] - p) < 5.0 * sigma, (k, freqs[k], p)


def test_sample_converges_with_many_shots():
    probs = np.array([0.15, 0.35, 0.05, 0.45])
    result = sample(law_over_labels(probs), 1_000_000, 9)
    freqs = result.frequencies()
    assert max(abs(freqs[k] - probs[k]) for k in range(4)) < 1e-2


def test_shot_result_frequencies():
    r = ShotResult(counts={0: 25, 1: 75}, shots=100, seed=0)
    assert r.frequencies() == {0: 0.25, 1: 0.75}


def test_law_over_labels_structure():
    """A law over labels is its checked probability array: entry k is the
    probability of label k."""
    for p in ([0.5, 0.5], [1 + 5e-13, -5e-13], np.array([0.25, 0.0, 0.75])):
        lw = law_over_labels(p)
        assert isinstance(lw, np.ndarray) and lw.dtype == np.float64
        assert np.array_equal(lw, law_probabilities(p))
    assert law_over_labels([1 + 5e-13, -5e-13]).tolist() == [1.0, 0.0]
    with pytest.raises(ValueError, match="sum to 0.6"):
        law_over_labels([0.2, 0.2, 0.2])


def test_sample_takes_a_list_a_tuple_or_an_array():
    p = [0.1, 0.2, 0.3, 0.4]
    want = sample(np.array(p), 4096, 5).counts
    assert sample(p, 4096, 5).counts == want
    assert sample(tuple(p), 4096, 5).counts == want
    assert want == dict(enumerate(inverse_cdf_counts(p, 4096, 5).tolist()))


def test_sample_draws_from_an_observable_law():
    """Counts are keyed by the outcome's index in law.outcomes, not by its
    value: here the values are the eigenvalues -1 and 3."""
    from qsim.algprob import Observable, law

    a = Observable(np.diag([3.0, -1.0, 3.0, 3.0]))
    rho = pure_state(np.array([0.5, 0.5, 0.5, 0.5]))
    lw = law(a, rho)
    assert lw.values() == pytest.approx([-1.0, 3.0])
    result = sample(lw.probabilities(), 40000, 8)
    assert set(result.counts) == {0, 1} and sum(result.counts.values()) == 40000
    assert result.counts == dict(enumerate(inverse_cdf_counts([0.25, 0.75], 40000, 8).tolist()))
    assert abs(result.frequencies()[0] - 0.25) < 0.01


@pytest.mark.parametrize(
    "probabilities", [(), np.zeros(0), [[0.5, 0.5]], np.full((2, 2), 0.25)]
)
def test_sample_rejects_empty_and_2d_probabilities(probabilities):
    """Empty and 2-D inputs; test_sample_rejects_empty_and_no_shots has []."""
    with pytest.raises(ValueError):
        sample(probabilities, 5, 0)


@settings(deadline=None, max_examples=20)
@given(
    st.integers(min_value=-(2**62), max_value=2**62),
    st.integers(min_value=1, max_value=2000),
)
def test_sample_counts_always_total_shots(seed, shots):
    lw = law_over_labels([0.25, 0.5, 0.25])
    result = sample(lw, shots, seed)
    assert sum(result.counts.values()) == shots
