"""Tests for the register model: encodings, observables, evolution, sampling.

Endianness is the heart of this module and every pin below spells it out:
outcome labels are little-endian in the wire bits (k = sum z_i 2^(i-1)),
while flat tensor positions are big-endian (wire 1 is the leftmost, hence
most significant, Kronecker factor).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsim.algprob import DensityMatrix, Observable, pure_state, validate_state
from qsim.linalg import is_hermitian, unitary_from_hamiltonian
from qsim.qpu import (
    ShotResult,
    basis_distribution,
    basis_vector,
    decode,
    encode,
    evolve,
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
from qsim.rng import splitmix64_stream, uniforms


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


def test_tensor_index_pins():
    # Wire 1 is the leftmost Kronecker factor = most significant position
    # bit, so bits [1, 0, 0] sit at flat position 4, not 1.
    assert tensor_index([1, 0, 0]) == 4
    assert tensor_index([0, 0, 1]) == 1
    assert tensor_index([1, 1, 0]) == 6
    assert tensor_index([0, 1]) == 1
    with pytest.raises(ValueError):
        tensor_index([])


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


def test_udqc_initial_state_is_all_zeros():
    machine = udqc(3)
    assert machine.n == 3
    assert validate_state(machine.rho0) == 1
    # |000> has label 0 and flat position 0.
    assert machine.rho0.mat[0, 0] == pytest.approx(1.0)
    dist = basis_distribution(machine.rho0)
    assert dist[0] == pytest.approx(1.0)
    assert np.max(dist[1:]) < 1e-14


def test_udqc_rejects_mismatched_factor_count():
    with pytest.raises(ValueError):
        udqc(3, factors=[np.diag([1.0, 2.0])] * 2)


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


def test_distributions_agree_on_pure_states():
    rng = np.random.default_rng(81)
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi /= np.linalg.norm(psi)
    a = vector_distribution(psi)
    b = basis_distribution(pure_state(psi))
    assert np.max(np.abs(a - b)) < 1e-12


# --- evolution -----------------------------------------------------------------


def test_evolve_identity_fixes_state():
    rng = np.random.default_rng(90)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    rho = pure_state(psi)
    assert np.array_equal(evolve(np.eye(4), rho).mat, rho.mat)


def test_evolve_requires_unitary_and_matching_dim():
    rho = DensityMatrix(np.eye(2) / 2.0)
    with pytest.raises(ValueError):
        evolve(np.eye(2) * 2.0, rho)
    with pytest.raises(ValueError):
        evolve(np.eye(4), rho)


def test_evolve_preserves_rank_and_undoes_with_adjoint():
    rng = np.random.default_rng(91)
    q, r = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    rho = DensityMatrix(np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex))
    moved = evolve(u, rho)
    assert validate_state(moved) == 2
    back = evolve(u.conj().T, moved)
    assert np.max(np.abs(back.mat - rho.mat)) < 1e-12


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
    with pytest.raises(ValueError):
        splitmix64_stream(0, -1)


def test_uniforms_range_and_top_bits_rule():
    u = uniforms(12345, 10000)
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    raw = splitmix64_stream(12345, 4)
    want = [(int(x) >> 11) * 2.0**-53 for x in raw]
    assert np.allclose(uniforms(12345, 4), want, atol=0.0)


# --- sampling -------------------------------------------------------------------


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
    from qsim.algprob import Law

    with pytest.raises(ValueError):
        sample(Law(outcomes=()), 5, 0)
    with pytest.raises(ValueError):
        sample(law_over_labels([1.0]), 0, 0)


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
    lw = law_over_labels([0.5, 0.5])
    assert lw.values() == [0.0, 1.0]
    assert lw.probabilities() == [0.5, 0.5]


@settings(deadline=None, max_examples=20)
@given(
    st.integers(min_value=-(2**62), max_value=2**62),
    st.integers(min_value=1, max_value=2000),
)
def test_sample_counts_always_total_shots(seed, shots):
    lw = law_over_labels([0.25, 0.5, 0.25])
    result = sample(lw, shots, seed)
    assert sum(result.counts.values()) == shots
