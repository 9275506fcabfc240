"""Tests for elementary gates, circuits, and the text serialization.

Gate realizations are pitted against independent constructions: explicit
Kronecker products, projector sums over all control patterns, and basis
vector chasing. Serialization round trips must be bit-exact because floats
print with 17 significant digits.
"""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsim.algprob import DensityMatrix, pure_state
from qsim.gates import (
    Circuit,
    CircuitParseError,
    ControlledGate,
    SuffixControlledGate,
    TwoLevelGate,
    WireGate,
    apply,
    apply_vector,
    circuit_length,
    control_projector,
    controlled_gate,
    format_circuit,
    format_gate,
    parse_circuit,
    parse_gate,
    realize,
    realize_gate,
    rotation,
    suffix_controlled_gate,
    wire_gate,
)
from qsim.linalg import is_unitary
from qsim.qpu import basis_vector, tensor_index
from qsim.udecomp import Decomposition, k_embed, reconstruct

FLIP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def random_unitary2(rng):
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


# --- rotations -----------------------------------------------------------------


def test_rotation_pins():
    assert np.array_equal(rotation(0.0), np.eye(2))
    quarter = rotation(math.pi / 2)
    # R(pi/2) sends e0 to e1 (column convention [[c, -s], [s, c]]).
    assert np.allclose(quarter @ np.array([1.0, 0.0]), [0.0, 1.0], atol=1e-15)
    assert np.allclose(rotation(0.3) @ rotation(0.4), rotation(0.7), atol=1e-15)
    assert is_unitary(rotation(1.234), 1e-12)


# --- wire gates ------------------------------------------------------------------


def test_wire_gate_single_wire_is_the_block_itself():
    rng = np.random.default_rng(1)
    v = random_unitary2(rng)
    assert np.array_equal(wire_gate(1, 1, v), v)


def test_wire_gate_identity_block_is_identity():
    for n in (1, 2, 3):
        for j in range(1, n + 1):
            assert np.array_equal(wire_gate(n, j, np.eye(2)), np.eye(2**n))


def test_wire_gate_matches_explicit_kron():
    rng = np.random.default_rng(2)
    v = random_unitary2(rng)
    assert np.array_equal(wire_gate(3, 1, v), np.kron(v, np.eye(4)))
    assert np.array_equal(
        wire_gate(3, 2, v), np.kron(np.kron(np.eye(2), v), np.eye(2))
    )
    assert np.array_equal(wire_gate(3, 3, v), np.kron(np.eye(4), v))


def test_wire_gates_on_distinct_wires_commute():
    rng = np.random.default_rng(3)
    u, v = random_unitary2(rng), random_unitary2(rng)
    a = wire_gate(2, 1, u) @ wire_gate(2, 2, v)
    b = wire_gate(2, 2, v) @ wire_gate(2, 1, u)
    assert np.max(np.abs(a - b)) < 1e-14
    assert np.max(np.abs(a - np.kron(u, v))) < 1e-14


def test_wire_gate_moves_probability_on_its_wire_only():
    """Flipping wire 2 of |000> gives |010>: label 2, flat position 2."""
    rho = pure_state(basis_vector(0, 3))
    from qsim.qpu import basis_distribution, evolve

    moved = evolve(wire_gate(3, 2, FLIP), rho)
    dist = basis_distribution(moved)
    assert dist[2] == pytest.approx(1.0)


def test_wire_gate_validation():
    with pytest.raises(ValueError):
        WireGate(n=2, j=3, v=np.eye(2))
    with pytest.raises(ValueError):
        WireGate(n=2, j=0, v=np.eye(2))
    with pytest.raises(ValueError):
        WireGate(n=2, j=1, v=np.eye(2) * 2.0)
    with pytest.raises(ValueError):
        WireGate(n=2, j=1, v=np.eye(3))


# --- control projectors -----------------------------------------------------------


def test_control_projector_routes_matching_basis_states():
    rng = np.random.default_rng(4)
    v = random_unitary2(rng)
    p = control_projector(3, 2, (1, 0), v)
    # Basis state with bits (1, z2, 0) is acted on in the wire-2 slot...
    for z2 in (0, 1):
        vec = np.zeros(8, dtype=complex)
        vec[tensor_index([1, z2, 0])] = 1.0
        out = p @ vec
        want = np.zeros(8, dtype=complex)
        for z2_out in (0, 1):
            want[tensor_index([1, z2_out, 0])] = v[z2_out, z2]
        assert np.max(np.abs(out - want)) < 1e-14
    # ...while any state whose non-target bits miss the pattern is killed.
    for bits in product((0, 1), repeat=3):
        if (bits[0], bits[2]) == (1, 0):
            continue
        vec = np.zeros(8, dtype=complex)
        vec[tensor_index(list(bits))] = 1.0
        assert np.max(np.abs(p @ vec)) < 1e-14


def test_control_projector_allows_non_unitary_blocks():
    block = np.array([[1.0, 2.0], [3.0, 4.0]])
    p = control_projector(2, 1, (0,), block)
    assert p.shape == (4, 4)


def test_control_projectors_with_different_patterns_annihilate():
    """P(z) P(z') = 0 for z != z', for every target and block."""
    rng = np.random.default_rng(5)
    for n in (2, 3):
        for ell in range(1, n + 1):
            patterns = list(product((0, 1), repeat=n - 1))
            for z in patterns:
                for zp in patterns:
                    if z == zp:
                        continue
                    a = control_projector(n, ell, z, random_unitary2(rng))
                    b = control_projector(n, ell, zp, random_unitary2(rng))
                    assert np.max(np.abs(a @ b)) < 1e-12


def test_control_projector_composition_within_one_pattern():
    """P(z, U) P(z, V) = P(z, UV): blocks compose on the matching slice."""
    rng = np.random.default_rng(6)
    u, v = random_unitary2(rng), random_unitary2(rng)
    z = (1,)
    lhs = control_projector(2, 2, z, u) @ control_projector(2, 2, z, v)
    rhs = control_projector(2, 2, z, u @ v)
    assert np.max(np.abs(lhs - rhs)) < 1e-13


# --- controlled gates --------------------------------------------------------------


def test_cnot_pin():
    """Control on wire 2 value 0, flip wire 1: the standard 4x4 matrix."""
    got = controlled_gate(2, 1, [0], FLIP)
    want = np.array(
        [
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [1, 0, 0, 0],
            [0, 0, 0, 1],
        ],
        dtype=complex,
    )
    assert np.array_equal(got, want)


def test_cnot_matches_projector_construction():
    """CC = flip (x) |0><0| + id (x) |1><1| in explicit Kronecker form."""
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    want = np.kron(FLIP, p0) + np.kron(np.eye(2), p1)
    assert np.array_equal(controlled_gate(2, 1, [0], FLIP), want)


def test_controlled_gate_equals_projector_sum_exhaustive():
    """CC_z(U) = P(z, U) + sum_{z' != z} P(z', I), all n <= 3, targets, patterns."""
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        for ell in range(1, n + 1):
            for z in product((0, 1), repeat=n - 1):
                u = random_unitary2(rng)
                want = control_projector(n, ell, z, u)
                for zp in product((0, 1), repeat=n - 1):
                    if zp != z:
                        want = want + control_projector(n, ell, zp, np.eye(2))
                got = controlled_gate(n, ell, z, u)
                assert np.max(np.abs(got - want)) < 1e-12, (n, ell, z)


def test_controlled_gate_identity_block_is_identity():
    for n in (1, 2, 3):
        for ell in range(1, n + 1):
            for z in product((0, 1), repeat=n - 1):
                assert np.array_equal(
                    controlled_gate(n, ell, z, np.eye(2)), np.eye(2**n)
                )


def test_controlled_gate_multiplicative_in_the_block():
    """CC_z(U) CC_z(V) = CC_z(UV) exhaustively for n <= 3."""
    rng = np.random.default_rng(8)
    for n in (1, 2, 3):
        for ell in range(1, n + 1):
            for z in product((0, 1), repeat=n - 1):
                u, v = random_unitary2(rng), random_unitary2(rng)
                lhs = controlled_gate(n, ell, z, u) @ controlled_gate(n, ell, z, v)
                rhs = controlled_gate(n, ell, z, u @ v)
                assert np.max(np.abs(lhs - rhs)) < 1e-12, (n, ell, z)


def test_controlled_gate_adjoint_of_block():
    """CC_z(U)* = CC_z(U*) exhaustively for n <= 3."""
    rng = np.random.default_rng(9)
    for n in (1, 2, 3):
        for ell in range(1, n + 1):
            for z in product((0, 1), repeat=n - 1):
                u = random_unitary2(rng)
                lhs = controlled_gate(n, ell, z, u).conj().T
                rhs = controlled_gate(n, ell, z, u.conj().T)
                assert np.max(np.abs(lhs - rhs)) < 1e-12, (n, ell, z)


def test_controlled_gate_is_unitary():
    rng = np.random.default_rng(10)
    for n in (2, 3):
        for ell in range(1, n + 1):
            for z in product((0, 1), repeat=n - 1):
                assert is_unitary(
                    controlled_gate(n, ell, z, random_unitary2(rng)), 1e-10
                )


def test_controlled_gate_acts_only_on_matching_pair():
    """Away from the two matched indices the matrix is exactly the identity."""
    rng = np.random.default_rng(11)
    n, ell, z = 3, 2, (1, 0)
    u = random_unitary2(rng)
    got = controlled_gate(n, ell, z, u)
    t0 = tensor_index([1, 0, 0])
    t1 = tensor_index([1, 1, 0])
    touched = {(t0, t0), (t0, t1), (t1, t0), (t1, t1)}
    for r in range(8):
        for c in range(8):
            if (r, c) in touched:
                continue
            want = 1.0 if r == c else 0.0
            assert got[r, c] == want


def test_controlled_gate_rejects_what_the_gate_class_rejects():
    u = np.eye(2)
    for args, message in (
        ((3, 4, (0, 0), u), "target 4 out of range for n=3"),
        ((3, 1, (0, 2), u), "control pattern (0, 2) contains non-bits"),
        ((3, 1, (0,), u), "pattern length 1 != n-1 = 2"),
        ((3, 1, (0, 0), 2 * u), "gate block is not unitary within tolerance"),
        ((3, 1, (0, 0), np.eye(3)), "gate block must be 2x2, got (3, 3)"),
    ):
        with pytest.raises(ValueError) as info:
            controlled_gate(*args)
        assert str(info.value) == message


# --- suffix-controlled gates -------------------------------------------------------


def test_suffix_gate_at_final_stage_is_fully_controlled():
    rng = np.random.default_rng(12)
    v = random_unitary2(rng)
    suffix = (1, 0)
    got = suffix_controlled_gate(3, 3, suffix, v)
    assert np.max(np.abs(got - controlled_gate(3, 1, suffix, v))) < 1e-14


def test_suffix_gate_matches_explicit_kron():
    """Leading wires untouched: the matrix is I (x) (controlled block)."""
    rng = np.random.default_rng(13)
    v = random_unitary2(rng)
    got = suffix_controlled_gate(4, 2, (1,), v)
    block = controlled_gate(2, 1, (1,), v)
    assert np.max(np.abs(got - np.kron(np.eye(4), block))) < 1e-14


def test_suffix_gate_basis_action():
    """Acts on wire n-stage+1 iff the trailing stage-1 bits match the suffix."""
    rng = np.random.default_rng(14)
    v = random_unitary2(rng)
    n, stage, suffix = 3, 2, (1,)
    g = suffix_controlled_gate(n, stage, suffix, v)
    target = n - stage + 1  # wire 2
    # Matching state: bits (0, 0, 1); wire 3 carries the suffix bit.
    vec = np.zeros(8, dtype=complex)
    vec[tensor_index([0, 0, 1])] = 1.0
    out = g @ vec
    want = np.zeros(8, dtype=complex)
    want[tensor_index([0, 0, 1])] = v[0, 0]
    want[tensor_index([0, 1, 1])] = v[1, 0]
    assert np.max(np.abs(out - want)) < 1e-14
    # Mismatching state: trailing bit 0 leaves the state alone.
    vec = np.zeros(8, dtype=complex)
    vec[tensor_index([0, 1, 0])] = 1.0
    assert np.max(np.abs(g @ vec - vec)) < 1e-14
    assert SuffixControlledGate(n=n, stage=stage, suffix=suffix, v=v).target == 2


def test_suffix_gate_validation():
    with pytest.raises(ValueError):
        SuffixControlledGate(n=3, stage=1, suffix=(), v=np.eye(2))
    with pytest.raises(ValueError):
        SuffixControlledGate(n=3, stage=4, suffix=(1, 1, 1), v=np.eye(2))
    with pytest.raises(ValueError):
        SuffixControlledGate(n=3, stage=2, suffix=(1, 0), v=np.eye(2))


# --- two-level gates -----------------------------------------------------------------


def test_two_level_gate_realization_pin():
    rng = np.random.default_rng(15)
    v = random_unitary2(rng)
    got = realize_gate(TwoLevelGate(dim=4, i=2, j=4, v=v))
    want = np.eye(4, dtype=complex)
    want[1, 1], want[1, 3] = v[0, 0], v[0, 1]
    want[3, 1], want[3, 3] = v[1, 0], v[1, 1]
    assert np.array_equal(got, want)


def test_two_level_gate_validation():
    with pytest.raises(ValueError):
        TwoLevelGate(dim=4, i=3, j=3, v=np.eye(2))
    with pytest.raises(ValueError):
        TwoLevelGate(dim=4, i=0, j=2, v=np.eye(2))
    with pytest.raises(ValueError):
        TwoLevelGate(dim=4, i=1, j=5, v=np.eye(2))


# --- circuits -------------------------------------------------------------------------


def test_realize_multiplies_in_reverse_order():
    """gates[0] acts first, so the matrix is gates[-1] @ ... @ gates[0]."""
    rng = np.random.default_rng(16)
    gs = [
        WireGate(n=2, j=1, v=random_unitary2(rng)),
        WireGate(n=2, j=2, v=random_unitary2(rng)),
        ControlledGate(n=2, target=1, pattern=(1,), v=random_unitary2(rng)),
    ]
    c = Circuit(n=2, gates=tuple(gs))
    mats = [realize_gate(g) for g in gs]
    want = mats[2] @ mats[1] @ mats[0]
    assert np.max(np.abs(realize(c) - want)) < 1e-13


def test_empty_circuit_is_identity():
    c = Circuit(n=2)
    assert circuit_length(c) == 0
    assert np.array_equal(realize(c), np.eye(4))


def test_apply_agrees_with_realize_then_evolve():
    rng = np.random.default_rng(17)
    gs = tuple(
        WireGate(n=2, j=(i % 2) + 1, v=random_unitary2(rng)) for i in range(4)
    )
    c = Circuit(n=2, gates=gs)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    rho = pure_state(psi)
    step_by_step = apply(c, rho)
    u = realize(c)
    assert np.max(np.abs(step_by_step.mat - u @ rho.mat @ u.conj().T)) < 1e-12
    assert np.max(np.abs(apply_vector(c, psi) - u @ psi)) < 1e-12


# --- the pair kernel against the dense oracle ----------------------------------------

KINDS = ("wire", "controlled", "suffix", "two-level")
KERNEL_CASES = [
    (kind, n) for kind in KINDS for n in range(1, 5) if (kind, n) != ("suffix", 1)
]


def random_gate(kind, n, rng):
    v = random_unitary2(rng)
    if kind == "wire":
        return WireGate(n=n, j=int(rng.integers(1, n + 1)), v=v)
    if kind == "controlled":
        target = int(rng.integers(1, n + 1))
        pattern = tuple(int(b) for b in rng.integers(0, 2, n - 1))
        return ControlledGate(n=n, target=target, pattern=pattern, v=v)
    if kind == "suffix":
        stage = int(rng.integers(2, n + 1))
        suffix = tuple(int(b) for b in rng.integers(0, 2, stage - 1))
        return SuffixControlledGate(n=n, stage=stage, suffix=suffix, v=v)
    i, j = sorted(int(k) + 1 for k in rng.choice(2**n, size=2, replace=False))
    return TwoLevelGate(dim=2**n, i=i, j=j, v=v)


def random_mixed_state(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return DensityMatrix(m / np.trace(m).real)


@pytest.mark.parametrize("kind,n", KERNEL_CASES)
def test_kernel_matches_dense_oracle_and_leaves_inputs_alone(kind, n):
    """Vectors and full complex density matrices, one gate at a time; the
    matrix case pins that both rows of a pair are read before either is
    written."""
    rng = np.random.default_rng([19, KINDS.index(kind), n])
    dim = 2**n
    for _ in range(8):
        g = random_gate(kind, n, rng)
        c = Circuit(n=n, gates=(g,))
        u = realize_gate(g)
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi_before = psi.copy()
        assert np.max(np.abs(apply_vector(c, psi) - u @ psi)) < 1e-12
        assert np.array_equal(psi, psi_before)
        rho = random_mixed_state(rng, dim)
        rho_before = rho.mat.copy()
        got = apply(c, rho).mat
        assert np.max(np.abs(got - u @ rho.mat @ u.conj().T)) < 1e-12
        assert np.array_equal(rho.mat, rho_before)
    c = Circuit(n=n, gates=tuple(random_gate(kind, n, rng) for _ in range(6)))
    u = realize(c)
    rho = random_mixed_state(rng, dim)
    assert np.max(np.abs(apply(c, rho).mat - u @ rho.mat @ u.conj().T)) < 1e-12


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 8, 16])
def test_reconstruct_matches_product_of_k_embed_factors(dim):
    rng = np.random.default_rng([21, dim])
    factors = []
    for _ in range(3 * dim):
        i, j = sorted(int(k) + 1 for k in rng.choice(dim, size=2, replace=False))
        factors.append(TwoLevelGate(dim=dim, i=i, j=j, v=random_unitary2(rng)))
    want = np.eye(dim, dtype=complex)
    for f in factors:
        want = k_embed(dim, f.i, f.j, f.v) @ want
    got = reconstruct(Decomposition(dim=dim, factors=tuple(factors)))
    assert np.max(np.abs(got - want)) < 1e-12


def test_apply_rejects_state_of_the_wrong_dimension():
    c = Circuit(n=2, gates=(WireGate(n=2, j=1, v=FLIP),))
    with pytest.raises(ValueError):
        apply(c, pure_state(basis_vector(0, 3)))
    with pytest.raises(ValueError):
        apply_vector(c, np.zeros(8))


def test_circuit_rejects_mismatched_gate_dims():
    with pytest.raises(ValueError):
        Circuit(n=2, gates=(WireGate(n=3, j=1, v=np.eye(2)),))
    with pytest.raises(ValueError):
        Circuit(n=2, gates=(TwoLevelGate(dim=3, i=1, j=2, v=np.eye(2)),))


# --- serialization -----------------------------------------------------------------------


def test_wire_gate_rejects_an_angle_its_block_does_not_match():
    # Its ROT line would parse back to rotation(angle), a different gate.
    with pytest.raises(ValueError):
        WireGate(n=1, j=1, v=np.eye(2), angle=0.5)
    with pytest.raises(ValueError):
        WireGate(n=2, j=2, v=rotation(0.5), angle=-0.5)
    g = WireGate(n=1, j=1, v=np.eye(2), angle=0.0)
    assert parse_gate(format_gate(g), 1).angle == 0.0


def test_suffix_controlled_gate_takes_no_angle():
    # Its block is all that is simulated and written; an angle beside it
    # could disagree with the block.
    with pytest.raises(TypeError):
        SuffixControlledGate(n=2, stage=2, suffix=(0,), v=np.eye(2), angle=0.5)
    g = SuffixControlledGate(n=2, stage=2, suffix=(0,), v=rotation(0.5))
    assert not hasattr(g, "angle")
    assert format_gate(g).startswith("SUFFIX-CTRL 2 0 ")


def test_format_gate_pins():
    assert format_gate(WireGate(n=2, j=1, v=rotation(0.5), angle=0.5)) == "ROT 1 0.5"
    line = format_gate(WireGate(n=2, j=2, v=np.eye(2)))
    assert line == "WIRE 2 1 0 0 0 0 0 1 0"
    line = format_gate(ControlledGate(n=2, target=1, pattern=(1,), v=np.eye(2)))
    assert line == "CTRL 1 1 1 0 0 0 0 0 1 0"
    line = format_gate(
        SuffixControlledGate(n=3, stage=2, suffix=(0,), v=np.eye(2))
    )
    assert line == "SUFFIX-CTRL 2 0 1 0 0 0 0 0 1 0"
    line = format_gate(TwoLevelGate(dim=4, i=1, j=3, v=np.eye(2)))
    assert line == "TWO-LEVEL 1 3 1 0 0 0 0 0 1 0"


def test_empty_pattern_serializes_as_dash():
    g = ControlledGate(n=1, target=1, pattern=(), v=np.eye(2))
    line = format_gate(g)
    assert line.startswith("CTRL 1 - ")
    back = parse_gate(line, 1)
    assert back.pattern == ()


def test_round_trip_is_bit_exact():
    """17 significant digits reproduce every float64 on the way back."""
    rng = np.random.default_rng(19)
    gs = [
        WireGate(n=3, j=2, v=random_unitary2(rng)),
        WireGate(n=3, j=3, v=rotation(0.12345678901234567), angle=0.12345678901234567),
        ControlledGate(n=3, target=2, pattern=(1, 0), v=random_unitary2(rng)),
        SuffixControlledGate(n=3, stage=3, suffix=(0, 1), v=random_unitary2(rng)),
        TwoLevelGate(dim=8, i=3, j=7, v=random_unitary2(rng)),
    ]
    c = Circuit(n=3, gates=tuple(gs))
    back = parse_circuit(format_circuit(c))
    assert back.n == 3
    assert circuit_length(back) == len(gs)
    for orig, parsed in zip(gs, back.gates):
        assert type(orig) is type(parsed)
        assert np.array_equal(orig.v, parsed.v), type(orig).__name__


def test_parse_circuit_skips_comments_and_blanks():
    text = "\n".join(
        [
            "# a comment",
            "QSIM-CIRCUIT v1 n=2",
            "",
            "ROT 1 0.25",
            "   # indented comment",
            "WIRE 2 0 0 1 0 1 0 0 0",
            "",
        ]
    )
    c = parse_circuit(text)
    assert c.n == 2
    assert circuit_length(c) == 2
    assert np.array_equal(c.gates[1].v, FLIP)


def test_parse_errors():
    with pytest.raises(CircuitParseError):
        parse_circuit("")
    with pytest.raises(CircuitParseError):
        parse_circuit("WRONG-HEADER n=2\nROT 1 0.5\n")
    # The count is ASCII digits only: no separators, spaces, signs or
    # other Unicode digits (U+0663 is ARABIC-INDIC DIGIT THREE).
    for count in ("0", "1_0", " 4", "+4", "\u0663"):
        with pytest.raises(CircuitParseError):
            parse_circuit(f"QSIM-CIRCUIT v1 n={count}\n")
    with pytest.raises(CircuitParseError):
        parse_gate("SPIN 1 0.5", 2)
    with pytest.raises(CircuitParseError):
        parse_gate("ROT 1", 2)
    with pytest.raises(CircuitParseError):
        parse_gate("WIRE 1 1 0 0 0", 2)  # wrong float count
    with pytest.raises(CircuitParseError):
        parse_gate("CTRL 1 2x 1 0 0 0 0 0 1 0", 2)  # bad bits
    with pytest.raises(CircuitParseError):
        parse_gate("WIRE 1 a b c d e f g h", 2)  # bad floats
    with pytest.raises(CircuitParseError):
        parse_gate("", 2)


def test_rot_line_round_trips_through_the_angle():
    g = parse_gate("ROT 2 1.0471975511965979", 3)
    assert isinstance(g, WireGate)
    assert g.angle == 1.0471975511965979
    assert np.array_equal(g.v, rotation(1.0471975511965979))


@settings(deadline=None, max_examples=40)
@given(
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False),
    st.integers(min_value=1, max_value=3),
)
def test_rotation_gates_round_trip_property(alpha, j):
    g = WireGate(n=3, j=j, v=rotation(alpha), angle=alpha)
    line = format_gate(g)
    back = parse_gate(line, 3)
    assert back.j == j
    assert back.angle == alpha
    assert np.array_equal(back.v, g.v)
