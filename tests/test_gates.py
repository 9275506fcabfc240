"""Tests for elementary gates, circuits, and the text serialization.

Gate realizations are pitted against independent constructions: explicit
Kronecker products, projector sums over all control patterns, and basis
vector chasing. Serialization round trips must be bit-exact because floats
print with 17 significant digits.
"""

import json
import math
import time
from importlib import resources
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsim import gates
from qsim.algprob import DensityMatrix, conjugate, pure_state
from qsim.gates import (
    Circuit,
    CircuitParseError,
    TwoLevelGate,
    _check_blocks,
    _format_blocks,
    apply,
    apply_vector,
    circuit_length,
    control_projector,
    controlled_gate,
    format_circuit,
    gate_blocks,
    parse_circuit,
    realize_gate,
    rotation,
    rotations,
)
from qsim.linalg import is_unitary
from qsim.qpu import basis_vector, tensor_index
from qsim.udecomp import (
    RECONSTRUCTION_TOL,
    Decomposition,
    decompose_unitary,
    format_decomposition,
    k_embed,
    parse_decomposition,
    reconstruct,
    reconstruction_residual,
)

FLIP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def haar_unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_unitary2(rng):
    return haar_unitary(rng, 2)


def gate(n, target, v=None, mask=0, value=0, angle=math.nan):
    """The one-gate Circuit of block v, or of the block built from a
    given angle."""
    return Circuit(n, [target], [mask], [value], None if v is None else [v], [angle])


def fields(g):
    """(target, mask, value) of a one-gate circuit, as ints."""
    return g.target[0].item(), g.mask[0].item(), g.value[0].item()


def circuit(n, rows=()):
    """The Circuit on n wires of one-gate circuits, in sequence order: a
    gate with an angle passes only the angle, and its block is built from it."""
    rows = list(rows)
    target, mask, value, angle = ([x for g in rows for x in getattr(g, f).tolist()]
                                  for f in ("target", "mask", "value", "angle"))
    blocks = [g.blocks[0] for g in rows if math.isnan(g.angle[0])]
    return Circuit(n, target, mask, value, blocks, angle)


def every_block(c):
    """The block of each gate of c, by gate_blocks's rule."""
    return gate_blocks(c.angle, c.blocks)


def block(g):
    """The block of a one-gate circuit, as complex."""
    return every_block(g).astype(complex)[0]


def realize(c):
    """Dense matrix of the whole circuit, last gate leftmost: the product of
    each gate's realize_gate, the dense oracle the kernel is tested against."""
    out = np.eye(2**c.n, dtype=complex)
    for g in c.gates:
        out = realize_gate(g) @ out
    return out


def parse_line(line, n):
    """The one-gate circuit of an n-wire circuit file holding just this gate line."""
    (g,) = parse_circuit(f"QSIM-CIRCUIT v2 n={n}\n{line}\n").gates
    return g


def format_line(g):
    """The line a circuit file writes for a one-gate circuit."""
    return format_circuit(g).splitlines()[1]


def decomposition(dim, factors):
    """The Decomposition holding two-level gates in application order."""
    factors = list(factors)
    return Decomposition(dim, [f.i for f in factors], [f.j for f in factors],
                         [f.v for f in factors])


# --- rotations -----------------------------------------------------------------


def test_rotation_pins():
    assert np.array_equal(rotation(0.0), np.eye(2))
    quarter = rotation(math.pi / 2)
    # R(pi/2) sends e0 to e1 (column convention [[c, -s], [s, c]]).
    assert np.allclose(quarter @ np.array([1.0, 0.0]), [0.0, 1.0], atol=1e-15)
    assert np.allclose(rotation(0.3) @ rotation(0.4), rotation(0.7), atol=1e-15)
    assert is_unitary(rotation(1.234), 1e-12)


def test_rotation_is_the_rotations_rule_bit_for_bit():
    """A ROT gate is checked against rotations, so rotation(a) must be its
    block exactly, on any libm: the two share one cos and one sin."""
    rng = np.random.default_rng(41)
    angles = np.concatenate([rng.uniform(-10.0, 10.0, 2000), rng.uniform(-1e6, 1e6, 2000),
                             [0.0, -0.0, math.pi / 2, 1e6, -1e6]])
    together = rotations(angles)
    for k, a in enumerate(angles.tolist()):
        assert rotation(a).tobytes() == rotations([a])[0].tobytes(), a
        assert rotation(a).tobytes() == together[k].tobytes(), a
    for a in angles[::40].tolist():
        assert block(gate(2, 1, angle=a)).tobytes() == rotation(a).tobytes()
    # Angles are read by linalg.as_reals, as Circuit reads them: not numpy's
    # float16 cos of a bool, a complex block or numpy's TypeError of a string.
    for bad, kind in ((True, "bool"), (0.5j, "complex"), ("0.5", "str")):
        for call in (rotation, lambda a: rotations([a])):
            with pytest.raises(ValueError) as info:
                call(bad)
            assert str(info.value) == f"angle must be real numbers, got ['{kind}']"


# --- wire gates ------------------------------------------------------------------
#
# A gate on one wire is controlled_gate with every other wire free (None).


def test_wire_gate_single_wire_is_the_block_itself():
    rng = np.random.default_rng(1)
    v = random_unitary2(rng)
    assert np.array_equal(controlled_gate(1, 1, (), v), v)


def test_wire_gate_identity_block_is_identity():
    for n in (1, 2, 3):
        for j in range(1, n + 1):
            eye = controlled_gate(n, j, (None,) * (n - 1), np.eye(2))
            assert np.array_equal(eye, np.eye(2**n))


def test_wire_gate_matches_explicit_kron():
    rng = np.random.default_rng(2)
    v = random_unitary2(rng)
    free = (None, None)
    assert np.array_equal(controlled_gate(3, 1, free, v), np.kron(v, np.eye(4)))
    assert np.array_equal(
        controlled_gate(3, 2, free, v), np.kron(np.kron(np.eye(2), v), np.eye(2))
    )
    assert np.array_equal(controlled_gate(3, 3, free, v), np.kron(np.eye(4), v))


def test_wire_gates_on_distinct_wires_commute():
    rng = np.random.default_rng(3)
    u, v = random_unitary2(rng), random_unitary2(rng)
    a = controlled_gate(2, 1, (None,), u) @ controlled_gate(2, 2, (None,), v)
    b = controlled_gate(2, 2, (None,), v) @ controlled_gate(2, 1, (None,), u)
    assert np.max(np.abs(a - b)) < 1e-14
    assert np.max(np.abs(a - np.kron(u, v))) < 1e-14


def test_wire_gate_moves_probability_on_its_wire_only():
    """Flipping wire 2 of |000> gives |010>: label 2, flat position 2."""
    rho = pure_state(basis_vector(0, 3))
    from qsim.qpu import basis_distribution

    moved = DensityMatrix(conjugate(rho.mat, controlled_gate(3, 2, (None, None), FLIP)))
    dist = basis_distribution(moved)
    assert dist[2] == pytest.approx(1.0)


def test_wire_gate_validation():
    """A single wire gate is checked as a Circuit of length one; target is
    an integer from 1 to n, and mask and value from 0 to 2^n - 1, by
    linalg.as_count's rule and messages."""
    eye = np.eye(2)
    for kwargs, message in (
        (dict(n=2, target=3, v=eye), "target must be at most 2, got 3"),
        (dict(n=2, target=0, v=eye), "target must be at least 1, got 0"),
        (dict(n=2, target=1, v=eye * 2.0), "gate block is not unitary within tolerance"),
        (dict(n=2, target=1, v=np.eye(3)), "gate block must be 2x2, got (3, 3)"),
        (dict(n=2, target=1, v=eye, mask=4), "mask must be at most 3, got 4"),
        (dict(n=2, target=1, v=eye, mask=-1), "mask must be at least 0, got -1"),
        # Wire 1 is position bit n - 1 = 1.
        (dict(n=2, target=1, v=eye, mask=2), "target wire 1 is in mask 2"),
        (dict(n=3, target=2, v=eye, mask=1, value=2), "value 2 has bits outside mask 1"),
        (dict(n=3, target=2, v=eye, mask=1, value=-1), "value must be at least 0, got -1"),
        (dict(n=3, target=2, v=eye, mask=1.0), "mask must be an integer, got 1.0"),
        (dict(n=3, target=2, v=eye, mask=1, value=1.0), "value must be an integer, got 1.0"),
        (dict(n=3, target=2, v=eye, mask=True), "mask must be an integer, got True"),
    ):
        with pytest.raises(ValueError) as info:
            gate(**kwargs)
        assert str(info.value) == message
    # n is an integer from 1 to 62, Python or numpy, and not a bool or a
    # float, as an n=0 header is rejected; an angle is a real number, not a
    # bool, str or complex.
    for kwargs, message in (
        (dict(n=0, target=1, v=eye), "n must be at least 1, got 0"),
        (dict(n=-1, target=1, v=eye), "n must be at least 1, got -1"),
        (dict(n=63, target=1, v=eye), "n must be at most 62, got 63"),
        (dict(n=2.0, target=1, v=eye), "n must be an integer, got 2.0"),
        (dict(n=True, target=1, v=eye), "n must be an integer, got True"),
        (dict(n="2", target=1, v=eye), "n must be an integer, got '2'"),
        (dict(n=1, target=1, angle=True), "angle must be real numbers, got ['bool']"),
        (dict(n=1, target=1, angle="0.5"), "angle must be real numbers, got ['str']"),
        (dict(n=1, target=1, angle=0.5 + 0j), "angle must be real numbers, got ['complex']"),
    ):
        with pytest.raises(ValueError) as info:
            gate(**kwargs)
        assert str(info.value) == message
    g = gate(np.int64(2), 1, angle=np.float32(0.5).item())
    assert type(g.n) is int and g.n == 2


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
    with pytest.raises(ValueError, match=r"^block must be 2x2, got \(3, 3\)$"):
        control_projector(2, 1, (0,), np.eye(3))


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
        ((3, 4, (0, 0), u), "target must be at most 3, got 4"),
        ((3, 1, (0, 2), u), "control pattern (0, 2) contains non-bits"),
        ((3, 1, (0,), u), "pattern length 1 != n-1 = 2"),
        ((3, 1, (0, 0), 2 * u), "gate block is not unitary within tolerance"),
        ((3, 1, (0, 0), np.eye(3)), "gate block must be 2x2, got (3, 3)"),
    ):
        with pytest.raises(ValueError) as info:
            controlled_gate(*args)
        assert str(info.value) == message


def test_control_bits_follow_the_integer_rule():
    """A control bit is 0 or 1 as an integer and not a bool, as every count
    is: True, 1.0 and 0.0 are rejected with a ValueError naming the bit,
    in patterns and in qpu.decode alike."""
    from qsim.qpu import decode

    eye = np.eye(2)
    for call, message in (
        (lambda: controlled_gate(3, 1, (True, 0), eye), "control pattern (True, 0) contains non-bits"),
        (lambda: controlled_gate(3, 1, (1.0, 0), eye), "control pattern (1.0, 0) contains non-bits"),
        (lambda: control_projector(3, 1, (0.0, 1), eye), "control pattern (0.0, 1) contains non-bits"),
        (lambda: controlled_gate(3, 1, (None, True), eye), "control pattern (None, True) contains non-bits"),
        (lambda: decode([1.0, 0]), "bit must be an integer, got 1.0"),
        (lambda: decode([0, 2]), "bit must be at most 1, got 2"),
    ):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message
    with pytest.raises(ValueError, match=r"^control pattern \(\S*True\S*, 0\) contains non-bits$"):
        controlled_gate(3, 1, (np.bool_(True), 0), eye)
    # numpy integers are bits by the same rule.
    ints = (np.int64(1), np.uint8(0))
    assert np.array_equal(controlled_gate(3, 1, ints, eye), controlled_gate(3, 1, (1, 0), eye))
    assert decode(ints) == 1


@pytest.mark.parametrize("ell", [True, 1.0, "1", 0, 3])
def test_every_entry_point_reads_a_wire_by_one_rule(ell):
    """A target wire is read by linalg.as_count's rule wherever it is given:
    a bool, a float, a string or a wire outside 1..n is a ValueError, with
    one message for control_projector, controlled_gate and Circuit alike."""
    v = np.eye(2)
    raised = []
    for call in (lambda: control_projector(2, ell, (None,), v),
                 lambda: controlled_gate(2, ell, (None,), v),
                 lambda: Circuit(2, [ell], [0], [0], [v], [math.nan])):
        with pytest.raises(ValueError) as info:
            call()
        raised.append(str(info.value))
    assert raised == [raised[0]] * 3
    assert raised[0] == {0: "target must be at least 1, got 0",
                         3: "target must be at most 2, got 3"}.get(
        ell, f"target must be an integer, got {ell!r}")


# --- suffix-controlled gates -------------------------------------------------------
#
# Grover-Rudolph stage l on n wires rotates wire n - l + 1 under a suffix of
# the trailing l - 1 wires: controlled_gate with the leading n - l wires free.


def test_suffix_gate_at_final_stage_is_fully_controlled():
    """The last stage's layout controls every other wire: its one-gate
    circuit is controlled_gate of the full pattern."""
    rng = np.random.default_rng(12)
    v = random_unitary2(rng)
    suffix = (1, 0)
    target, mask = gates.stage_layout(3, 3)
    got = realize_gate(gate(3, target, v, mask=mask, value=tensor_index((0, *suffix))))
    assert np.array_equal(got, controlled_gate(3, 1, suffix, v))


def test_suffix_gate_matches_explicit_kron():
    """Leading wires untouched: the matrix is I (x) (controlled block)."""
    rng = np.random.default_rng(13)
    v = random_unitary2(rng)
    got = controlled_gate(4, 3, (None, None, 1), v)  # stage 2, suffix (1,)
    block = controlled_gate(2, 1, (1,), v)
    assert np.max(np.abs(got - np.kron(np.eye(4), block))) < 1e-14


def test_suffix_gate_basis_action():
    """Acts on wire n-stage+1 iff the trailing stage-1 bits match the suffix."""
    rng = np.random.default_rng(14)
    v = random_unitary2(rng)
    n, stage, suffix = 3, 2, (1,)
    target = n - stage + 1  # wire 2
    g = controlled_gate(n, target, (None,) * (n - stage) + suffix, v)
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


# --- two-level gates -----------------------------------------------------------------


def test_two_level_gate_realization_pin():
    rng = np.random.default_rng(15)
    v = random_unitary2(rng)
    got = k_embed(4, 2, 4, v)
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
    # dim follows the rule of n: an integer, Python or numpy, not a bool or a float.
    eye = np.eye(2)
    for dim in (4.0, True, np.float64(2), "4"):
        with pytest.raises(ValueError, match="^dim must be an integer, got "):
            TwoLevelGate(dim=dim, i=1, j=2, v=eye)
        with pytest.raises(ValueError, match="^dim must be an integer, got "):
            Decomposition(dim, [1], [2], eye[None])
    assert type(TwoLevelGate(dim=np.int64(4), i=1, j=2, v=eye).dim) is int
    d = Decomposition(np.int32(2), [1], [2], eye[None])
    assert format_decomposition(d) == "QSIM-FACTORS v1 dim=2\nTWO-LEVEL 1 2 1 0 0 0 0 0 1 0\n"


def _perturbed(rng, v, size):
    """v plus a random complex perturbation of Frobenius norm `size`."""
    e = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return v + size * e / np.linalg.norm(e)


def test_block_check_decides_as_the_dense_unitarity_test():
    """The closed-form 2x2 Gram test accepts exactly what is_unitary(v, 1e-10)
    accepts: unitary blocks, blocks moved by 0.5e-10 or 2e-10, and blocks
    that are not unitary at all."""
    rng = np.random.default_rng(16)
    blocks = [np.eye(2), FLIP, rotation(0.3), np.diag([1j, -1.0])]
    for _ in range(200):
        v = random_unitary2(rng)
        blocks += [v, _perturbed(rng, v, 0.5e-10), _perturbed(rng, v, 2e-10)]
    blocks += [
        np.zeros((2, 2)),
        2.0 * np.eye(2),
        np.ones((2, 2)),
        np.array([[1.0, 1e-9], [0.0, 1.0]]),
        np.array([[np.nan, 0.0], [0.0, 1.0]]),
        np.array([[np.inf, 0.0], [0.0, 1.0]]),
        *(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(50)),
    ]
    accepted, rejected = [], []
    for v in blocks:
        with np.errstate(invalid="ignore"):  # the dense test on inf and NaN
            dense = is_unitary(v, 1e-10)
        (accepted if dense else rejected).append(v)
        if dense:
            assert np.array_equal(_check_blocks([v])[0], np.asarray(v, dtype=complex))
        else:
            with pytest.raises(ValueError, match="^gate block is not unitary within tolerance$"):
                _check_blocks([v])
    # As one column, the blocks pass together, and fail when one of them does.
    assert np.array_equal(_check_blocks(accepted), np.array(accepted, dtype=complex))
    for v in rejected:
        with pytest.raises(ValueError, match="^gate block is not unitary within tolerance$"):
            _check_blocks(accepted + [v])
    # Both sides of the boundary are exercised.
    assert 400 < len(accepted) < len(blocks) - 100


def test_block_check_keeps_a_c_ordered_read_only_copy():
    v = np.ascontiguousarray(random_unitary2(np.random.default_rng(17)).T)
    got = _check_blocks(v.T[None])
    assert got.flags.c_contiguous and not got.flags.writeable
    assert np.array_equal(got[0], v.T)
    v[0, 0] = 0.0
    assert got[0, 0, 0] != 0.0


def test_block_format_is_byte_identical_to_per_float_formatting():
    rng = np.random.default_rng(18)
    pins = [-0.0, 5e-324, 1e-17, 1 / 3, -1.0, 0.0, 1.0, -5e-324, 1.7976931348623157e308]
    randoms = list(rng.normal(size=64) * 10.0 ** rng.integers(-300, 300, size=64))
    # Arbitrary bit patterns, NaNs and infinities included.
    randoms += list(rng.integers(0, 2**63, size=64, dtype=np.uint64).view(np.float64))
    floats = pins + randoms
    floats += [0.0] * (-len(floats) % 8)
    # A view, not floats[0::2] + 1j * floats[1::2], which can flip the sign
    # of a zero and turn an infinity into NaN.
    blocks = np.array(floats).view(np.complex128).reshape(-1, 2, 2)
    want = [" ".join(f"{x:.17g}" for x in floats[k : k + 8]) for k in range(0, len(floats), 8)]
    assert _format_blocks(blocks) == want
    assert _format_blocks(blocks[:0]) == []


# --- circuits -------------------------------------------------------------------------


def test_realize_multiplies_in_reverse_order():
    """gates[0] acts first, so the matrix is gates[-1] @ ... @ gates[0]."""
    rng = np.random.default_rng(16)
    gs = [
        gate(2, 1, random_unitary2(rng)),
        gate(2, 2, random_unitary2(rng)),
        gate(2, 1, random_unitary2(rng), mask=1, value=1),
    ]
    c = circuit(2, gs)
    mats = [realize_gate(g) for g in gs]
    want = mats[2] @ mats[1] @ mats[0]
    assert np.max(np.abs(realize(c) - want)) < 1e-13


def test_empty_circuit_is_identity():
    c = circuit(2)
    assert circuit_length(c) == 0
    assert np.array_equal(realize(c), np.eye(4))


def test_apply_agrees_with_realize_then_evolve():
    rng = np.random.default_rng(17)
    gs = tuple(gate(2, (i % 2) + 1, random_unitary2(rng)) for i in range(4))
    c = circuit(2, gs)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    rho = pure_state(psi)
    step_by_step = apply(c, rho)
    u = realize(c)
    assert np.max(np.abs(step_by_step.mat - u @ rho.mat @ u.conj().T)) < 1e-12
    assert np.max(np.abs(apply_vector(c, psi) - u @ psi)) < 1e-12


def test_circuit_rows_are_one_gate_circuits(monkeypatch):
    """Circuit.gates slices each row of the checked columns into a one-gate
    Circuit, NaN angles kept, and checks nothing again: each row carries its
    given block or none, has the whole circuit's block by gate_blocks, writes
    the whole circuit's line for its gate, and its columns are read-only."""
    from qsim import grover_rudolph as gr

    rng = np.random.default_rng(29)
    # All the mass on [0, 1/2): pruning drops the zero-angle rotations.
    halves = (gr.DensitySegment(0.0, 0.5, (2.0,)), gr.DensitySegment(0.5, 1.0, (0.0,)))
    triangular = gr.load_density(resources.files("qsim.data") / "triangular.json")
    circuits = [gr.synthesize(gr.angle_tree(d, n), prune=prune) for n in range(1, 9)
                for d in (gr.PiecewisePolyDensity(halves), triangular) for prune in (False, True)]
    assert circuit_length(circuits[-3]) < circuit_length(circuits[-4])  # halves at n = 8
    for n in (1, 2, 3, 5):
        rows = []
        for _ in range(12):  # ROT and CTRL gates on random layouts
            g = random_gate("wire", n, rng)
            if rng.random() < 0.5:
                target, mask, value = fields(g)
                g = gate(n, target, mask=mask, value=value, angle=float(rng.uniform(-4.0, 4.0)))
            rows.append(g)
        circuits.append(circuit(n, rows))
    calls, check = [], gates._wire_columns
    monkeypatch.setattr(gates, "_wire_columns", lambda *a: calls.append(a) or check(*a))
    for c in circuits:
        lines, every = format_circuit(c).splitlines(), every_block(c).astype(complex)
        rows = c.gates
        assert calls == [] and len(rows) == circuit_length(c)
        for k, g in enumerate(rows):
            assert type(g) is Circuit and g.n == c.n and circuit_length(g) == 1
            assert format_circuit(g).splitlines() == [lines[0], lines[k + 1]]
            for field in ("target", "mask", "value", "angle"):
                column = getattr(g, field)
                assert not column.flags.writeable, field
                assert column.tobytes() == getattr(c, field)[k : k + 1].tobytes(), field
            assert not g.blocks.flags.writeable and len(g.blocks) == math.isnan(g.angle[0])
            assert block(g).tobytes() == every[k].tobytes()
        given = np.concatenate([c.blocks[:0], *(g.blocks for g in rows)])
        assert given.tobytes() == c.blocks.tobytes()
    assert calls == []


def test_realize_gate_takes_a_one_gate_circuit():
    two = circuit(2, [gate(2, 1, FLIP), gate(2, 2, angle=0.5)])
    for c in (circuit(2), two):
        with pytest.raises(ValueError) as info:
            realize_gate(c)
        assert str(info.value) == (
            f"realize_gate takes a one-gate circuit, got {circuit_length(c)} gates")
    assert np.array_equal(realize_gate(two.gates[1]), controlled_gate(2, 2, (None,), rotation(0.5)))


def test_empty_columns_given_as_lists():
    """numpy reads [] as float64, but an empty list is an empty int64 column,
    and an empty block list holds no blocks, as a header-only file reads. A
    bool or a float is still refused, by linalg.as_count's message."""

    def same(a, b, names):
        for name in names:
            x, y = getattr(a, name), getattr(b, name)
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name

    wire = ("target", "mask", "value", "blocks", "angle")
    header = parse_circuit("QSIM-CIRCUIT v2 n=2\n")
    same(Circuit(2, [], [], [], None, []), header, wire)
    same(Circuit(2, [], [], [], [], []), header, wire)
    same(Decomposition(3, [], [], []), parse_decomposition("QSIM-FACTORS v1 dim=3\n"),
         ("i", "j", "blocks"))
    same(Circuit(1, [1], [0], [0], [], [0.5]), Circuit(1, [1], [0], [0], None, [0.5]), wire)
    for n in (1, 3):  # the smallest register reads back too
        text = f"QSIM-CIRCUIT v2 n={n}\n"
        assert format_circuit(Circuit(n, [], [], [], None, [])) == text
        assert format_circuit(parse_circuit(text)) == text
    for bad in ([True], [1.0]):
        with pytest.raises(ValueError) as info:
            Circuit(2, bad, [0], [0], None, [0.5])
        assert str(info.value) == f"target must be an integer, got {bad[0]!r}"
        with pytest.raises(ValueError) as info:
            Decomposition(3, bad, [2], [np.eye(2)])
        assert str(info.value) == f"i must be an integer, got {bad[0]!r}"


# --- the pair kernel against the dense oracle ----------------------------------------

KINDS = ("wire", "controlled", "suffix", "two-level")
KERNEL_CASES = [
    (kind, n) for kind in KINDS for n in range(1, 6) if (kind, n) != ("suffix", 1)
]


def random_gate(kind, n, rng):
    """A wire gate on a random target under a random set of the other wires
    as controls, each with a random bit; one controlled by all other wires
    ("controlled") or by the wires after its target ("suffix", the
    Grover-Rudolph stage gate)."""
    v = random_unitary2(rng)
    last = n - 1 if kind == "suffix" else n
    target = int(rng.integers(1, last + 1))
    others = (1 << n) - 1 - (1 << (n - target))
    trailing = (1 << (n - target)) - 1
    if kind == "controlled":
        mask = others
    elif kind == "suffix":
        mask = trailing
    else:
        # No controls, the wires after the target and all other wires,
        # as often as a random subset of the other wires.
        subset = int(rng.integers(0, 1 << n)) & others
        mask = (0, trailing, others, subset)[int(rng.integers(4))]
    value = int(rng.integers(0, 1 << n)) & mask
    return gate(n, target, v, mask, value)


def random_two_level_gate(dim, rng):
    i, j = sorted(int(k) + 1 for k in rng.choice(dim, size=2, replace=False))
    return TwoLevelGate(dim=dim, i=i, j=j, v=random_unitary2(rng))


def _mask_kind(g):
    """Which of the old gate kinds a wire gate's controls were: none, the
    wires after the target, all other wires, or another set."""
    n, (target, mask, _) = g.n, fields(g)
    if mask == 0:
        return "none"
    if mask == (1 << (n - target)) - 1:
        return "trailing"
    if mask == (1 << n) - 1 - (1 << (n - target)):
        return "full"
    return "other"


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
    if kind == "two-level":
        # Only a Decomposition holds two-level gates, and reconstruct mixes
        # their pairs: one gate at a time, then a sequence, against k_embed.
        for count in (1, 1, 1, 1, 6):
            factors = [random_two_level_gate(dim, rng) for _ in range(count)]
            d = decomposition(dim, factors)
            blocks_before = d.blocks.copy()
            want = np.eye(dim, dtype=complex)
            for f in factors:
                want = k_embed(dim, f.i, f.j, f.v) @ want
            assert np.max(np.abs(reconstruct(d) - want)) < 1e-12
            assert np.array_equal(d.blocks, blocks_before)
        return
    drawn = []
    for _ in range(8):
        g = random_gate(kind, n, rng)
        drawn.append(g)
        c = circuit(n, [g])
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
    c = circuit(n, [random_gate(kind, n, rng) for _ in range(6)])
    u = realize(c)
    rho = random_mixed_state(rng, dim)
    assert np.max(np.abs(apply(c, rho).mat - u @ rho.mat @ u.conj().T)) < 1e-12
    if kind == "wire" and n >= 3:
        # Trailing and full control sets are drawn, and sets that are
        # neither.
        kinds = {_mask_kind(g) for g in drawn + list(c.gates)}
        assert kinds >= {"trailing", "full", "other"}, kinds


def test_dense_oracle_does_not_read_the_kernel(monkeypatch):
    """realize_gate builds a wire gate from Kronecker chains, so a broken
    gate_runs leaves it unchanged while the kernel itself fails."""
    rng = np.random.default_rng(20)
    gs = [random_gate("wire", 4, rng) for _ in range(20)]
    want = [realize_gate(g) for g in gs]

    def broken(*args):
        raise AssertionError("gate_runs called")

    monkeypatch.setattr(gates, "gate_runs", broken)
    for g, m in zip(gs, want):
        assert np.array_equal(realize_gate(g), m)
    with pytest.raises(AssertionError, match="gate_runs called"):
        apply_vector(circuit(4, gs[:1]), np.ones(16))


# --- runs against the gate-by-gate reference ---------------------------------------


def gate_by_gate(c, x):
    """The circuit on the rows of a copy of x, one gate at a time in
    sequence order: the reference that gate_runs batches."""
    x = np.array(x, dtype=complex)
    positions = np.arange(2**c.n)
    for target, mask, value, v in zip(c.target.tolist(), c.mask.tolist(), c.value.tolist(),
                                      every_block(c).astype(complex), strict=True):
        stride = 1 << (c.n - target)
        p0 = positions[positions & (mask | stride) == value]
        a, b = x[p0], x[p0 + stride]
        x[p0], x[p0 + stride] = v[0, 0] * a + v[0, 1] * b, v[1, 0] * a + v[1, 1] * b
    return x


def check_against_gate_by_gate(c, rng):
    """apply_vector bit for bit, and apply within 1e-15, of the reference; a
    real vector runs in float64 when c has no given block, to the reference's
    real parts."""
    dim = 2**c.n
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    for x in (basis_vector(0, c.n), psi, psi.real):
        out = apply_vector(c, x)
        assert out.dtype == (float if x.dtype == float and not len(c.blocks) else complex)
        assert np.array_equal(out, gate_by_gate(c, x))
    if c.n <= 7:
        rho = random_mixed_state(rng, dim)
        # U rho U* = (U (U rho)*)*.
        want = gate_by_gate(c, gate_by_gate(c, rho.mat).conj().T).conj().T
        assert np.max(np.abs(apply(c, rho).mat - want)) <= 1e-15


def run_lengths(c):
    return [len(v) for v, _, _ in gates.gate_runs(c)]


def layout_circuit(n, layouts, rng):
    """Random blocks on gates given as (target, mask, values) groups."""
    target, mask, value = zip(*[(t, m, b) for t, m, values in layouts for b in values])
    blocks = [random_unitary2(rng) for _ in target]
    return Circuit(n, target, mask, value, blocks, [math.nan] * len(target))


@pytest.mark.parametrize("n", range(1, 13))
def test_runs_match_gate_by_gate_on_synthesized_circuits(n):
    from qsim import grover_rudolph as gr

    rng = np.random.default_rng([23, n])
    data = resources.files("qsim.data")
    shipped = [gr.load_density(data / f"{name}.json") for name in ("triangular", "powers_of_two")]
    quadratic = gr.PiecewisePolyDensity((gr.DensitySegment(0.0, 1.0, (0.1, 0.0, 2.7)),))
    for d in [*shipped, quadratic]:
        tree = gr.angle_tree(d, n)
        for prune in (False, True):
            c = gr.synthesize(tree, prune=prune)
            # Each stage is one run, pruned or not.
            assert len(run_lengths(c)) == len(set(c.target.tolist()))
            check_against_gate_by_gate(c, rng)


def all_given(c):
    """c with every block given, each gate a CTRL gate: the same blocks on a
    circuit that always runs in complex128."""
    return Circuit(c.n, c.target, c.mask, c.value, every_block(c).astype(complex),
                   np.full(circuit_length(c), math.nan))


def test_the_kernel_runs_in_float64_only_for_real_circuits_on_real_states(monkeypatch):
    """A circuit with no given block runs in float64 on a real state: on
    udqc(n).rho0, apply gives the complex run's real parts bit for bit and an
    imaginary part of zeros. A state with a nonzero imaginary part, or a
    circuit with one given block (a CTRL line among ROT lines, from text),
    runs in complex128, bit for bit as the same circuit with every block given."""
    from qsim import grover_rudolph as gr
    from qsim.qpu import udqc

    mix, kinds = gates.mix_pairs, []  # the dtype of each state the kernel mixes
    monkeypatch.setattr(gates, "mix_pairs", lambda v, x, *p: kinds.append(x.dtype) or mix(v, x, *p))
    rng = np.random.default_rng(37)
    triangular = gr.load_density(resources.files("qsim.data") / "triangular.json")
    for n in range(1, 9):
        c = gr.synthesize(gr.angle_tree(triangular, n))
        lines = format_circuit(c).splitlines()
        target, _, pattern = lines[-1].split()[1:]  # the last ROT line becomes a CTRL line
        lines[-1] = f"CTRL {target} {pattern} 0.6 0 0 0.8 0 0.8 0.6 0"
        mixed = parse_circuit("\n".join(lines))
        assert len(mixed.blocks) == 1 and len(c.blocks) == 0
        rho0, dim = udqc(n).rho0, 2**n
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = DensityMatrix(a @ a.conj().T / np.trace(a @ a.conj().T).real)
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)

        kinds.clear()
        fast, slow = apply(c, rho0).mat, apply(all_given(c), rho0).mat
        assert kinds == [np.dtype(float)] * (2 * n) + [np.dtype(complex)] * (2 * n)
        assert fast.dtype == complex and not fast.imag.any()
        assert fast.real.tobytes() == slow.real.tobytes()
        kinds.clear()
        zero = basis_vector(0, n).real
        fast, slow = apply_vector(c, zero), apply_vector(all_given(c), zero)
        assert kinds == [np.dtype(float)] * n + [np.dtype(complex)] * n and fast.dtype == float
        assert fast.tobytes() == slow.real.tobytes() and not slow.imag.any()
        # The complex path, bit for bit as with every block given.
        for circuit_, state in ((c, rho), (mixed, rho0), (mixed, rho)):
            kinds.clear()
            got = apply(circuit_, state).mat
            assert set(kinds) == {np.dtype(complex)}
            assert got.tobytes() == apply(all_given(circuit_), state).mat.tobytes()
        for circuit_, x in ((c, psi), (mixed, psi), (mixed, psi.real)):
            kinds.clear()
            got = apply_vector(circuit_, x)
            assert set(kinds) == {np.dtype(complex)} and got.dtype == complex
            assert got.tobytes() == apply_vector(all_given(circuit_), x).tobytes()
        # Each row of the mixed circuit realizes as the same row with its block given.
        if n <= 5:
            for g, h in zip(mixed.gates, all_given(mixed).gates, strict=True):
                assert realize_gate(g).tobytes() == realize_gate(h).tobytes()


def test_apply_vector_runs_in_float64_only_for_a_float64_array():
    """The float64 path is picked from psi's dtype alone: a float64 ndarray
    gives float64, and a list of floats or a float32 array is read once as
    complex128, whose real parts are the float64 run's bit for bit and whose
    imaginary parts are zero."""
    from qsim import grover_rudolph as gr

    rng = np.random.default_rng(44)
    n = 8
    c = gr.synthesize(gr.AngleTree(n, rng.uniform(0.0, math.pi / 2, 2**n - 1)))
    psi = rng.normal(size=2**n)
    assert apply_vector(c, psi).dtype == np.float64
    for x in (psi.tolist(), psi.astype(np.float32)):
        got = apply_vector(c, x)
        assert got.dtype == np.complex128 and not got.imag.any()
        assert got.real.tobytes() == apply_vector(c, np.asarray(x, np.float64)).tobytes()


def test_runs_split_where_a_value_repeats():
    """Two gates on the same pair do not commute, so a repeated value
    starts a new run: back to back, and after another value."""
    rng = np.random.default_rng(24)
    trailing = (2, 0b1, [1, 1])
    c = layout_circuit(3, [trailing], rng)
    assert run_lengths(c) == [1, 1]
    check_against_gate_by_gate(c, rng)
    c = layout_circuit(3, [(2, 0b1, [0, 1, 0])], rng)
    assert run_lengths(c) == [2, 1]
    check_against_gate_by_gate(c, rng)
    c = layout_circuit(4, [(2, 0b1001, [0, 1, 8, 9, 1, 0, 9]), trailing, (2, 0b1001, [8])], rng)
    assert run_lengths(c) == [4, 3, 1, 1, 1]
    check_against_gate_by_gate(c, rng)


def test_runs_of_free_wires_wire_gates_and_the_empty_circuit():
    rng = np.random.default_rng(25)
    # CTRL groups with free wires: target 2 under wire 1 or wires 1 and 4,
    # each a run; gates without controls repeat value 0, so each is a run of one.
    text = ["QSIM-CIRCUIT v2 n=4"]
    for pattern in ("0..", "1..", "0.1", "1.1", "0.0", "1.0"):
        block = " ".join(f"{x:.17g}" for x in random_unitary2(rng).view(float).ravel())
        text.append(f"CTRL 2 {pattern} {block}")
    for wire in (1, 1, 3, 4, 4):
        block = " ".join(f"{x:.17g}" for x in random_unitary2(rng).view(float).ravel())
        text.append(f"CTRL {wire} ... {block}")
    c = parse_circuit("\n".join(text) + "\n")
    assert run_lengths(c) == [2, 4, 1, 1, 1, 1, 1]
    check_against_gate_by_gate(c, rng)
    # Random gates drawn from a few layouts, with values from a small set.
    layouts = [(1, 0b0110, [0, 2, 4, 6]), (4, 0b1000, [0, 8]), (2, 0, [0])]
    for _ in range(10):
        groups = [(t, m, rng.choice(b, size=int(rng.integers(1, 5))).tolist())
                  for t, m, b in (layouts[int(i)] for i in rng.integers(0, 3, size=6))]
        check_against_gate_by_gate(layout_circuit(4, groups, rng), rng)
    empty = circuit(3)
    assert run_lengths(empty) == []
    check_against_gate_by_gate(empty, rng)


def test_wire_gate_realization_matches_projector_sum():
    """A gate with free wires is the sum over every pattern its controls
    allow of P(z, v) for the matching patterns and P(z, I) for the others,
    entry for entry."""
    rng = np.random.default_rng(21)
    for n in (1, 2, 3, 4):
        for _ in range(10):
            g = random_gate("wire", n, rng)
            target, mask, value = fields(g)
            want = np.zeros((2**n, 2**n), dtype=complex)
            for z in product((0, 1), repeat=n - 1):
                wires = z[: target - 1] + (0,) + z[target - 1 :]
                match = tensor_index(wires) & mask == value
                want += control_projector(n, target, z, g.blocks[0] if match else np.eye(2))
            assert np.array_equal(realize_gate(g), want), (n, target, mask, value)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 8, 16])
def test_reconstruct_matches_product_of_k_embed_factors(dim):
    rng = np.random.default_rng([21, dim])
    factors = [random_two_level_gate(dim, rng) for _ in range(3 * dim)]
    want = np.eye(dim, dtype=complex)
    for f in factors:
        want = k_embed(dim, f.i, f.j, f.v) @ want
    got = reconstruct(decomposition(dim, factors))
    assert np.max(np.abs(got - want)) < 1e-12


def pair_by_pair(d):
    """reconstruct's reference: one factor per step in sequence order, each
    mixing its two rows as numpy multiplies and adds them."""
    out = np.eye(d.dim, dtype=complex)
    for i, j, v in zip(d.i.tolist(), d.j.tolist(), d.blocks):
        a, b = out[i - 1].copy(), out[j - 1].copy()
        out[i - 1] = v[0, 0] * a + v[0, 1] * b
        out[j - 1] = v[1, 0] * a + v[1, 1] * b
    return out


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 16, 64, 128])
def test_reconstruct_is_the_pair_loop_bit_for_bit_on_decompositions(dim):
    d = decompose_unitary(haar_unitary(np.random.default_rng([22, dim]), dim))
    assert np.array_equal(reconstruct(d), pair_by_pair(d))


def test_reconstruct_is_the_pair_loop_bit_for_bit_on_any_factor_list():
    rng = np.random.default_rng(23)
    eye = np.eye(2, dtype=complex)
    lists = [
        [TwoLevelGate(3, 1, 3, random_unitary2(rng))],  # a single factor
        [TwoLevelGate(4, 2, 4, random_unitary2(rng)) for _ in range(5)],  # one pair repeated
        [TwoLevelGate(4, 1, 2, eye), TwoLevelGate(4, 3, 4, eye), TwoLevelGate(4, 2, 3, eye)],
    ]
    for dim in (2, 3, 4, 5, 8, 16):
        for count in (2, 3 * dim, 20 * dim):  # rows shared between factors
            factors = [random_two_level_gate(dim, rng) for _ in range(count)]
            for k in rng.choice(count, size=count // 3, replace=False):
                factors[k] = TwoLevelGate(dim, factors[k].i, factors[k].j, eye)
            lists.append(factors)
    for factors in lists:
        d = decomposition(factors[0].dim, factors)
        assert np.array_equal(reconstruct(d), pair_by_pair(d)), [(f.i, f.j) for f in factors]
    empty = Decomposition(3, np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros((0, 2, 2)))
    assert np.array_equal(reconstruct(empty), np.eye(3))


@pytest.mark.parametrize("dim", [2, 3, 5, 16, 64, 128, 256])
def test_reconstruct_takes_a_step_per_layer_of_disjoint_pairs(monkeypatch, dim):
    """decompose_unitary's N(N-1)/2 factors fall into 2N - 3 layers. A
    layer is one step while its rows hold at most 2^14 entries, as every
    layer does up to N = 128, whose largest has N/2 pairs; above that a
    layer is split into steps of that size. The product rebuilds U within
    RECONSTRUCTION_TOL."""
    u = haar_unitary(np.random.default_rng([24, dim]), dim)
    d = decompose_unitary(u)
    calls = []
    mix = gates.mix_pairs
    monkeypatch.setattr(gates, "mix_pairs", lambda *args: calls.append(args) or mix(*args))
    assert np.array_equal(reconstruct(d), pair_by_pair(d))
    if dim <= 128:
        assert len(calls) <= 2 * dim - 3
    for v, out, p0, p1 in calls:
        assert len(p0) * dim <= max(2**14, dim)
        rows = np.concatenate([p0, p1])  # the pairs of one step are disjoint
        assert len(set(rows.tolist())) == len(rows)
    assert reconstruction_residual(d, u) <= RECONSTRUCTION_TOL


def test_apply_rejects_state_of_the_wrong_dimension():
    c = gate(2, 1, FLIP)
    with pytest.raises(ValueError):
        apply(c, pure_state(basis_vector(0, 3)))
    with pytest.raises(ValueError):
        apply_vector(c, np.zeros(8))
    # A stack of states is no state vector. Two gates on wire 1 controlled
    # by the last wire mix 2 free offsets each at n = 3, where an (8, 3)
    # stack would broadcast to a wrong answer, and 4 at n = 4, where a
    # (16, 3) stack would fail inside numpy.
    for n in (3, 4):
        two = circuit(n, [gate(n, 1, FLIP, mask=1, value=b) for b in (0, 1)])
        with pytest.raises(ValueError, match=rf"^dimension mismatch: {2**n} vs shape \({2**n}, 3\)$"):
            apply_vector(two, np.ones((2**n, 3)))


def test_circuit_rejects_mismatched_gate_dims():
    """A circuit holds no gate objects, only columns, and checks them
    against its own n as it checks a one-gate circuit; two-level gates have
    no columns in it (see test_two_level_line_is_not_a_circuit_line)."""
    with pytest.raises(ValueError, match="^target must be at most 2, got 3$"):
        circuit(2, [gate(3, 3, np.eye(2))])
    with pytest.raises(ValueError, match="^mask must be at most 3, got 4$"):
        circuit(2, [gate(3, 2, np.eye(2), mask=4)])
    eye = np.eye(2)[None]
    for target, mask, blocks, message in (
        ([1, 2], [0], eye, "gate columns differ in length"),
        ([3], [0], eye, "target must be at most 2, got 3"),
        ([1], [2], eye, "target wire 1 is in mask 2"),
        ([1], [0], 2 * eye, "gate block is not unitary within tolerance"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Circuit(2, target, mask, [0] * len(mask), blocks, [math.nan])
    with pytest.raises(ValueError, match="^gate columns differ in length$"):
        Circuit(1, [1], [0], [0], eye, [math.nan, math.nan])
    for n, angle, message in (
        (2.0, [math.nan], r"n must be an integer, got 2\.0"),
        (np.float64(2), [math.nan], r"n must be an integer, got \S*2\.0\S*"),  # numpy's repr
        (np.bool_(True), [math.nan], r"n must be an integer, got \S*True\S*"),
        (1, [True], r"angle must be real numbers, got \['bool'\]"),
        (1, np.array([0.0j]), r"angle must be real numbers, got \['complex128'\]"),
        (1, np.array(["0"]), r"angle must be real numbers, got \['str_'\]"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Circuit(n, [1], [0], [0], eye, angle)
    c = Circuit(np.int64(2), [1], [0], [0], None, np.array([0.0], dtype=np.float32))
    assert type(c.n) is int and format_circuit(c) == "QSIM-CIRCUIT v2 n=2\nROT 1 0 .\n"


def test_sequences_run_without_gate_objects(monkeypatch):
    """Synthesis, simulation, decomposition and text work on the columns:
    with Circuit.gates and the two-level gate constructor broken, every
    stage still runs."""
    from qsim import grover_rudolph as gr, udecomp

    def broken(self):
        raise AssertionError("a gate object was built")

    monkeypatch.setattr(Circuit, "gates", property(broken))
    monkeypatch.setattr(TwoLevelGate, "__post_init__", broken)
    with pytest.raises(AssertionError, match="gate object"):
        circuit(1).gates
    # All the mass on [0, 1/2): pruning drops the zero-angle rotations.
    halves = (gr.DensitySegment(0.0, 0.5, (2.0,)), gr.DensitySegment(0.5, 1.0, (0.0,)))
    tree = gr.angle_tree(gr.PiecewisePolyDensity(halves), 4)
    assert circuit_length(gr.synthesize(tree, prune=True)) < 15
    for prune in (False, True):
        c = gr.synthesize(tree, prune=prune)
        text = format_circuit(c)
        assert format_circuit(parse_circuit(text)) == text
        psi = apply_vector(c, basis_vector(0, 4))
        assert np.allclose(apply(c, pure_state(basis_vector(0, 4))).mat, np.outer(psi, psi.conj()))
    u = np.linalg.qr(np.random.default_rng(31).normal(size=(6, 6)))[0]
    factors, norm = udecomp.reduce_vector(u[:, 0])
    assert [(f.i, f.j) for f in factors] == [(1, j) for j in range(2, 7)]
    d = udecomp.decompose_unitary(u)
    text = udecomp.format_decomposition(d)
    assert udecomp.format_decomposition(udecomp.parse_decomposition(text)) == text
    assert np.max(np.abs(reconstruct(d) - u)) < 1e-12


def test_factor_lists_live_with_the_gate_sequences():
    """udecomp re-exports the factor list, its dense oracle and its text
    from gates, and binds no private name of gates."""
    from qsim import udecomp

    for name in ("Decomposition", "k_embed", "reconstruct", "format_decomposition",
                 "parse_decomposition"):
        assert getattr(udecomp, name) is getattr(gates, name)
    private = [k for k, x in vars(udecomp).items()
               if k.startswith("_") and not k.startswith("__") and getattr(gates, k, None) is x]
    assert private == []


def test_two_level_line_is_not_a_circuit_line():
    line = "TWO-LEVEL 1 2 1 0 0 0 0 0 1 0"
    assert parse_decomposition(f"QSIM-FACTORS v1 dim=2\n{line}\n").i.tolist() == [1]
    with pytest.raises(CircuitParseError, match="unknown kind"):
        parse_circuit(f"QSIM-CIRCUIT v2 n=1\n{line}\n")


# --- serialization -----------------------------------------------------------------------


def test_integer_fields_reject_bools_as_they_reject_floats():
    """target, mask, value, i and j are 1-D int64 columns read by
    linalg.as_count's rule: a float or a bool is turned away with its
    ValueError, naming the column and the first bad entry, on single gates and
    on the column containers alike, and a column of other than one axis,
    angles too, naming the column."""
    eye = np.eye(2)
    for bad in (True, False, 1.0):
        for make, name in (
            (lambda: gate(2, bad, eye), "target"),
            (lambda: gate(3, 2, eye, mask=bad), "mask"),
            (lambda: gate(3, 2, eye, mask=1, value=bad), "value"),
            (lambda: TwoLevelGate(4, bad, 2, eye), "i"),
            (lambda: TwoLevelGate(4, 1, bad, eye), "j"),
        ):
            with pytest.raises(ValueError) as info:
                make()
            assert str(info.value) == f"{name} must be an integer, got {bad!r}"
    blocks, none = np.array([eye, eye]), [math.nan, math.nan]
    ints, bools = np.array([1, 2]), np.array([True, True])
    # A list that mixes ints and bools is turned away too, not read as ints;
    # numpy's bool prints as True or np.True_, by its version.
    got, np_true = "must be an integer, got", r"\S*True\S*"
    for columns, message in (((bools, ints * 0, ints * 0), f"target {got} {np_true}"),
                             ((ints, bools, ints * 0), f"mask {got} {np_true}"),
                             ((ints, [4, 4], bools), f"value {got} {np_true}"),
                             (([1, True], [0, 0], [0, 0]), f"target {got} True"),
                             ((ints, [0, np.True_], [0, 0]), f"mask {got} {np_true}"),
                             ((ints, [4, 4], (0, False)), f"value {got} False")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Circuit(3, *columns, blocks, none)
    for i, j, message in ((bools, [2, 3], f"i {got} {np_true}"),
                          ([1, 2], bools, f"j {got} {np_true}"),
                          ([1, True], [2, 3], f"i {got} True"),
                          ([1, 2], [2, True], f"j {got} True")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Decomposition(4, i, j, blocks)
    # Every column is 1-D: a nested or a scalar column is a ValueError by the
    # axes rule of linalg.as_numbers, before any length or bit is compared.
    eyes = np.eye(2)[None]
    for make, name, ndim in (
        (lambda: Circuit(2, [[1, 2]], [[0, 0]], [[0, 0]], None, [[0.3, 0.4]]), "angle", 2),
        (lambda: Circuit(1, [[1]], [[0]], [[0]], None, [[0.3]]), "angle", 2),
        (lambda: Circuit(1, 1, 0, 0, None, 0.3), "angle", 0),
        (lambda: Circuit(1, [[1]], [0], [0], None, [0.3]), "target", 2),
        (lambda: Circuit(2, [1], [[0]], [0], None, [0.3]), "mask", 2),
        (lambda: Circuit(2, [1], [0], 0, None, [0.3]), "value", 0),
        (lambda: Decomposition(3, [[1]], [[2]], eyes), "i", 2),
        (lambda: Decomposition(2, 1, 2, eyes), "i", 0),
        (lambda: Decomposition(3, [1], [[2]], eyes), "j", 2),
    ):
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == f"{name} must be a 1-D array, got a {ndim}-D input"
    # The same columns as ints are gates.
    assert len(Circuit(3, ints, [0, 0], [0, 0], blocks, none).gates) == 2
    assert Decomposition(4, [1, 2], [2, 3], blocks).i.tolist() == [1, 2]


def test_controlled_gate_carries_its_angle():
    """Any wire gate whose block is rotation(angle) may carry the angle, and
    is then a ROT line with its control pattern; without one it is CTRL."""
    for target, mask, value, pattern in ((1, 1, 0, "0"), (1, 1, 1, "1"), (2, 2, 2, "1")):
        g = gate(2, target, mask=mask, value=value, angle=0.5)
        assert g.angle[0] == 0.5
        assert format_line(g) == f"ROT {target} 0.5 {pattern}"
        back = parse_line(format_line(g), 2)
        assert (*fields(back), back.angle[0]) == (target, mask, value, 0.5)
        assert every_block(back).tobytes() == every_block(g).tobytes()
    g = gate(2, 1, rotation(0.5), mask=1)
    assert math.isnan(g.angle[0])
    assert format_line(g).startswith("CTRL 1 0 ")


def test_circuit_builds_blocks_from_angles():
    """With blocks None, no block is stored and gate_blocks builds every block
    from its angle: byte for byte rotations(angle), as float64. The columns
    are read-only. A NaN angle is a gate whose block must be given, and
    columns still agree in length."""
    angle = np.array([0.0, 0.3, math.pi / 2, 1e-300, 2.5])
    target, zeros = [1, 2, 1, 2, 1], [0] * 5
    built = Circuit(2, target, zeros, zeros, None, angle)
    assert built.blocks.shape == (0, 2, 2)
    assert every_block(built).dtype == float
    assert every_block(built).astype(complex).tobytes() == rotations(angle).tobytes()
    assert built.angle.tobytes() == angle.tobytes()
    for name in ("target", "mask", "value", "blocks", "angle"):
        assert not getattr(built, name).flags.writeable, name
    # The angle column is a copy: the caller's array stays writeable and apart.
    angle[0] = 0.1
    assert built.angle[0] == 0.0
    with pytest.raises(ValueError, match="^gate columns differ in length$"):
        Circuit(1, [1], [0], [0], None, [math.nan])
    with pytest.raises(ValueError, match="^gate columns differ in length$"):
        Circuit(1, [1, 1], [0, 0], [0, 0], None, [0.5])


def test_gate_blocks_are_the_stacked_rotation_entries():
    """gate_blocks fills each block in place: byte for byte the stack of
    (cos, -sin, sin, cos) of its angle, for NaN and infinite angles and an
    empty column too, and with given blocks, when there are any, scattered in
    at the NaN angles."""
    rng = np.random.default_rng(85)
    for k in (0, 1, 2, 7, 64):
        angle = rng.uniform(-10.0, 10.0, k)
        angle[rng.random(k) < 0.3] = rng.choice([math.nan, math.inf, -math.inf])
        with np.errstate(invalid="ignore"):
            c, s = np.cos(angle), np.sin(angle)
        want = np.stack([c, -s, s, c], axis=-1).reshape(-1, 2, 2)
        got = gate_blocks(angle)
        assert got.dtype == float and got.shape == (k, 2, 2)
        assert got.tobytes() == want.tobytes()
        given = rotations(rng.uniform(-1.0, 1.0, int(np.isnan(angle).sum())))
        want = want.astype(complex)
        want[np.isnan(angle)] = given
        assert gate_blocks(angle, given).astype(complex).tobytes() == want.tobytes()
    assert rotations(0.3).tobytes() == rotations([0.3]).tobytes()


def test_only_given_blocks_are_gram_tested(monkeypatch):
    """A block built from a finite angle is a rotation, unitary by
    construction: synthesis and a ROT-only file make no Gram test call, and
    a parsed file or a Circuit hands it only the blocks of its CTRL gates."""
    from qsim import grover_rudolph as gr

    rows, check = [], gates._check_blocks
    monkeypatch.setattr(gates, "_check_blocks", lambda b: rows.append(len(b)) or check(b))
    density = gr.load_density(resources.files("qsim.data") / "triangular.json")
    assert circuit_length(gr.synthesize(gr.angle_tree(density, 8))) == 255
    assert rows == []
    parse_circuit("QSIM-CIRCUIT v2 n=2\nROT 1 0.5 .\nROT 2 0.25 0\n")
    assert rows == []
    flip, eye = " 0 0 1 0 1 0 0 0", " 1 0 0 0 0 0 1 0"
    lines = ["ROT 1 0.5 .", "CTRL 2 ." + eye, "ROT 2 0.25 0", "CTRL 1 1" + flip,
             "ROT 2 -1 1", "CTRL 2 0" + flip, "ROT 1 3 ."]
    rows.clear()
    c = parse_circuit("QSIM-CIRCUIT v2 n=2\n" + "\n".join(lines) + "\n")
    assert (circuit_length(c), sum(rows)) == (7, 3)
    ctrl_blocks = [np.eye(2), FLIP]
    rows.clear()
    angle = [0.5, math.nan, 1.0, math.nan]
    Circuit(2, [1, 2, 1, 2], [0, 0, 0, 2], [0, 0, 0, 2], ctrl_blocks, angle)
    assert sum(rows) == len(ctrl_blocks)


def test_a_built_block_needs_a_finite_angle():
    """rotation(angle) is unitary exactly when angle is finite: an infinite
    angle is rejected as the Gram test rejects a block, and a huge finite
    one builds, writes and reads back byte for byte."""
    message = "gate block is not unitary within tolerance"
    for angle in (math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Circuit(1, [1], [0], [0], None, [angle])
    with pytest.raises(CircuitParseError) as info:
        parse_circuit("QSIM-CIRCUIT v2 n=2\nROT 1 -inf .\n")
    assert str(info.value) == f"bad gate: {message}"
    c = Circuit(2, [1], [0], [0], None, [1e300])
    text = format_circuit(c)
    assert text == "QSIM-CIRCUIT v2 n=2\nROT 1 1.0000000000000001e+300 .\n"
    back = parse_circuit(text)
    for name in ("target", "mask", "value", "blocks", "angle"):
        assert getattr(back, name).tobytes() == getattr(c, name).tobytes(), name
    assert format_circuit(back) == text


def test_format_gate_pins():
    eye = np.eye(2)
    assert format_line(gate(2, 1, angle=0.5)) == "ROT 1 0.5 ."
    assert format_line(gate(1, 1, angle=0.5)) == "ROT 1 0.5 -"
    for g, line in (
        (gate(2, 2, eye), "CTRL 2 . 1 0 0 0 0 0 1 0"),
        (gate(1, 1, eye), "CTRL 1 - 1 0 0 0 0 0 1 0"),
        # Controlled by wire 1, the one wire before the target.
        (gate(2, 2, eye, mask=2, value=2), "CTRL 2 1 1 0 0 0 0 0 1 0"),
        (gate(3, 2, eye, mask=1), "CTRL 2 .0 1 0 0 0 0 0 1 0"),
        (gate(3, 1, eye, mask=3, value=2), "CTRL 1 10 1 0 0 0 0 0 1 0"),
        (gate(3, 1, mask=3, value=2, angle=0.5), "ROT 1 0.5 10"),
        (gate(3, 3, eye, mask=4, value=4), "CTRL 3 1. 1 0 0 0 0 0 1 0"),
        (gate(3, 1, eye, mask=1), "CTRL 1 .0 1 0 0 0 0 0 1 0"),
        (gate(4, 2, eye, mask=9, value=1), "CTRL 2 0.1 1 0 0 0 0 0 1 0"),
    ):
        assert format_line(g) == line
        assert format_line(parse_line(line, g.n)) == line
    # Factor files write a two-level gate as a TWO-LEVEL line.
    text = "QSIM-FACTORS v1 dim=4\nTWO-LEVEL 1 3 1 0 0 0 0 0 1 0\n"
    assert format_decomposition(decomposition(4, [TwoLevelGate(dim=4, i=1, j=3, v=eye)])) == text
    assert format_decomposition(parse_decomposition(text)) == text


def test_stage_layout_pins():
    # Stage 1 is the free rotation of wire n; stage n rotates wire 1 under
    # all the others, the low n - 1 position bits.
    assert gates.stage_layout(3, 1) == (3, 0)
    assert gates.stage_layout(3, 2) == (2, 1)
    assert gates.stage_layout(3, 3) == (1, 3)
    target, mask = gates.stage_layout(4, np.arange(1, 5))
    assert target.tolist() == [4, 3, 2, 1] and mask.tolist() == [0, 1, 3, 7]


def _block_text(v):
    return " ".join(f"{x:.17g}" for x in np.ascontiguousarray(v).view(np.float64).ravel())


def test_control_fields_read_as_the_constructors_build_them():
    """A file of random CTRL lines, and ROT lines on the layout of a
    synthesis stage, reads, one column per field, to the target, mask and
    value that tensor_index gives wire by wire, and each line's circuit
    realizes to the matrix of controlled_gate, a stage's leading wires free."""
    rng = np.random.default_rng(43)
    for n in range(1, 6):
        lines, want = [], []
        for k in range(40):
            v = random_unitary2(rng)
            if n == 1 or k % 2:
                # Every third CTRL line is the full pattern on wire 1.
                target = 1 if k % 3 == 0 else int(rng.integers(1, n + 1))
                free = [None] if k % 3 else []
                z = tuple([0, 1, *free][b] for b in rng.integers(0, 3 - (k % 3 == 0), n - 1))
                wires = z[: target - 1] + (None,) + z[target - 1 :]
                pattern = "".join("." if b is None else str(b) for b in z) or "-"
                lines.append(f"CTRL {target} {pattern} {_block_text(v)}")
                dense = controlled_gate(n, target, z, v)
            else:
                stage = int(rng.integers(2, n + 1))
                suffix = tuple(int(b) for b in rng.integers(0, 2, stage - 1))
                target = n - stage + 1
                wires = (None,) * target + suffix
                angle = float(rng.uniform(0.0, math.pi / 2))
                v = rotation(angle)
                pattern = "." * (target - 1) + "".join(map(str, suffix))
                lines.append(f"ROT {target} {angle!r} {pattern}")
                dense = controlled_gate(n, target, (None,) * (target - 1) + suffix, v)
            mask = tensor_index([int(b is not None) for b in wires])
            want.append((target, mask, tensor_index([b or 0 for b in wires]), v))
            one = parse_circuit(f"QSIM-CIRCUIT v2 n={n}\n{lines[-1]}\n")
            assert np.array_equal(realize(one), dense), lines[-1]
        c = parse_circuit(f"QSIM-CIRCUIT v2 n={n}\n" + "\n".join(lines))
        for k, (target, mask, value, v) in enumerate(want):
            assert (c.target[k], c.mask[k], c.value[k]) == (target, mask, value), lines[k]
            assert np.array_equal(every_block(c)[k], v)


def test_control_fields_are_read_without_a_call_per_line(monkeypatch):
    """parse_circuit reads every ROT and CTRL field of a file as whole
    columns: no per-line call into qpu or _controls, whatever the number of
    lines."""
    from qsim import grover_rudolph as gr, qpu

    segments = (gr.DensitySegment(0.0, 1.0, (0.5, 1.0)),)
    c = gr.synthesize(gr.angle_tree(gr.PiecewisePolyDensity(segments), 12))
    text = format_circuit(c)
    ctrl = "".join(f"CTRL {t} 0.1.0.1.0.1 {_block_text(FLIP)}\n" for t in range(1, 13))
    want = parse_circuit(text + ctrl)

    def boom(*args):
        raise AssertionError("a per-line call")

    for module, name in ((qpu, "tensor_index"), (qpu, "decode"), (gates, "_controls")):
        monkeypatch.setattr(module, name, boom)
    got = parse_circuit(text)
    for field in ("target", "mask", "value", "blocks", "angle"):
        assert np.array_equal(getattr(got, field), getattr(c, field), equal_nan=True), field
    got = parse_circuit(text + ctrl)
    for field in ("target", "mask", "value", "blocks", "angle"):
        assert np.array_equal(getattr(got, field), getattr(want, field), equal_nan=True), field


def test_pattern_columns_read_wire_order_bits():
    """Wire 1 is the most significant position bit, as in tensor_index: at
    n = 3, "11" on target 1 is mask and value 3 and "10" on target 3 is mask
    6 and value 4; random patterns up to n = 62 read as tensor_index reads
    their wires one by one."""
    c = parse_circuit("QSIM-CIRCUIT v2 n=3\nROT 1 0.5 11\nROT 3 0.5 10\nROT 2 0.5 .1\n")
    assert (c.mask.tolist(), c.value.tolist()) == ([3, 6, 1], [3, 4, 1])
    rng = np.random.default_rng(5)
    for n in (2, 5, 61, 62):
        lines, want = [], []
        for _ in range(50):
            target = int(rng.integers(1, n + 1))
            wires = ["01."[i] for i in rng.integers(0, 3, n)]
            wires[target - 1] = "."
            lines.append(f"ROT {target} 0.5 {''.join(wires[: target - 1] + wires[target:])}")
            want.append((tensor_index([int(w != ".") for w in wires]),
                         tensor_index([int(w == "1") for w in wires])))
        c = parse_circuit(f"QSIM-CIRCUIT v2 n={n}\n" + "\n".join(lines) + "\n")
        assert list(zip(c.mask.tolist(), c.value.tolist())) == want, n


def test_a_62_wire_ctrl_line_on_position_bit_61_reads_back():
    """Wire 1 of a 62-wire register is position bit 61, the highest bit a
    mask can hold; the line reads to that bit and writes back byte for byte."""
    text = f"QSIM-CIRCUIT v2 n=62\nCTRL 62 1{'.' * 59}0 {_block_text(FLIP)}\n"
    c = parse_circuit(text)
    assert (c.mask.tolist(), c.value.tolist()) == ([2**61 + 2], [2**61])
    assert format_circuit(c) == text


def test_a_bad_pattern_character_is_named_as_written():
    """A character other than 0, 1 and . is reported in the pattern the line
    holds, not in the target-padded wire string the reader builds from it."""
    block = _block_text(FLIP)
    for n, line, pattern in ((2, "ROT 1 0.5 2", "2"), (2, f"CTRL 1 2 {block}", "2"),
                             (4, "ROT 2 0.5 0x1", "0x1"), (3, f"CTRL 3 -1 {block}", "-1")):
        with pytest.raises(CircuitParseError) as info:
            parse_circuit(f"QSIM-CIRCUIT v2 n={n}\n{line}\n")
        assert str(info.value) == (
            f"bad gate: pattern {pattern!r} holds a character other than 0, 1 and .")


def test_a_register_beyond_62_wires_is_rejected_before_any_matrix(monkeypatch):
    """control_projector and controlled_gate read n by Circuit's rule before
    any Kronecker chain starts, so n = 63 and 64 are a ValueError, not a
    2^n-dimensional allocation, and n = 0 is one too."""

    def chain(*args):
        raise AssertionError("a Kronecker chain was started")

    monkeypatch.setattr(gates, "_chain", chain)
    for n, message in ((63, "at most 62, got 63"), (64, "at most 62, got 64"),
                       (0, "at least 1, got 0")):
        for build in (control_projector, controlled_gate):
            with pytest.raises(ValueError) as info:
                build(n, 1, (0,) * max(n - 1, 0), np.eye(2))
            assert str(info.value) == f"n must be {message}"


def test_each_gate_has_one_spelling():
    """A ROT line and the CTRL line of its block act alike, and each is
    written back as read: the angle alone makes a gate a ROT line."""
    angle = 0.75
    block = _block_text(rotation(angle))
    for n, target, pattern in ((1, 1, "-"), (3, 1, "01"), (3, 2, ".."), (3, 3, "1.")):
        rot = f"ROT {target} {angle} {pattern}"
        ctrl = f"CTRL {target} {pattern} {block}"
        a, b = parse_line(rot, n), parse_line(ctrl, n)
        assert fields(a) == fields(b)
        assert np.array_equal(every_block(a), every_block(b))
        assert a.angle[0] == angle and math.isnan(b.angle[0])
        assert (format_line(a), format_line(b)) == (rot, ctrl)


def test_round_trip_is_bit_exact():
    """17 significant digits reproduce every float64 on the way back."""
    rng = np.random.default_rng(19)
    gs = [
        gate(3, 2, random_unitary2(rng)),
        gate(3, 3, angle=0.12345678901234567),
        gate(3, 2, random_unitary2(rng), mask=5, value=4),
        gate(3, 1, random_unitary2(rng), mask=3, value=1),
        gate(3, 3, random_unitary2(rng), mask=2, value=0),
        gate(3, 1, random_unitary2(rng), mask=2, value=2),
    ]
    c = circuit(3, gs)
    text = format_circuit(c)
    # Both CTRL lines with a free wire are in the text.
    assert "\nCTRL 3 .0 " in text and "\nCTRL 1 1. " in text
    back = parse_circuit(text)
    assert back.n == 3
    assert circuit_length(back) == len(gs)
    for orig, parsed in zip(gs, back.gates, strict=True):
        assert type(parsed) is Circuit and parsed.n == 3
        for field in ("target", "mask", "value", "blocks", "angle"):
            assert getattr(parsed, field).tobytes() == getattr(orig, field).tobytes(), field
    assert format_circuit(back) == text


def test_hand_built_files_round_trip():
    """Files that mix ROT lines with and without controls, CTRL lines with
    free wires and the '-' pattern of n = 1 read back to gates that write
    them byte for byte, and run as their dense matrix."""
    rng = np.random.default_rng(47)
    b = [_block_text(random_unitary2(rng)) for _ in range(4)]
    for text, want in (
        ("QSIM-CIRCUIT v2 n=1\nROT 1 0.5 -\nCTRL 1 - " + b[0] + "\nROT 1 -0 -\n",
         [(1, 0, 0), (1, 0, 0), (1, 0, 0)]),
        ("QSIM-CIRCUIT v2 n=3\nROT 3 0.25 ..\nROT 2 1.5 .1\nCTRL 1 1. " + b[1]
         + "\nROT 1 0.125 01\nCTRL 2 0. " + b[2] + "\nCTRL 3 .. " + b[3] + "\n",
         [(3, 0, 0), (2, 1, 1), (1, 2, 2), (1, 3, 1), (2, 4, 0), (3, 0, 0)]),
    ):
        c = parse_circuit(text)
        assert format_circuit(c) == text
        assert list(zip(c.target.tolist(), c.mask.tolist(), c.value.tolist())) == want
        for g in c.gates:
            assert math.isnan(g.angle[0]) or np.array_equal(block(g), rotation(g.angle[0]))
        psi = rng.normal(size=2**c.n) + 1j * rng.normal(size=2**c.n)
        assert np.max(np.abs(apply_vector(c, psi) - realize(c) @ psi)) < 1e-14


def test_parse_circuit_skips_comments_and_blanks():
    text = "\n".join(
        [
            "# a comment",
            "QSIM-CIRCUIT v2 n=2",
            "",
            "ROT 1 0.25 .",
            "   # indented comment",
            "CTRL 2 . 0 0 1 0 1 0 0 0",
            "",
        ]
    )
    c = parse_circuit(text)
    assert c.n == 2
    assert circuit_length(c) == 2
    assert np.array_equal(c.gates[1].blocks[0], FLIP)


def test_header_n_is_checked_before_any_gate_line():
    """A header n above MAX_WIRES = 62 is rejected before any pattern is
    measured against n or split at its target, so a short file neither
    allocates n-sized text nor quotes it back."""
    line = f"CTRL 61 {'.' * 60}0 1 0 0 0 0 0 1 0"
    for n in (63, 10**6, 10**8):
        start = time.process_time()
        with pytest.raises(CircuitParseError) as info:
            parse_circuit(f"QSIM-CIRCUIT v2 n={n}\n{line}\n")
        assert time.process_time() - start < 0.05
        assert str(info.value) == f"n must be at most 62, got {n}"
        assert len(str(info.value)) < 200
    c = parse_circuit(f"QSIM-CIRCUIT v2 n=62\n{line}\n")
    assert (c.n, c.target.tolist(), c.mask.tolist()) == (62, [61], [1])


def test_parse_errors():
    with pytest.raises(CircuitParseError):
        parse_circuit("")
    with pytest.raises(CircuitParseError):
        parse_circuit("WRONG-HEADER n=2\nROT 1 0.5 .\n")
    # The count is ASCII digits only: no separators, spaces, signs or
    # other Unicode digits (U+0663 is ARABIC-INDIC DIGIT THREE).
    for count in ("0", "1_0", " 4", "+4", "\u0663"):
        with pytest.raises(CircuitParseError):
            parse_circuit(f"QSIM-CIRCUIT v2 n={count}\n")
    # Each bad line raises alone, and after a good line of every kind, from
    # the one reader that reads each line kind's fields into arrays.
    good = "ROT 1 0.5 .\nROT 2 0.5 1\nCTRL 1 . 0 0 1 0 1 0 0 0\nCTRL 2 0 0 0 1 0 1 0 0 0\n"
    assert circuit_length(parse_circuit(f"QSIM-CIRCUIT v2 n=2\n{good}")) == 4

    def rejected(line, n):
        for before in ("", good):
            with pytest.raises(CircuitParseError):
                parse_circuit(f"QSIM-CIRCUIT v2 n={n}\n{before}{line}\n")

    for line in (
        "SPIN 1 0.5 .",
        "ROT 1",
        "ROT 1 0.5",  # the pattern is not optional
        "CTRL 1 . 1 0 0 0",  # wrong float count
        "CTRL 1 2 1 0 0 0 0 0 1 0",  # bad bits
        "CTRL 1 . a b c d e f g h",  # bad floats
        "ROT 1 0.5 2",
        "ROT 1 nan .",  # not a rotation
        "ROT 1 inf .",
    ):
        rejected(line, 2)
    # Masks are int64, so n is at most 62, whether or not a mask overflows.
    rejected(f"CTRL 64 {'0' * 63} 1 0 0 0 0 0 1 0", 64)
    rejected("ROT 1 0.5 " + "." * 62, 63)
    # An empty pattern is written "-"; two spaces leave an empty field.
    rejected("CTRL 1  1 0 0 0 0 0 1 0", 1)
    rejected("ROT 1  0.5 -", 1)
    for text in ("CTRL 1 - 1 0 0 0 0 0 1 0", "ROT 1 0.5 -"):
        assert circuit_length(parse_circuit(f"QSIM-CIRCUIT v2 n=1\n{text}\n")) == 1
    # Integer fields follow the header's rule: ASCII digits only, single
    # spaces between fields.
    block = "1 0 0 0 0 0 1 0"
    for field in ("\u0663", "+1", "0_2", " 1", "-1", "", "99999999999999999999"):
        for line in (f"ROT {field} 0.5 01", f"CTRL {field} 01 {block}"):
            rejected(line, 3)
        for line in (f"TWO-LEVEL {field} 2 {block}", f"TWO-LEVEL 1 {field} {block}"):
            with pytest.raises(CircuitParseError):
                parse_decomposition(f"QSIM-FACTORS v1 dim=8\n{line}\n")
    for line in (
        f"CTRL 2 1 {block}",  # pattern too short
        f"CTRL 2 1.1 {block}",  # pattern too long
        "ROT 2 0.5 -",  # "-" is the empty pattern, of n = 1 only
        f"CTRL 4 01 {block}",  # target beyond n
        f"CTRL 2  01 {block}",  # two spaces
        "ROT 1 0.5 01 0.5",  # one field too many
        "CTRL 2 .. 1 0 1 0 1 0 1 0",  # the block is not unitary
        "CTRL 2 .. 1e200 0 0 0 0 0 1 0",  # its square overflows
        f"TWO-LEVEL 1 2 {block}",  # a factor line
    ):
        rejected(line, 3)
    # Every ASCII character, a no-break space and a non-ASCII digit inside a
    # gate line's angle. The line is rejected by the character rule exactly
    # where the per-line rule of str.isprintable rejects it, with its
    # message; a line boundary splits it into two lines the rule passes.
    suffix = ": empty field, control character, non-ASCII text or '_'"
    for char in [*map(chr, range(128)), "\u00a0", "\u0663"]:
        text = f"QSIM-CIRCUIT v2 n=2\nROT 1 0.5 .\nROT 1 0.{char}5 .\n"
        lines = [ln.strip() for ln in text.splitlines()[2:]]
        printable = all(ln.isascii() and ln.isprintable() and "_" not in ln and "  " not in ln
                        for ln in lines)
        try:
            c = parse_circuit(text)
        except CircuitParseError as exc:
            assert (str(exc) == f"bad gate line {lines[0]!r}{suffix}") is not printable, char
        else:
            assert printable and c.angle.tolist() == [0.5, float(f"0.{char}5")], char
        assert printable is (char.isascii() and (char.isprintable() or char in LINE_ENDS)
                             and char != "_"), char


def test_only_the_two_line_kinds_of_version_2_are_read():
    """A v1 file is rejected at its header, and its WIRE and SUFFIX-CTRL
    lines, or its three-field ROT line, are not gate lines of version 2."""
    block = "1 0 0 0 0 0 1 0"
    for text in ("QSIM-CIRCUIT v1 n=2\n", "QSIM-CIRCUIT v1 n=2\nROT 1 0.5\n",
                 "QSIM-CIRCUIT v3 n=2\n", "QSIM-CIRCUIT n=2\n"):
        with pytest.raises(CircuitParseError, match="^bad QSIM-CIRCUIT header "):
            parse_circuit(text)
    for line in ("ROT 1 0.5", f"WIRE 1 {block}", f"SUFFIX-CTRL 2 1 {block}"):
        with pytest.raises(CircuitParseError, match="unknown kind or field count"):
            parse_circuit(f"QSIM-CIRCUIT v2 n=2\n{line}\n")


def test_header_counts_beyond_int64_are_parse_errors():
    """A count of more digits than int() converts (4,300) is a parse error
    with a short message, not Python's ValueError; so is any count of 19
    or more digits, which no int64 column could index."""
    for digits in ("9" * 5000, "9" * 4301, "1" + "0" * 18):
        for text in (f"QSIM-CIRCUIT v2 n={digits}\n", f"QSIM-FACTORS v1 dim={digits}\n"):
            reader = parse_circuit if text.startswith("QSIM-CIRCUIT") else parse_decomposition
            with pytest.raises(CircuitParseError) as info:
                reader(text)
            assert len(str(info.value)) < 200
    assert parse_decomposition("QSIM-FACTORS v1 dim=" + "9" * 18 + "\n").dim == 10**18 - 1


def test_float_fields_reject_non_ascii_digits_and_separators():
    # float() reads each of these as a number, stripping the tab; no writer
    # produces them.
    for angle in ("\u0663", "1_0", "1_0e-1", "\t3", "3\x01"):
        with pytest.raises(CircuitParseError, match="non-ASCII text or '_'"):
            parse_line(f"ROT 1 {angle} -", 1)
    # A vertical tab, form feed or carriage return ends a line of a file,
    # as a newline does: "ROT 1 \x0c3 -" is the two lines "ROT 1" and "3 -".
    for end in ("\x0c", "\x0b", "\r"):
        with pytest.raises(CircuitParseError, match="unknown kind or field count"):
            parse_line(f"ROT 1 {end}3 -", 1)
        assert parse_line(f"ROT 1 3 -{end}", 1).angle[0] == 3.0
    # A tab inside a line survives the per-line strip of a circuit file.
    with pytest.raises(CircuitParseError, match="control character"):
        parse_circuit("QSIM-CIRCUIT v2 n=1\nROT 1 \t3 -\n")
    block = ["1", "0", "0", "0", "0", "0", "1", "0"]
    for i in range(8):
        for entry in ("\u0661", "1_0e-1", "1\x0c", "\t1"):
            bad = " ".join(block[:i] + [entry] + block[i + 1 :])
            # A form feed cuts the line short, or leaves a block that is not unitary.
            match = None if "\x0c" in entry else "non-ASCII text or '_'"
            for kind in ("CTRL 1 1", "CTRL 2 0"):
                with pytest.raises(CircuitParseError, match=match):
                    parse_line(f"{kind} {bad}", 2)
            with pytest.raises(CircuitParseError, match=match):
                parse_decomposition(f"QSIM-FACTORS v1 dim=2\nTWO-LEVEL 1 2 {bad}\n")
    # Comments are skipped before any line is read, so they may hold either.
    c = parse_circuit("QSIM-CIRCUIT v2 n=1\n# \u0663 1_0\nROT 1 3 -\n")
    assert c.gates[0].angle[0] == 3.0


def test_parse_error_messages_are_pinned():
    """Every input that test_parse_errors and
    test_float_fields_reject_non_ascii_digits_and_separators reject, and files
    that mix line kinds, raises CircuitParseError with the exact message of
    golden/parse_errors.json, which the per-line reader wrote before the
    whole-text tokenizer replaced it."""
    cases = json.loads((Path(__file__).parent / "golden" / "parse_errors.json").read_text())
    assert len(cases) == 210
    readers = {"circuit": parse_circuit, "factors": parse_decomposition}
    for case in cases:
        with pytest.raises(CircuitParseError) as info:
            readers[case["reader"]](case["text"])
        assert str(info.value) == case["message"], case["text"]
    # Every reader check runs before Circuit's, which check the columns in
    # file order; line kinds are read in the order of each kind's first line,
    # so a bad CTRL line before a bad ROT line is the one reported only when
    # the file's first gate line is a CTRL line.
    bad_ctrl, bad_rot = "CTRL 1 2 1 0 0 0 0 0 1 0", "ROT 2 0.5 3"
    for lines, bits in (((bad_ctrl, bad_rot), "2"), (("ROT 1 0.5 .", bad_ctrl, bad_rot), "3")):
        with pytest.raises(CircuitParseError) as info:
            parse_circuit("QSIM-CIRCUIT v2 n=2\n" + "\n".join(lines) + "\n")
        assert str(info.value) == (
            f"bad gate: pattern '{bits}' holds a character other than 0, 1 and .")


# Every line boundary of str.splitlines, which circuit files are split at.
LINE_ENDS = ("\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


@st.composite
def circuit_files(draw):
    """(circuit, text, decorated): a circuit of ROT lines with and without
    controls, CTRL lines with free wires, and '-' patterns at n = 1, or of
    no gates; its text, written gate by gate by the per-line rule, not by
    format_circuit; and the same file with comments, blank lines and
    indentation, its lines ended by any line boundary but the last, which
    has no line end."""
    n = draw(st.integers(min_value=1, max_value=8))
    gates = draw(st.lists(st.tuples(
        st.integers(min_value=1, max_value=n), st.text("01.", min_size=n - 1, max_size=n - 1),
        st.one_of(st.none(), st.floats(min_value=-10.0, max_value=10.0)),
    ), max_size=12))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    columns, lines = [[], [], [], [], []], [f"QSIM-CIRCUIT v2 n={n}"]
    for target, pattern, angle in gates:
        wires = pattern[: target - 1] + "." + pattern[target - 1 :]
        columns[0].append(target)
        columns[1].append(int(wires.replace("0", "1").replace(".", "0"), 2))
        columns[2].append(int(wires.replace(".", "0"), 2))
        if angle is None:  # only a gate without an angle passes its block
            columns[3].append(random_unitary2(rng))
            lines.append("CTRL %d %s %s" % (target, pattern or "-", _block_text(columns[3][-1])))
        else:
            lines.append("ROT %d %.17g %s" % (target, angle, pattern or "-"))
        columns[4].append(math.nan if angle is None else angle)
    target, mask, value, blocks, angle = columns
    ints = (np.array(c, dtype=np.int64) for c in (target, mask, value))
    circuit = Circuit(n, *ints, np.reshape(blocks, (-1, 2, 2)), angle)
    noise = st.sampled_from(["", "", "# a comment", "   # indented comment", "\t", "#"])
    pads = st.sampled_from(["", "", " ", "  ", "\t"])
    decorated = []
    for line in lines:
        decorated += [draw(noise), draw(pads) + line + draw(pads)]
    ends = st.sampled_from(LINE_ENDS)
    ended = [ln + draw(ends) for ln in decorated]
    tail = draw(noise)  # a last line with no line end
    if not tail and draw(st.booleans()):  # or the last gate or header line has none
        ended[-1] = decorated[-1]
    return circuit, "\n".join(lines) + "\n", "".join(ended) + tail


@settings(deadline=None, max_examples=60)
@given(circuit_files())
def test_circuit_text_round_trip_property(files):
    """format_circuit writes what the per-line rule writes; comments, blank
    lines, indentation and any line boundary leave the parsed columns as the
    bare text's, and the bare text reads back to the gates that write it byte
    for byte."""
    circuit, text, decorated = files
    assert format_circuit(circuit) == text
    bare, noisy = parse_circuit(text), parse_circuit(decorated)
    assert bare.n == noisy.n == circuit.n
    for field in ("target", "mask", "value", "blocks", "angle"):
        want = getattr(circuit, field)
        assert np.array_equal(getattr(bare, field), want, equal_nan=True), field
        assert np.array_equal(getattr(noisy, field), want, equal_nan=True), field
    assert format_circuit(bare) == text


def test_factor_text_round_trip():
    """A factor file reads back to factors that write it byte for byte, at
    N = 2, 16 and 128."""
    rng = np.random.default_rng(53)
    for dim in (2, 16, 128):
        text = format_decomposition(decompose_unitary(haar_unitary(rng, dim)))
        assert text.count("\nTWO-LEVEL ") == dim * (dim - 1) // 2
        assert format_decomposition(parse_decomposition(text)) == text


def test_rot_line_round_trips_through_the_angle():
    g = parse_line("ROT 2 1.0471975511965979 0.", 3)
    assert isinstance(g, Circuit) and circuit_length(g) == 1
    assert fields(g) == (2, 4, 0)
    assert g.angle[0] == 1.0471975511965979
    assert np.array_equal(block(g), rotation(1.0471975511965979))


@settings(deadline=None, max_examples=40)
@given(
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=7),
)
def test_rotation_gates_round_trip_property(alpha, j, mask, value):
    mask &= ~(1 << (3 - j))  # the target is no control
    g = gate(3, j, mask=mask, value=value & mask, angle=alpha)
    line = format_line(g)
    assert line.startswith("ROT ")
    back = parse_line(line, 3)
    assert (*fields(back), back.angle[0]) == (j, mask, value & mask, alpha)
    assert every_block(back).tobytes() == every_block(g).tobytes()
