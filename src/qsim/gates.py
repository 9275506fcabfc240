"""Elementary gates, circuits, and their text serialization.

A gate is a 2x2 unitary together with an embedding that places it in the
register unitary group. A WireGate applies its block to a target wire
wherever a set of control wires, possibly empty, carries a bit pattern;
the other wires are free. A TwoLevelGate mixes two basis coordinates of
the ambient space directly.

Wires are numbered 1..n with wire 1 the leftmost Kronecker factor, which
is array-position bit n - w for wire w (qpu.tensor_index); a WireGate's
control mask and value are ints over those position bits. A circuit
applies its gates in sequence order, so the realized matrix is the
reversed product: gates[k-1] @ ... @ gates[0].

Simulation never forms that matrix. Every gate mixes pairs of basis
coordinates (p0, p1) by its 2x2 block (gate_pairs), and mix_pairs applies
the block to those pairs in place, on a vector or on the rows of a matrix.
realize and realize_gate build the dense matrices only as the reference
that tests compare the kernel against; they do not read gate_pairs.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .algprob import DensityMatrix
from .linalg import UNITARY_TOL
from .qpu import position_bitstring, tensor_index


class CircuitParseError(ValueError):
    """Raised when circuit or factor text cannot be parsed."""


def rotation(alpha: float) -> np.ndarray:
    """The plane rotation [[cos a, -sin a], [sin a, cos a]]."""
    c, s = math.cos(alpha), math.sin(alpha)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def _check_block(v) -> np.ndarray:
    v = np.array(v, dtype=np.complex128, order="C")
    if v.shape != (2, 2):
        raise ValueError(f"gate block must be 2x2, got {v.shape}")
    # The Frobenius norm of g = v*v - I that linalg.is_unitary measures,
    # from the three distinct entries of g in closed form.
    (a, b), (c, d) = v.tolist()
    g00 = abs(a) ** 2 + abs(c) ** 2 - 1.0
    g11 = abs(b) ** 2 + abs(d) ** 2 - 1.0
    g01 = a.conjugate() * b + c.conjugate() * d
    if not math.sqrt(g00 * g00 + g11 * g11 + 2.0 * abs(g01) ** 2) <= UNITARY_TOL:
        raise ValueError("gate block is not unitary within tolerance")
    v.setflags(write=False)
    return v


@dataclass(frozen=True, eq=False)
class WireGate:
    """v on wire target wherever every control wire carries its bit.

    mask and value are ints over array-position bits, bit n - w for wire w:
    wire w is a control iff its mask bit is set, and must then carry its
    value bit; mask = 0 is a gate without controls. angle records that v is
    exactly rotation(angle), for the ROT line, so only a gate without
    controls carries one.
    """

    n: int
    target: int
    v: np.ndarray
    mask: int = 0
    value: int = 0
    angle: float | None = None

    def __post_init__(self):
        if not 1 <= self.target <= self.n:
            raise ValueError(f"target {self.target} out of range for n={self.n}")
        mask, value = operator.index(self.mask), operator.index(self.value)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "value", value)
        if not 0 <= mask < 1 << self.n:
            raise ValueError(f"mask {mask} out of range for n={self.n}")
        if mask >> (self.n - self.target) & 1:
            raise ValueError(f"target wire {self.target} is in mask {mask}")
        if value & ~mask:
            raise ValueError(f"value {value} has bits outside mask {mask}")
        object.__setattr__(self, "v", _check_block(self.v))
        if self.angle is not None:
            if mask:
                raise ValueError("only a gate without controls carries an angle")
            if not np.array_equal(self.v, rotation(self.angle)):
                raise ValueError(f"block is not rotation({self.angle!r})")


@dataclass(frozen=True, eq=False)
class TwoLevelGate:
    """Identity except a 2x2 block mixing basis coordinates i < j (1-based).

    dim is the ambient dimension; inside a circuit it must equal 2^n.
    """

    dim: int
    i: int
    j: int
    v: np.ndarray

    def __post_init__(self):
        if not 1 <= self.i < self.j <= self.dim:
            raise ValueError(
                f"coordinates ({self.i}, {self.j}) invalid for dim {self.dim}"
            )
        object.__setattr__(self, "v", _check_block(self.v))


GateSpec = Union[WireGate, TwoLevelGate]


def _controls(n: int, target: int, pattern) -> tuple[int, int]:
    """(mask, value) of a control pattern over the n - 1 wires other than
    target, in wire order: a bit for each control wire, None for a free one."""
    if not 1 <= target <= n:
        raise ValueError(f"target {target} out of range for n={n}")
    pattern = tuple(pattern)
    if any(b not in (0, 1, None) for b in pattern):
        raise ValueError(f"control pattern {pattern} contains non-bits")
    if len(pattern) != n - 1:
        raise ValueError(f"pattern length {len(pattern)} != n-1 = {n - 1}")
    wires = pattern[: target - 1] + (None,) + pattern[target - 1 :]
    mask = tensor_index([int(b is not None) for b in wires])
    return mask, tensor_index([int(b or 0) for b in wires])


def _suffix_controls(n: int, stage: int, suffix) -> tuple[int, int, int]:
    """(target, mask, value) of synthesis stage `stage`: target wire
    n - stage + 1, controlled by the trailing stage - 1 wires, which are the
    low position bits, carrying the bits of suffix in wire order."""
    if not 2 <= stage <= n:
        raise ValueError(f"stage {stage} out of range for n={n}")
    suffix = tuple(suffix)
    if len(suffix) != stage - 1:
        raise ValueError(f"suffix length {len(suffix)} != stage-1 = {stage - 1}")
    return n - stage + 1, (1 << (stage - 1)) - 1, tensor_index(suffix)


_EYE = np.eye(2, dtype=np.complex128)
_PROJECTORS = {"0": np.diag([1.0, 0.0]).astype(np.complex128),
               "1": np.diag([0.0, 1.0]).astype(np.complex128)}


def _chain(n: int, target: int, mask: int, value: int, block) -> np.ndarray:
    """Kronecker product over wires 1..n: block on the target, |b><b| on a
    control wire that must carry b, and I on a free wire."""
    out = np.ones((1, 1), dtype=np.complex128)
    bits = zip(position_bitstring(mask, n), position_bitstring(value, n))
    for wire, (control, b) in enumerate(bits, start=1):
        factor = block if wire == target else _PROJECTORS[b] if control == "1" else _EYE
        out = np.kron(out, factor)
    return out


def wire_gate(n: int, j: int, v) -> np.ndarray:
    """Realize v on wire j of an n-wire register."""
    return realize_gate(WireGate(n, j, v))


def control_projector(n: int, ell: int, z, v) -> np.ndarray:
    """The (non-unitary) building block that applies v on wire ell when the
    other wires match z, and annihilates every non-matching component.

    z lists the bits of wires 1..n skipping ell, in wire order. v may be an
    arbitrary 2x2 block here; no unitarity is required.
    """
    mask, value = _controls(n, ell, z)
    v = np.asarray(v, dtype=np.complex128)
    if v.shape != (2, 2):
        raise ValueError(f"block must be 2x2, got {v.shape}")
    return _chain(n, ell, mask, value, v)


def controlled_gate(n: int, ell: int, z, v) -> np.ndarray:
    """Unitary applying v on wire ell iff the other n-1 wires match z.

    A two-level modification of the identity: only the two basis indices
    whose non-target bits match z are mixed by v.
    """
    mask, value = _controls(n, ell, z)
    return realize_gate(WireGate(n, ell, v, mask, value))


def suffix_controlled_gate(n: int, stage: int, suffix, v) -> np.ndarray:
    """Identity on the first n-stage wires, then v on the next wire
    controlled by the trailing stage-1 wires matching suffix."""
    target, mask, value = _suffix_controls(n, stage, suffix)
    return realize_gate(WireGate(n, target, v, mask, value))


def realize_gate(g: GateSpec) -> np.ndarray:
    """Dense matrix of a single gate, built without gate_pairs."""
    if isinstance(g, TwoLevelGate):
        t = [g.i - 1, g.j - 1]
        out = np.eye(g.dim, dtype=np.complex128)
        out[np.ix_(t, t)] = g.v
        return out
    # v where the controls match and the identity elsewhere. The two chains
    # share their support, so every entry is exactly one entry of v or of I.
    rest = np.eye(2**g.n, dtype=np.complex128) - _chain(g.n, g.target, g.mask, g.value, _EYE)
    return _chain(g.n, g.target, g.mask, g.value, g.v) + rest


def gate_pairs(g: GateSpec):
    """The coordinates (p0, p1) whose pairs the gate's block mixes.

    Row 0 of the block makes the new x[p0], row 1 the new x[p1]; every
    other coordinate is left alone. A two-level gate mixes one pair. A wire
    gate's p0 is its value plus every combination of its free bits, those
    that are neither the target nor a control: an outer sum of one arange
    per run of free bits, ascending, and p1 = p0 + 2^(n - target). With no
    free bit, p0 and p1 are two ints.
    """
    # Two-level gates come first: decomposition mixes one per factor.
    if isinstance(g, TwoLevelGate):
        return g.i - 1, g.j - 1
    stride = 1 << (g.n - g.target)
    free = (1 << g.n) - 1 - g.mask - stride
    p0 = g.value
    while free:
        # The highest run of free bits, [lo, hi).
        hi = free.bit_length()
        lo = (~free & ((1 << hi) - 1)).bit_length()
        p0 = np.add.outer(p0, np.arange(0, 1 << hi, 1 << lo)).ravel()
        free &= (1 << lo) - 1
    return p0, p0 + stride


def mix_pairs(v: np.ndarray, x: np.ndarray, p0, p1) -> None:
    """In place: (x[p0], x[p1]) <- v @ (x[p0], x[p1]).

    x is a vector, or a matrix whose rows are mixed; pass x.T to mix
    columns. Both new values are computed before either is written,
    because with int indices x[p0] is a view into a matrix.
    """
    a, b = x[p0], x[p1]
    x[p0], x[p1] = v[0, 0] * a + v[0, 1] * b, v[1, 0] * a + v[1, 1] * b


def _gate_dim(g: GateSpec) -> int:
    return g.dim if isinstance(g, TwoLevelGate) else 2**g.n


@dataclass(frozen=True, eq=False)
class Circuit:
    """Ordered gate sequence on n wires; gates[0] acts first."""

    n: int
    gates: tuple[GateSpec, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        dim = 2**self.n
        for g in self.gates:
            if _gate_dim(g) != dim:
                raise ValueError(
                    f"gate {g!r} acts on dim {_gate_dim(g)}, circuit needs {dim}"
                )


def circuit_length(c: Circuit) -> int:
    """Number of elementary gates; the identity (empty) circuit has 0."""
    return len(c.gates)


def realize(c: Circuit) -> np.ndarray:
    """Dense matrix of the whole circuit: last gate leftmost."""
    out = np.eye(2**c.n, dtype=np.complex128)
    for g in c.gates:
        out = realize_gate(g) @ out
    return out


def apply(c: Circuit, rho: DensityMatrix) -> DensityMatrix:
    """Evolve a state through the circuit gate by gate: rho -> G rho G*.

    Each gate mixes its pairs on the rows by v and on the columns by
    conj(v); rho itself is left unchanged.
    """
    if rho.dim != 2**c.n:
        raise ValueError(f"dimension mismatch: {2**c.n} vs {rho.dim}")
    mat = np.array(rho.mat, dtype=np.complex128)
    for g in c.gates:
        p0, p1 = gate_pairs(g)
        mix_pairs(g.v, mat, p0, p1)
        mix_pairs(g.v.conj(), mat.T, p0, p1)
    return DensityMatrix(mat)


def apply_vector(c: Circuit, psi) -> np.ndarray:
    """Apply the circuit to a state vector gate by gate; psi is left unchanged."""
    psi = np.array(psi, dtype=np.complex128)
    if psi.shape[:1] != (2**c.n,):
        raise ValueError(f"dimension mismatch: {2**c.n} vs shape {psi.shape}")
    for g in c.gates:
        mix_pairs(g.v, psi, *gate_pairs(g))
    return psi


# --- serialization ---------------------------------------------------------
#
# Line-oriented text, one gate per line, fields separated by single
# spaces, '#' comments and blank lines ignored. Floats print with 17
# significant digits so parsing reproduces every bit; integer fields are
# ASCII digits only, and a gate line holding non-ASCII text or '_' is
# rejected. Grammar (patterns are in wire order, '0'/'1' for a
# control wire and '.' for a free one, '-' when empty):
#
#   QSIM-CIRCUIT v1 n=<ASCII digits, at least 1>
#   ROT <wire> <alpha>
#   WIRE <wire> <8 floats: re im re im re im re im, row-major 2x2>
#   CTRL <target> <pattern over the other n-1 wires> <8 floats>
#   SUFFIX-CTRL <stage> <bits of the last stage-1 wires> <8 floats>
#   TWO-LEVEL <i> <j> <8 floats>
#
# A wire gate is written ROT or WIRE without controls, SUFFIX-CTRL when its
# controls are exactly the wires after the target, and CTRL otherwise.

# A block's eight floats: re and im of each entry, in row-major order.
_BLOCK_FORMAT = " ".join(["%.17g"] * 8)
_PATTERN_BITS = {"0": 0, "1": 1, ".": None}
# Integer fields and header counts: no sign, separator, space or non-ASCII digit.
_DIGITS = "[0-9]+"


def _format_block(v: np.ndarray) -> str:
    return _BLOCK_FORMAT % tuple(v.view(np.float64).ravel().tolist())


def _fields(line: str) -> list[str]:
    """A gate line's space-separated fields. float() also reads non-ASCII
    digits, '_' separators and the tabs or other control characters it
    strips as whitespace, none of which a writer produces, so a line holding
    any of them is rejected whole."""
    if not (line.isascii() and line.isprintable()) or "_" in line:
        raise CircuitParseError(
            f"bad gate line {line!r}: control character, non-ASCII text or '_'"
        )
    return line.split(" ")


def _parse_block(parts: list[str]) -> np.ndarray:
    if len(parts) != 8:
        raise CircuitParseError(f"expected 8 block numbers, got {len(parts)}")
    try:
        vals = [float(p) for p in parts]
    except ValueError as exc:
        raise CircuitParseError(f"bad float in gate block: {exc}") from exc
    return np.array(
        [
            [complex(vals[0], vals[1]), complex(vals[2], vals[3])],
            [complex(vals[4], vals[5]), complex(vals[6], vals[7])],
        ]
    )


def _parse_digits(token: str) -> int:
    """An integer field: ASCII digits only, like the header's count."""
    if not re.fullmatch(_DIGITS, token):
        raise CircuitParseError(f"bad integer field {token!r}")
    return int(token)


def _parse_pattern(token: str) -> tuple[int | None, ...]:
    if token == "-":
        return ()
    if not token or not set(token) <= _PATTERN_BITS.keys():
        raise CircuitParseError(f"bad bit pattern {token!r}")
    return tuple(_PATTERN_BITS[ch] for ch in token)


def format_gate(g: GateSpec) -> str:
    """One serialized line for a gate, in its one spelling."""
    if isinstance(g, TwoLevelGate):
        return f"TWO-LEVEL {g.i} {g.j} {_format_block(g.v)}"
    if g.angle is not None:
        return f"ROT {g.target} {g.angle:.17g}"
    if not g.mask:
        return f"WIRE {g.target} {_format_block(g.v)}"
    value = position_bitstring(g.value, g.n)
    if g.mask == (1 << (g.n - g.target)) - 1:
        stage = g.n - g.target + 1
        return f"SUFFIX-CTRL {stage} {value[g.target:]} {_format_block(g.v)}"
    mask = position_bitstring(g.mask, g.n)
    pattern = "".join(b if m == "1" else "." for m, b in zip(mask, value))
    pattern = pattern[: g.target - 1] + pattern[g.target :]
    return f"CTRL {g.target} {pattern} {_format_block(g.v)}"


def _parse_header(text: str, kind: str, key: str, least: int) -> tuple[int, list[str]]:
    """The ASCII-digit count, at least `least`, of text's header line
    "QSIM-<kind> v1 <key>=<count>", and the stripped lines after it that
    are neither blank nor '#' comments."""
    lines = (ln.strip() for ln in text.splitlines())
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise CircuitParseError(f"missing QSIM-{kind} header")
    m = re.fullmatch(f"QSIM-{kind} v1 {key}=({_DIGITS})", lines[0])
    if not m:
        raise CircuitParseError(f"bad QSIM-{kind} header {lines[0]!r}")
    count = int(m.group(1))
    if count < least:
        raise CircuitParseError(f"{key} must be at least {least}, got {count}")
    return count, lines[1:]


def _parse_two_level(line: str, dim: int) -> TwoLevelGate:
    """Parse one TWO-LEVEL line for a dim-dimensional space."""
    parts = _fields(line)
    if parts[0] != "TWO-LEVEL":
        raise CircuitParseError(f"expected a TWO-LEVEL line, got {line!r}")
    try:
        i, j = _parse_digits(parts[1]), _parse_digits(parts[2])
        return TwoLevelGate(dim=dim, i=i, j=j, v=_parse_block(parts[3:]))
    except CircuitParseError:
        raise
    except (ValueError, IndexError) as exc:
        raise CircuitParseError(f"bad gate line {line!r}: {exc}") from exc


def parse_gate(line: str, n: int) -> GateSpec:
    """Parse one gate line, in any of its spellings, for an n-wire circuit."""
    parts = _fields(line)
    kind = parts[0]
    if kind == "TWO-LEVEL":
        return _parse_two_level(line, 2**n)
    try:
        if kind == "ROT":
            if len(parts) != 3:
                raise CircuitParseError(f"ROT needs wire and angle: {line!r}")
            alpha = float(parts[2])
            return WireGate(n, _parse_digits(parts[1]), rotation(alpha), angle=alpha)
        if kind == "WIRE":
            target, mask, value = _parse_digits(parts[1]), 0, 0
            block = parts[2:]
        elif kind == "CTRL":
            target = _parse_digits(parts[1])
            mask, value = _controls(n, target, _parse_pattern(parts[2]))
            block = parts[3:]
        elif kind == "SUFFIX-CTRL":
            stage = _parse_digits(parts[1])
            target, mask, value = _suffix_controls(n, stage, _parse_pattern(parts[2]))
            block = parts[3:]
        else:
            raise CircuitParseError(f"unknown gate kind {kind!r}")
        return WireGate(n, target, _parse_block(block), mask, value)
    except CircuitParseError:
        raise
    except (ValueError, IndexError) as exc:
        raise CircuitParseError(f"bad gate line {line!r}: {exc}") from exc


def format_circuit(c: Circuit) -> str:
    """Full text form: header line then one line per gate."""
    lines = [f"QSIM-CIRCUIT v1 n={c.n}"]
    lines.extend(format_gate(g) for g in c.gates)
    return "\n".join(lines) + "\n"


def parse_circuit(text: str) -> Circuit:
    """Inverse of format_circuit; '#' comments and blank lines are skipped."""
    n, lines = _parse_header(text, "CIRCUIT", "n", 1)
    return Circuit(n=n, gates=tuple(parse_gate(ln, n) for ln in lines))
