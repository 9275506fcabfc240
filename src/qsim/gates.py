"""Elementary gates, circuits, and their text serialization.

A gate is a 2x2 unitary together with an embedding that places it in the
register unitary group: on one wire (WireGate), on a target wire controlled
by a bit pattern on all other wires (ControlledGate), on a target wire
controlled only by the trailing wires (SuffixControlledGate), or mixing two
basis coordinates of the ambient space directly (TwoLevelGate).

Wires are numbered 1..n with wire 1 the leftmost Kronecker factor. A
circuit applies its gates in sequence order, so the realized matrix is the
reversed product: gates[k-1] @ ... @ gates[0].

Simulation never forms that matrix. Every gate mixes pairs of basis
coordinates (p0, p1) by its 2x2 block (gate_pairs), and mix_pairs applies
the block to those pairs in place, on a vector or on the rows of a matrix.
realize and realize_gate build the dense matrices only as the reference
that tests compare the kernel against.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .algprob import DensityMatrix
from .linalg import is_unitary
from .qpu import tensor_index


class CircuitParseError(ValueError):
    """Raised when circuit or factor text cannot be parsed."""


def rotation(alpha: float) -> np.ndarray:
    """The plane rotation [[cos a, -sin a], [sin a, cos a]]."""
    c, s = math.cos(alpha), math.sin(alpha)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def _check_block(v) -> np.ndarray:
    v = np.array(v, dtype=np.complex128)
    if v.shape != (2, 2):
        raise ValueError(f"gate block must be 2x2, got {v.shape}")
    if not is_unitary(v):
        raise ValueError("gate block is not unitary within tolerance")
    v.setflags(write=False)
    return v


def _check_bits(bits) -> tuple[int, ...]:
    bits = tuple(int(b) for b in bits)
    if any(b not in (0, 1) for b in bits):
        raise ValueError(f"control pattern {bits} contains non-bits")
    return bits


@dataclass(frozen=True, eq=False)
class WireGate:
    """v acting on wire j, identity elsewhere.

    angle records that v is rotation(angle), when built that way, so the
    serializer can emit the compact ROT form; an angle that does not give
    exactly v is rejected, since its ROT line would parse to another gate.
    """

    n: int
    j: int
    v: np.ndarray
    angle: float | None = None

    def __post_init__(self):
        if not 1 <= self.j <= self.n:
            raise ValueError(f"wire {self.j} out of range for n={self.n}")
        object.__setattr__(self, "v", _check_block(self.v))
        if self.angle is not None and not np.array_equal(self.v, rotation(self.angle)):
            raise ValueError(f"block is not rotation({self.angle!r})")


@dataclass(frozen=True, eq=False)
class ControlledGate:
    """v on wire target iff every other wire matches the control pattern.

    pattern lists the control bits of wires 1..n skipping the target, in
    wire order (length n-1).
    """

    n: int
    target: int
    pattern: tuple[int, ...]
    v: np.ndarray

    def __post_init__(self):
        if not 1 <= self.target <= self.n:
            raise ValueError(f"target {self.target} out of range for n={self.n}")
        object.__setattr__(self, "pattern", _check_bits(self.pattern))
        if len(self.pattern) != self.n - 1:
            raise ValueError(
                f"pattern length {len(self.pattern)} != n-1 = {self.n - 1}"
            )
        object.__setattr__(self, "v", _check_block(self.v))


@dataclass(frozen=True, eq=False)
class SuffixControlledGate:
    """v on wire n-stage+1, controlled by the last stage-1 wires.

    Wires 1..n-stage are untouched (identity factor); suffix lists the
    control bits of wires n-stage+2..n in wire order. stage ranges over
    2..n; at stage = n this degenerates to a fully controlled gate with
    target wire 1.
    """

    n: int
    stage: int
    suffix: tuple[int, ...]
    v: np.ndarray

    def __post_init__(self):
        if not 2 <= self.stage <= self.n:
            raise ValueError(f"stage {self.stage} out of range for n={self.n}")
        object.__setattr__(self, "suffix", _check_bits(self.suffix))
        if len(self.suffix) != self.stage - 1:
            raise ValueError(
                f"suffix length {len(self.suffix)} != stage-1 = {self.stage - 1}"
            )
        object.__setattr__(self, "v", _check_block(self.v))

    @property
    def target(self) -> int:
        return self.n - self.stage + 1


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


GateSpec = Union[WireGate, ControlledGate, SuffixControlledGate, TwoLevelGate]


def wire_gate(n: int, j: int, v) -> np.ndarray:
    """Realize v on wire j of an n-wire register."""
    return realize_gate(WireGate(n=n, j=j, v=v))


def control_projector(n: int, ell: int, z, v) -> np.ndarray:
    """The (non-unitary) building block that applies v on wire ell when the
    other wires match z, and annihilates every non-matching component.

    z lists the bits of wires 1..n skipping ell, in wire order. v may be an
    arbitrary 2x2 block here; no unitarity is required.
    """
    if not 1 <= ell <= n:
        raise ValueError(f"target {ell} out of range for n={n}")
    z = _check_bits(z)
    if len(z) != n - 1:
        raise ValueError(f"pattern length {len(z)} != n-1 = {n - 1}")
    v = np.asarray(v, dtype=np.complex128)
    if v.shape != (2, 2):
        raise ValueError(f"block must be 2x2, got {v.shape}")
    basis = (
        np.array([[1, 0], [0, 0]], dtype=np.complex128),
        np.array([[0, 0], [0, 1]], dtype=np.complex128),
    )
    out = np.ones((1, 1), dtype=np.complex128)
    bit_iter = iter(z)
    for wire in range(1, n + 1):
        factor = v if wire == ell else basis[next(bit_iter)]
        out = np.kron(out, factor)
    return out


def controlled_gate(n: int, ell: int, z, v) -> np.ndarray:
    """Unitary applying v on wire ell iff the other n-1 wires match z.

    A two-level modification of the identity: only the two basis indices
    whose non-target bits match z are mixed by v.
    """
    return realize_gate(ControlledGate(n=n, target=ell, pattern=z, v=v))


def suffix_controlled_gate(n: int, stage: int, suffix, v) -> np.ndarray:
    """Realize a SuffixControlledGate: identity on the first n-stage wires,
    then v on the next wire controlled by the trailing stage-1 wires."""
    return realize_gate(SuffixControlledGate(n=n, stage=stage, suffix=suffix, v=v))


def realize_gate(g: GateSpec) -> np.ndarray:
    """Dense matrix of a single gate."""
    if isinstance(g, WireGate):
        left = np.eye(2 ** (g.j - 1), dtype=np.complex128)
        right = np.eye(2 ** (g.n - g.j), dtype=np.complex128)
        return np.kron(np.kron(left, g.v), right)
    if isinstance(g, SuffixControlledGate):
        block = realize_gate(ControlledGate(g.stage, 1, g.suffix, g.v))
        return np.kron(np.eye(2 ** (g.n - g.stage), dtype=np.complex128), block)
    # A controlled or two-level gate: the identity with v on its one pair.
    t = list(gate_pairs(g))
    out = np.eye(_gate_dim(g), dtype=np.complex128)
    out[np.ix_(t, t)] = g.v
    return out


def gate_pairs(g: GateSpec):
    """The coordinates (p0, p1) whose pairs the gate's block mixes.

    Row 0 of the block makes the new x[p0], row 1 the new x[p1]; every
    other coordinate is left alone. Wire and suffix-controlled gates mix
    many pairs, given as index arrays; a controlled or two-level gate mixes
    one pair, given as two ints.
    """
    # Two-level gates come first: decomposition mixes one per factor.
    if isinstance(g, TwoLevelGate):
        return g.i - 1, g.j - 1
    if isinstance(g, ControlledGate):
        t = g.target - 1
        p0 = tensor_index(g.pattern[:t] + (0,) + g.pattern[t:])
        return p0, p0 + (1 << (g.n - g.target))
    if isinstance(g, WireGate):
        step = 1 << (g.n - g.j)
        blocks = np.arange(0, 1 << g.n, 2 * step)
        p0 = (blocks[:, None] + np.arange(step)).ravel()
        return p0, p0 + step
    if isinstance(g, SuffixControlledGate):
        p0 = np.arange(tensor_index(g.suffix), 1 << g.n, 1 << g.stage)
        return p0, p0 + (1 << (g.stage - 1))
    raise TypeError(f"not a gate spec: {g!r}")


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
# Line-oriented text, one gate per line, '#' comments and blank lines
# ignored. Floats print with 17 significant digits so parsing reproduces
# every bit. Grammar (bit patterns are contiguous 0/1 strings, '-' when
# empty):
#
#   QSIM-CIRCUIT v1 n=<ASCII digits, at least 1>
#   ROT <wire> <alpha>
#   WIRE <wire> <8 floats: re im re im re im re im, row-major 2x2>
#   CTRL <target> <pattern over the other n-1 wires> <8 floats>
#   SUFFIX-CTRL <stage> <suffix over the last stage-1 wires> <8 floats>
#   TWO-LEVEL <i> <j> <8 floats>

def _format_float(x: float) -> str:
    return f"{x:.17g}"


def _format_block(v: np.ndarray) -> str:
    parts = []
    for row in range(2):
        for col in range(2):
            parts.append(_format_float(float(v[row, col].real)))
            parts.append(_format_float(float(v[row, col].imag)))
    return " ".join(parts)


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


def _format_bits(bits: tuple[int, ...]) -> str:
    return "".join(str(b) for b in bits) if bits else "-"


def _parse_bits(token: str) -> tuple[int, ...]:
    if token == "-":
        return ()
    if not all(ch in "01" for ch in token):
        raise CircuitParseError(f"bad bit pattern {token!r}")
    return tuple(int(ch) for ch in token)


def format_gate(g: GateSpec) -> str:
    """One serialized line for a gate."""
    if isinstance(g, WireGate):
        if g.angle is not None:
            return f"ROT {g.j} {_format_float(g.angle)}"
        return f"WIRE {g.j} {_format_block(g.v)}"
    if isinstance(g, ControlledGate):
        return f"CTRL {g.target} {_format_bits(g.pattern)} {_format_block(g.v)}"
    if isinstance(g, SuffixControlledGate):
        return (
            f"SUFFIX-CTRL {g.stage} {_format_bits(g.suffix)} {_format_block(g.v)}"
        )
    if isinstance(g, TwoLevelGate):
        return f"TWO-LEVEL {g.i} {g.j} {_format_block(g.v)}"
    raise TypeError(f"not a gate spec: {g!r}")


def _parse_header(text: str, kind: str, key: str, least: int) -> tuple[int, list[str]]:
    """The ASCII-digit count, at least `least`, of text's header line
    "QSIM-<kind> v1 <key>=<count>", and the stripped lines after it that
    are neither blank nor '#' comments."""
    lines = (ln.strip() for ln in text.splitlines())
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise CircuitParseError(f"missing QSIM-{kind} header")
    m = re.fullmatch(f"QSIM-{kind} v1 {key}=([0-9]+)", lines[0])
    if not m:
        raise CircuitParseError(f"bad QSIM-{kind} header {lines[0]!r}")
    count = int(m.group(1))
    if count < least:
        raise CircuitParseError(f"{key} must be at least {least}, got {count}")
    return count, lines[1:]


def _parse_two_level(line: str, dim: int) -> TwoLevelGate:
    """Parse one TWO-LEVEL line for a dim-dimensional space."""
    parts = line.split()
    if parts[0] != "TWO-LEVEL":
        raise CircuitParseError(f"expected a TWO-LEVEL line, got {line!r}")
    try:
        i, j = int(parts[1]), int(parts[2])
        return TwoLevelGate(dim=dim, i=i, j=j, v=_parse_block(parts[3:]))
    except CircuitParseError:
        raise
    except (ValueError, IndexError) as exc:
        raise CircuitParseError(f"bad gate line {line!r}: {exc}") from exc


def parse_gate(line: str, n: int) -> GateSpec:
    """Parse one gate line for an n-wire circuit."""
    parts = line.split()
    if not parts:
        raise CircuitParseError("empty gate line")
    kind = parts[0]
    if kind == "TWO-LEVEL":
        return _parse_two_level(line, 2**n)
    try:
        if kind == "ROT":
            if len(parts) != 3:
                raise CircuitParseError(f"ROT needs wire and angle: {line!r}")
            wire = int(parts[1])
            alpha = float(parts[2])
            return WireGate(n=n, j=wire, v=rotation(alpha), angle=alpha)
        if kind == "WIRE":
            return WireGate(n=n, j=int(parts[1]), v=_parse_block(parts[2:]))
        if kind == "CTRL":
            return ControlledGate(
                n=n,
                target=int(parts[1]),
                pattern=_parse_bits(parts[2]),
                v=_parse_block(parts[3:]),
            )
        if kind == "SUFFIX-CTRL":
            return SuffixControlledGate(
                n=n,
                stage=int(parts[1]),
                suffix=_parse_bits(parts[2]),
                v=_parse_block(parts[3:]),
            )
    except CircuitParseError:
        raise
    except (ValueError, IndexError) as exc:
        raise CircuitParseError(f"bad gate line {line!r}: {exc}") from exc
    raise CircuitParseError(f"unknown gate kind {kind!r}")


def format_circuit(c: Circuit) -> str:
    """Full text form: header line then one line per gate."""
    lines = [f"QSIM-CIRCUIT v1 n={c.n}"]
    lines.extend(format_gate(g) for g in c.gates)
    return "\n".join(lines) + "\n"


def parse_circuit(text: str) -> Circuit:
    """Inverse of format_circuit; '#' comments and blank lines are skipped."""
    n, lines = _parse_header(text, "CIRCUIT", "n", 1)
    return Circuit(n=n, gates=tuple(parse_gate(ln, n) for ln in lines))
