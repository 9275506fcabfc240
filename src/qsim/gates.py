"""Elementary gates, gate sequences, and their text serialization.

A gate is a 2x2 unitary together with an embedding that places it in the
register unitary group. A wire gate applies its block to a target wire
wherever a set of control wires, possibly empty, carries a bit pattern;
the other wires are free. A TwoLevelGate mixes two basis coordinates of
the ambient space directly.

Wires are numbered 1..n with wire 1 the leftmost Kronecker factor, which
is array-position bit n - w for wire w (qpu.tensor_index); a wire gate's
control mask and value are ints over those position bits, read from a
pattern column's (k, n - 1) byte matrix with a zero bit put in at the
target's. A circuit applies its gates in sequence order, so the realized
matrix is the reversed product: gates[k-1] @ ... @ gates[0].

A Circuit stores its wire gates as columns, one array per field, as does a
Decomposition its two-level factors. A single wire gate is a Circuit of length
one, so one column check validates every gate sequence: 1-D integer columns
by linalg.as_counts, target from 1 to n, mask and value from 0 to 2^n - 1, i
and j from 1 to dim, and a 1-D angle column and blocks by linalg.as_numbers. A
wire gate with an angle has the block rotation(angle), gate_blocks' rule on each
use; only the other gates' blocks are given, stored and tested for unitarity.
In text, a wire gate with an angle is a ROT line, and any other a CTRL line with
its block; both spell the controls as one wire pattern. The reader raises
linalg.ParseError for what text can get wrong, and Circuit checks the rest.

Simulation never forms the realized matrix. A run is a maximal stretch of
gates that share target and mask and repeat no value, so its gates mix
disjoint pairs and commute: mix_pairs applies a run, as gate_runs lists
it, in one step and in place, and a layer of factors on disjoint row pairs
as reconstruct sorts them. A circuit with no given block runs in float64 on
a float64 vector or a real matrix, any other run in complex128. realize_gate,
and controlled_gate built through it, form dense matrices without gate_runs,
as the tests' reference: reduce(np.kron, ...) of one 2x2 array per wire.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .algprob import DensityMatrix
from .linalg import UNITARY_TOL, ParseError, as_count, as_counts, as_numbers

MAX_WIRES = 62  # masks and values are int64 columns over the position bits
_NOT_UNITARY = "gate block is not unitary within tolerance"
_NO_BLOCKS = np.empty((0, 2, 2), dtype=np.complex128)
_NO_BLOCKS.setflags(write=False)


def rotation(alpha: float) -> np.ndarray:
    """[[cos a, -sin a], [sin a, cos a]], complex, of one angle a, by gate_blocks' rule."""
    return gate_blocks(as_numbers("angle", alpha, ndim=0)).astype(np.complex128)[0]


def gate_blocks(angle: np.ndarray, given: np.ndarray = _NO_BLOCKS) -> np.ndarray:
    """The block of each gate of a float64 angle column, shape (k, 2, 2), by
    the one rule: rotation(angle[k]) unless angle[k] is NaN, else the next
    given block. float64 with none given, and complex with them scattered in."""
    with np.errstate(invalid="ignore"):  # an infinite angle gives a NaN block
        c, s = np.cos(angle), np.sin(angle)
    v = np.empty((*np.shape(angle), 2, 2))
    v[..., 0, 0], v[..., 0, 1], v[..., 1, 0], v[..., 1, 1] = c, -s, s, c
    v = v.reshape(-1, 2, 2)
    if len(given):
        v = v.astype(np.complex128)
        v[np.isnan(angle)] = given
    return v


def _check_blocks(blocks) -> np.ndarray:
    """blocks as a read-only C-ordered complex copy of shape (k, 2, 2), read
    by linalg.as_numbers, each block unitary by the closed-form 2x2 Gram test."""
    v = as_numbers("gate block", blocks, np.complex128)
    v = v.copy(order="C") if v is blocks else np.ascontiguousarray(v)
    if v.shape == (0,):  # an empty list holds no blocks
        v = v.reshape(0, 2, 2)
    if v.shape[1:] != (2, 2):
        raise ValueError(f"gate block must be 2x2, got {v.shape[1:]}")
    # The Frobenius norm of g = v*v - I that linalg.is_unitary measures,
    # from the three distinct entries of g in closed form.
    a, b, c, d = v[:, 0, 0], v[:, 0, 1], v[:, 1, 0], v[:, 1, 1]
    with np.errstate(invalid="ignore", over="ignore"):
        g00 = abs(a) ** 2 + abs(c) ** 2 - 1.0
        g11 = abs(b) ** 2 + abs(d) ** 2 - 1.0
        g01 = a.conj() * b + c.conj() * d
        unitary = np.sqrt(g00 * g00 + g11 * g11 + 2.0 * abs(g01) ** 2) <= UNITARY_TOL
    _reject(~unitary, _NOT_UNITARY)
    v.setflags(write=False)
    return v


def _one_block(v):
    """A column of the one block v: an ndarray keeps numpy's entry types, so
    the number rule reads and names them as in a column of blocks."""
    return np.asarray(v)[None] if isinstance(v, np.ndarray) else [v]


def _same_length(*columns) -> None:
    if len({len(c) for c in columns}) > 1:
        raise ValueError("gate columns differ in length")


def _reject(bad: np.ndarray, message: str, *columns) -> None:
    """ValueError for the first gate flagged bad: message formatted with
    that gate's entry of each column."""
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(message.format(*(c[k] for c in columns)))


def _wire_columns(n: int, target, mask, value, blocks, angle) -> dict[str, np.ndarray]:
    """The checked columns of wire gates on n wires, as Circuit documents
    them. A gate whose angle is not NaN has the block rotation(angle),
    unitary exactly when the angle is finite, and no block is built for it;
    only the given blocks, of the NaN-angle gates, are Gram-tested."""
    n = as_count("n", n, 1, MAX_WIRES)
    top = (1 << n) - 1  # the largest mask or value
    a, target = as_numbers("angle", angle, ndim=1), as_counts("target", target, 1, n)
    angle = a.copy() if a is angle else a  # frozen below, never the caller's array
    mask, value = as_counts("mask", mask, 0, top), as_counts("value", value, 0, top)
    angle.setflags(write=False)
    given = _NO_BLOCKS if blocks is None else _check_blocks(blocks)
    _reject(np.isinf(angle), _NOT_UNITARY)
    at = np.isnan(angle)  # the gates whose blocks are given
    _same_length(target, mask, value, angle)
    _same_length(given, angle[at])
    stride = np.left_shift(1, n - target)
    _reject(mask & stride != 0, "target wire {} is in mask {}", target, mask)
    _reject(value & ~mask != 0, "value {} has bits outside mask {}", value, mask)
    return dict(n=n, target=target, mask=mask, value=value, blocks=given, angle=angle)


def _pair_columns(dim: int, i, j, blocks) -> dict[str, np.ndarray]:
    """The checked columns of two-level gates on dim coordinates."""
    dim = as_count("dim", dim, 2)
    i, j, blocks = as_counts("i", i, 1, dim), as_counts("j", j, 1, dim), _check_blocks(blocks)
    _same_length(blocks, i, j)
    _reject(i >= j, "coordinates ({}, {}) must have i < j", i, j)
    return dict(dim=dim, i=i, j=j, blocks=blocks)


def _unchecked(cls, **fields):
    """A gate or circuit object from parts of columns that were checked already."""
    g = object.__new__(cls)
    g.__dict__.update(fields)
    return g


@dataclass(frozen=True, eq=False)
class TwoLevelGate:
    """Identity except a 2x2 block mixing basis coordinates i < j (1-based)
    of a dim-dimensional space."""

    dim: int
    i: int
    j: int
    v: np.ndarray

    def __post_init__(self):
        c = _pair_columns(self.dim, [self.i], [self.j], _one_block(self.v))
        self.__dict__.update(dim=c["dim"], v=c["blocks"][0])


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Two-level factors of a dim x dim unitary as columns, factor 0
    applying first.

    Factor k is TwoLevelGate(dim, i[k], j[k], blocks[k]). The columns are
    checked as TwoLevelGate checks one factor and stored read-only.
    """

    dim: int
    i: np.ndarray
    j: np.ndarray
    blocks: np.ndarray

    def __post_init__(self):
        self.__dict__.update(_pair_columns(self.dim, self.i, self.j, self.blocks))

    @property
    def factors(self) -> tuple[TwoLevelGate, ...]:
        """The factors as TwoLevelGate objects, built on each read."""
        return tuple(
            _unchecked(TwoLevelGate, dim=self.dim, i=i, j=j, v=v)
            for i, j, v in zip(self.i.tolist(), self.j.tolist(), self.blocks)
        )


def stage_layout(n: int, stage):
    """(target, mask) of Grover-Rudolph stage `stage` on n wires, ints or
    int64 columns (arXiv:quant-ph/0208112): stage l rotates wire n - l + 1
    under the trailing l - 1 wires, the low l - 1 position bits, so stage 1
    is the rotation of wire n without controls."""
    return n + 1 - stage, (1 << (stage - 1)) - 1


def _pattern_columns(n: int, target, chars: np.ndarray, at, length) -> tuple[np.ndarray, ...]:
    """(mask, value) columns of control patterns, pattern k the length[k] bytes
    of chars from at[k], each n - 1 over the wires other than its target in wire
    order: '0' or '1' for a control wire that must carry that bit, '.' if free."""
    _reject(length != n - 1, f"pattern length {{}} != n-1 = {n - 1}", length)
    pattern = chars[at[:, None] + np.arange(n - 1)]
    ctrl, one = pattern != ord("."), pattern == ord("1")
    bad = (ctrl & ~one & (pattern != ord("0"))).any(axis=1)
    if bad.any():
        text = pattern[np.argmax(bad)].tobytes().decode()
        raise ValueError(f"pattern {text!r} holds a character other than 0, 1 and .")
    # Byte j read as bit n - 2 - j, then a zero bit put in at the target's
    # position bit n - target: wire w is bit n - w.
    weights = np.left_shift(1, np.arange(n - 2, -1, -1, dtype=np.int64))
    low = np.left_shift(1, n - target) - 1
    mask, value = (bits.astype(np.int64) @ weights for bits in (ctrl, one))
    return (mask & ~low) << 1 | mask & low, (value & ~low) << 1 | value & low


def _controls(n: int, target: int, pattern) -> tuple[int, int]:
    """(mask, value) of a control pattern over the n - 1 wires other than
    target, in wire order: a bit for each control wire, None for a free
    one. n and target are read by Circuit's rule."""
    pattern = tuple(pattern)
    try:
        text = "".join("." if b is None else str(as_count("bit", b, 0, 1)) for b in pattern)
    except ValueError:
        raise ValueError(f"control pattern {pattern} contains non-bits") from None
    n = as_count("n", n, 1, MAX_WIRES)
    field = np.frombuffer(text.encode(), np.uint8), np.zeros(1, int), np.array([len(text)])
    mask, value = _pattern_columns(n, as_count("target", target, 1, n), *field)
    return mask.item(), value.item()


_EYE = np.eye(2, dtype=np.complex128)
_PROJECTORS = [np.diag(e) for e in _EYE]  # |0><0| and |1><1|


def _chain(n: int, target: int, mask: int, value: int, block) -> np.ndarray:
    """Kronecker product over wires 1..n, wire w at position bit n - w of mask
    and value: block on the target, |b><b| on a control wire that must carry
    b, and I on a free wire. The 1x1 start makes it a new array at n = 1."""
    wires = (block if bit == n - target else _PROJECTORS[value >> bit & 1] if mask >> bit & 1
             else _EYE for bit in range(n - 1, -1, -1))  # wires 1..n in order
    return reduce(np.kron, wires, np.ones((1, 1)))


def control_projector(n: int, ell: int, z, v) -> np.ndarray:
    """The (non-unitary) building block that applies v on wire ell when the
    other wires match z, and annihilates every non-matching component.

    z lists the bits of wires 1..n skipping ell, in wire order. v may be an
    arbitrary 2x2 block here; no unitarity is required.
    """
    mask, value = _controls(n, ell, z)
    v = as_numbers("block", v, np.complex128)
    if v.shape != (2, 2):
        raise ValueError(f"block must be 2x2, got {v.shape}")
    return _chain(n, ell, mask, value, v)


def controlled_gate(n: int, ell: int, z, v) -> np.ndarray:
    """Unitary applying v on wire ell iff the other n-1 wires match z.

    z lists the other wires' bits in wire order, None for a free wire;
    with none free, v mixes only the two basis indices that match z.
    """
    mask, value = _controls(n, ell, z)
    return realize_gate(Circuit(n, [ell], [mask], [value], _one_block(v), [math.nan]))


def k_embed(nn: int, i: int, j: int, v) -> np.ndarray:
    """Identity of size nn with v as the 2x2 block on coordinates i < j;
    the dense oracle that reconstruct is tested against."""
    g = TwoLevelGate(dim=nn, i=i, j=j, v=v)
    out = np.eye(nn, dtype=np.complex128)
    out[np.ix_([i - 1, j - 1], [i - 1, j - 1])] = g.v
    return out


def realize_gate(g: Circuit) -> np.ndarray:
    """Dense matrix of a one-gate circuit, built without gate_runs: its block
    where the controls match and the identity elsewhere. The two chains share
    their support, so every entry is exactly one entry of the block or of I."""
    if len(g.target) != 1:
        raise ValueError(f"realize_gate takes a one-gate circuit, got {len(g.target)} gates")
    wires = g.n, g.target[0].item(), g.mask[0].item(), g.value[0].item()
    rest = np.eye(2**g.n, dtype=np.complex128) - _chain(*wires, _EYE)
    return _chain(*wires, gate_blocks(g.angle, g.blocks).astype(np.complex128)[0]) + rest


def gate_runs(c: Circuit):
    """(v, p0, p1) of each run of c in sequence order: its k blocks, by
    gate_blocks, and the (k, F) coordinates they mix, block i taking the
    pairs (p0[i], p1[i]).

    Stretches of one target and mask end where a neighbouring target or
    mask differs, and one index of their first gates reads every target and
    mask. p0[i] is value i plus each combination of the free bits,
    those that are neither the target nor a control: the highest run of
    free bits' arange, then each lower run's arange added to every entry so
    far, ascending. p1 = p0 + 2^(n - target). One sort of a stretch's values
    finds a repeat, and only then is it split at each. An empty circuit has no runs.
    """
    n, k = c.n, len(c.target)
    cut = (c.target[1:] != c.target[:-1]) | (c.mask[1:] != c.mask[:-1])
    edges = [0, *(np.flatnonzero(cut) + 1).tolist(), k] if k else []
    blocks = gate_blocks(c.angle, c.blocks)
    for start, stop, target, mask in zip(edges, edges[1:], c.target[edges[:-1]].tolist(),
                                         c.mask[edges[:-1]].tolist()):
        stride = 1 << (n - target)
        free = (1 << n) - 1 - mask - stride
        offsets = None if free else np.zeros(1, dtype=np.int64)
        while free:
            # The highest run of free bits, [lo, hi).
            hi = free.bit_length()
            lo = (~free & ((1 << hi) - 1)).bit_length()
            step = np.arange(0, 1 << hi, 1 << lo)
            offsets = step if offsets is None else (offsets[:, None] + step).ravel()
            free &= (1 << lo) - 1
        values, split, seen = c.value[start:stop], [start], set()
        if ((s := np.sort(values))[1:] == s[:-1]).any():  # a repeat mixes a pair again
            for i, value in enumerate(values.tolist(), start):
                if value in seen:
                    split.append(i)
                    seen.clear()
                seen.add(value)
        for a, b in zip(split, split[1:] + [stop]):
            p0 = c.value[a:b, None] + offsets
            yield blocks[a:b], p0, p0 + stride


def mix_pairs(v: np.ndarray, x: np.ndarray, p0, p1) -> None:
    """In place: (x[p0], x[p1]) <- v @ (x[p0], x[p1]), on a vector or on the
    rows of a matrix. v is one block, or blocks whose leading axes broadcast
    against x[p0]. With int indices, x[p0] is a view into a matrix, so t
    keeps v[1, 0] x[p0] before x[p0] is overwritten.
    """
    a, b = x[p0], x[p1]
    t = v[..., 1, 0] * a
    np.multiply(v[..., 0, 0], a, out=a)
    a += v[..., 0, 1] * b
    np.multiply(v[..., 1, 1], b, out=b)
    b += t
    x[p0], x[p1] = a, b


@dataclass(frozen=True, eq=False)
class Circuit:
    """Wire gates on n wires as columns, gate 0 acting first; a single gate
    is a Circuit of length one.

    Gate k applies blocks[k] on wire target[k] wherever every control wire
    carries its bit. mask[k] and value[k] are ints over array-position bits,
    bit n - w for wire w: wire w is a control iff its mask bit is set, and
    must then carry its value bit; mask 0 is a gate without controls.
    angle[k] is NaN for a gate without a ROT angle, and any other gate has
    the block rotation(angle[k]), which is never stored. blocks lists only
    the NaN-angle gates' blocks, in order; passed in, it may be None for
    none. gate_blocks(angle, blocks) gives every gate's block. The columns
    are checked and stored read-only.
    """

    n: int
    target: np.ndarray
    mask: np.ndarray
    value: np.ndarray
    blocks: np.ndarray
    angle: np.ndarray

    def __post_init__(self):
        columns = self.target, self.mask, self.value, self.blocks, self.angle
        self.__dict__.update(_wire_columns(self.n, *columns))

    @property
    def gates(self) -> tuple[Circuit, ...]:
        """Each gate as a one-gate Circuit of row slices of the checked
        columns and its given block, if any, built on each read, unchecked."""
        columns = self.target, self.mask, self.value, self.angle
        given = np.split(self.blocks, np.cumsum(np.isnan(self.angle)))  # and an empty tail
        return tuple(
            _unchecked(Circuit, n=self.n, target=t, mask=m, value=b, angle=a, blocks=v)
            for t, m, b, a, v in zip(*(c[:, None] for c in columns), given)  # rows of length one
        )


def circuit_length(c: Circuit) -> int:
    """Number of elementary gates; the identity (empty) circuit has 0."""
    return len(c.target)


def apply(c: Circuit, rho: DensityMatrix) -> DensityMatrix:
    """Evolve a copy of rho through the circuit, rho -> G rho G*, within
    1e-15 of the gate-by-gate product, as a complex matrix. Left and right
    multiplication commute, so every run mixes the rows, and then the rows of
    one contiguous conjugate transpose: G rho G* = (G (G rho)*)*. A circuit
    with no given block runs in float64 when rho's imaginary part is all
    zero, which leaves the real parts as the complex run has them.
    """
    if rho.dim != 2**c.n:
        raise ValueError(f"dimension mismatch: {2**c.n} vs {rho.dim}")
    real = not len(c.blocks) and not np.imag(rho.mat).any()
    mat = np.array(np.real(rho.mat) if real else rho.mat)  # rho.mat is complex128
    runs = list(gate_runs(c))
    for _ in range(2):
        for v, p0, p1 in runs:
            mix_pairs(v[:, None, None], mat, p0, p1)
        mat = np.conj(mat.T, order="C")
    return DensityMatrix(mat)


def apply_vector(c: Circuit, psi) -> np.ndarray:
    """The circuit on a copy of the state vector psi, shape (2^n,), run by
    run: bit for bit the gate-by-gate product. The copy is float64 when psi
    is a float64 ndarray and c has no given block, and complex128 otherwise,
    a list included; either way psi is read once, by linalg.as_numbers."""
    real = not len(c.blocks) and isinstance(psi, np.ndarray) and psi.dtype == np.float64
    x = as_numbers("psi", psi, np.float64 if real else np.complex128)
    psi = x.copy() if x is psi else x
    if psi.shape != (2**c.n,):
        raise ValueError(f"dimension mismatch: {2**c.n} vs shape {psi.shape}")
    for v, p0, p1 in gate_runs(c):
        mix_pairs(v[:, None], psi, p0, p1)
    return psi


def reconstruct(d: Decomposition) -> np.ndarray:
    """Multiply the factors back together in application order, bit for bit
    as one factor per step: a factor goes one layer after the last to touch
    its row i or j (Sameh and Kuck, J. ACM 25, 1978), and a step mixes the
    disjoint pairs of one layer, at most 2^14 row entries, which stay in cache,
    from one slice of the blocks and pairs gathered once in layer order."""
    last, layer = [0] * (d.dim + 1), []  # the last layer to touch each row
    for i, j in zip(d.i.tolist(), d.j.tolist()):
        last[i] = last[j] = max(last[i], last[j]) + 1
        layer.append(last[i])
    out = np.eye(d.dim, dtype=np.complex128)
    order, at = np.argsort(layer, kind="stable"), np.sort(layer)
    rank = np.arange(len(at)) - np.searchsorted(at, at)  # the place within the layer
    bounds = [*np.flatnonzero(rank % max(1, 2**14 // d.dim) == 0).tolist(), len(at)]
    v, p0, p1 = d.blocks[order][:, None], d.i[order] - 1, d.j[order] - 1
    for lo, hi in zip(bounds, bounds[1:]):
        mix_pairs(v[lo:hi], out, p0[lo:hi], p1[lo:hi])
    return out


# --- serialization ---------------------------------------------------------
#
# One gate per line, fields separated by single spaces, '#' comments and
# blank lines ignored; floats print with 17 significant digits, so parsing
# reproduces every bit. A pattern lists the n - 1 wires other than the
# target in wire order, '0'/'1' for a control wire and '.' for a free one,
# and is '-' at n = 1:
#
#   QSIM-CIRCUIT v2 n=<1 to 18 ASCII digits, at least 1>
#   ROT <target> <alpha> <pattern>
#   CTRL <target> <pattern> <8 floats: re im re im re im re im, row-major 2x2>
#
#   QSIM-FACTORS v1 dim=<1 to 18 ASCII digits, at least 2>
#   TWO-LEVEL <i> <j> <8 floats>
#
# A wire gate with an angle is written ROT, its block rotation(alpha);
# every other wire gate is written CTRL. Factor files hold TWO-LEVEL lines.
# The writer fills one (k, 3) table of format arguments, picks each line's
# format by its kind and applies % once. The reader joins the stripped gate
# lines into bytes: one translate checks them, and one scan for spaces and
# line ends bounds every field. Each kind's numeric fields are picked out
# and split once and converted by one np.array call per column; its pattern
# column is gathered from the bytes as a byte matrix, for the column check.

# A block's eight floats: re and im of each entry, in row-major order.
_BLOCK_FORMAT = " ".join(["%.17g"] * 8)
_CIRCUIT_ARITY = {"ROT": 4, "CTRL": 11}
_LINE_FORMATS = np.array(["ROT %d %.17g %s\n", "CTRL %d %s %s\n"], dtype=object)
# Gate lines and their '\n': printable ASCII but '_', which float() reads in '1_0'.
_GATE_BYTES = bytes(range(0x20, 0x7F)).replace(b"_", b"") + b"\n"


def _format_blocks(blocks: np.ndarray) -> list[str]:
    """The eight floats of each block of a C-ordered (k, 2, 2) array, one
    string per block, from one format over the flat array."""
    text = (_BLOCK_FORMAT + "\n") * len(blocks)
    return (text % tuple(blocks.view(np.float64).ravel().tolist())).split("\n")[:-1]


def _patterns(c: Circuit) -> list[str]:
    """The pattern of every gate of c, from one pass over its columns: the
    bits of mask and value on wires 1..n, the target's column dropped, as
    the lines of one decoded byte matrix."""
    n, k = c.n, len(c.target)
    if n == 1:
        return ["-"] * k

    def wires(x):  # (k, n) bits, column w - 1 that of wire w, position bit n - w
        return np.unpackbits(x.astype(">u8").view(np.uint8).reshape(k, 8), axis=1)[:, 64 - n:]

    lines = np.full((k, n), ord("\n"), dtype=np.uint8)  # n - 1 pattern bytes and a '\n'
    others = np.arange(n) != c.target[:, None] - 1
    lines[:, :-1] = (ord(".") + wires(c.mask) * (2 + wires(c.value)))[others].reshape(k, n - 1)
    return lines.tobytes().decode().split("\n")[:-1]


def _parse_header(text: str, kind: str, version: int, key: str,
                  least: int, most: int | None = None) -> tuple[int, list[str]]:
    """The count of 1 to 18 ASCII digits, within least..most by linalg.as_count,
    of text's header line "QSIM-<kind> v<version> <key>=<count>", and the
    stripped lines after it that are neither blank nor '#' comments."""
    lines = [ln for ln in filter(None, map(str.strip, text.splitlines())) if ln[0] != "#"]
    if not lines:
        raise ParseError(f"missing QSIM-{kind} header")
    m = re.fullmatch(f"QSIM-{kind} v{version} {key}=([0-9]{{1,18}})", lines[0])  # an int64 count
    if not m:
        raise ParseError(f"bad QSIM-{kind} header {lines[0][:80]!r}")
    try:
        return as_count(key, int(m.group(1)), least, most), lines[1:]
    except ValueError as exc:
        raise ParseError(*exc.args) from None


def _gate_fields(lines: list[str], arity: dict[str, int]) -> tuple[np.ndarray, np.ndarray, dict]:
    """The gate lines as bytes, each ended by '\\n'; the offset of each of their
    space-separated fields, then of the end; and the fields grouped by kind in
    the order of each kind's first line: kind -> (line indices, (k, arity)
    field numbers). A line of an unknown kind or field count is rejected, and
    so is one that no writer produces: with an empty field, or what float()
    would also read, non-ASCII digits, '_' or a control character."""
    raw = "\n".join([*lines, ""]).encode("utf-8", "surrogatepass")
    chars = np.frombuffer(raw, np.uint8)
    start = np.append(0, np.flatnonzero(chars <= ord(" ")) + 1)  # after each ' ' or '\n'
    if raw.translate(None, _GATE_BYTES) or (np.diff(start) == 1).any():
        bad = next(ln for ln in lines if "  " in ln
                   or ln.encode("utf-8", "surrogatepass").translate(None, _GATE_BYTES))
        raise ParseError(
            f"bad gate line {bad!r}: empty field, control character, non-ASCII text or '_'")
    last = np.flatnonzero(chars[start[1:] - 1] == ord("\n"))  # each line's last field
    first = np.append(0, last + 1)[:-1]  # and its kind field
    size = start[first + 1] - start[first] - 1  # each kind field's length
    code = np.full(len(lines), len(arity))
    for i, name in enumerate(arity):  # a kind field of name's length, then its bytes
        index = np.flatnonzero(size == len(name))
        word = chars[start[first[index], None] + np.arange(len(name))]
        code[index[(word == np.frombuffer(name.encode(), np.uint8)).all(axis=1)]] = i
    count = np.array([*arity.values(), 0])
    bad = count[code] != last - first + 1
    if bad.any():
        line = lines[np.argmax(bad)]
        raise ParseError(f"bad gate line {line!r}: unknown kind or field count")
    names, groups = list(arity), {}
    for i in code[np.sort(np.unique(code, return_index=True)[1])].tolist():
        index = np.flatnonzero(code == i)
        groups[names[i]] = index, first[index, None] + np.arange(count[i])
    return chars, start, groups


def _strings(chars: np.ndarray, start: np.ndarray, field) -> list[str]:
    """The fields numbered field, ascending, as strings, from one pick of
    their bytes, each with its separator, and one split."""
    keep = np.zeros(len(start) - 1, dtype=bool)
    keep[field] = True
    return chars[np.repeat(keep, np.diff(start))].tobytes().decode().split()


def _numbers(tokens: list[str], dtype=np.float64) -> np.ndarray:
    """Field strings as one array of numbers; an integer field is ASCII
    digits only, like the header's count."""
    try:
        # The lines are ASCII and no field is empty, so one test of the
        # joined fields tests each.
        if dtype is np.int64 and tokens and not "".join(tokens).isdigit():
            raise ValueError("an integer field is not ASCII digits")
        return np.array(tokens, dtype=dtype)
    except (ValueError, OverflowError) as exc:
        raise ParseError(f"bad number in a gate line: {exc}") from exc


def format_circuit(c: Circuit) -> str:
    """Full text form: header line then one line per gate, ROT for a gate
    with an angle and CTRL for any other, from one % format of a table of
    target, angle and pattern, or target, pattern and block, per line."""
    ctrl = np.isnan(c.angle)
    table = np.empty((len(ctrl), 3), dtype=object)
    table[:, 0], table[:, 1], table[:, 2] = c.target.tolist(), c.angle.tolist(), _patterns(c)
    table[ctrl, 1] = table[ctrl, 2]
    table[ctrl, 2] = _format_blocks(c.blocks)
    lines = "".join(_LINE_FORMATS[ctrl.view(np.int8)].tolist())
    return f"QSIM-CIRCUIT v2 n={c.n}\n{lines}" % tuple(table.ravel().tolist())


def parse_circuit(text: str) -> Circuit:
    """Inverse of format_circuit; '#' comments and blank lines are skipped."""
    # n is at most MAX_WIRES before any line is padded or indexed to n wires.
    n, lines = _parse_header(text, "CIRCUIT", 2, "n", 1, MAX_WIRES)
    k = len(lines)
    target, mask, value = (np.zeros(k, dtype=np.int64) for _ in range(3))
    angle, rot, blocks = np.full(k, math.nan), [], None
    try:
        chars, start, groups = _gate_fields(lines, _CIRCUIT_ARITY)
        for kind, (index, field) in groups.items():
            at = 3 if kind == "ROT" else 2  # the pattern field
            # Each line's target, then its angle or its block's eight floats.
            tokens = _strings(chars, start, np.delete(field, [0, at], axis=1))
            width, pattern = field.shape[1] - 2, start[field[:, at]]
            length = start[field[:, at] + 1] - pattern - 1
            length -= (length == 1) & (chars[pattern] == ord("-"))  # '-': no other wires
            target[index] = _numbers(tokens[::width], np.int64)  # Circuit checks its range
            mask[index], value[index] = _pattern_columns(n, target[index], chars, pattern, length)
            del tokens[::width]
            if kind == "ROT":  # its block is built from the angle
                rot, angle[index] = index, _numbers(tokens)
            else:  # the blocks of the CTRL lines, in file order
                blocks = _numbers(tokens).view(np.complex128).reshape(-1, 2, 2)
        _reject(np.isnan(angle[rot]), _NOT_UNITARY)  # a ROT line's NaN angle: a NaN block
        return Circuit(n, target, mask, value, blocks, angle)
    except ParseError:
        raise
    except (ValueError, OverflowError) as exc:  # OverflowError: an n no array can index
        raise ParseError(f"bad gate: {exc}") from exc


def format_decomposition(d: Decomposition) -> str:
    lines = [f"QSIM-FACTORS v1 dim={d.dim}"]
    columns = d.i.tolist(), d.j.tolist(), _format_blocks(d.blocks)
    lines.extend(f"TWO-LEVEL {i} {j} {block}" for i, j, block in zip(*columns))
    return "\n".join(lines) + "\n"


def parse_decomposition(text: str) -> Decomposition:
    dim, lines = _parse_header(text, "FACTORS", 1, "dim", 2)
    chars, start, groups = _gate_fields(lines, {"TWO-LEVEL": 11})
    field = groups["TWO-LEVEL"][1] if groups else np.empty((0, 11), dtype=np.int64)
    ij = _strings(chars, start, field[:, 1:3])
    i, j = _numbers(ij[::2], np.int64), _numbers(ij[1::2], np.int64)
    blocks = _numbers(_strings(chars, start, field[:, 3:])).view(np.complex128).reshape(-1, 2, 2)
    try:
        return Decomposition(dim, i, j, blocks)
    except ValueError as exc:
        raise ParseError(f"bad factor: {exc}") from exc
