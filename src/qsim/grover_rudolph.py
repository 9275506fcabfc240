"""Grover-Rudolph synthesis: load a probability density into n qubits.

Given a normalized density on [0,1], the construction bisects the interval
n times. Each node of the bisection tree gets the angle

    angle = arccos sqrt(mass of left child / mass of node)

and the circuit rotates one fresh wire per level, controlled by the wires
already set. Measuring the result yields outcome k with probability equal
to the density's integral over the k-th dyadic subinterval.

Outcome labels are little-endian over the wire bits, and the wires are
consumed from wire n down to wire 1, so the bits fixed after stage l are
the trailing wires: the control suffixes. A suffix of length m is indexed
here by its label s under qpu.decode, first suffix bit least significant;
that integer is also the position of the node's dyadic interval at level
m, which keeps masses, angles, and gate controls aligned. The whole tree
is one array in heap order: the node with m bits fixed and suffix s is
entry 2^m - 1 + s, and the children of entry i are 2i + 1 and 2i + 2.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval

from .gates import MAX_WIRES, Circuit, apply_vector, stage_layout
from .linalg import as_count, as_numbers
from .qpu import decode, label_bitstrings, label_permutation, vector_distribution

DENSITY_NEGATIVE_TOL = 1e-12
DENSITY_NORM_TOL = 1e-10
SEGMENT_JOIN_TOL = 1e-12
ZERO_MASS_TOL = 1e-14
# Largest deviation between any two of verify's three laws that passes.
VERIFY_TOL = 1e-10
# Largest n of a dyadic law: its 2^30 + 1 float64 edges alone take 8 GiB.
MAX_LAW_WIRES = 30
# Angle assigned when a node has (numerically) no mass. Any value gives the
# same outcome probabilities, since the parent angle already routes zero
# amplitude into such a node; this one keeps deliberately-kept gates
# nontrivial so pruned circuits match the expected lengths.
ZERO_MASS_ANGLE = math.pi / 2


class DensityError(ValueError):
    """A density failed validation (shape, negativity, or normalization)."""


@dataclass(frozen=True)
class DensitySegment:
    """One polynomial piece: coeffs[m] multiplies x^m on [lo, hi). lo, hi and
    the coefficients are read once, when built, by linalg.as_numbers and kept
    as Python floats; a failure is a DensityError naming the segment given."""

    lo: float
    hi: float
    coeffs: tuple[float, ...]

    def __post_init__(self):
        try:
            lo, hi, *coeffs = as_numbers(
                "lo, hi and coeffs", np.fromiter((self.lo, self.hi, *self.coeffs), object)).tolist()
        except ValueError as exc:
            raise DensityError(f"{exc} in segment {self}") from None
        self.__dict__.update(lo=lo, hi=hi, coeffs=tuple(coeffs))

    def mass(self, a, b):
        """Integral over [a, b], a and b of one shape, by the rule of masses;
        a and b are real numbers by linalg.as_numbers."""
        anti = _antiderivatives(np.array([self.coeffs]))[0]
        fa, fb = polyval(np.array([as_numbers("a", a), as_numbers("b", b)]), anti, tensor=False)
        return fb - fa


def _antiderivatives(c: np.ndarray) -> np.ndarray:
    """Each row's antiderivative that is 0 at x = 0, bit for bit numpy's polyint."""
    return np.concatenate([np.zeros((len(c), 1)), c / np.arange(1, c.shape[1] + 1)], axis=1)


def _minima(lo: np.ndarray, hi: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Smallest value of each row of c on [lo, hi], bit for bit numpy's
    polyder, polytrim, polyroots and polyval on the row alone and Python's
    min over lo, hi and the roots' real parts clipped to [lo, hi]: a NaN at
    lo wins, a later NaN is skipped. Derivative coefficients within rounding
    of the largest are trimmed (a subnormal leading one would overflow the
    companion matrix); one eigvals call takes each degree's matrices."""
    k, w = c.shape
    der = c[:, 1:] * np.arange(1, w)
    size = np.abs(der)
    tol = np.finfo(float).eps * size.max(axis=1, initial=0.0)
    kept = np.max(np.where(size > tol[:, None], np.arange(1, w), 0), axis=1, initial=0)
    x = np.column_stack([lo, hi, np.full((k, max(w - 2, 0)), np.nan)])  # then the roots
    for m in sorted(set(kept.tolist()) - {0, 1}):  # m derivative coefficients, m - 1 roots
        rows = np.flatnonzero(kept == m)
        d = der[rows, :m]
        if m == 2:
            roots = -d[:, :1] / d[:, 1:]
        else:
            companion = np.zeros((len(rows), m - 1, m - 1))
            companion[:, np.arange(1, m - 1), np.arange(m - 2)] = 1.0
            companion[:, :, -1] -= d[:, :-1] / d[:, -1:]
            roots = np.sort(np.linalg.eigvals(companion), axis=1).real
        x[rows, 2 : m + 1] = np.clip(roots, lo[rows, None], hi[rows, None])
    values = polyval(x, c.T[:, :, None], tensor=False)
    low = values[:, 0]
    for v in values.T[1:]:
        low = np.where(v < low, v, low)
    return low


@dataclass(frozen=True)
class PiecewisePolyDensity:
    """A normalized piecewise-polynomial density on [0, 1].

    Validated at construction: every number (a float, read by DensitySegment)
    must be finite, segments must partition [0, 1] in order, be nonnegative
    everywhere (each segment's minimum, within rounding), and integrate to 1
    within 1e-10; a rejection names the first offending segment. Held as lo, hi
    and one zero-padded coefficient matrix's antiderivative rows, built once.
    """

    segments: tuple[DensitySegment, ...]

    def __post_init__(self):
        segs = tuple(self.segments)
        if not segs:
            raise DensityError("density needs at least one segment")
        lo, hi = np.array([[s.lo, s.hi] for s in segs]).T
        width = np.array([len(s.coeffs) for s in segs])
        c = np.zeros((len(segs), max(1, width.max())))
        c[np.arange(c.shape[1]) < width[:, None]] = [x for s in segs for x in s.coeffs]
        finite = np.isfinite(lo) & np.isfinite(hi) & np.isfinite(c).all(axis=1)
        if not finite.all():
            raise DensityError(f"non-finite number in segment {segs[np.argmin(finite)]}")
        if abs(segs[0].lo) > SEGMENT_JOIN_TOL or abs(segs[-1].hi - 1.0) > SEGMENT_JOIN_TOL:
            raise DensityError("segments must start at 0 and end at 1")
        joined = np.abs(hi[:-1] - lo[1:]) <= SEGMENT_JOIN_TOL
        if not joined.all():
            a, b = segs[np.argmin(joined) :][:2]
            raise DensityError(f"gap between segments at {a.hi} vs {b.lo}")
        # Finite coefficients can still overflow to inf, and inf - inf to NaN,
        # which the negated comparisons reject; the rejection is the only output.
        with np.errstate(over="ignore", invalid="ignore"):
            low = _minima(lo, hi, c)
            ok = np.stack([lo < hi, width > 0, low >= -DENSITY_NEGATIVE_TOL])
            if not ok.all():  # the first bad segment, by its first failed check
                i = np.argmin(ok.all(axis=0))
                s = segs[i]
                raise DensityError([
                    f"empty segment [{s.lo}, {s.hi}]",
                    "segment without coefficients",
                    f"density negative ({float(low[i]):.3e}) on [{s.lo}, {s.hi}]",
                ][np.argmin(ok[:, i])])
            anti = _antiderivatives(c)
            lo.flags.writeable = hi.flags.writeable = anti.flags.writeable = False
            self.__dict__.update(segments=segs, lo=lo, hi=hi, antiderivatives=anti)
            # masses([0.0, 1.0])[0] from one polyval pass: F at each segment's
            # clipped 0 and 1, the differences of the segments that touch
            # [0, 1] added in segment order.
            f = polyval(np.clip([[0.0], [1.0]], lo, hi), anti.T, tensor=False)
            total = 0.0
            for mass in (f[1] - f[0])[(lo < 1.0) & (hi > 0.0)].tolist():
                total += mass
        if not abs(total - 1.0) <= DENSITY_NORM_TOL:
            raise DensityError(f"density integrates to {total}, not 1")

    def masses(self, edges) -> np.ndarray:
        """Integral over each [edges[i], edges[i+1]], edges within [0, 1], as
        F(b) - F(a) in floats. Each segment in turn adds its differences over
        the edges clipped to [lo, hi], on the intervals it touches; it would
        add exactly 0 to any other. Edges that are not a nonempty,
        nondecreasing 1-D array within [0, 1] raise ValueError."""
        edges = as_numbers("edges", edges)
        if edges.ndim != 1 or len(edges) == 0:
            raise ValueError(f"edges must be a nonempty 1-D array, got shape {edges.shape}")
        if not (edges[0] >= 0.0 and edges[-1] <= 1.0 and np.all(edges[:-1] <= edges[1:])):
            raise ValueError(f"bad integration range [{edges[0]}, {edges[-1]}]")
        out = np.zeros(len(edges) - 1)
        # Segment i touches the intervals first[i] to last[i] - 1.
        first = np.maximum(np.searchsorted(edges, self.lo, "right") - 1, 0).tolist()
        last = np.minimum(np.searchsorted(edges, self.hi, "left"), len(out)).tolist()
        for a, b, lo, hi, anti in zip(first, last, self.lo.tolist(), self.hi.tolist(),
                                      self.antiderivatives):
            if a < b:  # a segment that touches no interval would add nothing
                f = polyval(np.clip(edges[a : b + 1], lo, hi), anti, tensor=False)
                out[a:b] += f[1:] - f[:-1]
        return out


@dataclass(frozen=True, eq=False)
class AngleTree:
    """All rotation angles of the synthesis, one per bisection node.

    angles: the 2^n - 1 angles in heap order, entry 2^m - 1 + s the node with
    m bits fixed and suffix integer s (first suffix bit least significant),
    which is the node interval's position at level m. n from 1 to
    gates.MAX_WIRES by linalg.as_count and exactly 2^n - 1 angles within
    [0, pi/2] by linalg.as_numbers, or ValueError; kept as a read-only copy.
    """

    n: int
    angles: np.ndarray

    def __post_init__(self):
        # A NaN angle fails both bounds below.
        n, a = as_count("n", self.n, 1, MAX_WIRES), as_numbers("angles", self.angles)
        a = a.copy() if a is self.angles else a  # frozen below, never the caller's array
        if not (a.shape == (2**n - 1,) and np.all((a >= 0.0) & (a <= math.pi / 2))):
            raise ValueError(f"n={n} needs 2^n - 1 angles within [0, pi/2]")
        a.setflags(write=False)
        self.__dict__.update(n=n, angles=a)

    @property
    def theta(self) -> float:  # the root angle
        return float(self.angles[0])

    @property
    def levels(self) -> tuple[np.ndarray, ...]:  # levels[m-1]: the 2^m nodes, m bits fixed
        return tuple(self.angles[2**m - 1 : 2 ** (m + 1) - 1] for m in range(1, self.n))

    def suffix_angle(self, suffix) -> float:
        """Angle of the node whose fixed trailing bits are `suffix`.

        The suffix lists wire bits in wire order (first element belongs to
        the earliest controlled wire), as ints or as a string such as "01";
        an empty suffix gives the root. A suffix of n or more bits, or an
        entry that is not 0 or 1 by linalg.as_count (True and 1.0 are not),
        raises ValueError.
        """
        bits = tuple({"0": 0, "1": 1}.get(b, b) if isinstance(b, str) else b for b in suffix)
        as_count("suffix length", len(bits), 0, self.n - 1)
        # A trailing 1 bit makes the label 2^m + s, one past heap entry 2^m - 1 + s.
        return float(self.angles[decode((*bits, 1)) - 1])


def angle_tree(d, n: int) -> AngleTree:
    """Compute all 2^n - 1 angles for an n-qubit synthesis of density d.

    Leaf masses come from target_law; interior masses are sums of their two
    children, so a node whose children are both exactly zero is exactly
    zero and the left/parent ratio never exceeds 1. Nodes with mass at most
    ZERO_MASS_TOL get ZERO_MASS_ANGLE.
    """
    return _angle_tree(target_law(d, n))


def _angle_tree(leaves: np.ndarray) -> AngleTree:
    """angle_tree from the 2^n leaf masses that target_law gives."""
    n = len(leaves).bit_length() - 1
    # Node masses in heap order, the leaves last, each level summed from the one below.
    mass = np.concatenate([np.empty(len(leaves) - 1), leaves])
    for m in reversed(range(n)):
        below = mass[2 ** (m + 1) - 1 : 2 ** (m + 2) - 1]
        mass[2**m - 1 : 2 ** (m + 1) - 1] = below[0::2] + below[1::2]
    parent = mass[: 2**n - 1]
    with np.errstate(divide="ignore", invalid="ignore"):  # zero parents are replaced below
        split = np.arccos(np.sqrt(np.clip(mass[1::2] / parent, 0.0, 1.0)))
    return AngleTree(n, np.where(parent > ZERO_MASS_TOL, split, ZERO_MASS_ANGLE))


def synthesize(tree: AngleTree, prune: bool = False) -> Circuit:
    """Build the rotation circuit realizing the angle tree.

    Gate order: the free rotation on wire n first, then stages l = 2..n,
    each contributing 2^(l-1) rotations on wire n - l + 1 controlled by the
    trailing l - 1 wires (one per control suffix, in suffix-integer order),
    for 2^n - 1 gates total, each carrying its angle. With prune set, exact
    identity rotations R(0) are dropped.
    """
    n = tree.n
    target, mask = stage_layout(n, np.repeat(np.arange(1, n + 1), 1 << np.arange(n)))
    # The suffix with label s sits at array position values[s] of the
    # trailing wires, the low stage - 1 position bits.
    values = [np.zeros(1, dtype=np.int64), *map(label_permutation, range(1, n))]
    columns = [target, mask, np.concatenate(values), tree.angles]
    if prune:  # rotation(a) is the identity at a = 0 alone, for a in [0, pi/2]
        columns = [column[tree.angles != 0.0] for column in columns]
    return Circuit(n, *columns[:3], None, columns[3])


def target_law(d, n: int) -> np.ndarray:
    """Exact outcome probabilities: entry k is the mass of [k/2^n, (k+1)/2^n].

    The little-endian outcome label k equals the dyadic position of its
    interval, so no index reshuffling is needed here. n is an integer from 1
    to MAX_LAW_WIRES by linalg.as_count, checked before any array is built.
    """
    n = as_count("n", n, 1, MAX_LAW_WIRES)
    return d.masses(np.arange(2**n + 1) / 2.0**n)


def formula_law(tree: AngleTree) -> np.ndarray:
    """Outcome probabilities predicted by the closed-form angle products.

    Entry k multiplies, over wires j = 1..n, the squared cosine or sine
    (by bit j of k) of the angle at the node fixed by k's bits above j.
    """
    out = np.ones(2**tree.n)
    for m in reversed(range(tree.n)):  # wire j = n - m, split by nodes with m bits fixed
        a = tree.angles[2**m - 1 : 2 ** (m + 1) - 1]
        trig = np.stack([np.cos(a), np.sin(a)]) ** 2
        out.reshape(2**m, 2, -1)[...] *= trig.T[:, :, None]  # axes: k >> j, bit j, bits below
    return out


def circuit_law(c: Circuit) -> np.ndarray:
    """Outcome probabilities of the circuit applied to the all-zeros state,
    in float64 when the circuit has no given block (gates.apply_vector)."""
    psi = np.zeros(2**c.n)
    psi[0] = 1.0
    return vector_distribution(apply_vector(c, psi))


@dataclass(frozen=True)
class VerifyReport:
    """Three-way comparison of target, formula, and circuit laws."""

    n: int
    tol: float
    target: np.ndarray
    formula: np.ndarray
    circuit: np.ndarray
    max_dev_formula_target: float
    max_dev_circuit_target: float
    max_dev_circuit_formula: float
    passed: bool


def verify(d, n: int, tol: float = VERIFY_TOL) -> VerifyReport:
    """Check that formula and circuit reproduce the density's dyadic masses."""
    target = target_law(d, n)
    tree = _angle_tree(target)
    formula = formula_law(tree)
    circuit = circuit_law(synthesize(tree))
    dev_ft = float(np.max(np.abs(formula - target)))
    dev_ct = float(np.max(np.abs(circuit - target)))
    dev_cf = float(np.max(np.abs(circuit - formula)))
    return VerifyReport(
        n=n,
        tol=tol,
        target=target,
        formula=formula,
        circuit=circuit,
        max_dev_formula_target=dev_ft,
        max_dev_circuit_target=dev_ct,
        max_dev_circuit_formula=dev_cf,
        passed=max(dev_ft, dev_ct, dev_cf) <= tol,
    )


# --- file formats -----------------------------------------------------------


def parse_density_json(text: str) -> PiecewisePolyDensity:
    """Parse {"segments": [{"lo": r, "hi": r, "coeffs": [c0, c1, ...]}, ...]},
    every r and c a JSON number."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DensityJsonError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "segments" not in doc:
        raise DensityJsonError('density JSON needs a "segments" array')
    raw = doc["segments"]
    if not isinstance(raw, list):
        raise DensityJsonError('"segments" must be an array')
    for entry in raw:
        if not isinstance(entry, dict) or not entry.keys() >= {"lo", "hi", "coeffs"}:
            raise DensityJsonError(f'each segment needs "lo", "hi" and "coeffs": {entry!r}')
        coeffs = entry["coeffs"]
        if not (isinstance(coeffs, list)  # a string of digits would iterate as coefficients
                and are_json_numbers([entry["lo"], entry["hi"], *coeffs])):
            raise DensityJsonError(f"lo, hi and coeffs must be JSON numbers: {entry!r}")
    # Built once every entry passed: a structure error (exit 2) beats 10**400 (exit 3).
    segs = [DensitySegment(e["lo"], e["hi"], tuple(e["coeffs"])) for e in raw]
    return PiecewisePolyDensity(segments=tuple(segs))


def are_json_numbers(values) -> bool:
    """Every value is an int or a float, the JSON numbers json.loads returns; float()
    would also take "0.5", "1_0" and true. Both JSON readers' one number rule."""
    return set(map(type, values)) <= {int, float}


class DensityJsonError(ValueError):
    """Raised when density JSON is structurally malformed (not a validation
    failure of a well-formed density)."""


def load_density(path) -> PiecewisePolyDensity:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_density_json(fh.read())


_SIDECAR_ENTRY = '    {\n      "suffix": "%s",\n      "angle": %r\n    }'


def angle_tree_to_json(tree: AngleTree) -> str:
    """Angle tree as JSON with human-readable suffix keys (wire order): the bytes of
    json.dumps(doc, indent=2) from one entry template, where %r is float.__repr__ as in json.

    No qsim command writes it: a synth circuit file holds every angle on its
    ROT line. It stays only because the benchmark's synth check,
    bench/workloads.py::check_synth, calls it."""
    suffixes = [s for m in range(1, tree.n) for s in label_bitstrings(m)]
    entries = [_SIDECAR_ENTRY % e for e in zip(suffixes, tree.angles[1:].tolist())]
    body = "[\n%s\n  ]" % ",\n".join(entries) if entries else "[]"
    return '{\n  "n": %d,\n  "theta": %r,\n  "suffix_angles": %s\n}' % (tree.n, tree.theta, body)
