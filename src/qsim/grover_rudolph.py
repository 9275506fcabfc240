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
here by its label under qpu.decode, first suffix bit least significant;
that integer is also the position of the node's dyadic interval at level
m, which keeps masses, angles, and gate controls aligned.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .gates import Circuit, SuffixControlledGate, WireGate, rotation, apply_vector
from .qpu import bitstring, decode, encode, vector_distribution

DENSITY_NEGATIVE_TOL = 1e-12
DENSITY_NORM_TOL = 1e-10
SEGMENT_JOIN_TOL = 1e-12
ZERO_MASS_TOL = 1e-14
# Adaptive Simpson error target per CallableDensity integral, and the
# looser normalization check that quadrature error allows.
QUADRATURE_TOL = 1e-12
QUADRATURE_NORM_TOL = 1e-8
# Angle assigned when a node has (numerically) no mass. Any value gives the
# same outcome probabilities, since the parent angle already routes zero
# amplitude into such a node; this one keeps deliberately-kept gates
# nontrivial so pruned circuits match the expected lengths.
ZERO_MASS_ANGLE = math.pi / 2


class DensityError(ValueError):
    """A density failed validation (shape, negativity, or normalization)."""


@dataclass(frozen=True)
class DensitySegment:
    """One polynomial piece: coeffs[m] multiplies x^m on [lo, hi)."""

    lo: float
    hi: float
    coeffs: tuple[float, ...]

    def value(self, x: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def mass(self, a: float, b: float) -> float:
        """Exact integral over [a, b] via the antiderivative."""
        return self._antiderivative(b) - self._antiderivative(a)

    def _antiderivative(self, x: float) -> float:
        acc = 0.0
        for m in reversed(range(len(self.coeffs))):
            acc = acc * x + self.coeffs[m] / (m + 1)
        return acc * x

    def minimum(self) -> float:
        """Smallest value on [lo, hi]: at an endpoint or a root of the derivative.

        Every root's real part, clipped into the segment, is a candidate, so
        a root computed with a tiny imaginary part is still examined. Leading
        derivative coefficients below rounding of the largest one are dropped
        first: they only add roots far outside [0, 1], and dividing by a
        subnormal one overflows the companion matrix.
        """
        poly = np.polynomial.polynomial
        der = poly.polyder(self.coeffs)
        der = poly.polytrim(der, np.finfo(float).eps * np.max(np.abs(der)))
        roots = poly.polyroots(der)
        xs = np.clip(roots.real, self.lo, self.hi)
        return min(self.value(float(x)) for x in (self.lo, self.hi, *xs))


@dataclass(frozen=True)
class PiecewisePolyDensity:
    """A normalized piecewise-polynomial density on [0, 1].

    Validated at construction: segments must partition [0, 1] in order, be
    nonnegative everywhere (each segment's exact minimum, within rounding),
    and integrate to 1 within 1e-10. Integrals are exact antiderivative
    evaluations, so dyadic masses carry no quadrature error.
    """

    segments: tuple[DensitySegment, ...]

    def __post_init__(self):
        segs = tuple(
            DensitySegment(float(s.lo), float(s.hi), tuple(float(c) for c in s.coeffs))
            for s in self.segments
        )
        object.__setattr__(self, "segments", segs)
        if not segs:
            raise DensityError("density needs at least one segment")
        if abs(segs[0].lo) > SEGMENT_JOIN_TOL or abs(segs[-1].hi - 1.0) > SEGMENT_JOIN_TOL:
            raise DensityError("segments must start at 0 and end at 1")
        for a, b in zip(segs, segs[1:]):
            if abs(a.hi - b.lo) > SEGMENT_JOIN_TOL:
                raise DensityError(f"gap between segments at {a.hi} vs {b.lo}")
        for s in segs:
            if not s.lo < s.hi:
                raise DensityError(f"empty segment [{s.lo}, {s.hi}]")
            if not s.coeffs:
                raise DensityError("segment without coefficients")
            if not all(math.isfinite(c) for c in (s.lo, s.hi, *s.coeffs)):
                raise DensityError(f"non-finite number in segment {s}")
            low = s.minimum()
            if low < -DENSITY_NEGATIVE_TOL:
                raise DensityError(
                    f"density negative ({low:.3e}) on [{s.lo}, {s.hi}]"
                )
        total = float(self.masses([0.0, 1.0])[0])
        if abs(total - 1.0) > DENSITY_NORM_TOL:
            raise DensityError(f"density integrates to {total}, not 1")

    def masses(self, edges) -> np.ndarray:
        """Exact integral over each [edges[i], edges[i+1]], edges within [0, 1].

        Each segment adds its antiderivative difference to the intervals it
        overlaps, in segment order.
        """
        edges = _check_edges(edges)
        a, b = edges[:-1], edges[1:]
        out = np.zeros(len(a))
        for s in self.segments:
            lo = np.maximum(a, s.lo)
            hi = np.minimum(b, s.hi)
            live = lo < hi
            out[live] += s.mass(lo[live], hi[live])
        return out


class CallableDensity:
    """Black-box density integrated by adaptive Simpson quadrature.

    Approximate: masses carry quadrature error up to roughly QUADRATURE_TOL
    per integral, unlike the exact piecewise-polynomial path. Normalization
    is only checked to QUADRATURE_NORM_TOL for the same reason. Every value
    the quadrature takes must be finite and nonnegative within
    DENSITY_NEGATIVE_TOL, or DensityError is raised; points between those
    samples are not checked.
    """

    def __init__(self, fn):
        self.fn = fn
        total = float(self.masses([0.0, 1.0])[0])
        if abs(total - 1.0) > QUADRATURE_NORM_TOL:
            raise DensityError(f"density integrates to {total}, not 1")

    def _value(self, x: float) -> float:
        y = float(self.fn(x))
        if not math.isfinite(y) or y < -DENSITY_NEGATIVE_TOL:
            raise DensityError(f"density value {y!r} at x = {x!r} is negative or not finite")
        return y

    def masses(self, edges) -> np.ndarray:
        """Quadrature integrals over consecutive edges, one per interval."""
        edges = _check_edges(edges).tolist()
        return np.array(
            [
                _adaptive_simpson(self._value, a, b, QUADRATURE_TOL) if a < b else 0.0
                for a, b in zip(edges, edges[1:])
            ]
        )


def _check_edges(edges) -> np.ndarray:
    """Edges as a float array, nondecreasing within [0, 1], or ValueError."""
    edges = np.asarray(edges, dtype=float)
    if not (edges[0] >= 0.0 and edges[-1] <= 1.0 and np.all(edges[:-1] <= edges[1:])):
        raise ValueError(f"bad integration range [{edges[0]}, {edges[-1]}]")
    return edges


def _simpson(fa: float, fm: float, fb: float, h: float) -> float:
    return h / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive_simpson(fn, a: float, b: float, tol: float, depth: int = 50) -> float:
    m = (a + b) / 2.0
    fa, fm, fb = fn(a), fn(m), fn(b)
    whole = _simpson(fa, fm, fb, b - a)
    return _simpson_recurse(fn, a, b, fa, fm, fb, whole, tol, depth)


def _simpson_recurse(fn, a, b, fa, fm, fb, whole, tol, depth) -> float:
    m = (a + b) / 2.0
    lm, rm = (a + m) / 2.0, (m + b) / 2.0
    flm, frm = fn(lm), fn(rm)
    left = _simpson(fa, flm, fm, m - a)
    right = _simpson(fm, frm, fb, b - m)
    if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    half = tol / 2.0
    return _simpson_recurse(
        fn, a, m, fa, flm, fm, left, half, depth - 1
    ) + _simpson_recurse(fn, m, b, fm, frm, fb, right, half, depth - 1)


@dataclass(frozen=True)
class AngleTree:
    """All rotation angles of the synthesis, one per bisection node.

    theta is the root angle. levels[m-1] holds the 2^m angles of the nodes
    with m bits fixed, indexed by the suffix integer (first suffix bit
    least significant), which equals the node interval's position at level
    m. Total angle count is 2^n - 1, all within [0, pi/2].
    """

    n: int
    theta: float
    levels: tuple[tuple[float, ...], ...]

    def angle_count(self) -> int:
        return 1 + sum(len(level) for level in self.levels)

    def suffix_angle(self, suffix) -> float:
        """Angle of the node whose fixed trailing bits are `suffix`.

        The suffix lists wire bits in wire order (first element belongs to
        the earliest controlled wire), as ints or as a string such as "01";
        an empty suffix gives the root. A non-bit, or a suffix of n or more
        bits, raises ValueError.
        """
        bits = tuple(int(b) for b in suffix)
        if not bits:
            return self.theta
        if len(bits) >= self.n:
            raise ValueError(
                f"suffix of length {len(bits)} names no node; at most "
                f"{self.n - 1} bits for n={self.n}"
            )
        return self.levels[len(bits) - 1][decode(bits)]


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
    if n < 1:
        raise ValueError("qubit count must be at least 1")
    masses = [leaves]
    while len(masses[-1]) > 1:
        m = masses[-1]
        masses.append(m[0::2] + m[1::2])
    masses.reverse()  # masses[m][s]: level-m interval s, masses[0] = [total]
    angles = [_split_angles(masses[m], masses[m + 1][0::2]) for m in range(n)]
    return AngleTree(n=n, theta=angles[0][0], levels=tuple(map(tuple, angles[1:])))


def _split_angles(parent: np.ndarray, child0: np.ndarray) -> list[float]:
    """arccos sqrt(child0 / parent) per node, the ratio clamped into [0, 1];
    ZERO_MASS_ANGLE where the parent mass is at most ZERO_MASS_TOL."""
    live = parent > ZERO_MASS_TOL
    ratio = np.clip(child0 / np.where(live, parent, 1.0), 0.0, 1.0)
    return np.where(live, np.arccos(np.sqrt(ratio)), ZERO_MASS_ANGLE).tolist()


def synthesize(tree: AngleTree, prune: bool = False) -> Circuit:
    """Build the rotation circuit realizing the angle tree.

    Gate order: the free rotation on wire n first, then stages l = 2..n,
    each contributing 2^(l-1) suffix-controlled rotations (one per control
    suffix, in suffix-integer order), for 2^n - 1 gates total. With prune
    set, exact identity rotations R(0) are dropped.
    """
    n = tree.n
    gates = [WireGate(n=n, j=n, v=rotation(tree.theta), angle=tree.theta)]
    for stage in range(2, n + 1):
        m = stage - 1
        for s in range(2**m):
            ang = tree.levels[m - 1][s]
            gates.append(
                SuffixControlledGate(
                    n=n,
                    stage=stage,
                    suffix=tuple(encode(s, m)),
                    v=rotation(ang),
                )
            )
    if prune:
        eye = np.eye(2)
        gates = [g for g in gates if not np.array_equal(g.v, eye)]
    return Circuit(n=n, gates=tuple(gates))


def target_law(d, n: int) -> np.ndarray:
    """Exact outcome probabilities: entry k is the mass of [k/2^n, (k+1)/2^n].

    The little-endian outcome label k equals the dyadic position of its
    interval, so no index reshuffling is needed here.
    """
    return d.masses(np.arange(2**n + 1) / 2.0**n)


def formula_law(tree: AngleTree) -> np.ndarray:
    """Outcome probabilities predicted by the closed-form angle products.

    Entry k multiplies, over wires j = 1..n, the squared cosine or sine
    (by bit j of k) of the angle at the node fixed by k's bits above j.
    """
    n = tree.n
    angles = ((tree.theta,), *tree.levels)  # angles[m]: nodes with m bits fixed
    k = np.arange(2**n)
    out = np.ones(2**n)
    for j in range(1, n + 1):
        a = np.asarray(angles[n - j])
        trig = np.stack([np.cos(a), np.sin(a)]) ** 2
        out *= trig[(k >> (j - 1)) & 1, k >> j]
    return out


def circuit_law(c: Circuit) -> np.ndarray:
    """Outcome probabilities of the circuit applied to the all-zeros state."""
    psi = np.zeros(2**c.n, dtype=np.complex128)
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


def verify(d, n: int, tol: float = 1e-10) -> VerifyReport:
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
    """Parse {"segments": [{"lo": r, "hi": r, "coeffs": [c0, c1, ...]}, ...]}."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DensityJsonError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "segments" not in doc:
        raise DensityJsonError('density JSON needs a "segments" array')
    raw = doc["segments"]
    if not isinstance(raw, list):
        raise DensityJsonError('"segments" must be an array')
    segs = []
    for entry in raw:
        if not isinstance(entry, dict):
            raise DensityJsonError("each segment must be an object")
        try:
            lo = float(entry["lo"])
            hi = float(entry["hi"])
            coeffs = tuple(float(c) for c in entry["coeffs"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DensityJsonError(f"bad segment {entry!r}: {exc}") from exc
        segs.append(DensitySegment(lo=lo, hi=hi, coeffs=coeffs))
    return PiecewisePolyDensity(segments=tuple(segs))


class DensityJsonError(ValueError):
    """Raised when density JSON is structurally malformed (not a validation
    failure of a well-formed density)."""


def density_to_json(d: PiecewisePolyDensity) -> str:
    return json.dumps(
        {
            "segments": [
                {"lo": s.lo, "hi": s.hi, "coeffs": list(s.coeffs)}
                for s in d.segments
            ]
        },
        indent=2,
    )


def load_density(path) -> PiecewisePolyDensity:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_density_json(fh.read())


def angle_tree_to_json(tree: AngleTree) -> str:
    """Angle tree as JSON with human-readable suffix keys (wire order)."""
    suffix_angles = []
    for m in range(1, tree.n):
        for s in range(2**m):
            suffix_angles.append(
                {"suffix": bitstring(s, m), "angle": tree.levels[m - 1][s]}
            )
    return json.dumps(
        {"n": tree.n, "theta": tree.theta, "suffix_angles": suffix_angles},
        indent=2,
    )


def angle_tree_from_json(text: str) -> AngleTree:
    """Inverse of angle_tree_to_json: "n" is a JSON integer >= 1, and
    "suffix_angles" holds exactly one entry for each of the 2^n - 2 nodes."""
    try:
        doc = json.loads(text)
        n = doc["n"]
        theta = float(doc["theta"])
        entries = [(e["suffix"], float(e["angle"])) for e in doc["suffix_angles"]]
        raw = dict(entries)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise DensityJsonError(f"bad angle-tree JSON: {exc}") from exc
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DensityJsonError(f'"n" must be an integer >= 1, got {n!r}')
    levels = []
    for m in range(1, n):
        level = []
        for s in range(2**m):
            key = bitstring(s, m)
            if key not in raw:
                raise DensityJsonError(f"angle for suffix {key!r} missing")
            level.append(raw[key])
        levels.append(tuple(level))
    # Every node's suffix is present, so any further entry is a duplicate
    # or a suffix that no node has.
    if len(entries) != 2**n - 2:
        raise DensityJsonError(
            f"expected one angle per node, {2**n - 2} entries, got {len(entries)}"
        )
    return AngleTree(n=n, theta=theta, levels=tuple(levels))
