"""Tests for density loading: angle trees, synthesis, and the three laws.

Closed-form oracles for the shipped densities are derived from exact
antiderivatives of the polynomial pieces, written out as math.acos /
math.sqrt expressions independent of the library's mass bookkeeping. The
triangular density (rising 4x then falling 4-4x) and the powers-of-two
density (uniform on [1/8,3/8] and [1/2,5/8], so that exactly the labels
1, 2, and 4 each get probability 1/3) are both shipped as JSON data files
and pinned numerically here.
"""

import json
import math
from fractions import Fraction
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as P

from qsim import qpu
from qsim.gates import (
    Circuit,
    circuit_length,
    format_circuit,
    gate_blocks,
    parse_circuit,
    rotation,
)
from qsim.grover_rudolph import (
    ZERO_MASS_ANGLE,
    ZERO_MASS_TOL,
    AngleTree,
    DensityError,
    DensitySegment,
    PiecewisePolyDensity,
    _minima,
    angle_tree,
    angle_tree_to_json,
    circuit_law,
    formula_law,
    load_density,
    parse_density_json,
    synthesize,
    target_law,
    verify,
)
from qsim.linalg import ParseError


def shipped_density(name):
    path = resources.files("qsim.data") / f"{name}.json"
    return parse_density_json(path.read_text())


def triangular():
    return shipped_density("triangular")


def powers_of_two():
    return shipped_density("powers_of_two")


def random_poly_density(rng):
    """Random normalized piecewise polynomial, nonneg by construction."""
    k = int(rng.integers(1, 5))
    edges = [
        i / k + (float(rng.uniform(-0.2, 0.2)) / k if 0 < i < k else 0.0)
        for i in range(k + 1)
    ]
    segs = []
    for lo, hi in zip(edges, edges[1:]):
        if rng.random() < 0.5:
            a, b = rng.uniform(0.1, 2.0, size=2)
            c1 = (b - a) / (hi - lo)
            coeffs = (a - c1 * lo, c1)
        else:
            p, q = rng.uniform(-1.5, 1.5, size=2)
            coeffs = (p * p + 0.1, 2 * p * q, q * q)
        segs.append(DensitySegment(lo=lo, hi=hi, coeffs=coeffs))
    total = sum(s.mass(s.lo, s.hi) for s in segs)
    segs = [
        DensitySegment(s.lo, s.hi, tuple(c / total for c in s.coeffs))
        for s in segs
    ]
    return PiecewisePolyDensity(segments=tuple(segs))


# --- density validation --------------------------------------------------------


def test_shipped_densities_validate():
    assert triangular().masses([0.0, 1.0])[0] == pytest.approx(1.0, abs=1e-12)
    assert powers_of_two().masses([0.0, 1.0])[0] == pytest.approx(1.0, abs=1e-12)


def test_density_rejects_gap_between_segments():
    with pytest.raises(DensityError):
        PiecewisePolyDensity(
            segments=(
                DensitySegment(0.0, 0.4, (2.5,)),
                DensitySegment(0.6, 1.0, (0.0,)),
            )
        )


def test_density_rejects_wrong_domain():
    with pytest.raises(DensityError):
        PiecewisePolyDensity(segments=(DensitySegment(0.1, 1.0, (1.0,)),))
    with pytest.raises(DensityError):
        PiecewisePolyDensity(segments=(DensitySegment(0.0, 0.9, (1.0,)),))


def test_density_rejects_negative_values():
    # 2 - 4x dips below zero on (1/2, 1].
    with pytest.raises(DensityError) as err:
        PiecewisePolyDensity(segments=(DensitySegment(0.0, 1.0, (2.0, -4.0)),))
    assert "negative" in str(err.value)


def test_density_rejects_negativity_between_sample_points():
    # (x - 1/2)^2 - 1e-4, normalized, reaches -1.2e-3 at x = 1/2 only.
    k = 1.0 / 12.0 - 1e-4
    coeffs = ((0.25 - 1e-4) / k, -1.0 / k, 1.0 / k)
    with pytest.raises(DensityError) as err:
        PiecewisePolyDensity(segments=(DensitySegment(0.0, 1.0, coeffs),))
    assert "-1.201e-03" in str(err.value)
    # The same shape without the dip touches zero and is accepted.
    k = 1.0 / 12.0
    PiecewisePolyDensity(
        segments=(DensitySegment(0.0, 1.0, (0.25 / k, -1.0 / k, 1.0 / k)),)
    )


def test_density_rejects_non_finite_numbers():
    for coeffs in ((float("nan"),), (1.0, float("inf"))):
        with pytest.raises(DensityError):
            PiecewisePolyDensity(segments=(DensitySegment(0.0, 1.0, coeffs),))
    # Finiteness comes before the partition checks, which a NaN edge passes.
    with pytest.raises(DensityError, match="^non-finite number in segment"):
        PiecewisePolyDensity(segments=(DensitySegment(math.nan, 1.0, (1.0,)),))
    # Finite coefficients whose antiderivative overflows give a NaN total,
    # rejected without a RuntimeWarning (an error under pytest).
    huge = DensitySegment(0.9, 1.0, (1.7e308,) * 4)
    with pytest.raises(DensityError, match="^density integrates to nan, not 1$"):
        PiecewisePolyDensity(segments=(DensitySegment(0.0, 0.9, (1.0,)), huge))


def test_density_numbers_follow_the_real_number_rule():
    """lo, hi and every coefficient are real numbers by linalg.as_numbers's
    rule, read once, when the segment is built: a string or a bool, which
    float() would read, a complex number, or an int beyond float range is a
    DensityError naming the segment as given, and numpy numbers are read as
    Python floats. The last five coefficients are the five kinds of bad entry
    that test_linalg's number-rule test tries on every other array."""
    numpy_str, numpy_bool = np.str_.__name__, np.bool_.__name__
    for args, problem in (((0.5, 1.0, "1"), ", got ['float', 'str']"),
                          ((False, True, (True,)), ", got ['bool']"),
                          (("0", "1", ("1",)), ", got ['str']"),
                          ((0.5, 1.0, (1.0, 0.5j)), ", got ['complex', 'float']"),
                          ((0.5, 1.0, (10**400,)), " within float range"),
                          ((0, 1, (10**400,)), " within float range"),
                          ((0.0, 1.0, ("1.0",)), ", got ['float', 'str']"),
                          ((0.0, 1.0, (True,)), ", got ['bool', 'float']"),
                          ((0.0, 1.0, tuple(np.array(["1.0"]))), f", got ['float', '{numpy_str}']"),
                          ((0.0, 1.0, tuple(np.array([True]))), f", got ['{numpy_bool}', 'float']"),
                          ((0.0, 1.0, (1.0 + 0j,)), ", got ['complex', 'float']")):
        with pytest.raises(DensityError) as info:
            DensitySegment(*args)
        given = "DensitySegment(lo=%r, hi=%r, coeffs=%r)" % args
        assert str(info.value) == (
            f"lo, hi and coeffs must be real numbers{problem} in segment {given}")


def test_a_segment_keeps_its_numbers_as_python_floats():
    s = DensitySegment(np.int64(0), np.float32(1.0), (1, np.float16(0.0)))
    assert s == DensitySegment(0.0, 1.0, (1.0, 0.0))
    assert all(type(x) is float for x in (s.lo, s.hi, *s.coeffs))
    assert type(s.coeffs) is tuple
    d = PiecewisePolyDensity(segments=[s])
    assert d.segments == (s,)


def test_density_json_structure_errors_come_before_range_errors():
    """A missing key in a later entry is a ParseError (exit 2), though
    an earlier entry holds 10**400, which alone is a DensityError (exit 3)."""
    first = '{"lo": 0.0, "hi": 0.5, "coeffs": [%s]}' % (10**400)
    with pytest.raises(DensityError, match="within float range in segment"):
        parse_density_json('{"segments": [%s]}' % first)
    with pytest.raises(ParseError, match='needs "lo", "hi" and "coeffs": {\'lo\': 0.5'):
        parse_density_json('{"segments": [%s, {"lo": 0.5, "hi": 1.0}]}' % first)


def test_density_accepts_subnormal_leading_coefficient():
    # Dividing by the 1e-310 cubic term once overflowed the root finder.
    k = 1.0 + 0.25 - 1.0 / 6.0
    coeffs = (1.0 / k, 0.5 / k, -0.5 / k, 1e-310)
    d = PiecewisePolyDensity(segments=(DensitySegment(0.0, 1.0, coeffs),))
    assert d.masses([0.0, 1.0])[0] == pytest.approx(1.0, abs=1e-15)


def test_density_rejects_wrong_normalization():
    with pytest.raises(DensityError):
        PiecewisePolyDensity(segments=(DensitySegment(0.0, 1.0, (2.0,)),))


def test_density_rejects_degenerate_segments():
    with pytest.raises(DensityError):
        PiecewisePolyDensity(segments=())
    with pytest.raises(DensityError):
        PiecewisePolyDensity(
            segments=(
                DensitySegment(0.0, 0.0, (1.0,)),
                DensitySegment(0.0, 1.0, (1.0,)),
            )
        )
    with pytest.raises(DensityError):
        PiecewisePolyDensity(segments=(DensitySegment(0.0, 1.0, ()),))


def test_density_rejection_messages_are_pinned():
    """Every case of golden/density_errors.json raises DensityError with its
    exact message, which the segment-by-segment validator wrote before the
    density became one coefficient matrix: one case or more per rule, and
    cases with two offenders, where the first in file order is named."""
    cases = json.loads((Path(__file__).parent / "golden" / "density_errors.json").read_text())
    assert len(cases) == 34
    for case in cases:
        with pytest.raises(DensityError) as info:
            parse_density_json(case["text"])
        assert str(info.value) == case["message"], case["case"]


# --- integration ---------------------------------------------------------------


def test_triangular_mass_pins():
    """Exact antiderivative values of the rising branch 4x."""
    d = triangular()
    # integral of 4x over [3/8, 1/2] = 2x^2 -> 2(1/4 - 9/64) = 7/32
    assert d.masses([0.375, 0.5])[0] == pytest.approx(7.0 / 32.0, abs=1e-15)
    assert d.masses([0.0, 0.5])[0] == pytest.approx(0.5, abs=1e-15)
    # Falling branch, by symmetry.
    assert d.masses([0.5, 0.625])[0] == pytest.approx(7.0 / 32.0, abs=1e-15)
    assert d.masses([0.0, 0.25])[0] == pytest.approx(0.125, abs=1e-15)


def test_uniform_density_masses_are_lengths():
    d = PiecewisePolyDensity(segments=(DensitySegment(0.0, 1.0, (1.0,)),))
    assert d.masses([0.2, 0.7])[0] == pytest.approx(0.5, abs=1e-15)


def test_integration_range_validation():
    d = triangular()
    with pytest.raises(ValueError):
        d.masses([0.5, 0.2])
    with pytest.raises(ValueError):
        d.masses([-0.1, 0.5])
    with pytest.raises(ValueError):
        d.masses([0.5, 1.1])


def test_masses_match_integrate_on_every_interval():
    edges = [0.0, 0.1, 0.1, 0.375, 0.73, 1.0]
    d = triangular()
    got = d.masses(edges)
    assert got.shape == (5,)
    assert got[1] == 0.0
    # Each entry is the interval integrated on its own.
    assert got.tolist() == [d.masses([a, b])[0] for a, b in zip(edges, edges[1:])]
    for bad in ([0.0, 0.6, 0.5], [-0.1, 0.5], [0.5, 1.1], [0.0, math.nan]):
        with pytest.raises(ValueError, match="^bad integration range"):
            d.masses(bad)
    # Edges are a nonempty 1-D array, not an empty list or a column.
    for bad in ([], [[0.0, 1.0]], [[0.0], [1.0]]):
        with pytest.raises(ValueError, match="^edges must be a nonempty 1-D array"):
            d.masses(bad)


def test_a_segment_that_touches_no_interval_is_not_evaluated():
    """A segment past the last edge adds nothing to any mass, so its
    antiderivative is not evaluated: coefficients whose antiderivative
    overflows beyond x = 1 raise no RuntimeWarning, and the masses are
    those of the density without that segment."""
    d = PiecewisePolyDensity(segments=(DensitySegment(0, 1, (1.0,)),
                                       DensitySegment(1.0, 1.0 + 5e-13, (1.7e308, 1.7e308))))
    uniform = PiecewisePolyDensity(segments=(DensitySegment(0.0, 1.0, (1.0,)),))
    assert target_law(d, 3).tobytes() == target_law(uniform, 3).tobytes()


def test_dyadic_mass_pins():
    d = triangular()
    assert d.masses([0.0, 1.0])[0] == pytest.approx(1.0, abs=1e-15)  # no n = 0 law
    assert target_law(d, 1)[0] == pytest.approx(0.5, abs=1e-15)
    assert target_law(d, 3)[3] == pytest.approx(7.0 / 32.0, abs=1e-15)
    assert target_law(d, 3)[4] == pytest.approx(7.0 / 32.0, abs=1e-15)


def test_dyadic_masses_partition_unity():
    rng = np.random.default_rng(20)
    d = random_poly_density(rng)
    for level in range(1, 5):
        assert float(np.sum(target_law(d, level))) == pytest.approx(1.0, abs=1e-12)


# --- the coefficient matrix against numpy.polynomial, per segment -----------------


def polynomial_masses(segments, edges):
    """The per-segment rule: P.polyint, then P.polyval at the edges clipped
    to [lo, hi], each segment's differences added in segment order."""
    edges = np.asarray(edges, dtype=float)
    out = np.zeros(len(edges) - 1)
    for s in segments:
        x = np.clip(edges, s.lo, s.hi)
        fa, fb = P.polyval(np.array([x[:-1], x[1:]]), P.polyint(s.coeffs))
        out += fb - fa
    return out


def polynomial_minimum(s) -> float:
    """Smallest of P.polyval at lo, hi and each clipped real part of
    P.polyroots of the derivative, its leading coefficients within rounding
    of the largest trimmed, by Python's min."""
    der = P.polyder(s.coeffs)
    der = P.polytrim(der, np.finfo(float).eps * np.max(np.abs(der)))
    xs = np.clip(P.polyroots(der).real, s.lo, s.hi)
    return min(P.polyval(np.array([s.lo, s.hi, *xs]), s.coeffs).tolist())


def coefficient_matrix(segments):
    """lo, hi and the zero-padded coefficient matrix of segments."""
    width = max(len(s.coeffs) for s in segments)
    c = np.array([[*s.coeffs, *[0.0] * (width - len(s.coeffs))] for s in segments])
    return np.array([s.lo for s in segments]), np.array([s.hi for s in segments]), c


@st.composite
def matrix_cases(draw):
    """(density, raw segments) for 1-8 segments of degree 0-6.

    Breakpoints are dyadic or not; each join and each end is off by up to
    1e-12; a segment may be zero or end in a subnormal coefficient. Every
    segment is lifted to a drawn floor in [0.1, 1] on [0, 1] and the whole
    scaled to the per-segment total; the raw segments keep the unlifted
    constant term, so some of their minima are negative.
    """
    k = draw(st.integers(1, 8))
    cuts = sorted(draw(st.lists(st.integers(1, 255), min_size=k - 1, max_size=k - 1,
                                unique=True)))
    jitter = st.floats(-1.0 / 1024, 1.0 / 1024)
    edges = [0.0, *(c / 256 + draw(st.sampled_from([0.0, draw(jitter)])) for c in cuts), 1.0]
    offset = st.floats(-1e-12, 1e-12)
    ends = [draw(offset), *(e + draw(offset) for e in edges[1:-1]), 1.0 + draw(offset)]
    ends = [e if abs(e - x) <= 1e-12 else x for e, x in zip(ends, edges)]
    lifted, raw = [], []
    for i in range(k):
        lo, hi = ends[i] if i == 0 else edges[i], ends[i + 1]
        deg = draw(st.integers(0, 6))
        c = draw(st.lists(st.floats(-1.0, 1.0), min_size=deg + 1, max_size=deg + 1))
        if draw(st.integers(0, 5)) == 0:
            c = [0.0] * (deg + 1)
        if draw(st.integers(0, 5)) == 0:
            c.append(draw(st.sampled_from([1e-310, 5e-324, 2.2e-308])))
        floor = 0.0 if not any(c) else draw(st.floats(0.1, 1.0))
        raw.append(DensitySegment(lo, hi, tuple(c)))
        lifted.append(DensitySegment(lo, hi, (floor - sum(min(x, 0.0) for x in c[1:]), *c[1:])))
    if not any(any(s.coeffs) for s in lifted):
        lifted[0] = DensitySegment(lifted[0].lo, lifted[0].hi, (1.0,))
    total = float(polynomial_masses(lifted, [0.0, 1.0])[0])
    d = PiecewisePolyDensity(tuple(
        DensitySegment(s.lo, s.hi, tuple(x / total for x in s.coeffs)) for s in lifted))
    return d, raw


@settings(deadline=None, max_examples=200)
@given(matrix_cases(), st.integers(1, 12),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12), st.integers(0, 4))
def test_coefficient_matrix_equals_the_per_segment_rule(case, n, points, repeats):
    """masses, target_law, each segment's minimum and the construction's
    total equal numpy.polynomial's per-segment rule byte for byte, on dyadic
    edges and on arbitrary sorted edges with repeats."""
    d, raw = case
    dyadic = np.arange(2**n + 1) / 2.0**n
    assert target_law(d, n).tobytes() == polynomial_masses(d.segments, dyadic).tobytes()
    edges = np.sort(np.concatenate([points, points[:repeats]]))
    assert d.masses(edges).tobytes() == polynomial_masses(d.segments, edges).tobytes()
    for segments in (d.segments, raw):
        want = np.array([polynomial_minimum(s) for s in segments])
        with np.errstate(over="ignore", invalid="ignore"):
            assert _minima(*coefficient_matrix(segments)).tobytes() == want.tobytes()
    for s in d.segments:
        a, b = np.clip(edges[[0, -1]], s.lo, s.hi)
        assert s.mass(a, b).tobytes() == polynomial_masses([s], [a, b]).tobytes()
    doubled = tuple(DensitySegment(s.lo, s.hi, tuple(2 * x for x in s.coeffs)) for s in d.segments)
    with pytest.raises(DensityError) as info:
        PiecewisePolyDensity(doubled)
    total = float(polynomial_masses(doubled, [0.0, 1.0])[0])
    assert str(info.value) == f"density integrates to {total!r}, not 1"


def test_a_segment_past_1_adds_nothing_to_the_total():
    """A last segment within the join tolerance past 1 touches no interval
    of [0, 1], so the total, as masses, takes nothing from it, even where
    its antiderivative overflows."""
    sliver = DensitySegment(1.0, 1.0 + 5e-13, (1.7e308, 1.7e308))
    d = PiecewisePolyDensity((DensitySegment(0.0, 1.0, (1.0,)), sliver))
    assert d.segments[1] == sliver


# --- the loading chain against its numpy references, byte for byte ---------------


def reference_masses(d, edges):
    """masses by numpy.polynomial: each segment's P.polyint evaluated by
    P.polyval at the edges of the intervals it touches, clipped by np.clip."""
    out = np.zeros(len(edges) - 1)
    first = np.maximum(np.searchsorted(edges, d.lo, "right") - 1, 0)
    last = np.minimum(np.searchsorted(edges, d.hi, "left"), len(out))
    for a, b, s in zip(first, last, d.segments):
        if a < b:
            f = P.polyval(np.clip(edges[a : b + 1], s.lo, s.hi), P.polyint(s.coeffs))
            out[a:b] += f[1:] - f[:-1]
    return out


def reference_total(segments) -> float:
    """The construction's total: F at each segment's clipped 0 and 1 by
    P.polyval, the differences of the segments that touch [0, 1] added in
    segment order."""
    total = 0.0
    for s in segments:
        if s.lo < 1.0 and s.hi > 0.0:
            f0, f1 = P.polyval(np.clip([0.0, 1.0], s.lo, s.hi), P.polyint(s.coeffs))
            total += float(f1 - f0)
    return total


def reference_formula_law(tree):
    """The angle products one level at a time, cos^2 and sin^2 stacked."""
    out = np.ones(2**tree.n)
    for m in reversed(range(tree.n)):
        a = tree.angles[2**m - 1 : 2 ** (m + 1) - 1]
        trig = np.stack([np.cos(a), np.sin(a)]) ** 2
        out.reshape(2**m, 2, -1)[...] *= trig.T[:, :, None]
    return out


def reference_values(n):
    """The synthesized value column: stage l's suffix positions, one
    qpu.label_permutation(l - 1) per stage."""
    return np.concatenate([np.zeros(1, dtype=np.int64), *map(qpu.label_permutation, range(1, n))])


@settings(deadline=None, max_examples=100)
@given(matrix_cases(), st.integers(1, 12))
def test_loading_chain_equals_its_numpy_references(case, n):
    """target_law, the construction's total, formula_law and the synthesized
    value column equal their numpy references byte for byte, as do the
    minima, against polynomial_minimum, in the test above."""
    d, _ = case
    dyadic = np.arange(2**n + 1) / 2.0**n
    assert target_law(d, n).tobytes() == reference_masses(d, dyadic).tobytes()
    tree = angle_tree(d, n)
    assert formula_law(tree).tobytes() == reference_formula_law(tree).tobytes()
    assert synthesize(tree).value.tobytes() == reference_values(n).tobytes()
    doubled = tuple(DensitySegment(s.lo, s.hi, tuple(2 * x for x in s.coeffs)) for s in d.segments)
    with pytest.raises(DensityError) as info:
        PiecewisePolyDensity(doubled)
    assert str(info.value) == f"density integrates to {reference_total(doubled)!r}, not 1"


# --- angles ------------------------------------------------------------------------


def test_triangular_angles_closed_form():
    """All seven angles for the triangular density at three qubits.

    Masses are exact dyadic integrals of 4x / 4-4x, so each angle has a
    closed form; the computed values must match to near machine precision.
    """
    tree = angle_tree(triangular(), 3)
    assert tree.n == 3
    assert abs(tree.theta - math.pi / 4) < 1e-13
    assert abs(tree.suffix_angle("0") - math.pi / 3) < 1e-13
    assert abs(tree.suffix_angle("1") - math.pi / 6) < 1e-13
    assert abs(tree.suffix_angle("00") - math.pi / 3) < 1e-13
    assert abs(tree.suffix_angle("10") - math.acos(math.sqrt(15.0) / 6.0)) < 1e-13
    assert abs(tree.suffix_angle("01") - math.acos(math.sqrt(21.0) / 6.0)) < 1e-13
    assert abs(tree.suffix_angle("11") - math.pi / 6) < 1e-13


def test_powers_of_two_angles_closed_form():
    """Angles for the density with mass 1/3 on each of three dyadic cells.

    Left half holds 2/3 of the mass, so the root angle is arccos(sqrt(2/3)),
    and the deterministic subtrees give exactly 0 or pi/2.
    """
    tree = angle_tree(powers_of_two(), 3)
    assert abs(tree.theta - math.acos(math.sqrt(2.0 / 3.0))) < 1e-13
    assert abs(tree.suffix_angle("0") - math.pi / 4) < 1e-13
    assert tree.suffix_angle("1") == 0.0
    assert tree.suffix_angle("00") == pytest.approx(math.pi / 2, abs=1e-13)
    assert tree.suffix_angle("10") == 0.0
    assert tree.suffix_angle("01") == 0.0
    # The [3/4, 1] node carries no mass at all; its angle is the fixed
    # zero-mass convention value and never influences any probability.
    assert tree.suffix_angle("11") == pytest.approx(math.pi / 2, abs=1e-15)


def test_uniform_density_gives_all_equal_split_angles():
    d = PiecewisePolyDensity(segments=(DensitySegment(0.0, 1.0, (1.0,)),))
    tree = angle_tree(d, 4)
    assert abs(tree.theta - math.pi / 4) < 1e-13
    for level in tree.levels:
        for ang in level:
            assert abs(ang - math.pi / 4) < 1e-13


def test_angle_count_and_range():
    rng = np.random.default_rng(21)
    for n in (1, 2, 3, 5, 7):
        tree = angle_tree(random_poly_density(rng), n)
        assert [len(level) for level in tree.levels] == [2**m for m in range(1, n)]
        assert 0.0 <= tree.theta <= math.pi / 2
        for level in tree.levels:
            for ang in level:
                assert 0.0 <= ang <= math.pi / 2


def test_angle_tree_rejects_bad_n():
    with pytest.raises(ValueError):
        angle_tree(triangular(), 0)


def test_suffix_angle_indexing():
    """suffix_angle reads levels by the little-endian suffix integer."""
    tree = AngleTree(n=3, angles=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7))
    assert tree.suffix_angle(()) == 0.1
    assert tree.suffix_angle((0,)) == 0.2
    assert tree.suffix_angle((1,)) == 0.3
    # Suffix (1, 0): first bit least significant -> index 1.
    assert tree.suffix_angle((1, 0)) == 0.5
    assert tree.suffix_angle((0, 1)) == 0.6
    assert tree.suffix_angle("01") == 0.6


def test_suffix_angle_rejects_non_bits():
    """A non-bit never indexes a level: (1, -1) would read node "11"."""
    tree = angle_tree(triangular(), 3)
    for suffix in ((1, -1), (0, -1), (0, 2), "12"):
        with pytest.raises(ValueError):
            tree.suffix_angle(suffix)


def test_suffix_angle_checks_each_bit_before_reading_it_as_an_int():
    """A fraction is no bit: int() would truncate 0.5 to 0 and 1.9 to 1 and
    read another node. Each entry is checked by linalg.as_count with the
    range 0..1, the rule of qpu.decode and of control patterns, so 1.0 and
    True are no bits either; a string's characters are read as bits."""
    tree = AngleTree(n=3, angles=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7))
    for suffix, bad in (((0.5,), "0.5"), ((1.9,), "1.9"), ((1, 0.5), "0.5"),
                        ((np.float64(0.5),), r"\S*0\.5\S*"), ("0x", "'x'"), ("12", "'2'"), ((1, "01"), "'01'"),
                        ((1.0, 0), r"1\.0"), ((True, 0), "True"),
                        ((0, np.float64(1.0)), r"\S*1\.0\S*")):
        with pytest.raises(ValueError, match=f"^bit must be an integer, got {bad}$"):
            tree.suffix_angle(suffix)
    for suffix, bound in (((0, 2), "most 1, got 2"), ((1, -1), "least 0, got -1")):
        with pytest.raises(ValueError, match=f"^bit must be at {bound}$"):
            tree.suffix_angle(suffix)
    assert tree.suffix_angle((1, 0)) == tree.suffix_angle((np.int64(1), 0)) == 0.5
    assert tree.suffix_angle(np.array([0, 1])) == tree.suffix_angle("01") == 0.6


def test_suffix_angle_rejects_long_suffixes():
    """A tree on n wires has nodes with at most n-1 fixed bits, a length read
    by linalg.as_count's rule and message."""
    tree = angle_tree(triangular(), 3)
    assert tree.suffix_angle("11") == tree.levels[1][3]
    for suffix in ("000", (1, 0, 1), "0101"):
        with pytest.raises(ValueError) as info:
            tree.suffix_angle(suffix)
        assert str(info.value) == f"suffix length must be at most 2, got {len(suffix)}"


@pytest.mark.parametrize(
    "n, angles",
    [
        (3, (0.2,)),  # too few angles for n = 3
        (2, (0.1, 0.2, 0.3, 0.4)),  # too many
        (2, ((0.1, 0.2, 0.3),)),  # not 1-D
        (0, ()),
        (-1, ()),
        (2.0, (0.1, 0.2, 0.3)),
        (2, (math.nan, 0.2, 0.3)),
        (2, (0.1, math.inf, 0.3)),
        (2, (0.1, 0.2, -1e-300)),
        (2, (0.1, 0.2, math.pi / 2 + 1e-15)),
        (True, (0.1,)),  # writes no "n=True" header
        (np.float64(1), (0.1,)),
        (63, ()),  # more wires than a circuit has
        (10**12, ()),  # rejected before 2^n is formed
        (1, ("0.1",)),  # angles are real numbers, not str, bool or complex
        (1, (True,)),
        (2, (0.1, True, 0.2)),
        (1, (0.1j,)),
        (1, np.array([0.1 + 0j])),
        (1, np.array(["0.1"])),
        (1, np.array([True])),
        (1, (10**400,)),  # beyond float range
    ],
)
def test_angle_tree_rejects_malformed_angles(n, angles):
    """n >= 1 and 2^n - 1 finite angles within [0, pi/2], or ValueError."""
    with pytest.raises(ValueError):
        AngleTree(n=n, angles=angles)


def test_angle_tree_reads_numpy_counts_and_angles():
    tree = AngleTree(n=np.int64(2), angles=[np.float32(0.5), 1, np.int8(0)])
    assert type(tree.n) is int and tree.n == 2
    assert tree.angles.tolist() == [0.5, 1.0, 0.0]


def test_angle_tree_keeps_a_read_only_copy():
    given = np.array([0.0, 0.5, math.pi / 2])
    tree = AngleTree(n=2, angles=given)
    assert given.flags.writeable  # the caller's array is never frozen
    given[0] = 1.0
    assert tree.angles.tolist() == [0.0, 0.5, math.pi / 2]
    assert tree.angles.dtype == np.float64
    for view in (tree.angles, *tree.levels):
        with pytest.raises(ValueError):
            view[0] = 0.25


# --- synthesis ----------------------------------------------------------------------


def test_single_qubit_circuit_is_one_rotation():
    d = triangular()
    tree = angle_tree(d, 1)
    c = synthesize(tree)
    assert circuit_length(c) == 1
    assert (c.target.tolist(), c.mask.tolist(), c.value.tolist()) == ([1], [0], [0])
    assert c.angle.tolist() == [tree.theta]


def test_unpruned_circuit_length_is_full():
    rng = np.random.default_rng(22)
    for n in range(1, 9):
        tree = angle_tree(random_poly_density(rng), n)
        assert circuit_length(synthesize(tree)) == 2**n - 1, n


def _suffix(g):
    """The control bits of a synthesized gate, a one-gate circuit: the wires
    after its target, in wire order."""
    return format(g.value[0].item(), f"0{g.n}b")[g.target[0].item() :]


def test_circuit_gate_layout():
    """First a free rotation on wire n, then stage l on wire n - l + 1,
    controlled by the trailing l - 1 wires, one gate per suffix."""
    tree = angle_tree(triangular(), 3)
    c = synthesize(tree)
    assert (c.target[0], c.mask[0], c.angle[0]) == (3, 0, tree.theta)
    # Stage 2 is controlled by wire 3 (position bit 0), stage 3 by wires 2
    # and 3 (position bits 1 and 0); suffix (1, 0) is wire 2 = 1, position 2.
    layout = [(g.target[0], g.mask[0], g.value[0], _suffix(g)) for g in c.gates[1:]]
    assert layout == [
        (2, 1, 0, "0"),
        (2, 1, 1, "1"),
        (1, 3, 0, "00"),
        (1, 3, 2, "10"),
        (1, 3, 1, "01"),
        (1, 3, 3, "11"),
    ]
    for g in c.gates[1:]:
        assert g.angle[0] == tree.suffix_angle(_suffix(g))
        assert np.array_equal(gate_blocks(g.angle, g.blocks)[0], rotation(g.angle[0]))


def test_pruning_drops_exact_identity_rotations_only():
    tree = angle_tree(powers_of_two(), 3)
    full = synthesize(tree)
    pruned = synthesize(tree, prune=True)
    assert circuit_length(full) == 7
    assert circuit_length(pruned) == 4
    kept_angles = pruned.angle.tolist()
    for g, angle in zip(pruned.gates, kept_angles):
        assert angle == tree.suffix_angle(_suffix(g))
        assert np.array_equal(gate_blocks(g.angle, g.blocks)[0], rotation(angle))
    kept_angles.sort()
    want = sorted(
        [math.acos(math.sqrt(2.0 / 3.0)), math.pi / 4, math.pi / 2, math.pi / 2]
    )
    assert np.allclose(kept_angles, want, atol=1e-13)
    # Pruning never changes the prepared distribution.
    assert np.max(np.abs(circuit_law(full) - circuit_law(pruned))) < 1e-14


@pytest.mark.parametrize("n", range(1, 13))
def test_synthesized_blocks_are_rotation_bit_for_bit(n):
    """One cos and one sin over all angles give exactly rotation(angle) of
    each gate, the sign of a zero included, pruned or not: a synthesized
    circuit stores no block, and gate_blocks builds them as float64."""
    rng = np.random.default_rng([30, n])
    for d in (random_poly_density(rng), powers_of_two()):
        tree = angle_tree(d, n)
        angles = [tree.theta, *(a for level in tree.levels for a in level)]
        want = np.array([rotation(a) for a in angles])
        c, pruned = synthesize(tree), synthesize(tree, prune=True)
        assert len(c.blocks) == len(pruned.blocks) == 0
        assert gate_blocks(c.angle).astype(complex).tobytes() == want.tobytes()
        kept = [k for k, a in enumerate(angles) if a != 0.0]
        assert gate_blocks(pruned.angle).astype(complex).tobytes() == want[kept].tobytes()
    # powers_of_two has nodes with all their mass on the left: angle 0,
    # whose block holds -sin(0) = -0.0.
    real = gate_blocks(c.angle)
    assert real.dtype == np.float64
    assert n == 1 or (np.signbit(real) & (real == 0.0)).any()


def test_synthesized_state_is_real_and_nonnegative():
    """Plane rotations from |0...0> keep every amplitude real nonnegative:
    the prepared vector encodes square roots of the target masses."""
    from qsim.gates import apply_vector

    rng = np.random.default_rng(23)
    d = random_poly_density(rng)
    tree = angle_tree(d, 4)
    psi = np.zeros(16, dtype=complex)
    psi[0] = 1.0
    out = apply_vector(synthesize(tree), psi)
    assert np.max(np.abs(out.imag)) < 1e-14
    assert np.min(out.real) > -1e-12


# --- the three laws ------------------------------------------------------------------


def test_triangular_exact_law_pin():
    """Leaf masses of the triangular density: (1,3,5,7,7,5,3,1)/32."""
    want = np.array([1, 3, 5, 7, 7, 5, 3, 1], dtype=float) / 32.0
    got = target_law(triangular(), 3)
    assert np.max(np.abs(got - want)) < 1e-15


def test_powers_of_two_exact_law_pin():
    want = np.zeros(8)
    want[1] = want[2] = want[4] = 1.0 / 3.0
    got = target_law(powers_of_two(), 3)
    assert np.max(np.abs(got - want)) < 1e-15


def test_formula_law_matches_target_for_shipped_densities():
    for d in (triangular(), powers_of_two()):
        tree = angle_tree(d, 3)
        assert np.max(np.abs(formula_law(tree) - target_law(d, 3))) < 1e-12


def test_circuit_law_matches_target_for_shipped_densities():
    for d in (triangular(), powers_of_two()):
        tree = angle_tree(d, 3)
        got = circuit_law(synthesize(tree))
        assert np.max(np.abs(got - target_law(d, 3))) < 1e-12


def test_three_way_agreement_random_densities():
    rng = np.random.default_rng(24)
    for n in (1, 2, 3, 4, 5, 6):
        d = random_poly_density(rng)
        tree = angle_tree(d, n)
        target = target_law(d, n)
        formula = formula_law(tree)
        circuit = circuit_law(synthesize(tree))
        assert np.max(np.abs(formula - target)) < 1e-10, n
        assert np.max(np.abs(circuit - target)) < 1e-10, n
        assert np.max(np.abs(circuit - formula)) < 1e-10, n


def test_outcome_support_confined_to_density_support():
    """A density living on [0, 1/2] puts zero probability on labels >= 2^(n-1)."""
    half = PiecewisePolyDensity(
        segments=(
            DensitySegment(0.0, 0.5, (2.0,)),
            DensitySegment(0.5, 1.0, (0.0,)),
        )
    )
    law = circuit_law(synthesize(angle_tree(half, 3)))
    assert np.max(law[4:]) < 1e-12
    assert np.sum(law[:4]) == pytest.approx(1.0, abs=1e-12)


def test_formula_law_sums_to_one_for_any_angles():
    """The squared-trig product telescopes to 1 whatever the angles are."""
    rng = np.random.default_rng(25)
    for n in (1, 2, 4, 6):
        levels = [rng.uniform(0.0, math.pi / 2, size=2**m) for m in range(1, n)]
        theta = rng.uniform(0, math.pi / 2)
        tree = AngleTree(n=n, angles=np.concatenate([[theta], *levels]))
        assert abs(float(np.sum(formula_law(tree))) - 1.0) < 1e-12


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_laws_agree_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    d = random_poly_density(rng)
    tree = angle_tree(d, n)
    target = target_law(d, n)
    assert abs(float(np.sum(target)) - 1.0) < 1e-10
    assert np.max(np.abs(formula_law(tree) - target)) < 1e-10


def test_verify_report():
    report = verify(triangular(), 3)
    assert report.passed
    assert report.n == 3
    assert report.max_dev_formula_target < 1e-12
    assert report.max_dev_circuit_target < 1e-12
    assert report.max_dev_circuit_formula < 1e-12
    assert np.max(np.abs(report.target - target_law(triangular(), 3))) == 0.0


def test_verify_fails_at_impossible_tolerance():
    report = verify(triangular(), 3, tol=0.0)
    assert not report.passed


@pytest.mark.parametrize("tol, message", [
    (math.nan, "tol must be a finite number >= 0, got nan"),
    (-1.0, "tol must be a finite number >= 0, got -1.0"),
    (math.inf, "tol must be a finite number >= 0, got inf"),
    (True, "tol must be real numbers, got ['bool']"),
    ("1e-3", "tol must be real numbers, got ['str']"),
    ([1e-3], "tol must be a 0-D array, got a 1-D input"),
])
def test_verify_reads_tol_before_any_mass(monkeypatch, tol, message):
    """verify reads tol itself, by linalg.as_numbers, before it computes a
    mass: a NaN, negative or infinite tol is no silent FAIL or PASS, a bool
    is no number, and a string or a list is a ValueError, not a TypeError."""
    def refuse(self, edges):
        raise AssertionError("a mass was computed before tol was read")

    d = triangular()
    monkeypatch.setattr(PiecewisePolyDensity, "masses", refuse)
    with pytest.raises(ValueError) as info:
        verify(d, 3, tol=tol)
    assert str(info.value) == message


def test_verify_takes_zero_and_a_numpy_tol():
    """0.0 and np.float64(1e-3) are tolerances; the report keeps a float."""
    for tol, passed in ((0.0, False), (np.float64(1e-3), True)):
        report = verify(triangular(), 3, tol=tol)
        assert report.passed is passed
        assert type(report.tol) is float and report.tol == tol


def test_verify_computes_the_leaf_masses_once(monkeypatch):
    d = triangular()
    calls = []
    masses = PiecewisePolyDensity.masses

    def counted(self, edges):
        calls.append(len(edges))
        return masses(self, edges)

    monkeypatch.setattr(PiecewisePolyDensity, "masses", counted)
    report = verify(d, 5)
    assert calls == [33]
    assert report.passed
    assert np.array_equal(report.formula, formula_law(angle_tree(d, 5)))


# --- equivalence with scalar references ------------------------------------------


def scalar_target_law(d, n):
    """Leaf masses on Python floats, one segment overlap at a time."""
    law = []
    for k in range(2**n):
        a, b = k / 2.0**n, (k + 1) / 2.0**n
        total = 0.0
        for s in d.segments:
            lo, hi = max(a, s.lo), min(b, s.hi)
            if lo < hi:
                total += s.mass(lo, hi)
        law.append(total)
    return law


def scalar_formula_law(tree):
    """Entry k multiplies cos^2 or sin^2 of one angle per wire, in wire order."""
    n = tree.n
    law = []
    for k in range(2**n):
        p = 1.0
        for j in range(1, n + 1):
            m = n - j
            ang = tree.theta if m == 0 else tree.levels[m - 1][k >> j]
            p *= (math.sin(ang) if (k >> (j - 1)) & 1 else math.cos(ang)) ** 2
        law.append(p)
    return law


def equivalence_cases():
    rng = np.random.default_rng(26)
    for n in range(1, 13):
        for d in (triangular(), powers_of_two(), random_poly_density(rng)):
            yield d, n


def test_qubit_count_follows_the_integer_rule():
    """n is an integer, Python or numpy, and not a bool or a float, for the
    target law and everything built on it: 2.0 does not give four masses."""
    d = triangular()
    for n in (2.0, True, np.float64(3.0)):
        for call in (target_law, angle_tree, verify):
            with pytest.raises(ValueError) as info:
                call(d, n)
            assert str(info.value) == f"n must be an integer, got {n!r}", call
    assert target_law(d, np.int64(3)).tobytes() == target_law(d, 3).tobytes()


def test_qubit_count_is_a_wire_count():
    """n is at least 1, with Circuit's messages, for the target law and
    everything built on it; 63, past MAX_WIRES, is rejected by the law's own
    bound before any edge is built."""
    d = triangular()
    for n, message in ((0, "at least 1, got 0"), (-1, "at least 1, got -1"),
                       (63, "at most 30, got 63")):
        for call in (target_law, angle_tree, verify):
            with pytest.raises(ValueError) as info:
                call(d, n)
            assert str(info.value) == f"n must be {message}", call


def test_a_law_has_at_most_30_wires(monkeypatch):
    """n past MAX_LAW_WIRES is rejected, for the target law and everything
    built on it, before any array is built: 2^30 + 1 float64 edges are 8 GiB."""
    d = triangular()

    def no_array(*args, **kwargs):
        raise AssertionError("an array was built")

    monkeypatch.setattr(np, "arange", no_array)
    for n in (31, 62):
        for call in (target_law, angle_tree, verify):
            with pytest.raises(ValueError) as info:
                call(d, n)
            assert str(info.value) == f"n must be at most 30, got {n}", call


def test_target_law_equals_scalar_reference():
    for d, n in equivalence_cases():
        assert target_law(d, n).tolist() == scalar_target_law(d, n), n


def test_angles_within_one_ulp_of_scalar_reference():
    zero_nodes = 0
    for d, n in equivalence_cases():
        masses = [scalar_target_law(d, n)]
        while len(masses[-1]) > 1:
            m = masses[-1]
            masses.append([m[2 * s] + m[2 * s + 1] for s in range(len(m) // 2)])
        masses.reverse()
        tree = angle_tree(d, n)
        assert tree.angles.dtype == np.float64
        got = ((tree.theta,), *tree.levels)
        for m in range(n):
            assert len(got[m]) == 2**m
            for s, ang in enumerate(got[m]):
                parent, child0 = masses[m][s], masses[m + 1][2 * s]
                if parent <= ZERO_MASS_TOL:
                    zero_nodes += 1
                    assert ang == ZERO_MASS_ANGLE
                else:
                    want = math.acos(math.sqrt(min(max(child0 / parent, 0.0), 1.0)))
                    assert abs(ang - want) <= math.ulp(want), (n, m, s)
    assert zero_nodes > 0


def test_formula_law_matches_scalar_product():
    for d, n in equivalence_cases():
        tree = angle_tree(d, n)
        got = formula_law(tree)
        assert np.max(np.abs(got - scalar_formula_law(tree))) <= 1e-15, n


@st.composite
def poly_densities(draw):
    """1-8 segments of degree <= 4, coefficients in [-1, 1] before normalizing.

    Each constant term lifts its segment to at least a drawn floor in
    [0.1, 1] on [0, 1], so the density is nonnegative and its normalized
    coefficients stay O(1).
    """
    k = draw(st.integers(1, 8))
    cuts = draw(
        st.lists(
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            min_size=k - 1,
            max_size=k - 1,
            unique=True,
        )
    )
    edges = [0.0, *sorted(cuts), 1.0]
    segs = []
    for lo, hi in zip(edges, edges[1:]):
        deg = draw(st.integers(0, 4))
        rest = draw(st.lists(st.floats(-1.0, 1.0), min_size=deg, max_size=deg))
        floor = draw(st.floats(0.1, 1.0))
        segs.append(DensitySegment(lo, hi, (floor - sum(min(c, 0.0) for c in rest), *rest)))
    total = sum(s.mass(s.lo, s.hi) for s in segs)
    return PiecewisePolyDensity(
        segments=tuple(
            DensitySegment(s.lo, s.hi, tuple(c / total for c in s.coeffs)) for s in segs
        )
    )


def exact_target_law(d, n):
    """Dyadic masses of the density's float coefficients, in exact rationals."""
    law = [Fraction(0)] * 2**n
    for s in d.segments:
        scaled = [Fraction(c) / (m + 1) for m, c in enumerate(s.coeffs)]

        def antiderivative(x):
            acc = Fraction(0)
            for c in reversed(scaled):
                acc = acc * x + c
            return acc * x

        lo, hi = Fraction(s.lo), Fraction(s.hi)
        for k in range(int(lo * 2**n), min(int(hi * 2**n), 2**n - 1) + 1):
            a, b = max(Fraction(k, 2**n), lo), min(Fraction(k + 1, 2**n), hi)
            if a < b:
                law[k] += antiderivative(b) - antiderivative(a)
    return law


@settings(deadline=None, max_examples=30)
@given(poly_densities(), st.integers(min_value=1, max_value=10))
def test_target_law_within_1e14_of_exact_masses(d, n):
    """Absolute bound: near-zero leaf masses reach 1e-11 relative error."""
    got = target_law(d, n).tolist()
    errors = [abs(Fraction(g) - e) for g, e in zip(got, exact_target_law(d, n))]
    assert max(errors) <= Fraction(1, 10**14)


def quadratic():
    """0.1 + 2.7 x^2 on [0, 1]."""
    return PiecewisePolyDensity((DensitySegment(0.0, 1.0, (0.1, 0.0, 2.7)),))


def exact_one_piece_masses(coeffs, n):
    """The dyadic masses of sum_m coeffs[m] x^m on [0, 1], each the float
    nearest its exact rational: one integer antiderivative per edge."""
    scaled = [Fraction(c) / (m + 1) for m, c in enumerate(coeffs)]
    lcd = math.lcm(*(s.denominator for s in scaled))
    top = len(coeffs)
    # 2^(n top) lcd F(k / 2^n), an integer.
    edges = [
        sum(int(s * lcd) * k ** (m + 1) << n * (top - m - 1) for m, s in enumerate(scaled))
        for k in range(2**n + 1)
    ]
    return np.array([(b - a) / (lcd << n * top) for a, b in zip(edges, edges[1:])])


def test_circuit_law_matches_formula_law_at_n_20():
    tree = angle_tree(quadratic(), 20)
    assert np.max(np.abs(circuit_law(synthesize(tree)) - formula_law(tree))) <= 1e-15


def test_circuit_law_matches_exact_masses_at_n_16():
    """Relative bound: the leaf masses F(b) - F(a) cancel, 5e-12 at n = 16."""
    got = circuit_law(synthesize(angle_tree(quadratic(), 16)))
    want = exact_one_piece_masses((0.1, 0.0, 2.7), 16)
    assert np.max(np.abs(got - want) / want) <= 1e-11


# --- the heap-ordered tree against a per-level construction ----------------------


def per_level_tree(leaves):
    """(theta, levels) from a list of per-level mass arrays, split level by
    level into tuples of Python floats."""
    masses = [leaves]
    while len(masses[-1]) > 1:
        m = masses[-1]
        masses.append(m[0::2] + m[1::2])
    masses.reverse()  # masses[m][s]: level-m interval s
    angles = []
    for m in range(len(masses) - 1):
        parent, child0 = masses[m], masses[m + 1][0::2]
        live = parent > ZERO_MASS_TOL
        ratio = np.clip(child0 / np.where(live, parent, 1.0), 0.0, 1.0)
        angles.append(np.where(live, np.arccos(np.sqrt(ratio)), ZERO_MASS_ANGLE).tolist())
    return angles[0][0], tuple(map(tuple, angles[1:]))


def per_level_formula_law(n, theta, levels):
    """The angle products through a 2^n index array, one level at a time."""
    angles = ((theta,), *levels)
    k = np.arange(2**n)
    out = np.ones(2**n)
    for j in range(1, n + 1):
        a = np.asarray(angles[n - j])
        trig = np.stack([np.cos(a), np.sin(a)]) ** 2
        out *= trig[(k >> (j - 1)) & 1, k >> j]
    return out


def per_level_circuit(n, theta, levels, prune=False):
    """The synthesized circuit's columns built node by node from the levels:
    node s of level m rotates wire n - m under the trailing m wires, whose
    array positions hold suffix s with its bits reversed."""
    flat = np.array([theta, *(a for level in levels for a in level)])
    m = np.repeat(np.arange(n), 1 << np.arange(n))
    s = np.concatenate([np.arange(2**k) for k in range(n)])
    bits = (((s >> i) & 1) << np.maximum(m - 1 - i, 0) for i in range(n - 1))
    columns = [n - m, (1 << m) - 1, sum(bits, np.zeros_like(s)), flat]
    if prune:
        columns = [c[flat != 0.0] for c in columns]
    return Circuit(n, *columns[:3], None, columns[3])


def per_level_json(n, theta, levels):
    suffix_angles = [
        {"suffix": suffix, "angle": angle}
        for m, level in enumerate(levels, start=1)
        for suffix, angle in zip(qpu.label_bitstrings(m), level)
    ]
    return json.dumps({"n": n, "theta": theta, "suffix_angles": suffix_angles}, indent=2)


def heap_cases():
    rng = np.random.default_rng(44)
    for n in range(1, 15):
        for d in (powers_of_two(), random_poly_density(rng), random_poly_density(rng)):
            yield d, n


def test_heap_tree_equals_per_level_construction():
    """Angles, formula law, circuits full and pruned, their law and the
    sidecar are those of the per-level construction, bit for bit."""
    for d, n in heap_cases():
        tree = angle_tree(d, n)
        theta, levels = per_level_tree(target_law(d, n))
        flat = np.array([theta, *(a for level in levels for a in level)])
        assert np.array_equal(tree.angles, flat), n
        assert np.array_equal(formula_law(tree), per_level_formula_law(n, theta, levels)), n
        for prune in (False, True):
            got = synthesize(tree, prune=prune)
            want = per_level_circuit(n, theta, levels, prune)
            assert format_circuit(got) == format_circuit(want), (n, prune)
        assert np.array_equal(circuit_law(got), circuit_law(want)), n
        assert angle_tree_to_json(tree) == per_level_json(n, theta, levels), n


@pytest.mark.parametrize("n", [16, 20])
def test_heap_tree_equals_per_level_construction_at_large_n(n):
    """The heap tree, its formula law and its circuit are the per-level
    construction's at n = 16 and 20, and the circuit's text reads back to
    columns of the same bytes, so it writes that text byte for byte."""
    d = random_poly_density(np.random.default_rng([45, n]))
    tree = angle_tree(d, n)
    theta, levels = per_level_tree(target_law(d, n))
    assert np.array_equal(tree.angles, np.array([theta, *(a for lv in levels for a in lv)]))
    assert np.array_equal(formula_law(tree), per_level_formula_law(n, theta, levels))
    got, want = synthesize(tree), per_level_circuit(n, theta, levels)
    back = parse_circuit(format_circuit(got))
    assert back.n == n
    for name in ("target", "mask", "value", "blocks", "angle"):
        assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True), name
        assert getattr(back, name).tobytes() == getattr(got, name).tobytes(), name


@pytest.mark.parametrize("n", range(1, 13))
def test_synthesized_circuit_text_round_trips(n):
    """A synthesized circuit, full or pruned, writes text that reads back to
    the same columns and writes the same bytes, and the parsed circuit's law
    is the synthesized circuit's bit for bit."""
    rng = np.random.default_rng([46, n])
    for d in (powers_of_two(), random_poly_density(rng)):
        tree = angle_tree(d, n)
        for prune in (False, True):
            c = synthesize(tree, prune=prune)
            text = format_circuit(c)
            back = parse_circuit(text)
            assert format_circuit(back) == text, (n, prune)
            for name in ("target", "mask", "value", "blocks", "angle"):
                assert np.array_equal(getattr(back, name), getattr(c, name)), name
            assert circuit_law(back).tobytes() == circuit_law(c).tobytes(), (n, prune)


# --- file formats -----------------------------------------------------------------------


def test_density_json_round_trip():
    d = triangular()
    segments = [{"lo": s.lo, "hi": s.hi, "coeffs": list(s.coeffs)} for s in d.segments]
    back = parse_density_json(json.dumps({"segments": segments}))
    assert len(back.segments) == len(d.segments)
    for a, b in zip(d.segments, back.segments):
        assert (a.lo, a.hi, a.coeffs) == (b.lo, b.hi, b.coeffs)


def test_density_json_error_reporting():
    with pytest.raises(ParseError):
        parse_density_json("{not json")
    with pytest.raises(ParseError):
        parse_density_json("[1, 2, 3]")
    with pytest.raises(ParseError):
        parse_density_json('{"segments": 5}')
    with pytest.raises(ParseError):
        parse_density_json('{"segments": [42]}')
    with pytest.raises(ParseError):
        parse_density_json('{"segments": [{"lo": 0.0, "hi": 1.0}]}')
    # JSON numbers only, and "coeffs" an array: a string of digits would
    # load as the coefficients 0 and 2, that is the density 2x, and a number
    # is no array either.
    for segment in (
        '{"lo": 0, "hi": 1, "coeffs": "02"}',
        '{"lo": 0, "hi": 1, "coeffs": 2.0}',
        '{"lo": 0, "hi": true, "coeffs": [2.0]}',
        '{"lo": "0.5", "hi": 1, "coeffs": [2.0]}',
        '{"lo": 0, "hi": 1, "coeffs": [0, false]}',
        '{"lo": 0, "hi": 1, "coeffs": [null]}',
        '{"lo": 0, "hi": 1, "coeffs": {"1": 2.0}}',
    ):
        with pytest.raises(ParseError):
            parse_density_json(f'{{"segments": [{segment}]}}')
    # JSON integers are numbers.
    d = parse_density_json('{"segments": [{"lo": 0, "hi": 1, "coeffs": [0, 2]}]}')
    assert d.segments[0].coeffs == (0.0, 2.0)
    # Well-formed JSON but an invalid density: a different error type.
    with pytest.raises(DensityError):
        parse_density_json(
            '{"segments": [{"lo": 0.0, "hi": 1.0, "coeffs": [2.0]}]}'
        )


def test_load_density_from_file(tmp_path):
    path = tmp_path / "d.json"
    path.write_text((resources.files("qsim.data") / "triangular.json").read_text())
    d = load_density(path)
    assert d.masses([0.0, 1.0])[0] == pytest.approx(1.0, abs=1e-12)


def test_angle_tree_json_round_trip():
    """The JSON numbers read back to every angle bit for bit, one entry per
    node, level by level in label_bitstrings order."""
    tree = angle_tree(triangular(), 4)
    doc = json.loads(angle_tree_to_json(tree))
    assert (doc["n"], doc["theta"]) == (tree.n, tree.theta)
    entries = [(e["suffix"], e["angle"]) for e in doc["suffix_angles"]]
    want = [
        (suffix, angle)
        for m, level in enumerate(tree.levels, start=1)
        for suffix, angle in zip(qpu.label_bitstrings(m), level)
    ]
    assert entries == want


def test_angle_tree_json_uses_wire_order_suffix_strings():
    tree = angle_tree(triangular(), 3)
    doc = json.loads(angle_tree_to_json(tree))
    by_suffix = {e["suffix"]: e["angle"] for e in doc["suffix_angles"]}
    assert set(by_suffix) == {"0", "1", "00", "10", "01", "11"}
    assert by_suffix["10"] == tree.suffix_angle((1, 0))
