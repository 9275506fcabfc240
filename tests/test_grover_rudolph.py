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

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsim.gates import SuffixControlledGate, WireGate, circuit_length, rotation
from qsim.grover_rudolph import (
    ZERO_MASS_ANGLE,
    ZERO_MASS_TOL,
    AngleTree,
    CallableDensity,
    DensityError,
    DensityJsonError,
    DensitySegment,
    PiecewisePolyDensity,
    angle_tree,
    angle_tree_from_json,
    angle_tree_to_json,
    circuit_law,
    density_to_json,
    formula_law,
    load_density,
    parse_density_json,
    synthesize,
    target_law,
    verify,
)


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


def test_quadrature_density_matches_exact_integrals():
    """Adaptive quadrature on the triangular shape vs the exact polynomial."""
    exact = triangular()
    approx = CallableDensity(lambda x: 4.0 * x if x <= 0.5 else 4.0 - 4.0 * x)
    for a, b in ((0.0, 1.0), (0.125, 0.375), (0.3, 0.7), (0.5, 0.5)):
        assert approx.masses([a, b])[0] == pytest.approx(
            exact.masses([a, b])[0], abs=1e-9
        )


def test_quadrature_density_rejects_unnormalized():
    with pytest.raises(DensityError):
        CallableDensity(lambda x: 2.0)


def test_quadrature_density_rejects_negative_values():
    # 4x - 1 integrates to 1 but is negative on [0, 1/4).
    with pytest.raises(DensityError) as err:
        CallableDensity(lambda x: 4.0 * x - 1.0)
    assert "negative" in str(err.value)


def test_quadrature_density_rejects_non_finite_values():
    calls = 0

    def nan_above_half(x):
        # A NaN once kept every Simpson branch refining to depth 50; stop a
        # regression after 10^4 evaluations instead of hanging.
        nonlocal calls
        calls += 1
        if calls > 10**4:
            raise RuntimeError("quadrature kept evaluating a NaN density")
        return math.nan if x > 0.5 else 2.0

    with pytest.raises(DensityError):
        CallableDensity(nan_above_half)
    with pytest.raises(DensityError):
        CallableDensity(lambda x: math.inf)


def test_masses_match_integrate_on_every_interval():
    edges = [0.0, 0.1, 0.1, 0.375, 0.73, 1.0]
    quadrature = CallableDensity(lambda x: 4.0 * x if x <= 0.5 else 4.0 - 4.0 * x)
    for d in (triangular(), quadrature):
        got = d.masses(edges)
        assert got.shape == (5,)
        assert got[1] == 0.0
        # Each entry is the interval integrated on its own.
        assert got.tolist() == [d.masses([a, b])[0] for a, b in zip(edges, edges[1:])]
        for bad in ([0.0, 0.6, 0.5], [-0.1, 0.5], [0.5, 1.1], [0.0, math.nan]):
            with pytest.raises(ValueError):
                d.masses(bad)


def test_dyadic_mass_pins():
    d = triangular()
    assert target_law(d, 0)[0] == pytest.approx(1.0, abs=1e-15)
    assert target_law(d, 1)[0] == pytest.approx(0.5, abs=1e-15)
    assert target_law(d, 3)[3] == pytest.approx(7.0 / 32.0, abs=1e-15)
    assert target_law(d, 3)[4] == pytest.approx(7.0 / 32.0, abs=1e-15)


def test_dyadic_masses_partition_unity():
    rng = np.random.default_rng(20)
    d = random_poly_density(rng)
    for level in range(5):
        assert float(np.sum(target_law(d, level))) == pytest.approx(1.0, abs=1e-12)


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
        assert tree.angle_count() == 2**n - 1
        assert 0.0 <= tree.theta <= math.pi / 2
        for level in tree.levels:
            for ang in level:
                assert 0.0 <= ang <= math.pi / 2


def test_angle_tree_rejects_bad_n():
    with pytest.raises(ValueError):
        angle_tree(triangular(), 0)


def test_suffix_angle_indexing():
    """suffix_angle reads levels by the little-endian suffix integer."""
    tree = AngleTree(n=3, theta=0.1, levels=((0.2, 0.3), (0.4, 0.5, 0.6, 0.7)))
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


def test_suffix_angle_rejects_long_suffixes():
    """A tree on n wires has nodes with at most n-1 fixed bits."""
    tree = angle_tree(triangular(), 3)
    assert tree.suffix_angle("11") == tree.levels[1][3]
    for suffix in ("000", (1, 0, 1), "0101"):
        with pytest.raises(ValueError, match=f"suffix of length {len(suffix)} "):
            tree.suffix_angle(suffix)


# --- synthesis ----------------------------------------------------------------------


def test_single_qubit_circuit_is_one_rotation():
    d = triangular()
    tree = angle_tree(d, 1)
    c = synthesize(tree)
    assert circuit_length(c) == 1
    g = c.gates[0]
    assert isinstance(g, WireGate)
    assert g.j == 1
    assert g.angle == tree.theta


def test_unpruned_circuit_length_is_full():
    rng = np.random.default_rng(22)
    for n in range(1, 9):
        tree = angle_tree(random_poly_density(rng), n)
        assert circuit_length(synthesize(tree)) == 2**n - 1, n


def test_circuit_gate_layout():
    """First a free rotation on wire n, then suffix-controlled stages."""
    tree = angle_tree(triangular(), 3)
    c = synthesize(tree)
    assert isinstance(c.gates[0], WireGate)
    assert c.gates[0].j == 3
    stages = [(g.stage, g.suffix) for g in c.gates[1:]]
    assert stages == [
        (2, (0,)),
        (2, (1,)),
        (3, (0, 0)),
        (3, (1, 0)),
        (3, (0, 1)),
        (3, (1, 1)),
    ]
    for g in c.gates[1:]:
        assert isinstance(g, SuffixControlledGate)
        assert g.target == 3 - g.stage + 1
        assert np.array_equal(g.v, rotation(tree.suffix_angle(g.suffix)))


def test_pruning_drops_exact_identity_rotations_only():
    tree = angle_tree(powers_of_two(), 3)
    full = synthesize(tree)
    pruned = synthesize(tree, prune=True)
    assert circuit_length(full) == 7
    assert circuit_length(pruned) == 4
    kept_angles = [
        g.angle if isinstance(g, WireGate) else tree.suffix_angle(g.suffix)
        for g in pruned.gates
    ]
    for g, angle in zip(pruned.gates, kept_angles):
        assert np.array_equal(g.v, rotation(angle))
    kept_angles.sort()
    want = sorted(
        [math.acos(math.sqrt(2.0 / 3.0)), math.pi / 4, math.pi / 2, math.pi / 2]
    )
    assert np.allclose(kept_angles, want, atol=1e-13)
    # Pruning never changes the prepared distribution.
    assert np.max(np.abs(circuit_law(full) - circuit_law(pruned))) < 1e-14


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
        levels = tuple(
            tuple(rng.uniform(0.0, math.pi / 2, size=2**m))
            for m in range(1, n)
        )
        tree = AngleTree(n=n, theta=float(rng.uniform(0, math.pi / 2)), levels=levels)
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


def test_verify_computes_the_leaf_masses_once(monkeypatch):
    for d in (triangular(), CallableDensity(lambda x: 2.0 * x)):
        calls = []
        masses = type(d).masses

        def counted(self, edges, masses=masses):
            calls.append(len(edges))
            return masses(self, edges)

        monkeypatch.setattr(type(d), "masses", counted)
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
        got = ((tree.theta,), *tree.levels)
        for m in range(n):
            assert len(got[m]) == 2**m
            for s, ang in enumerate(got[m]):
                assert type(ang) is float
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


# --- file formats -----------------------------------------------------------------------


def test_density_json_round_trip():
    d = triangular()
    back = parse_density_json(density_to_json(d))
    assert len(back.segments) == len(d.segments)
    for a, b in zip(d.segments, back.segments):
        assert (a.lo, a.hi, a.coeffs) == (b.lo, b.hi, b.coeffs)


def test_density_json_error_reporting():
    with pytest.raises(DensityJsonError):
        parse_density_json("{not json")
    with pytest.raises(DensityJsonError):
        parse_density_json("[1, 2, 3]")
    with pytest.raises(DensityJsonError):
        parse_density_json('{"segments": 5}')
    with pytest.raises(DensityJsonError):
        parse_density_json('{"segments": [42]}')
    with pytest.raises(DensityJsonError):
        parse_density_json('{"segments": [{"lo": 0.0, "hi": 1.0}]}')
    # Well-formed JSON but an invalid density: a different error type.
    with pytest.raises(DensityError):
        parse_density_json(
            '{"segments": [{"lo": 0.0, "hi": 1.0, "coeffs": [2.0]}]}'
        )


def test_load_density_from_file(tmp_path):
    path = tmp_path / "d.json"
    path.write_text(density_to_json(triangular()))
    d = load_density(path)
    assert d.masses([0.0, 1.0])[0] == pytest.approx(1.0, abs=1e-12)


def test_angle_tree_json_round_trip():
    tree = angle_tree(triangular(), 3)
    back = angle_tree_from_json(angle_tree_to_json(tree))
    assert back.n == tree.n
    assert back.theta == tree.theta
    assert back.levels == tree.levels


def test_angle_tree_json_uses_wire_order_suffix_strings():
    tree = angle_tree(triangular(), 3)
    doc = json.loads(angle_tree_to_json(tree))
    by_suffix = {e["suffix"]: e["angle"] for e in doc["suffix_angles"]}
    assert set(by_suffix) == {"0", "1", "00", "10", "01", "11"}
    assert by_suffix["10"] == tree.suffix_angle((1, 0))


def test_angle_tree_json_error_reporting():
    with pytest.raises(DensityJsonError):
        angle_tree_from_json("{broken")
    with pytest.raises(DensityJsonError):
        angle_tree_from_json('{"n": 2, "theta": 0.5, "suffix_angles": []}')
    # "n" is a JSON integer >= 1, and each node has exactly one entry.
    doc = json.loads(angle_tree_to_json(angle_tree(triangular(), 3)))
    first = doc["suffix_angles"][0]
    no_node = {"suffix": "111", "angle": 0.0}
    bad = (
        {**doc, "n": 1.9},
        {**doc, "n": 3.0},
        {**doc, "n": True},
        {**doc, "n": "3"},
        {**doc, "n": 0, "suffix_angles": []},
        {**doc, "n": -2, "suffix_angles": []},
        {**doc, "suffix_angles": doc["suffix_angles"] + [first]},
        {**doc, "suffix_angles": doc["suffix_angles"] + [no_node]},
        {**doc, "n": 1},
    )
    for case in bad:
        with pytest.raises(DensityJsonError):
            angle_tree_from_json(json.dumps(case))
    tree = angle_tree_from_json(json.dumps({**doc, "n": 1, "suffix_angles": []}))
    assert (tree.n, tree.levels) == (1, ())
