"""The four workloads: seeded inputs, one op each, and the checks on its output.

Model: one client in one process issues its next op only after the previous
one returns (a closed loop). An op calls qsim only through public entry
points: ``cli.main(argv)`` in-process, or the library API the README shows.
Its input is made before it and its output is checked after it; neither is
timed. Import this module only after ``env.use_checkout_sources()``.

Sizes: each block of ops takes the sizes in ``Workload.block`` in a seeded
order, so every block holds the same mix. The largest size has one sixth of
the ops, so the 90th percentile falls 40% of the way into its class. The
median falls in the middle of the second-largest class, or, where a run is
a fixed 100-odd ops and larger sizes would make it too long, two thirds or
three quarters of the way into a smaller one. Each is then a central
statistic of many ops of one size, never on the jump between two classes.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
from numpy.polynomial import polynomial as P

from qsim import algprob, cli, gates, qpu
from qsim import grover_rudolph as gr
from qsim import rng as qrng

SHOTS = 10**6
LAW_SUM_TOL = 1e-9  # every law sums to 1 within this
LAW_TOL = 1e-10  # formula_law vs target_law, and any two laws of one density
ORACLE_TOL = 1e-12  # qsim's dyadic masses vs the quadrature oracle below
RESIDUAL_TOL = 1e-9  # relative Frobenius residual of a decomposition
STREAM_PREFIX = 64  # splitmix64 outputs compared with pure Python on every op

# docs/PRNG.md, "Reference values (seed 0)".
PRNG_REFERENCE = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)
_MASK64 = (1 << 64) - 1

# Three Gauss-Legendre nodes integrate degree <= 5 exactly.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(3)


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# --- inputs -----------------------------------------------------------------


@dataclass(frozen=True)
class Density:
    """A generated density: (lo, hi, coeffs) per segment, and its JSON text."""

    segments: tuple[tuple[float, float, tuple[float, ...]], ...]
    text: str


def _piece(g: np.random.Generator, lo: float, degree: int) -> np.ndarray:
    """a + q(x)^2 + (x - lo) r(x)^2 with a >= 0: nonnegative on [lo, hi].

    q and r have O(1) monomial coefficients, so the piece stays well
    conditioned in the monomial basis the density JSON uses.
    """
    shift = np.array([-lo, 1.0])
    c = np.array([g.uniform(0.0, 1.0)])
    if degree == 1:
        c = P.polyadd(c, g.uniform(0.0, 2.0) * shift)
    elif degree >= 2:
        q = g.normal(size=degree // 2 + 1)
        c = P.polyadd(c, P.polymul(q, q))
        if degree >= 3:
            r = g.normal(size=2)
            c = P.polyadd(c, P.polymul(shift, P.polymul(r, r)))
    return c * g.uniform(0.2, 2.0)


def random_density(g: np.random.Generator) -> Density:
    """1-8 segments, dyadic and non-dyadic breakpoints, degree 0-4 each.

    Some segments are zero, so some bisection nodes carry no mass.
    """
    count = int(g.integers(1, 9))
    cuts: list[float] = []
    while len(cuts) < count - 1:
        if g.random() < 0.5:
            x = int(g.integers(1, 64)) / 64.0
        else:
            x = float(g.uniform(1 / 64, 63 / 64))
        if all(abs(x - c) >= 1 / 128 for c in cuts):
            cuts.append(x)
    edges = [0.0, *sorted(cuts), 1.0]
    pieces = []
    for lo in edges[:-1]:
        if count > 1 and g.random() < 0.15:
            pieces.append(np.zeros(1))
        else:
            pieces.append(_piece(g, lo, int(g.integers(0, 5))))
    if not any(p.any() for p in pieces):
        pieces[0] = np.ones(1)
    total = 0.0
    for p, lo, hi in zip(pieces, edges, edges[1:]):
        anti = P.polyint(p)
        total += P.polyval(hi, anti) - P.polyval(lo, anti)
    segments = tuple(
        (lo, hi, tuple(float(c) for c in p / total))
        for p, lo, hi in zip(pieces, edges, edges[1:])
    )
    text = json.dumps(
        {"segments": [{"lo": lo, "hi": hi, "coeffs": list(c)} for lo, hi, c in segments]}
    )
    return Density(segments=segments, text=text)


def dyadic_masses(d: Density, n: int) -> np.ndarray:
    """Masses of the 2^n dyadic intervals by Gauss-Legendre quadrature.

    Exact for these degrees and free of the F(b) - F(a) cancellation, so it
    checks qsim's antiderivative path by an independent route.
    """
    edges = np.arange(2**n + 1) / 2.0**n
    out = np.zeros(2**n)
    for lo, hi, coeffs in d.segments:
        a = np.maximum(edges[:-1], lo)
        b = np.minimum(edges[1:], hi)
        live = a < b
        half = (b[live] - a[live]) / 2.0
        mid = (b[live] + a[live]) / 2.0
        x = mid[:, None] + half[:, None] * _GL_NODES
        out[live] += half * (P.polyval(x, coeffs) @ _GL_WEIGHTS)
    return out


def haar_unitary(g: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random unitary: QR of a complex Gaussian matrix, phases fixed."""
    z = (g.normal(size=(dim, dim)) + 1j * g.normal(size=(dim, dim))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def unitary_json(u: np.ndarray) -> str:
    entries = np.stack([u.real, u.imag], axis=-1).reshape(-1, 2).tolist()
    return json.dumps({"dim": u.shape[0], "entries": entries})


def random_hamiltonian(g: np.random.Generator, dim: int) -> np.ndarray:
    """GUE-like Hermitian matrix with spectrum of order one."""
    a = (g.normal(size=(dim, dim)) + 1j * g.normal(size=(dim, dim))) / math.sqrt(2.0 * dim)
    return (a + a.conj().T) / 2.0


# --- reference implementations and shared checks -----------------------------


def splitmix64_reference(seed: int, count: int) -> list[int]:
    """docs/PRNG.md's sequential splitmix64, in plain Python integers."""
    out, state = [], seed & _MASK64
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        out.append(z ^ (z >> 31))
    return out


def inverse_cdf_reference(probabilities, outputs: list[int]) -> list[int]:
    """docs/PRNG.md's draw rule: first i with u < cdf[i], else the last i."""
    cdf = list(itertools.accumulate(float(p) for p in probabilities))
    return [
        min(bisect.bisect_right(cdf, (x >> 11) * 2.0**-53), len(cdf) - 1)
        for x in outputs
    ]


def check_law(p, what: str) -> None:
    p = np.asarray(p, dtype=np.float64)
    require(bool(np.all(p >= 0.0)), f"{what}: negative probability {p.min():.3e}")
    total = float(p.sum())
    require(abs(total - 1.0) <= LAW_SUM_TOL, f"{what}: sums to {total!r}, not 1")


def max_dev(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def check_shots(result, probabilities, seed: int) -> None:
    counts = list(result.counts.values())
    require(len(counts) == len(probabilities), f"{len(counts)} count bins")
    require(min(counts) >= 0 and sum(counts) == SHOTS, f"counts sum to {sum(counts)}")
    head = tuple(int(x) for x in qrng.splitmix64_stream(0, len(PRNG_REFERENCE)))
    require(head == PRNG_REFERENCE, "splitmix64 differs from docs/PRNG.md")
    stream = splitmix64_reference(seed, STREAM_PREFIX)
    got = [int(x) for x in qrng.splitmix64_stream(seed, STREAM_PREFIX)]
    require(got == stream, "splitmix64 stream differs from pure Python")
    draws = [int(i) for i in qrng.inverse_cdf_sample(probabilities, STREAM_PREFIX, seed)]
    require(
        draws == inverse_cdf_reference(probabilities, stream),
        "inverse-CDF draws differ from pure Python",
    )


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``qsim <argv>`` in-process: exit code and captured stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# --- load_verify: `qsim verify` on generated densities ------------------------


@dataclass(frozen=True)
class VerifyCase:
    n: int
    density: Density
    path: Path  # density JSON the CLI reads
    out: Path  # CSV table the CLI writes


def make_verify(g: np.random.Generator, n: int, tmp: Path) -> VerifyCase:
    density = random_density(g)
    path = tmp / "density.json"
    path.write_text(density.text, encoding="utf-8")
    return VerifyCase(n=n, density=density, path=path, out=tmp / "verify.csv")


def op_verify(case: VerifyCase) -> tuple[int, str]:
    argv = ["verify", "--n", str(case.n), "--density", str(case.path)]
    return run_cli(argv + ["--out", str(case.out)])


def check_verify(case: VerifyCase, result: tuple[int, str]) -> dict[str, float]:
    code, stdout = result
    require(code == 0, f"qsim verify exited {code}: {stdout.strip()!r}")
    require(stdout.startswith("PASS"), f"qsim verify reported {stdout.strip()!r}")
    lines = case.out.read_text(encoding="utf-8").splitlines()
    require(lines[0] == "k,bitstring,exact,formula,circuit", f"header {lines[0]!r}")
    require(len(lines) == 2**case.n + 1, f"{len(lines) - 1} table rows")
    table = []
    for k, line in enumerate(lines[1:]):
        cells = line.split(",")
        bits = "".join(str((k >> i) & 1) for i in range(case.n))
        require(cells[:2] == [str(k), bits], f"row {k} labelled {cells[:2]}")
        table.append([float(c) for c in cells[2:]])
    exact, formula, circuit = np.array(table).T
    for law, what in ((exact, "exact"), (formula, "formula"), (circuit, "circuit")):
        check_law(law, what)
    oracle_dev = max_dev(exact, dyadic_masses(case.density, case.n))
    require(oracle_dev <= ORACLE_TOL, f"exact law off the oracle by {oracle_dev:.3e}")
    dev = max(max_dev(formula, exact), max_dev(circuit, exact), max_dev(circuit, formula))
    require(dev <= LAW_TOL, f"three-way deviation {dev:.3e}")
    return {"max_dev": dev}


# --- synth_sample: the large-n library path, no simulation ----------------------


@dataclass(frozen=True)
class SynthCase:
    n: int
    density: Density
    shot_seed: int


@dataclass(frozen=True)
class SynthResult:
    tree: Any
    text: str  # format_circuit of the synthesized circuit
    parsed: Any  # parse_circuit of that text
    angles_json: str
    formula: np.ndarray
    target: np.ndarray
    shots: Any


def make_synth(g: np.random.Generator, n: int, tmp: Path) -> SynthCase:
    return SynthCase(n=n, density=random_density(g), shot_seed=int(g.integers(0, 2**63)))


def op_synth(case: SynthCase) -> SynthResult:
    d = gr.parse_density_json(case.density.text)
    tree = gr.angle_tree(d, case.n)
    text = gates.format_circuit(gr.synthesize(tree))
    parsed = gates.parse_circuit(text)
    angles_json = gr.angle_tree_to_json(tree)
    formula = gr.formula_law(tree)
    target = gr.target_law(d, case.n)
    shots = qpu.sample(qpu.law_over_labels(formula), SHOTS, case.shot_seed)
    return SynthResult(tree, text, parsed, angles_json, formula, target, shots)


def _same_float(a: float, b: float) -> bool:
    return float(a).hex() == float(b).hex()


def _rotation_fields(angle: float) -> list[float]:
    """The 8 block numbers of rotation(angle) as a circuit line writes them."""
    c, s = math.cos(angle), math.sin(angle)
    return [c, 0.0, -s, 0.0, s, 0.0, c, 0.0]


def check_synth(case: SynthCase, r: SynthResult) -> dict[str, float]:
    angles = [r.tree.theta, *itertools.chain.from_iterable(r.tree.levels)]
    require(len(angles) == 2**case.n - 1, f"{len(angles)} angles")
    lines = r.text.splitlines()
    require(len(lines) == len(angles) + 1, f"{len(lines) - 1} gate lines")
    # Every angle is in the text bit for bit, on a ROT line as itself and on
    # a SUFFIX-CTRL line as its rotation block (README, "Circuit files").
    for k, (angle, line) in enumerate(zip(angles, lines[1:])):
        fields = line.split()
        if fields[0] == "ROT":
            written = [float(fields[2])]
            expected = [angle]
        else:
            written = [float(x) for x in fields[3:]]
            expected = _rotation_fields(angle)
        require(
            len(written) == len(expected) and all(map(_same_float, written, expected)),
            f"gate {k} does not carry angle {angle!r}: {line!r}",
        )
    require(len(r.parsed.gates) == len(angles), f"{len(r.parsed.gates)} parsed gates")
    require(gates.format_circuit(r.parsed) == r.text, "parse_circuit loses bits of the text")
    sidecar = json.loads(r.angles_json)
    stored = [sidecar["theta"], *(e["angle"] for e in sidecar["suffix_angles"])]
    require(
        len(stored) == len(angles) and all(map(_same_float, stored, angles)),
        "angle sidecar does not round-trip",
    )
    check_law(r.formula, "formula")
    check_law(r.target, "target")
    oracle_dev = max_dev(r.target, dyadic_masses(case.density, case.n))
    require(oracle_dev <= ORACLE_TOL, f"target law off the oracle by {oracle_dev:.3e}")
    dev = max_dev(r.formula, r.target)
    require(dev <= LAW_TOL, f"formula_law vs target_law {dev:.3e}")
    check_shots(r.shots, r.formula, case.shot_seed)
    return {"max_dev": dev}


# --- decompose: `qsim decompose` on Haar-random unitaries -----------------------


@dataclass(frozen=True)
class UnitaryCase:
    dim: int
    unitary: np.ndarray
    path: Path  # unitary JSON the CLI reads
    out: Path  # factor file the CLI writes


def make_unitary(g: np.random.Generator, dim: int, tmp: Path) -> UnitaryCase:
    u = haar_unitary(g, dim)
    path = tmp / "unitary.json"
    path.write_text(unitary_json(u), encoding="utf-8")
    return UnitaryCase(dim=dim, unitary=u, path=path, out=tmp / "factors.txt")


def op_decompose(case: UnitaryCase) -> tuple[int, str]:
    return run_cli(["decompose", "--unitary", str(case.path), "--out", str(case.out)])


def check_decompose(case: UnitaryCase, result: tuple[int, str]) -> dict[str, float]:
    code, stdout = result
    require(code == 0, f"qsim decompose exited {code}: {stdout.strip()!r}")
    lines = case.out.read_text(encoding="utf-8").splitlines()
    require(lines[0] == f"QSIM-FACTORS v1 dim={case.dim}", f"header {lines[0]!r}")
    require(lines[-1].startswith("# residual "), f"last line {lines[-1]!r}")
    reported = float(lines[-1].split()[-1])
    require(reported <= RESIDUAL_TOL, f"reported residual {reported:.3e}")
    body = lines[1:-1]
    want = case.dim * (case.dim - 1) // 2
    require(len(body) == want, f"{len(body)} factors, expected {want}")
    fields = np.array(" ".join(body).split()).reshape(len(body), 11)
    require(bool(np.all(fields[:, 0] == "TWO-LEVEL")), "a factor line is not TWO-LEVEL")
    pairs = fields[:, 1:3].astype(int) - 1
    nums = fields[:, 3:].astype(float)
    blocks = (nums[:, 0::2] + 1j * nums[:, 1::2]).reshape(-1, 2, 2)
    m = np.eye(case.dim, dtype=np.complex128)
    for (i, j), v in zip(pairs.tolist(), blocks.tolist()):
        a, b = m[i].copy(), m[j].copy()
        m[i] = v[0][0] * a + v[0][1] * b
        m[j] = v[1][0] * a + v[1][1] * b
    residual = float(np.linalg.norm(m - case.unitary) / np.linalg.norm(case.unitary))
    require(residual <= RESIDUAL_TOL, f"factors rebuild the input to {residual:.3e}")
    return {}


# --- mixed_state: density matrices, evolution, observables and laws -------------


@dataclass(frozen=True)
class MixedCase:
    n: int
    density: Density
    hamiltonian: np.ndarray
    t: float


@dataclass(frozen=True)
class MixedResult:
    formula: np.ndarray
    loaded: np.ndarray  # basis_distribution of the loaded state
    law: Any
    observable: Any
    evolved: np.ndarray  # basis_distribution of the evolved state


def make_mixed(g: np.random.Generator, n: int, tmp: Path) -> MixedCase:
    return MixedCase(
        n=n,
        density=random_density(g),
        hamiltonian=random_hamiltonian(g, 2**n),
        t=float(g.uniform(0.1, 2.0)),
    )


def op_mixed(case: MixedCase) -> MixedResult:
    d = gr.parse_density_json(case.density.text)
    tree = gr.angle_tree(d, case.n)
    rho = gates.apply(gr.synthesize(tree), qpu.udqc(case.n).rho0)
    loaded = qpu.basis_distribution(rho)
    formula = gr.formula_law(tree)
    evolved = qpu.liouville_solve(case.hamiltonian, rho, case.t)
    observable = qpu.standard_observable(case.n)
    law = algprob.law(observable.realized, evolved)
    return MixedResult(formula, loaded, law, observable, qpu.basis_distribution(evolved))


def check_mixed(case: MixedCase, r: MixedResult) -> dict[str, float]:
    check_law(r.formula, "formula")
    check_law(r.loaded, "loaded state")
    check_law(r.law.probabilities(), "observable law")
    check_law(r.evolved, "evolved state")
    oracle = dyadic_masses(case.density, case.n)
    dev = max(
        max_dev(r.loaded, r.formula), max_dev(r.formula, oracle), max_dev(r.loaded, oracle)
    )
    require(dev <= LAW_TOL, f"loaded state, formula and oracle differ by {dev:.3e}")
    # standard_observable has 2^n distinct integer eigenvalues, one per label.
    by_value = {round(value): p for value, p in r.law.outcomes}
    require(len(by_value) == 2**case.n, f"law has {len(by_value)} outcomes")
    from_law = [by_value[round(v)] for v in r.observable.eigen_labels]
    law_dev = max_dev(from_law, r.evolved)
    require(law_dev <= LAW_TOL, f"observable law vs basis_distribution {law_dev:.3e}")
    return {"max_dev": dev}


# --- registry --------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One workload: sizes per block, input maker, the op and its check."""

    name: str
    block: tuple[int, ...]
    make: Callable[[np.random.Generator, int, Path], Any]
    op: Callable[[Any], Any]
    check: Callable[[Any, Any], dict[str, float]]

    def size(self, seed: int, i: int) -> int:
        """Size of op i; the warm-up op (i = -1) takes the smallest."""
        if i < 0:
            return min(self.block)
        b, pos = divmod(i, len(self.block))
        order = np.random.default_rng([seed, b, len(self.block)]).permutation(len(self.block))
        return self.block[order[pos]]

    def case(self, seed: int, i: int, tmp: Path) -> Any:
        """The input of op i: a function of the seed and i alone."""
        return self.make(np.random.default_rng([seed, i + 1]), self.size(seed, i), tmp)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("load_verify", (5, 6, *[7] * 8, 8, 8), make_verify, op_verify, check_verify),
        Workload("synth_sample", (10, 10, 10, 10, 11, 12), make_synth, op_synth, check_synth),
        Workload(
            "decompose",
            (16, 16, *[32] * 6, 64, 64, 128, 128),
            make_unitary,
            op_decompose,
            check_decompose,
        ),
        Workload("mixed_state", (4, 5, *[6] * 8, 7, 7), make_mixed, op_mixed, check_mixed),
    )
}
