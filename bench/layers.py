"""qsim's layers as the traced run sees them: what is traced, what is derived.

Every traced function gives ``<name>.self_ms``, its summed self time per op;
the functions in CALLS also give ``<name>.calls`` per op. Counters that need
an argument or a result are taken at the same wrappers through OBSERVERS.
"""

from __future__ import annotations

from collections import Counter, defaultdict

import numpy as np

from tracer import ROOT_SPAN, Span, self_times

TRACED = (
    "gates.apply_vector",
    "gates.realize_gate",
    "gates.apply",
    "gates.format_circuit",
    "gates.parse_circuit",
    "grover_rudolph.parse_density_json",
    "grover_rudolph.angle_tree",
    "grover_rudolph.target_law",
    "grover_rudolph.formula_law",
    "grover_rudolph.synthesize",
    "grover_rudolph.circuit_law",
    "grover_rudolph.angle_tree_to_json",
    "qpu.vector_distribution",
    "qpu.label_permutation",
    "qpu.sample",
    "qpu.law_over_labels",
    "qpu.evolve",
    "qpu.basis_distribution",
    "qpu.standard_observable",
    "qpu.liouville_solve",
    "rng.inverse_cdf_sample",
    "udecomp.decompose_unitary",
    "udecomp.reduce_vector",
    "udecomp.reconstruction_residual",
    "udecomp.format_decomposition",
    "algprob.law",
    "algprob.validate_state",
    "linalg.is_unitary",
    "linalg.hermitian_eig",
    "linalg.unitary_from_hamiltonian",
    "cli.main",
)
CALLS = (
    "gates.realize_gate",
    "qpu.label_permutation",
    "qpu.evolve",
    "udecomp.reduce_vector",
    "linalg.is_unitary",
)

# Keep only what the counters need: a realized gate's matrix is dropped at
# once, and only its dimension is kept.
OBSERVERS = {
    "gates.realize_gate": lambda args, result: result.shape[0],
    "rng.inverse_cdf_sample": lambda args, result: len(result),
    "grover_rudolph.target_law": lambda args, result: result,
    "grover_rudolph.formula_law": lambda args, result: result,
    "udecomp.decompose_unitary": lambda args, result: result,
    "udecomp.reconstruction_residual": lambda args, result: result,
}

# grover_rudolph.angle_tree's default zero_mass_tol.
ZERO_MASS_TOL = 1e-14
_EYE = np.eye(2)

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    *((f"{name}.self_ms", "ms/op", "lower") for name in TRACED),
    *((f"{name}.calls", "calls/op", "lower") for name in CALLS),
    ("gates.dense_bytes", "B/op-computed", "lower"),
    ("grover_rudolph.zero_mass_nodes", "nodes/op", "lower"),
    ("grover_rudolph.max_dev", "probability", "lower"),
    ("rng.draws", "draws/op", "lower"),
    ("udecomp.factors", "factors/op", "lower"),
    ("udecomp.identity_factor_fraction", "fraction", "lower"),
    ("udecomp.residual_max", "rel_frobenius", "lower"),
    ("op.unattributed.self_ms", "ms/op", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("error_rate", "fraction", "lower"),
)


def zero_mass_nodes(leaves) -> int:
    """Bisection nodes with mass at most ZERO_MASS_TOL, summed as angle_tree does."""
    level, count = np.asarray(leaves, dtype=np.float64), 0
    while len(level) > 1:
        level = level[0::2] + level[1::2]
        count += int(np.count_nonzero(level <= ZERO_MASS_TOL))
    return count


def _derived(observations, ops: int) -> dict[str, float]:
    dense_bytes = draws = factors = identity = 0
    residual_max = 0.0
    leaf_law = {}  # per op: target_law's result, else formula_law's
    for op, name, value in observations:
        if name == "gates.realize_gate":
            dense_bytes += 16 * value * value  # complex128 entries
        elif name == "rng.inverse_cdf_sample":
            draws += value
        elif name == "udecomp.decompose_unitary":
            factors += len(value.factors)
            identity += sum(np.array_equal(f.v, _EYE) for f in value.factors)
        elif name == "udecomp.reconstruction_residual":
            residual_max = max(residual_max, value)
        elif name == "grover_rudolph.target_law":
            leaf_law[op] = value
        elif name == "grover_rudolph.formula_law":
            leaf_law.setdefault(op, value)
    return {
        "gates.dense_bytes": dense_bytes / ops,
        "grover_rudolph.zero_mass_nodes": sum(map(zero_mass_nodes, leaf_law.values())) / ops,
        "rng.draws": draws / ops,
        "udecomp.factors": factors / ops,
        "udecomp.identity_factor_fraction": identity / factors if factors else 0.0,
        "udecomp.residual_max": residual_max,
    }


def self_ms_by_name(spans: list[Span], scales: list[float] | None = None) -> dict[str, float]:
    """Summed self time per name; with `scales`, each op's spans times scales[op]."""
    totals: dict[str, float] = defaultdict(float)
    for span, t in zip(spans, self_times(spans)):
        totals[span.name] += 1e3 * t * (scales[span.op] if scales else 1.0)
    return totals


def per_layer(spans, observations, ops: int, health, overhead_pct: float, error_rate: float,
              scales: list[float] | None = None):
    """Every PER_LAYER metric of a traced run of `ops` ops.

    `scales[i]` takes op i's times to the reference speed (run.speed_scale).
    """
    self_ms = self_ms_by_name(spans, scales)
    calls = Counter(s.name for s in spans)
    values = {f"{name}.self_ms": self_ms[name] / ops for name in TRACED}
    values.update({f"{name}.calls": calls[name] / ops for name in CALLS})
    values.update(_derived(observations, ops))
    values["grover_rudolph.max_dev"] = max((h.get("max_dev", 0.0) for h in health), default=0.0)
    values["op.unattributed.self_ms"] = self_ms[ROOT_SPAN] / ops
    values["trace.overhead_pct"] = overhead_pct
    values["error_rate"] = error_rate
    return {name: (values[name], unit) for name, unit, _ in PER_LAYER}


def _pair_leads(pair: tuple[str, str]):
    def claim(shares, calls) -> bool:
        rest = [v for k, v in shares.items() if k not in pair]
        return sum(shares.get(k, 0.0) for k in pair) > max(rest, default=0.0)

    return claim


# Where each workload's work goes at the commit that defined the benchmark.
# A later change may move these on purpose; the traced run reports them.
WHERE_WORK_GOES = {
    "load_verify": (
        "gates.apply_vector + gates.realize_gate has the largest self-time share",
        _pair_leads(("gates.apply_vector", "gates.realize_gate")),
    ),
    "synth_sample": (
        "gates.realize_gate is never called",
        lambda shares, calls: calls["gates.realize_gate"] == 0,
    ),
    "decompose": (
        "no grover_rudolph span",
        lambda shares, calls: not any(k.startswith("grover_rudolph.") for k in calls),
    ),
    "mixed_state": (
        "gates.apply + qpu.evolve has the largest self-time share",
        _pair_leads(("gates.apply", "qpu.evolve")),
    ),
}


def shares(spans: list[Span]) -> dict[str, float]:
    """Each name's share of all op time, by self time."""
    self_ms = self_ms_by_name(spans)
    total = sum(self_ms.values())
    return {k: v / total for k, v in self_ms.items()} if total else {}


def where_work_goes(workload: str, spans: list[Span]) -> tuple[str, bool]:
    text, claim = WHERE_WORK_GOES[workload]
    return text, claim(shares(spans), Counter(s.name for s in spans))
