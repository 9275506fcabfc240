"""Command-line front end.

Commands: synth (write a circuit file plus angle sidecar), law (exact
outcome probabilities), sample (seeded shot counts), decompose (two-level
factors of a unitary), verify (three-way law agreement). Outcome labels k
are little-endian over the wire bits; every table carries the bitstring
column z1..zn to make the convention visible.

Exit codes: 0 success, 1 verification failure, 2 parse error, 3 validation
error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import grover_rudolph as gr
from .algprob import StateValidationError
from .gates import CircuitParseError, circuit_length, format_circuit
from .qpu import encode, law_over_labels, sample as draw_shots
from .udecomp import (
    decompose_unitary,
    format_decomposition,
    reconstruction_residual,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_IO = 4

# Memory is not the limit: a state vector takes 16 * 2^n bytes. Time is:
# synthesize builds and apply_vector applies each of the 2^n - 1 gates in
# Python, and every table printed has 2^n rows.
MAX_QUBITS = 10


class InputFormatError(ValueError):
    """Malformed input file (structure, not semantics)."""


@dataclass
class RunConfig:
    """Resolved command-line options for one invocation."""

    command: str
    n: int = 3
    density_path: str | None = None
    shots: int = 2048
    seed: int = 0
    output_path: str | None = None
    format: str = "csv"
    prune_identities: bool = False
    tol: float | None = None
    unitary_path: str | None = None
    identity: bool = False


def _bitstring(k: int, n: int) -> str:
    return "".join(str(b) for b in encode(k, n))


def _check_n(n: int) -> int:
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"--n must be between 1 and {MAX_QUBITS}, got {n}")
    return n


def _density_path(cfg: RunConfig) -> str:
    if not cfg.density_path:
        raise InputFormatError("this command needs --density PATH")
    return cfg.density_path


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.output_path:
        with open(cfg.output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _density_circuit_law(cfg: RunConfig) -> np.ndarray:
    density = gr.load_density(_density_path(cfg))
    tree = gr.angle_tree(density, cfg.n)
    return gr.circuit_law(gr.synthesize(tree))


def cmd_synth(cfg: RunConfig) -> int:
    """Write the synthesized circuit and its angle-tree JSON sidecar."""
    _check_n(cfg.n)
    if not cfg.output_path:
        raise InputFormatError("synth needs --out PATH for the circuit file")
    density = gr.load_density(_density_path(cfg))
    tree = gr.angle_tree(density, cfg.n)
    circuit = gr.synthesize(tree, prune=cfg.prune_identities)
    _emit(cfg, format_circuit(circuit))
    sidecar = cfg.output_path + ".angles.json"
    with open(sidecar, "w", encoding="utf-8") as fh:
        fh.write(gr.angle_tree_to_json(tree) + "\n")
    print(
        f"wrote {circuit_length(circuit)} gates to {cfg.output_path} "
        f"(angles: {sidecar})"
    )
    return EXIT_OK


def _law_rows(probs: np.ndarray, n: int) -> list[dict]:
    return [
        {"k": k, "bitstring": _bitstring(k, n), "probability": float(probs[k])}
        for k in range(len(probs))
    ]


def cmd_law(cfg: RunConfig) -> int:
    """Exact per-outcome probabilities of the synthesized state."""
    _check_n(cfg.n)
    if cfg.identity and cfg.density_path:
        raise InputFormatError("--identity and --density are mutually exclusive")
    if cfg.identity:
        probs = np.zeros(2**cfg.n)
        probs[0] = 1.0
    else:
        probs = _density_circuit_law(cfg)
    rows = _law_rows(probs, cfg.n)
    if cfg.format == "json":
        _emit(cfg, json.dumps({"n": cfg.n, "law": rows}, indent=2) + "\n")
    else:
        lines = ["k,bitstring,probability"]
        lines += [f"{r['k']},{r['bitstring']},{r['probability']!r}" for r in rows]
        _emit(cfg, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_sample(cfg: RunConfig) -> int:
    """Seeded shot counts with empirical frequencies and exact deviations."""
    _check_n(cfg.n)
    if cfg.shots < 1:
        raise ValueError(f"--shots must be at least 1, got {cfg.shots}")
    probs = _density_circuit_law(cfg)
    result = draw_shots(law_over_labels(probs), cfg.shots, cfg.seed)
    rows = []
    for k in range(len(probs)):
        count = result.counts[k]
        freq = count / cfg.shots
        exact = float(probs[k])
        rows.append(
            {
                "k": k,
                "bitstring": _bitstring(k, cfg.n),
                "count": count,
                "frequency": freq,
                "exact": exact,
                "deviation": abs(freq - exact),
            }
        )
    if cfg.format == "json":
        doc = {"n": cfg.n, "shots": cfg.shots, "seed": cfg.seed, "counts": rows}
        _emit(cfg, json.dumps(doc, indent=2) + "\n")
    else:
        lines = ["k,bitstring,count,frequency,exact,deviation"]
        lines += [
            f"{r['k']},{r['bitstring']},{r['count']},{r['frequency']!r},"
            f"{r['exact']!r},{r['deviation']!r}"
            for r in rows
        ]
        _emit(cfg, "\n".join(lines) + "\n")
    return EXIT_OK


def _parse_unitary_json(text: str) -> np.ndarray:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "dim" not in doc or "entries" not in doc:
        raise InputFormatError('unitary JSON needs "dim" and "entries"')
    try:
        dim = int(doc["dim"])
        entries = [complex(float(re), float(im)) for re, im in doc["entries"]]
    except (TypeError, ValueError) as exc:
        raise InputFormatError(f"bad unitary entries: {exc}") from exc
    if dim < 2 or len(entries) != dim * dim:
        raise InputFormatError(
            f"expected {dim}*{dim} row-major entries, got {len(entries)}"
        )
    return np.array(entries, dtype=np.complex128).reshape(dim, dim)


def cmd_decompose(cfg: RunConfig) -> int:
    """Factor a unitary into two-level gates and report the residual."""
    if not cfg.unitary_path:
        raise InputFormatError("decompose needs --unitary PATH")
    with open(cfg.unitary_path, "r", encoding="utf-8") as fh:
        u = _parse_unitary_json(fh.read())
    tol = cfg.tol if cfg.tol is not None else 1e-8
    dec = decompose_unitary(u, tol=tol)
    residual = reconstruction_residual(dec, u)
    text = format_decomposition(dec) + f"# residual {residual!r}\n"
    _emit(cfg, text)
    if cfg.output_path:
        print(
            f"wrote {len(dec.factors)} factors to {cfg.output_path} "
            f"(residual {residual!r})"
        )
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    """Compare exact, formula, and circuit laws; exit 1 when any disagree."""
    _check_n(cfg.n)
    density = gr.load_density(_density_path(cfg))
    tol = cfg.tol if cfg.tol is not None else 1e-10
    report = gr.verify(density, cfg.n, tol)
    rows = [
        {
            "k": k,
            "bitstring": _bitstring(k, cfg.n),
            "exact": float(report.target[k]),
            "formula": float(report.formula[k]),
            "circuit": float(report.circuit[k]),
        }
        for k in range(2**cfg.n)
    ]
    summary = {
        "max_dev_formula_target": report.max_dev_formula_target,
        "max_dev_circuit_target": report.max_dev_circuit_target,
        "max_dev_circuit_formula": report.max_dev_circuit_formula,
        "tol": tol,
        "passed": report.passed,
    }
    if cfg.format == "json":
        _emit(
            cfg,
            json.dumps({"n": cfg.n, "rows": rows, **summary}, indent=2) + "\n",
        )
    else:
        lines = ["k,bitstring,exact,formula,circuit"]
        lines += [
            f"{r['k']},{r['bitstring']},{r['exact']!r},{r['formula']!r},"
            f"{r['circuit']!r}"
            for r in rows
        ]
        _emit(cfg, "\n".join(lines) + "\n")
    verdict = "PASS" if report.passed else "FAIL"
    print(
        f"{verdict}: max deviations formula-target "
        f"{report.max_dev_formula_target:.3e}, circuit-target "
        f"{report.max_dev_circuit_target:.3e}, circuit-formula "
        f"{report.max_dev_circuit_formula:.3e} (tol {tol:g})"
    )
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


_COMMANDS = {
    "synth": cmd_synth,
    "law": cmd_law,
    "sample": cmd_sample,
    "decompose": cmd_decompose,
    "verify": cmd_verify,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsim",
        description="Quantum register simulation: density loading circuits, "
        "exact laws, seeded sampling, and two-level decomposition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_density: bool) -> None:
        p.add_argument("--n", type=int, default=3, help="qubit count (1-10)")
        if with_density:
            p.add_argument("--density", dest="density_path", help="density JSON file")
        p.add_argument("--out", dest="output_path", help="output file (default stdout)")
        p.add_argument(
            "--format", choices=("json", "csv"), default="csv", help="table format"
        )
        p.add_argument("--tol", type=float, default=None, help="tolerance override")

    p_synth = sub.add_parser("synth", help="synthesize a circuit from a density")
    common(p_synth, with_density=True)
    p_synth.add_argument(
        "--prune",
        dest="prune_identities",
        action="store_true",
        help="drop exact identity rotations",
    )

    p_law = sub.add_parser("law", help="exact outcome probabilities")
    common(p_law, with_density=True)
    p_law.add_argument(
        "--identity",
        action="store_true",
        help="law of the untouched all-zeros state instead of a density",
    )

    p_sample = sub.add_parser("sample", help="seeded shot experiment")
    common(p_sample, with_density=True)
    p_sample.add_argument("--shots", type=int, default=2048, help="number of draws")
    p_sample.add_argument("--seed", type=int, default=0, help="PRNG seed")

    p_dec = sub.add_parser("decompose", help="two-level factors of a unitary")
    common(p_dec, with_density=False)
    p_dec.add_argument("--unitary", dest="unitary_path", help="unitary JSON file")

    p_verify = sub.add_parser("verify", help="check circuit against the density")
    common(p_verify, with_density=True)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    cfg = RunConfig(
        command=args.command,
        n=getattr(args, "n", 3),
        density_path=getattr(args, "density_path", None),
        shots=getattr(args, "shots", 2048),
        seed=getattr(args, "seed", 0),
        output_path=getattr(args, "output_path", None),
        format=getattr(args, "format", "csv"),
        prune_identities=getattr(args, "prune_identities", False),
        tol=getattr(args, "tol", None),
        unitary_path=getattr(args, "unitary_path", None),
        identity=getattr(args, "identity", False),
    )
    try:
        return _COMMANDS[cfg.command](cfg)
    except (CircuitParseError, gr.DensityJsonError, InputFormatError) as exc:
        print(f"qsim: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"qsim: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (gr.DensityError, StateValidationError, ValueError, ArithmeticError) as exc:
        print(f"qsim: validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
