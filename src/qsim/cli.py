"""Command-line front end.

Commands: synth (write a circuit file, one ROT line per angle), law (exact
outcome probabilities), sample (seeded shot counts), decompose (two-level
factors of a unitary), verify (three-way law agreement). Outcome labels k
are little-endian over the wire bits; every table carries the bitstring
column z1..zn to make the convention visible.

Exit codes: 0 success, 1 verification failure, 2 parse error, 3 validation
error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys

import numpy as np

from . import grover_rudolph as gr
from .gates import circuit_length, format_circuit
from .linalg import ParseError, are_json_numbers, as_count
from .qpu import MAX_SHOTS, label_bitstrings, sample as draw_shots
from .udecomp import (RECONSTRUCTION_TOL, decompose_unitary, format_decomposition,
                      reconstruction_residual)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_IO = 4

# Memory sets the limit: verify --n 20 peaks at 606 MB of RSS, 606 bytes per
# amplitude, nearly all the 2^n-row table as Python objects. Of its 4.2-5.4 s
# of CPU, the library's verify takes 0.6 s and nearly all the rest is the table
# and its CSV text (one core of an Intel Xeon); each qubit doubles both.
MAX_QUBITS = 20


def _density(args: argparse.Namespace) -> gr.PiecewisePolyDensity:
    if not args.density:
        raise ParseError("this command needs --density PATH")
    return gr.load_density(args.density)


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _table(args: argparse.Namespace, doc: dict, key: str) -> None:
    """Write doc as JSON, or its table doc[key] as CSV: the k and bitstring
    columns of the 2^n labels, then the arrays of doc[key] by name. A CSV
    cell is an int's str or a float's repr, so floats round-trip exactly."""
    columns = {"k": range(2**args.n), "bitstring": label_bitstrings(args.n)}
    columns.update((name, column.tolist()) for name, column in doc[key].items())
    rows = zip(*columns.values())
    if args.format == "json":
        doc = {**doc, key: [dict(zip(columns, row)) for row in rows]}
        _emit(args, json.dumps(doc, indent=2) + "\n")
    else:
        cells = ["%d", "%s", *("%r" if c.dtype.kind == "f" else "%d" for c in doc[key].values())]
        body = (",".join(cells) + "\n") * 2**args.n % tuple(itertools.chain.from_iterable(rows))
        _emit(args, ",".join(columns) + "\n" + body)


def _density_circuit_law(args: argparse.Namespace) -> np.ndarray:
    return gr.circuit_law(gr.synthesize(gr.angle_tree(_density(args), args.n)))


def cmd_synth(args: argparse.Namespace) -> int:
    """Write the synthesized circuit, each gate a ROT line with its angle."""
    if not args.out:
        raise ParseError("synth needs --out PATH for the circuit file")
    circuit = gr.synthesize(gr.angle_tree(_density(args), args.n), prune=args.prune)
    _emit(args, format_circuit(circuit))
    print(f"wrote {circuit_length(circuit)} gates to {args.out}")
    return EXIT_OK


def cmd_law(args: argparse.Namespace) -> int:
    """Exact per-outcome probabilities of the synthesized state."""
    _table(args, {"n": args.n, "law": {"probability": _density_circuit_law(args)}}, "law")
    return EXIT_OK


def cmd_sample(args: argparse.Namespace) -> int:
    """Seeded shot counts with empirical frequencies and exact deviations."""
    as_count("--shots", args.shots, 1, MAX_SHOTS)
    probs = _density_circuit_law(args)
    result = draw_shots(probs, args.shots, args.seed)
    counts = np.array(list(result.counts.values()))
    frequency = counts / args.shots
    table = {"count": counts, "frequency": frequency, "exact": probs,
             "deviation": np.abs(frequency - probs)}
    _table(args, {"n": args.n, "shots": args.shots, "seed": args.seed, "counts": table}, "counts")
    return EXIT_OK


def _parse_unitary_json(text: str) -> np.ndarray:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "dim" not in doc or "entries" not in doc:
        raise ParseError('unitary JSON needs "dim" and "entries"')
    try:
        dim = as_count('"dim"', doc["dim"], 2)
    except ValueError as exc:
        raise ParseError(*exc.args) from None
    raw = doc["entries"]
    pairs = type(raw) is list and set(map(type, raw)) <= {list} and set(map(len, raw)) <= {2}
    flat = list(itertools.chain.from_iterable(raw)) if pairs else []
    if not (pairs and are_json_numbers(flat)):  # name the first entry that fails, or raw
        bad = raw if type(raw) is not list else next(
            e for e in raw if type(e) is not list or len(e) != 2 or not are_json_numbers(e))
        raise ParseError(
            f"unitary entries must be [re, im] pairs of JSON numbers, got {bad!r}")
    if len(raw) != dim * dim:  # before any number's range: 10**400 is an OverflowError
        raise ParseError(f"expected {dim}*{dim} row-major entries, got {len(raw)}")
    return np.array(flat, dtype=np.float64).view(np.complex128).reshape(dim, dim)


def cmd_decompose(args: argparse.Namespace) -> int:
    """Factor a unitary into two-level gates and report the residual."""
    if not args.unitary:
        raise ParseError("decompose needs --unitary PATH")
    with open(args.unitary, "r", encoding="utf-8") as fh:
        u = _parse_unitary_json(fh.read())
    dec = decompose_unitary(u)
    residual = reconstruction_residual(dec, u)
    if not residual <= RECONSTRUCTION_TOL:
        raise ArithmeticError(
            f"reconstruction residual {residual!r} exceeds {RECONSTRUCTION_TOL:g}")
    _emit(args, format_decomposition(dec) + f"# residual {residual!r}\n")
    if args.out:
        print(f"wrote {len(dec.i)} factors to {args.out} (residual {residual!r})")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    """Compare exact, formula, and circuit laws; exit 1 when any disagree."""
    report = gr.verify(_density(args), args.n, args.tol)
    doc = {
        "n": args.n,
        "rows": {"exact": report.target, "formula": report.formula, "circuit": report.circuit},
        "max_dev_formula_target": report.max_dev_formula_target,
        "max_dev_circuit_target": report.max_dev_circuit_target,
        "max_dev_circuit_formula": report.max_dev_circuit_formula,
        "tol": report.tol,
        "passed": report.passed,
    }
    _table(args, doc, "rows")
    verdict = "PASS" if report.passed else "FAIL"
    print(
        f"{verdict}: max deviations formula-target "
        f"{report.max_dev_formula_target:.3e}, circuit-target "
        f"{report.max_dev_circuit_target:.3e}, circuit-formula "
        f"{report.max_dev_circuit_formula:.3e} (tol {report.tol:g})"
    )
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


# Options that several commands share; --out is on every command.
_SHARED = {
    "--n": dict(type=int, default=3, help=f"qubit count (1-{MAX_QUBITS}); tables have 2^n rows"),
    "--density": dict(metavar="PATH", help="density JSON file"),
    "--format": dict(choices=("json", "csv"), default="csv", help="table format"),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsim",
        description="Quantum register simulation: density loading circuits, "
        "exact laws, seeded sampling, and two-level decomposition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(func, help, *shared) -> argparse.ArgumentParser:
        p = sub.add_parser(func.__name__.removeprefix("cmd_"), help=help)
        p.set_defaults(func=func)
        for flag in shared:
            p.add_argument(flag, **_SHARED[flag])
        p.add_argument("--out", metavar="PATH", help="output file (default stdout)")
        return p

    p = command(cmd_synth, "synthesize a circuit from a density", "--n", "--density")
    p.add_argument("--prune", action="store_true", help="drop exact identity rotations")

    command(cmd_law, "exact outcome probabilities", "--n", "--density", "--format")

    p = command(cmd_sample, "seeded shot experiment", "--n", "--density", "--format")
    p.add_argument("--shots", type=int, default=2048, help="number of draws")
    p.add_argument("--seed", type=int, default=0, help="PRNG seed")

    p = command(cmd_decompose, "two-level factors of a unitary")
    p.add_argument("--unitary", metavar="PATH", help="unitary JSON file")

    p = command(
        cmd_verify, "check circuit against the density", "--n", "--density", "--format"
    )
    p.add_argument(
        "--tol", type=float, default=gr.VERIFY_TOL, help="largest passing deviation"
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if "n" in args:  # every command with --n, before it runs
            as_count("--n", args.n, 1, MAX_QUBITS)
        return args.func(args)
    except ParseError as exc:
        print(f"qsim: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"qsim: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, ArithmeticError) as exc:
        print(f"qsim: validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
