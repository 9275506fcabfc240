"""End-to-end tests of the command-line interface.

Every invocation goes through main(argv) in-process so exit codes and
output files are checked directly. The exit-code contract: 0 success,
1 verification failure, 2 parse error, 3 validation error, 4 I/O error.
"""

import ast
import builtins
import functools
import importlib
import inspect
import json
import math
import pkgutil
import re
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import qsim
from qsim import cli, udecomp
from qsim.cli import main
from qsim.gates import format_circuit, parse_circuit, realize_gate
from qsim.grover_rudolph import (angle_tree, circuit_law, load_density, parse_density_json,
                                 synthesize)
from qsim.linalg import ParseError
from qsim.udecomp import parse_decomposition, reconstruction_residual

TRIANGULAR = {
    "segments": [
        {"lo": 0.0, "hi": 0.5, "coeffs": [0.0, 4.0]},
        {"lo": 0.5, "hi": 1.0, "coeffs": [4.0, -4.0]},
    ]
}

# Outputs captured from the command at n = 3 on the bundled densities, and a
# fixed 4x4 unitary; every run must reproduce them byte for byte.
GOLDEN = Path(__file__).parent / "golden"
BUNDLED = ("triangular", "powers_of_two")

POWERS_OF_TWO = {
    "segments": [
        {"lo": 0.0, "hi": 0.125, "coeffs": [0.0]},
        {"lo": 0.125, "hi": 0.375, "coeffs": [8.0 / 3.0]},
        {"lo": 0.375, "hi": 0.5, "coeffs": [0.0]},
        {"lo": 0.5, "hi": 0.625, "coeffs": [8.0 / 3.0]},
        {"lo": 0.625, "hi": 1.0, "coeffs": [0.0]},
    ]
}


@pytest.fixture
def triangular_path(tmp_path):
    p = tmp_path / "triangular.json"
    p.write_text(json.dumps(TRIANGULAR))
    return str(p)


@pytest.fixture
def powers_of_two_path(tmp_path):
    p = tmp_path / "bumps.json"
    p.write_text(json.dumps(POWERS_OF_TWO))
    return str(p)


def write_unitary(tmp_path, u, name="u.json"):
    entries = [[float(z.real), float(z.imag)] for z in np.asarray(u).ravel()]
    p = tmp_path / name
    p.write_text(json.dumps({"dim": u.shape[0], "entries": entries}))
    return str(p)


def bundled(name):
    return str(resources.files("qsim.data") / f"{name}.json")


def rot_angles(text):
    """The angle field of every gate line of a circuit file, each a ROT line."""
    lines = text.splitlines()[1:]
    assert all(line.startswith("ROT ") for line in lines)
    return np.array([float(line.split(" ")[2]) for line in lines])


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


# --- synth -----------------------------------------------------------------


def test_synth_writes_one_circuit_file(tmp_path, triangular_path):
    out = tmp_path / "tri.circuit"
    assert main(["synth", "--n", "3", "--density", triangular_path, "--out", str(out)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tri.circuit", "triangular.json"]
    c = parse_circuit(out.read_text())
    assert c.n == 3
    assert len(c.gates) == 7
    # The ROT lines hold the angles in heap order: the root, then suffixes
    # 0 and 1, then 00, 10, 01 and 11.
    angles = rot_angles(out.read_text())
    want = [math.pi / 4, math.pi / 3, math.pi / 6, math.pi / 3,
            math.acos(math.sqrt(15.0) / 6.0), math.acos(math.sqrt(21.0) / 6.0), math.pi / 6]
    assert np.max(np.abs(angles - want)) < 1e-13
    tree = angle_tree(load_density(triangular_path), 3)
    assert angles.tobytes() == tree.angles.tobytes()


@pytest.mark.parametrize("density", ["triangular", "powers_of_two", "random"])
def test_synth_rot_lines_carry_every_angle_bit_for_bit(tmp_path, capsys, density):
    """At n = 1..16 the ROT angles of the synth file are angle_tree's angles
    bit for bit, in heap order; pruned, those of the kept gates. The file's
    circuit has the synthesized circuit's law bit for bit."""
    path = bundled(density) if density != "random" else str(tmp_path / "random.json")
    if density == "random":  # a quadratic piece and a constant one, normalized
        segments = [{"lo": 0.0, "hi": 0.3, "coeffs": [0.5, 2.0, -1.0]},
                    {"lo": 0.3, "hi": 1.0, "coeffs": [1.2, 0.0, 0.0, 0.0]}]
        total = sum(sum(c / (m + 1) * (s["hi"] ** (m + 1) - s["lo"] ** (m + 1))
                        for m, c in enumerate(s["coeffs"])) for s in segments)
        for s in segments:
            s["coeffs"] = [c / total for c in s["coeffs"]]
        Path(path).write_text(json.dumps({"segments": segments}))
    out = tmp_path / "c.circuit"
    for n in range(1, 17):
        tree = angle_tree(load_density(path), n)
        for prune, kept in ((False, np.ones(2**n - 1, bool)), (True, tree.angles != 0.0)):
            argv = ["synth", "--n", str(n), "--density", path, "--out", str(out)]
            assert main(argv + ["--prune"] * prune) == 0
            assert rot_angles(out.read_text()).tobytes() == tree.angles[kept].tobytes(), (n, prune)
        law = circuit_law(parse_circuit(out.read_text()))
        assert law.tobytes() == circuit_law(synthesize(tree, prune=True)).tobytes(), n
    capsys.readouterr()


def test_synth_prune_shortens_powers_of_two_circuit(tmp_path, powers_of_two_path):
    out = tmp_path / "bumps.circuit"
    code = main(
        ["synth", "--n", "3", "--density", powers_of_two_path, "--out", str(out), "--prune"]
    )
    assert code == 0
    c = parse_circuit(out.read_text())
    assert len(c.gates) == 4


def test_synth_circuit_file_realizes_the_right_state(tmp_path, triangular_path):
    """Parse the written file, run it, and check the prepared distribution."""
    from qsim.qpu import vector_distribution

    out = tmp_path / "tri.circuit"
    main(["synth", "--n", "3", "--density", triangular_path, "--out", str(out)])
    psi = np.zeros(8, dtype=complex)
    psi[0] = 1.0
    for g in parse_circuit(out.read_text()).gates:  # each gate's dense matrix in turn
        psi = realize_gate(g) @ psi
    law = vector_distribution(psi)
    want = np.array([1, 3, 5, 7, 7, 5, 3, 1], dtype=float) / 32.0
    assert np.max(np.abs(law - want)) < 1e-12


def test_synth_requires_out_and_density(tmp_path, triangular_path):
    assert main(["synth", "--n", "3", "--density", triangular_path]) == 2
    out = tmp_path / "x.circuit"
    assert main(["synth", "--n", "3", "--out", str(out)]) == 2


# --- law ------------------------------------------------------------------


def test_law_triangular_csv_pin(tmp_path, triangular_path):
    out = tmp_path / "law.csv"
    assert main(["law", "--n", "3", "--density", triangular_path, "--out", str(out)]) == 0
    rows = read_csv(out)
    assert [r["k"] for r in rows] == [str(k) for k in range(8)]
    assert rows[0]["bitstring"] == "000"
    assert rows[1]["bitstring"] == "100"  # label 1 = bits (1,0,0), little-endian
    assert rows[4]["bitstring"] == "001"
    want = [1, 3, 5, 7, 7, 5, 3, 1]
    for k, row in enumerate(rows):
        assert float(row["probability"]) == pytest.approx(want[k] / 32.0, abs=1e-12)


def test_law_powers_of_two_puts_thirds_on_three_labels(tmp_path, powers_of_two_path):
    out = tmp_path / "law.csv"
    assert main(["law", "--n", "3", "--density", powers_of_two_path, "--out", str(out)]) == 0
    rows = read_csv(out)
    for k in (1, 2, 4):
        assert float(rows[k]["probability"]) == pytest.approx(1 / 3, abs=1e-10)
    for k in (0, 3, 5, 6, 7):
        assert float(rows[k]["probability"]) == pytest.approx(0.0, abs=1e-10)


def test_law_without_density_is_a_parse_error():
    assert main(["law", "--n", "3"]) == 2


# --- sample ----------------------------------------------------------------


def test_sample_runs_are_reproducible(tmp_path, triangular_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sample", "--n", "3", "--density", triangular_path, "--shots", "2048", "--seed", "11"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.csv"
    assert main(
        ["sample", "--n", "3", "--density", triangular_path, "--shots", "2048", "--seed", "12", "--out", str(c)]
    ) == 0
    assert a.read_bytes() != c.read_bytes()


def test_sample_counts_sum_to_shots(tmp_path, triangular_path):
    out = tmp_path / "s.csv"
    main(["sample", "--n", "3", "--density", triangular_path, "--shots", "500", "--out", str(out)])
    rows = read_csv(out)
    assert sum(int(r["count"]) for r in rows) == 500
    for r in rows:
        dev = abs(float(r["frequency"]) - float(r["exact"]))
        assert float(r["deviation"]) == pytest.approx(dev, abs=1e-15)


def test_sample_single_shot(tmp_path, triangular_path):
    out = tmp_path / "s.json"
    code = main(
        ["sample", "--n", "3", "--density", triangular_path, "--shots", "1", "--format", "json", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["shots"] == 1
    assert doc["seed"] == 0
    counts = [row["count"] for row in doc["counts"]]
    assert sum(counts) == 1 and max(counts) == 1


def test_sample_rejects_zero_shots(triangular_path):
    assert main(["sample", "--density", triangular_path, "--shots", "0"]) == 3


def test_sample_rejects_more_shots_than_memory_allows(capsys, triangular_path):
    # Rejected before the law is computed, so this runs instantly even at n = 20.
    for n in ("3", "20"):
        assert main(["sample", "--n", n, "--density", triangular_path,
                     "--shots", "1000000000000000"]) == 3
        err = capsys.readouterr().err
        want = "--shots must be at most 100000000, got 1000000000000000"
        assert err == f"qsim: validation error: {want}\n"


# --- decompose --------------------------------------------------------------


def test_decompose_identity(tmp_path):
    path = write_unitary(tmp_path, np.eye(4, dtype=complex))
    out = tmp_path / "factors.txt"
    assert main(["decompose", "--unitary", path, "--out", str(out)]) == 0
    text = out.read_text()
    d = parse_decomposition(text)
    assert d.dim == 4
    assert len(d.factors) == 6
    for f in d.factors:
        assert np.array_equal(f.v, np.eye(2))
    assert "# residual 0.0" in text


def test_decompose_random_unitary_round_trips(tmp_path):
    rng = np.random.default_rng(30)
    q, r = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    path = write_unitary(tmp_path, u)
    out = tmp_path / "factors.txt"
    assert main(["decompose", "--unitary", path, "--out", str(out)]) == 0
    d = parse_decomposition(out.read_text())
    assert len(d.factors) == 28
    assert reconstruction_residual(d, u) <= 1e-9


def test_decompose_two_by_two(tmp_path):
    u = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    path = write_unitary(tmp_path, u)
    out = tmp_path / "factors.txt"
    assert main(["decompose", "--unitary", path, "--out", str(out)]) == 0
    d = parse_decomposition(out.read_text())
    assert len(d.factors) == 1
    assert np.array_equal(d.factors[0].v, u)


def test_decompose_input_errors(tmp_path, capsys):
    assert main(["decompose"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["decompose", "--unitary", str(bad)]) == 2
    short = tmp_path / "short.json"
    short.write_text(json.dumps({"dim": 3, "entries": [[1.0, 0.0]]}))
    assert main(["decompose", "--unitary", str(short)]) == 2
    no_entries = tmp_path / "no_entries.json"
    no_entries.write_text(json.dumps({"dim": 2}))
    capsys.readouterr()
    assert main(["decompose", "--unitary", str(no_entries)]) == 2
    assert capsys.readouterr().err == 'qsim: parse error: unitary JSON needs "dim" and "entries"\n'
    not_unitary = write_unitary(tmp_path, np.ones((3, 3)), "n.json")
    out = tmp_path / "factors.txt"
    assert main(["decompose", "--unitary", not_unitary, "--out", str(out)]) == 3
    assert not out.exists()


@pytest.mark.parametrize("dim", [2.9, 2.0, True, "2"])
def test_decompose_requires_an_integer_dim(tmp_path, dim):
    entries = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
    path = tmp_path / "u.json"
    path.write_text(json.dumps({"dim": dim, "entries": entries}))
    assert main(["decompose", "--unitary", str(path)]) == 2


@pytest.mark.parametrize("bad", ["0", "1_0e-1", True, False, None, [1.0]])
@pytest.mark.parametrize("part", [0, 1])
def test_decompose_requires_json_number_entries(tmp_path, bad, part):
    # float() reads "0", "1_0e-1", true and false as numbers.
    entries = [[1, 0], [0.0, 0.0], [0.0, 0.0], [1.0, 0]]
    path = tmp_path / "u.json"
    path.write_text(json.dumps({"dim": 2, "entries": entries}))
    assert main(["decompose", "--unitary", str(path)]) == 0
    entries[3][part] = bad
    path.write_text(json.dumps({"dim": 2, "entries": entries}))
    out = tmp_path / "factors.txt"
    assert main(["decompose", "--unitary", str(path), "--out", str(out)]) == 2
    assert not out.exists()


def entry_by_entry_reader(text):
    """The unitary reader as it was before its one-array path: one complex()
    per entry. The reference that cli._parse_unitary_json is checked against."""
    def number(x):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise TypeError(f"{x!r} is not a JSON number")
        return x

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "dim" not in doc or "entries" not in doc:
        raise ParseError('unitary JSON needs "dim" and "entries"')
    dim = doc["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise ParseError(f'"dim" must be an integer, got {dim!r}')
    if dim < 2:
        raise ParseError(f'"dim" must be at least 2, got {dim}')
    try:
        entries = [complex(number(re), number(im)) for re, im in doc["entries"]]
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad unitary entries: {exc}") from exc
    if len(entries) != dim * dim:
        raise ParseError(f"expected {dim}*{dim} row-major entries, got {len(entries)}")
    return np.array(entries, dtype=np.complex128).reshape(dim, dim)


def read_outcome(reader, text):
    """What reader makes of text: ("ok", dtype, shape, bytes) or ("error",
    exception type, message)."""
    try:
        u = reader(text)
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return "error", type(exc), str(exc)
    return "ok", u.dtype, u.shape, u.tobytes()


# Entry values: JSON numbers of every float class, numbers float() or
# complex() would also read, and ints at and past float64's range.
FUZZ_VALUES = [0, 1, -1, 0.5, -0.0, 1e-310, 1e308, 2**53 + 1, -(2**63), 2**64 + 1,
               10**400, math.nan, math.inf, -math.inf, True, False, None, "0", "1_0",
               "1.5", "nan", [1.0], {}, {"re": 1}]


def fuzz_entries(rng, dim):
    """A random "entries" value near a valid dim x dim unitary: mostly
    [re, im] pairs, with bad values, ragged rows, triples, non-list rows,
    non-list entries and wrong counts mixed in."""
    value = lambda: FUZZ_VALUES[rng.integers(len(FUZZ_VALUES))]
    number = lambda: float(rng.normal()) if rng.random() < 0.98 else value()
    count = max(dim, 0) ** 2 + int(rng.choice([0, 0, 0, -1, 1]))
    rows = [[number(), number()] for _ in range(max(count, 0))]
    for _ in range(rng.integers(0, 3)):
        if not rows:
            break
        k = int(rng.integers(len(rows)))
        kind = rng.integers(6)
        if kind == 0:
            rows[k] = [value(), value()]
        elif kind == 1:
            rows[k] = [number()]
        elif kind == 2:
            rows[k] = [number(), number(), number()]
        elif kind == 3:
            rows[k] = "ab" if rng.random() < 0.5 else 5
        elif kind == 4:
            rows[k] = {"ab": 1, "cd": 2}
        else:
            rows[k] = []
    if rng.random() < 0.05:
        return [{}, "", "abcd", 5, None, {"ab": 1}, True][rng.integers(7)]
    return rows


BAD_ENTRY = "unitary entries must be [re, im] pairs of JSON numbers, got "


def test_unitary_reader_matches_the_entry_by_entry_reader():
    """Accepted input gives the same matrix bit for bit; rejected input the
    same exception type, so the same exit code, but for one rule: a structural
    error anywhere (exit 2) beats an int beyond float range (exit 3), which the
    old reader met first when it came first. Every message but the new reader's
    one bad-entry message is the old reader's."""
    rng = np.random.default_rng(31)
    seen, structure_first = set(), 0
    dims = [3, 3, 3, 3, 3, 3, 2, 4, 1, 0, -1, 2.0, True, "3"]
    for _ in range(3000):
        dim = dims[rng.integers(len(dims))]
        text = json.dumps({"dim": dim, "entries": fuzz_entries(rng, int(dim))})
        want = read_outcome(entry_by_entry_reader, text)
        got = read_outcome(cli._parse_unitary_json, text)
        if want[:2] == ("error", OverflowError):  # the same text with 0 for 10**400
            in_range = read_outcome(entry_by_entry_reader, text.replace(str(10**400), "0"))
            if in_range[:2] == ("error", ParseError):
                want, structure_first = in_range, structure_first + 1
        assert got[:2] == want[:2], text[:300]
        if got[0] == "ok" or not got[2].startswith(BAD_ENTRY):
            assert got == want, text[:300]
        seen.add(want[0] if want[0] == "ok" else want[1].__name__)
    assert seen == {"ok", "ParseError", "OverflowError"}
    assert structure_first > 0
    for text in ("{not json", "[]", '{"dim": 2}', '{"dim": 2, "entries": [[1, 0], [0, 0], '
                 '[0, 0], [1, 0]]}', '{"dim": 2, "entries": [[1, 0], [0, 0], [0, 0], [1, NaN]]}'):
        assert read_outcome(cli._parse_unitary_json, text) == read_outcome(
            entry_by_entry_reader, text), text


# A structure fault for each reader, and for a JSON reader the command that reads it.
READER_FAULTS = {
    "circuit": (parse_circuit, "QSIM-CIRCUIT v2 n=1\nROT 1 0.5\n", None),
    "factors": (parse_decomposition, "QSIM-FACTORS v1 dim=2\nTWO-LEVEL 1 2\n", None),
    "density": (parse_density_json, '{"segments": 1}', ["verify", "--density"]),
    "unitary": (cli._parse_unitary_json, '{"dim": 2}', ["decompose", "--unitary"]),
}


@pytest.mark.parametrize("reader", READER_FAULTS)
def test_every_reader_raises_the_one_parse_error(tmp_path, capsys, reader):
    """Each of the four readers raises linalg.ParseError for bad structure,
    and cli.main maps that one type to exit 2; the only error types qsim
    defines are ParseError and the two validation errors, so no reader keeps
    a type of its own."""
    read, text, command = READER_FAULTS[reader]
    with pytest.raises(ParseError):
        read(text)
    if command:
        path = tmp_path / "input.json"
        path.write_text(text)
        assert main([*command, str(path)]) == 2
        out, err = capsys.readouterr()
        assert (out, err.count("\n"), err[:19]) == ("", 1, "qsim: parse error: ")
    defined = {name for info in pkgutil.iter_modules(qsim.__path__)
               for name, obj in vars(importlib.import_module(f"qsim.{info.name}")).items()
               if isinstance(obj, type) and issubclass(obj, Exception)
               and obj.__module__ == f"qsim.{info.name}"}
    assert defined == {"ParseError", "DensityError", "StateValidationError"}


@pytest.mark.parametrize("entries,bad", [
    ([["0", 0]], "['0', 0]"),
    ([[1, 0], [True, 0]], "[True, 0]"),
    ([[1, 0], [0, None]], "[0, None]"),
    ([[1, 0], [0]], "[0]"),
    ([[1, 0], [0, 0, 0]], "[0, 0, 0]"),
    ([[1, 0], {"re": 0, "im": 0}], "{'re': 0, 'im': 0}"),
    ({"re": 1}, "{'re': 1}"),
    ("abcd", "'abcd'"),
])
def test_a_bad_unitary_entry_is_named_in_one_message(tmp_path, capsys, entries, bad):
    """The first entry that is not a pair of JSON numbers, or "entries" itself
    when it is not a list, in one parse error: no unpack error leaks."""
    path = tmp_path / "u.json"
    path.write_text(json.dumps({"dim": 2, "entries": entries}))
    assert main(["decompose", "--unitary", str(path)]) == 2
    assert capsys.readouterr().err == f"qsim: parse error: {BAD_ENTRY}{bad}\n"


def test_unitary_structure_errors_come_before_range_errors(tmp_path):
    """A string in a later entry is a parse error (exit 2), though an earlier
    entry holds 10**400, which alone is an OverflowError (exit 3); so is a
    wrong entry count."""
    path = tmp_path / "u.json"
    for entries, code in (([[10**400, 0], [0, 0], [0, 0], [1, 0]], 3),
                          ([[10**400, 0], [0, 0], [0, 0], ["0", 0]], 2),
                          ([[10**400, 0], [0, 0], [0, 0]], 2)):
        path.write_text(json.dumps({"dim": 2, "entries": entries}))
        assert main(["decompose", "--unitary", str(path)]) == code


@pytest.mark.parametrize("entry,code", [
    (10**400, 3),  # too large for a float: OverflowError, an ArithmeticError
    (2**64 + 1, 0),  # an int that rounds to a float is a number
    ("1_0", 2), (True, 2), ("nan", 2),
])
def test_unitary_entries_keep_their_exit_codes(tmp_path, entry, code):
    path = tmp_path / "u.json"
    path.write_text(json.dumps({"dim": 2, "entries": [[entry, 0], [0, 0], [0, 0], [1, 0]]}))
    if code == 0:  # diag(2^64 + 1, 1) is read, then rejected as not unitary
        assert cli._parse_unitary_json(path.read_text())[0, 0] == float(entry)
        code = 3
    assert main(["decompose", "--unitary", str(path)]) == code


@pytest.mark.parametrize("entry", ["1e308", "Infinity", "NaN"])
def test_a_non_finite_unitary_is_one_validation_error(tmp_path, capsys, entry):
    """U*U of an entry near the float limit overflows, and inf or NaN makes
    it NaN: exit 3 with its one message line, and no numpy warning."""
    path = tmp_path / "u.json"
    path.write_text('{"dim": 2, "entries": [[%s, 0], [1e308, 0], [0, 0], [1, 0]]}' % entry)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["decompose", "--unitary", str(path)]) == 3
    assert capsys.readouterr().err == (
        "qsim: validation error: input is not unitary: ||U*U - I|| exceeds 1.41e-09\n")


def test_decompose_writes_no_factors_when_the_residual_is_too_large(
    tmp_path, monkeypatch, capsys
):
    # The residual gate and decompose_unitary's two corner checks are fault
    # detectors: no accepted input reaches them, so each fault is injected,
    # a faulty residual or a column's last block with one row doubled.
    column_blocks = udecomp._column_blocks

    def doubled(row):
        def faulty(psi, blocks):
            found = column_blocks(psi, blocks)
            blocks[-1, row] *= 2.0
            return found
        return faulty

    # The identity's blocks act on nothing, so the corner faults take a rotation.
    eye, turn = np.eye(2, dtype=complex), np.array([[0.6, -0.8], [0.8, 0.6]], dtype=complex)
    out = tmp_path / "factors.txt"
    for u, module, name, fault, message in (
        (eye, cli, "reconstruction_residual", lambda d, u: 2e-9,
         "reconstruction residual 2e-09 exceeds 1e-09"),
        (turn, udecomp, "_column_blocks", doubled(0),
         "column reduction left corner (2+0j), expected 1"),
        (turn, udecomp, "_column_blocks", doubled(1),
         "reduction left last corner (2+0j), expected modulus 1"),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(module, name, fault)
            path = write_unitary(tmp_path, u)
            assert main(["decompose", "--unitary", path, "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"qsim: validation error: {message}\n"
        assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1e-300"])
def test_tol_must_be_finite_and_nonnegative(triangular_path, tol):
    assert main(["verify", "--density", triangular_path, f"--tol={tol}"]) == 3


# --- verify -----------------------------------------------------------------


def test_verify_passes_for_shipped_shapes(capsys, triangular_path, powers_of_two_path):
    assert main(["verify", "--n", "3", "--density", triangular_path]) == 0
    assert "PASS" in capsys.readouterr().out
    assert main(["verify", "--n", "4", "--density", powers_of_two_path]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_csv_table(tmp_path, capsys, triangular_path):
    """A header and 2^n rows, also at n = 16, with the label column's k and
    bitstring cells in the first two rows and the last."""
    out = tmp_path / "verify.csv"
    for n in (3, 16):
        assert main(["verify", "--n", str(n), "--density", triangular_path, "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith("PASS: ")
        rows = read_csv(out)
        assert len(rows) == 2**n
        labels = [(r["k"], r["bitstring"]) for r in (rows[0], rows[1], rows[-1])]
        assert labels == [("0", "0" * n), ("1", "1" + "0" * (n - 1)), (str(2**n - 1), "1" * n)]
        exact, formula, circuit = (np.array([float(r[c]) for r in rows])
                                   for c in ("exact", "formula", "circuit"))
        assert np.max(np.abs(exact - formula)) <= 1e-12
        assert np.max(np.abs(exact - circuit)) <= 1e-12


def test_verify_json_summary(tmp_path, triangular_path):
    out = tmp_path / "verify.json"
    code = main(
        ["verify", "--n", "3", "--density", triangular_path, "--format", "json", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert doc["max_dev_circuit_target"] < 1e-12
    assert len(doc["rows"]) == 8


def test_verify_fails_at_zero_tolerance(capsys, triangular_path):
    assert main(["verify", "--n", "3", "--density", triangular_path, "--tol", "0"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_rejects_invalid_density(tmp_path):
    bad = tmp_path / "bad_density.json"
    bad.write_text(
        json.dumps({"segments": [{"lo": 0.0, "hi": 1.0, "coeffs": [2.0]}]})
    )
    assert main(["verify", "--density", str(bad)]) == 3


def test_verify_rejects_density_negative_between_sample_points(tmp_path):
    # (x - 1/2)^2 - 1e-4, normalized: negative only near x = 1/2.
    k = 1.0 / 12.0 - 1e-4
    coeffs = [(0.25 - 1e-4) / k, -1.0 / k, 1.0 / k]
    bad = tmp_path / "dip.json"
    bad.write_text(
        json.dumps({"segments": [{"lo": 0.0, "hi": 1.0, "coeffs": coeffs}]})
    )
    assert main(["verify", "--n", "6", "--density", str(bad)]) == 3


def test_malformed_density_json_is_a_parse_error(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{segments: oops")
    assert main(["verify", "--density", str(bad)]) == 2
    # Coefficients as a string of digits, not a JSON array of numbers.
    bad.write_text('{"segments": [{"lo": 0, "hi": 1, "coeffs": "02"}]}')
    assert main(["law", "--n", "2", "--density", str(bad)]) == 2


def test_missing_density_file_is_an_io_error(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert main(["verify", "--density", missing]) == 4
    assert main(["law", "--density", missing]) == 4


# --- argument handling --------------------------------------------------------


def test_unknown_command_exits_via_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_bad_flag_value_exits_via_argparse(triangular_path):
    with pytest.raises(SystemExit) as exc:
        main(["law", "--density", triangular_path, "--format", "xml"])
    assert exc.value.code == 2


def test_qubit_count_bounds(triangular_path):
    assert main(["law", "--n", "0", "--density", triangular_path]) == 3
    assert main(["law", "--n", "21", "--density", triangular_path]) == 3


def test_stdout_output_when_no_out_given(capsys, triangular_path):
    assert main(["law", "--n", "1", "--density", triangular_path]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "k,bitstring,probability"
    assert lines[1].startswith("0,0,")
    assert float(lines[1].split(",")[2]) == pytest.approx(0.5, abs=1e-12)


def test_density_round_trips_through_the_cli_parser(triangular_path):
    """The shipped file format and the CLI loader agree."""
    with open(triangular_path, "r", encoding="utf-8") as fh:
        d = parse_density_json(fh.read())
    assert d.masses([0.0, 1.0])[0] == pytest.approx(1.0, abs=1e-12)


# --- golden outputs -------------------------------------------------------------


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("density", BUNDLED)
@pytest.mark.parametrize(
    "command,extra",
    [("law", []), ("sample", ["--shots", "2048", "--seed", "0"]), ("verify", [])],
)
def test_tables_match_golden_files(tmp_path, capsys, command, extra, density, fmt):
    out = tmp_path / "table"
    argv = [command, "--n", "3", "--density", bundled(density), "--format", fmt]
    assert main(argv + extra + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{command}_{density}.{fmt}").read_bytes()
    stdout = GOLDEN / f"{command}_{density}.stdout"
    assert capsys.readouterr().out == (stdout.read_text() if stdout.exists() else "")


def test_verify_of_a_generated_density_matches_golden_files(tmp_path, capsys):
    """An 8-segment density of the benchmark's generator: one zero segment,
    the other seven of degree 0 to 4, dyadic and non-dyadic breakpoints.
    Its qsim verify --n 7 table and report, byte for byte."""
    out = tmp_path / "v.csv"
    argv = ["verify", "--n", "7", "--density", str(GOLDEN / "density_generated.json")]
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "verify_generated.csv").read_bytes()
    assert capsys.readouterr().out == (GOLDEN / "verify_generated.stdout").read_text()


@pytest.mark.parametrize(
    "name,density,extra",
    [
        ("synth_triangular", "triangular", []),
        ("synth_powers_of_two", "powers_of_two", []),
        ("synth_powers_of_two_pruned", "powers_of_two", ["--prune"]),
    ],
)
def test_synth_matches_golden_files(tmp_path, capsys, name, density, extra):
    out = tmp_path / "c.circuit"
    argv = ["synth", "--n", "3", "--density", bundled(density), "--out", str(out)]
    assert main(argv + extra) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.circuit").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.circuit"]
    # The circuit file holds the density's angle tree bit for bit.
    tree = angle_tree(load_density(bundled(density)), 3)
    kept = tree.angles != 0.0 if extra else np.ones(7, bool)
    circuit = out.read_text()
    assert rot_angles(circuit).tobytes() == tree.angles[kept].tobytes()
    assert format_circuit(parse_circuit(circuit)) == circuit
    gates = len(parse_circuit(circuit).gates)
    assert capsys.readouterr().out == f"wrote {gates} gates to {out}\n"


def test_decompose_matches_golden_file(tmp_path, capsys):
    unitary = str(GOLDEN / "unitary4.json")
    want = (GOLDEN / "decompose_unitary4.txt").read_text()
    assert main(["decompose", "--unitary", unitary]) == 0
    assert capsys.readouterr().out == want
    out = tmp_path / "factors.txt"
    assert main(["decompose", "--unitary", unitary, "--out", str(out)]) == 0
    assert out.read_text() == want
    residual = want.splitlines()[-1].removeprefix("# residual ")
    assert capsys.readouterr().out == f"wrote 6 factors to {out} (residual {residual})\n"


MESSAGES = json.loads((GOLDEN / "messages.json").read_text())


def golden_arg(arg):
    """DENSITY is the bundled triangular density; GOLDEN/<name> a golden file."""
    if arg == "DENSITY":
        return bundled("triangular")
    if arg.startswith("GOLDEN/"):
        return str(GOLDEN / arg.removeprefix("GOLDEN/"))
    return arg


@pytest.mark.parametrize("case", MESSAGES, ids=[" ".join(c["argv"]) for c in MESSAGES])
def test_messages_and_exit_codes_match_golden(capsys, case):
    argv = [golden_arg(a) for a in case["argv"]]
    assert main(argv) == case["exit"]
    captured = capsys.readouterr()
    assert captured.out == case["stdout"]
    assert captured.err == case["stderr"]


@pytest.mark.parametrize("command", ["synth", "law", "sample", "verify"])
@pytest.mark.parametrize("n", ["0", "21"])
def test_every_command_with_n_checks_it_first(capsys, command, n):
    """--n runs from 1 to MAX_QUBITS for every command that has it, checked
    before any other option or file, with golden/messages.json's text."""
    at_most = next(c["stderr"] for c in MESSAGES if c["argv"][:3] == ["law", "--n", "21"])
    assert main([command, "--n", n]) == 3
    assert capsys.readouterr() == ("", {"21": at_most}.get(
        n, "qsim: validation error: --n must be at least 1, got 0\n"))


# --- options per command ----------------------------------------------------------


OPTIONS = {
    "synth": {"--n", "--density", "--out", "--prune"},
    "law": {"--n", "--density", "--format", "--out"},
    "sample": {"--n", "--density", "--format", "--out", "--shots", "--seed"},
    "decompose": {"--unitary", "--out"},
    "verify": {"--n", "--density", "--format", "--out", "--tol"},
}


@pytest.mark.parametrize("command", OPTIONS)
def test_each_command_lists_exactly_the_options_it_reads(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"--[a-z]+", capsys.readouterr().out)) - {"--help"}
    assert listed == OPTIONS[command]


@pytest.mark.parametrize(
    "argv",
    [
        "synth --format json",
        "synth --tol 0",
        "law --tol 0",
        "law --identity",
        "sample --tol 0",
        "decompose --n 3",
        "decompose --format json",
        "decompose --tol 1e-8",
    ],
)
def test_options_a_command_does_not_read_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2


def test_only_three_public_callables_take_a_tol():
    """Every public function and method of every qsim module, walked, so a
    new tolerance option cannot creep in unnoticed. A record's tol field
    (VerifyReport.tol) stores a value and sets nothing, so constructors are
    not walked."""

    def public_functions(owner, prefix, home):
        for name, obj in vars(owner).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != home:
                continue
            if inspect.isfunction(obj):
                yield f"{prefix}{name}", obj
            elif inspect.isclass(obj):
                yield from public_functions(obj, f"{prefix}{name}.", home)

    with_tol = set()
    for info in pkgutil.iter_modules(qsim.__path__):
        module = importlib.import_module(f"qsim.{info.name}")
        for name, func in public_functions(module, f"{info.name}.", module.__name__):
            if "tol" in inspect.signature(func).parameters:
                with_tol.add(name)
    assert with_tol == {
        "linalg.is_hermitian",
        "linalg.is_unitary",
        "grover_rudolph.verify",
    }


# File-format tokens the README spells in backticks that no module defines.
README_TOKENS = {"ROT", "CTRL", "Fraction"}


def test_names_the_readme_spells_exist():
    """Every backticked module.name of a qsim module resolves, and every
    backticked CamelCase or UPPER_CASE name (alone, called, or assigned)
    is defined in some qsim module or is a builtin, so a deleted or renamed
    name cannot leave the README stale."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    spans = re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", readme, flags=re.S))
    modules = {info.name: importlib.import_module(f"qsim.{info.name}")
               for info in pkgutil.iter_modules(qsim.__path__)}
    stale = []
    for span in spans:
        for dotted in re.finditer(r"(?<![\w./-])([a-z_]\w*)((?:\.\w+)+)", span):
            if dotted[1] in modules:
                try:
                    functools.reduce(getattr, dotted[2].split(".")[1:], modules[dotted[1]])
                except AttributeError:
                    stale.append(dotted[0])
        bare = re.fullmatch(r"([A-Z](?:[a-z0-9]\w*|[A-Z0-9_]+))(?:\(.*\)|\s*=.*)?", span)
        name = bare and bare[1]
        if name and not (name in README_TOKENS or hasattr(builtins, name)
                         or any(hasattr(m, name) for m in modules.values())):
            stale.append(name)
    assert stale == []


def test_the_readme_quick_tour_runs():
    """The "Library quick tour" block runs with tri.json bound to the bundled
    triangular density, and each line whose comment is a Python literal
    gives that value within 1e-15."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"## Library quick tour\n\n```python\n(.*?)```", readme, re.S)[1]
    scope = {}
    exec(block.replace('"tri.json"', repr(bundled("triangular"))), scope)
    checked = []
    for line in block.splitlines():
        code, _, comment = line.partition("  # ")
        try:
            want = ast.literal_eval(comment.strip())
        except (ValueError, SyntaxError):
            continue
        got = eval(code, scope)
        assert np.allclose(got, want, rtol=0.0, atol=1e-15), (code, got)
        checked.append(want)
    assert checked == [((0.0, 0.64), (1.0, 0.36)), 0.0]
