"""End-to-end tests of the command-line interface.

Every invocation goes through main(argv) in-process so exit codes and
output files are checked directly. The exit-code contract: 0 success,
1 verification failure, 2 parse error, 3 validation error, 4 I/O error.
"""

import json
import math

import numpy as np
import pytest

from qsim.cli import main
from qsim.gates import parse_circuit, realize
from qsim.grover_rudolph import angle_tree_from_json, parse_density_json
from qsim.udecomp import parse_decomposition, reconstruction_residual

TRIANGULAR = {
    "segments": [
        {"lo": 0.0, "hi": 0.5, "coeffs": [0.0, 4.0]},
        {"lo": 0.5, "hi": 1.0, "coeffs": [4.0, -4.0]},
    ]
}

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


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


# --- synth -----------------------------------------------------------------


def test_synth_writes_circuit_and_sidecar(tmp_path, triangular_path):
    out = tmp_path / "tri.circuit"
    assert main(["synth", "--n", "3", "--density", triangular_path, "--out", str(out)]) == 0
    c = parse_circuit(out.read_text())
    assert c.n == 3
    assert len(c.gates) == 7
    tree = angle_tree_from_json((tmp_path / "tri.circuit.angles.json").read_text())
    assert abs(tree.theta - math.pi / 4) < 1e-13
    assert abs(tree.suffix_angle("0") - math.pi / 3) < 1e-13
    assert abs(tree.suffix_angle("1") - math.pi / 6) < 1e-13
    assert abs(tree.suffix_angle("10") - math.acos(math.sqrt(15.0) / 6.0)) < 1e-13
    assert abs(tree.suffix_angle("01") - math.acos(math.sqrt(21.0) / 6.0)) < 1e-13


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
    u = realize(parse_circuit(out.read_text()))
    psi = np.zeros(8, dtype=complex)
    psi[0] = 1.0
    law = vector_distribution(u @ psi)
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


def test_law_identity_state(tmp_path):
    out = tmp_path / "law.json"
    code = main(["law", "--n", "2", "--identity", "--format", "json", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["n"] == 2
    probs = [row["probability"] for row in doc["law"]]
    assert probs == [1.0, 0.0, 0.0, 0.0]


def test_law_identity_conflicts_with_density(triangular_path):
    assert main(["law", "--identity", "--density", triangular_path]) == 2


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


def test_decompose_input_errors(tmp_path):
    assert main(["decompose"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["decompose", "--unitary", str(bad)]) == 2
    short = tmp_path / "short.json"
    short.write_text(json.dumps({"dim": 3, "entries": [[1.0, 0.0]]}))
    assert main(["decompose", "--unitary", str(short)]) == 2
    not_unitary = write_unitary(tmp_path, np.ones((3, 3)), "n.json")
    assert main(["decompose", "--unitary", not_unitary]) == 3


# --- verify -----------------------------------------------------------------


def test_verify_passes_for_shipped_shapes(capsys, triangular_path, powers_of_two_path):
    assert main(["verify", "--n", "3", "--density", triangular_path]) == 0
    assert "PASS" in capsys.readouterr().out
    assert main(["verify", "--n", "4", "--density", powers_of_two_path]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_csv_table(tmp_path, triangular_path):
    out = tmp_path / "verify.csv"
    assert main(["verify", "--n", "3", "--density", triangular_path, "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 8
    for row in rows:
        assert float(row["exact"]) == pytest.approx(float(row["formula"]), abs=1e-12)
        assert float(row["exact"]) == pytest.approx(float(row["circuit"]), abs=1e-12)


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
    assert main(["law", "--n", "11", "--density", triangular_path]) == 3


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
    assert d.integrate(0.0, 1.0) == pytest.approx(1.0, abs=1e-12)
