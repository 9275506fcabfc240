"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q bench/test_selftest.py

Every workload runs traced and untraced, spans nest, self times add up to
the op time, BENCHMARK.json names what the code reports, and a directory
without qsim sources makes run.py fail without printing a result.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import env

env.use_checkout_sources()

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from qsim import grover_rudolph as gr  # noqa: E402
from qsim import gates  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

TINY = {"load_verify": (2, 3), "synth_sample": (3, 4), "decompose": (4, 8), "mixed_state": (2, 3)}
OPS = 4


def tiny(name: str) -> workloads.Workload:
    return dataclasses.replace(workloads.WORKLOADS[name], block=TINY[name])


def traced_ops(name: str, tmp_path):
    tracer = Tracer(layers.TRACED, layers.OBSERVERS)
    loop = run.Loop()
    tracer.install()
    try:
        run.run_ops(tiny(name), 0, tmp_path, loop, lambda done, elapsed: done == OPS, tracer)
    finally:
        tracer.uninstall()
    return loop, tracer


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_ops_pass_checks_and_spans_nest(name, tmp_path):
    loop, tracer = traced_ops(name, tmp_path)
    assert (loop.attempted, loop.failed) == (OPS, 0)
    spans = tracer.spans
    roots = [s for s in spans if s.parent is None]
    assert [s.op for s in roots] == list(range(OPS))
    assert len(spans) > len(roots)
    for s in spans:
        if s.parent is not None:
            parent = spans[s.parent]
            assert parent.op == s.op
            assert parent.start <= s.start <= s.end <= parent.end
    own = self_times(spans)
    assert min(own) >= 0.0
    for root in roots:
        total = sum(t for s, t in zip(spans, own) if s.op == root.op)
        assert math.isclose(total, root.end - root.start, rel_tol=1e-9)


def test_uninstall_restores_every_binding(tmp_path):
    original = gates.realize_gate
    traced_ops("load_verify", tmp_path)
    assert gates.realize_gate is original
    assert gr.apply_vector is gates.apply_vector
    assert not hasattr(gr.circuit_law, "__wrapped__")


def test_where_the_work_goes_structurally(tmp_path):
    _, synth = traced_ops("synth_sample", tmp_path)
    assert layers.where_work_goes("synth_sample", synth.spans)[1]
    _, dec = traced_ops("decompose", tmp_path)
    assert layers.where_work_goes("decompose", dec.spans)[1]


def test_derived_counters(tmp_path):
    loop, tracer = traced_ops("decompose", tmp_path)
    metrics = layers.per_layer(tracer.spans, tracer.observations, OPS, loop.health, 0.0, 0.0)
    assert list(metrics) == [name for name, _, _ in layers.PER_LAYER]
    sizes = [tiny("decompose").size(0, i) for i in range(OPS)]
    assert metrics["udecomp.factors"][0] == sum(n * (n - 1) // 2 for n in sizes) / OPS
    assert metrics["udecomp.residual_max"][0] <= workloads.RESIDUAL_TOL
    assert metrics["gates.realize_gate.calls"][0] == 0
    loop, tracer = traced_ops("load_verify", tmp_path)
    metrics = layers.per_layer(tracer.spans, tracer.observations, OPS, loop.health, 0.0, 0.0)
    sizes = [tiny("load_verify").size(0, i) for i in range(OPS)]
    # one dense 2^n x 2^n complex matrix per gate, 2^n - 1 gates per circuit
    assert metrics["gates.dense_bytes"][0] == sum(16 * 4**n * (2**n - 1) for n in sizes) / OPS


def test_times_scale_to_the_reference_speed(tmp_path):
    loop = run.Loop(latencies=[0.010, 0.030], probe_s=[run.REFERENCE_PROBE_S, 1.5 * run.REFERENCE_PROBE_S])
    assert loop.scaled() == pytest.approx([0.010, 0.020])
    assert loop.scaled(1) == pytest.approx([0.020])
    assert run.speed_probe() > 0.0
    loop, tracer = traced_ops("decompose", tmp_path)
    plain = layers.self_ms_by_name(tracer.spans)
    halved = layers.self_ms_by_name(tracer.spans, [0.5] * OPS)
    assert halved.keys() == plain.keys()
    assert all(halved[k] == pytest.approx(plain[k] / 2) for k in plain)


def test_zero_mass_nodes_counts_like_angle_tree():
    # leaves in label order; an empty left half is one empty node
    assert layers.zero_mass_nodes([0.0, 0.0, 0.5, 0.5]) == 1
    assert layers.zero_mass_nodes([0.0, 0.0, 0.0, 1.0]) == 1
    assert layers.zero_mass_nodes([0.25] * 4) == 0


@pytest.mark.parametrize("name", sorted(TINY))
def test_measurements_report_every_metric(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "MIN_OPS", 2 * len(TINY[name]))
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    loop, metrics, _ = run.measure_end_to_end(tiny(name), 0, 0.01, tmp_path)
    assert loop.failed == 0
    # every op has its CPU time, wall time and speed probe
    assert len(loop.latencies) == len(loop.wall) == len(loop.probe_s) > 0
    assert list(metrics) == [m for m, _ in run.END_TO_END]
    assert all(value > 0 for value, _ in metrics.values())
    loop, metrics, _ = run.measure_per_layer(tiny(name), 0, 0.01, tmp_path)
    assert loop.failed == 0
    assert list(metrics) == [m for m, _, _ in layers.PER_LAYER]


def test_generated_densities_are_valid():
    xs = np.linspace(0.0, 1.0, 4097)
    for i in range(40):
        d = workloads.random_density(np.random.default_rng([5, i]))
        assert 1 <= len(d.segments) <= 8
        for lo, hi, coeffs in d.segments:
            assert len(coeffs) <= 5
            inside = xs[(xs >= lo) & (xs <= hi)]
            assert np.all(np.polynomial.polynomial.polyval(inside, coeffs) >= -1e-12)
        assert math.isclose(workloads.dyadic_masses(d, 6).sum(), 1.0, abs_tol=1e-12)
        gr.parse_density_json(d.text)  # qsim accepts it


def test_inputs_depend_on_seed_and_index_only(tmp_path):
    w = workloads.WORKLOADS["mixed_state"]
    a, b = w.case(3, 7, tmp_path), w.case(3, 7, tmp_path)
    assert a.density.text == b.density.text and np.array_equal(a.hamiltonian, b.hamiltonian)
    assert w.case(4, 7, tmp_path).density.text != a.density.text
    assert sorted(w.size(3, i) for i in range(len(w.block))) == sorted(w.block)


def test_splitmix64_reference_matches_docs():
    assert tuple(workloads.splitmix64_reference(0, 3)) == workloads.PRNG_REFERENCE


def test_benchmark_json_names_what_the_code_reports():
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [tuple(m[k] for k in ("name", "unit", "better")) for m in spec["per_layer"]] == list(
        layers.PER_LAYER
    )


def test_fails_without_sources(tmp_path):
    shutil.copy(env.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        env.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__")
    )
    clean = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    argv = ["--workload", "load_verify", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *argv],
        cwd=tmp_path,
        env=clean,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
