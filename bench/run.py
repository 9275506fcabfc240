"""Run one workload of the qsim benchmark and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 gives the end-to-end metrics. The ops run untraced in a closed
loop for at least S seconds and at least MIN_OPS ops, ending on a whole
block of sizes; setup_s times fresh interpreters separately. --trace 1 gives
the per-layer metrics: ops run traced for half of S, then the same ops run
again untraced, and the difference is the tracing overhead.

Times are CPU times of the client process (the op runs on one thread, BLAS
included, and waits for nothing, so on an idle machine this is its wall
time), reported at the reference speed: each is scaled by REFERENCE_PROBE_S
over the CPU time of a fixed speed probe run next to it on the same CPU.
Time the process spends waiting for a CPU, and spells in which other tenants
of a shared machine slow the CPU, then do not show as a slower program. The
unscaled wall times are printed too.

Every line but the last names a machine property or a metric with its unit;
the last line is one JSON object with the keys correct, attempted, failed
and metrics. Exit code 2 means there were no qsim sources to measure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import env

HERE = Path(__file__).resolve().parent
MIN_OPS = 100  # so that at least 10 samples lie beyond the 90th percentile
MAX_MEASURE_S = 120.0  # a slow commit still ends well inside the run's limit
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 30.0
SHOWN_TRACEBACKS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CPUS = sorted(os.sched_getaffinity(0))
# speed_probe() on a quiet CPU of the machine the benchmark was built on
# (Xeon 2.0 GHz, 2 vCPUs); any constant would do, this one keeps scaled
# times close to the wall times of a quiet machine.
REFERENCE_PROBE_S = 5.5e-3
SPEED_PROBE_REPEATS = 3

END_TO_END = (
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "ops/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class Loop:
    """Outcome of the ops one phase of a run attempted."""

    latencies: list[float] = field(default_factory=list)  # CPU seconds per op
    wall: list[float] = field(default_factory=list)  # wall seconds per op
    health: list[dict] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    probe_s: list[float] = field(default_factory=list)  # speed_probe after each op

    def scales(self, start: int = 0) -> list[float]:
        return [speed_scale(p) for p in self.probe_s[start:]]

    def scaled(self, start: int = 0) -> list[float]:
        """Latencies from op `start` on, at the reference speed."""
        return [t * k for t, k in zip(self.latencies[start:], self.scales(start))]


def _report_failure(workload, i: int, loop: Loop, exc: BaseException) -> None:
    loop.failed += 1
    print(f"bench: {workload.name} op {i} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
    if loop.failed <= SHOWN_TRACEBACKS:
        traceback.print_exception(exc, file=sys.stderr)


def attempt(workload, seed: int, i: int, tmp: Path, loop: Loop, tracer=None) -> None:
    """Make op i's input, run and time the op, then check its output."""
    case = workload.case(seed, i, tmp)
    loop.attempted += 1
    span = tracer.op(i) if tracer is not None else contextlib.nullcontext()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with span:
            out = workload.op(case)
    except Exception as exc:  # a failing op is counted, and the loop goes on
        _record_times(loop, t0, c0)
        _report_failure(workload, i, loop, exc)
        return
    _record_times(loop, t0, c0)
    try:
        loop.health.append(workload.check(case, out))
    except Exception as exc:  # wrong or unreadable output counts the same way
        _report_failure(workload, i, loop, exc)


@functools.cache
def _probe_arrays():
    import numpy as np

    big = np.full((128, 128), 0.5 + 0.5j)
    stream = np.ones(1 << 19, dtype=np.complex128)  # 8 MB, four times L2
    small = np.full((8, 8), 0.5 + 0.5j)
    pair = np.eye(2, dtype=np.complex128), np.ones(2, dtype=np.complex128)
    # Every large result has its buffer here: a large temporary would move
    # glibc's mmap threshold and with it how the ops' own arrays are allocated.
    outs = np.empty_like(big), np.empty_like(stream), np.empty((64, 64), np.complex128)
    return big, stream, small, pair, outs


def _probe_once() -> float:
    import numpy as np

    big, stream, small, (m2, v2), (big_out, stream_out, kron_out) = _probe_arrays()
    t0 = time.process_time()
    acc, seen = 0, {}
    for i in range(10000):
        seen[i & 63] = acc = acc + i * i
    lines = [f"ROT {i} {acc / (i + 1)!r}" for i in range(600)]
    acc = sum(float(line.split()[2]) for line in lines)
    for _ in range(600):
        m2 @ v2
        np.abs(small).max()
    for _ in range(100):
        small * 2.0 + small
    np.matmul(big, big, out=big_out)
    np.multiply.outer(small, small, out=kron_out.reshape(8, 8, 8, 8))
    np.conjugate(stream, out=stream_out)
    return time.process_time() - t0


def speed_probe() -> float:
    """CPU seconds a fixed mix of work takes on this CPU now (best of a few).

    The mix follows an op's: about two thirds interpreted Python (a dict
    loop, formatting and parsing numbers, tiny numpy calls), the rest a
    dense complex matrix product, a small outer product and a pass over more
    memory than L2 holds. On a shared machine other tenants slow a CPU by
    1.3-2x for seconds to minutes; they slow the probe and the op next to it
    alike, which the probe measures and speed_scale undoes.
    """
    return min(_probe_once() for _ in range(SPEED_PROBE_REPEATS))


def speed_scale(probe_s: float) -> float:
    """Factor that takes a time measured next to `probe_s` to the reference speed."""
    return REFERENCE_PROBE_S / probe_s


def _record_times(loop: Loop, t0: float, c0: float) -> None:
    """Record the op's CPU and wall time, then probe the CPU it ran on, untimed."""
    loop.latencies.append(time.process_time() - c0)
    loop.wall.append(time.perf_counter() - t0)
    loop.probe_s.append(speed_probe())


def pin_to_quickest_cpu() -> float:
    """Pin this process to the allowed CPU that runs the speed probe quickest now.

    Another tenant often slows one CPU and not the other; ops on the quicker
    one vary less. Returns the probe time on the chosen CPU.
    """
    timings = []
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        timings.append((speed_probe(), cpu))
    best_s, cpu = min(timings)
    os.sched_setaffinity(0, {cpu})
    return best_s


def run_ops(workload, seed: int, tmp: Path, loop: Loop, stop, tracer=None) -> None:
    """Ops 0, 1, ... one after another until stop(ops done, seconds) holds.

    Each block of ops starts on the CPU that is quickest at that moment.
    """
    start = time.perf_counter()
    done = 0
    while not stop(done, time.perf_counter() - start):
        if done % len(workload.block) == 0:
            pin_to_quickest_cpu()
        attempt(workload, seed, done, tmp, loop, tracer)
        done += 1


def time_setup(workload, seed: int, tmp: Path, loop: Loop) -> tuple[float, float]:
    """Median CPU time of fresh interpreters that import qsim and finish a warm-up op.

    Each is scaled by the mean of speed probes just before and after it.
    Returns the scaled median and the median wall time.
    """
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload.name, str(seed), str(tmp)]
    times, raw = [], []
    for _ in range(SETUP_PROBES):
        before = pin_to_quickest_cpu()  # the probe process inherits the CPU
        loop.attempted += 1
        c0, t0 = _children_cpu_s(), time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, cwd=env.ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S
            )
            failure = f"exited {proc.returncode}\n{proc.stderr}" if proc.returncode else None
        except subprocess.TimeoutExpired:
            failure = f"timed out after {PROBE_TIMEOUT_S:g} s"
        raw.append(time.perf_counter() - t0)
        cpu = _children_cpu_s() - c0
        times.append(cpu * speed_scale((before + speed_probe()) / 2.0))
        if failure:
            loop.failed += 1
            print(f"bench: setup probe {failure}", file=sys.stderr)
    return statistics.median(times), statistics.median(raw)


def _children_cpu_s() -> float:
    """User and system CPU seconds of all ended child processes so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_end_to_end(workload, seed: int, seconds: float, tmp: Path):
    loop = Loop()
    setup_s, setup_raw_s = time_setup(workload, seed, tmp, loop)
    attempt(workload, seed, -1, tmp, loop)  # warm-up: lazy imports and caches
    warm = len(loop.latencies)
    block = len(workload.block)

    def stop(done: int, elapsed: float) -> bool:
        if done == 0 or done % block:
            return False
        return elapsed >= MAX_MEASURE_S or (done >= MIN_OPS and elapsed >= seconds)

    run_ops(workload, seed, tmp, loop, stop)
    scaled, raw = loop.scaled(warm), loop.wall[warm:]
    p50, p90, ops_per_s = _latency_stats(workload, seed, scaled)
    raw_p50, raw_p90, raw_ops_per_s = _latency_stats(workload, seed, raw)
    cpu_p50, cpu_p90, cpu_ops_per_s = _latency_stats(workload, seed, loop.latencies[warm:])
    metrics = {
        "op_p50_ms": p50,
        "op_p90_ms": p90,
        "ops_per_s": ops_per_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "op_p90_ms": f"{len(scaled)} ops, {sum(t > p90 / 1e3 for t in scaled)} beyond p90",
        "ops_per_s": "block mix, each size at the median of its latencies",
        "setup_s": f"median of {SETUP_PROBES} cold starts",
    }
    lines = [_line(name, metrics[name], unit, notes.get(name)) for name, unit in END_TO_END]
    lines.append(
        _line("error_rate", loop.failed / loop.attempted, "fraction",
              f"{loop.failed} failed of {loop.attempted} attempted")
    )
    lines.append(
        f"# wall, unscaled: op_p50_ms = {raw_p50:.4f}, op_p90_ms = {raw_p90:.4f}, "
        f"ops_per_s = {raw_ops_per_s:.4f}, setup_s = {setup_raw_s:.4f}"
    )
    lines.append(
        f"# cpu, unscaled: op_p50_ms = {cpu_p50:.4f}, op_p90_ms = {cpu_p90:.4f}, "
        f"ops_per_s = {cpu_ops_per_s:.4f}"
    )
    lines.append(_speed_line(loop.probe_s))
    return loop, {name: (metrics[name], unit) for name, unit in END_TO_END}, lines


def _latency_stats(workload, seed: int, latencies: list[float]) -> tuple[float, float, float]:
    """Median and 90th percentile in ms, and the ops per second of the block's mix.

    The throughput takes each size at the median of its latencies, so one
    slowed op moves it no more than it moves the percentiles.
    """
    ms = sorted(1e3 * t for t in latencies)
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[8]
    by_size: dict[int, list[float]] = {}
    for i, t in enumerate(latencies):
        by_size.setdefault(workload.size(seed, i), []).append(t)
    per_op = sum(statistics.median(by_size[size]) for size in workload.block)
    return statistics.median(ms), p90, len(workload.block) / per_op


def measure_per_layer(workload, seed: int, seconds: float, tmp: Path):
    import layers
    from tracer import Tracer

    warm, traced, replay = Loop(), Loop(), Loop()
    attempt(workload, seed, -1, tmp, warm)  # warm-up: lazy imports and caches
    block = len(workload.block)
    budget = min(seconds, MAX_MEASURE_S) / 2.0
    tracer = Tracer(layers.TRACED, layers.OBSERVERS)
    tracer.install()
    try:
        run_ops(workload, seed, tmp, traced,
                lambda done, elapsed: done > 0 and done % block == 0 and elapsed >= budget,
                tracer)
    finally:
        tracer.uninstall()
    ops = traced.attempted
    run_ops(workload, seed, tmp, replay, lambda done, elapsed: done == ops)
    overhead_pct = 100.0 * (sum(traced.scaled()) / sum(replay.scaled()) - 1.0)
    phases = (warm, traced, replay)
    loop = Loop(attempted=sum(p.attempted for p in phases), failed=sum(p.failed for p in phases))
    metrics = layers.per_layer(
        tracer.spans, tracer.observations, ops, traced.health, overhead_pct,
        loop.failed / loop.attempted, traced.scales(),
    )
    lines = [_line(name, value, unit) for name, (value, unit) in metrics.items()]
    lines.append(_speed_line(traced.probe_s + replay.probe_s))
    lines.append(f"# traced ops: {ops}; spans: {len(tracer.spans)}")
    top = sorted(layers.shares(tracer.spans).items(), key=lambda kv: -kv[1])[:6]
    lines += [f"# self-time share {name} = {share:.3f}" for name, share in top]
    claim, holds = layers.where_work_goes(workload.name, tracer.spans)
    lines.append(f"# where the work goes: {claim}: {'yes' if holds else 'no'}")
    return loop, metrics, lines


def _speed_line(probe_s: list[float]) -> str:
    return (f"# machine speed probe: median {1e6 * statistics.median(probe_s):.1f} us after "
            f"{len(probe_s)} ops, reference {1e6 * REFERENCE_PROBE_S:.1f} us; "
            "times above are scaled by reference / probe")


def _line(name: str, value: float, unit: str, note: str | None = None) -> str:
    return f"{name} = {value!r} {unit}" + (f"  ({note})" if note else "")


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("the seed must be nonnegative")
    return value


def _seconds(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("--seconds must be positive")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=_seconds, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One BLAS thread, set before numpy loads: the client is one closed loop,
    # and on a small shared machine a second thread adds noise, not speed,
    # at these matrix sizes. Setup probes inherit it.
    os.environ.update({key: "1" for key in BLAS_THREAD_VARS})
    try:
        env.use_checkout_sources()
    except env.MissingSources as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    for key, value in env.machine_info().items():
        print(f"# machine.{key} = {value}")
    print(f"# workload {workload.name}, sizes {workload.block} per block, "
          f"seed {args.seed}, seconds {args.seconds:g}, trace {args.trace}")
    tmp_root = env.ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        measure = measure_per_layer if args.trace else measure_end_to_end
        loop, metrics, lines = measure(workload, args.seed, args.seconds, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp_root.rmdir()
    print("\n".join(lines))
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
