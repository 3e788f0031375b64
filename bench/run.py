#!/usr/bin/env python3
"""diracosc benchmark: one workload, one run, one JSON result line.

Run from the repository root:

    python3 bench/run.py --workload verify_matrix --seed 1 --seconds 20 --trace 0

Workloads are defined in ``workloads.py``.  Load is a closed loop: one
caller in one process sends the next request when the previous one has
returned.  BLAS and OpenMP are pinned to one thread.

The run builds its fixed list of requests and their reference answers from
``--seed`` (untimed), warms up with one op, then runs whole passes over the
requests while another pass still fits in ``--seconds`` of op time (at
least one).
Each op is timed alone; its answer is checked against the independent
reference in ``reference.py`` right after, outside the timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every
request twice in a row, untraced and with the span tracer of ``spans.py``
installed, and in the first pass a third time with its call counter
installed; it prints the per-layer metrics of the traced runs.  Per-layer counts and times are per op, and
``trace.overhead_s`` is the span-traced op time minus the untraced op time,
per op.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``.
An op fails when its answer disagrees with the reference or it raises;
``failed`` counts those.  ``correct`` is false when the program gave two
different answers to one request within the run (across passes, or traced
against untraced).  The line before it holds the run's metadata, which is
also written with the failure reasons to ``bench/out/``.
"""

from __future__ import annotations

import os

# before numpy is imported, here and in every subprocess
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import mpmath  # noqa: E402
import numpy  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Verdict  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

# fresh-interpreter imports per run, one every 1/SETUP_SAMPLES of the run's
# op time and the rest after the ops, so that the median spans the machine's
# state over the whole run (its speed drifts over tens of seconds)
SETUP_SAMPLES = 12
SETUP_CODE = (
    "import time; t = time.perf_counter(); import diracosc; "
    "print(repr(time.perf_counter() - t)); print(diracosc.__file__)"
)
# the tail latency is the highest percentile with this many samples beyond it
TAIL_BEYOND = 10

END_TO_END = {
    "ops_per_s": "1/s",
    "states_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
}


def fail(message: str) -> None:
    print(f"bench/run.py: {message}", file=sys.stderr)
    sys.exit(2)


def setup_seconds(count: int) -> list[float]:
    """Wall time of ``import diracosc`` in ``count`` fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=SRC)
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            fail(f"import diracosc failed:\n{proc.stderr}")
        seconds, path = proc.stdout.split("\n")[:2]
        if not path.startswith(SRC + os.sep):
            fail(f"imported diracosc from {path}, not from {SRC}")
        samples.append(float(seconds))
    return samples


def import_program():
    sys.path.insert(0, SRC)
    import diracosc

    if not diracosc.__file__.startswith(SRC + os.sep):
        fail(f"imported diracosc from {diracosc.__file__}, not from {SRC}")
    return diracosc


@dataclass(slots=True)
class Op:
    """One timed request and its checked answer."""

    req: object
    latency: float
    verdict: object


def run_op(workload, req) -> Op:
    t0 = time.perf_counter()
    try:
        result = workload.execute(req)
    except Exception as exc:  # an op that raises is a failed op
        latency = time.perf_counter() - t0
        return Op(req, latency, Verdict(True, 0, f"raised {exc!r}", output=repr(exc)))
    latency = time.perf_counter() - t0
    try:
        verdict = workload.check(req, result)
    except Exception as exc:  # an answer the check cannot read is wrong
        verdict = Verdict(True, 0, f"check raised {exc!r}", output=repr(result))
    return Op(req, latency, verdict)


def measure(workload, seconds: float, spans=None, counts=None, setup=None) -> list[list[list[Op]]]:
    """[untraced, span-traced, counted] passes: whole passes while the next
    one still fits in ``seconds`` of untraced op time.

    With a ``setup`` list, a set-up sample is appended to it between two
    ops each time another ``seconds / SETUP_SAMPLES`` of op time has passed.

    With tracers, each request runs a second time with the span tracer
    installed, right after or (every other request) right before its
    untraced run, so that both runs see the same state of the machine; and
    in the first pass a third time with the call counter installed (every
    pass holds the same requests, so later passes would count the same).
    """
    runs: list[list[list[Op]]] = [[], [], []]
    spent = 0.0
    count = 0
    next_sample = 0.0
    while True:
        plain, spanned, counted = [], [], []
        for req in workload.pass_requests(len(runs[0])):
            if setup is not None and spent >= next_sample:
                setup.extend(setup_seconds(1))
                next_sample += seconds / SETUP_SAMPLES
            if spans is not None and count % 2:
                with spans:
                    spanned.append(run_op(workload, req))
            plain.append(run_op(workload, req))
            spent += plain[-1].latency
            if spans is not None and not count % 2:
                with spans:
                    spanned.append(run_op(workload, req))
            if counts is not None and not runs[0]:
                with counts:
                    counted.append(run_op(workload, req))
            count += 1
        for run, ops in zip(runs, (plain, spanned, counted)):
            run.append(ops)
        if spent + sum(op.latency for op in plain) > seconds:
            return runs


def busy(passes: list[list[Op]]) -> float:
    return sum(op.latency for ops in passes for op in ops)


def consistent(*runs: list[list[Op]]) -> bool:
    """Every request got one and the same answer each time it ran."""
    seen = {}
    for run in runs:
        for ops in run:
            for op in ops:
                if seen.setdefault(id(op.req), op.verdict.output) != op.verdict.output:
                    return False
    return True


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with ``TAIL_BEYOND``
    samples beyond it, or the maximum when there are too few samples."""
    xs = sorted(latencies)
    if len(xs) <= TAIL_BEYOND:
        return xs[-1], 100.0
    k = len(xs) - TAIL_BEYOND - 1
    return xs[k], 100.0 * (k + 1) / len(xs)


def end_to_end(ops: list[Op], setup: list[float]) -> tuple[dict, dict]:
    lat = [op.latency for op in ops]
    busy = sum(lat)
    tail_s, pct = tail(lat)
    values = {
        "ops_per_s": len(ops) / busy,
        "states_per_s": sum(op.verdict.states for op in ops) / busy,
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "setup_s": statistics.median(setup),
    }
    info = {
        "latency_samples": len(lat),
        "latency_tail_percentile": pct,
        "latency_tail_samples_beyond": min(TAIL_BEYOND, len(lat) - 1),
        "busy_s": busy,
        "setup_samples_s": setup,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, info


# (metric, unit, span name, field); field "calls" and "self_s" are per op
SPAN_METRICS = (
    ("model.reduced_coefficients.calls", "count/op", "model.reduced_coefficients", "calls"),
    ("spectrum.find_states.calls", "count/op", "spectrum.find_states", "calls"),
    ("spectrum.find_states.self_s", "s/op", "spectrum.find_states", "self_s"),
    ("spectrum.energy_condition.calls", "count/op", "spectrum.energy_condition", "calls"),
    ("spectrum.sweep.self_s", "s/op", "spectrum.sweep", "self_s"),
    ("oracle.compare.self_s", "s/op", "oracle.compare", "self_s"),
    ("oracle.self_consistent_energy.calls", "count/op", "oracle.self_consistent_energy", "calls"),
    ("oracle.fd_eigenvalue.calls", "count/op", "oracle.fd_eigenvalue", "calls"),
    ("oracle.fd_eigenvalue.self_s", "s/op", "oracle.fd_eigenvalue", "self_s"),
    ("oracle.sturm_count.self_s", "s/op", "oracle.sturm_count", "self_s"),
    ("wavefunc.radial_profile.self_s", "s/op", "wavefunc.radial_profile", "self_s"),
    ("wavefunc.ode_residual.self_s", "s/op", "wavefunc.ode_residual", "self_s"),
    ("wavefunc.count_nodes.self_s", "s/op", "wavefunc.count_nodes", "self_s"),
    ("special.integrate_halfline.calls", "count/op", "special.integrate_halfline", "calls"),
    ("special.integrate_halfline.self_s", "s/op", "special.integrate_halfline", "self_s"),
    ("nu.pi_candidates.self_s", "s/op", "nu.pi_candidates", "self_s"),
    ("nu.eigen_condition.calls", "count/op", "nu.eigen_condition", "calls"),
    ("cli.main.self_s", "s/op", "cli.main", "self_s"),
)
# (metric, unit) summed over the checked ops, per op
COUNTER_METRICS = (
    ("spectrum.roots_reported", "count/op"),
    ("spectrum.roots_missed", "count/op"),
    ("spectrum.roots_extra", "count/op"),
    ("oracle.unconfirmed", "count/op"),
    ("cli.bytes_written", "B/op"),
)


def per_layer(spans, counts, ops: list[Op], counted: int, overhead: float) -> dict:
    """Per-layer metrics of the span-traced ops; ``counts`` counted the
    ``counted`` ops of the first pass in a run of their own."""
    summary = spans.summary()
    n = len(ops)
    out = {}
    for metric, unit, name, key in SPAN_METRICS:
        out[metric] = (summary.get(name, {}).get(key, 0) / n, unit)
    fd = summary.get("oracle.fd_eigenvalue")
    out["oracle.fd_eigenvalue.p50_ms"] = (fd["p50_s"] * 1e3 if fd else 0.0, "ms")
    out["oracle.grid_points"] = (spans.grid_points / n, "count/op")
    out["special.laguerre.calls"] = (counts.counts["special.laguerre"] / counted, "count/op")
    out["special.log_gamma.calls"] = (counts.counts["special.log_gamma"] / counted, "count/op")
    for metric, unit in COUNTER_METRICS:
        out[metric] = (sum(op.verdict.counters.get(metric, 0) for op in ops) / n, unit)
    diffs = [op.verdict.counters.get("oracle.max_abs_diff", 0.0) for op in ops]
    out["oracle.max_abs_diff"] = (max(diffs), "energy")
    out["trace.overhead_s"] = (overhead / n, "s/op")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def machine() -> dict:
    info = {
        "cpu_model": platform.processor() or platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "caches": {},
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level"), encoding="utf-8") as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "type"), encoding="utf-8") as fh:
                kind = fh.read().strip()
            with open(os.path.join(index, "size"), encoding="utf-8") as fh:
                size = fh.read().strip()
        except OSError:
            continue
        info["caches"][f"L{level}" + ("" if kind == "Unified" else f"-{kind.lower()}")] = size
    return info


def source_identity() -> dict:
    """The git commit when the tree is a repository, and always a hash of
    the program's sources."""
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=60
        )
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "diracosc", "*.py"))):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        fail(f"--seconds must be > 0, got {args.seconds}")

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if not os.path.isfile(os.path.join(SRC, "diracosc", "__init__.py")):
        fail(f"no diracosc package under {SRC}")
    diracosc = import_program()
    import scipy

    os.makedirs(OUT, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT)
    try:
        first = workload.pass_requests(0)[0]
        workload.execute(first)  # imports and first-call set-up, untimed

        spans, counts = (Tracer(), Tracer(counting=True)) if args.trace else (None, None)
        setup = None if args.trace else []
        runs = measure(workload, args.seconds, spans, counts, setup)
        untraced, traced = runs[:2]
        if args.trace:
            ops = [op for ops in traced for op in ops]
            overhead = busy(traced) - busy(untraced)
            metrics = per_layer(spans, counts, ops, len(runs[2][0]), overhead)
            info = {"spans": spans.summary()}
        else:
            ops = [op for ops in untraced for op in ops]
            setup.extend(setup_seconds(SETUP_SAMPLES - len(setup)))
            metrics, info = end_to_end(ops, setup)
        info["near_edge_share"] = workload.near_edge_share()
    finally:
        workload.close()

    failed = [op for op in ops if op.verdict.failed]
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(untraced),
        "load": "closed loop, 1 caller, 1 process",
        "machine": machine(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "diracosc": diracosc.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        **source_identity(),
        **info,
    }
    result = {
        "correct": consistent(*runs),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }
    record = dict(meta, result=result, failures=[
        {"request": repr(op.req)[:400], "reason": op.verdict.reason} for op in failed
    ])
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"run-{name}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        spans.dump(os.path.join(OUT, f"spans-{name}.npz"))
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
