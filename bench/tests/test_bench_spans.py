"""The span tracer and the runner's handling of it.

Run from the repository root: python3 -m pytest bench/tests
"""

import json
import os
import shutil
import subprocess

import pytest

import run
import spans
import workloads
from spans import Tracer

# layers each workload must reach, by span-name prefix
LAYERS = {
    "verify_matrix": {"model", "spectrum", "oracle"},
    "field_sweep": {"model", "spectrum", "cli"},
    "random_spectra": {"model", "spectrum", "wavefunc", "special", "nu"},
}
SITES = spans.SPAN_SITES + spans.COUNT_SITES


def wrapped_sites() -> list[str]:
    return [f"{mod}.{attr}" for mod, attr, _ in SITES
            if hasattr(getattr(spans._module(mod), attr), "__wrapped__")]


@pytest.mark.parametrize("name", sorted(LAYERS))
def test_every_layer_records_a_span(name, tmp_path):
    workload = workloads.WORKLOADS[name](seed=3, workdir=str(tmp_path))
    requests = workload.pass_requests(0)
    if name == "verify_matrix":  # a one-root request keeps the test short
        requests = [next(r for r in requests if r.n == 0 and len(r.refs) == 1)]
    else:
        requests = sorted(requests, key=lambda r: -len(getattr(r, "refs", ())))[:3]
    tracer, counter = Tracer(), Tracer(counting=True)
    try:
        for active, sites in ((tracer, spans.SPAN_SITES), (counter, spans.COUNT_SITES)):
            with active:
                assert len(wrapped_sites()) == len(sites)
                for req in requests:
                    workload.check(req, workload.execute(req))
            assert wrapped_sites() == []
    finally:
        workload.close()
    assert tracer.counts == {}
    seen = {label.split(".")[0] for label in tracer.summary()}
    assert LAYERS[name] <= seen, seen
    starts, ends = tracer.start.tolist(), tracer.end.tolist()
    assert all(s <= e for s, e in zip(starts, ends))
    for index, parent in enumerate(tracer.parent.tolist()):
        assert parent < index
        if parent >= 0:
            assert starts[parent] <= starts[index] and ends[index] <= ends[parent]
    if name == "verify_matrix":
        assert tracer.grid_points > 0
    if name == "random_spectra":
        assert counter.counts["special.laguerre"] > 0
        assert counter.counts["special.log_gamma"] > 0
    assert counter.start.tolist() == []


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.names = ["outer", "inner"]
    for name, start, end, parent in ((0, 0.0, 10.0, -1), (1, 1.0, 4.0, 0), (1, 5.0, 6.0, 0)):
        tracer.name.append(name)
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)
    summary = tracer.summary()
    assert summary["outer"]["self_s"] == pytest.approx(6.0)
    assert summary["inner"]["calls"] == 2
    assert summary["inner"]["self_s"] == pytest.approx(4.0)


@pytest.mark.parametrize("trace", [0, 1])
def test_untraced_run_installs_no_wrapper(trace, monkeypatch, capsys):
    """Every op of a --trace 0 run sees the original functions; a --trace 1
    run runs each request once without the wrappers and twice with them
    (spans, then counters) in its first pass, and removes them after."""
    seen = []
    real_run_op = run.run_op

    def spy(workload, req):
        seen.append(bool(wrapped_sites()))
        return real_run_op(workload, req)

    monkeypatch.setattr(run, "run_op", spy)
    monkeypatch.setattr(run, "setup_seconds", lambda count: [0.5] * count)
    argv = ["--workload", "field_sweep", "--seed", "1", "--seconds", "0.001", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["attempted"] == 3
    assert wrapped_sites() == []
    if trace:
        assert seen == [False, True, True, True, False, True, False, True, True]
    else:
        assert seen == [False, False, False]
    metrics = {m["name"] for m in bench_spec()["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == metrics


def test_tail_percentile():
    assert run.tail([float(i) for i in range(1, 41)]) == (30.0, 75.0)
    assert run.tail([1.0, 2.0]) == (2.0, 100.0)


def bench_spec() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    spec = bench_spec()
    proc = subprocess.run(
        spec["command"] + ["--workload", "verify_matrix", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=""),
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
