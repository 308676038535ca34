"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
from pathlib import Path

import pytest

import run
import tracing
import workloads
from bdbridge import filters

BENCHMARK = json.loads((Path(run.BENCH_DIR).parent / "BENCHMARK.json").read_text())


def _declared(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_prints_every_metric_with_unit(name, trace, capsys):
    result, info = run.run(name, 5, 0.05, trace, sizes=workloads.TINY, probes=1)
    run.emit(result, info)
    lines = capsys.readouterr().out.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: m["unit"] for k, m in last["metrics"].items()} == declared
    for metric, unit in declared.items():
        assert any(line.split() == [metric, line.split()[1], unit] for line in lines), metric
    assert json.loads(lines[-2])["seed"] == 5


def test_traced_ops_reproduce_untraced_outputs():
    for name in workloads.WORKLOADS:
        work = workloads.make(name, workloads.TINY)
        work.setup()
        plain = work.values(work.op(workloads.op_stream(9, 0)))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            with tracer.op(0):
                traced = work.values(work.op(workloads.op_stream(9, 0), tracer))
        finally:
            tracer.uninstall()
        assert workloads.digest(traced) == workloads.digest(plain), name
        assert tracer.spans and not tracer.missing


def test_self_time_on_synthetic_span_tree():
    S = tracing.Span
    spans = [
        S(1, "op", 0.0, 10.0, None, 0),
        S(2, "filters.step", 1.0, 6.0, 1, 0),
        S(3, "sampler.draw", 2.0, 4.0, 2, 0),
        # overlaps span 3, as a child running on another thread would
        S(4, "likelihood.path_loglik", 3.0, 5.0, 2, 0),
        # runs past its parent's end; only the covered part counts
        S(5, "counting.log_count", 5.5, 7.0, 2, 0, {"key": "a"}),
        S(6, "filters.step", 7.0, 8.0, 1, 0),
    ]
    own = tracing.self_times(spans)
    assert own[2] == pytest.approx(5.0 - 3.0 - 0.5)
    assert own[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[3] == pytest.approx(2.0)
    metrics = tracing.op_metrics(spans, threads=2)
    assert metrics["filters.step_s"] == pytest.approx(6.0)
    assert metrics["filters.step_self_s"] == pytest.approx(1.5 + 1.0)
    assert metrics["filters.steps"] == 2
    assert metrics["counting.distinct_frac"] == 1.0


def test_missing_wrapper_target_is_reported_not_raised():
    targets = (("filters", "_no_such_sampler", "sampler.draw"),
               ("filters", "batch_path_loglik", "likelihood.path_loglik"))
    original = filters.batch_path_loglik
    work = workloads.make("filter-shigellosis", workloads.TINY)
    work.setup()
    tracer = tracing.Tracer(targets=targets)
    tracer.install()
    try:
        assert filters.batch_path_loglik is not original
        with tracer.op(0):
            work.op(workloads.op_stream(1, 0), tracer)
    finally:
        tracer.uninstall()
    assert filters.batch_path_loglik is original
    assert tracer.missing == ["filters._no_such_sampler"]
    values, missing = tracing.layer_metrics(tracer, threads=1)
    assert "sampler.draw_s" in missing and "sampler.accept_frac" in missing
    assert values["sampler.draw_s"] == 0.0
    assert "likelihood.path_loglik_s" not in missing
    assert values["likelihood.path_loglik_s"] > 0.0


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail([float(x) for x in range(25)]) == (14.0, 60.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
