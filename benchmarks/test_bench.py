"""Tests of the benchmark harness itself (span arithmetic, wrappers, gates, inputs)."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from covertree import analysis, cli, cover, graph_core

import bench_trace
import run
from bench_inputs import rng_for
from bench_trace import Span, Tracer, layer_metrics, outermost, self_times
from bench_workloads import (check_agreement, check_series, check_verify, make_ops, oracle_arcs,
                             star)

HERE = Path(__file__).resolve().parent


def test_self_time_subtracts_direct_children():
    spans = [
        Span(0, "a", 0.0, 10.0, None, "r"),
        Span(1, "b", 1.0, 4.0, 0, "r"),
        Span(2, "c", 5.0, 7.0, 0, "r"),
        Span(3, "b", 2.0, 3.0, 1, "r"),
    ]
    assert self_times(spans) == {0: 5.0, 1: 2.0, 2: 2.0, 3: 1.0}
    assert [s.id for s in outermost(spans, {"b"})] == [1]
    assert [s.id for s in outermost(spans, {"b", "c"})] == [1, 2]


def test_wrappers_record_nested_spans_and_are_restored():
    originals = {(m, n): getattr(bench_trace.MODULES[m], n)
                 for m, names in bench_trace.WRAPPED.items() for n in names}
    g = graph_core.generate("petersen")
    f = cover.indicator_field(g, cover.VERTICES, 0)
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert cover.set_average is not originals[("cover", "set_average")]
            analysis.deviation_series(g, f, set_kind="sphere", radius=3, root=0)
            layers = list(cover.arc_vertex_layers(g, 0, 3))
            raise RuntimeError("leave the block early")
    for (m, n), fn in originals.items():
        assert getattr(bench_trace.MODULES[m], n) is fn
    names = [s.name for s in tracer.spans]
    assert names.count("cover.arc_vertex_layers") == 5    # four layers plus the exhausting call
    by_id = {s.id: s for s in tracer.spans}
    sums = [s for s in tracer.spans if s.name == "cover.arc_vertex_sums"]
    assert len(sums) == 3 and all(by_id[s.parent].name == "analysis.deviation_series" for s in sums)
    assert sum(s.info.get("elements", 0) for s in tracer.spans) == sum(map(len, layers))


def test_layer_metrics_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    metrics = layer_metrics([], [], 1, 1.0, 0, 0.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, (_, unit) in metrics.items()]
    res = {"passes": [{"scaled": [1.0, 2.0]}], "classes": ["small", "large"], "peak_rss_mb": 1.0}
    names = list(run.end_to_end(res, [0.5]))
    assert [m["name"] for m in spec["end_to_end"]] == names


def test_oracle_gate_rejects_a_1e_9_perturbation():
    g = graph_core.generate("petersen")
    f = cli.random_field(g, cover.EDGES, 3)
    enumerated, sizes, averages = oracle_arcs(g, f, 4, False)
    assert check_agreement((enumerated, sizes, averages)) is None
    averages[5] += 1e-9
    assert check_agreement((enumerated, sizes, averages)) is not None


def test_series_gate_rejects_a_1e_9_perturbation():
    g = graph_core.generate("petersen")
    f = cli.random_field(g, cover.VERTICES, 3)
    tube = star(g, 0)
    report = analysis.deviation_series(g, f, set_kind="tube", radius=120, subtree=tube,
                                       budget=10 ** 40)
    reference = [cover.set_average(f, cover.tube_vertices(g, tube, r)) for r in range(9)]
    sizes = [4] + [6 * 2 ** (r - 1) for r in range(1, 121)]
    assert check_series(report, sizes, reference) is None
    report.averages[3] += 1e-9
    assert check_series(report, sizes, reference) is not None


def test_verify_gate_counts_checks_per_eigenvector():
    names = [f"recursion mu={k}" for k in range(9)] + [f"envelope mu={k}" for k in range(9)]
    names.append("random-field envelope")
    doc = {"checks": [{"name": n, "passed": True, "detail": ""} for n in names]}
    stdout = "".join(f"PASS {n}: x\n" for n in names) + "INFO fit\n"
    assert check_verify(0, stdout, doc, 1, 10) is None
    assert check_verify(0, stdout, doc, 2, 10) is not None   # vanishing-star check missing
    assert check_verify(0, stdout, doc, 1, 11) is not None   # one eigenvector short
    assert check_verify(1, stdout, doc, 1, 10) is not None


@pytest.mark.parametrize("workload", ["verify_ladder", "oracle_crosscheck"])
def test_same_seed_gives_same_graph_digests(tmp_path, workload):
    def digests(seed, name):
        return make_ops(workload, rng_for(workload, seed, 0), tmp_path / name)[1]

    first = digests(7, "a")
    assert first == digests(7, "b")
    assert first != digests(8, "c")
    assert any(name.endswith(".g") for name in first)


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("_*"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "series_deep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0 and proc.stdout == ""


def test_tail_needs_ten_samples_beyond():
    assert run.tail([1.0] * 19) is None
    p, value, beyond = run.tail(list(range(1, 201)))
    assert (p, value, beyond) == (95.0, 190, 10)
