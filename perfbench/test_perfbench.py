"""The traced run of the harness: every per-layer metric is emitted and
every count repeats exactly between two runs of the same inputs.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json

import pytest

import run
import tracing
import workloads

COUNT_SUFFIXES = (".calls", ".ops", ".pairs", ".candidates_tried")


def traced_tiny(workload, spans_path):
    lib, jobs = run.setup(workload, workloads.DEFAULT_SEED, tiny=True)
    runner = run.Runner(workload, workloads.DEFAULT_SEED, jobs)
    metrics = run.trace(runner, 0, lib, spans_path)
    return runner, metrics


def span_names(path):
    with open(path) as fh:
        return {json.loads(line)["name"] for line in fh}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat(workload, tmp_path):
    first_runner, first = traced_tiny(workload, tmp_path / "first.jsonl")
    second_runner, second = traced_tiny(workload, tmp_path / "second.jsonl")
    assert first_runner.failed == second_runner.failed == 0
    assert list(first) == list(tracing.PER_LAYER)
    counts = [name for name in first
              if name.endswith(COUNT_SUFFIXES) or name == "fields.lifts"]
    assert counts
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    names = span_names(tmp_path / "first.jsonl")
    assert names
    if workload == "match-gfp2":
        # the B5 job rebuilds standard models through the wrapped
        # private stages and the generators_B candidate counter
        assert {"certify.rebuild_model", "certify.verify_table"} <= names
        assert first["certify.rebuild_model.candidates_tried"] > 0
        assert first["certify.verify_table.pairs"] > 0


def test_all_entry_points_resolve():
    run.import_package()
    tracer = tracing.Tracer()
    with tracer.installed():
        pass
    assert tracer.missing == []
