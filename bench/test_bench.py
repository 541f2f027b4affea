"""Tests of the benchmark itself, on tiny sizes; they run in seconds.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import generate  # noqa: E402
import run  # noqa: E402
import traced  # noqa: E402
from capgraph import cli  # noqa: E402
from child import pipeline_config  # noqa: E402

TINY = {
    "align-long": {"videos": 2, "frames": 24, "dim": 16},
    "detect-dense": {"videos": 3, "frames": 8, "dim": 8, "detections_per_frame": 12},
    "chat-replay": {"videos": 6, "frames": 6},
    "eval-recall": {"gt_frames": 40},
}


def _files(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_generator_is_deterministic(workload, tmp_path):
    first = generate.generate(workload, 7, tmp_path / "a", **TINY[workload])
    second = generate.generate(workload, 7, tmp_path / "b", **TINY[workload])
    other = generate.generate(workload, 8, tmp_path / "c", **TINY[workload])
    assert first == second
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


@pytest.mark.parametrize("workload", ["align-long", "detect-dense", "chat-replay"])
def test_traced_pipeline_writes_run_all_bytes(workload, tmp_path):
    data = tmp_path / "data"
    facts = generate.generate(workload, 3, data, **TINY[workload])
    cli.run_all(pipeline_config(workload, str(data), str(tmp_path / "plain")))
    tracer = traced.Tracer()
    traced.run_pipeline(pipeline_config(workload, str(data), str(tmp_path / "traced")), tracer)
    for name in run.PIPELINE_OUTPUTS:
        assert (tmp_path / "traced" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
    report = json.loads((tmp_path / "plain" / "report.json").read_text())
    assert report["sentences"] == facts["sentences"]
    calls = sum(1 for span in tracer.spans if span[0] == "llm.complete")
    assert calls == facts["chat_calls"]
    assert tracer.counts.get("llm.cache_misses", 0) == 0


def test_traced_eval_writes_eval_command_bytes(tmp_path):
    data = tmp_path / "data"
    facts = generate.generate("eval-recall", 3, data, **TINY["eval-recall"])
    (tmp_path / "plain").mkdir()
    (tmp_path / "traced").mkdir()
    cli.main(["eval", "--gt", str(data / "gt.ndjson"), "--pred", str(data / "pred.ndjson"),
              "--json-out", str(tmp_path / "plain" / "eval.json")], standalone_mode=False)
    tracer = traced.Tracer()
    traced.run_eval(str(data / "gt.ndjson"), str(data / "pred.ndjson"),
                    str(tmp_path / "traced" / "eval.json"), tracer)
    assert (tmp_path / "traced" / "eval.json").read_bytes() == \
        (tmp_path / "plain" / "eval.json").read_bytes()
    assert tracer.counts["evaluate.gt_frames"] == facts["gt_frames"]


def test_self_time_subtracts_children():
    spans = [["cli.run_all", 0.0, 10.0, -1, None],
             ["align.cluster_frames", 1.0, 4.0, 0, "v"],
             ["llm.complete", 5.0, 6.0, 0, "v"]]
    assert traced.self_times(spans) == [6.0, 3.0, 1.0]


def test_percentile_needs_ten_samples_beyond_it():
    assert traced.percentile([1.0] * 19, 50) is None
    assert traced.percentile([float(i) for i in range(20)], 50) == pytest.approx(9.5)
    assert traced.percentile([1.0] * 99, 90) is None
    assert traced.percentile([1.0] * 100, 90) == 1.0


def test_benchmark_json_names_what_the_runner_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert list(generate.WORKLOADS) == list(run.WORKLOADS)
    # align-long and detect-dense stay runnable by hand but are not in
    # BENCHMARK.json: see the note at the top of run.py.
    assert [w["name"] for w in spec["workloads"]] == list(run.GATED)
    assert set(run.GATED) <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
