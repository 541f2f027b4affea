"""Offline, seeded benchmark of the capgraph pipeline and evaluator.

    python3 bench/run.py --workload chat-replay --seed 0 --seconds 20 --trace 0

Run from the repository root (or anywhere: paths are resolved from this
file). For the chosen workload it

1. generates a dataset from ``--seed`` (``generate.py``) and checks it with
   ``capgraph validate`` (pipeline workloads) or by loading both graph files
   (eval-recall);
2. runs passes one at a time, each in its own child process (``child.py``),
   until ``--seconds`` have passed: a closed loop with one caller and
   ``workers=1``. A pass is one ``capgraph.cli.run_all`` call or one
   ``capgraph eval`` command over the whole dataset;
3. with ``--trace 1``, follows each untraced pass with two traced ones
   (``traced.py``) and reports per-layer numbers from the traced passes;
4. checks every pass's outputs: SHA-256 of each output file against the
   digests pinned in ``digests.json`` for this seed, or, for a seed without
   pins, against the first pass of the run; traced outputs must equal the
   untraced ones byte for byte.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
An operation is a video (pipeline workloads) or a ground-truth frame
(eval-recall); a pass that fails or writes wrong outputs fails every
operation it attempted.

``align-long`` (k-means at T=192, D=512) and ``detect-dense`` (48 boxes a
frame) run by hand like the others, but they are not among the workloads in
``BENCHMARK.json`` (``GATED``): on a shared 2-vCPU host the speed of the
host drifts by 15-25% over minutes, and with four workloads, or three, the
contract's time limit leaves runs too short to average that drift out.

``--pin SEEDS`` (e.g. ``0-31``) instead runs one pass per workload and seed
and records its digests in ``digests.json`` (only ``--workload``'s, if it is
given). Run it on the commit whose outputs are the reference.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = BENCH / "digests.json"

MIN_ROUNDS = 3
# Stop starting passes after this long, so a run ends well within 180 s.
HARD_STOP_S = 120.0
PASS_TIMEOUT_S = 150.0

WORKLOADS = ("align-long", "detect-dense", "chat-replay", "eval-recall")
# The workloads BENCHMARK.json names; between them they run every layer.
GATED = ("chat-replay", "eval-recall")
PIPELINE_OUTPUTS = ("sentences.ndjson", "scene_graphs.ndjson", "negatives.ndjson",
                    "trace.ndjson", "report.json")

END_TO_END = {
    # name -> unit
    "ops_per_s": "ops/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

PER_LAYER = {
    "ingest.load_bundle_s": "s",
    "ingest.read_embeddings_s": "s",
    "ingest.load_detections_s": "s",
    "ingest.detection_lines": "count",
    "ingest.detection_lines_per_s": "lines/s",
    "ingest.detections_kept_ratio": "ratio",
    "ingest.load_scene_graphs_s": "s",
    "ingest.scene_graph_lines_per_s": "lines/s",
    "ingest.write_s": "s",
    "ingest.bytes_written": "bytes",
    "ingest.self_s": "s",
    "segment.segment_caption_s": "s",
    "segment.segment_caption_ms_p50": "ms",
    "segment.sentences": "count",
    "segment.captions_capped": "count",
    "segment.self_s": "s",
    "llm.complete_calls": "count",
    "llm.complete_s": "s",
    "llm.complete_us_p50": "us",
    "llm.complete_us_p90": "us",
    "llm.repeat_share": "ratio",
    "llm.cache_misses": "count",
    "llm.network_calls": "count",
    "llm.self_s": "s",
    "align.cluster_frames_s": "s",
    "align.cluster_frames_ms_p50": "ms",
    "align.cluster_frames_ms_p90": "ms",
    "align.align_sentences_s": "s",
    "align.frames": "count",
    "align.clusters": "count",
    "align.kmeans_tkd": "count",
    "align.aligned_share": "ratio",
    "align.aligned_frame_share": "ratio",
    "align.self_s": "s",
    "parse.parse_triplets_s": "s",
    "parse.map_classes_s": "s",
    "parse.ground_triplets_s": "s",
    "parse.ground_triplets_ms_p90": "ms",
    "parse.triplets_extracted": "count",
    "parse.mapped_share": "ratio",
    "parse.grounded_triplets": "count",
    "parse.grounded_share": "ratio",
    "parse.self_s": "s",
    "motion.collect_unaligned_runs_s": "s",
    "motion.build_candidates_s": "s",
    "motion.assign_negatives_s": "s",
    "motion.unaligned_runs": "count",
    "motion.candidates": "count",
    "motion.candidate_share": "ratio",
    "motion.negatives": "count",
    "motion.self_s": "s",
    "evaluate.build_eval_instances_s": "s",
    "evaluate.recall_at_k_s": "s",
    "evaluate.gt_triplets": "count",
    "evaluate.predictions": "count",
    "evaluate.self_s": "s",
    "cli.run_all_s": "s",
    "cli.self_s": "s",
    "cli.video_ms_p50": "ms",
    "cli.video_ms_p90": "ms",
    "cli.trace_overhead_share": "ratio",
}


class PassFailed(Exception):
    pass


def machine_facts() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": _blas_threads(),
    }


def _blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if it is not found."""
    import ctypes
    import glob

    import numpy

    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def check_dataset(workload: str, data: Path) -> None:
    """Reject a generated dataset the loader or ``capgraph validate`` rejects."""
    if workload == "eval-recall":
        from capgraph import ingest

        for name in ("gt.ndjson", "pred.ndjson"):
            for graph in ingest.load_scene_graphs(data / name):
                for t in graph.all_triplets():
                    if not (t.subject_box.is_valid() and t.object_box.is_valid()):
                        raise PassFailed(f"{name}: invalid box in video {graph.video_id}")
        return
    proc = subprocess.run(
        [sys.executable, "-m", "capgraph.cli", "validate", "--data-root", str(data)],
        env=_env(), capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise PassFailed(f"capgraph validate failed: {proc.stderr.strip()[-400:]}")


def run_pass(mode: str, workload: str, data: Path, out: Path, spans_out: Path = None) -> dict:
    """Run one pass in a fresh child process; returns its timings."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    job = {"mode": mode, "workload": workload, "data": str(data), "out": str(out),
           "spans_out": str(spans_out) if spans_out else None}
    job["spawned"] = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), json.dumps(job)],
        env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise PassFailed(f"{mode} pass timed out")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"{mode} pass exited {proc.returncode}: {stderr.strip()[-600:]}")
    return json.loads(lines[-1])


def _mode(workload: str) -> str:
    return "eval" if workload == "eval-recall" else "run_all"


def _outputs(workload: str):
    return ("eval.json",) if workload == "eval-recall" else PIPELINE_OUTPUTS


def digests(out: Path, names) -> dict:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


def check_outputs(workload: str, out: Path, facts: dict) -> None:
    """Invariants every correct run has, whatever the seed."""
    if workload == "eval-recall":
        payload = json.loads((out / "eval.json").read_text())
        expected = {f"{r}/R@{k}" for r in ("no_constraint", "with_constraint") for k in (20, 50)}
        if set(payload) != expected or not all(0.0 <= v <= 1.0 for v in payload.values()):
            raise PassFailed(f"eval.json has unexpected content: {payload}")
        return
    report = json.loads((out / "report.json").read_text())
    if report["videos"] != facts["videos"] or report["sentences"] != facts["sentences"]:
        raise PassFailed(f"report.json counts {report['videos']} videos, {report['sentences']}"
                         f" sentences; generated {facts['videos']}, {facts['sentences']}")


def check_traced(recorded: dict, facts: dict) -> None:
    """The traced pass stayed offline and did the work the generator planned."""
    counts = recorded["counts"]
    if counts.get("llm.cache_misses", 0) or counts.get("llm.network_calls", 0):
        raise PassFailed("chat calls missed the recorded cache or reached the network")
    if "chat_calls" in facts:
        calls = sum(1 for span in recorded["spans"] if span[0] == "llm.complete")
        if calls != facts["chat_calls"]:
            raise PassFailed(f"{calls} chat calls, generator planned {facts['chat_calls']}")
    if "gt_frames" in facts and counts.get("evaluate.gt_frames") != facts["gt_frames"]:
        raise PassFailed("scored GT frames differ from the generated count")


def _ops(workload: str, facts: dict) -> int:
    return facts["gt_frames"] if workload == "eval-recall" else facts["videos"]


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    from generate import generate

    import traced

    data = work / "data"
    facts = generate(workload, seed, data)
    check_dataset(workload, data)
    names = _outputs(workload)
    base_mode = _mode(workload)
    reference = json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))
    pinned = reference is not None
    ops = _ops(workload, facts)

    untraced, traced_passes, errors = [], [], []
    attempted = failed = 0
    started = time.monotonic()
    # A traced round has two traced passes per untraced one: the per-layer
    # numbers need the samples, the untraced passes only give the overhead.
    modes = [base_mode] + ["traced_" + base_mode] * 2 if trace else [base_mode]
    round_times = []
    while True:
        round_started = time.monotonic()
        for mode in modes:
            attempted += ops
            out = work / "out"
            spans_out = work / "spans.json"
            try:
                result = run_pass(mode, workload, data, out, spans_out)
                check_outputs(workload, out, facts)
                got = digests(out, names)
                if reference is None:
                    reference = got
                if got != reference:
                    bad = sorted(n for n in names if got[n] != reference[n])
                    raise PassFailed(f"{mode} outputs differ from the "
                                     f"{'pinned digests' if pinned else 'first pass'}: {bad}")
                if mode.startswith("traced"):
                    recorded = json.loads(spans_out.read_text())
                    check_traced(recorded, facts)
                    result.update(recorded)
                    traced_passes.append(result)
                else:
                    untraced.append(result)
            except (PassFailed, OSError, ValueError, KeyError) as e:
                failed += ops
                errors.append(str(e))
        now = time.monotonic()
        round_times.append(now - round_started)
        # Stop before a round that would end after the measuring time.
        if len(round_times) >= MIN_ROUNDS and (
            errors
            or now - started + statistics.median(round_times) > seconds
            or now - started >= HARD_STOP_S
        ):
            break

    result = {"facts": facts, "pinned": pinned, "attempted": attempted, "failed": failed,
              "errors": errors, "untraced": untraced, "traced": traced_passes}
    if trace and traced_passes and untraced:
        result["layers"], result["notes"] = traced.layer_metrics(
            traced_passes, facts,
            [p["wall_s"] for p in untraced], [p["wall_s"] for p in traced_passes],
        )
        WORK.mkdir(exist_ok=True)
        last = traced_passes[-1]
        (WORK / f"spans-{workload}-s{seed}.json").write_text(
            json.dumps({"spans": last["spans"], "counts": last["counts"]}))
    return result


def end_to_end(workload: str, facts: dict, passes: list) -> dict:
    ops = _ops(workload, facts)
    return {
        "ops_per_s": statistics.median(ops / p["wall_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
    }


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def report(args, machine: dict, run: dict) -> dict:
    facts = run["facts"]
    print(f"capgraph benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()))
    print("inputs: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"loop: closed, 1 caller, workers=1, one child process per pass; "
          f"{len(run['untraced'])} untraced and {len(run['traced'])} traced passes")
    print(f"correctness: outputs compared with "
          f"{'pinned digests for this seed' if run['pinned'] else 'the first pass (no pins for this seed)'}")
    for error in run["errors"]:
        print(f"FAILED: {error}")
    print(f"failed_share: {run['failed']}/{run['attempted']} operations "
          f"({run['failed'] / run['attempted']:.3f}, ratio)")

    metrics = {}
    if run["untraced"]:
        e2e = end_to_end(args.workload, facts, run["untraced"])
        ops = _ops(args.workload, facts)
        samples = {
            "ops_per_s": [ops / p["wall_s"] for p in run["untraced"]],
            "peak_rss_mb": [p["peak_rss_mb"] for p in run["untraced"]],
            "setup_s": [p["setup_s"] for p in run["untraced"]],
        }
        for name, unit in END_TO_END.items():
            lo, hi = _quartiles(samples[name])
            print(f"{name}: {e2e[name]:.6g} {unit} (median of {len(samples[name])} passes, "
                  f"quartiles {lo:.6g}..{hi:.6g})")
        if not args.trace:
            metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    if args.trace and "layers" in run:
        import traced

        layers, notes = run["layers"], run["notes"]
        wall = statistics.median(p["wall_s"] for p in run["traced"])
        print(f"per-layer split (self time, median of {len(run['traced'])} traced passes, "
              f"share of {wall:.4g} s traced wall):")
        for layer in traced.LAYERS:
            own = layers[f"{layer}.self_s"]
            print(f"  {layer:<9} {own:10.4f} s  {own / wall:6.1%}")
        for name, unit in PER_LAYER.items():
            extra = notes.get(name) or traced.METRIC_NOTES.get(name, "")
            print(f"{name}: {layers[name]:.6g} {unit}" + (f"  [{extra}]" if extra else ""))
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
    return metrics


def pin(seeds: str, workloads=WORKLOADS) -> None:
    from generate import generate

    lo, _, hi = seeds.partition("-")
    pins = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    for seed in range(int(lo), int(hi or lo) + 1):
        for workload in workloads:
            work = WORK / f"pin-{workload}-s{seed}"
            shutil.rmtree(work, ignore_errors=True)
            try:
                facts = generate(workload, seed, work / "data")
                check_dataset(workload, work / "data")
                run_pass(_mode(workload), workload, work / "data", work / "out")
                check_outputs(workload, work / "out", facts)
                pins.setdefault(workload, {})[str(seed)] = digests(work / "out",
                                                                   _outputs(workload))
            finally:
                shutil.rmtree(work, ignore_errors=True)
            print(f"pinned {workload} seed {seed}", flush=True)
    DIGESTS.write_text(json.dumps(pins, sort_keys=True, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--pin", metavar="SEEDS", help="record digests for seeds A-B and exit")
    args = parser.parse_args(argv)
    if not (SRC / "capgraph" / "cli.py").is_file():
        print(f"error: no capgraph sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.pin:
        pin(args.pin, (args.workload,) if args.workload else WORKLOADS)
        return 0
    if not args.workload:
        parser.error("--workload is required")

    machine = machine_facts()
    work = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except PassFailed as e:  # the dataset itself was rejected
        print(f"FAILED: {e}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = report(args, machine, run)
    correct = run["failed"] == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
