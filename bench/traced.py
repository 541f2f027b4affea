"""Traced drivers: the pipeline and the evaluator, driven stage by stage.

The drivers call each module's public functions in the same order as
``capgraph.cli.run_all`` and the ``eval`` command and record a span around
every call. A span is (name, start, end, parent, video id). Spans stay in
memory until the driver returns; ``layer_metrics`` turns the spans of several
passes into the per-layer numbers. The benchmark checks that the drivers
write byte-identical outputs to the untraced entry points, so the numbers
describe the same program.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional

from capgraph import align as align_mod
from capgraph import cli
from capgraph import evaluate as eval_mod
from capgraph import ingest, motion
from capgraph import parse as parse_mod
from capgraph import segment as segment_mod
from capgraph.core import SceneGraph, Vocabulary
from capgraph.errors import DimensionMismatch, MissingFile
from capgraph.llm import ChatClient

LAYERS = ("ingest", "segment", "llm", "align", "parse", "motion", "evaluate", "cli")


class Tracer:
    """In-memory span recorder plus named counters."""

    def __init__(self):
        self.spans: List[list] = []
        self.counts: Dict[str, int] = {}
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, video: Optional[str] = None):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0.0, 0.0, parent, video]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, value: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def traced(self, module, name: str, count_result: Optional[str] = None):
        """Replace ``module.name`` with a spanned wrapper; returns the original."""
        original = getattr(module, name)
        span_name = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"

        def wrapper(*args, **kwargs):
            with self.span(span_name):
                result = original(*args, **kwargs)
            if count_result:
                self.add(count_result, len(result))
            return result

        setattr(module, name, wrapper)
        return original


class TimedClient(ChatClient):
    """ChatClient that spans every ``complete`` call and counts cache misses
    and prompts already sent earlier in the run."""

    def __init__(self, tracer: Tracer, seen: set, video_id: str, **kwargs):
        super().__init__(**kwargs)
        self._tracer = tracer
        self._seen = seen
        self._video_id = video_id

    def complete(self, prompt: str) -> str:
        if prompt in self._seen:
            self._tracer.add("llm.repeats")
        self._seen.add(prompt)
        with self._tracer.span("llm.complete", self._video_id):
            return super().complete(prompt)

    def _cache_read(self, key: str):
        record = super()._cache_read(key)
        if record is None:
            self._tracer.add("llm.cache_misses")
        return record


def _client(config: cli.PipelineConfig, tracer: Tracer, seen: set, video_id: str) -> TimedClient:
    # Same settings as cli._make_client.
    seg = config.segmentation
    return TimedClient(
        tracer, seen, video_id,
        model_name=seg.model_name,
        endpoint=seg.endpoint,
        temperature=seg.temperature,
        max_retries=seg.max_retries,
        cache_dir=config.cache_dir or seg.cache_dir,
        offline=config.offline or seg.offline,
        input_price_per_million=seg.input_price_per_million,
        output_price_per_million=seg.output_price_per_million,
    )


def _process_video(manifest, bundle, config, vocab, tracer: Tracer, seen: set) -> cli.VideoResult:
    video_id = manifest.video_id
    span = tracer.span
    client = _client(config, tracer, seen, video_id)
    discards = parse_mod.DiscardCounters()
    with span("segment.segment_caption", video_id):
        sentences = segment_mod.segment_caption(
            manifest.caption, config.segmentation, client=client,
            max_sentences=max(1, manifest.num_frames - 1),
        )
    sentence_embeds = bundle.sentence_embeddings.get(video_id)
    if sentence_embeds is None:
        raise MissingFile(f"embeddings/{video_id}.sentences.nlve")
    if len(sentence_embeds) != len(sentences):
        raise DimensionMismatch(
            f"video {video_id}: {len(sentences)} sentences but "
            f"{len(sentence_embeds)} sentence embedding rows"
        )
    with span("align.cluster_frames", video_id):
        clustering = align_mod.cluster_frames(bundle.embeddings[video_id], config.alignment)
    with span("align.align_sentences", video_id):
        aligned, trace = align_mod.align_sentences(
            sentences, sentence_embeds, clustering, config.alignment, video_id=video_id
        )
    extracted, mapped = [], []
    for sentence in aligned:
        with span("parse.parse_triplets", video_id):
            triplets = parse_mod.parse_triplets(
                sentence, config.parsing, client=client, counters=discards
            )
        for t in triplets:
            extracted.append((sentence.order_index, t))
            with span("parse.map_classes", video_id):
                m = parse_mod.map_classes(t, vocab, config.parsing, client=client, counters=discards)
            if m is not None:
                mapped.append((sentence.order_index, m))
    tracer.add("llm.network_calls", client.network_calls)
    return cli.VideoResult(video_id, aligned, trace, extracted, mapped, client.usage, discards)


def run_pipeline(config: cli.PipelineConfig, tracer: Tracer) -> None:
    """Traced equivalent of ``cli.run_all`` for the benchmark's configs: one
    worker and a closed vocabulary (the open-vocabulary cut is not driven)."""
    span = tracer.span
    out_dir = Path(config.out_dir)
    originals = {
        "read_embeddings": tracer.traced(ingest, "read_embeddings"),
        "load_detections": tracer.traced(ingest, "load_detections", "ingest.detections_kept"),
        "load_scene_graphs": tracer.traced(ingest, "load_scene_graphs"),
    }
    try:
        with span("cli.run_all"):
            vocab = Vocabulary.action_genome()
            with span("ingest.load_bundle"):
                bundle = ingest.load_bundle(config.data_root, config.ingest)
            manifests = sorted(bundle.manifests, key=lambda m: m.video_id)
            seen: set = set()
            results = []
            for m in manifests:
                with span("cli.video", m.video_id):
                    results.append(_process_video(m, bundle, config, vocab, tracer, seen))
            results.sort(key=lambda r: r.video_id)

            grounded = {}
            for r in results:
                by_order = {s.order_index: s for s in r.sentences}
                video_grounded = []
                for order_index, triplet in r.mapped:
                    with span("parse.ground_triplets", r.video_id):
                        video_grounded.extend(parse_mod.ground_triplets(
                            [triplet], by_order[order_index].aligned_frames,
                            bundle.detections[r.video_id],
                        ))
                grounded[r.video_id] = video_grounded

            graphs = {r.video_id: SceneGraph.from_triplets(r.video_id, grounded[r.video_id])
                      for r in results}
            candidates = []
            runs_by_video = {}
            assignment = motion.NegativeAssignment(selected=[], by_video={})
            if not config.skip_negatives and vocab.negative_classes:
                for r in results:
                    manifest = bundle.manifest_for(r.video_id)
                    with span("motion.collect_unaligned_runs", r.video_id):
                        runs_by_video[r.video_id] = motion.collect_unaligned_runs(
                            manifest, r.sentences
                        )
                with span("motion.build_candidates"):
                    candidates = motion.build_candidates(
                        manifests, bundle.detections, graphs, runs_by_video, config.motion
                    )
                if candidates:
                    with span("motion.assign_negatives"):
                        assignment = motion.assign_negatives(candidates, config.motion)

            report = cli.RunReport(
                videos=len(results),
                sentences=sum(len(r.sentences) for r in results),
                triplets_extracted=sum(len(r.extracted) for r in results),
                triplets_mapped=sum(len(r.mapped) for r in results),
                triplets_discarded=sum(r.discards.total() for r in results),
                grounded_triplets=sum(len(g) for g in grounded.values()),
                motion_candidates=len(candidates),
                negatives=sum(len(ts) for ts in assignment.by_video.values()),
            )
            for r in results:
                report.usage = report.usage + r.usage

            out_dir.mkdir(parents=True, exist_ok=True)
            with span("ingest.write"):
                ingest.write_sentences({r.video_id: r.sentences for r in results},
                                       out_dir / "sentences.ndjson")
            with span("ingest.write"):
                ingest.write_scene_graphs([graphs[r.video_id] for r in results],
                                          out_dir / "scene_graphs.ndjson")
            negative_graphs = [SceneGraph.from_triplets(video_id, triplets)
                               for video_id, triplets in sorted(assignment.by_video.items())]
            with span("ingest.write"):
                ingest.write_scene_graphs(negative_graphs, out_dir / "negatives.ndjson")
            trace_records = []
            for r in results:
                record = r.trace.to_dict()
                record["usage"] = r.usage.to_dict()
                record["discards"] = r.discards.to_dict()
                trace_records.append(record)
            with span("ingest.write"):
                ingest.write_record_lines(trace_records, out_dir / "trace.ndjson")
            with span("ingest.write"):
                (out_dir / "report.json").write_text(
                    json.dumps(report.to_dict(), sort_keys=True, indent=1) + "\n",
                    encoding="utf-8",
                )
    finally:
        for name, original in originals.items():
            setattr(ingest, name, original)

    # Work counts, taken after the timed region.
    add = tracer.add
    for r in results:
        matrix = bundle.embeddings[r.video_id]
        t_frames, dim = len(matrix), matrix.dim
        k = align_mod.choose_k(t_frames, config.alignment.beta)
        intervals = [s.aligned_frames for s in r.sentences if s.aligned_frames]
        covered = set()
        for lo, hi in intervals:
            covered.update(range(lo, hi + 1))
        by_order = {s.order_index: s.aligned_frames for s in r.sentences}
        add("align.frames", t_frames)
        add("align.clusters", r.trace.k)
        add("align.kmeans_tkd", t_frames * k * dim)
        add("align.aligned_sentences", len(intervals))
        add("align.aligned_frames", len(covered))
        add("segment.sentences", len(r.sentences))
        add("parse.triplets_extracted", len(r.extracted))
        add("parse.triplets_mapped", len(r.mapped))
        add("parse.grounding_slots", sum(
            by_order[o][1] - by_order[o][0] + 1 for o, _ in r.mapped if by_order[o]
        ))
        add("parse.grounded_triplets", len(grounded[r.video_id]))
        runs = len(runs_by_video.get(r.video_id, ()))
        add("motion.unaligned_runs", runs)
        add("motion.pair_slots", runs * len(graphs[r.video_id].object_classes()))
    add("motion.candidates", len(candidates))
    add("motion.negatives", report.negatives)
    add("ingest.bytes_written", sum(path.stat().st_size for path in out_dir.iterdir()))


def run_eval(gt_path: str, pred_path: str, json_out: str, tracer: Tracer) -> None:
    """Traced equivalent of ``capgraph eval --json-out`` with the default
    K = 20,50, both regimes and IoU 0.5."""
    span = tracer.span
    with span("cli.eval"):
        with span("ingest.load_scene_graphs"):
            gt_graphs = ingest.load_scene_graphs(gt_path)
        with span("ingest.load_scene_graphs"):
            pred_graphs = ingest.load_scene_graphs(pred_path)
        config = eval_mod.EvalConfig(k_values=(20, 50), iou_threshold=0.5, regime="both")
        with span("evaluate.build_eval_instances"):
            instances = cli.build_eval_instances(gt_graphs, pred_graphs)
        with span("evaluate.recall_at_k"):
            results = eval_mod.recall_at_k(instances, config)
        payload = {f"{regime}/R@{k}": value for (regime, k), value in sorted(results.items())}
        with span("ingest.write"):
            Path(json_out).write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n",
                                      encoding="utf-8")
    gt_lines = sum(len(g.all_triplets()) for g in gt_graphs)
    pred_lines = sum(len(g.all_triplets()) for g in pred_graphs)
    tracer.add("ingest.scene_graph_lines", gt_lines + pred_lines)
    tracer.add("evaluate.gt_triplets", gt_lines)
    tracer.add("evaluate.predictions", pred_lines)
    tracer.add("evaluate.gt_frames", sum(1 for inst in instances if inst.gt))
    tracer.add("ingest.bytes_written", Path(json_out).stat().st_size)


# ---------------------------------------------------------------------------
# Derived numbers


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the time its child spans cover.

    Children of one span never overlap (one thread), so the covered time is
    the sum of their durations.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def percentile(samples: List[float], q: int) -> Optional[float]:
    """The q-th percentile, or None unless at least ten samples lie beyond it."""
    if len(samples) * (100 - q) / 100 < 10:
        return None
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


PERCENTILES = {
    # metric -> (span name, percentile, scale to the metric's unit)
    "segment.segment_caption_ms_p50": ("segment.segment_caption", 50, 1e3),
    "llm.complete_us_p50": ("llm.complete", 50, 1e6),
    "llm.complete_us_p90": ("llm.complete", 90, 1e6),
    "align.cluster_frames_ms_p50": ("align.cluster_frames", 50, 1e3),
    "align.cluster_frames_ms_p90": ("align.cluster_frames", 90, 1e3),
    "parse.ground_triplets_ms_p90": ("parse.ground_triplets", 90, 1e3),
    "cli.video_ms_p50": ("cli.video", 50, 1e3),
    "cli.video_ms_p90": ("cli.video", 90, 1e3),
}

SPAN_TOTALS = {
    "ingest.load_bundle_s": "ingest.load_bundle",
    "ingest.read_embeddings_s": "ingest.read_embeddings",
    "ingest.load_detections_s": "ingest.load_detections",
    "ingest.load_scene_graphs_s": "ingest.load_scene_graphs",
    "ingest.write_s": "ingest.write",
    "segment.segment_caption_s": "segment.segment_caption",
    "llm.complete_s": "llm.complete",
    "align.cluster_frames_s": "align.cluster_frames",
    "align.align_sentences_s": "align.align_sentences",
    "parse.parse_triplets_s": "parse.parse_triplets",
    "parse.map_classes_s": "parse.map_classes",
    "parse.ground_triplets_s": "parse.ground_triplets",
    "motion.collect_unaligned_runs_s": "motion.collect_unaligned_runs",
    "motion.build_candidates_s": "motion.build_candidates",
    "motion.assign_negatives_s": "motion.assign_negatives",
    "evaluate.build_eval_instances_s": "evaluate.build_eval_instances",
    "evaluate.recall_at_k_s": "evaluate.recall_at_k",
    "cli.run_all_s": "cli.run_all",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def pass_metrics(spans: List[list], counts: Dict[str, int], facts: dict) -> Dict[str, float]:
    """Per-layer numbers of one traced pass (percentiles excluded)."""
    totals: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for span, own in zip(spans, self_times(spans)):
        name, start, end = span[0], span[1], span[2]
        totals[name] = totals.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        layer_self[name.split(".", 1)[0]] += own
    m = {metric: totals.get(name, 0.0) for metric, name in SPAN_TOTALS.items()}
    # cli.self_s is the orchestration left over: the traced wall time minus
    # the time covered by spans of the other layers.
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    c = counts.get
    lines = facts.get("detection_lines", 0)
    m["ingest.detection_lines"] = lines
    m["ingest.detection_lines_per_s"] = _ratio(lines, m["ingest.load_detections_s"])
    m["ingest.detections_kept_ratio"] = _ratio(c("ingest.detections_kept", 0), lines)
    m["ingest.scene_graph_lines_per_s"] = _ratio(c("ingest.scene_graph_lines", 0),
                                                 m["ingest.load_scene_graphs_s"])
    m["ingest.bytes_written"] = c("ingest.bytes_written", 0)
    m["segment.sentences"] = c("segment.sentences", 0)
    m["segment.captions_capped"] = facts.get("captions_capped", 0)
    m["llm.complete_calls"] = calls.get("llm.complete", 0)
    m["llm.repeat_share"] = _ratio(c("llm.repeats", 0), m["llm.complete_calls"])
    m["llm.cache_misses"] = c("llm.cache_misses", 0)
    m["llm.network_calls"] = c("llm.network_calls", 0)
    for name in ("frames", "clusters", "kmeans_tkd"):
        m[f"align.{name}"] = c(f"align.{name}", 0)
    m["align.aligned_share"] = _ratio(c("align.aligned_sentences", 0), c("segment.sentences", 0))
    m["align.aligned_frame_share"] = _ratio(c("align.aligned_frames", 0), c("align.frames", 0))
    m["parse.triplets_extracted"] = c("parse.triplets_extracted", 0)
    m["parse.mapped_share"] = _ratio(c("parse.triplets_mapped", 0), m["parse.triplets_extracted"])
    m["parse.grounded_triplets"] = c("parse.grounded_triplets", 0)
    m["parse.grounded_share"] = _ratio(m["parse.grounded_triplets"], c("parse.grounding_slots", 0))
    m["motion.unaligned_runs"] = c("motion.unaligned_runs", 0)
    m["motion.candidates"] = c("motion.candidates", 0)
    m["motion.candidate_share"] = _ratio(m["motion.candidates"], c("motion.pair_slots", 0))
    m["motion.negatives"] = c("motion.negatives", 0)
    m["evaluate.gt_triplets"] = c("evaluate.gt_triplets", 0)
    m["evaluate.predictions"] = c("evaluate.predictions", 0)
    return m


# How the derived numbers above are computed, printed next to them; every
# ratio names its base.
METRIC_NOTES = {
    "align.kmeans_tkd": "sum over videos of T*K*D, K = choose_k(T, beta): elements of the "
                        "distance tensor _lloyd builds on each iteration",
    "ingest.detections_kept_ratio": "detections kept after the confidence floor / detection lines read",
    "llm.repeat_share": "calls whose prompt was sent earlier in the pass / complete calls",
    "align.aligned_share": "sentences with an interval / sentences",
    "align.aligned_frame_share": "frames inside some interval / frames",
    "parse.mapped_share": "mapped triplets / extracted triplets",
    "parse.grounded_share": "grounded triplets / (mapped triplets x their aligned frames)",
    "motion.candidate_share": "candidates / (unaligned runs x graph object classes), per video",
    "cli.trace_overhead_share": "(traced - untraced wall time) / untraced wall time",
}


def layer_metrics(passes: List[dict], facts: dict, untraced_walls: List[float],
                  traced_walls: List[float]):
    """Per-layer metrics over traced passes.

    Times and counts are medians over passes; percentiles pool the samples of
    every pass. Returns (metrics, notes) where notes gives each percentile's
    sample count, and a percentile without ten samples beyond it reads 0.
    """
    per_pass = [pass_metrics(p["spans"], p["counts"], facts) for p in passes]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    notes = {}
    for metric, (span_name, q, scale) in PERCENTILES.items():
        samples = [end - start for p in passes
                   for name, start, end, _, _ in p["spans"] if name == span_name]
        value = percentile(samples, q)
        metrics[metric] = value * scale if value is not None else 0.0
        notes[metric] = f"n={len(samples)}" + ("" if value is not None else
                                               ", too few samples: reported as 0")
    untraced = statistics.median(untraced_walls)
    metrics["cli.trace_overhead_share"] = (statistics.median(traced_walls) - untraced) / untraced
    return metrics, notes
