"""The pipeline run: one config, the stages, and ``run_all``.

Each stage helper is shared by ``run_all`` and the subcommand of the same
stage in ``cli``. This module imports ``align``, and through it numpy, when it
loads: building a ``PipelineConfig`` loads the whole pipeline before a run
starts, and the commands that need neither (``eval``, ``stats``, ``--help``)
never import it.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from . import align as align_mod
from . import evaluate as eval_mod
from . import ingest, motion, parse as parse_mod, segment as segment_mod
from .config import DEFAULT_SEED, check_seed
from .core import FrameTriplets, SceneGraph, SegmentedSentence, Triplet, Vocabulary
from .errors import CapgraphError, IoFailure, MalformedRecord, MissingFile, StageError
from .llm import ChatClient, TokenUsage


@dataclass
class PipelineConfig:
    """One declarative config for the whole pipeline; every default is the
    published hyperparameter (beta 4, alpha 15%, confidence floor 0.2)."""

    data_root: str = "."
    out_dir: str = "out"
    cache_dir: Optional[str] = None
    seed: int = DEFAULT_SEED
    workers: int = 1
    offline: bool = False
    skip_negatives: bool = False
    ingest: ingest.IngestConfig = field(default_factory=ingest.IngestConfig)
    segmentation: segment_mod.SegmentConfig = field(default_factory=segment_mod.SegmentConfig)
    alignment: align_mod.AlignConfig = field(default_factory=align_mod.AlignConfig)
    parsing: parse_mod.ParseConfig = field(default_factory=parse_mod.ParseConfig)
    motion: motion.MotionLabelConfig = field(default_factory=motion.MotionLabelConfig)

    def __post_init__(self):
        check_seed(self.seed)
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        """Inverse of ``to_dict``; missing keys keep their defaults, and
        unknown keys raise ``TypeError``."""
        return _from_plain(cls, d)


def _from_plain(klass, data, prefix=""):
    """Build ``klass`` from JSON-shaped data. Each value must have its
    field's annotated type: an int is a float, a JSON boolean is no number,
    and null is taken only by an ``Optional`` field. Sections are nested
    dataclasses; unknown keys are rejected by their dotted name."""
    if not isinstance(data, dict):
        raise TypeError(f"{klass.__name__} must be a JSON object, got {data!r}")
    hints = typing.get_type_hints(klass)
    names = {f.name for f in dataclasses.fields(klass)}
    kwargs = {}
    for key, value in data.items():
        if key not in names:
            raise TypeError(f"unknown key {prefix + key!r}")
        # Optional[str] is Union[str, None]: its args are (str, NoneType).
        kind, *none = typing.get_args(hints[key]) or (hints[key],)
        if dataclasses.is_dataclass(kind):
            value = _from_plain(kind, value, f"{key}.")
        elif not (value is None and none):
            expected = (int, float) if kind is float else kind
            if not isinstance(value, expected) or (isinstance(value, bool) and kind is not bool):
                raise TypeError(f"{klass.__name__}.{key} must be {kind.__name__}, got {value!r}")
        kwargs[key] = value
    return klass(**kwargs)


# The files run_all writes, in the order it moves them into place: report.json
# goes last, so it never describes outputs that are not all in place.
_RUN_OUTPUTS = (
    "sentences.ndjson", "scene_graphs.ndjson", "negatives.ndjson", "trace.ndjson", "report.json"
)


@dataclass
class VideoResult:
    video_id: str
    sentences: List[SegmentedSentence]
    trace: Optional[align_mod.AlignmentTrace]
    extracted: List[Tuple[int, Triplet]]
    mapped: List[Tuple[int, Triplet]]
    usage: TokenUsage
    discards: parse_mod.DiscardCounters


@dataclass
class RunReport:
    """Per-stage counts for one pipeline run; ``usage`` is written as
    ``token_usage``."""

    videos: int = 0
    sentences: int = 0
    triplets_extracted: int = 0
    triplets_mapped: int = 0
    triplets_discarded: int = 0
    grounded_triplets: int = 0
    motion_candidates: int = 0
    negatives: int = 0
    usage: TokenUsage = field(default_factory=TokenUsage)

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["token_usage"] = d.pop("usage")
        return d


# ---------------------------------------------------------------------------
# Stages, each shared by run_all and its subcommand


def segment_video(
    manifest, config: segment_mod.SegmentConfig, client: ChatClient
) -> List[SegmentedSentence]:
    """Segment one caption, capping the sentence count below the frame count."""
    return segment_mod.segment_caption(
        manifest.caption,
        config,
        client=client,
        max_sentences=max(1, manifest.num_frames - 1),
    )


def cluster_videos(
    video_ids: Sequence[str], bundle: ingest.DatasetBundle, config: align_mod.AlignConfig,
    seed: int,
) -> Dict[str, align_mod.ClusteringResult]:
    """Frame clusterings of the videos in ``video_ids``, each in the bundle,
    all in one ``align.cluster_videos`` call."""
    matrices = [bundle.embeddings[v] for v in video_ids]
    return dict(zip(video_ids, align_mod.cluster_videos(matrices, config, seed)))


def align_video(
    video_id: str,
    sentences: List[SegmentedSentence],
    bundle: ingest.DatasetBundle,
    clusterings: Dict[str, align_mod.ClusteringResult],
    config: align_mod.AlignConfig,
) -> Tuple[List[SegmentedSentence], align_mod.AlignmentTrace]:
    """Align one video's sentences on its frame clustering, which it takes
    out of ``clusterings``, so each clustering is freed once used.

    The sentence embeddings must hold one row per sentence, in order: row
    *i*'s id is sentence *i*'s order index. Otherwise ``MalformedRecord``
    names the file."""
    path = f"embeddings/{video_id}.sentences.nlve"
    sentence_embeds = bundle.sentence_embeddings.get(video_id)
    if sentence_embeds is None:
        raise MissingFile(
            f"{path} (produce sentence embeddings for the segmented captions, then re-run)"
        )
    if len(sentence_embeds) != len(sentences):
        raise MalformedRecord(
            path, 0, f"{len(sentence_embeds)} rows for the {len(sentences)} sentences of "
            f"video {video_id!r}"
        )
    for index, (row_id, sentence) in enumerate(zip(sentence_embeds.row_ids, sentences)):
        if row_id != str(sentence.order_index):
            raise MalformedRecord(
                path, 0, f"row id {row_id!r} is not the order index of sentence "
                f"{index + 1}, '{sentence.order_index}'"
            )
    clustering = clusterings.pop(video_id)
    return align_mod.align_sentences(
        sentences, sentence_embeds, clustering, config, video_id=video_id
    )


def parse_sentences(
    sentences: List[SegmentedSentence],
    vocab: Vocabulary,
    config: parse_mod.ParseConfig,
    client: ChatClient,
    discards: parse_mod.DiscardCounters,
) -> Tuple[List[Tuple[int, Triplet]], List[Tuple[int, Triplet]]]:
    """Extracted and mapped triplets, each paired with its sentence's order index."""
    extracted: List[Tuple[int, Triplet]] = []
    mapped: List[Tuple[int, Triplet]] = []
    for sentence in sentences:
        triplets = parse_mod.parse_triplets(
            sentence, config, client=client, counters=discards
        )
        for t in triplets:
            extracted.append((sentence.order_index, t))
            m = parse_mod.map_classes(t, vocab, config, client=client, counters=discards)
            if m is not None:
                mapped.append((sentence.order_index, m))
    return extracted, mapped


def open_vocabulary_cut(
    mapped_by_video: Dict[str, List[Tuple[int, Triplet]]], config: parse_mod.ParseConfig
) -> Dict[str, List[Tuple[int, Triplet]]]:
    """Dataset-wide predicate frequency cut for open-vocabulary runs."""
    if config.mapping != "none" or not config.top_n_open_classes:
        return mapped_by_video
    pool = [t for mapped in mapped_by_video.values() for _, t in mapped]
    top = parse_mod.restrict_open_vocabulary(pool, config.top_n_open_classes)
    kept = {t.predicate_class for t in top}
    return {
        video_id: [(order, t) for order, t in mapped if t.predicate_class in kept]
        for video_id, mapped in mapped_by_video.items()
    }


def ground_video(
    video_id: str,
    mapped: List[Tuple[int, Triplet]],
    sentences: List[SegmentedSentence],
    bundle: ingest.DatasetBundle,
    source: str,
) -> List[Triplet]:
    """Ground one video's mapped triplets on their sentences' aligned frames.

    Triplets whose sentence is absent ground nothing. ``source`` names where
    the triplets came from when the video is not in the manifest.
    """
    detections = bundle.detections.get(video_id)
    if detections is None:
        raise CapgraphError(f"{source}: video {video_id!r} is not in the manifest")
    by_order = {s.order_index: s for s in sentences}
    grounded: List[Triplet] = []
    for order_index, triplet in mapped:
        sentence = by_order.get(order_index)
        if sentence is not None:
            grounded.extend(
                parse_mod.ground_triplets([triplet], sentence.aligned_frames, detections)
            )
    return grounded


def motion_negatives(
    bundle: ingest.DatasetBundle,
    sentences: Dict[str, List[SegmentedSentence]],
    graphs: Dict[str, SceneGraph],
    config: motion.MotionLabelConfig,
) -> Tuple[List[motion.MotionCandidate], motion.NegativeAssignment]:
    """Motion candidates of the whole dataset and the negatives they earn."""
    runs = {
        m.video_id: motion.collect_unaligned_runs(m, sentences.get(m.video_id, []))
        for m in bundle.manifests
    }
    candidates = motion.build_candidates(
        bundle.manifests, bundle.detections, graphs, runs, config
    )
    return candidates, motion.assign_negatives(candidates, config)


def negative_graphs(assignment: motion.NegativeAssignment) -> List[SceneGraph]:
    return [
        SceneGraph.from_triplets(video_id, triplets)
        for video_id, triplets in sorted(assignment.by_video.items())
    ]


def _process_video(
    manifest,
    bundle: ingest.DatasetBundle,
    config: PipelineConfig,
    vocab: Vocabulary,
    replies: dict,
    clusterings: Dict[str, align_mod.ClusteringResult],
) -> VideoResult:
    """Segment, align and parse one video; grounding happens dataset-wide
    after the optional open-vocabulary restriction. ``replies`` is the run's
    shared memo of recorded chat replies; usage is still counted per video.
    ``clusterings`` holds the frame clusterings of the videos not yet aligned."""
    client = segment_mod.make_client(
        config.segmentation, config.cache_dir, config.offline, replies
    )
    discards = parse_mod.DiscardCounters()
    sentences = segment_video(manifest, config.segmentation, client)
    aligned, trace = align_video(
        manifest.video_id, sentences, bundle, clusterings, config.alignment
    )
    extracted, mapped = parse_sentences(aligned, vocab, config.parsing, client, discards)
    return VideoResult(
        video_id=manifest.video_id,
        sentences=aligned,
        trace=trace,
        extracted=extracted,
        mapped=mapped,
        usage=client.usage,
        discards=discards,
    )


def _map_videos(fn, manifests, workers: int):
    workers = max(1, min(workers, len(manifests)))
    if workers == 1:
        return [fn(m) for m in manifests]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, manifests))


def run_all(config: PipelineConfig) -> RunReport:
    """Run segment -> align -> parse -> ground -> negatives and write outputs.

    Equal config, seed and cached responses produce byte-identical output
    files. The outputs are written into a staging directory inside
    ``out_dir`` and moved into place only once all are written, so a run that
    fails before then leaves ``out_dir`` as it was. ``report.json`` marks a
    complete run: the previous one is removed before the first move and the
    new one moved in last, so a failed move leaves no report. The first fatal
    stage error is re-raised with its stage name. Before any file is read,
    ``config`` passes the gate a config file passes, so a field changed after
    the config was built is checked too.
    """
    vocab = Vocabulary.action_genome()
    out_dir = Path(config.out_dir)
    stage = "load"
    try:
        PipelineConfig.from_dict(config.to_dict())
        bundle = ingest.load_bundle(config.data_root, config.ingest)

        stage = "process"
        replies: dict = {}
        clusterings = cluster_videos(
            [m.video_id for m in bundle.manifests], bundle, config.alignment, config.seed
        )
        # In video-id order at any --workers: load_bundle sorts, _map_videos keeps order.
        results = _map_videos(
            lambda m: _process_video(m, bundle, config, vocab, replies, clusterings),
            bundle.manifests,
            config.workers,
        )

        stage = "ground"
        cut = open_vocabulary_cut({r.video_id: r.mapped for r in results}, config.parsing)
        for r in results:
            r.mapped = cut[r.video_id]
        grounded = {
            r.video_id: ground_video(
                r.video_id, r.mapped, r.sentences, bundle, source=config.data_root
            )
            for r in results
        }

        stage = "negatives"
        graphs = {
            r.video_id: SceneGraph.from_triplets(r.video_id, grounded[r.video_id])
            for r in results
        }
        candidates: List[motion.MotionCandidate] = []
        assignment = motion.NegativeAssignment(selected=[], by_video={})
        if not config.skip_negatives:
            candidates, assignment = motion_negatives(
                bundle, {r.video_id: r.sentences for r in results}, graphs, config.motion
            )

        stage = "write"
        report = RunReport(
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

        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as e:
            raise IoFailure(f"cannot write {out_dir}: {e.strerror or e}") from e
        # Inside out_dir, so that each os.replace stays on one file system.
        with tempfile.TemporaryDirectory(prefix=".staging-", dir=out_dir) as staging:
            staged = Path(staging)
            ingest.write_sentences(
                {r.video_id: r.sentences for r in results}, staged / "sentences.ndjson"
            )
            ingest.write_scene_graphs(
                [graphs[r.video_id] for r in results], staged / "scene_graphs.ndjson"
            )
            ingest.write_scene_graphs(
                negative_graphs(assignment), staged / "negatives.ndjson"
            )
            trace_records = []
            for r in results:
                record = r.trace.to_dict()
                record["usage"] = r.usage.to_dict()
                record["discards"] = r.discards.to_dict()
                trace_records.append(record)
            ingest.write_record_lines(trace_records, staged / "trace.ndjson")
            (staged / "report.json").write_text(
                json.dumps(report.to_dict(), sort_keys=True, indent=1) + "\n",
                encoding="utf-8",
            )
            try:
                dest = out_dir / "report.json"
                dest.unlink(missing_ok=True)
                for name in _RUN_OUTPUTS:
                    dest = out_dir / name
                    os.replace(staged / name, dest)
            except OSError as e:
                raise IoFailure(f"cannot write {dest}: {e.strerror or e}") from e
        return report
    except Exception as e:
        if isinstance(e, StageError):
            raise
        raise StageError(stage, e) from e


def build_eval_instances(
    gt_graphs: Sequence[SceneGraph], pred_graphs: Sequence[SceneGraph]
) -> List[eval_mod.EvalInstance]:
    """``eval``'s instances from loaded graphs: ``pair_frames`` over their
    frames. Graphs that share a video id share its frames."""

    def frames(graphs: Sequence[SceneGraph]) -> FrameTriplets:
        out: FrameTriplets = {}
        for graph in graphs:
            for frame, triplets in graph.per_frame.items():
                out.setdefault((graph.video_id, frame), []).extend(triplets)
        return out

    return eval_mod.pair_frames(frames(gt_graphs), frames(pred_graphs))
