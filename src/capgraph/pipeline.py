"""The pipeline run: one config, the stages, and ``run_all``.

Each stage helper is shared by ``run_all`` and the subcommand of the same
stage in ``cli``. This module imports ``align``, and through it numpy, when it
loads: building a ``PipelineConfig`` loads the whole pipeline before a run
starts, and the commands that need neither (``eval``, ``stats``, ``--help``)
never import it.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import tempfile
import typing
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path
from typing import Callable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from . import align as align_mod
from . import evaluate as eval_mod
from . import ingest, motion, parse as parse_mod, segment as segment_mod
from .config import DEFAULT_SEED, check_seed
from .core import (
    EmbeddingMatrix, FrameTriplets, GroundingTable, SceneGraph, SegmentedSentence, Triplet,
    VideoManifest, Vocabulary,
)
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
# The outputs run_all writes video by video as it goes.
_STREAMED = ("sentences.ndjson", "scene_graphs.ndjson", "trace.ndjson")


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


def align_video(
    video_id: str,
    sentences: List[SegmentedSentence],
    sentence_embeds: Optional[EmbeddingMatrix],
    clustering: align_mod.ClusteringResult,
    config: align_mod.AlignConfig,
) -> Tuple[List[SegmentedSentence], align_mod.AlignmentTrace]:
    """Align one video's sentences on ``clustering``, the clustering of its
    frames (``align.cluster_videos``).

    ``sentence_embeds`` is the video's sentence matrix, None when it has no
    file (``MissingFile``), and must hold one row per sentence, in order: row
    *i*'s id is sentence *i*'s order index. Otherwise ``MalformedRecord``
    names the file."""
    path = f"embeddings/{video_id}.sentences.nlve"
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


def _cuts_open_vocabulary(config: parse_mod.ParseConfig) -> bool:
    """Whether ``config`` asks for the dataset-wide open-vocabulary cut: no
    class mapping, and a ``top_n_open_classes`` that is neither 0 nor null."""
    return config.mapping == "none" and bool(config.top_n_open_classes)


def kept_predicates(counts: Mapping[str, int], config: parse_mod.ParseConfig) -> Set[str]:
    """The counted predicate classes that a run keeps: all of them, or under
    the open-vocabulary cut the ``parse.top_predicates`` of them, so
    ``counts`` must count the mapped triplets of the whole dataset."""
    if _cuts_open_vocabulary(config):
        return parse_mod.top_predicates(counts, config.top_n_open_classes)
    return set(counts)


def ground_video(
    mapped: List[Tuple[int, Triplet]], sentences: List[SegmentedSentence], table: GroundingTable
) -> List[Triplet]:
    """Ground one video's mapped triplets on their sentences' aligned frames
    in ``table``, the video's grounding table. Triplets whose sentence is
    absent ground nothing."""
    frames = {s.order_index: s.aligned_frames for s in sentences}
    return [
        grounded
        for order_index, triplet in mapped if order_index in frames
        for grounded in parse_mod.ground_triplets([triplet], frames[order_index], table)
    ]


def negative_graphs(assignment: motion.NegativeAssignment) -> List[SceneGraph]:
    return [
        SceneGraph.from_triplets(video_id, triplets)
        for video_id, triplets in sorted(assignment.by_video.items())
    ]


def _process_video(
    manifest,
    clustering: align_mod.ClusteringResult,
    bundle: ingest.DatasetBundle,
    config: PipelineConfig,
    vocab: Vocabulary,
    replies: dict,
) -> VideoResult:
    """Segment, align and parse one video of ``bundle`` on ``clustering``, the
    clustering of its frames. ``replies`` is the run's shared memo of recorded
    chat replies; usage is still counted per video."""
    client = segment_mod.make_client(
        config.segmentation, config.cache_dir, config.offline, replies
    )
    discards = parse_mod.DiscardCounters()
    sentences = segment_video(manifest, config.segmentation, client)
    aligned, trace = align_video(
        manifest.video_id, sentences, bundle.sentence_embeddings.get(manifest.video_id),
        clustering, config.alignment,
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


class _stage:
    """``with _stage(name):`` re-raises an error of its block as a
    ``StageError`` of stage ``name``, unless it is a ``StageError`` already.
    A class, not a generator: a run enters a few of these for every video."""

    def __init__(self, name: str):
        self.name = name

    def __enter__(self) -> None:
        return None

    def __exit__(self, kind, error, traceback) -> None:
        if isinstance(error, Exception) and not isinstance(error, StageError):
            raise StageError(self.name, error) from error


def _load_chunks(
    config: PipelineConfig, manifests: Sequence[VideoManifest]
) -> Iterator[ingest.DatasetBundle]:
    """The videos of ``manifests`` loaded (``ingest.load_video``) in chunks
    of consecutive videos: as many as one ``align.cluster_videos`` chunk
    admits under ``KMEANS_BATCH_ELEMENTS``, and at least ``config.workers``,
    so that every worker has a video. ``cluster_videos`` splits a larger
    chunk into k-means chunks of its own. A file that fails to load stops
    the run at stage ``load``."""
    chunk, elements = ingest.DatasetBundle(), 0
    for manifest in manifests:
        with _stage("load"):
            frames, sentences, table = ingest.load_video(
                config.data_root, manifest, config.ingest
            )
        with _stage("process"):
            size = align_mod.video_elements(*frames.rows.shape, config.alignment.beta)
        full = len(chunk.manifests) >= config.workers
        if full and elements + size > align_mod.KMEANS_BATCH_ELEMENTS:
            yield chunk
            chunk, elements = ingest.DatasetBundle(), 0
        chunk.add(manifest, frames, sentences, table)
        elements += size
    if chunk.manifests:
        yield chunk


def video_chunks(
    data_root: str, manifests: Sequence[VideoManifest], alignment: align_mod.AlignConfig
) -> Iterator[ingest.DatasetBundle]:
    """``run_all``'s chunks (``_load_chunks``, sized by ``alignment``'s beta)
    of ``manifests`` under ``data_root``, for a staged command that holds one
    chunk at a time. A file that fails to load raises its own error, which
    names it, not a ``StageError`` of stage ``load``."""
    try:
        yield from _load_chunks(PipelineConfig(data_root, alignment=alignment), manifests)
    except StageError as e:
        raise e.cause


def _in_order(function: Callable, *iterables) -> Iterator:
    """``map`` in the calling thread, each call made as its result is read.
    A generator, not the builtin ``map``: a ``StopIteration`` raised by
    ``function`` fails the read (PEP 479) instead of ending it early."""
    return (function(*args) for args in zip(*iterables))


def _processed_chunks(
    config: PipelineConfig,
    manifests: Sequence[VideoManifest],
    vocab: Vocabulary,
    replies: dict,
    map_videos: Callable[..., Iterator[VideoResult]],
) -> Iterator[Tuple[ingest.DatasetBundle, List[VideoResult]]]:
    """Each chunk of ``_load_chunks`` with ``_process_video`` of its videos,
    in order.

    A chunk is clustered in one ``align.cluster_videos`` call, and its videos
    are then mapped with ``map_videos`` (``_in_order``, or a thread pool's
    ``map``) over their manifests and clusterings. A chunk is collected only
    once the next chunk has loaded and clustered, so the pool's workers take
    the next chunk's videos without waiting at the end of each chunk; two
    chunks are held at every ``--workers``."""
    running = None
    for chunk in _load_chunks(config, manifests):
        with _stage("process"):
            clusterings = align_mod.cluster_videos(
                [chunk.embeddings[m.video_id] for m in chunk.manifests],
                config.alignment, config.seed,
            )
            shared = [repeat(arg) for arg in (chunk, config, vocab, replies)]
            results = map_videos(_process_video, chunk.manifests, clusterings, *shared)
        if running:
            yield _collected(*running)
        running = chunk, results
        del chunk, clusterings, shared, results  # so that the next chunk loads without them
    if running:
        yield _collected(*running)


def _collected(
    chunk: ingest.DatasetBundle, results: Iterator[VideoResult]
) -> Tuple[ingest.DatasetBundle, List[VideoResult]]:
    """``chunk`` with its videos' ``results``, read under stage ``process``."""
    with _stage("process"):
        return chunk, list(results)


def _trace_record(result: VideoResult) -> dict:
    record = result.trace.to_dict()
    record["usage"] = result.usage.to_dict()
    record["discards"] = result.discards.to_dict()
    return record


def _stream(config: PipelineConfig, manifests: Sequence[VideoManifest], staged: Path) -> RunReport:
    """Run the pipeline over ``manifests`` one chunk at a time
    (``_load_chunks``) and write the run's outputs into ``staged``.

    Each video's sentence and trace lines are written once it is grounded,
    and so are its scene-graph lines unless an open-vocabulary cut applies.
    Across chunks only what the dataset-wide steps read is kept: the reply
    memo, the report's counts, the motion candidates of each written graph,
    and under a cut the mapped predicates' counts and each video's grounded
    triplets with the grounding-table rows of its unaligned runs' endpoint
    frames, which are written once the cut is known.
    """
    vocab = Vocabulary.action_genome()
    replies: dict = {}
    report = RunReport(videos=len(manifests))
    predicates: Counter = Counter()
    candidates: List[motion.MotionCandidate] = []
    cut = _cuts_open_vocabulary(config.parsing)
    held = []
    workers = min(config.workers, len(manifests))
    # Opening and closing the streamed files is the write stage; every step
    # between them names its own stage.
    with _stage("write"), ExitStack() as stack:
        sentences_out, graphs_out, trace_out = (
            stack.enter_context(ingest.NdjsonWriter(staged / name)) for name in _STREAMED
        )
        map_videos = _in_order
        if workers > 1:
            pool = ThreadPoolExecutor(max_workers=workers)
            # After an error, the videos not yet started are not run.
            stack.callback(pool.shutdown, cancel_futures=True)
            map_videos = pool.map

        def emit_graph(video_id: str, grounded: List[Triplet], runs, table) -> None:
            with _stage("negatives"):
                graph = SceneGraph.from_triplets(video_id, grounded)
                candidates.extend(
                    motion.video_candidates(video_id, graph.object_classes(), table, runs)
                )
            with _stage("write"):
                report.grounded_triplets += len(grounded)
                graphs_out.write(ingest.scene_graph_lines([graph]))

        for chunk, results in _processed_chunks(config, manifests, vocab, replies, map_videos):
            for manifest, r in zip(chunk.manifests, results):
                with _stage("ground"):
                    grounded = ground_video(r.mapped, r.sentences, chunk.detections[r.video_id])
                with _stage("write"):
                    report.sentences += len(r.sentences)
                    report.triplets_extracted += len(r.extracted)
                    report.triplets_discarded += r.discards.total()
                    try:
                        report.usage = report.usage + r.usage
                    except ValueError as e:  # TokenUsage rejects a cost sum that overflowed
                        raise CapgraphError(
                            f"video {r.video_id!r}: the estimated cost summed up to this "
                            "video is too large for a float"
                        ) from e
                    predicates.update(t.predicate_class for _, t in r.mapped)
                    sentences_out.write(ingest.sentence_lines(r.video_id, r.sentences))
                    trace_out.write(ingest.record_lines([_trace_record(r)]))
                with _stage("negatives"):
                    runs = (
                        [] if config.skip_negatives
                        else motion.collect_unaligned_runs(manifest, r.sentences)
                    )
                    table = chunk.detections[r.video_id]
                    if cut:
                        rows = {f: table[f] for run in runs for f in run if f in table}
                        held.append((r.video_id, grounded, runs, rows))
                if not cut:
                    emit_graph(r.video_id, grounded, runs, table)
            del chunk, results  # so that the next chunk loads without them
            # run_all pauses the cyclic GC; what the chunk left in reference
            # cycles (a retried chat request's traceback, say) goes here.
            gc.collect(0)

        with _stage("ground"):
            kept = kept_predicates(predicates, config.parsing)
        report.triplets_mapped = sum(predicates[predicate] for predicate in kept)
        for video_id, grounded, runs, rows in held:
            emit_graph(video_id, [t for t in grounded if t.predicate_class in kept], runs, rows)

    with _stage("negatives"):
        assignment = motion.assign_negatives(candidates, config.motion)
    report.motion_candidates = len(candidates)
    report.negatives = sum(len(ts) for ts in assignment.by_video.values())
    with _stage("write"):
        ingest.write_scene_graphs(negative_graphs(assignment), staged / "negatives.ndjson")
        (staged / "report.json").write_text(
            json.dumps(report.to_dict(), sort_keys=True, indent=1) + "\n", encoding="utf-8"
        )
    return report


def _missing_dirs(path: Path) -> List[Path]:
    """``path`` and its parents up to the first that exists, innermost first."""
    missing = []
    for directory in (path, *path.parents):
        if directory.exists():
            break
        missing.append(directory)
    return missing


def run_all(config: PipelineConfig) -> RunReport:
    """Run segment -> align -> parse -> ground -> negatives and write outputs.

    Equal config, seed and cached responses produce byte-identical output
    files. Before any file is read, ``config`` passes the gate a config file
    passes, so a field changed after the config was built is checked too.
    The run streams the dataset chunk by chunk (``_stream``), so a file of a
    later video that fails to load stops it only once the chunks before the
    previous one ran; ``capgraph validate`` checks every file up front.

    The outputs are written into a staging directory inside ``out_dir`` and
    moved into place only once all are written, so a failed run leaves
    ``out_dir`` as it was, and removes it if the run created it.
    ``report.json`` marks a complete run: the previous one is removed before
    the first move and the new one moved in last, so a failed move leaves no
    report. The first fatal error is raised as a ``StageError`` naming its
    stage. The cyclic garbage collector is paused for the run, and collects
    the youngest generation after each chunk, so cycles a chunk leaves do
    not pile up over the run.
    """
    out_dir = Path(config.out_dir)
    made: List[Path] = []
    try:
        with ingest._cyclic_gc_paused():
            with _stage("load"):
                PipelineConfig.from_dict(config.to_dict())
                manifests = ingest.load_manifests(Path(config.data_root) / "manifest.ndjson")
            with _stage("write"):
                made = _missing_dirs(out_dir)
                try:
                    out_dir.mkdir(parents=True, exist_ok=True)
                    # Inside out_dir, so that each os.replace stays on one file system.
                    staging = tempfile.TemporaryDirectory(prefix=".staging-", dir=out_dir)
                except OSError as e:
                    raise IoFailure(f"cannot write {out_dir}: {e.strerror or e}") from e
            with staging:
                staged = Path(staging.name)
                report = _stream(config, manifests, staged)
                with _stage("write"):
                    try:
                        dest = out_dir / "report.json"
                        dest.unlink(missing_ok=True)
                        for name in _RUN_OUTPUTS:
                            dest = out_dir / name
                            os.replace(staged / name, dest)
                    except OSError as e:
                        raise IoFailure(f"cannot write {dest}: {e.strerror or e}") from e
        return report
    except BaseException:
        for directory in made:
            try:
                directory.rmdir()
            except OSError:
                break
        raise


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
