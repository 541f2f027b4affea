"""The pipeline run: one config, ``run_all``, and the code that ties a
dataset root's files to the stages.

Each stage lives in its own module and is shared by ``run_all`` and the
subcommand of the same stage in ``cli``: ``segment.segment_video``,
``parse.parse_sentences``, ``parse.kept_predicates`` and
``parse.ground_video``. This module keeps what reads a dataset root:
``video_chunks``, the chunk walk of ``run_all`` and of the staged commands
that read one, and ``align_video``, which checks a video's sentence matrix
against its file. It imports ``align``, and through it numpy, when it loads:
building a ``PipelineConfig`` loads the whole pipeline before a run starts,
and the commands that need neither (``segment``, ``parse``, ``eval``,
``stats``, ``--help``) never import it.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import typing
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from . import align as align_mod
from . import evaluate as eval_mod
from . import ingest, motion, parse as parse_mod, segment as segment_mod
from .config import DEFAULT_SEED, check_seed
from .core import (
    EmbeddingMatrix, FrameTriplets, GroundingTable, SceneGraph, SegmentedSentence, Triplet,
    VideoManifest, Vocabulary,
)
from .errors import CapgraphError, MissingFile, StageError, write_failure
from .llm import TokenUsage


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


# The files run_all writes, in the order it renames them into place:
# report.json goes last, so it never describes outputs that are not all in
# place.
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
# The code that ties a dataset root's files to the stages, shared by run_all
# and the staged commands


def align_video(
    video_id: str,
    sentences: List[SegmentedSentence],
    sentence_embeds: Optional[EmbeddingMatrix],
    clustering: align_mod.ClusteringResult,
    config: align_mod.AlignConfig,
    data_root,
) -> Tuple[List[SegmentedSentence], align_mod.AlignmentTrace]:
    """Align one video's sentences on ``clustering``, the clustering of its
    frames (``align.cluster_videos``).

    ``sentence_embeds`` is the video's sentence matrix, None when the dataset
    root ``data_root`` has no file for it (``MissingFile``), and must hold
    one row per sentence, in order: row *i*'s id is sentence *i*'s order
    index (``ingest.check_rows``). Otherwise ``MalformedRecord`` names the
    file."""
    path = ingest.sentence_embeddings_path(data_root, video_id)
    if sentence_embeds is None:
        raise MissingFile(
            f"{path} (produce sentence embeddings for the segmented captions, then re-run)"
        )
    ingest.check_rows(
        path, sentence_embeds, [str(s.order_index) for s in sentences], video_id,
        "sentence", "order index",
    )
    return align_mod.align_sentences(
        sentences, sentence_embeds, clustering, config, video_id=video_id
    )


def _process_video(
    manifest,
    clustering: align_mod.ClusteringResult,
    sentence_embeds: Optional[EmbeddingMatrix],
    config: PipelineConfig,
    vocab: Vocabulary,
    replies: dict,
) -> VideoResult:
    """Segment, align and parse one video on ``clustering``, the clustering
    of its frames, and ``sentence_embeds``, its sentence matrix (None when it
    has no file). ``replies`` is the run's shared memo of recorded chat
    replies; usage is still counted per video."""
    client = segment_mod.make_client(
        config.segmentation, config.cache_dir, config.offline, replies
    )
    discards = parse_mod.DiscardCounters()
    sentences = segment_mod.segment_video(manifest, config.segmentation, client)
    aligned, trace = align_video(
        manifest.video_id, sentences, sentence_embeds, clustering, config.alignment,
        config.data_root,
    )
    extracted, mapped = parse_mod.parse_sentences(
        aligned, vocab, config.parsing, client, discards)
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


# One loaded video: its manifest and what ``ingest.load_video`` read for it,
# the frame matrix, the sentence matrix (None without a file) and the
# grounding table.
LoadedVideo = Tuple[VideoManifest, EmbeddingMatrix, Optional[EmbeddingMatrix], GroundingTable]


def video_chunks(
    manifests: Sequence[VideoManifest],
    load: Callable[[VideoManifest], tuple],
    beta: int,
    workers: int = 1,
) -> Iterator[List[LoadedVideo]]:
    """The videos of ``manifests``, each loaded with ``load`` (``load_video``
    of one manifest), in chunks of consecutive videos: as many as one
    ``align.cluster_videos`` chunk admits at ``beta`` under
    ``KMEANS_BATCH_ELEMENTS``, and at least ``workers``, so that every worker
    has a video. ``cluster_videos`` splits a larger chunk into k-means chunks
    of its own. ``run_all`` and the staged commands that read a dataset root
    all walk it this way; an error of ``load`` passes through as it is."""
    chunk, elements = [], 0
    for manifest in manifests:
        frames, sentences, table = load(manifest)
        size = align_mod.video_elements(*frames.rows.shape, beta)
        if len(chunk) >= workers and elements + size > align_mod.KMEANS_BATCH_ELEMENTS:
            yield chunk
            chunk, elements = [], 0
        chunk.append((manifest, frames, sentences, table))
        elements += size
    if chunk:
        yield chunk


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
) -> Iterator[Tuple[List[LoadedVideo], List[VideoResult]]]:
    """Each chunk of ``video_chunks`` with ``_process_video`` of its videos,
    in order. A file that fails to load stops the run at stage ``load``, and
    any other error of the walk at stage ``process``.

    A chunk is clustered in one ``align.cluster_videos`` call, and its videos
    are then mapped with ``map_videos`` (``_in_order``, or a thread pool's
    ``map``) over their manifests, clusterings and sentence matrices. A chunk
    is collected only once the next chunk has loaded and clustered, so the
    pool's workers take the next chunk's videos without waiting at the end of
    each chunk; two chunks are held at every ``--workers``."""

    def load(manifest: VideoManifest):
        with _stage("load"):
            return ingest.load_video(config.data_root, manifest, config.ingest)

    running = None
    with _stage("process"):
        for chunk in video_chunks(manifests, load, config.alignment.beta, config.workers):
            videos, frames, sentences, _ = zip(*chunk)
            clusterings = align_mod.cluster_videos(frames, config.alignment, config.seed)
            shared = [repeat(arg) for arg in (config, vocab, replies)]
            results = map_videos(_process_video, videos, clusterings, sentences, *shared)
            if running:
                yield running[0], list(running[1])
            running = chunk, results
            # So that the next chunk loads without them.
            del chunk, videos, frames, sentences, clusterings, shared, results
        if running:
            yield running[0], list(running[1])


@contextmanager
def _committing(outputs: Sequence[ingest.OutputFile], report: Path) -> Iterator[None]:
    """Once the block exits cleanly, flush ``outputs``, so that a full disk
    fails the run before any previous file is touched, then remove
    ``report``, if it is there."""
    yield
    for out in outputs:
        out.flush()
    try:
        report.unlink(missing_ok=True)
    except OSError as e:
        raise write_failure(report, e) from e


def _stream(config: PipelineConfig, manifests: Sequence[VideoManifest], out_dir: Path) -> RunReport:
    """Run the pipeline over ``manifests`` one chunk at a time
    (``video_chunks``) and write the run's outputs into ``out_dir``. Each
    video is grounded on, and its candidates built from, the grounding
    table that was loaded with it in its chunk.

    The five outputs are ``ingest.OutputFile``s, entered last to first, and
    inside them ``_committing``. So a clean exit flushes every output,
    removes the previous ``report.json``, then renames the outputs in
    ``_RUN_OUTPUTS`` order, ``report.json`` last; any error before the first
    rename removes every temporary file and leaves every previous file as
    it was, and ``out_dir`` is removed again if the run made it.

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
    cut = config.parsing.cuts_open_vocabulary
    held = []
    workers = min(config.workers, len(manifests))
    # Opening and closing the outputs is the write stage; every step between
    # them names its own stage.
    with _stage("write"), ExitStack() as stack:
        outputs = [stack.enter_context(ingest.OutputFile(out_dir / name))
                   for name in reversed(_RUN_OUTPUTS)]
        report_out, trace_out, negatives_out, graphs_out, sentences_out = outputs
        stack.enter_context(_committing(outputs[::-1], out_dir / "report.json"))
        map_videos = _in_order
        if workers > 1:
            pool = ThreadPoolExecutor(max_workers=workers)
            # After an error, the videos not yet started are not run.
            stack.callback(pool.shutdown, cancel_futures=True)
            map_videos = pool.map

        def emit_graph(video_id: str, grounded: List[Triplet], runs, table) -> None:
            with _stage("negatives"):
                classes = {t.object_class for t in grounded}
                candidates.extend(motion.video_candidates(video_id, classes, table, runs))
            with _stage("write"):
                report.grounded_triplets += len(grounded)
                graphs_out.write(ingest.scene_graph_lines((video_id, t) for t in grounded))

        for chunk, results in _processed_chunks(config, manifests, vocab, replies, map_videos):
            for (manifest, _, _, table), r in zip(chunk, results):
                with _stage("ground"):
                    grounded = parse_mod.ground_video(r.mapped, r.sentences, table)
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
                    trace = {**r.trace.to_dict(), "usage": r.usage.to_dict(),
                             "discards": r.discards.to_dict()}
                    trace_out.write(ingest.record_lines([trace]))
                with _stage("negatives"):
                    runs = (
                        [] if config.skip_negatives
                        else motion.collect_unaligned_runs(manifest, r.sentences)
                    )
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
            kept = parse_mod.kept_predicates(predicates, config.parsing)
        report.triplets_mapped = sum(predicates[predicate] for predicate in kept)
        for video_id, grounded, runs, rows in held:
            emit_graph(video_id, [t for t in grounded if t.predicate_class in kept], runs, rows)

        with _stage("negatives"):
            assignment = motion.assign_negatives(candidates, config.motion)
        report.motion_candidates = len(candidates)
        rows = assignment.rows()
        report.negatives = len(rows)
        negatives_out.write(ingest.scene_graph_lines(rows))
        report_out.write([json.dumps(report.to_dict(), sort_keys=True, indent=1)])
    return report


def run_all(config: PipelineConfig) -> RunReport:
    """Run segment -> align -> parse -> ground -> negatives and write outputs.

    Equal config, seed and cached responses produce byte-identical output
    files. Before any file is read, ``config`` passes the gate a config file
    passes, so a field changed after the config was built is checked too.
    The run streams the dataset chunk by chunk (``_stream``), so a file of a
    later video that fails to load stops it only once the chunks before the
    previous one ran; ``capgraph validate`` checks every file up front.

    Each output is written beside its path in ``out_dir`` and renamed into
    place only once all five are written, ``report.json`` last after the
    previous one is removed (``_stream``). So a failed run leaves ``out_dir``
    as it was, or removes it if the run made it, and ``report.json`` marks a
    complete run: a failed rename leaves no report. The first fatal error is
    raised as a ``StageError`` naming its stage. The cyclic garbage
    collector is paused for the run, and collects the youngest generation
    after each chunk, so cycles a chunk leaves do not pile up over the run.
    """
    with ingest._cyclic_gc_paused():
        with _stage("load"):
            PipelineConfig.from_dict(config.to_dict())
            manifests = ingest.load_manifests(Path(config.data_root) / "manifest.ndjson")
        return _stream(config, manifests, Path(config.out_dir))


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
