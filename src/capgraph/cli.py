"""Pipeline orchestration and command-line interface.

Subcommands: segment, align, parse, ground, plm, eval, run-all, stats,
validate. Exit codes: 0 success, 1 fatal stage error, 2 validation failure.
The API key is read from the environment; ``--offline`` forbids network
access and requires recorded responses in the cache.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import tempfile
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import click

from . import align as align_mod
from . import evaluate as eval_mod
from . import ingest, motion, parse as parse_mod, segment as segment_mod
from .core import SceneGraph, SegmentedSentence, Triplet, Vocabulary
from .errors import CapgraphError, IoFailure, MalformedRecord, MissingFile, StageError
from .llm import ChatClient, TokenUsage

@dataclass
class PipelineConfig:
    """One declarative config for the whole pipeline; every default is the
    published hyperparameter (beta 4, alpha 15%, confidence floor 0.2)."""

    data_root: str = "."
    out_dir: str = "out"
    cache_dir: Optional[str] = None
    seed: int = 0
    workers: int = 1
    offline: bool = False
    skip_negatives: bool = False
    ingest: ingest.IngestConfig = field(default_factory=ingest.IngestConfig)
    segmentation: segment_mod.SegmentConfig = field(default_factory=segment_mod.SegmentConfig)
    alignment: align_mod.AlignConfig = field(default_factory=align_mod.AlignConfig)
    parsing: parse_mod.ParseConfig = field(default_factory=parse_mod.ParseConfig)
    motion: motion.MotionLabelConfig = field(default_factory=motion.MotionLabelConfig)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        """Inverse of ``to_dict``; missing keys keep their defaults, and
        unknown keys raise ``TypeError``."""
        return _from_plain(cls, d)


def _from_plain(klass, data, prefix=""):
    """Build ``klass`` from JSON-shaped data. Nested dataclasses and scalar
    types come from the field defaults (null and None defaults are not
    type-checked, and a JSON boolean is no number); unknown keys are rejected
    by their dotted name."""
    if not isinstance(data, dict):
        raise TypeError(f"{klass.__name__} must be a JSON object, got {data!r}")
    defaults = klass()
    names = {f.name for f in dataclasses.fields(klass)}
    kwargs = {}
    for key, value in data.items():
        if key not in names:
            raise TypeError(f"unknown key {prefix + key!r}")
        default = getattr(defaults, key, None)
        if dataclasses.is_dataclass(default):
            value = _from_plain(type(default), value, f"{key}.")
        elif default is not None and value is not None:
            expected = (int, float) if isinstance(default, float) else type(default)
            if not isinstance(value, expected) or (
                isinstance(value, bool) and not isinstance(default, bool)
            ):
                raise TypeError(f"{klass.__name__}.{key} must be {type(default).__name__}, "
                                f"got {value!r}")
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
    """Per-stage counts for one pipeline run.

    ``wall_time_seconds`` is informational and intentionally left out of the
    serialized report so equal inputs always produce byte-identical outputs;
    ``usage`` is written as ``token_usage``.
    """

    videos: int = 0
    sentences: int = 0
    triplets_extracted: int = 0
    triplets_mapped: int = 0
    triplets_discarded: int = 0
    grounded_triplets: int = 0
    motion_candidates: int = 0
    negatives: int = 0
    usage: TokenUsage = field(default_factory=TokenUsage)
    wall_time_seconds: float = 0.0

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        del d["wall_time_seconds"]
        d["token_usage"] = d.pop("usage")
        return d


# ---------------------------------------------------------------------------
# Stages, each shared by run_all and its subcommand


def _segment_video(
    manifest, config: segment_mod.SegmentConfig, client: ChatClient
) -> List[SegmentedSentence]:
    """Segment one caption, capping the sentence count below the frame count."""
    return segment_mod.segment_caption(
        manifest.caption,
        config,
        client=client,
        max_sentences=max(1, manifest.num_frames - 1),
    )


def _cluster_videos(
    video_ids: Sequence[str], bundle: ingest.DatasetBundle, config: align_mod.AlignConfig,
    seed: int,
) -> Dict[str, align_mod.ClusteringResult]:
    """Frame clusterings of the videos in ``video_ids`` that the bundle holds,
    all in one ``cluster_videos`` call."""
    known = [v for v in video_ids if v in bundle.embeddings]
    matrices = [bundle.embeddings[v] for v in known]
    return dict(zip(known, align_mod.cluster_videos(matrices, config, seed)))


def _align_video(
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


def _parse_sentences(
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


def _open_vocabulary_cut(
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


def _ground_video(
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


def _negatives(
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


def _negative_graphs(assignment: motion.NegativeAssignment) -> List[SceneGraph]:
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
    sentences = _segment_video(manifest, config.segmentation, client)
    aligned, trace = _align_video(
        manifest.video_id, sentences, bundle, clusterings, config.alignment
    )
    extracted, mapped = _parse_sentences(aligned, vocab, config.parsing, client, discards)
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
    if workers <= 1:
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
    stage error is re-raised with its stage name.
    """
    started = time.monotonic()
    vocab = Vocabulary.action_genome()
    out_dir = Path(config.out_dir)
    stage = "load"
    try:
        bundle = ingest.load_bundle(config.data_root, config.ingest)

        stage = "process"
        replies: dict = {}
        clusterings = _cluster_videos(
            [m.video_id for m in bundle.manifests], bundle, config.alignment, config.seed
        )
        # In video-id order at any --workers: load_bundle sorts, _map_videos keeps order.
        results = _map_videos(
            lambda m: _process_video(m, bundle, config, vocab, replies, clusterings),
            bundle.manifests,
            config.workers,
        )

        stage = "ground"
        cut = _open_vocabulary_cut({r.video_id: r.mapped for r in results}, config.parsing)
        for r in results:
            r.mapped = cut[r.video_id]
        grounded = {
            r.video_id: _ground_video(
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
            candidates, assignment = _negatives(
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

        out_dir.mkdir(parents=True, exist_ok=True)
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
                _negative_graphs(assignment), staged / "negatives.ndjson"
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
        report.wall_time_seconds = time.monotonic() - started
        return report
    except Exception as e:
        if isinstance(e, StageError):
            raise
        raise StageError(stage, e) from e


# ---------------------------------------------------------------------------
# Statistics


def aggregate_stats(trace_paths: Sequence[str]) -> dict:
    """Aggregate trace files into usage, cost and histogram statistics.

    Cost is the ``usage.estimated_cost`` each record holds, as its run priced
    it with the run's configured prices. A video id met in more than one
    record (two runs passed together) sums its records in ``per_video``.
    """

    def decode(record: dict) -> tuple:
        """(video id, usage, sentence count, interval lengths, gap buckets,
        discard counts) of one trace record."""
        sentences = [ingest.json_object(s) for s in record.get("sentences", [])]
        intervals = [s["post_pruning_interval"] for s in sentences
                     if s.get("post_pruning_interval")]
        gaps = [s["steepest_gap"] for s in sentences if s.get("steepest_gap") is not None]
        discards = ingest.json_object(record.get("discards", {}))
        return (
            str(record.get("video_id", "?")),
            TokenUsage.from_dict(ingest.json_object(record.get("usage", {}))),
            str(len(sentences)),
            [str(interval[1] - interval[0] + 1) for interval in intervals],
            [f"{round(float(gap), 1):.1f}" for gap in gaps],
            {reason: int(count) for reason, count in discards.items()},
        )

    videos = 0
    per_video: Dict[str, TokenUsage] = {}
    usage = TokenUsage()
    sentences_hist, interval_hist, gap_hist, discards = Counter(), Counter(), Counter(), Counter()
    for path in trace_paths:
        for _, (video_id, u, sentence_count, lengths, gaps, counts) in ingest.read_records(
            path, "trace", decode
        ):
            videos += 1
            per_video[video_id] = per_video.get(video_id, TokenUsage()) + u
            usage = usage + u
            sentences_hist[sentence_count] += 1
            interval_hist.update(lengths)
            gap_hist.update(gaps)
            discards.update(counts)

    return {
        "videos": videos,
        "token_usage": usage.to_dict(),
        "per_video": {
            video_id: {"input_tokens": u.input_tokens, "output_tokens": u.output_tokens,
                       "cost": u.estimated_cost}
            for video_id, u in sorted(per_video.items())
        },
        "histograms": {
            "sentences_per_caption": dict(sorted(sentences_hist.items())),
            "aligned_interval_lengths": dict(sorted(interval_hist.items())),
            "steepest_decline_gaps": dict(sorted(gap_hist.items())),
        },
        "discards": dict(sorted(discards.items())),
    }


# ---------------------------------------------------------------------------
# CLI. Flag defaults are read from the config dataclasses: a field with a
# plain default keeps it as a class attribute (``AlignConfig.beta == 4``).


class _Main(click.Group):
    """Stops any subcommand's ``CapgraphError`` with ``error: ...`` and exit 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except CapgraphError as e:
            click.echo(f"error: {e}", err=True)
            sys.exit(1)


@click.group(cls=_Main)
def main():
    """Turn video captions plus frame embeddings and detections into
    pseudo-localized scene graphs, and evaluate predictions with Recall@K."""


def _checked(make):
    """A click callback whose flag value is ``make(value)``; a ``ValueError``
    from it (a config rejecting the value) is a usage error, exit 2."""

    def callback(ctx, param, value):
        try:
            return make(value)
        except ValueError as e:
            raise click.BadParameter(f"{e} (got {value!r})") from e

    return callback


def _load_pipeline_config(
    config_path: Optional[str], overrides: Dict[str, object]
) -> PipelineConfig:
    """The config file (defaults without one) with ``overrides`` folded in.

    Override keys are ``field`` or ``section.field``; None values are skipped.
    """
    try:
        data = json.loads(Path(config_path).read_text(encoding="utf-8")) if config_path else {}
        if not isinstance(data, dict):
            raise TypeError(f"PipelineConfig must be a JSON object, got {data!r}")
        for key, value in overrides.items():
            if value is not None:
                section, _, name = key.rpartition(".")
                (data.setdefault(section, {}) if section else data)[name] = value
        return PipelineConfig.from_dict(data)
    except json.JSONDecodeError as e:
        raise MalformedRecord(config_path, e.lineno, f"invalid JSON: {e.msg}") from e
    except (TypeError, ValueError, RecursionError) as e:
        raise MalformedRecord(config_path, 0, f"bad pipeline config: {e}") from e


@main.command()
@click.option("--data-root", required=True, type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--tcs-mode", "mode", type=click.Choice(segment_mod.SEGMENT_MODES),
              default=segment_mod.SegmentConfig.mode)
@click.option("--model", default=segment_mod.SegmentConfig.model_name)
@click.option("--cache-dir", default=None, type=click.Path())
@click.option("--offline", is_flag=True, default=False)
def segment(data_root, out_path, mode, model, cache_dir, offline):
    """Split each video caption into chronologically ordered sentences."""
    config = segment_mod.SegmentConfig(model_name=model, mode=mode)
    client = segment_mod.make_client(config, cache_dir, offline)
    sentences = {
        m.video_id: _segment_video(m, config, client)
        for m in ingest.load_manifests(Path(data_root) / "manifest.ndjson")
    }
    ingest.write_sentences(sentences, out_path)
    click.echo(f"wrote {sum(map(len, sentences.values()))} sentences to {out_path}")


def _parse_selection(value: str) -> align_mod.AlignConfig:
    """The ``--selection`` flag as an ``AlignConfig`` with the default beta."""
    if value in ("steepest", "steepest_decline"):
        return align_mod.AlignConfig(selection="steepest_decline")
    if value.startswith("gap:"):
        return align_mod.AlignConfig(selection="fixed_gap", gap_tau=float(value.split(":", 1)[1]))
    raise click.BadParameter("selection must be 'steepest' or 'gap:<tau>'")


@main.command(name="align")
@click.option("--data-root", required=True, type=click.Path())
@click.option("--sentences", "sentences_path", required=True, type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--beta", default=align_mod.AlignConfig.beta, show_default=True,
              callback=_checked(lambda v: align_mod.AlignConfig(beta=v).beta))
@click.option("--selection", default="steepest", show_default=True,
              callback=_checked(_parse_selection))
@click.option("--seed", default=PipelineConfig.seed, show_default=True)
@click.option("--trace-out", default=None, type=click.Path())
def align_cmd(data_root, sentences_path, out_path, beta, selection, seed, trace_out):
    """Align segmented sentences with consecutive frame intervals."""
    config = dataclasses.replace(selection, beta=beta)
    bundle = ingest.load_bundle(data_root)
    sentences = ingest.load_sentences(sentences_path)
    video_ids = sorted(sentences)
    clusterings = _cluster_videos(video_ids, bundle, config, seed)
    aligned = {}
    traces = []
    for video_id in video_ids:
        aligned[video_id], trace = _align_video(
            video_id, sentences[video_id], bundle, clusterings, config
        )
        traces.append(trace)
    ingest.write_sentences(aligned, out_path)
    if trace_out:
        ingest.write_record_lines([t.to_dict() for t in traces], trace_out)
    click.echo(f"aligned {len(aligned)} videos")


@main.command(name="parse")
@click.option("--sentences", "sentences_path", required=True, type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--parser", type=click.Choice(parse_mod.PARSER_MODES),
              default=parse_mod.ParseConfig.parser, show_default=True)
@click.option("--mapping", type=click.Choice(parse_mod.MAPPING_MODES),
              default=parse_mod.ParseConfig.mapping, show_default=True)
@click.option("--top-n", "top_n", default=parse_mod.ParseConfig.top_n_open_classes,
              show_default=True, callback=_checked(
                  lambda v: parse_mod.ParseConfig(top_n_open_classes=v).top_n_open_classes))
@click.option("--lexicon-path", default=None, type=click.Path())
@click.option("--model", default=segment_mod.SegmentConfig.model_name)
@click.option("--cache-dir", default=None, type=click.Path())
@click.option("--offline", is_flag=True, default=False)
def parse_cmd(sentences_path, out_path, parser, mapping, top_n, lexicon_path, model, cache_dir, offline):
    """Extract triplets from sentences and map them into the vocabulary."""
    config = parse_mod.ParseConfig(
        parser=parser, mapping=mapping, lexicon_path=lexicon_path,
        top_n_open_classes=top_n,
    )
    vocab = Vocabulary.action_genome()
    client = segment_mod.make_client(
        segment_mod.SegmentConfig(model_name=model), cache_dir, offline
    )
    counters = parse_mod.DiscardCounters()
    sentences = ingest.load_sentences(sentences_path)
    mapped = {
        video_id: _parse_sentences(items, vocab, config, client, counters)[1]
        for video_id, items in sorted(sentences.items())
    }
    mapped = _open_vocabulary_cut(mapped, config)
    rows = [
        (video_id, order_index, t)
        for video_id, items in mapped.items()
        for order_index, t in items
    ]
    ingest.write_parsed_triplets(rows, out_path)
    click.echo(
        f"wrote {len(rows)} triplets ({counters.total()} discarded) to {out_path}"
    )


@main.command()
@click.option("--data-root", required=True, type=click.Path())
@click.option("--sentences", "sentences_path", required=True, type=click.Path())
@click.option("--triplets", "triplets_path", required=True, type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path())
def ground(data_root, sentences_path, triplets_path, out_path):
    """Ground parsed triplets to detections across their aligned frames."""
    bundle = ingest.load_bundle(data_root)
    sentences = ingest.load_sentences(sentences_path)
    mapped: Dict[str, List[Tuple[int, Triplet]]] = {}
    for video_id, order_index, triplet in ingest.load_parsed_triplets(triplets_path):
        mapped.setdefault(video_id, []).append((order_index, triplet))
    graphs = [
        SceneGraph.from_triplets(
            video_id,
            _ground_video(
                video_id, items, sentences.get(video_id, []), bundle, source=triplets_path
            ),
        )
        for video_id, items in sorted(mapped.items())
    ]
    ingest.write_scene_graphs(graphs, out_path)
    click.echo(f"grounded {sum(len(g.all_triplets()) for g in graphs)} triplets")


@main.command()
@click.option("--data-root", required=True, type=click.Path())
@click.option("--sentences", "sentences_path", required=True, type=click.Path())
@click.option("--graphs", "graphs_path", required=True, type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--alpha", default=motion.MotionLabelConfig.alpha_percent, show_default=True,
              callback=_checked(lambda v: motion.MotionLabelConfig(alpha_percent=v).alpha_percent))
@click.option("--not-looking", type=click.Choice(motion.ENDPOINT_STRATEGIES),
              default=motion.MotionLabelConfig.strategy_not_looking, show_default=True)
@click.option("--not-contacting", type=click.Choice(motion.ENDPOINT_STRATEGIES),
              default=motion.MotionLabelConfig.strategy_not_contacting, show_default=True)
def plm(data_root, sentences_path, graphs_path, out_path, alpha, not_looking, not_contacting):
    """Assign negative-action pseudo-labels on unaligned frames."""
    config = motion.MotionLabelConfig(
        alpha_percent=alpha,
        strategy_not_looking=not_looking,
        strategy_not_contacting=not_contacting,
    )
    bundle = ingest.load_bundle(data_root)
    sentences = ingest.load_sentences(sentences_path)
    graphs = {g.video_id: g for g in ingest.load_scene_graphs(graphs_path)}
    candidates, assignment = _negatives(bundle, sentences, graphs, config)
    ingest.write_scene_graphs(_negative_graphs(assignment), out_path)
    click.echo(
        f"selected {len(assignment.selected)} of {len(candidates)} candidates; "
        f"wrote {sum(len(t) for t in assignment.by_video.values())} negatives"
    )


def _k_values(value: str) -> Tuple[int, ...]:
    """``--k 20,50`` as the ascending K tuple an ``EvalConfig`` accepts."""
    return eval_mod.EvalConfig(k_values=tuple(sorted(int(k) for k in value.split(",")))).k_values


@main.command(name="eval")
@click.option("--gt", "gt_path", required=True, type=click.Path())
@click.option("--pred", "pred_path", required=True, type=click.Path())
@click.option("--k", "k_values", default=",".join(map(str, eval_mod.EvalConfig.k_values)),
              show_default=True, callback=_checked(_k_values))
@click.option("--regime", type=click.Choice(eval_mod.REGIME_CHOICES),
              default=eval_mod.EvalConfig.regime, show_default=True)
@click.option("--iou", "iou_threshold", default=eval_mod.EvalConfig.iou_threshold,
              show_default=True,
              callback=_checked(lambda v: eval_mod.EvalConfig(iou_threshold=v).iou_threshold))
@click.option("--json-out", default=None, type=click.Path())
def eval_cmd(gt_path, pred_path, k_values, regime, iou_threshold, json_out):
    """Score predictions against ground truth with Recall@K."""
    config = eval_mod.EvalConfig(k_values=k_values, iou_threshold=iou_threshold, regime=regime)
    instances = build_eval_instances(
        ingest.load_scene_graphs(gt_path), ingest.load_scene_graphs(pred_path)
    )
    results = eval_mod.recall_at_k(instances, config)
    payload = {
        f"{regime_name}/R@{k}": value for (regime_name, k), value in sorted(results.items())
    }
    if json_out:
        Path(json_out).write_text(
            json.dumps(payload, sort_keys=True, indent=1) + "\n", encoding="utf-8"
        )
    click.echo(json.dumps(payload, sort_keys=True, indent=1))
    click.echo(format_recall_table(results, k_values, config.regimes()))


def build_eval_instances(
    gt_graphs: Sequence[SceneGraph], pred_graphs: Sequence[SceneGraph]
) -> List[eval_mod.EvalInstance]:
    preds_by_key = eval_mod.triplets_by_frame(pred_graphs)
    instances = []
    for graph in sorted(gt_graphs, key=lambda g: g.video_id):
        for frame in sorted(graph.per_frame):
            instances.append(
                eval_mod.EvalInstance(
                    frame_index=frame,
                    gt=list(graph.per_frame[frame]),
                    predictions=preds_by_key.get((graph.video_id, frame), []),
                )
            )
    return instances


def format_recall_table(results, k_values, regimes) -> str:
    headers = {"with_constraint": "With Constraint", "no_constraint": "No Constraint"}
    column_labels = []
    values = []
    for regime in regimes:
        for k in k_values:
            column_labels.append(f"{headers[regime]} R@{k}")
            values.append(results[(regime, k)])
    width = max(len(label) for label in column_labels) + 2
    header_line = "".join(label.rjust(width) for label in column_labels)
    value_line = "".join(f"{v * 100:.2f}".rjust(width) for v in values)
    return header_line + "\n" + value_line


@main.command(name="run-all")
@click.option("--data-root", default=None, type=click.Path())
@click.option("--out-dir", default=None, type=click.Path())
@click.option("--cache-dir", default=None, type=click.Path())
@click.option("--config", "config_path", default=None,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--seed", default=None, type=int)
@click.option("--workers", default=None, type=int)
@click.option("--offline", is_flag=True, default=False)
@click.option("--skip-plm", is_flag=True, default=False)
@click.option("--parser", default=None, type=click.Choice(parse_mod.PARSER_MODES))
@click.option("--mapping", default=None, type=click.Choice(parse_mod.MAPPING_MODES))
@click.option("--tcs-mode", default=None, type=click.Choice(segment_mod.SEGMENT_MODES))
@click.option("--dump-config", is_flag=True, default=False,
              help="Print the effective configuration as JSON and exit.")
def run_all_cmd(data_root, out_dir, cache_dir, config_path, seed, workers, offline,
                skip_plm, parser, mapping, tcs_mode, dump_config):
    """Run the whole pipeline end to end and write all outputs."""
    config = _load_pipeline_config(config_path, {
        "data_root": data_root,
        "out_dir": out_dir,
        "cache_dir": cache_dir,
        "seed": seed,
        "workers": workers,
        "offline": offline or None,
        "skip_negatives": skip_plm or None,
        "parsing.parser": parser,
        "parsing.mapping": mapping,
        "segmentation.mode": tcs_mode,
    })
    if dump_config:
        click.echo(json.dumps(config.to_dict(), sort_keys=True, indent=1))
        return
    report = run_all(config)
    click.echo(json.dumps(report.to_dict(), sort_keys=True, indent=1))
    click.echo(f"wall time: {report.wall_time_seconds:.2f}s", err=True)


@main.command()
@click.argument("traces", nargs=-1, type=click.Path())
def stats(traces):
    """Aggregate trace files: token usage, cost per video, histograms."""
    report = aggregate_stats(list(traces))
    click.echo(json.dumps(report, sort_keys=True, indent=1))


@main.command()
@click.option("--data-root", required=True, type=click.Path())
def validate(data_root):
    """Check a dataset root; exit 2 when any invariant is violated."""
    try:
        bundle = ingest.load_bundle(data_root)
    except CapgraphError as e:
        click.echo(f"validation failure: {e}", err=True)
        sys.exit(2)
    click.echo(f"ok: {len(bundle.manifests)} videos")


if __name__ == "__main__":
    main()
