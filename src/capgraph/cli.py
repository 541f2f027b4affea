"""Command-line interface.

Subcommands: segment, align, parse, ground, plm, eval, run-all, stats,
validate. Exit codes: 0 success, 1 fatal stage error, 2 validation failure.
The API key is read from the environment; ``--offline`` forbids network
access and requires recorded responses in the cache.

This module holds click and the modules that load without numpy. The
commands that run pipeline stages import ``pipeline`` (and through it
``align`` and numpy) when they run, so ``eval``, ``stats`` and ``--help``
never load it. The pipeline names (``PipelineConfig``, ``run_all``, ...)
are still served from here, loading ``pipeline`` on first use.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

import click

from . import evaluate as eval_mod
from . import ingest, motion, parse as parse_mod, segment as segment_mod
from .config import DEFAULT_SEED, AlignConfig, check_seed
from .core import SceneGraph, Triplet, Vocabulary
from .errors import CapgraphError, IoFailure, MalformedRecord
from .llm import TokenUsage

if TYPE_CHECKING:
    from .pipeline import PipelineConfig

_PIPELINE_NAMES = ("PipelineConfig", "RunReport", "VideoResult", "run_all", "build_eval_instances")


def __getattr__(name: str):
    # ``cli.run_all`` and the other pipeline names still resolve, for callers
    # that read them from here; they load ``pipeline`` on first use.
    if name in _PIPELINE_NAMES:
        from . import pipeline

        return getattr(pipeline, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
        for line_no, (video_id, u, sentence_count, lengths, gaps, counts) in ingest.read_records(
            path, "trace", decode
        ):
            videos += 1
            try:
                per_video[video_id] = per_video.get(video_id, TokenUsage()) + u
                usage = usage + u
            except ValueError as e:  # TokenUsage rejects a cost sum that overflowed
                raise MalformedRecord(
                    path, line_no, "the estimated cost summed up to this record is too large "
                    "for a float"
                ) from e
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
    from . import pipeline

    try:
        data = json.loads(Path(config_path).read_text(encoding="utf-8")) if config_path else {}
        if not isinstance(data, dict):
            raise TypeError(f"PipelineConfig must be a JSON object, got {data!r}")
        for key, value in overrides.items():
            if value is not None:
                section, _, name = key.rpartition(".")
                (data.setdefault(section, {}) if section else data)[name] = value
        return pipeline.PipelineConfig.from_dict(data)
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
    from .pipeline import segment_video

    config = segment_mod.SegmentConfig(model_name=model, mode=mode)
    client = segment_mod.make_client(config, cache_dir, offline)
    sentences = {
        m.video_id: segment_video(m, config, client)
        for m in ingest.load_manifests(Path(data_root) / "manifest.ndjson")
    }
    ingest.write_sentences(sentences, out_path)
    click.echo(f"wrote {sum(map(len, sentences.values()))} sentences to {out_path}")


def _check_in_manifest(video_ids: Iterable[str], manifests, source: str) -> None:
    """Raise ``CapgraphError`` naming ``source`` and the first of ``video_ids``,
    in sorted order, that no manifest holds."""
    unknown = sorted(set(video_ids) - {m.video_id for m in manifests})
    if unknown:
        raise CapgraphError(f"{source}: video {unknown[0]!r} is not in the manifest")


def _parse_selection(value: str) -> AlignConfig:
    """The ``--selection`` flag as an ``AlignConfig`` with the default beta."""
    if value in ("steepest", "steepest_decline"):
        return AlignConfig(selection="steepest_decline")
    if value.startswith("gap:"):
        return AlignConfig(selection="fixed_gap", gap_tau=float(value.split(":", 1)[1]))
    raise click.BadParameter("selection must be 'steepest' or 'gap:<tau>'")


@main.command(name="align")
@click.option("--data-root", required=True, type=click.Path())
@click.option("--sentences", "sentences_path", required=True, type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--beta", default=AlignConfig.beta, show_default=True,
              callback=_checked(lambda v: AlignConfig(beta=v).beta))
@click.option("--selection", default="steepest", show_default=True,
              callback=_checked(_parse_selection))
@click.option("--seed", default=DEFAULT_SEED, show_default=True, callback=_checked(check_seed))
@click.option("--trace-out", default=None, type=click.Path())
def align_cmd(data_root, sentences_path, out_path, beta, selection, seed, trace_out):
    """Align segmented sentences with consecutive frame intervals."""
    from . import align as align_mod
    from .pipeline import align_video, video_chunks

    config = dataclasses.replace(selection, beta=beta)
    manifests = ingest.load_manifests(Path(data_root) / "manifest.ndjson")
    sentences = ingest.load_sentences(sentences_path)
    _check_in_manifest(sentences, manifests, sentences_path)
    aligned, traces = {}, []
    for chunk in video_chunks(data_root, manifests, config):
        videos = [m.video_id for m in chunk.manifests if m.video_id in sentences]
        clusterings = align_mod.cluster_videos([chunk.embeddings[v] for v in videos], config, seed)
        for video_id, clustering in zip(videos, clusterings):
            aligned[video_id], trace = align_video(
                video_id, sentences[video_id], chunk.sentence_embeddings.get(video_id),
                clustering, config,
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
    from .pipeline import kept_predicates, parse_sentences

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
    rows = [
        (video_id, order_index, t)
        for video_id, items in sorted(sentences.items())
        for order_index, t in parse_sentences(items, vocab, config, client, counters)[1]
    ]
    kept = kept_predicates(Counter(t.predicate_class for _, _, t in rows), config)
    rows = [(video_id, order, t) for video_id, order, t in rows if t.predicate_class in kept]
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
    from .pipeline import ground_video, video_chunks

    manifests = ingest.load_manifests(Path(data_root) / "manifest.ndjson")
    sentences = ingest.load_sentences(sentences_path)
    mapped: Dict[str, List[Tuple[int, Triplet]]] = {}
    for video_id, order_index, triplet in ingest.load_parsed_triplets(triplets_path):
        mapped.setdefault(video_id, []).append((order_index, triplet))
    _check_in_manifest(mapped, manifests, triplets_path)
    # A video's graph lines, taken in video-id order, are the lines of the file.
    lines = [
        line
        for chunk in video_chunks(data_root, manifests, AlignConfig())
        for m in chunk.manifests if m.video_id in mapped
        for line in ingest.scene_graph_lines([SceneGraph.from_triplets(m.video_id, ground_video(
            mapped[m.video_id], sentences.get(m.video_id, []), chunk.detections[m.video_id]
        ))])
    ]
    with ingest.NdjsonWriter(out_path) as out:
        out.write(lines)
    click.echo(f"grounded {len(lines)} triplets")


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
    from .pipeline import negative_graphs, video_chunks

    config = motion.MotionLabelConfig(
        alpha_percent=alpha,
        strategy_not_looking=not_looking,
        strategy_not_contacting=not_contacting,
    )
    manifests = ingest.load_manifests(Path(data_root) / "manifest.ndjson")
    sentences = ingest.load_sentences(sentences_path)
    classes: Dict[str, set] = {}
    for video_id, triplet in ingest.graph_triplets(graphs_path):
        classes.setdefault(video_id, set()).add(triplet.object_class)
    candidates = []
    for chunk in video_chunks(data_root, manifests, AlignConfig()):
        for m in chunk.manifests:
            # pop: each video's sentences are read once, and need not stay.
            runs = motion.collect_unaligned_runs(m, sentences.pop(m.video_id, []))
            candidates.extend(motion.video_candidates(
                m.video_id, classes.get(m.video_id, ()), chunk.detections[m.video_id], runs
            ))
    assignment = motion.assign_negatives(candidates, config)
    ingest.write_scene_graphs(negative_graphs(assignment), out_path)
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
    # Every loaded triplet lives until scoring ends and holds no cycle, so the
    # collector stays paused through pairing and scoring, not just the reads.
    with ingest._cyclic_gc_paused():
        instances = eval_mod.pair_frames(
            ingest.load_frame_triplets(gt_path), ingest.load_frame_triplets(pred_path)
        )
        results = eval_mod.recall_at_k(instances, config)
    payload = {
        f"{regime_name}/R@{k}": value for (regime_name, k), value in sorted(results.items())
    }
    if json_out:
        try:
            Path(json_out).write_text(
                json.dumps(payload, sort_keys=True, indent=1) + "\n", encoding="utf-8"
            )
        except OSError as e:
            raise IoFailure(f"cannot write {json_out}: {e.strerror or e}") from e
    click.echo(json.dumps(payload, sort_keys=True, indent=1))
    click.echo(format_recall_table(results, k_values, config.regimes()))


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


def _workers(value: Optional[int]) -> Optional[int]:
    """``--workers`` if ``PipelineConfig`` accepts it; None keeps the file's value."""
    from .pipeline import PipelineConfig

    return value if value is None else PipelineConfig(workers=value).workers


@main.command(name="run-all")
@click.option("--data-root", default=None, type=click.Path())
@click.option("--out-dir", default=None, type=click.Path())
@click.option("--cache-dir", default=None, type=click.Path())
@click.option("--config", "config_path", default=None,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--seed", default=None, type=int,
              callback=_checked(lambda v: v if v is None else check_seed(v)))
@click.option("--workers", default=None, type=int, callback=_checked(_workers))
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
    from .pipeline import run_all

    started = time.monotonic()
    report = run_all(config)
    click.echo(json.dumps(report.to_dict(), sort_keys=True, indent=1))
    click.echo(f"wall time: {time.monotonic() - started:.2f}s", err=True)


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
    # One video at a time, as run-all loads them: nothing loaded is kept.
    try:
        manifests = ingest.load_manifests(Path(data_root) / "manifest.ndjson")
        for manifest in manifests:
            ingest.load_video(data_root, manifest, ingest.IngestConfig())
    except CapgraphError as e:
        click.echo(f"validation failure: {e}", err=True)
        sys.exit(2)
    click.echo(f"ok: {len(manifests)} videos")


if __name__ == "__main__":
    main()
