"""Pseudo-localized video scene graphs from captions, plus a Recall@K evaluator."""

from .core import (
    BoundingBox,
    Detection,
    EmbeddingMatrix,
    Provenance,
    SceneGraph,
    SegmentedSentence,
    Triplet,
    VideoManifest,
    Vocabulary,
    box_iou,
)
from .align import AlignConfig, choose_k, cluster_frames, prune_temporal, select_clusters
from .evaluate import EvalConfig, EvalInstance, apply_constraint, match_triplet, recall_at_k
from .ingest import DatasetBundle, IngestConfig, load_bundle, write_scene_graphs
from .llm import ChatClient, TokenUsage, estimate_cost
from .motion import MotionLabelConfig, assign_negatives, build_candidates, giou
from .parse import ParseConfig, ground_triplets, map_classes, parse_triplets
from .segment import SegmentConfig, build_prompt, rule_fallback_segment, segment_caption

__version__ = "0.1.0"

_CLI_NAMES = ("PipelineConfig", "RunReport", "run_all")


def __getattr__(name):
    # The CLI names load ``.cli`` (and click) on first use, so that
    # ``python -m capgraph.cli`` does not find the module imported already.
    if name in _CLI_NAMES:
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
