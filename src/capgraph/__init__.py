"""Pseudo-localized video scene graphs from captions, plus a Recall@K evaluator.

Importing the package loads none of its modules: each name below loads its
module on first use, so ``capgraph eval`` never loads numpy, which only
``align``, the pipeline and the embedding code need.
"""

import importlib

__version__ = "0.1.0"

# Each exported name and the module it is defined in.
_EXPORTS = {
    name: module
    for module, names in {
        "core": ("BoundingBox", "Detection", "EmbeddingMatrix", "Provenance", "SceneGraph",
                 "SegmentedSentence", "Triplet", "VideoManifest", "Vocabulary", "box_iou"),
        "config": ("AlignConfig",),
        "align": ("choose_k", "cluster_frames", "prune_temporal", "select_clusters"),
        "evaluate": ("EvalConfig", "EvalInstance", "apply_constraint", "match_triplet",
                     "recall_at_k"),
        "ingest": ("DatasetBundle", "IngestConfig", "load_bundle", "write_scene_graphs"),
        "llm": ("ChatClient", "TokenUsage", "estimate_cost"),
        "motion": ("MotionLabelConfig", "assign_negatives", "build_candidates", "giou"),
        "parse": ("ParseConfig", "ground_triplets", "map_classes", "parse_triplets"),
        "segment": ("SegmentConfig", "build_prompt", "rule_fallback_segment", "segment_caption"),
        "pipeline": ("PipelineConfig", "RunReport", "run_all"),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
