"""Recall@K for video scene graph predictions (detection-style protocol).

A prediction counts toward a ground-truth triplet only when all three classes
match and both boxes overlap their counterparts with IoU strictly above the
threshold. Under the "with constraint" regime only the highest-scoring
predicate survives per subject-object pair before top-K truncation; "no
constraint" keeps all of them. Ground truth is matched greedily by prediction
rank and each ground-truth triplet is consumable once. The dataset metric is
the mean of per-frame recalls over frames that have ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from .core import SceneGraph, Triplet, box_iou
from .errors import NoGtFrames

REGIMES = ("with_constraint", "no_constraint")
REGIME_CHOICES = REGIMES + ("both",)


@dataclass
class EvalConfig:
    k_values: Tuple[int, ...] = (20, 50)
    iou_threshold: float = 0.5
    regime: str = "both"

    def __post_init__(self):
        if not self.k_values or any(k <= 0 for k in self.k_values):
            raise ValueError("k_values must be positive")
        if tuple(sorted(self.k_values)) != tuple(self.k_values):
            raise ValueError("k_values must be sorted ascending")
        if not 0.0 < self.iou_threshold < 1.0:
            raise ValueError("iou_threshold must lie in (0, 1)")
        if self.regime not in REGIME_CHOICES:
            raise ValueError(f"unknown regime {self.regime!r}")

    def regimes(self) -> Tuple[str, ...]:
        return REGIMES if self.regime == "both" else (self.regime,)


@dataclass
class EvalInstance:
    """One frame's ground truth and scored predictions."""

    frame_index: int
    gt: List[Triplet] = field(default_factory=list)
    predictions: List[Triplet] = field(default_factory=list)


def match_triplet(pred: Triplet, gt: Triplet, iou_threshold: float) -> bool:
    """Class-exact match with both box IoUs strictly above the threshold."""
    if pred.classes() != gt.classes():
        return False
    return (
        box_iou(pred.subject_box, gt.subject_box) > iou_threshold
        and box_iou(pred.object_box, gt.object_box) > iou_threshold
    )


def apply_constraint(predictions: Sequence[Triplet], regime: str) -> List[Triplet]:
    """Reduce predictions per the regime.

    with_constraint keeps one predicate per (subject box, subject class,
    object box, object class) group: the highest-scoring one, first occurrence
    winning ties. no_constraint returns the predictions unchanged.
    """
    if regime == "no_constraint":
        return list(predictions)
    if regime != "with_constraint":
        raise ValueError(f"unknown regime {regime!r}")
    best: Dict[tuple, Tuple[float, int]] = {}
    for i, p in enumerate(predictions):
        key = (p.subject_box, p.subject_class, p.object_box, p.object_class)
        score = p.score if p.score is not None else 0.0
        if key not in best or score > best[key][0]:
            best[key] = (score, i)
    keep = {i for _, i in best.values()}
    return [p for i, p in enumerate(predictions) if i in keep]


def _ranked(predictions: Sequence[Triplet]) -> List[Triplet]:
    # Stable sort: equal scores keep input order.
    return sorted(
        predictions,
        key=lambda p: -(p.score if p.score is not None else 0.0),
    )


def _ranked_hits(
    instance: EvalInstance, regime: str, k: int, iou_threshold: float
) -> List[bool]:
    """Per-prediction hits of the frame's top-K predictions under the regime.

    Predictions are matched in rank order, each to the first unconsumed
    ground truth it hits. A prediction can only hit ground truth of its own
    class triple, so each one visits just that bucket, in ground-truth order.
    Greedy matching is prefix-consistent: the first k' hits of a pass at K
    are the hits of a pass at any k' <= K.
    """
    gt = instance.gt
    by_class: Dict[Tuple[str, str, str], List[int]] = {}
    for gi, g in enumerate(gt):
        by_class.setdefault(g.classes(), []).append(gi)
    hits = []
    consumed = [False] * len(gt)
    for pred in _ranked(apply_constraint(instance.predictions, regime))[:k]:
        hit = False
        for gi in by_class.get(pred.classes(), ()):
            if not consumed[gi] and match_triplet(pred, gt[gi], iou_threshold):
                consumed[gi] = hit = True
                break
        hits.append(hit)
    return hits


def recall_at_k(
    instances: Sequence[EvalInstance], config: EvalConfig
) -> Dict[Tuple[str, int], float]:
    """Mean per-frame recall for every (regime, K) pair.

    Each frame is ranked and matched once per regime, at the largest K; every
    K reads its prefix of those hits. Frames with no ground truth are
    excluded from the mean; raises NoGtFrames when none remain.
    """
    scored = [inst for inst in instances if inst.gt]
    if not scored:
        raise NoGtFrames("no frames with ground-truth triplets")
    ks, k_max = config.k_values, max(config.k_values)
    results: Dict[Tuple[str, int], float] = {}
    for regime in config.regimes():
        totals = [0.0] * len(ks)
        for inst in scored:
            hits = _ranked_hits(inst, regime, k_max, config.iou_threshold)
            for i, k in enumerate(ks):
                totals[i] += sum(hits[:k]) / len(inst.gt)
        for k, total in zip(ks, totals):
            results[(regime, k)] = total / len(scored)
    return results


def triplets_by_frame(graphs: Sequence[SceneGraph]) -> Dict[Tuple[str, int], List[Triplet]]:
    """The graphs' triplets keyed by (video id, frame index)."""
    out: Dict[Tuple[str, int], List[Triplet]] = {}
    for graph in graphs:
        for frame, triplets in graph.per_frame.items():
            out.setdefault((graph.video_id, frame), []).extend(triplets)
    return out

