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

from .core import FrameTriplets, Triplet, box_iou
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
        if len(set(self.k_values)) != len(self.k_values):
            raise ValueError("k_values must not repeat")
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
    return pred.classes() == gt.classes() and _boxes_match(pred, gt, iou_threshold)


def _boxes_match(pred: Triplet, gt: Triplet, iou_threshold: float) -> bool:
    return (
        box_iou(pred.subject_box, gt.subject_box) > iou_threshold
        and box_iou(pred.object_box, gt.object_box) > iou_threshold
    )


def apply_constraint(predictions: Sequence[Triplet], regime: str) -> List[Triplet]:
    """Reduce predictions per the regime, keeping their order.

    with_constraint keeps one predicate per (subject box, subject class,
    object box, object class) group: the highest-scoring one (a None score
    counts as 0.0), first occurrence winning ties. no_constraint returns the
    predictions unchanged.
    """
    if regime == "no_constraint":
        return list(predictions)
    if regime != "with_constraint":
        raise ValueError(f"unknown regime {regime!r}")
    best: Dict[tuple, Tuple[float, int]] = {}
    for i, (subject, _, obj, subject_box, object_box, _, score, _) in enumerate(predictions):
        key = (subject_box, subject, object_box, obj)
        if score is None:
            score = 0.0
        found = best.get(key)
        if found is None or score > found[0]:
            best[key] = (score, i)
    return [predictions[i] for i in sorted(i for _, i in best.values())]


def _rank_key(p: Triplet) -> float:
    return -(p.score if p.score is not None else 0.0)


def _frame_hits(
    instance: EvalInstance, regimes: Sequence[str], k: int, iou_threshold: float
) -> List[List[bool]]:
    """Per-prediction hits of the frame's top-K predictions, one list per regime.

    Each regime's predictions (``apply_constraint``) are ranked by score,
    highest first, by a stable sort, so equal scores keep input order. They
    are matched in rank order, each to the first unconsumed ground truth it
    hits. A prediction can only hit ground truth of its own class triple, so
    each one visits just that bucket, in ground-truth order, and only its
    boxes are compared. The buckets are built once for all regimes. Greedy
    matching is prefix-consistent: the first k' hits of a pass at K are the
    hits of a pass at any k' <= K.
    """
    gt = instance.gt
    by_class: Dict[Tuple[str, str, str], List[int]] = {}
    for gi, g in enumerate(gt):
        by_class.setdefault(g.classes(), []).append(gi)
    all_hits = []
    for regime in regimes:
        ranked = sorted(apply_constraint(instance.predictions, regime), key=_rank_key)
        hits = []
        consumed = [False] * len(gt)
        for pred in ranked[:k]:
            hit = False
            for gi in by_class.get(pred[:3], ()):  # pred[:3]: its class triple
                if not consumed[gi] and _boxes_match(pred, gt[gi], iou_threshold):
                    consumed[gi] = hit = True
                    break
            hits.append(hit)
        all_hits.append(hits)
    return all_hits


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
    regimes, k_max = config.regimes(), max(config.k_values)
    totals = {(regime, k): 0.0 for regime in regimes for k in config.k_values}
    for inst in scored:
        for regime, hits in zip(regimes, _frame_hits(inst, regimes, k_max, config.iou_threshold)):
            for k in config.k_values:
                totals[regime, k] += sum(hits[:k]) / len(inst.gt)
    return {key: total / len(scored) for key, total in totals.items()}


def pair_frames(gt: FrameTriplets, predictions: FrameTriplets) -> List[EvalInstance]:
    """One instance per ground-truth frame, in (video id, frame index) order,
    holding the frame's ground truth and its predictions (none if the
    predictions lack the frame). The instances take the maps' lists."""
    return [
        EvalInstance(frame, gt[video_id, frame], predictions.get((video_id, frame), []))
        for video_id, frame in sorted(gt)
    ]
