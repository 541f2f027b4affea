"""Negative-action pseudo-labels from motion cues on unaligned frames.

For every maximal run of frames no sentence aligned with, each
(person, object) pair whose object class appears in the video's pseudo scene
graph is grounded at the run's start and end frames. The generalized IoU at
those endpoints gives a motion score G_end - G_start: the smaller it is, the
more confidently the pair is moving apart. Candidates from the whole dataset
are sorted ascending by that score and the top alpha percent receive the
negative classes on strategy-selected endpoint frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .core import (
    BoundingBox,
    GroundingTable,
    Provenance,
    SceneGraph,
    SegmentedSentence,
    Triplet,
    VideoManifest,
    box_overlap,
)
from .parse import ground_pair

ENDPOINT_STRATEGIES = ("start", "end", "start_and_end")
NEGATIVE_CLASS_NAMES = ("not looking at", "not contacting")
SUBJECT_CLASS = "person"


@dataclass
class MotionLabelConfig:
    """Selection ratio and per-class endpoint strategies."""

    alpha_percent: float = 15.0
    strategy_not_looking: str = "start_and_end"
    strategy_not_contacting: str = "end"

    def __post_init__(self):
        if not 0.0 < self.alpha_percent <= 100.0:
            raise ValueError("alpha_percent must lie in (0, 100]")
        for strategy in (self.strategy_not_looking, self.strategy_not_contacting):
            if strategy not in ENDPOINT_STRATEGIES:
                raise ValueError(f"unknown endpoint strategy {strategy!r}")


@dataclass(frozen=True, slots=True)
class MotionCandidate:
    """One (person, object, unaligned run) with endpoint GIoUs and boxes.

    The subject is always ``SUBJECT_CLASS``. ``start_pair`` and ``end_pair``
    are the ``(subject box, object box)`` that ``parse.ground_pair`` returns
    for the run's start and end frames.
    """

    video_id: str
    object_class: str
    run: Tuple[int, int]
    g_start: float
    g_end: float
    start_pair: Tuple[BoundingBox, BoundingBox]
    end_pair: Tuple[BoundingBox, BoundingBox]

    @property
    def motion_score(self) -> float:
        return self.g_end - self.g_start


def giou(a: BoundingBox, b: BoundingBox) -> float:
    """Generalized IoU: IoU minus the normalized dead area of the hull.

    Equals IoU - (hull - union) / hull where hull is the smallest enclosing
    axis-aligned box. Ranges over [-1, 1]; 1 iff the boxes coincide.
    Zero-area boxes, which the loader keeps, are defined explicitly: with
    ``union == 0`` the IoU term is 1 for coinciding boxes and 0 otherwise, and
    with ``hull == 0`` the dead-area term is 0.
    """
    inter, union = box_overlap(a, b)
    hull = (max(a.x2, b.x2) - min(a.x1, b.x1)) * (max(a.y2, b.y2) - min(a.y1, b.y1))
    iou = inter / union if union else float(a == b)
    dead = (hull - union) / hull if hull else 0.0
    return iou - dead


def collect_unaligned_runs(
    video: VideoManifest, sentences: Sequence[SegmentedSentence]
) -> List[Tuple[int, int]]:
    """Maximal contiguous frame runs covered by no sentence's interval."""
    covered = [False] * (video.num_frames + 1)
    for s in sentences:
        if s.aligned_frames is None:
            continue
        lo, hi = s.aligned_frames
        for f in range(max(1, lo), min(video.num_frames, hi) + 1):
            covered[f] = True
    runs: List[Tuple[int, int]] = []
    start: Optional[int] = None
    for f in range(1, video.num_frames + 1):
        if not covered[f]:
            if start is None:
                start = f
        elif start is not None:
            runs.append((start, f - 1))
            start = None
    if start is not None:
        runs.append((start, video.num_frames))
    return runs


def video_candidates(
    video_id: str,
    object_classes: Iterable[str],
    table: GroundingTable,
    runs: Sequence[Tuple[int, int]],
) -> List[MotionCandidate]:
    """One video's motion candidates, run by run and object class by object
    class, in sorted order.

    ``object_classes`` are those of the video's own pseudo scene graph, and
    a candidate exists only when both roles ground at both the run's start
    and end frames. ``table`` needs only the rows of those frames.
    """
    candidates: List[MotionCandidate] = []
    object_classes = sorted(object_classes)
    for lo, hi in runs:
        for object_class in object_classes:
            start = ground_pair(table.get(lo, {}), SUBJECT_CLASS, object_class)
            if start is None:
                continue
            end = ground_pair(table.get(hi, {}), SUBJECT_CLASS, object_class)
            if end is None:
                continue
            candidates.append(
                MotionCandidate(
                    video_id=video_id,
                    object_class=object_class,
                    run=(lo, hi),
                    g_start=giou(*start),
                    g_end=giou(*end),
                    start_pair=start,
                    end_pair=end,
                )
            )
    return candidates


def build_candidates(
    manifests: Sequence[VideoManifest],
    detections: Dict[str, GroundingTable],
    graphs: Dict[str, SceneGraph],
    runs_by_video: Dict[str, Sequence[Tuple[int, int]]],
    config: MotionLabelConfig,
) -> List[MotionCandidate]:
    """``video_candidates`` of every video that has a graph, in video-id
    order, from tables of the whole dataset.

    No command calls it: ``run-all`` and ``plm`` call ``video_candidates``
    video by video as they stream the dataset. It is kept for the
    benchmark's traced pass (``bench/traced.py``), the package export and
    tests, until the benchmark runs the streamed pipeline."""
    candidates: List[MotionCandidate] = []
    for manifest in sorted(manifests, key=lambda m: m.video_id):
        video_id = manifest.video_id
        graph = graphs.get(video_id)
        if graph is not None:
            candidates.extend(video_candidates(
                video_id, graph.object_classes(), detections.get(video_id, {}),
                runs_by_video.get(video_id, []),
            ))
    return candidates


def selection_count(alpha_percent: float, pool_size: int) -> int:
    """ceil(alpha% of the pool); never silently zero on a non-empty pool."""
    return min(pool_size, math.ceil(alpha_percent * pool_size / 100.0))


def _strategy_frames(strategy: str, run: Tuple[int, int]) -> List[int]:
    lo, hi = run
    if strategy == "start":
        return [lo]
    if strategy == "end":
        return [hi]
    return [lo] if lo == hi else [lo, hi]


@dataclass
class NegativeAssignment:
    """Selected candidates (ascending by motion score) and their triplets."""

    selected: List[MotionCandidate]
    by_video: Dict[str, List[Triplet]]


def assign_negatives(
    candidates: Sequence[MotionCandidate], config: MotionLabelConfig
) -> NegativeAssignment:
    """Emit negative-class triplets for the top alpha percent of the pool.

    The pool must span the entire dataset. Candidates sort ascending by
    motion score (ties: video id, run start, object); the first
    ceil(alpha% * pool) are selected, so an empty pool selects none.
    """
    ordered = sorted(
        candidates, key=lambda c: (c.motion_score, c.video_id, c.run[0], c.object_class)
    )
    selected = ordered[: selection_count(config.alpha_percent, len(ordered))]

    not_looking, not_contacting = NEGATIVE_CLASS_NAMES
    by_video: Dict[str, List[Triplet]] = {}
    for candidate in selected:
        pairs = {candidate.run[0]: candidate.start_pair, candidate.run[1]: candidate.end_pair}
        for predicate, strategy in (
            (not_looking, config.strategy_not_looking),
            (not_contacting, config.strategy_not_contacting),
        ):
            for frame in _strategy_frames(strategy, candidate.run):
                subject_box, object_box = pairs[frame]
                by_video.setdefault(candidate.video_id, []).append(
                    Triplet(
                        subject_class=SUBJECT_CLASS,
                        predicate_class=predicate,
                        object_class=candidate.object_class,
                        subject_box=subject_box,
                        object_box=object_box,
                        frame_index=frame,
                        provenance=Provenance.NEGATIVE_PSEUDO,
                    )
                )
    return NegativeAssignment(selected=selected, by_video=by_video)

