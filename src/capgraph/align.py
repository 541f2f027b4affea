"""Caption-frame alignment via frame clustering.

Frames are clustered with k-means (K = ceil(T / beta), clamped to [1, T]).
Each sentence scores every centroid by dot product (rows are unit vectors, so
this is cosine), the scores are sorted descending, and all clusters before
the steepest consecutive decline are selected; a fixed-gap variant cuts at
the first drop exceeding a threshold instead. Candidate frames are the union
of the selected clusters' members. Temporally impossible assignments are then
pruned with a watermark sweep, and each sentence keeps the maximal
consecutive run of surviving candidates around its strongest frame.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .core import EmbeddingMatrix, SegmentedSentence
from .errors import DimensionMismatch

SELECTION_MODES = ("steepest_decline", "fixed_gap")
KMEANS_MAX_ITERS = 100
KMEANS_RESTARTS = 5
KMEANS_TOL = 1e-6


@dataclass
class AlignConfig:
    """Alignment hyperparameters. ``beta`` divides the frame count to pick K."""

    beta: int = 4
    selection: str = "steepest_decline"
    gap_tau: float = 0.2

    def __post_init__(self):
        if self.beta < 1:
            raise ValueError("beta must be >= 1")
        if self.selection not in SELECTION_MODES:
            raise ValueError(f"unknown selection mode {self.selection!r}")
        if self.selection == "fixed_gap" and not (0.0 < self.gap_tau < 1.0):
            raise ValueError("gap_tau must lie in (0, 1)")


@dataclass
class ClusteringResult:
    """K centroids plus a frame-index -> cluster-id assignment (no empties)."""

    k: int
    centroids: np.ndarray
    assignment: Dict[int, int]

    def members(self) -> Dict[int, List[int]]:
        out: Dict[int, List[int]] = {c: [] for c in range(self.k)}
        for frame in sorted(self.assignment):
            out[self.assignment[frame]].append(frame)
        return out


@dataclass
class SentenceTrace:
    order_index: int
    similarities: List[float]
    sorted_clusters: List[int]
    selected_clusters: List[int]
    steepest_gap: float
    pre_pruning_frames: List[int]
    post_pruning_interval: Optional[Tuple[int, int]]

    def to_dict(self) -> dict:
        return {
            "order_index": self.order_index,
            "similarities": self.similarities,
            "sorted_clusters": self.sorted_clusters,
            "selected_clusters": self.selected_clusters,
            "steepest_gap": self.steepest_gap,
            "pre_pruning_frames": self.pre_pruning_frames,
            "post_pruning_interval": list(self.post_pruning_interval)
            if self.post_pruning_interval
            else None,
        }


@dataclass
class AlignmentTrace:
    video_id: str
    k: int
    sentences: List[SentenceTrace] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "video_id": self.video_id,
            "k": self.k,
            "sentences": [s.to_dict() for s in self.sentences],
        }


def choose_k(t_frames: int, beta: int) -> int:
    """Number of clusters for a video of ``t_frames`` frames."""
    if t_frames < 1:
        raise ValueError("t_frames must be >= 1")
    if beta < 1:
        raise ValueError("beta must be >= 1")
    return min(max(math.ceil(t_frames / beta), 1), t_frames)


def _kmeans_plusplus_init(
    n: int, k: int, rng: np.random.Generator, row_distances: Callable[[int], np.ndarray]
) -> List[int]:
    """Indices of the ``k`` rows k-means++ seeds on; ``row_distances(i)`` is
    the squared distance of every row to row ``i``."""
    picks = [int(rng.integers(0, n))]
    closest = row_distances(picks[0])
    for _ in range(1, k):
        total = closest.sum()
        if total <= 0:
            idx = int(rng.integers(0, n))
        else:
            idx = int(rng.choice(n, p=closest / total))
        picks.append(idx)
        closest = np.minimum(closest, row_distances(idx))
    return picks


def _sq_distances(rows: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(R, T, K) squared distances from each row to each restart's centroids.

    One cluster column at a time, so the broadcast temporary is R*T*D
    elements. Each entry sums its D squares with ``np.add.reduce`` over a
    contiguous last axis, so its bits do not depend on R or K.
    """
    r, k, _ = centroids.shape
    out = np.empty((r, rows.shape[0], k))
    for c in range(k):
        out[:, :, c] = np.add.reduce((rows - centroids[:, c, None, :]) ** 2, axis=2)
    return out


def _lloyd(
    rows: np.ndarray, centroids: np.ndarray, distances: np.ndarray, max_iters: int,
    tol: float = KMEANS_TOL,
):
    """Lloyd iterations for one restart from ``centroids``, whose (T, K)
    squared distances are ``distances``. Returns ``(centroids, labels,
    inertia)``."""
    k = centroids.shape[0]
    for _ in range(max_iters):
        labels = np.argmin(distances, axis=1)
        new_centroids = centroids.copy()
        per_point = distances[np.arange(rows.shape[0]), labels].copy()
        for c in range(k):
            mask = labels == c
            if np.any(mask):
                new_centroids[c] = rows[mask].mean(axis=0)
            else:
                # Reseed an empty cluster at the point farthest from its
                # current centroid; consume the point so two empty clusters
                # never grab the same row.
                farthest = int(np.argmax(per_point))
                new_centroids[c] = rows[farthest]
                labels[farthest] = c
                per_point[farthest] = -np.inf
        shift = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        centroids = new_centroids
        distances = _sq_distances(rows, centroids[None])[0]
        if shift < tol:
            break
    labels = np.argmin(distances, axis=1)
    inertia = float(distances[np.arange(rows.shape[0]), labels].sum())
    return centroids, labels, inertia


def _lloyd_lockstep(
    rows: np.ndarray, centroids: np.ndarray, distances: np.ndarray, max_iters: int,
    tol: float = KMEANS_TOL,
) -> list:
    """``_lloyd`` for R restarts at once, with the same bits per restart.

    ``centroids`` is (R, K, D) and ``distances`` the (R, T, K) squared
    distances to them. Each restart stops at its own convergence. A cluster
    mean sums its rows one by one in frame order, as
    ``rows[mask].mean(axis=0)`` does for D >= 2. A restart continues in
    ``_lloyd`` when its labels leave a cluster empty, which ``_lloyd``
    reseeds, and from the start when D == 1, where ``mean`` sums pairwise.
    Returns ``(centroids, labels, inertia)`` per restart, in restart order.
    """
    r, k, d = centroids.shape
    results: list = [None] * r
    active = np.arange(r)
    converged = np.zeros(r, dtype=bool)
    for it in range(max_iters + 1):
        labels = distances.argmin(axis=2)
        # Converged on the last update, or out of iterations: _lloyd's epilogue.
        ends = converged if it < max_iters else np.ones(active.size, dtype=bool)
        if ends.any():
            inertia = distances.min(axis=2).sum(axis=1)
            for j in np.flatnonzero(ends):
                results[active[j]] = (centroids[j], labels[j], float(inertia[j]))
        slots = np.arange(active.size)[:, None]
        counts = np.bincount((labels + k * slots).ravel(), minlength=active.size * k)
        counts = counts.reshape(active.size, k)
        go = counts.all(axis=1) & ~ends & (d > 1)
        for j in np.flatnonzero(~go & ~ends):
            results[active[j]] = _lloyd(rows, centroids[j], distances[j], max_iters - it, tol)
        if not go.any():
            return results
        active, centroids, labels, counts = active[go], centroids[go], labels[go], counts[go]
        sums = np.zeros(centroids.shape)
        np.add.at(sums, (slots[: active.size], labels), rows)
        moved = sums / counts[:, :, None]
        converged = np.linalg.norm(moved - centroids, axis=2).max(axis=1) < tol
        centroids = moved
        distances = _sq_distances(rows, centroids)
    return results


def cluster_frames(
    frame_embeds: EmbeddingMatrix, config: AlignConfig, seed: int = 0
) -> ClusteringResult:
    """Deterministically cluster frame embeddings.

    k-means++ seeding from ``seed``, best of ``KMEANS_RESTARTS`` by
    inertia. If all rows are identical and K would exceed 1, the result
    degenerates to a single cluster with a warning.

    The restarts run their Lloyd iterations in lockstep, and each row's
    distance vector is computed once across all seedings and reused as the
    first iteration's distances. The result is bit-for-bit the one of
    running the restarts one after another. The largest temporary is
    R*T*D elements (R restarts, T frames, D dims).
    """
    rows = np.asarray(frame_embeds.rows, dtype=np.float64)
    t = rows.shape[0]
    k = choose_k(t, config.beta)
    frames = list(range(1, t + 1))

    if k > 1 and bool(np.all(rows == rows[0])):
        warnings.warn(
            "all frame embeddings are identical; degenerating to a single cluster",
            RuntimeWarning,
        )
        return ClusteringResult(
            k=1, centroids=rows[:1].copy(), assignment={f: 0 for f in frames}
        )

    @functools.cache
    def row_distances(i: int) -> np.ndarray:
        return np.add.reduce((rows - rows[i]) ** 2, axis=1)

    picks = [
        _kmeans_plusplus_init(t, k, np.random.default_rng([seed, restart]), row_distances)
        for restart in range(KMEANS_RESTARTS)
    ]
    first = np.array([[row_distances(i) for i in p] for p in picks]).transpose(0, 2, 1)
    runs = _lloyd_lockstep(rows, rows[picks], first, KMEANS_MAX_ITERS)
    # The first restart of least inertia wins.
    centroids, labels, _ = min(runs, key=lambda run: run[2])
    # Drop clusters that ended empty (possible with duplicate rows) and
    # renumber the labels, so the result never carries an empty cluster.
    occupied, labels = np.unique(labels, return_inverse=True)
    centroids = centroids[occupied]
    assignment = {frame: int(labels[i]) for i, frame in enumerate(frames)}
    return ClusteringResult(k=centroids.shape[0], centroids=centroids, assignment=assignment)


def sort_clusters(similarities: Sequence[float]) -> List[int]:
    """Cluster ids ordered by descending similarity; ties keep the lower id."""
    sims = np.asarray(similarities, dtype=np.float64)
    return [int(i) for i in np.argsort(-sims, kind="stable")]


def _rank(sims: np.ndarray, selection: str, gap_tau: float) -> Tuple[List[int], int, float]:
    """One descending sort of a sentence's centroid scores: the cluster order
    (``sort_clusters``), the length of its prefix that ``selection`` keeps,
    and the steepest consecutive drop (0.0 for fewer than two clusters)."""
    order = sort_clusters(sims)
    ordered = sims[order]
    drops = ordered[:-1] - ordered[1:]
    gap = float(drops.max()) if drops.size else 0.0
    if len(order) == 1:
        return order, 1, gap
    if selection == "steepest_decline":
        return order, int(np.argmax(drops)) + 1, gap
    if selection == "fixed_gap":
        exceeding = np.flatnonzero(drops > gap_tau)
        return order, int(exceeding[0]) + 1 if exceeding.size else len(order), gap
    raise ValueError(f"unknown selection mode {selection!r}")


def select_clusters(
    similarities: Sequence[float],
    selection: str = "steepest_decline",
    gap_tau: float = 0.2,
) -> List[int]:
    """Pick the cluster prefix a sentence aligns with.

    Scores sort descending. ``steepest_decline`` cuts before the largest
    consecutive drop (earliest wins ties); ``fixed_gap`` cuts before the first
    drop exceeding ``gap_tau``, keeping every cluster when no drop does.
    """
    order, keep, _ = _rank(np.asarray(similarities, dtype=np.float64), selection, gap_tau)
    return order[:keep]


def prune_temporal(
    assignments: Sequence[Tuple[SegmentedSentence, Set[int]]],
) -> List[Tuple[SegmentedSentence, Set[int]]]:
    """Drop candidate frames that would violate the sentence order.

    Sweeping sentences by order index, a watermark tracks the largest
    "earliest committed frame" so far; later sentences lose every candidate
    below it, and frames already committed to an earlier sentence are removed
    from later ones.
    """
    ordered = sorted(assignments, key=lambda pair: pair[0].order_index)
    watermark = 0
    committed: Set[int] = set()
    pruned: List[Tuple[SegmentedSentence, Set[int]]] = []
    for sentence, frames in ordered:
        keep = {f for f in frames if f >= watermark and f not in committed}
        pruned.append((sentence, keep))
        if keep:
            watermark = max(watermark, min(keep))
            committed |= keep
    return pruned


def _consecutive_run(frames: Set[int], anchor: int) -> Tuple[int, int]:
    lo = anchor
    while lo - 1 in frames:
        lo -= 1
    hi = anchor
    while hi + 1 in frames:
        hi += 1
    return (lo, hi)


def align_sentences(
    sentences: Sequence[SegmentedSentence],
    sentence_embeds: EmbeddingMatrix,
    clustering: ClusteringResult,
    config: AlignConfig,
    video_id: str = "",
) -> Tuple[List[SegmentedSentence], AlignmentTrace]:
    """Align each sentence with a consecutive frame interval (possibly none).

    Sentence embedding rows must be in sentence order and share the frame
    embedding dimensionality. The final interval is the maximal consecutive
    run of surviving candidate frames containing the candidate whose cluster
    centroid scored highest (ties: the earliest such frame).
    """
    if len(sentence_embeds) != len(sentences):
        raise DimensionMismatch(
            f"video {video_id!r}: {len(sentences)} sentences but "
            f"{len(sentence_embeds)} sentence embedding rows"
        )
    if len(sentences) and sentence_embeds.dim != clustering.centroids.shape[1]:
        raise DimensionMismatch(
            f"sentence dim {sentence_embeds.dim} != centroid dim {clustering.centroids.shape[1]}"
        )

    members = clustering.members()
    ordered = sorted(range(len(sentences)), key=lambda i: sentences[i].order_index)

    ranked: Dict[int, Tuple[np.ndarray, List[int], int, float]] = {}
    candidates: List[Tuple[SegmentedSentence, Set[int]]] = []
    for i in ordered:
        sims = clustering.centroids @ np.asarray(sentence_embeds.rows[i], dtype=np.float64)
        order, keep, gap = _rank(sims, config.selection, config.gap_tau)
        frames = set()
        for cluster in order[:keep]:
            frames.update(members[cluster])
        ranked[i] = (sims, order, keep, gap)
        candidates.append((sentences[i], frames))

    pruned = prune_temporal(candidates)

    trace = AlignmentTrace(video_id=video_id, k=clustering.k)
    aligned: List[SegmentedSentence] = []
    for (sentence, pre_frames), (_, post_frames), i in zip(candidates, pruned, ordered):
        sims, order, keep, gap = ranked[i]
        interval: Optional[Tuple[int, int]] = None
        if post_frames:
            anchor = min(
                post_frames,
                key=lambda f: (-sims[clustering.assignment[f]], f),
            )
            interval = _consecutive_run(post_frames, anchor)
        aligned.append(sentence.with_alignment(interval))
        trace.sentences.append(
            SentenceTrace(
                order_index=sentence.order_index,
                similarities=[float(s) for s in sims],
                sorted_clusters=order,
                selected_clusters=order[:keep],
                steepest_gap=gap,
                pre_pruning_frames=sorted(pre_frames),
                post_pruning_interval=interval,
            )
        )
    return aligned, trace
