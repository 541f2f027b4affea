"""Caption-frame alignment via frame clustering.

Frames are clustered with k-means (K = ceil(T / beta), clamped to [1, T]).
Each sentence scores every centroid by dot product (rows are unit vectors, so
this is cosine), the scores are sorted descending, and all clusters before
the steepest consecutive decline are selected; a fixed-gap variant cuts at
the first drop exceeding a threshold instead. Candidate frames are the union
of the selected clusters' members. Temporally impossible assignments are then
pruned with a watermark sweep, and each sentence keeps the maximal
consecutive run of surviving candidates around its strongest frame.

``cluster_videos`` clusters many videos at once. Videos of one shape (T, D)
run together in chunks: each of the R seeded restarts draws from one stream
for the whole chunk, and the Lloyd iterations of every video and restart
advance in lockstep, in one loop. A restart whose labels leave a cluster
empty, or every restart when D == 1, takes that one update alone and stays
in the lockstep. A chunk that holds a video of fewer than K distinct rows,
whose own streams would draw differently, clusters its videos one by one.
Every result is bit-for-bit the one of clustering the video alone, restart
after restart. A video counts ``T*R*max(D, K)`` elements: its rows repeated
for every restart, and their distances to the centroids. A chunk holds as
many videos as fit in ``KMEANS_BATCH_ELEMENTS``, and at least one, so no
array of a chunk is larger than that budget or than one video's count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

# SELECTION_MODES is re-exported.
from .config import DEFAULT_SEED, SELECTION_MODES, AlignConfig  # noqa: F401
from .core import EmbeddingMatrix, SegmentedSentence
from .errors import DimensionMismatch

KMEANS_MAX_ITERS = 100
KMEANS_RESTARTS = 5
KMEANS_TOL = 1e-6
# The float64 elements that a chunk of videos of one shape may hold in any
# one array (see the module docstring).
KMEANS_BATCH_ELEMENTS = 2**15


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


def video_elements(t: int, d: int, beta: int) -> int:
    """The elements a video of T frames of dimension D counts against a
    chunk's ``KMEANS_BATCH_ELEMENTS`` (see the module docstring)."""
    return t * KMEANS_RESTARTS * max(d, choose_k(t, beta))


def _kmeans_plusplus_init(
    rows: np.ndarray, k: int, rngs: Sequence[np.random.Generator]
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """k-means++ seeding of the V videos of one shape in ``rows`` (V, T, D),
    once per stream in ``rngs``; all V videos share each stream.

    Returns the (R, V, K) picked row indices and the (R, V, T, K) squared
    distances of every row to each pick. Every pick after the first is
    ``rng.choice(T, p=closest / total)``, taken for all videos at once by the
    inverse CDF that ``Generator.choice`` computes, from one ``rng.random()``.
    A choice never lands on a row equal to an earlier pick, so ``total`` is 0
    at step j only for a video of at most j distinct rows, which then draws
    ``rng.integers(0, T)``. Its streams would part from the other videos', so
    with V > 1 the first zero total returns None instead.

    Step j's distances are ``_sq_distances`` from each video's rows to its R
    picks, taken as centroids: within a video's ``T*R*max(D, K)`` elements.
    """
    v, t, _ = rows.shape
    videos = np.arange(v)
    picks = np.zeros((len(rngs), v, k), dtype=np.intp)
    distances = np.empty((len(rngs), v, t, k))
    draws = np.empty(len(rngs))
    for j in range(k):
        if j == 0:
            picks[:, :, 0] = [[rng.integers(0, t)] for rng in rngs]
        else:
            total = closest.sum(axis=2)
            if not np.isfinite(total).all():
                # Generator.choice rejects such probabilities the same way.
                raise ValueError("k-means++ seeding: frame distances are not finite")
            drawn = total > 0
            if v > 1 and not drawn.all():
                return None
            for r, rng in enumerate(rngs):
                if drawn[r, 0]:  # with V > 1, every total is positive here
                    draws[r] = rng.random()
                else:
                    picks[r, :, j] = rng.integers(0, t)
            cdf = np.cumsum(closest[drawn] / total[drawn, None], axis=1)
            cdf /= cdf[:, -1:]
            u = np.broadcast_to(draws[:, None], drawn.shape)[drawn]
            picks[drawn, j] = (cdf <= u[:, None]).sum(axis=1)
        column = np.moveaxis(_sq_distances(rows, rows[videos[:, None], picks[:, :, j].T]), 2, 0)
        distances[..., j] = column
        closest = column if j == 0 else np.minimum(closest, column)
    return picks, distances


def _sq_distances(rows: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(B, T, K) squared distances from each batch element's rows to its
    centroids: ``rows`` is (B, T, D), or (T, D) for all, ``centroids`` (B, K, D).

    One cluster column at a time, into one reused B*T*D buffer. Each entry
    sums its D squares with ``np.add.reduce`` over a contiguous last axis, so
    its bits do not depend on B or K.
    """
    b, k, d = centroids.shape
    t = rows.shape[-2]
    out = np.empty((b, t, k))
    diff = np.empty((b, t, d))
    for c in range(k):
        np.subtract(rows, centroids[:, c, None, :], out=diff)
        out[:, :, c] = np.add.reduce(np.square(diff, out=diff), axis=2)
    return out


def _cluster_means(rows: np.ndarray, cells: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """(C, D) means of the rows that ``cells`` (B, T) files under each of C
    cells, of ``counts`` (C,) rows each; ``rows`` is (B, T, D), or (T, D)
    for all B. An empty cell's mean is 0, never a 0/0.

    ``bincount`` adds its weights one by one in index order, from 0.0, so a
    cell sums its rows in frame order. It takes a block of dims at a time,
    so that its index and weights stay within ``KMEANS_BATCH_ELEMENTS``.
    """
    d = rows.shape[-1]
    size = counts.size
    sums = np.empty((size, d))
    width = max(1, KMEANS_BATCH_ELEMENTS // cells.size)
    for lo in range(0, d, width):
        block = rows[..., lo : lo + width]
        w = block.shape[-1]
        index = (cells * w)[:, :, None] + np.arange(w)
        # Shared rows repeat for every element; a broadcast view would be
        # read-only, which bincount copies once more.
        weights = (block if block.ndim == 3 else np.tile(block, (len(cells), 1))).ravel()
        sums[:, lo : lo + w] = np.bincount(
            index.ravel(), weights, minlength=size * w
        ).reshape(size, w)
    sums /= np.maximum(counts, 1)[:, None]
    return sums


def _lloyd_update(rows: np.ndarray, distances: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """One Lloyd update of one restart: the (K, D) means ``rows[mask].mean(axis=0)``
    of the rows (T, D) that ``labels`` files under each cluster, from the
    (T, K) squared ``distances`` that gave the labels.

    An empty cluster is reseeded at the row farthest from its centroid, which
    it takes from that row's cluster; a taken row is not taken again, so two
    empty clusters never grab the same row.
    """
    moved = np.empty((distances.shape[1], rows.shape[1]))
    labels = labels.copy()
    per_point = distances[np.arange(rows.shape[0]), labels]
    for c in range(moved.shape[0]):
        mask = labels == c
        if mask.any():
            moved[c] = rows[mask].mean(axis=0)
        else:
            farthest = int(np.argmax(per_point))
            moved[c] = rows[farthest]
            labels[farthest] = c
            per_point[farthest] = -np.inf
    return moved


def _lloyd_lockstep(rows: np.ndarray, centroids: np.ndarray, distances: np.ndarray) -> list:
    """Lloyd iterations of B batch elements at once, each with the bits of
    running it alone.

    ``rows`` is (B, T, D), or (T, D) for all, ``centroids`` (B, K, D) and
    ``distances`` the (B, T, K) squared distances between them. An element
    ends once an update moves no centroid by ``KMEANS_TOL``, or after
    ``KMEANS_MAX_ITERS`` updates, and leaves the batch. A cluster mean sums
    its rows one by one in frame order, as ``rows[mask].mean(axis=0)`` does
    for D >= 2, and ``_sq_distances`` does not depend on the batch, so the
    batch changes no bit. An element whose labels leave a cluster empty
    takes that one update from ``_lloyd_update``, which reseeds the cluster,
    and so does every element when D == 1, where ``mean`` sums pairwise;
    either way it stays in the batch. Returns ``(centroids, labels,
    inertia)`` per element, in batch order.
    """
    b, k, d = centroids.shape
    results: list = [None] * b
    active = np.arange(b)
    converged = np.zeros(b, dtype=bool)
    for it in range(KMEANS_MAX_ITERS + 1):
        labels = distances.argmin(axis=2)
        ends = converged | (it == KMEANS_MAX_ITERS)
        if ends.any():
            inertia = distances.min(axis=2).sum(axis=1)
            for j in np.flatnonzero(ends):
                results[active[j]] = (centroids[j], labels[j], float(inertia[j]))
            keep = ~ends
            active, centroids, distances, labels = (
                active[keep], centroids[keep], distances[keep], labels[keep]
            )
            if rows.ndim == 3:
                rows = rows[keep]
        if not active.size:
            break
        cells = labels + k * np.arange(active.size)[:, None]
        counts = np.bincount(cells.ravel(), minlength=active.size * k).reshape(active.size, k)
        moved = _cluster_means(rows, cells, counts.ravel()).reshape(centroids.shape)
        for j in np.flatnonzero(~counts.all(axis=1) | (d == 1)):
            own = rows[j] if rows.ndim == 3 else rows
            moved[j] = _lloyd_update(own, distances[j], labels[j])
        converged = np.linalg.norm(moved - centroids, axis=2).max(axis=1) < KMEANS_TOL
        centroids = moved
        distances = _sq_distances(rows, centroids)
    return results


def _cluster_chunk(rows: np.ndarray, k: int, seed: int) -> List[ClusteringResult]:
    """``cluster_frames`` of the V videos of one shape in ``rows`` (V, T, D),
    in lockstep over videos and restarts. A chunk whose seeding returns None
    clusters each video alone, where no other video shares its streams."""
    v, t, d = rows.shape
    rngs = [np.random.default_rng([seed, restart]) for restart in range(KMEANS_RESTARTS)]
    seeded = _kmeans_plusplus_init(rows, k, rngs)
    if seeded is None:
        return [_cluster_chunk(rows[i : i + 1], k, seed)[0] for i in range(v)]
    picks, first = seeded
    # Batch element b is restart b // V of video b % V. The restarts of one
    # video share its rows; a chunk of several repeats them per restart, in at
    # most KMEANS_BATCH_ELEMENTS elements.
    r = len(rngs)
    runs = _lloyd_lockstep(
        rows[0] if v == 1 else np.tile(rows, (r, 1, 1)),
        rows[np.arange(v)[:, None], picks].reshape(r * v, k, d),
        first.reshape(r * v, t, k),
    )
    results = []
    for i in range(v):
        # The first restart of least inertia wins.
        centroids, labels, _ = min(runs[i::v], key=lambda run: run[2])
        # Drop clusters that ended empty (possible with duplicate rows) and
        # renumber the labels, so the result never carries an empty cluster.
        occupied, labels = np.unique(labels, return_inverse=True)
        centroids = centroids[occupied]
        results.append(ClusteringResult(
            k=centroids.shape[0], centroids=centroids,
            assignment=dict(zip(range(1, t + 1), labels.tolist())),
        ))
    return results


def cluster_videos(
    matrices: Sequence[EmbeddingMatrix], config: AlignConfig, seed: int = DEFAULT_SEED
) -> List[ClusteringResult]:
    """Deterministically cluster each video's frame embeddings.

    k-means++ seeding from ``seed``, best of ``KMEANS_RESTARTS`` by inertia.
    Clusters that end empty are dropped, so a video whose rows are all
    identical ends with one cluster, its centroid that row, and no warning.

    Videos of one shape run in chunks, as the module docstring describes;
    each restart's first Lloyd distances are the ones its seeding computed.
    Results come in the order of ``matrices``.
    """
    by_shape: Dict[Tuple[int, ...], List[int]] = {}
    for i, matrix in enumerate(matrices):
        by_shape.setdefault(matrix.rows.shape, []).append(i)
    results: List[ClusteringResult] = [None] * len(matrices)  # type: ignore[list-item]
    for (t, d), members in by_shape.items():
        k = choose_k(t, config.beta)
        per_chunk = max(1, KMEANS_BATCH_ELEMENTS // video_elements(t, d, config.beta))
        for start in range(0, len(members), per_chunk):
            chunk = members[start : start + per_chunk]
            rows = np.stack([matrices[i].rows for i in chunk], dtype=np.float64)
            for i, result in zip(chunk, _cluster_chunk(rows, k, seed)):
                results[i] = result
    return results


def cluster_frames(
    frame_embeds: EmbeddingMatrix, config: AlignConfig, seed: int = DEFAULT_SEED
) -> ClusteringResult:
    """``cluster_videos`` of one video: k-means++ seeding from ``seed``, best
    of ``KMEANS_RESTARTS`` by inertia, the restarts in lockstep."""
    return cluster_videos([frame_embeds], config, seed)[0]


def sort_clusters(similarities: Sequence[float]) -> List[int]:
    """Cluster ids ordered by descending similarity; ties keep the lower id."""
    return sorted(range(len(similarities)), key=lambda c: -similarities[c])


def _rank(scores: List[float], selection: str, gap_tau: float) -> Tuple[List[int], int, float]:
    """One descending sort of a sentence's centroid scores: the cluster order
    (``sort_clusters``), the length of its prefix that ``selection`` keeps,
    and the steepest consecutive drop (0.0 for fewer than two clusters).

    On Python floats, not numpy: a sentence scores only k clusters. A stable
    sort, the float differences and the first maximum give the bits of
    ``argsort(kind="stable")``, array subtraction and ``argmax``."""
    order = sort_clusters(scores)
    ordered = [scores[c] for c in order]
    drops = [a - b for a, b in zip(ordered, ordered[1:])]
    gap = max(drops, default=0.0)
    if len(order) == 1:
        return order, 1, gap
    if selection == "steepest_decline":
        return order, drops.index(gap) + 1, gap
    if selection == "fixed_gap":
        return order, next((i + 1 for i, d in enumerate(drops) if d > gap_tau), len(order)), gap
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
    order, keep, _ = _rank([float(s) for s in similarities], selection, gap_tau)
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

    ranked: Dict[int, Tuple[List[float], List[int], int, float]] = {}
    candidates: List[Tuple[SegmentedSentence, Set[int]]] = []
    for i in ordered:
        row = np.asarray(sentence_embeds.rows[i], dtype=np.float64)
        sims = (clustering.centroids @ row).tolist()
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
                similarities=sims,
                sorted_clusters=order,
                selected_clusters=order[:keep],
                steepest_gap=gap,
                pre_pruning_frames=sorted(pre_frames),
                post_pruning_interval=interval,
            )
        )
    return aligned, trace
