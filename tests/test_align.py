import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capgraph import align as align_mod
from capgraph.align import (
    KMEANS_MAX_ITERS,
    KMEANS_RESTARTS,
    SELECTION_MODES,
    AlignConfig,
    ClusteringResult,
    choose_k,
    cluster_frames,
    cluster_videos,
    align_sentences,
    prune_temporal,
    select_clusters,
    sort_clusters,
)
from capgraph.core import EmbeddingMatrix, SegmentedSentence

DIM = 8


def _unit(axis):
    v = np.zeros(DIM)
    v[axis] = 1.0
    return v


def _near(axis, wiggle):
    v = _unit(axis) + wiggle * _unit((axis + 3) % DIM)
    return v / np.linalg.norm(v)


def _frames(cluster_axes, counts):
    rows, ids = [], []
    frame = 1
    for axis, count in zip(cluster_axes, counts):
        for j in range(count):
            rows.append(_near(axis, 0.02 * (j + 1)))
            ids.append(f"f{frame}")
            frame += 1
    return EmbeddingMatrix(ids, np.stack(rows).astype(np.float32))


def _sentences(axes_or_vectors):
    rows = []
    for v in axes_or_vectors:
        vec = _unit(v) if isinstance(v, int) else np.asarray(v, dtype=np.float64)
        rows.append(vec / np.linalg.norm(vec))
    ids = [str(i + 1) for i in range(len(rows))]
    return (
        [SegmentedSentence(i + 1, f"sentence {i + 1}") for i in range(len(rows))],
        EmbeddingMatrix(ids, np.stack(rows).astype(np.float32)),
    )


class TestChooseK:
    def test_default_beta(self):
        assert choose_k(8, 4) == 2

    def test_lower_clamp(self):
        assert choose_k(1, 4) == 1

    def test_ceiling(self):
        assert choose_k(7, 4) == 2

    def test_enumeration_against_oracle(self):
        for t in range(1, 21):
            for beta in range(1, 7):
                oracle = min(max(-(-t // beta), 1), t)
                assert choose_k(t, beta) == oracle, (t, beta)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            choose_k(0, 4)
        with pytest.raises(ValueError):
            choose_k(4, 0)


class TestClusterFrames:
    def test_identical_rows_degenerate(self):
        # Every frame equal and K = 2: the emptied cluster is dropped, and no
        # warning is raised (pytest turns a RuntimeWarning into an error).
        rows = np.tile(_unit(0), (4, 1)).astype(np.float32)
        matrix = EmbeddingMatrix([f"f{i}" for i in range(4)], rows)
        result = cluster_frames(matrix, AlignConfig(beta=2), seed=1)
        assert result.k == 1
        assert set(result.assignment.values()) == {0}
        assert result.centroids.tobytes() == rows[:1].astype(np.float64).tobytes()

    def test_two_blobs_recovered(self):
        rng = np.random.default_rng(3)
        rows = []
        for axis in (0, 1):
            for _ in range(10):
                noise = rng.normal(0, 0.03, DIM)
                v = _unit(axis) + noise
                rows.append(v / np.linalg.norm(v))
        matrix = EmbeddingMatrix([f"f{i}" for i in range(20)], np.stack(rows).astype(np.float32))
        result = cluster_frames(matrix, AlignConfig(beta=10), seed=0)
        assert result.k == 2
        labels = [result.assignment[f] for f in range(1, 21)]
        assert len(set(labels[:10])) == 1
        assert len(set(labels[10:])) == 1
        assert labels[0] != labels[10]
        # Oracle: after convergence every row must be nearest its own centroid.
        for frame, label in result.assignment.items():
            row = matrix.rows[frame - 1].astype(np.float64)
            dists = [np.sum((row - c) ** 2) for c in result.centroids]
            assert int(np.argmin(dists)) == label

    def test_bitwise_determinism(self):
        matrix = _frames([0, 1], [2, 6])
        a = cluster_frames(matrix, AlignConfig(), seed=7)
        b = cluster_frames(matrix, AlignConfig(), seed=7)
        assert np.array_equal(a.centroids, b.centroids)
        assert a.assignment == b.assignment

    def test_seed_defaults_to_zero(self):
        matrix = _frames([0, 1], [2, 6])
        a = cluster_frames(matrix, AlignConfig())
        b = cluster_frames(matrix, AlignConfig(), seed=0)
        assert np.array_equal(a.centroids, b.centroids)
        assert a.assignment == b.assignment

    def test_no_empty_clusters(self):
        matrix = _frames([0, 1, 2], [4, 4, 4])
        result = cluster_frames(matrix, AlignConfig(), seed=5)
        members = result.members()
        assert all(members[c] for c in range(result.k))

    def test_duplicate_rows_never_leave_empty_clusters(self):
        # Only two distinct rows but K would be 3: the result must compact to
        # occupied clusters only.
        rows = np.stack([_unit(0)] * 4 + [_unit(1)] * 2).astype(np.float32)
        matrix = EmbeddingMatrix([f"f{i}" for i in range(6)], rows)
        result = cluster_frames(matrix, AlignConfig(beta=2), seed=2)
        members = result.members()
        assert result.k <= 2
        assert all(members[c] for c in range(result.k))
        assert sorted(f for fs in members.values() for f in fs) == list(range(1, 7))


# The restart-by-restart k-means that ``cluster_frames`` ran before its
# restarts ran in lockstep, kept verbatim as the oracle for that rewrite.


def _oracle_kmeans_plusplus_init(rows, k, rng):
    n = rows.shape[0]
    centroids = np.empty((k, rows.shape[1]), dtype=np.float64)
    first = int(rng.integers(0, n))
    centroids[0] = rows[first]
    closest = np.sum((rows - centroids[0]) ** 2, axis=1)
    for i in range(1, k):
        total = closest.sum()
        if total <= 0:
            idx = int(rng.integers(0, n))
        else:
            probs = closest / total
            idx = int(rng.choice(n, p=probs))
        centroids[i] = rows[idx]
        closest = np.minimum(closest, np.sum((rows - centroids[i]) ** 2, axis=1))
    return centroids


def _oracle_lloyd(rows, centroids, max_iters, tol=1e-6):
    k = centroids.shape[0]
    labels = np.zeros(rows.shape[0], dtype=np.int64)
    for _ in range(max_iters):
        distances = np.sum((rows[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        labels = np.argmin(distances, axis=1)
        new_centroids = centroids.copy()
        per_point = distances[np.arange(rows.shape[0]), labels].copy()
        for c in range(k):
            mask = labels == c
            if np.any(mask):
                new_centroids[c] = rows[mask].mean(axis=0)
            else:
                farthest = int(np.argmax(per_point))
                new_centroids[c] = rows[farthest]
                labels[farthest] = c
                per_point[farthest] = -np.inf
        shift = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        centroids = new_centroids
        if shift < tol:
            break
    distances = np.sum((rows[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
    labels = np.argmin(distances, axis=1)
    inertia = float(distances[np.arange(rows.shape[0]), labels].sum())
    return centroids, labels, inertia


def _oracle_cluster(matrix, beta, seed):
    """(k, centroids, labels) as the restart-by-restart code computed them."""
    rows = np.asarray(matrix.rows, dtype=np.float64)
    k = choose_k(rows.shape[0], beta)
    best = None
    for restart in range(KMEANS_RESTARTS):
        rng = np.random.default_rng([seed, restart])
        init = _oracle_kmeans_plusplus_init(rows, k, rng)
        centroids, labels, inertia = _oracle_lloyd(rows, init, KMEANS_MAX_ITERS)
        if best is None or inertia < best[0]:
            best = (inertia, centroids, labels)
    _, centroids, labels = best
    occupied = sorted(set(int(c) for c in labels))
    remap = {old: new for new, old in enumerate(occupied)}
    return len(occupied), centroids[occupied], np.array([remap[int(c)] for c in labels])


ROW_KINDS = ("gaussian", "duplicate", "near_tied", "tiny_perturbation", "identical")


def _rows(kind, t, d, data_seed):
    """Unit-normalised float32 frame rows of one kind."""
    rng = np.random.default_rng(data_seed)
    rows = rng.standard_normal((t, d))
    if kind == "duplicate":
        rows = rows[rng.integers(0, max(1, t // 3), size=t)]
    elif kind == "near_tied":
        rows = np.round(rows, 1)
    elif kind == "tiny_perturbation":
        rows = rng.standard_normal(d) + 1e-8 * rows
    elif kind == "identical":
        rows = np.tile(rows[0], (t, 1))
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    rows = rows / np.where(norms > 0, norms, 1.0)
    return EmbeddingMatrix([f"f{i}" for i in range(t)], rows.astype(np.float32))


def _assert_matches_oracle(matrix, beta, seed):
    result = cluster_frames(matrix, AlignConfig(beta=beta), seed=seed)
    _assert_equals_oracle(result, matrix, beta, seed)


def _assert_equals_oracle(result, matrix, beta, seed):
    k, centroids, labels = _oracle_cluster(matrix, beta, seed)
    assert result.k == k
    assert result.assignment == {i + 1: int(c) for i, c in enumerate(labels)}
    assert result.centroids.dtype == centroids.dtype
    assert result.centroids.shape == centroids.shape
    assert result.centroids.tobytes() == centroids.tobytes()


class TestLockstepKMeans:
    @given(
        kind=st.sampled_from(ROW_KINDS),
        t=st.integers(1, 40),
        d=st.integers(1, 33),
        beta=st.sampled_from([1, 2, 3, 4]),
        seed=st.integers(0, 2**16),
        data_seed=st.integers(0, 2**16),
    )
    @settings(max_examples=400, deadline=None)
    def test_bitwise_equal_to_restart_by_restart_oracle(self, kind, t, d, beta, seed,
                                                         data_seed):
        _assert_matches_oracle(_rows(kind, t, d, data_seed), beta, seed)

    @pytest.mark.parametrize("seed", range(8))
    def test_empty_cluster_falls_back_to_the_reseed(self, seed, monkeypatch):
        # Two distinct rows and K = 6: k-means++ seeds on duplicates, so the
        # first iteration leaves clusters empty and the reseed path must run.
        reseeds = []
        update = align_mod._lloyd_update
        monkeypatch.setattr(
            align_mod, "_lloyd_update", lambda *a, **kw: reseeds.append(1) or update(*a, **kw)
        )
        rows = np.stack([_unit(0)] * 4 + [_unit(1)] * 2).astype(np.float32)
        matrix = EmbeddingMatrix([f"f{i}" for i in range(6)], rows)
        _assert_matches_oracle(matrix, beta=1, seed=seed)
        assert reseeds

    def test_align_long_shape_matches_oracle(self):
        _assert_matches_oracle(_rows("gaussian", 192, 64, 3), beta=4, seed=2)

    def test_one_dimension_mean_is_a_pairwise_sum(self):
        # With D == 1, numpy sums a cluster of 8 or more rows pairwise:
        # 1 + 7 * 2**-53 is 1 + 3 * 2**-52 that way and 1 row by row.
        rows = np.array([[1.0]] + [[2.0**-53]] * 7, dtype=np.float32)
        matrix = EmbeddingMatrix([f"f{i}" for i in range(8)], rows)
        _assert_matches_oracle(matrix, beta=8, seed=0)

    def test_no_temporary_as_large_as_the_tkd_tensor(self):
        # With K >= restarts the widest temporary is R*T*D; the
        # restart-by-restart code built the T*K*D tensor, which alone is
        # larger than this whole call may take.
        t, d, beta = 96, 256, 4
        matrix = _rows("gaussian", t, d, 0)
        k = choose_k(t, beta)
        assert k >= KMEANS_RESTARTS
        tracemalloc.start()
        try:
            cluster_frames(matrix, AlignConfig(beta=beta), seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < t * k * d * 8

    def test_no_temporary_as_large_as_the_row_to_row_distances(self):
        # Seeding measures each pick against its video's rows as it is
        # drawn; a T*T table of row-to-row distances alone is larger than
        # this whole call may take.
        t, d, beta = 1000, 4, 100
        matrix = _rows("gaussian", t, d, 0)
        tracemalloc.start()
        try:
            cluster_frames(matrix, AlignConfig(beta=beta), seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < t * t * 8

    def test_reseed_path_stays_below_the_tkd_tensor(self, monkeypatch):
        # Three distinct rows and K = 24: the restarts leave clusters empty,
        # and _lloyd_update takes those updates on one restart's T*D rows;
        # the lockstep's distances come one cluster column at a time.
        t, d, beta = 96, 256, 4
        base = np.random.default_rng(0).standard_normal((3, d))
        base /= np.linalg.norm(base, axis=1, keepdims=True)
        rows = base[np.arange(t) % 3].astype(np.float32)
        matrix = EmbeddingMatrix([f"f{i}" for i in range(t)], rows)
        k = choose_k(t, beta)
        reseeds = []
        update = align_mod._lloyd_update
        monkeypatch.setattr(
            align_mod, "_lloyd_update", lambda *a, **kw: reseeds.append(1) or update(*a, **kw)
        )
        tracemalloc.start()
        try:
            cluster_frames(matrix, AlignConfig(beta=beta), seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert reseeds
        assert peak < t * k * d * 8


def _spy_on_chunks(monkeypatch):
    """Record the video count of every ``_cluster_chunk`` call."""
    sizes = []
    chunk = align_mod._cluster_chunk
    monkeypatch.setattr(
        align_mod, "_cluster_chunk", lambda rows, *a: sizes.append(len(rows)) or chunk(rows, *a)
    )
    return sizes


class TestClusterVideos:
    @given(
        shapes=st.lists(
            st.tuples(st.integers(1, 40), st.sampled_from([1, 2, 32])), min_size=1, max_size=3
        ),
        videos=st.lists(
            st.tuples(
                st.integers(0, 2), st.sampled_from(ROW_KINDS),
                st.integers(0, 2**16),
            ),
            min_size=1,
            max_size=10,
        ),
        beta=st.sampled_from([1, 2, 3, 4]),
        seed=st.integers(0, 2**16),
        budget=st.sampled_from([1, 2**10, 2**13, align_mod.KMEANS_BATCH_ELEMENTS]),
    )
    @settings(max_examples=150, deadline=None)
    def test_each_video_bitwise_equal_to_the_restart_by_restart_oracle(
        self, shapes, videos, beta, seed, budget
    ):
        # Videos draw from at most three shapes, so shapes repeat and group;
        # the smaller budgets split the groups into chunks of one or a few.
        matrices = [
            _rows(kind, *shapes[shape % len(shapes)], data_seed)
            for shape, kind, data_seed in videos
        ]
        with mock.patch.object(align_mod, "KMEANS_BATCH_ELEMENTS", budget):
            results = cluster_videos(matrices, AlignConfig(beta=beta), seed)
        assert len(results) == len(matrices)
        for matrix, result in zip(matrices, results):
            _assert_equals_oracle(result, matrix, beta, seed)

    def test_chunks_split_a_group_of_one_shape(self, monkeypatch):
        # T=12, D=32, K=3: 2**15 // (5 * 12 * 32) = 17 videos a chunk.
        sizes = _spy_on_chunks(monkeypatch)
        matrices = [_rows("gaussian", 12, 32, s) for s in range(40)]
        results = cluster_videos(matrices, AlignConfig(), seed=3)
        assert sizes == [17, 17, 6]
        for matrix, result in zip(matrices, results):
            _assert_equals_oracle(result, matrix, 4, 3)

    def test_a_chunk_with_a_duplicate_row_video_runs_video_by_video(self, monkeypatch):
        # Two distinct rows and K = 3: once k-means++ has picked both, the
        # duplicate video's total is 0 and it draws an integer, while the
        # others draw a choice from the same stream. So the chunk clusters
        # each of its videos alone.
        sizes = _spy_on_chunks(monkeypatch)
        duplicate = EmbeddingMatrix(
            [f"f{i}" for i in range(6)],
            np.stack([_unit(0)] * 4 + [_unit(1)] * 2).astype(np.float32),
        )
        matrices = [_rows("gaussian", 6, DIM, 1), duplicate, _rows("gaussian", 6, DIM, 2)]
        results = cluster_videos(matrices, AlignConfig(beta=2), seed=4)
        assert sizes == [3, 1, 1, 1]
        for matrix, result in zip(matrices, results):
            _assert_equals_oracle(result, matrix, 2, 4)

    def test_an_identical_video_degenerates_and_leaves_the_others(self):
        matrices = [_rows("gaussian", 8, DIM, 1), _rows("identical", 8, DIM, 2),
                    _rows("gaussian", 8, DIM, 3)]
        results = cluster_videos(matrices, AlignConfig(beta=2), seed=5)
        assert results[1].k == 1
        assert set(results[1].assignment.values()) == {0}
        first = np.asarray(matrices[1].rows[:1], dtype=np.float64)
        assert results[1].centroids.tobytes() == first.tobytes()
        for matrix, result in zip(matrices, results):
            _assert_equals_oracle(result, matrix, 2, 5)

    def test_results_keep_the_input_order_across_shapes(self):
        shapes = [(12, 32), (5, 2), (12, 32), (1, 32), (5, 2), (12, 1)]
        matrices = [_rows("gaussian", t, d, s) for s, (t, d) in enumerate(shapes)]
        results = cluster_videos(matrices, AlignConfig(), seed=6)
        for matrix, result in zip(matrices, results):
            assert len(result.assignment) == len(matrix)
            _assert_equals_oracle(result, matrix, 4, 6)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_rows_raise_value_error(self, bad):
        # Generator.choice raised this for the restart-by-restart code.
        rows = np.array(_rows("gaussian", 8, 4, 0).rows)
        rows[3, 1] = bad
        matrix = EmbeddingMatrix([f"f{i}" for i in range(8)], rows)
        with pytest.raises(ValueError):
            cluster_frames(matrix, AlignConfig(beta=4))
        with pytest.raises(ValueError):
            cluster_videos([_rows("gaussian", 8, 4, 1), matrix], AlignConfig(beta=4))

    def test_memory_does_not_grow_with_the_number_of_videos(self):
        # T=12, D=32 videos run in chunks of 17. What a call holds beyond its
        # results is one chunk's working set: its rows repeated for every
        # restart, one temporary of that size (squared differences or the
        # bincount index) with numpy's broadcast buffer, and the centroids,
        # sums and distances. Unchunked, 200 videos' repeated rows alone
        # would take 200 * R*T*D*8 bytes (3 MiB).
        t, d = 12, 32
        matrices = [_rows("gaussian", t, d, s) for s in range(200)]
        one_video = KMEANS_RESTARTS * t * d * 8

        def held_beyond_results(n):
            tracemalloc.start()
            try:
                results = cluster_videos(matrices[:n], AlignConfig(), seed=0)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(results) == n
            return peak - held

        many, one_chunk = held_beyond_results(200), held_beyond_results(17)
        assert many < one_chunk + one_video
        assert many < 5 * align_mod.KMEANS_BATCH_ELEMENTS * 8 + one_video


class TestSelectClusters:
    def test_worked_example_prefix(self):
        # Cluster order c4 > c3 > c1 > c2 (ids 3, 2, 0, 1) with the largest
        # drop between c1 and c2: the selection is exactly {c4, c3, c1}.
        sims = [0.62, 0.20, 0.80, 0.85]
        order = sort_clusters(sims)
        assert order == [3, 2, 0, 1]
        assert select_clusters(sims) == [3, 2, 0]

    def test_single_cluster(self):
        assert select_clusters([0.4]) == [0]

    def test_derived_drop_scan(self):
        sims = [0.91, 0.88, 0.84, 0.40, 0.35]
        # Exhaustive drop scan: drops are 0.03, 0.04, 0.44, 0.05; max at the
        # third boundary, so the first three clusters survive.
        drops = [sims[i] - sims[i + 1] for i in range(len(sims) - 1)]
        assert max(range(len(drops)), key=lambda i: drops[i]) == 2
        assert select_clusters(sims) == [0, 1, 2]

    def test_tie_earliest_boundary_wins(self):
        sims = [1.0, 0.5, 0.0]
        assert select_clusters(sims) == [0]

    def test_fixed_gap(self):
        sims = [0.9, 0.85, 0.5, 0.1]
        assert select_clusters(sims, "fixed_gap", gap_tau=0.2) == [0, 1]

    def test_fixed_gap_no_drop_exceeds(self):
        sims = [0.5, 0.45, 0.42]
        assert select_clusters(sims, "fixed_gap", gap_tau=0.2) == [0, 1, 2]

    @given(
        st.lists(st.integers(-64, 64), min_size=1, max_size=8),
        st.integers(-256, 256),
    )
    @settings(max_examples=100, deadline=None)
    def test_shift_invariance(self, grid_sims, grid_shift):
        # Scores and shift on a dyadic grid so the additions are exact; shift
        # invariance is a property of exact arithmetic.
        sims = [n / 64 for n in grid_sims]
        shifted = [s + grid_shift / 64 for s in sims]
        assert select_clusters(sims) == select_clusters(shifted)

    @given(
        st.lists(st.integers(-64, 64), min_size=1, max_size=8),
        st.integers(-3, 3),
    )
    @settings(max_examples=100, deadline=None)
    def test_positive_scaling_invariance(self, grid_sims, exponent):
        # Powers of two scale drops exactly, so the argmax drop cannot move.
        sims = [n / 64 for n in grid_sims]
        scaled = [s * 2.0**exponent for s in sims]
        assert select_clusters(sims) == select_clusters(scaled)

    @given(st.lists(st.floats(-1, 1, allow_nan=False), min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_prefix_property(self, sims):
        order = sort_clusters(sims)
        for mode, tau in (("steepest_decline", 0.2), ("fixed_gap", 0.3)):
            selected = select_clusters(sims, mode, tau)
            assert selected == order[: len(selected)]


class TestPruneTemporal:
    def test_worked_example(self):
        # Sentence 1 holds frame 2, so frame 1 must leave sentence 2.
        s1, s2 = SegmentedSentence(1, "a"), SegmentedSentence(2, "b")
        out = prune_temporal([(s1, {2}), (s2, {1, 3, 4, 5, 6})])
        assert out[0][1] == {2}
        assert out[1][1] == {3, 4, 5, 6}

    def test_single_sentence_unchanged(self):
        s1 = SegmentedSentence(1, "a")
        out = prune_temporal([(s1, {4, 5})])
        assert out[0][1] == {4, 5}

    def test_later_sentence_can_empty(self):
        # Watermark from sentence 1 is frame 3; both candidates of sentence 2
        # precede it. Oracle: any kept frame f in sentence 2 with f < 3 would
        # violate the order against the frame committed to sentence 1.
        s1, s2 = SegmentedSentence(1, "a"), SegmentedSentence(2, "b")
        out = prune_temporal([(s1, {3}), (s2, {1, 2})])
        assert out[1][1] == set()
        committed_first = out[0][1]
        for f in out[1][1]:
            assert all(f >= f_prime for f_prime in committed_first)

    def test_committed_frame_removed_from_later(self):
        s1, s2 = SegmentedSentence(1, "a"), SegmentedSentence(2, "b")
        out = prune_temporal([(s1, {2, 5}), (s2, {5, 6})])
        assert out[1][1] == {6}

    @given(
        st.lists(
            st.sets(st.integers(1, 12), min_size=0, max_size=6),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_property_monotone_ordering(self, frame_sets):
        sentences = [SegmentedSentence(i + 1, f"s{i}") for i in range(len(frame_sets))]
        out = prune_temporal(list(zip(sentences, frame_sets)))
        # Exhaustive pair scan over outputs.
        for i in range(len(out)):
            for j in range(i + 1, len(out)):
                earlier, later = out[i][1], out[j][1]
                if earlier and later:
                    assert min(later) >= min(earlier)
                assert not (earlier & later)
        # Kept frames are a subset of the candidates.
        for (s, kept), original in zip(out, frame_sets):
            assert kept <= original


class TestAlignSentences:
    def test_two_sentence_synthetic_recovery(self):
        frames = _frames([0, 1], [2, 6])
        sentences, embeds = _sentences([0, 1])
        clustering = cluster_frames(frames, AlignConfig(beta=4), seed=0)
        assert clustering.k == 2
        aligned, trace = align_sentences(sentences, embeds, clustering, AlignConfig())
        assert aligned[0].aligned_frames == (1, 2)
        assert aligned[1].aligned_frames == (3, 8)

    def test_one_sentence_one_frame(self):
        frames = _frames([0], [1])
        sentences, embeds = _sentences([0])
        clustering = cluster_frames(frames, AlignConfig(beta=4), seed=0)
        aligned, _ = align_sentences(sentences, embeds, clustering, AlignConfig())
        assert aligned[0].aligned_frames == (1, 1)

    def test_short_and_long_action_spans(self):
        # Eight frames in four clusters of two. The first sentence matches one
        # cluster (a two-frame action); the second straddles the last two
        # clusters (a four-frame action), leaving frames 3-4 unaligned.
        frames = _frames([0, 1, 2, 3], [2, 2, 2, 2])
        s2_vector = _unit(2) + _unit(3)
        sentences, embeds = _sentences([0, s2_vector])
        config = AlignConfig(beta=2)
        clustering = cluster_frames(frames, config, seed=0)
        assert clustering.k == 4
        aligned, _ = align_sentences(sentences, embeds, clustering, config)
        assert aligned[0].aligned_frames == (1, 2)
        assert aligned[1].aligned_frames == (5, 8)

    def test_pruning_applied_between_sentences(self):
        # Both sentences point at the same early cluster; the second also
        # matches nothing else, so after pruning it keeps the overlap minus
        # committed frames and anchors on what survives.
        frames = _frames([0, 1], [2, 6])
        sentences, embeds = _sentences([1, 0])
        clustering = cluster_frames(frames, AlignConfig(beta=4), seed=0)
        aligned, _ = align_sentences(sentences, embeds, clustering, AlignConfig())
        # Sentence 1 grabs the later cluster (frames 3-8); sentence 2's
        # candidates (frames 1-2) all precede the watermark and vanish.
        assert aligned[0].aligned_frames == (3, 8)
        assert aligned[1].aligned_frames is None

    def test_interval_property_random(self):
        rng = np.random.default_rng(12)
        for trial in range(10):
            axes = [int(a) for a in rng.integers(0, 4, size=3)]
            frames = _frames([0, 1, 2, 3], [3, 3, 3, 3])
            sentences, embeds = _sentences(axes)
            config = AlignConfig(beta=3)
            clustering = cluster_frames(frames, config, seed=trial)
            aligned, _ = align_sentences(sentences, embeds, clustering, config)
            for s in aligned:
                if s.aligned_frames is not None:
                    lo, hi = s.aligned_frames
                    assert 1 <= lo <= hi <= 12

    def test_trace_deterministic(self):
        frames = _frames([0, 1], [2, 6])
        sentences, embeds = _sentences([0, 1])
        config = AlignConfig()
        clustering = cluster_frames(frames, config, seed=3)
        _, trace_a = align_sentences(sentences, embeds, clustering, config, video_id="v")
        _, trace_b = align_sentences(sentences, embeds, clustering, config, video_id="v")
        assert trace_a.to_dict() == trace_b.to_dict()

    def test_trace_selected_is_prefix_of_sorted(self):
        frames = _frames([0, 1, 2], [4, 4, 4])
        sentences, embeds = _sentences([0, 1])
        config = AlignConfig()
        clustering = cluster_frames(frames, config, seed=1)
        _, trace = align_sentences(sentences, embeds, clustering, config)
        for record in trace.sentences:
            n = len(record.selected_clusters)
            assert record.selected_clusters == record.sorted_clusters[:n]


# The per-sentence ranking ``align_sentences`` traced before it sorted each
# sentence's scores once (a stable argsort for the order and the selection, a
# separate ``np.sort`` for the gap), kept verbatim as the oracle for that
# rewrite.


def _oracle_sort_clusters(similarities):
    sims = np.asarray(similarities, dtype=np.float64)
    return [int(i) for i in np.argsort(-sims, kind="stable")]


def _oracle_steepest_gap(similarities):
    sims = np.asarray(similarities, dtype=np.float64)
    if sims.size < 2:
        return 0.0
    ordered = np.sort(sims)[::-1]
    return float(np.max(ordered[:-1] - ordered[1:]))


def _oracle_select_clusters(similarities, selection, gap_tau):
    order = _oracle_sort_clusters(similarities)
    if len(order) == 1:
        return order
    sims = np.asarray(similarities, dtype=np.float64)
    ordered_scores = sims[order]
    drops = ordered_scores[:-1] - ordered_scores[1:]
    if selection == "steepest_decline":
        cut = int(np.argmax(drops))
        return order[: cut + 1]
    if selection == "fixed_gap":
        exceeding = np.nonzero(drops > gap_tau)[0]
        if exceeding.size == 0:
            return order
        return order[: int(exceeding[0]) + 1]
    raise ValueError(f"unknown selection mode {selection!r}")


# Halves make exact dot products, so centroid scores tie often; the float32
# draws add signed zeros and scores that do not tie.
_ENTRY = st.one_of(st.integers(-2, 2).map(lambda n: n / 2), st.floats(-1, 1, width=32))


class TestOneRankingPerSentence:
    @given(
        k=st.integers(1, 6),
        d=st.integers(1, 4),
        n_sentences=st.integers(1, 4),
        selection=st.sampled_from(SELECTION_MODES),
        gap_tau=st.sampled_from([0.25, 0.5, 0.75]),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_trace_equals_the_three_sort_oracle(self, k, d, n_sentences, selection, gap_tau,
                                                data):
        def matrix(n):
            return np.array(data.draw(st.lists(
                st.lists(_ENTRY, min_size=d, max_size=d), min_size=n, max_size=n)))

        clustering = ClusteringResult(
            k=k, centroids=matrix(k), assignment={f: (f - 1) % k for f in range(1, 2 * k + 1)}
        )
        sentences = [SegmentedSentence(i + 1, f"s{i}") for i in range(n_sentences)]
        embeds = EmbeddingMatrix([str(i + 1) for i in range(n_sentences)],
                                 matrix(n_sentences).astype(np.float32))
        config = AlignConfig(selection=selection, gap_tau=gap_tau)
        _, trace = align_sentences(sentences, embeds, clustering, config)
        for record in trace.sentences:
            sims = record.similarities
            want = dict(
                record.to_dict(),
                sorted_clusters=_oracle_sort_clusters(sims),
                selected_clusters=_oracle_select_clusters(sims, selection, gap_tau),
                steepest_gap=_oracle_steepest_gap(sims),
            )
            # JSON as trace.ndjson writes it: a flipped zero sign shows.
            assert json.dumps(record.to_dict()) == json.dumps(want)
