"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Every tolerance is pinned here; nothing is deferred to calibration.
"""

import hashlib
import json
import time

import numpy as np
from click.testing import CliRunner

from capgraph.align import (
    AlignConfig,
    align_sentences,
    cluster_frames,
    prune_temporal,
    select_clusters,
    sort_clusters,
)
from capgraph.cli import main
from capgraph.core import BoundingBox, EmbeddingMatrix, SegmentedSentence, box_iou
from capgraph.llm import estimate_cost
from capgraph.motion import MotionCandidate, MotionLabelConfig, assign_negatives, giou
from capgraph.pipeline import PipelineConfig, run_all
from capgraph.evaluate import EvalConfig, recall_at_k

from test_evaluate import _frame_recall, _random_instances, oracle_recall

GOLDEN_CHECKSUMS = {
    "negatives.ndjson": "959989f5f8c88c143caf0106fd29fe73e80889244d30ff6a73514675a54e9e77",
    "report.json": "b5d47b6367c3effc28dea2711a17e9da8f46f033a64289350a0fdf186fca16b3",
    "scene_graphs.ndjson": "a6b9454a959384be250db59378f30bf84ff2b0b5f63344928cb4f61600c984e8",
    "sentences.ndjson": "deb8ab033513bca94f9b8e22925604c4aae898c3ebef37e49b89a2be796a97ac",
    "trace.ndjson": "b5f56187fd9b84f56660d377a9a7f2cac9690d0828d545192792cf540743d1ab",
}


def _report(name: str, started: float, budget: float):
    elapsed = time.perf_counter() - started
    print(f"PASS {name} ({elapsed * 1000:.1f} ms, budget {budget * 1000:.0f} ms)")
    assert elapsed < budget, f"{name} exceeded its {budget}s budget: {elapsed:.3f}s"


def test_criterion_1_steepest_decline_worked_example():
    # Cluster ids 0..3 stand for c1..c4; scores order them c4 > c3 > c1 > c2
    # with the largest drop between c1 and c2.
    similarities = [0.62, 0.20, 0.80, 0.85]
    # One untimed call first: the budget times the selection, not numpy's
    # warm-up on the first call in a process.
    sort_clusters(similarities)
    select_clusters(similarities, "steepest_decline")
    started = time.perf_counter()
    assert sort_clusters(similarities) == [3, 2, 0, 1]
    assert select_clusters(similarities, "steepest_decline") == [3, 2, 0]
    _report("criterion 1: steepest-decline selection", started, 0.001)


def test_criterion_2_temporal_pruning_worked_example():
    started = time.perf_counter()
    s1, s2 = SegmentedSentence(1, "first"), SegmentedSentence(2, "second")
    pruned = prune_temporal([(s1, {2}), (s2, {1, 3, 4, 5, 6})])
    assert pruned[0][1] == {2}
    assert pruned[1][1] == {3, 4, 5, 6}
    _report("criterion 2: temporal pruning", started, 0.001)


def test_criterion_3_giou_property_suite():
    started = time.perf_counter()
    identity = BoundingBox(0, 0, 2, 2)
    assert giou(identity, identity) == 1.0
    assert abs(giou(BoundingBox(0, 0, 1, 1), BoundingBox(1, 0, 2, 1)) - 0.0) < 1e-12
    assert abs(giou(BoundingBox(0, 0, 1, 1), BoundingBox(2, 0, 3, 1)) - (-1 / 3)) < 1e-12

    rng = np.random.default_rng(2024)
    corners = rng.uniform(0, 100, size=(10_000, 2, 2))
    sizes = rng.uniform(0.1, 60, size=(10_000, 2, 2))
    offsets = rng.uniform(0, 40, size=(10_000, 2))
    for i in range(10_000):
        a = BoundingBox(
            corners[i, 0, 0], corners[i, 0, 1],
            corners[i, 0, 0] + sizes[i, 0, 0], corners[i, 0, 1] + sizes[i, 0, 1],
        )
        b = BoundingBox(
            corners[i, 1, 0], corners[i, 1, 1],
            corners[i, 1, 0] + sizes[i, 1, 0], corners[i, 1, 1] + sizes[i, 1, 1],
        )
        g = giou(a, b)
        assert -1.0 < g <= 1.0
        assert g == giou(b, a)
        iou = box_iou(a, b)
        assert g <= iou + 1e-12
        hull = (max(a.x2, b.x2) - min(a.x1, b.x1)) * (max(a.y2, b.y2) - min(a.y1, b.y1))
        inter = max(0.0, min(a.x2, b.x2) - max(a.x1, b.x1)) * max(
            0.0, min(a.y2, b.y2) - max(a.y1, b.y1)
        )
        union = a.area + b.area - inter
        if abs(hull - union) < 1e-9:
            assert abs(g - iou) < 1e-9
        dx, dy = offsets[i]
        shifted = giou(
            BoundingBox(a.x1 + dx, a.y1 + dy, a.x2 + dx, a.y2 + dy),
            BoundingBox(b.x1 + dx, b.y1 + dy, b.x2 + dx, b.y2 + dy),
        )
        assert abs(shifted - g) < 1e-9
    _report("criterion 3: giou property suite (10,000 pairs)", started, 1.0)


def test_criterion_4_negative_selection():
    started = time.perf_counter()
    pair = (BoundingBox(0, 0, 10, 10), BoundingBox(30, 0, 40, 10))
    pool = [
        MotionCandidate(
            video_id=f"v{i:02d}", object_class="table",
            run=(5, 8), g_start=0.0, g_end=(i - 12) / 16,
            start_pair=pair, end_pair=pair,
        )
        for i in range(20)
    ]
    out = assign_negatives(pool, MotionLabelConfig(alpha_percent=15.0))
    assert len(out.selected) == 3
    scores = [c.motion_score for c in out.selected]
    assert scores == sorted(c.motion_score for c in pool)[:3]
    assert scores == sorted(scores)

    for candidate in out.selected:
        frames = {}
        for t in out.by_video[candidate.video_id]:
            frames.setdefault(t.predicate_class, set()).add(t.frame_index)
        assert frames["not looking at"] == {5, 8}
        assert frames["not contacting"] == {8}
    _report("criterion 4: negative pseudo-label selection", started, 1.0)


def test_criterion_5_recall_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(99)
    instances = _random_instances(rng, frames=200, max_preds=4, max_gt=3)
    config = EvalConfig(k_values=(1, 2, 3, 20, 50))
    results = recall_at_k(instances, config)
    for (regime, k), value in results.items():
        assert abs(value - oracle_recall(instances, regime, k, 0.5)) < 1e-12
    for inst in instances:
        for regime in ("with_constraint", "no_constraint"):
            r20 = _frame_recall(inst, regime, 20)
            r50 = _frame_recall(inst, regime, 50)
            assert r20 <= r50 + 1e-12
    _report("criterion 5: recall@K oracle equivalence (200 frames)", started, 5.0)


def test_criterion_6_alignment_synthetic_recovery():
    started = time.perf_counter()
    dim = 16
    rng = np.random.default_rng(7)
    u1 = np.zeros(dim); u1[0] = 1.0
    u2 = np.zeros(dim); u2[1] = 1.0

    def perturbed(base, ortho_axis, scale, salt):
        w = np.zeros(dim)
        w[ortho_axis] = scale * (1 if salt % 2 == 0 else -1)
        v = base + w
        return v / np.linalg.norm(v)

    frames = [perturbed(u1, 2 + (i % 3), 0.10, i) for i in range(2)] + [
        perturbed(u2, 5 + (i % 3), 0.10, i) for i in range(6)
    ]
    base_frames = np.stack(frames)
    base_sentences = np.stack([u1, u2])

    # Construction check: within-cosine >= 0.99, cross-similarity < 0.2.
    for i in range(2):
        assert base_frames[i] @ u1 >= 0.99
        assert abs(base_frames[i] @ u2) < 0.2
    for i in range(2, 8):
        assert base_frames[i] @ u2 >= 0.99
        assert abs(base_frames[i] @ u1) < 0.2

    config = AlignConfig(beta=4)
    sentences = [SegmentedSentence(1, "first"), SegmentedSentence(2, "second")]
    for trial in range(100):
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        frame_matrix = EmbeddingMatrix(
            [f"f{i}" for i in range(1, 9)], (base_frames @ q.T).astype(np.float32)
        ).normalized()
        sentence_matrix = EmbeddingMatrix(
            ["1", "2"], (base_sentences @ q.T).astype(np.float32)
        ).normalized()
        clustering = cluster_frames(frame_matrix, config, seed=11)
        assert clustering.k == 2
        aligned, _ = align_sentences(sentences, sentence_matrix, clustering, config)
        assert aligned[0].aligned_frames == (1, 2), f"rotation {trial}"
        assert aligned[1].aligned_frames == (3, 8), f"rotation {trial}"
    _report("criterion 6: alignment recovery under 100 rotations", started, 5.0)


def test_criterion_7_end_to_end_determinism(data_root, cassette_dir, tmp_path):
    started = time.perf_counter()
    digests = []
    for run in range(3):
        out = tmp_path / f"run{run}"
        config = PipelineConfig(
            data_root=str(data_root), out_dir=str(out),
            cache_dir=str(cassette_dir), seed=7, offline=True,
        )
        run_all(config)
        digests.append(
            {
                name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in GOLDEN_CHECKSUMS
            }
        )
    assert digests[0] == digests[1] == digests[2]
    assert digests[0] == GOLDEN_CHECKSUMS
    _report("criterion 7: end-to-end determinism + golden checksums", started, 30.0)


def test_criterion_8_cost_accounting():
    started = time.perf_counter()
    cost = estimate_cost(680, 45, 0.5, 1.5)
    # Formula on its own numbers: (680/1M)*0.5 + (45/1M)*1.5.
    assert abs(cost - ((680 / 1_000_000) * 0.5 + (45 / 1_000_000) * 1.5)) < 1e-12
    # The published per-video figure is that value at five-decimal precision.
    assert round(cost, 5) == 0.00041
    assert abs(cost - 0.00041) < 3e-6
    _report("criterion 8: cost accounting", started, 0.001)


def test_criterion_9_hyperparameter_defaults():
    runner = CliRunner()
    result = runner.invoke(main, ["run-all", "--dump-config"])
    assert result.exit_code == 0
    dumped = json.loads(result.output)
    assert dumped["alignment"]["beta"] == 4
    assert dumped["motion"]["alpha_percent"] == 15.0
    assert dumped["ingest"]["confidence_floor"] == 0.2
    assert EvalConfig().k_values == (20, 50)
    assert EvalConfig().iou_threshold == 0.5
    assert dumped["segmentation"]["temperature"] == 0.0
    print("PASS criterion 9: hyperparameter defaults audit")
