import math
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capgraph.core import (
    BoundingBox,
    Detection,
    Provenance,
    SceneGraph,
    SegmentedSentence,
    Triplet,
    VideoManifest,
    box_iou,
)
from capgraph.ingest import grounding_table
from capgraph.motion import (
    MotionCandidate,
    MotionLabelConfig,
    NegativeAssignment,
    assign_negatives,
    build_candidates,
    collect_unaligned_runs,
    giou,
    selection_count,
)
from capgraph.parse import ground_triplets


def _box(x1, y1, x2, y2):
    return BoundingBox(float(x1), float(y1), float(x2), float(y2))


_BOXES = st.tuples(
    st.floats(0, 100, allow_nan=False),
    st.floats(0, 100, allow_nan=False),
    st.floats(0.1, 100, allow_nan=False),
    st.floats(0.1, 100, allow_nan=False),
).map(lambda t: _box(t[0], t[1], t[0] + t[2], t[1] + t[3]))


class TestGiou:
    def test_identity(self):
        assert giou(_box(0, 0, 2, 2), _box(0, 0, 2, 2)) == 1.0

    def test_touching_boxes(self):
        # IoU 0; hull area 2 equals union area 2, so no penalty.
        assert giou(_box(0, 0, 1, 1), _box(1, 0, 2, 1)) == pytest.approx(0.0, abs=1e-12)

    def test_separated_boxes(self):
        # IoU 0, union 2, hull 3: 0 - 1/3.
        assert giou(_box(0, 0, 1, 1), _box(2, 0, 3, 1)) == pytest.approx(-1 / 3, abs=1e-12)

    def test_zero_area_boxes(self):
        # Coinciding points: IoU term 1, empty hull adds no dead area.
        assert giou(_box(5, 5, 5, 5), _box(5, 5, 5, 5)) == 1.0
        # Distinct points: IoU term 0, the whole unit hull is dead area.
        assert giou(_box(0, 0, 0, 0), _box(1, 1, 1, 1)) == -1.0

    @given(_BOXES, _BOXES)
    @settings(max_examples=200, deadline=None)
    def test_range_and_symmetry(self, a, b):
        g = giou(a, b)
        assert -1.0 < g <= 1.0
        assert g == giou(b, a)

    @given(_BOXES, _BOXES, st.floats(0, 50, allow_nan=False), st.floats(0, 50, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_translation_invariance(self, a, b, dx, dy):
        shifted_a = _box(a.x1 + dx, a.y1 + dy, a.x2 + dx, a.y2 + dy)
        shifted_b = _box(b.x1 + dx, b.y1 + dy, b.x2 + dx, b.y2 + dy)
        assert giou(shifted_a, shifted_b) == pytest.approx(giou(a, b), abs=1e-9)

    @given(_BOXES, _BOXES)
    @settings(max_examples=200, deadline=None)
    def test_never_exceeds_iou(self, a, b):
        g, i = giou(a, b), box_iou(a, b)
        assert g <= i + 1e-12
        # Equality holds exactly when the hull adds no dead area.
        hull = (max(a.x2, b.x2) - min(a.x1, b.x1)) * (max(a.y2, b.y2) - min(a.y1, b.y1))
        inter_w = min(a.x2, b.x2) - max(a.x1, b.x1)
        inter_h = min(a.y2, b.y2) - max(a.y1, b.y1)
        inter = max(0.0, inter_w) * max(0.0, inter_h)
        union = a.area + b.area - inter
        if abs(hull - union) < 1e-12:
            assert g == pytest.approx(i, abs=1e-12)


def _manifest(video_id, t):
    return VideoManifest(video_id, tuple(f"f{i}" for i in range(1, t + 1)), 3.0, "caption x")


def _aligned(order, lo, hi):
    return SegmentedSentence(order, f"s{order}", (lo, hi))


class TestUnalignedRuns:
    def test_tail_run(self):
        runs = collect_unaligned_runs(_manifest("v", 8), [_aligned(1, 1, 2), _aligned(2, 3, 6)])
        assert runs == [(7, 8)]

    def test_all_aligned(self):
        runs = collect_unaligned_runs(_manifest("v", 4), [_aligned(1, 1, 4)])
        assert runs == []

    def test_middle_alignment_leaves_two_runs(self):
        runs = collect_unaligned_runs(_manifest("v", 6), [_aligned(1, 2, 3)])
        # Complement oracle: frames {1} and {4,5,6}.
        covered = {2, 3}
        expected_frames = [f for f in range(1, 7) if f not in covered]
        got_frames = [f for lo, hi in runs for f in range(lo, hi + 1)]
        assert got_frames == expected_frames
        assert runs == [(1, 1), (4, 6)]

    def test_unaligned_sentences_ignored(self):
        runs = collect_unaligned_runs(_manifest("v", 3), [SegmentedSentence(1, "s")])
        assert runs == [(1, 3)]


def _pair_dets(video_id, frames, person_x, object_box, object_class="sofa/couch"):
    dets = []
    for f, px in zip(frames, person_x):
        dets.append(Detection(f, "person", _box(px, 10, px + 40, 150), 0.9))
        dets.append(Detection(f, object_class, object_box, 0.8))
    return dets


def _graph_with_object(video_id, object_class):
    t = Triplet(
        "person", "sitting on", object_class, _box(0, 0, 10, 10), _box(5, 5, 15, 15),
        frame_index=1,
    )
    return SceneGraph.from_triplets(video_id, [t])


class TestBuildCandidates:
    def test_object_in_graph_produces_candidate(self):
        manifest = _manifest("v", 8)
        sofa = _box(100, 80, 160, 150)
        dets = _pair_dets("v", [5, 8], [10, 0], sofa)
        graphs = {"v": _graph_with_object("v", "sofa/couch")}
        out = build_candidates(
            [manifest], {"v": grounding_table(dets)}, graphs, {"v": [(5, 8)]},
            MotionLabelConfig(),
        )
        assert len(out) == 1
        candidate = out[0]
        assert candidate.run == (5, 8)
        assert candidate.g_start == giou(_box(10, 10, 50, 150), sofa)
        assert candidate.g_end == giou(_box(0, 10, 40, 150), sofa)
        assert candidate.motion_score == candidate.g_end - candidate.g_start

    def test_object_absent_from_graph_skipped(self):
        manifest = _manifest("v", 8)
        dets = _pair_dets("v", [5, 8], [10, 0], _box(100, 80, 160, 150), "cup/glass/bottle")
        graphs = {"v": _graph_with_object("v", "sofa/couch")}
        out = build_candidates(
            [manifest], {"v": grounding_table(dets)}, graphs, {"v": [(5, 8)]},
            MotionLabelConfig(),
        )
        assert out == []

    def test_single_frame_run_scores_zero(self):
        manifest = _manifest("v", 8)
        sofa = _box(100, 80, 160, 150)
        dets = _pair_dets("v", [4], [10], sofa)
        graphs = {"v": _graph_with_object("v", "sofa/couch")}
        out = build_candidates(
            [manifest], {"v": grounding_table(dets)}, graphs, {"v": [(4, 4)]},
            MotionLabelConfig(),
        )
        assert len(out) == 1
        assert out[0].motion_score == 0.0

    def test_missing_endpoint_grounding_skipped(self):
        manifest = _manifest("v", 8)
        sofa = _box(100, 80, 160, 150)
        dets = _pair_dets("v", [5], [10], sofa)  # nothing detected at frame 8
        graphs = {"v": _graph_with_object("v", "sofa/couch")}
        out = build_candidates(
            [manifest], {"v": grounding_table(dets)}, graphs, {"v": [(5, 8)]},
            MotionLabelConfig(),
        )
        assert out == []

    def test_grounds_like_ground_triplets(self):
        # Confidence ties among persons (area tie, then record order decides)
        # and among cups (larger area wins), plus a same-class person pair.
        dets = [
            Detection(1, "person", _box(0, 0, 10, 20), 0.9),
            Detection(1, "person", _box(50, 0, 60, 20), 0.9),
            Detection(1, "person", _box(100, 0, 105, 20), 0.9),
            Detection(1, "cup/glass/bottle", _box(12, 5, 16, 9), 0.5),
            Detection(1, "cup/glass/bottle", _box(20, 5, 28, 13), 0.5),
        ]
        triplets = [Triplet("person", "holding", "cup/glass/bottle"),
                    Triplet("person", "looking at", "person")]
        table = grounding_table(dets)
        grounded = ground_triplets(triplets, (1, 1), table)
        by_object = {t.object_class: (t.subject_box, t.object_box) for t in grounded}
        assert by_object == {
            "cup/glass/bottle": (_box(0, 0, 10, 20), _box(20, 5, 28, 13)),
            "person": (_box(0, 0, 10, 20), _box(50, 0, 60, 20)),
        }
        out = build_candidates(
            [_manifest("v", 2)], {"v": table}, {"v": SceneGraph.from_triplets("v", grounded)},
            {"v": [(1, 1)]}, MotionLabelConfig(),
        )
        assert {c.object_class: c.start_pair for c in out} == by_object


def _candidate(video_id, score, run=(5, 8), object_class="sofa/couch"):
    pair = (_box(0, 0, 10, 10), _box(20, 0, 30, 10))
    return MotionCandidate(
        video_id=video_id,
        object_class=object_class,
        run=run,
        g_start=0.0,
        g_end=score,
        start_pair=pair,
        end_pair=pair,
    )


class TestAssignNegatives:
    def test_twenty_pool_alpha_fifteen_selects_three(self):
        pool = [_candidate(f"v{i:02d}", (i - 10) / 10) for i in range(20)]
        out = assign_negatives(pool, MotionLabelConfig())
        assert len(out.selected) == 3
        scores = [c.motion_score for c in out.selected]
        assert scores == sorted(scores)
        assert scores == sorted(c.motion_score for c in pool)[:3]

    def test_default_strategies_place_frames(self):
        out = assign_negatives([_candidate("v", -0.5, run=(5, 8))], MotionLabelConfig())
        triplets = out.by_video["v"]
        by_class = {}
        for t in triplets:
            by_class.setdefault(t.predicate_class, []).append(t.frame_index)
        assert sorted(by_class["not looking at"]) == [5, 8]
        assert by_class["not contacting"] == [8]
        assert all(t.provenance == Provenance.NEGATIVE_PSEUDO for t in triplets)

    def test_approaching_candidate_not_selected(self):
        pool = [
            _candidate("v1", -0.9),
            _candidate("v2", -0.1),
            _candidate("v3", 1.2),
        ]
        out = assign_negatives(pool, MotionLabelConfig(alpha_percent=15.0))
        assert len(out.selected) == 1
        assert out.selected[0].motion_score == -0.9

    def test_single_frame_run_emits_each_class_once(self):
        out = assign_negatives([_candidate("v", -0.5, run=(4, 4))], MotionLabelConfig())
        triplets = out.by_video["v"]
        assert [t.frame_index for t in triplets] == [4, 4]
        assert {t.predicate_class for t in triplets} == {"not looking at", "not contacting"}

    def test_empty_pool_gives_empty_assignment(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = assign_negatives([], MotionLabelConfig())
        assert out == NegativeAssignment(selected=[], by_video={})

    def test_strategy_variants(self):
        config = MotionLabelConfig(
            strategy_not_looking="start", strategy_not_contacting="start_and_end"
        )
        out = assign_negatives([_candidate("v", -0.5, run=(2, 6))], config)
        by_class = {}
        for t in out.by_video["v"]:
            by_class.setdefault(t.predicate_class, []).append(t.frame_index)
        assert by_class["not looking at"] == [2]
        assert sorted(by_class["not contacting"]) == [2, 6]

    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=30), st.integers(-50, 50))
    @settings(max_examples=80, deadline=None)
    def test_selection_shift_invariance(self, raw_scores, shift):
        pool = [_candidate(f"v{i:03d}", s / 100) for i, s in enumerate(raw_scores)]
        shifted = [_candidate(f"v{i:03d}", (s + shift) / 100) for i, s in enumerate(raw_scores)]
        a = assign_negatives(pool, MotionLabelConfig())
        b = assign_negatives(shifted, MotionLabelConfig())
        assert [c.video_id for c in a.selected] == [c.video_id for c in b.selected]

    @given(st.integers(1, 200), st.integers(1, 100))
    @settings(max_examples=100, deadline=None)
    def test_selection_count_matches_exact_ceiling(self, pool_size, alpha):
        expected = math.ceil(Fraction(alpha) * pool_size / 100)
        assert selection_count(float(alpha), pool_size) == min(pool_size, expected)

    def test_negatives_sit_only_on_run_endpoints(self):
        out = assign_negatives([_candidate("v", -0.5, run=(3, 9))], MotionLabelConfig())
        for t in out.by_video["v"]:
            assert t.frame_index in (3, 9)


class TestConfigValidation:
    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            MotionLabelConfig(alpha_percent=0.0)
        with pytest.raises(ValueError):
            MotionLabelConfig(alpha_percent=101.0)

    def test_strategy_names(self):
        with pytest.raises(ValueError):
            MotionLabelConfig(strategy_not_looking="middle")
