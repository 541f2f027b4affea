from collections import Counter

import numpy as np
import pytest

from capgraph.core import (
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
    validate_manifest,
)
from capgraph.motion import NEGATIVE_CLASS_NAMES


def _manifest(t=8, video_id="v", caption="A person waves."):
    return VideoManifest(video_id, tuple(f"f{i}" for i in range(1, t + 1)), 3.0, caption)


def _embeds(manifest, n=None):
    n = manifest.num_frames if n is None else n
    rows = np.zeros((n, 4), dtype=np.float32)
    rows[:, 0] = 1.0
    return EmbeddingMatrix(manifest.frame_ids[:n], rows)


class TestBoundingBox:
    def test_valid(self):
        assert BoundingBox(0, 0, 2, 2).is_valid()

    def test_degenerate_is_representable_but_invalid(self):
        box = BoundingBox(2, 0, 2, 2)
        assert not box.is_valid()

    def test_negative_coordinates_invalid(self):
        assert not BoundingBox(-1, 0, 2, 2).is_valid()

    def test_area(self):
        assert BoundingBox(0, 0, 2, 3).area == 6

    def test_iou_hand_value(self):
        # (0,0,2,2) vs (1,0,3,2): intersection 2, union 8-2=6.
        assert box_iou(BoundingBox(0, 0, 2, 2), BoundingBox(1, 0, 3, 2)) == pytest.approx(2 / 6)


class TestVocabulary:
    def test_action_genome_counts(self):
        vocab = Vocabulary.action_genome()
        assert len(vocab.entity_classes) == 36
        assert len(vocab.action_classes) == 25
        assert Counter(vocab.action_partition.values()) == {
            "attention": 3, "spatial": 6, "contacting": 16
        }
        assert vocab.negative_classes == {"not looking at", "not contacting"}

    def test_negative_classes_are_the_motion_labels(self):
        assert Vocabulary.action_genome().negative_classes == set(NEGATIVE_CLASS_NAMES)

    def test_partition_must_cover_actions(self):
        with pytest.raises(ValueError):
            Vocabulary(
                entity_classes=frozenset({"person"}),
                action_classes=frozenset({"holding", "eating"}),
                action_partition={"holding": "contacting"},
            )

    def test_negatives_must_be_actions(self):
        with pytest.raises(ValueError):
            Vocabulary(
                entity_classes=frozenset({"person"}),
                action_classes=frozenset({"holding"}),
                action_partition={"holding": "contacting"},
                negative_classes=frozenset({"not contacting"}),
            )


class TestTriplet:
    def test_localized_requires_frame(self):
        box = BoundingBox(0, 0, 1, 1)
        with pytest.raises(ValueError):
            Triplet("person", "holding", "cup/glass/bottle", box, box)

    def test_unlocalized_ok(self):
        t = Triplet("person", "holding", "cup")
        assert not t.is_localized


class TestSceneGraph:
    def test_frame_key_must_match(self):
        box = BoundingBox(0, 0, 1, 1)
        t = Triplet("person", "holding", "cup", box, box, frame_index=2)
        with pytest.raises(ValueError):
            SceneGraph("v", {1: (t,)})

    def test_from_triplets_groups_by_frame(self):
        box = BoundingBox(0, 0, 1, 1)
        ts = [
            Triplet("person", "holding", "cup", box, box, frame_index=2),
            Triplet("person", "eating", "food", box, box, frame_index=1),
        ]
        graph = SceneGraph.from_triplets("v", ts)
        assert sorted(graph.per_frame) == [1, 2]
        assert graph.object_classes() == {"cup", "food"}


class TestSerializationRoundTrip:
    def test_bounding_box(self):
        box = BoundingBox(0.5, 1.5, 2.25, 3.75)
        assert BoundingBox.from_list(box.to_list()) == box

    def test_detection(self):
        det = Detection(3, "person", BoundingBox(0, 0, 5, 5), 0.75)
        assert Detection.from_dict(det.to_dict()) == det

    def test_manifest(self):
        m = _manifest()
        assert VideoManifest.from_dict(m.to_dict()) == m

    def test_sentence(self):
        s = SegmentedSentence(2, "A person sits.", (3, 6))
        assert SegmentedSentence.from_dict(s.to_dict()) == s
        bare = SegmentedSentence(1, "A person waves.")
        assert SegmentedSentence.from_dict(bare.to_dict()) == bare

    def test_triplet(self):
        box = BoundingBox(0, 0, 1, 1)
        t = Triplet(
            "person", "holding", "cup", box, box, frame_index=4, score=0.5,
            provenance=Provenance.PREDICTION,
        )
        assert Triplet.from_dict(t.to_dict()) == t


class TestEmbeddingMatrix:
    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingMatrix(["a"], np.zeros((2, 3), dtype=np.float32))

    def test_normalized(self):
        m = EmbeddingMatrix(["a", "b"], np.array([[3, 4], [0, 2]], dtype=np.float32))
        assert not m.is_normalized()
        n = m.normalized()
        assert n.is_normalized()
        assert n.rows[0, 0] == pytest.approx(0.6)


class TestValidateManifest:
    def test_consistent_bundle_empty_report(self):
        m = _manifest(t=8)
        dets = [Detection(1, "person", BoundingBox(0, 0, 5, 5), 0.9)]
        report = validate_manifest(m, _embeds(m), dets)
        assert report.ok
        assert report.problems == ()

    def test_missing_embedding_row(self):
        m = _manifest(t=8)
        report = validate_manifest(m, _embeds(m, n=7), [])
        assert any("missing embedding for frame 8" in p for p in report.problems)

    def test_degenerate_box_reported(self):
        m = _manifest(t=8)
        dets = [Detection(1, "person", BoundingBox(5, 0, 5, 5), 0.9)]
        report = validate_manifest(m, _embeds(m), dets)
        assert any("degenerate box" in p for p in report.problems)

    def test_out_of_range_frame(self):
        m = _manifest(t=4)
        dets = [Detection(9, "person", BoundingBox(0, 0, 5, 5), 0.9)]
        report = validate_manifest(m, _embeds(m), dets)
        assert any("out of range" in p for p in report.problems)

    def test_blank_caption(self):
        m = _manifest(caption="  ")
        report = validate_manifest(m, _embeds(m), [])
        assert any("caption is empty" in p for p in report.problems)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rows_are_not_normalized(self, value):
        # The loader rejects non-finite values; a matrix built by hand
        # still fails the normalization check.
        m = _manifest(t=8)
        embeds = _embeds(m)
        embeds.rows[3, 0] = value
        report = validate_manifest(m, embeds, [])
        assert report.problems == (f"video {m.video_id}: embedding rows not L2-normalized",)

    def test_never_raises_on_garbage(self):
        m = VideoManifest("v", (), float("nan"), "")
        report = validate_manifest(m, None, [])
        assert not report.ok
