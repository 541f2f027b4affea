import itertools
import math
import pickle
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
)
from capgraph.motion import NEGATIVE_CLASS_NAMES


def _manifest(t=8, video_id="v", caption="A person waves."):
    return VideoManifest(video_id, tuple(f"f{i}" for i in range(1, t + 1)), 3.0, caption)


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

    def test_is_valid_keeps_the_truth_table_of_the_four_part_check(self):
        def reference(box):
            coords = tuple(box)
            if not all(math.isfinite(c) for c in coords):
                return False
            return box.x1 < box.x2 and box.y1 < box.y2 and min(coords) >= 0

        values = (0.0, -0.0, 1.0, -1.0, 3.0, 5.0, 1e308, math.inf, -math.inf, math.nan)
        boxes = [BoundingBox(*c) for c in itertools.product(values, repeat=4)]
        assert len(boxes) == 10_000
        assert sum(b.is_valid() for b in boxes) > 0
        assert [b.is_valid() for b in boxes] == [reference(b) for b in boxes]

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

    def test_each_motion_label_is_in_the_partition_of_its_strategy(self):
        # assign_negatives unpacks the names in order: the first takes the
        # not-looking strategy (attention), the second the not-contacting one.
        partition = Vocabulary.action_genome().action_partition
        assert [partition[name] for name in NEGATIVE_CLASS_NAMES] == ["attention", "contacting"]

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
        with pytest.raises(ValueError, match="^localized triplets require frame_index$"):
            Triplet("person", "holding", "cup/glass/bottle", box, box)
        with pytest.raises(ValueError, match="^localized triplets require frame_index$"):
            Triplet.from_dict({"subject_class": "person", "predicate_class": "holding",
                               "object_class": "cup", "subject_box": [0, 0, 1, 1],
                               "object_box": [0, 0, 1, 1]})

    def test_unlocalized_ok(self):
        t = Triplet("person", "holding", "cup")
        assert not t.is_localized


class TestValueTypes:
    """Boxes and triplets are immutable values: equal fields, equal and
    hash-equal objects, and a pickle round trip keeps them."""

    @staticmethod
    def _values():
        box = BoundingBox(0.0, 1.5, 2.0, 3.0)
        triplet = Triplet("person", "holding", "cup", box, BoundingBox(-0.0, 0, 1, 1),
                          frame_index=4, score=0.25, provenance=Provenance.PREDICTION)
        return [box, triplet, Triplet("person", "holding", "cup")]

    @pytest.mark.parametrize("index", [0, 1, 2], ids=["box", "triplet", "bare-triplet"])
    def test_attributes_cannot_be_set(self, index):
        value = self._values()[index]
        with pytest.raises(AttributeError):
            setattr(value, type(value)._fields[0], 1.0)
        with pytest.raises(AttributeError):
            value.extra = 1

    @pytest.mark.parametrize("index", [0, 1, 2], ids=["box", "triplet", "bare-triplet"])
    def test_equal_values_are_equal_and_hash_equal(self, index):
        a, b = self._values()[index], self._values()[index]
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    @pytest.mark.parametrize("index", [0, 1, 2], ids=["box", "triplet", "bare-triplet"])
    def test_pickle_round_trip(self, index):
        value = self._values()[index]
        restored = pickle.loads(pickle.dumps(value))
        assert restored == value and type(restored) is type(value)

    def test_fields_differ_values_differ(self):
        box, triplet, _ = self._values()
        assert box != BoundingBox(0.0, 1.5, 2.0, 3.5)
        assert triplet != Triplet("person", "holding", "cup", box, triplet.object_box,
                                  frame_index=4, score=0.25,
                                  provenance=Provenance.GROUND_TRUTH)

    def test_box_equals_the_plain_tuple_of_its_coordinates(self):
        assert BoundingBox(0, 0, 1, 1) == (0, 0, 1, 1)
        assert hash(BoundingBox(0.0, 0.0, 1.0, 1.0)) == hash((0.0, 0.0, 1.0, 1.0))

    @pytest.mark.parametrize("bad, error, message", [
        ([[1], 2, 3, 4], ValueError, "box coordinate [1] is not a number"),
        (5, TypeError, "cannot unpack non-iterable int object"),
        ([1, 2, 3], ValueError, "not enough values to unpack (expected 4, got 3)"),
        ("abcd", ValueError, "box coordinate 'a' is not a number"),
    ], ids=["nested", "scalar", "short", "string"])
    def test_from_list_errors(self, bad, error, message):
        with pytest.raises(error) as raised:
            BoundingBox.from_list(bad)
        assert str(raised.value) == message

    @pytest.mark.parametrize("bad, message", [
        ("bogus", "'bogus' is not a valid Provenance"),
        ([1], "[1] is not a valid Provenance"),
        (None, "None is not a valid Provenance"),
    ], ids=["unknown", "unhashable", "null"])
    def test_unknown_provenance_error(self, bad, message):
        record = {"subject_class": "person", "predicate_class": "holding",
                  "object_class": "cup", "provenance": bad}
        with pytest.raises(ValueError) as raised:
            Triplet.from_dict(record)
        assert str(raised.value) == message

    def test_from_dict_maps_every_provenance_to_its_member(self):
        for member in Provenance:
            record = {"subject_class": "a", "predicate_class": "b", "object_class": "c",
                      "provenance": member.value}
            assert Triplet.from_dict(record).provenance is member


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
