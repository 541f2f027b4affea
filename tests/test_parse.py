import math
import warnings
from collections import Counter
from typing import List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capgraph.core import BoundingBox, Detection, SegmentedSentence, Triplet, Vocabulary
from capgraph.ingest import grounding_table
from capgraph.llm import ChatClient, write_cassette
from capgraph.parse import (
    DiscardCounters,
    ParseConfig,
    build_parse_prompt,
    ground_pair,
    ground_triplets,
    map_classes,
    parse_triplets,
    top_predicates,
)
from capgraph.segment import SegmentConfig, build_prompt, segment_caption

MODEL = "gpt-3.5-turbo"
VOCAB = Vocabulary.action_genome()
RULE = ParseConfig(parser="rule")
LEXICON = ParseConfig(parser="rule", mapping="lexicon")


def _sentence(text, order=1):
    return SegmentedSentence(order, text)


def _offline_client(cache_dir):
    return ChatClient(model_name=MODEL, cache_dir=cache_dir, offline=True)


class TestRuleParser:
    def test_take_cup(self):
        out = parse_triplets(_sentence("The person takes a cup of water to drink"), RULE)
        assert ("person", "taking", "cup") in [t.classes() for t in out]

    def test_sits_on_sofa(self):
        out = parse_triplets(_sentence("the person sits on the sofa"), RULE)
        assert [t.classes() for t in out] == [("person", "sitting on", "sofa")]

    def test_no_predicate(self):
        assert parse_triplets(_sentence("the red sofa"), RULE) == []

    def test_subject_inherited_across_and(self):
        out = parse_triplets(
            _sentence("the person sits on the sofa and watches television"), RULE
        )
        classes = [t.classes() for t in out]
        assert ("person", "sitting on", "sofa") in classes
        assert ("person", "watching", "television") in classes

    def test_auxiliary_skipped(self):
        out = parse_triplets(_sentence("A person is holding a book"), RULE)
        assert [t.classes() for t in out] == [("person", "holding", "book")]

    def test_empty_sentence_rejected(self):
        with pytest.raises(ValueError):
            parse_triplets(_sentence("  "), RULE)


class TestLlmParser:
    def test_cassette_parse(self, tmp_path):
        text = "The person takes a cup of water to drink."
        write_cassette(tmp_path, MODEL, build_parse_prompt(text), "<person, taking, cup>", 9, 3)
        out = parse_triplets(
            _sentence(text), ParseConfig(parser="llm"), client=_offline_client(tmp_path)
        )
        assert [t.classes() for t in out] == [("person", "taking", "cup")]

    def test_multiple_triplets(self, tmp_path):
        text = "The person sits on the sofa to watch television."
        write_cassette(
            tmp_path, MODEL, build_parse_prompt(text),
            "<person, sitting on, sofa>\n<person, watching, television>", 9, 6,
        )
        out = parse_triplets(
            _sentence(text), ParseConfig(parser="llm"), client=_offline_client(tmp_path)
        )
        assert len(out) == 2

    def test_none_reply_is_empty(self, tmp_path):
        text = "The red sofa."
        write_cassette(tmp_path, MODEL, build_parse_prompt(text), "none", 5, 1)
        out = parse_triplets(
            _sentence(text), ParseConfig(parser="llm"), client=_offline_client(tmp_path)
        )
        assert out == []

    def test_unparseable_reply_is_counted_and_empties(self, tmp_path):
        text = "A person does a thing."
        write_cassette(tmp_path, MODEL, build_parse_prompt(text), "no structure here", 5, 2)
        counters = DiscardCounters()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = parse_triplets(
                _sentence(text), ParseConfig(parser="llm"),
                client=_offline_client(tmp_path), counters=counters,
            )
        assert out == []
        assert counters.unparseable == 1


class TestMapClasses:
    def test_synonym_mapping(self):
        # "grab" maps to holding via the lexicon; "cup" normalizes to the
        # vocabulary's cup/glass/bottle entity.
        out = map_classes(Triplet("person", "grab", "cup"), VOCAB, LEXICON)
        assert out is not None
        assert out.classes() == ("person", "holding", "cup/glass/bottle")

    def test_identity_mapping(self):
        t = Triplet("person", "sitting on", "sofa/couch")
        out = map_classes(t, VOCAB, LEXICON)
        assert out is not None
        assert out.classes() == t.classes()

    def test_unmapped_discard(self):
        counters = DiscardCounters()
        out = map_classes(
            Triplet("person", "defenestrates", "cat"), VOCAB, LEXICON, counters=counters
        )
        assert out is None
        assert counters.unmapped_predicate == 1
        assert counters.unmapped_object == 1

    def test_open_vocabulary_unchanged(self):
        config = ParseConfig(parser="rule", mapping="none")
        t = Triplet("person", "defenestrates", "cat")
        assert map_classes(t, VOCAB, config) == t

    def test_llm_mapping_via_cassette(self, tmp_path):
        from capgraph.parse import MAPPING_PROMPT_TEMPLATE

        prompt = MAPPING_PROMPT_TEMPLATE.format(
            name="couch", classes=", ".join(sorted(VOCAB.entity_classes))
        )
        write_cassette(tmp_path, MODEL, prompt, "sofa/couch", 20, 4)
        config = ParseConfig(parser="rule", mapping="llm")
        out = map_classes(
            Triplet("person", "sitting on", "couch"), VOCAB, config,
            client=_offline_client(tmp_path),
        )
        assert out is not None and out.object_class == "sofa/couch"

    def test_llm_mapping_asks_subject_predicate_object_in_order(self):
        from capgraph.parse import MAPPING_PROMPT_TEMPLATE

        class Recorder:
            def __init__(self):
                self.prompts = []

            def complete(self, prompt):
                self.prompts.append(prompt)
                return "none"

        client, counters = Recorder(), DiscardCounters()
        out = map_classes(
            Triplet("Man", "grabs  at", "person"), VOCAB,
            ParseConfig(parser="rule", mapping="llm"), client=client, counters=counters,
        )
        assert out is None
        entities = ", ".join(sorted(VOCAB.entity_classes))
        actions = ", ".join(sorted(VOCAB.action_classes))
        assert client.prompts == [
            MAPPING_PROMPT_TEMPLATE.format(name="man", classes=entities),
            MAPPING_PROMPT_TEMPLATE.format(name="grabs at", classes=actions),
        ]
        assert (counters.unmapped_subject, counters.unmapped_predicate,
                counters.unmapped_object) == (1, 1, 0)

    def test_closed_vocabulary_invariant(self):
        candidates = [
            Triplet("man", "grab", "mug"),
            Triplet("person", "watching", "tv"),
            Triplet("woman", "walks to", "window"),
            Triplet("person", "eating", "sandwich"),
        ]
        for t in candidates:
            out = map_classes(t, VOCAB, LEXICON)
            if out is None:
                continue
            assert out.subject_class in VOCAB.entity_classes
            assert out.predicate_class in VOCAB.action_classes
            assert out.object_class in VOCAB.entity_classes


class TestOpenVocabularyRestriction:
    def test_top_n_distinct_predicates(self):
        triplets = []
        for i, predicate in enumerate(["opening", "closing", "lifting", "spinning"]):
            triplets.extend([Triplet("person", predicate, "box")] * (4 - i))
        distinct = top_predicates(Counter(t.predicate_class for t in triplets), 2)
        assert distinct == {"opening", "closing"}
        assert len(distinct) <= 2

    @pytest.mark.parametrize("top_n", [0, None, 1, 500])
    def test_zero_null_and_positive_are_accepted(self, top_n):
        assert ParseConfig(top_n_open_classes=top_n).top_n_open_classes == top_n

    def test_negative_top_n_is_rejected(self):
        # A negative slice bound would keep all but the least frequent predicates.
        with pytest.raises(ValueError, match="top_n_open_classes must be >= 0"):
            ParseConfig(top_n_open_classes=-1)


def _det(frame, cls, box, conf):
    return Detection(frame, cls, BoundingBox(*box), conf)


class TestGrounding:
    def test_two_frames_grounded(self):
        dets = [
            _det(3, "person", (0, 0, 10, 20), 0.9),
            _det(3, "cup/glass/bottle", (12, 5, 16, 9), 0.8),
            _det(4, "person", (1, 0, 11, 20), 0.9),
            _det(4, "cup/glass/bottle", (12, 5, 16, 9), 0.7),
        ]
        t = Triplet("person", "carrying", "cup/glass/bottle")
        out = ground_triplets([t], (3, 4), grounding_table(dets))
        # Oracle: scan each frame by hand; both frames have both classes.
        assert [g.frame_index for g in out] == [3, 4]
        assert all(g.is_localized for g in out)
        assert out[0].subject_box == BoundingBox(0, 0, 10, 20)

    def test_missing_object_no_triplet(self):
        dets = [_det(1, "person", (0, 0, 10, 20), 0.9)]
        t = Triplet("person", "carrying", "cup/glass/bottle")
        assert ground_triplets([t], (1, 1), grounding_table(dets)) == []

    def test_argmax_confidence(self):
        dets = [
            _det(1, "person", (0, 0, 10, 20), 0.9),
            _det(1, "cup/glass/bottle", (12, 5, 16, 9), 0.4),
            _det(1, "cup/glass/bottle", (30, 5, 34, 9), 0.9),
        ]
        t = Triplet("person", "carrying", "cup/glass/bottle")
        out = ground_triplets([t], (1, 1), grounding_table(dets))
        assert out[0].object_box == BoundingBox(30, 5, 34, 9)

    def test_confidence_tie_larger_area_wins(self):
        dets = [
            _det(1, "person", (0, 0, 10, 20), 0.9),
            _det(1, "dish", (12, 5, 14, 7), 0.5),
            _det(1, "dish", (20, 5, 30, 15), 0.5),
        ]
        t = Triplet("person", "holding", "dish")
        out = ground_triplets([t], (1, 1), grounding_table(dets))
        assert out[0].object_box == BoundingBox(20, 5, 30, 15)

    def test_same_class_needs_distinct_detections(self):
        only_one = [_det(1, "person", (0, 0, 10, 20), 0.9)]
        t = Triplet("person", "looking at", "person")
        assert ground_triplets([t], (1, 1), grounding_table(only_one)) == []
        two = only_one + [_det(1, "person", (30, 0, 40, 20), 0.8)]
        out = ground_triplets([t], (1, 1), grounding_table(two))
        assert len(out) == 1
        assert out[0].subject_box != out[0].object_box

    def test_empty_interval(self):
        t = Triplet("person", "carrying", "cup/glass/bottle")
        assert ground_triplets([t], None, {}) == []

    def test_boxes_verbatim_from_detections(self):
        dets = [
            _det(2, "person", (0, 0, 10, 20), 0.9),
            _det(2, "table", (5, 5, 25, 25), 0.8),
        ]
        det_boxes = {tuple(d.box) for d in dets}
        out = ground_triplets(
            [Triplet("person", "in front of", "table")], (2, 2), grounding_table(dets)
        )
        for g in out:
            assert tuple(g.subject_box) in det_boxes
            assert tuple(g.object_box) in det_boxes


# The list scan grounding ran before the grounding table, kept as the oracle
# (``ground_pair`` renamed ``_scan_ground_pair``), with the tie key the table
# ranks by: the lower box, then the signs of its corners (-0.0 first), come
# before the record order.
def _best_detection(
    frame_detections: Sequence[Detection],
    entity_class: str,
    exclude: Optional[Detection] = None,
) -> Optional[Detection]:
    best = None
    best_key = None
    for order, det in enumerate(frame_detections):
        if det.entity_class != entity_class or det is exclude:
            continue
        signs = tuple(math.copysign(1.0, c) for c in det.box)
        key = (-det.confidence, -det.box.area, det.box, signs, order)
        if best_key is None or key < best_key:
            best, best_key = det, key
    return best


def _scan_ground_pair(
    frame_detections: Sequence[Detection], subject_class: str, object_class: str
) -> Optional[Tuple[Detection, Detection]]:
    """The subject and object detections of one frame, or None if either is missing.

    Each role takes the highest-confidence detection of its class (ties:
    larger box, then the lower box, -0.0 below 0.0, then earlier record); when the classes
    coincide the object must be a second, distinct detection.
    """
    subject = _best_detection(frame_detections, subject_class)
    if subject is None:
        return None
    exclude = subject if object_class == subject_class else None
    obj = _best_detection(frame_detections, object_class, exclude=exclude)
    if obj is None:
        return None
    return subject, obj


_CLASSES = ("person", "cup", "dish")
# Few values, so that equal confidences, equal areas and duplicate boxes are
# common; both signs of zero, which compare equal but are written apart.
_corner = st.sampled_from([0.0, -0.0, 1.0])
_extent = st.sampled_from([1.0, 4.0])
_kept_detection = st.builds(
    lambda frame, cls, x1, y1, w, h, conf: Detection(
        frame, cls, BoundingBox(x1, y1, x1 + w, y1 + h), conf
    ),
    st.integers(1, 3), st.sampled_from(_CLASSES), _corner, _corner, _extent, _extent,
    st.sampled_from([0.5, 0.9]),
)


def _with_sign_twin(det: Detection, where: int) -> List[Detection]:
    """``det`` alone (``where`` 0), or with a twin whose zero corners have
    the other sign, after it (1) or before it (2): the one tie that only the
    signs of zeros break."""
    twin = Detection(det.frame_index, det.entity_class,
                     BoundingBox(*(-c if c == 0 else c for c in det.box)), det.confidence)
    return [[det], [det, twin], [twin, det]][where]


# Lists in which most detections meet a tie of every term of the rank key.
_tied_detections = st.lists(st.tuples(_kept_detection, st.integers(0, 2)), max_size=8).map(
    lambda drawn: [d for det, where in drawn for d in _with_sign_twin(det, where)]
)


class TestGroundingTableMatchesTheListScan:
    @settings(max_examples=100, deadline=None)
    @given(_tied_detections)
    def test_every_role_takes_the_box_the_scan_picked(self, dets):
        table = grounding_table(dets)
        for frame in (1, 2, 3):
            frame_dets = [d for d in dets if d.frame_index == frame]
            for subject_class in _CLASSES + ("sofa",):
                for object_class in _CLASSES + ("sofa",):
                    want = _scan_ground_pair(frame_dets, subject_class, object_class)
                    got = ground_pair(table.get(frame, {}), subject_class, object_class)
                    if want is None:
                        assert got is None
                    else:
                        # The very box objects, so -0.0 never stands in for 0.0.
                        assert got[0] is want[0].box and got[1] is want[1].box

    def test_a_class_with_one_detection_grounds_no_same_class_pair(self):
        det = _det(1, "person", (0, 0, 10, 20), 0.9)
        table = grounding_table([det])
        assert table == {1: {"person": (det.box,)}}
        assert ground_pair(table[1], "person", "person") is None
        assert _scan_ground_pair([det], "person", "person") is None


# One object per box's bits, -0.0 corners included: boxes that compare equal
# but differ in the sign of a zero are distinct objects, and the table must
# pick the same one from any input order.
_POOL_BOXES = tuple(
    BoundingBox(x1, y1, x1 + w, y1 + h)
    for x1 in (0.0, -0.0, 1.0) for y1 in (0.0, -0.0, 1.0) for w in (1.0, 2.0) for h in (1.0, 2.0)
)
_pooled_detection = st.builds(
    Detection, st.integers(1, 3), st.sampled_from(_CLASSES), st.sampled_from(_POOL_BOXES),
    st.sampled_from([0.2, 0.5, 0.9, 1.0]),
)


class TestGroundingTableIgnoresInputOrder:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_pooled_detection, max_size=16), st.data())
    def test_any_permutation_gives_the_same_table_and_box_objects(self, dets, data):
        table = grounding_table(dets)
        shuffled = grounding_table(data.draw(st.permutations(dets)))
        assert shuffled == table
        for frame, by_class in table.items():
            for entity_class, boxes in by_class.items():
                assert all(a is b for a, b in zip(shuffled[frame][entity_class], boxes))

    def test_equal_confidence_and_area_rank_the_lower_box_first(self):
        a = _det(1, "cup", (0, 0, 2, 1), 0.5)
        b = _det(1, "cup", (0, 0, 1, 2), 0.5)
        assert grounding_table([a, b]) == grounding_table([b, a]) == {1: {"cup": (b.box, a.box)}}

    def test_boxes_equal_but_for_the_sign_of_a_zero_rank_minus_zero_first(self):
        a = _det(1, "cup", (0.0, 0, 1, 1), 0.5)
        b = _det(1, "cup", (-0.0, 0, 1, 1), 0.5)
        for dets in ([a, b], [b, a]):
            first, second = grounding_table(dets)[1]["cup"]
            assert first is b.box and second is a.box


class TestCoreferenceCountDirection:
    def test_resolving_pronouns_never_lowers_triplet_count(self, tmp_path):
        # Replayed fixture: with the pronoun clause the reply names the
        # person, without it the pronoun survives and its triplet cannot be
        # grounded in the closed vocabulary.
        caption = "A person opens the door. Then he leaves through the doorway."
        with_coref = build_prompt(caption, include_coreference=True)
        without_coref = build_prompt(caption, include_coreference=False)
        write_cassette(
            tmp_path, MODEL, with_coref,
            "1. A person opens the door.\n2. The person leaves through the doorway.",
            30, 12,
        )
        write_cassette(
            tmp_path, MODEL, without_coref,
            "1. A person opens the door.\n2. It leaves through it.",
            30, 12,
        )
        for text, reply in (
            ("A person opens the door.", "<person, opening, door>"),
            ("The person leaves through the doorway.", "<person, walking through, doorway>"),
            ("It leaves through it.", "<it, walking through, it>"),
        ):
            write_cassette(tmp_path, MODEL, build_parse_prompt(text), reply, 9, 3)

        def count(include_coreference: bool) -> int:
            client = _offline_client(tmp_path)
            config = SegmentConfig(include_coreference=include_coreference)
            sentences = segment_caption(caption, config, client=client)
            total = 0
            for s in sentences:
                for t in parse_triplets(s, ParseConfig(parser="llm"), client=client):
                    # Entity mapping alone decides survival here; "it" is not
                    # a vocabulary entity or synonym.
                    mapped = map_classes(
                        t, VOCAB, ParseConfig(parser="llm", mapping="lexicon")
                    )
                    total += mapped is not None
            return total

        assert count(True) >= count(False)
