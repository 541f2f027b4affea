import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capgraph.core import BoundingBox, Provenance, Triplet
from capgraph.errors import NoGtFrames
from capgraph.evaluate import (
    REGIMES,
    EvalConfig,
    EvalInstance,
    apply_constraint,
    match_triplet,
    recall_at_k,
)


def _box(x1, y1, x2, y2):
    return BoundingBox(float(x1), float(y1), float(x2), float(y2))


def _gt(s, p, o, sbox, obox, frame=1):
    return Triplet(s, p, o, sbox, obox, frame_index=frame, provenance=Provenance.GROUND_TRUTH)


def _pred(s, p, o, sbox, obox, score, frame=1):
    return Triplet(
        s, p, o, sbox, obox, frame_index=frame, score=score, provenance=Provenance.PREDICTION
    )


BOX_A = _box(0, 0, 10, 10)
BOX_B = _box(20, 0, 30, 10)
BOX_A_NEAR = _box(0, 0, 10, 9)  # IoU 0.9 with BOX_A
BOX_A_FAR = _box(5, 0, 15, 10)  # IoU 1/3 with BOX_A


# ---------------------------------------------------------------------------
# Independent oracle: fresh arithmetic, no shared helpers with the package.


def oracle_iou(a, b):
    ix = max(0.0, min(a.x2, b.x2) - max(a.x1, b.x1))
    iy = max(0.0, min(a.y2, b.y2) - max(a.y1, b.y1))
    inter = ix * iy
    union = (a.x2 - a.x1) * (a.y2 - a.y1) + (b.x2 - b.x1) * (b.y2 - b.y1) - inter
    return inter / union if union > 0 else 0.0


def oracle_match(p, g, thr):
    return (
        p.subject_class == g.subject_class
        and p.predicate_class == g.predicate_class
        and p.object_class == g.object_class
        and oracle_iou(p.subject_box, g.subject_box) > thr
        and oracle_iou(p.object_box, g.object_box) > thr
    )


def oracle_constraint(preds, regime):
    if regime == "no_constraint":
        return list(preds)
    survivors = []
    for i, p in enumerate(preds):
        key = (tuple(p.subject_box), p.subject_class, tuple(p.object_box), p.object_class)
        beaten = False
        for j, q in enumerate(preds):
            qkey = (
                tuple(q.subject_box), q.subject_class,
                tuple(q.object_box), q.object_class,
            )
            if qkey != key or j == i:
                continue
            if q.score > p.score or (q.score == p.score and j < i):
                beaten = True
        if not beaten:
            survivors.append(p)
    return survivors


def oracle_frame_recall(gt, preds, regime, k, thr):
    kept = oracle_constraint(preds, regime)
    ranked = sorted(range(len(kept)), key=lambda i: (-kept[i].score, i))
    top = [kept[i] for i in ranked[:k]]
    used = [False] * len(gt)
    for p in top:
        for gi, g in enumerate(gt):
            if not used[gi] and oracle_match(p, g, thr):
                used[gi] = True
                break
    return sum(used) / len(gt)


def oracle_recall(instances, regime, k, thr):
    frames = [inst for inst in instances if inst.gt]
    return sum(oracle_frame_recall(f.gt, f.predictions, regime, k, thr) for f in frames) / len(
        frames
    )


# ---------------------------------------------------------------------------


class TestMatchTriplet:
    def test_identical(self):
        g = _gt("person", "holding", "cup/glass/bottle", BOX_A, BOX_B)
        p = _pred("person", "holding", "cup/glass/bottle", BOX_A, BOX_B, 0.9)
        assert match_triplet(p, g, 0.5)

    def test_subject_iou_just_below_threshold(self):
        # Subject IoU 0.49 fails the strict > 0.5 rule.
        g = _gt("person", "holding", "cup/glass/bottle", BOX_A, BOX_B)
        p = _pred(
            "person", "holding", "cup/glass/bottle", _box(0, 0, 10, 4.9), BOX_B, 0.9
        )
        # IoU of (0,0,10,10) vs (0,0,10,4.9) = 49/100 / 1 = 0.49.
        assert oracle_iou(BOX_A, p.subject_box) == pytest.approx(0.49)
        assert not match_triplet(p, g, 0.5)

    def test_iou_one_third_fails(self):
        # (0,0,2,2) vs (1,0,3,2): IoU = 2/6.
        g = _gt("person", "holding", "cup/glass/bottle", _box(0, 0, 2, 2), BOX_B)
        p = _pred("person", "holding", "cup/glass/bottle", _box(1, 0, 3, 2), BOX_B, 0.9)
        assert oracle_iou(_box(0, 0, 2, 2), _box(1, 0, 3, 2)) == pytest.approx(1 / 3)
        assert not match_triplet(p, g, 0.5)

    def test_class_mismatch(self):
        g = _gt("person", "holding", "cup/glass/bottle", BOX_A, BOX_B)
        p = _pred("person", "carrying", "cup/glass/bottle", BOX_A, BOX_B, 0.9)
        assert not match_triplet(p, g, 0.5)


class TestApplyConstraint:
    def test_argmax_per_pair(self):
        preds = [
            _pred("person", "looking at", "television", BOX_A, BOX_B, 0.9),
            _pred("person", "holding", "television", BOX_A, BOX_B, 0.4),
        ]
        out = apply_constraint(preds, "with_constraint")
        assert [p.predicate_class for p in out] == ["looking at"]

    def test_no_constraint_keeps_all(self):
        preds = [
            _pred("person", "looking at", "television", BOX_A, BOX_B, 0.9),
            _pred("person", "holding", "television", BOX_A, BOX_B, 0.4),
        ]
        assert apply_constraint(preds, "no_constraint") == preds

    def test_empty(self):
        assert apply_constraint([], "with_constraint") == []

    def test_distinct_pairs_untouched(self):
        preds = [
            _pred("person", "looking at", "television", BOX_A, BOX_B, 0.9),
            _pred("person", "looking at", "television", BOX_A_NEAR, BOX_B, 0.8),
        ]
        assert len(apply_constraint(preds, "with_constraint")) == 2

    def test_candidate_superset_before_topk(self):
        rng = np.random.default_rng(0)
        boxes = [BOX_A, BOX_B, BOX_A_NEAR, BOX_A_FAR]
        for _ in range(50):
            preds = [
                _pred(
                    "person",
                    str(rng.choice(["holding", "looking at"])),
                    "cup/glass/bottle",
                    boxes[rng.integers(0, 4)],
                    boxes[rng.integers(0, 4)],
                    float(rng.integers(1, 5)) / 4,
                )
                for _ in range(rng.integers(0, 6))
            ]
            with_c = apply_constraint(preds, "with_constraint")
            no_c = apply_constraint(preds, "no_constraint")
            assert {id(p) for p in with_c} <= {id(p) for p in no_c}


class TestRecall:
    def test_both_matched(self):
        gt = [
            _gt("person", "sitting on", "sofa/couch", BOX_A, BOX_B),
            _gt("person", "looking at", "television", BOX_A, BOX_B),
        ]
        preds = [
            _pred("person", "sitting on", "sofa/couch", BOX_A, BOX_B, 0.9),
            _pred("person", "looking at", "television", BOX_A, BOX_B, 0.8),
        ]
        inst = EvalInstance(1, gt, preds)
        out = recall_at_k([inst], EvalConfig())
        assert out[("with_constraint", 20)] == 1.0
        assert out[("no_constraint", 20)] == 1.0

    def test_half_matched(self):
        gt = [
            _gt("person", "sitting on", "sofa/couch", BOX_A, BOX_B),
            _gt("person", "looking at", "television", BOX_A, BOX_B),
        ]
        preds = [_pred("person", "sitting on", "sofa/couch", BOX_A, BOX_B, 0.9)]
        out = recall_at_k([EvalInstance(1, gt, preds)], EvalConfig())
        assert out[("with_constraint", 20)] == 0.5

    def test_three_frame_fixture_matches_oracle(self):
        rng = np.random.default_rng(7)
        instances = _random_instances(rng, frames=3)
        config = EvalConfig(k_values=(1, 2, 20, 50))
        results = recall_at_k(instances, config)
        for (regime, k), value in results.items():
            assert value == pytest.approx(oracle_recall(instances, regime, k, 0.5), abs=1e-12)

    def test_ground_truth_tried_in_order_within_a_class(self):
        # The first prediction hits both ground truths and takes the first;
        # the second hits only that one. Trying the bucket in reverse would
        # score 2 of 2.
        shift = [_box(d, 0, d + 10, 10) for d in (0, 3, 6)]
        gt = [_gt("person", "holding", "cup/glass/bottle", shift[0], BOX_B),
              _gt("person", "holding", "cup/glass/bottle", shift[2], BOX_B)]
        preds = [_pred("person", "holding", "cup/glass/bottle", shift[1], BOX_B, 0.9),
                 _pred("person", "holding", "cup/glass/bottle", shift[0], BOX_B, 0.5)]
        out = recall_at_k([EvalInstance(1, gt, preds)], EvalConfig(k_values=(1, 2)))
        assert out[("no_constraint", 1)] == out[("no_constraint", 2)] == 0.5
        assert oracle_recall([EvalInstance(1, gt, preds)], "no_constraint", 2, 0.5) == 0.5

    def test_no_gt_raises(self):
        with pytest.raises(NoGtFrames):
            recall_at_k([EvalInstance(1, [], [])], EvalConfig())

    def test_gtless_frames_excluded_from_mean(self):
        gt = [_gt("person", "sitting on", "sofa/couch", BOX_A, BOX_B)]
        preds = [_pred("person", "sitting on", "sofa/couch", BOX_A, BOX_B, 0.9)]
        instances = [EvalInstance(1, gt, preds), EvalInstance(2, [], preds)]
        out = recall_at_k(instances, EvalConfig())
        assert out[("with_constraint", 20)] == 1.0

    def test_score_scaling_invariance(self):
        rng = np.random.default_rng(21)
        instances = _random_instances(rng, frames=8)
        config = EvalConfig(k_values=(1, 2, 20, 50))
        base = recall_at_k(instances, config)
        scaled_instances = [
            EvalInstance(
                inst.frame_index,
                inst.gt,
                [
                    Triplet(
                        p.subject_class, p.predicate_class, p.object_class,
                        p.subject_box, p.object_box, p.frame_index,
                        score=p.score * 4.0, provenance=p.provenance,
                    )
                    for p in inst.predictions
                ],
            )
            for inst in instances
        ]
        assert recall_at_k(scaled_instances, config) == base

    def test_monotone_in_k(self):
        rng = np.random.default_rng(5)
        instances = _random_instances(rng, frames=30)
        config = EvalConfig(k_values=(1, 2, 3, 20, 50))
        for inst in instances:
            if not inst.gt:
                continue
            for regime in ("with_constraint", "no_constraint"):
                values = [_frame_recall(inst, regime, k) for k in config.k_values]
                assert values == sorted(values)


def _frame_recall(instance, regime, k):
    """One frame's recall at one K, through ``recall_at_k``."""
    return recall_at_k([instance], EvalConfig(k_values=(k,), regime=regime))[(regime, k)]


def _random_instances(rng, frames, max_preds=4, max_gt=3):
    boxes = [BOX_A, BOX_B, BOX_A_NEAR, BOX_A_FAR, _box(0, 20, 10, 30)]
    predicates = ["holding", "looking at", "sitting on"]
    objects = ["cup/glass/bottle", "sofa/couch"]
    instances = []
    for f in range(1, frames + 1):
        gt = [
            _gt(
                "person",
                predicates[rng.integers(0, len(predicates))],
                objects[rng.integers(0, len(objects))],
                boxes[rng.integers(0, len(boxes))],
                boxes[rng.integers(0, len(boxes))],
                frame=f,
            )
            for _ in range(rng.integers(1, max_gt + 1))
        ]
        preds = [
            _pred(
                "person",
                predicates[rng.integers(0, len(predicates))],
                objects[rng.integers(0, len(objects))],
                boxes[rng.integers(0, len(boxes))],
                boxes[rng.integers(0, len(boxes))],
                score=float(rng.integers(1, 5)) / 4,
                frame=f,
            )
            for _ in range(rng.integers(0, max_preds + 1))
        ]
        instances.append(EvalInstance(f, gt, preds))
    return instances


class TestExhaustiveSmallInstances:
    def test_oracle_equivalence_enumerated(self):
        # Every frame shape with up to 4 predictions drawn from three
        # prototypes and up to 3 ground-truth triplets from two prototypes.
        pred_protos = [
            _pred("person", "holding", "cup/glass/bottle", BOX_A, BOX_B, 0.75),
            _pred("person", "holding", "cup/glass/bottle", BOX_A_NEAR, BOX_B, 0.75),
            _pred("person", "looking at", "cup/glass/bottle", BOX_A, BOX_B, 0.25),
        ]
        gt_protos = [
            _gt("person", "holding", "cup/glass/bottle", BOX_A, BOX_B),
            _gt("person", "looking at", "cup/glass/bottle", BOX_A, BOX_B),
        ]
        checked = 0
        for n_gt in range(1, 4):
            for gt in itertools.product(gt_protos, repeat=n_gt):
                for n_pred in range(0, 5):
                    for preds in itertools.product(pred_protos, repeat=n_pred):
                        inst = EvalInstance(1, list(gt), list(preds))
                        for regime in ("with_constraint", "no_constraint"):
                            for k in (1, 2, 4):
                                got = _frame_recall(inst, regime, k)
                                want = oracle_frame_recall(list(gt), list(preds), regime, k, 0.5)
                                assert got == pytest.approx(want, abs=1e-12)
                        checked += 1
        assert checked == (2 + 4 + 8) * (1 + 3 + 9 + 27 + 81)


# Two class triples, so ground truth repeats them and predictions still miss
# on class. Boxes come from two small pools and are shared by reference.
# Subject boxes are 10x10 squares shifted along x: shifts 3 apart overlap with
# IoU 7/13 > 0.5, shifts 6 apart do not. So a prediction can hit two ground
# truths of its class of which a later prediction hits only one, and the order
# a bucket is tried in matters.
_CLASS_TRIPLES = st.tuples(
    st.just("person"), st.sampled_from(["holding", "looking at"]), st.just("cup/glass/bottle")
)
_SUBJECT_BOXES = st.sampled_from([_box(d, 0, d + 10, 10) for d in (0, 3, 6)])
_OBJECT_BOXES = st.sampled_from([BOX_B, _box(0, 20, 10, 30)])


@st.composite
def _shared_box_frames(draw):
    """One to three frames; frame 1 always has ground truth."""
    score = st.sampled_from([0.25, 0.5, 0.75, 1.0])
    instances = []
    for f in range(1, draw(st.integers(1, 3)) + 1):
        gt = draw(st.lists(st.tuples(_CLASS_TRIPLES, _SUBJECT_BOXES, _OBJECT_BOXES),
                           min_size=1 if f == 1 else 0, max_size=6))
        preds = draw(st.lists(
            st.tuples(_CLASS_TRIPLES, _SUBJECT_BOXES, _OBJECT_BOXES, score), max_size=8
        ))
        instances.append(EvalInstance(
            f,
            [_gt(*c, s, o, frame=f) for c, s, o in gt],
            [_pred(*c, s, o, sc, frame=f) for c, s, o, sc in preds],
        ))
    return instances


class TestRecallOracleProperty:
    # K = 50 always exceeds the 8 predictions a frame can have.
    @given(_shared_box_frames(), st.sampled_from([(1,), (1, 3, 50), (2, 5)]))
    @settings(max_examples=300, deadline=None)
    def test_equals_brute_force_oracle_exactly(self, instances, k_values):
        got = recall_at_k(instances, EvalConfig(k_values=k_values))
        want = {
            (regime, k): oracle_recall(instances, regime, k, 0.5)
            for regime in REGIMES for k in k_values
        }
        assert got == want

