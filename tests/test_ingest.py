import json
import math
import random
import re
import struct
import sys
from typing import Optional

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from capgraph.core import (
    BoundingBox,
    Detection,
    EmbeddingMatrix,
    Provenance,
    SceneGraph,
    Triplet,
    VideoManifest,
    triplet_sort_key,
)
from capgraph.errors import (
    DimensionMismatch,
    IoFailure,
    MalformedRecord,
    MissingFile,
)
from capgraph.ingest import (
    IngestConfig,
    graph_triplets,
    load_bundle,
    load_detections,
    load_frame_triplets,
    load_manifests,
    load_parsed_triplets,
    load_scene_graphs,
    load_sentences,
    read_embeddings,
    read_records,
    scene_graph_lines,
    write_detections,
    write_embeddings,
    write_manifests,
    write_record_lines,
    write_scene_graphs,
    write_sentences,
)
from capgraph.core import SegmentedSentence


def _box(x1=0, y1=0, x2=2, y2=2):
    return BoundingBox(x1, y1, x2, y2)


def _graph(video_id="v1"):
    t1 = Triplet("person", "holding", "cup", _box(), _box(3, 3, 5, 5), frame_index=1)
    t2 = Triplet("person", "eating", "food", _box(), _box(3, 3, 5, 5), frame_index=2)
    return SceneGraph.from_triplets(video_id, [t1, t2])


class TestEmbeddingFiles:
    def test_round_trip(self, tmp_path):
        rows = np.arange(12, dtype=np.float32).reshape(3, 4)
        matrix = EmbeddingMatrix(["a", "b", "c"], rows)
        path = tmp_path / "m.nlve"
        write_embeddings(matrix, path)
        assert read_embeddings(path) == matrix

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "bad.nlve"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(MalformedRecord):
            read_embeddings(path)

    def test_short_row_data_is_dimension_mismatch(self, tmp_path):
        matrix = EmbeddingMatrix(["a"], np.zeros((1, 512), dtype=np.float32))
        path = tmp_path / "m.nlve"
        write_embeddings(matrix, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 256 * 4])  # row truncated to 256 floats
        with pytest.raises(DimensionMismatch):
            read_embeddings(path)

    def test_row_id_that_is_not_utf8_is_malformed_naming_its_index(self, tmp_path):
        path = tmp_path / "m.nlve"
        path.write_bytes(b"NLVE" + struct.pack("<II", 1, 2) + struct.pack("<I", 1) + b"a"
                         + struct.pack("<I", 2) + b"\xff\xfe" + struct.pack("<2f", 1.0, 1.0))
        with pytest.raises(MalformedRecord) as err:
            read_embeddings(path)
        assert (err.value.path, err.value.line_number) == (str(path), 0)
        assert err.value.reason.startswith("row 1 id is not UTF-8: ")

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFile):
            read_embeddings(tmp_path / "absent.nlve")

    def test_directory_is_a_read_failure_naming_it(self, tmp_path):
        path = tmp_path / "m.nlve"
        path.mkdir()
        with pytest.raises(IoFailure, match=re.escape(f"cannot read {path}: ")):
            read_embeddings(path)


@pytest.mark.parametrize("write", [
    lambda path: write_record_lines([{"a": 1}], path),
    lambda path: write_embeddings(EmbeddingMatrix(["r"], np.ones((1, 2), np.float32)), path),
], ids=["ndjson", "nlve"])
@pytest.mark.parametrize("under", ["file", "file/sub"])
def test_output_under_a_file_is_a_write_failure_naming_it(tmp_path, write, under):
    (tmp_path / "file").write_text("")
    path = tmp_path / under / "out"
    with pytest.raises(IoFailure, match=re.escape(f"cannot write {path}: ")):
        write(path)


def test_an_output_replaces_a_symlink_and_leaves_its_target(tmp_path):
    target, link = tmp_path / "target", tmp_path / "link"
    target.write_text("the target\n")
    link.symlink_to(target)
    write_record_lines([{"a": 1}], link)
    assert not link.is_symlink()
    assert link.read_text() == '{"a":1}\n'
    assert target.read_text() == "the target\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "target"]


class TestSceneGraphFiles:
    def test_write_then_load_round_trip(self, tmp_path):
        graphs = [_graph("v1"), _graph("v2")]
        path = tmp_path / "graphs.ndjson"
        write_scene_graphs(graphs, path)
        assert load_scene_graphs(path) == graphs

    def test_empty_graph_list_gives_empty_file(self, tmp_path):
        path = tmp_path / "empty.ndjson"
        write_scene_graphs([], path)
        assert path.read_bytes() == b""

    def test_identical_bytes_across_writes(self, tmp_path):
        a, b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        write_scene_graphs([_graph()], a)
        write_scene_graphs([_graph()], b)
        assert a.read_bytes() == b.read_bytes()

    def test_two_triplets_one_frame_are_two_ordered_lines(self, tmp_path):
        t1 = Triplet("person", "sitting on", "sofa/couch", _box(), _box(), frame_index=1)
        t2 = Triplet("person", "looking at", "television", _box(), _box(), frame_index=1)
        path = tmp_path / "g.ndjson"
        write_scene_graphs([SceneGraph.from_triplets("v", [t1, t2])], path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        records = [json.loads(line) for line in lines]
        assert [r["frame_index"] for r in records] == [1, 1]
        keys = [(r["subject_class"], r["predicate_class"], r["object_class"]) for r in records]
        assert keys == sorted(keys)

    def test_load_is_order_insensitive(self, tmp_path):
        path = tmp_path / "g.ndjson"
        write_scene_graphs([_graph("v1"), _graph("v2")], path)
        lines = path.read_text().splitlines()
        random.Random(5).shuffle(lines)
        shuffled = tmp_path / "shuffled.ndjson"
        shuffled.write_text("\n".join(lines) + "\n")
        assert load_scene_graphs(shuffled) == load_scene_graphs(path)

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "g.ndjson"
        path.write_text('{"video_id": "v"}\nnot json\n')
        with pytest.raises(MalformedRecord) as err:
            load_scene_graphs(path)
        assert err.value.line_number in (1, 2)


# Few values per field, so that rows repeat and sort keys tie: a box and its
# sign-of-zero twin compare equal, and so do the scores None, 0.0 and -0.0,
# yet each writes other bytes, so only a stable sort pins their lines.
_TWIN_BOXES = st.sampled_from([
    _box(0.0, 0.0, 2.0, 2.0), _box(-0.0, 0.0, 2.0, 2.0), _box(0.0, -0.0, 2.0, 2.0),
    _box(1.0, 1.0, 3.0, 3.0),
])
_GRAPH_ROWS = st.lists(st.tuples(st.sampled_from(["a", "b", "c"]), st.builds(
    Triplet,
    subject_class=st.sampled_from(["person", "dog"]),
    predicate_class=st.sampled_from(["holding", "near"]),
    object_class=st.sampled_from(["cup", "cup/glass/bottle"]),
    subject_box=_TWIN_BOXES,
    object_box=_TWIN_BOXES,
    frame_index=st.integers(1, 3),
    score=st.sampled_from([None, 0.0, -0.0, 0.5]),
    provenance=st.sampled_from(list(Provenance)),
)), min_size=2, max_size=40)


@given(rows=_GRAPH_ROWS)
@settings(max_examples=150, deadline=None)
def test_graph_lines_of_rows_are_the_lines_written_from_scene_graphs(mutation_file, rows):
    """Rows are written in their stable ``triplet_sort_key`` order, as a
    ``SceneGraph`` per video wrote them, and each video's lines, taken in
    video-id order, are the lines of all rows."""
    assume(len({video_id for video_id, _ in rows}) >= 2)
    lines = list(scene_graph_lines(rows))
    assert lines == [
        json.dumps({**t.to_dict(), "video_id": video_id}, sort_keys=True, separators=(",", ":"))
        for video_id, t in sorted(rows, key=lambda row: triplet_sort_key(*row))
    ]
    by_video = {}
    for video_id, t in rows:
        by_video.setdefault(video_id, []).append(t)
    graphs = [SceneGraph.from_triplets(video_id, ts) for video_id, ts in by_video.items()]
    write_scene_graphs(graphs, mutation_file)
    assert "".join(line + "\n" for line in lines) == mutation_file.read_text()
    assert lines == [
        line for video_id in sorted(by_video)
        for line in scene_graph_lines((video_id, t) for t in by_video[video_id])
    ]


def _graph_record(frame, predicate, subject_box, object_box, score):
    return {"video_id": "v", "frame_index": frame, "subject_class": "person",
            "predicate_class": predicate, "object_class": "cup/glass/bottle",
            "subject_box": subject_box, "object_box": object_box, "score": score,
            "provenance": "prediction"}


class TestSharedBoxes:
    """Equal boxes in one graph file load as one object; no written byte moves."""

    PERSON = [10.5, 20.25, 110.0, 220.75]

    def _records(self):
        person = self.PERSON
        return [
            # Integer coordinates, then the same box written as floats.
            _graph_record(1, "holding", person, [3, 2, 30, 40], 0.9),
            _graph_record(1, "looking at", person, [3.0, 2.0, 30.0, 40.0], 0.8),
            # Boxes that compare equal but differ in the sign of a zero.
            _graph_record(2, "holding", [0.0, 5.0, 50.0, 60.0], person, 0.7),
            _graph_record(2, "looking at", [-0.0, 5.0, 50.0, 60.0], person, 0.6),
            _graph_record(3, "holding", [-0.0, 5.0, 50.0, 60.0], [0, 0.0, 9, 9], 0.5),
            _graph_record(3, "looking at", [0.0, 5.0, 50.0, 60.0], [-0.0, 0, 9, 9], 0.4),
        ]

    def _write_records(self, path, records):
        path.write_text("".join(json.dumps(r) + "\n" for r in records))

    def test_bytes_equal_unshared_loading(self, tmp_path):
        # Loading the raw records, or the canonical file written from them
        # without sharing, writes that canonical file back byte for byte.
        records = self._records()
        unshared = SceneGraph.from_triplets("v", [Triplet.from_dict(r) for r in records])
        canonical, raw = tmp_path / "canonical", tmp_path / "raw"
        write_scene_graphs([unshared], canonical)
        assert '"subject_box":[-0.0,' in canonical.read_text()
        self._write_records(raw, records)
        for source in (raw, canonical):
            again = tmp_path / f"{source.name}-again"
            write_scene_graphs(load_scene_graphs(source), again)
            assert again.read_bytes() == canonical.read_bytes(), source.name

    def test_equal_nonzero_boxes_are_one_object(self, tmp_path):
        path = tmp_path / "g.ndjson"
        self._write_records(path, self._records())
        (graph,) = load_scene_graphs(path)
        triplets = graph.all_triplets()
        person_boxes = [t.subject_box for t in triplets[:2]] + [
            t.object_box for t in triplets[2:4]
        ]
        assert all(b is person_boxes[0] for b in person_boxes)
        assert tuple(person_boxes[0]) == tuple(self.PERSON)
        assert triplets[0].object_box is triplets[1].object_box
        signs = [math.copysign(1.0, t.subject_box.x1) for t in triplets[2:]]
        assert signs == [1.0, -1.0, -1.0, 1.0]

    @pytest.mark.parametrize("flag", [True, False])
    def test_a_boolean_coordinate_never_takes_a_shared_box(self, tmp_path, flag):
        # true == 1 and false == 0: a box with a 1 or 0 is never shared, so
        # the boolean meets the number rule instead of the first box's entry.
        number = int(flag)
        path = tmp_path / "g.ndjson"
        self._write_records(path, [
            _graph_record(1, "holding", self.PERSON, [number, 2, 30, 40], 0.9),
            _graph_record(1, "holding", self.PERSON, [float(number), 2, 30, 40], 0.8),
            _graph_record(1, "holding", self.PERSON, [flag, 2, 30, 40], 0.7),
        ])
        with pytest.raises(MalformedRecord) as err:
            load_scene_graphs(path)
        assert (err.value.line_number, err.value.reason) == (
            3, f"bad graph record: box coordinate {flag} is not a number")

    @pytest.mark.parametrize("bad_box", [[[1], 2, 3, 4], 5, [1, 2, 3], "abcd"])
    def test_bad_box_reports_the_unshared_error(self, tmp_path, bad_box):
        record = _graph_record(1, "holding", bad_box, self.PERSON, 0.9)
        with pytest.raises((TypeError, ValueError)) as unshared:
            Triplet.from_dict(record)
        path = tmp_path / "g.ndjson"
        self._write_records(path, [_graph_record(1, "holding", self.PERSON, self.PERSON, 0.5),
                                   record])
        with pytest.raises(MalformedRecord) as err:
            load_scene_graphs(path)
        assert err.value.line_number == 2
        assert str(unshared.value) in str(err.value)


class TestDetections:
    def test_round_trip(self, tmp_path):
        from capgraph.ingest import load_detections, write_detections

        dets = [
            Detection(1, "person", _box(0, 0, 5, 9), 0.9),
            Detection(2, "table", _box(1, 1, 4, 4), 0.5),
        ]
        path = tmp_path / "d.ndjson"
        write_detections(dets, path)
        assert load_detections(path, confidence_floor=0.0, num_frames=2) == dets


class TestManifests:
    def test_round_trip(self, tmp_path):
        manifests = [
            VideoManifest("v1", ("f1", "f2"), 3.0, "A person sits."),
            VideoManifest("v2", ("f1",), 1.0, "A person waves."),
        ]
        path = tmp_path / "manifest.ndjson"
        write_manifests(manifests, path)
        assert load_manifests(path) == manifests

    def test_duplicate_video_id(self, tmp_path):
        m = VideoManifest("v1", ("f1",), 3.0, "x").to_dict()
        path = tmp_path / "manifest.ndjson"
        path.write_text(json.dumps(m) + "\n" + json.dumps(m) + "\n")
        with pytest.raises(MalformedRecord) as info:
            load_manifests(path)
        assert info.value.line_number == 2
        assert "'v1'" in info.value.reason

    def test_empty_manifest_is_empty_bundle(self, tmp_path):
        (tmp_path / "manifest.ndjson").write_text("")
        bundle = load_bundle(tmp_path)
        assert bundle.manifests == []


class TestSentencesFile:
    def test_round_trip(self, tmp_path):
        sentences = {
            "v1": [SegmentedSentence(1, "a", (1, 2)), SegmentedSentence(2, "b", (3, 8))],
            "v2": [SegmentedSentence(1, "c")],
        }
        path = tmp_path / "s.ndjson"
        write_sentences(sentences, path)
        assert load_sentences(path) == sentences

    def test_a_repeated_order_index_of_one_video_is_malformed(self, tmp_path):
        # Kept, both would share order index 1, and ground would put the
        # first sentence's triplets on the second sentence's frames.
        path = tmp_path / "s.ndjson"
        path.write_text("".join(json.dumps(r) + "\n" for r in [
            {"video_id": "v", "order_index": 1, "text": "a", "aligned_frames": [1, 1]},
            {"video_id": "w", "order_index": 1, "text": "b", "aligned_frames": [2, 2]},
            {"video_id": "v", "order_index": 1, "text": "c", "aligned_frames": [3, 3]},
        ]))
        with pytest.raises(MalformedRecord) as err:
            load_sentences(path)
        assert (err.value.line_number, err.value.reason) == (
            3, "duplicate order_index 1 of video 'v'")


class TestBundleLoading:
    def test_fixture_bundle(self, data_root):
        bundle = load_bundle(data_root)
        assert [m.video_id for m in bundle.manifests] == ["kitchen01", "kitchen02"]
        assert bundle.embeddings["kitchen01"].is_normalized()
        assert len(bundle.embeddings["kitchen02"]) == 12

    def test_confidence_floor_drops_detection(self, data_root):
        # One fixture detection, a floor on frame 5, sits at confidence 0.15,
        # under the 0.2 floor; the cup at 0.40 on frame 1 stays.
        bundle = load_bundle(data_root)
        v1 = bundle.detections["kitchen01"]
        assert not any("floor" in by_class for by_class in v1.values())
        assert v1[1]["cup/glass/bottle"] == (_box(55, 60, 75, 90), _box(100, 60, 120, 90))

    def test_custom_floor_keeps_it(self, data_root):
        bundle = load_bundle(data_root, IngestConfig(confidence_floor=0.1))
        assert bundle.detections["kitchen01"][5]["floor"] == (_box(0, 140, 240, 160),)

    def test_detection_order_insensitive(self, data_root, tmp_path):
        src = (data_root / "detections" / "kitchen01.ndjson").read_text().splitlines()
        shuffled = src[:]
        random.Random(11).shuffle(shuffled)
        alt = tmp_path / "alt"
        for name in ("manifest.ndjson",):
            (alt / name).parent.mkdir(parents=True, exist_ok=True)
            (alt / name).write_text((data_root / name).read_text())
        for sub in ("embeddings", "detections", "gt"):
            (alt / sub).mkdir(exist_ok=True)
        for p in (data_root / "embeddings").iterdir():
            (alt / "embeddings" / p.name).write_bytes(p.read_bytes())
        (alt / "detections" / "kitchen01.ndjson").write_text("\n".join(shuffled) + "\n")
        (alt / "detections" / "kitchen02.ndjson").write_text(
            (data_root / "detections" / "kitchen02.ndjson").read_text()
        )
        (alt / "gt" / "kitchen01.ndjson").write_text(
            (data_root / "gt" / "kitchen01.ndjson").read_text()
        )
        assert (
            load_bundle(alt).detections["kitchen01"]
            == load_bundle(data_root).detections["kitchen01"]
        )

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(MissingFile):
            load_bundle(tmp_path / "nowhere")


def _write_dataset(root, t=8, rows=None, row_ids=None, detections=(), **manifest):
    """One video ``v`` of ``t`` frames: unit frame rows (or ``rows``), the
    manifest's frame ids (or ``row_ids``) and the given detections."""
    record = dict({"video_id": "v", "frame_ids": [f"f{i}" for i in range(1, t + 1)],
                   "fps": 3.0, "caption": "A person waves."}, **manifest)
    (root / "manifest.ndjson").parent.mkdir(parents=True, exist_ok=True)
    (root / "manifest.ndjson").write_text(json.dumps(record) + "\n")
    if rows is None:
        rows = np.zeros((len(record["frame_ids"]), 4), dtype=np.float32)
        rows[:, 0] = 1.0
    ids = list(record["frame_ids"] if row_ids is None else row_ids)
    write_embeddings(EmbeddingMatrix(ids, rows), root / "embeddings" / "v.frames.nlve")
    write_detections(list(detections), root / "detections" / "v.ndjson")
    return root


class TestDatasetGate:
    """``load_bundle`` rejects a dataset no stage can run on, naming the file
    and, for manifest and detection records, the line."""

    def test_consistent_bundle_loads(self, tmp_path):
        det = Detection(1, "person", _box(0, 0, 5, 5), 0.9)
        bundle = load_bundle(_write_dataset(tmp_path, t=8, detections=[det]))
        assert [m.num_frames for m in bundle.manifests] == [8]
        assert bundle.detections["v"] == {1: {"person": (det.box,)}}

    @pytest.mark.parametrize("rows", [7, 9, 0])
    def test_row_count_must_equal_frame_count(self, tmp_path, rows):
        root = tmp_path
        _write_dataset(root, t=8, rows=np.ones((rows, 4), dtype=np.float32),
                       row_ids=[f"f{i}" for i in range(1, rows + 1)])
        with pytest.raises(MalformedRecord) as err:
            load_bundle(root)
        assert err.value.path == str(root / "embeddings" / "v.frames.nlve")
        assert err.value.reason == f"{rows} rows for the 8 frames of video 'v'"

    def test_row_ids_must_be_the_frame_ids_in_order(self, tmp_path):
        _write_dataset(tmp_path, t=3, row_ids=["f1", "f3", "f2"])
        with pytest.raises(MalformedRecord) as err:
            load_bundle(tmp_path)
        assert err.value.reason == "row id 'f3' is not the id of frame 2, 'f2'"

    def test_all_zero_row_cannot_be_normalized(self, tmp_path):
        rows = np.ones((4, 4), dtype=np.float32)
        rows[2] = 0.0
        _write_dataset(tmp_path, t=4, rows=rows)
        with pytest.raises(MalformedRecord) as err:
            load_bundle(tmp_path)
        assert err.value.path == str(tmp_path / "embeddings" / "v.frames.nlve")
        assert err.value.reason.startswith("row 'f3' cannot be L2-normalized")

    def test_all_zero_sentence_row_cannot_be_normalized(self, tmp_path):
        _write_dataset(tmp_path, t=4)
        rows = np.zeros((3, 4), dtype=np.float32)
        rows[[0, 2], 1] = 1.0
        path = tmp_path / "embeddings" / "v.sentences.nlve"
        write_embeddings(EmbeddingMatrix(["1", "2", "3"], rows), path)
        with pytest.raises(MalformedRecord) as err:
            load_bundle(tmp_path)
        assert err.value.path == str(path)
        assert err.value.reason.startswith("row '2' cannot be L2-normalized")

    def test_row_whose_length_overflows_is_malformed_without_a_warning(self, tmp_path):
        rows = np.ones((4, 4), dtype=np.float32)
        rows[1] = 1e30
        _write_dataset(tmp_path, t=4, rows=rows)
        with pytest.raises(MalformedRecord) as err:
            load_bundle(tmp_path)
        assert err.value.path == str(tmp_path / "embeddings" / "v.frames.nlve")
        assert err.value.reason.startswith("row 'f2' cannot be L2-normalized")

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_frame_row_is_malformed(self, tmp_path, value):
        rows = np.ones((8, 4), dtype=np.float32)
        rows[3, 0] = value
        _write_dataset(tmp_path, t=8, rows=rows)
        with pytest.raises(MalformedRecord) as err:
            load_bundle(tmp_path)
        assert err.value.path == str(tmp_path / "embeddings" / "v.frames.nlve")
        assert err.value.reason == "row 'f4' holds a non-finite value"

    @pytest.mark.parametrize("field, value, reason", [
        ("caption", "  ", "caption is empty"),
        ("frame_ids", [], "frame_ids is empty"),
        ("frame_ids", ["f1", "f2", "f1"], "duplicate frame ids"),
        ("fps", 0, "fps 0.0 is not a positive finite number"),
        ("fps", -3.0, "fps -3.0 is not a positive finite number"),
        ("fps", float("nan"), "fps nan is not a positive finite number"),
        ("fps", float("inf"), "fps inf is not a positive finite number"),
    ], ids=["blank-caption", "no-frames", "duplicate-frame-id", "fps-zero", "fps-negative",
            "fps-nan", "fps-inf"])
    def test_manifest_field_is_malformed_at_its_line(self, tmp_path, field, value, reason):
        _write_dataset(tmp_path, t=3, **{field: value})
        with pytest.raises(MalformedRecord) as err:
            load_bundle(tmp_path)
        assert (err.value.path, err.value.line_number) == (str(tmp_path / "manifest.ndjson"), 1)
        assert err.value.reason == f"bad manifest record: {reason}"

    def test_garbage_manifest_is_malformed_not_a_crash(self, tmp_path):
        (tmp_path / "manifest.ndjson").write_text(
            json.dumps({"video_id": "v", "frame_ids": [], "fps": float("nan"), "caption": ""})
            + "\n"
        )
        with pytest.raises(MalformedRecord) as err:
            load_bundle(tmp_path)
        assert err.value.line_number == 1

    @pytest.mark.parametrize("det, reason", [
        (Detection(1, "person", _box(5, 0, 5, 5), 0.9),
         "box [5.0, 0.0, 5.0, 5.0] of 'person' is not finite, non-negative and of positive width "
         "and height"),
        (Detection(9, "person", _box(0, 0, 5, 5), 0.9), "frame_index 9 is outside 1..4"),
        (Detection(0, "person", _box(0, 0, 5, 5), 0.9), "frame_index 0 is outside 1..4"),
        (Detection(1, "person", _box(0, 0, 5, 5), 1.5), "confidence 1.5 is outside [0, 1]"),
    ], ids=["degenerate-box", "frame-past-the-end", "frame-zero", "confidence-above-one"])
    def test_kept_detection_is_malformed_at_its_line(self, tmp_path, det, reason):
        good = Detection(1, "person", _box(0, 0, 5, 5), 0.9)
        path = tmp_path / "detections" / "v.ndjson"
        _write_dataset(tmp_path, t=4)
        path.write_text(json.dumps(good.to_dict()) + "\n" + json.dumps(det.to_dict()) + "\n")
        with pytest.raises(MalformedRecord) as err:
            load_bundle(tmp_path)
        assert (err.value.path, err.value.line_number) == (str(path), 2)
        assert err.value.reason == f"bad detection record: {reason}"

    def test_detection_under_the_floor_is_checked(self, tmp_path):
        good = Detection(1, "person", _box(0, 0, 5, 5), 0.9)
        path = tmp_path / "detections" / "v.ndjson"
        _write_dataset(tmp_path, t=4)
        for det, reason in [
            (Detection(9, "person", _box(0, 0, 5, 5), 0.1), "frame_index 9 is outside 1..4"),
            (Detection(1, "person", _box(5, 0, 5, 5), 0.1),
             "box [5.0, 0.0, 5.0, 5.0] of 'person' is not finite, non-negative and of positive "
             "width and height"),
            (Detection(1, "person", _box(0, 0, 1, 1), float("nan")),
             "confidence nan is outside [0, 1]"),
        ]:
            path.write_text(json.dumps(good.to_dict()) + "\n" + json.dumps(det.to_dict()) + "\n")
            with pytest.raises(MalformedRecord) as err:
                load_bundle(tmp_path)
            assert err.value.line_number == 2
            assert err.value.reason == f"bad detection record: {reason}"


# One valid line per NDJSON loader; the reader must reject any line a loader
# cannot decode with MalformedRecord naming the file and line.
_VALID_LINES = {
    "manifest": (load_manifests, {"video_id": "v", "frame_ids": ["f1", "f2"], "fps": 3.0,
                                  "caption": "A person sits."}),
    "detection": (lambda path: load_detections(path, 0.0, 2),
                  {"frame_index": 1, "entity_class": "person", "box": [0, 0, 2, 2],
                   "confidence": 0.9}),
    "graph": (load_scene_graphs, _graph_record(1, "holding", [0, 0, 2, 2], [3, 3, 5, 5], 0.9)),
    "sentence": (load_sentences, {"video_id": "v", "order_index": 1, "text": "a",
                                  "aligned_frames": [1, 2]}),
    "parsed-triplet": (load_parsed_triplets, {"video_id": "v", "order_index": 1,
                                              "subject_class": "person",
                                              "predicate_class": "holding",
                                              "object_class": "cup/glass/bottle"}),
}

_HUGE = "1" + "0" * 400  # an integer literal too large for a float


def _with_raw(record: dict, key: str, raw: str, index=None) -> str:
    """``record`` as one JSON line whose ``key`` (or its ``index``-th item) is ``raw``."""
    record = json.loads(json.dumps(record))
    if index is None:
        record[key] = "@RAW@"
    else:
        record[key][index] = "@RAW@"
    return json.dumps(record).replace('"@RAW@"', raw)


class TestRecordReader:
    @pytest.mark.parametrize("what, key, raw, index", [
        ("graph", "score", _HUGE, None),
        ("graph", "frame_index", "1e400", None),
        ("graph", "subject_box", _HUGE, 2),
        ("detection", "confidence", _HUGE, None),
        ("manifest", "fps", _HUGE, None),
        ("sentence", "order_index", "1e400", None),
        ("parsed-triplet", "order_index", "1e400", None),
    ], ids=lambda v: "1e400" if v == "1e400" else "10**400" if v == _HUGE else None)
    def test_number_too_large_is_malformed(self, tmp_path, what, key, raw, index):
        load, record = _VALID_LINES[what]
        path = tmp_path / "records.ndjson"
        path.write_text(json.dumps(record) + "\n\n" + _with_raw(record, key, raw, index) + "\n")
        with pytest.raises(MalformedRecord) as err:
            load(path)
        assert err.value.line_number == 3
        assert err.value.reason.startswith(f"bad {what} record: ")

    @pytest.mark.parametrize("line", ["[1,2]", "5", '"s"', "null"])
    @pytest.mark.parametrize("what", sorted(_VALID_LINES))
    def test_line_that_is_not_an_object_is_malformed(self, tmp_path, what, line):
        load, record = _VALID_LINES[what]
        path = tmp_path / "records.ndjson"
        path.write_text(json.dumps(record) + "\n" + line + "\n")
        with pytest.raises(MalformedRecord) as err:
            load(path)
        assert err.value.line_number == 2
        assert "expected a JSON object" in err.value.reason

    def test_byte_that_is_not_utf8_is_malformed(self, tmp_path):
        path = tmp_path / "graphs.ndjson"
        path.write_bytes(b"\xff\n")
        with pytest.raises(MalformedRecord) as err:
            load_scene_graphs(path)
        assert err.value.path == str(path)
        assert err.value.line_number == 1
        assert err.value.reason.startswith("not UTF-8")

    @pytest.mark.parametrize("what", sorted(_VALID_LINES))
    def test_undecodable_line_is_named_past_the_read_ahead(self, tmp_path, what):
        # Text mode decodes a chunk ahead of the line being read; the
        # reported line is still the first one that is not UTF-8, with a
        # lone carriage return counted as a line break as text mode does.
        load, record = _VALID_LINES[what]
        line = json.dumps(record).encode("utf-8")
        path = tmp_path / "records.ndjson"
        path.write_bytes(line + b"\r" + b" \n" * 20_000 + line[:-1] + b"\xe9}\n")
        with pytest.raises(MalformedRecord) as err:
            load(path)
        assert err.value.line_number == 20_002

    @pytest.mark.parametrize("what", sorted(_VALID_LINES))
    def test_directory_is_a_read_failure_naming_it(self, tmp_path, what):
        load, _ = _VALID_LINES[what]
        path = tmp_path / "records.ndjson"
        path.mkdir()
        with pytest.raises(IoFailure, match=re.escape(f"cannot read {path}: ")):
            load(path)

    def test_line_nested_deeper_than_the_recursion_limit_is_malformed(self, tmp_path):
        path = tmp_path / "graphs.ndjson"
        path.write_text("[" * 100_000 + "\n")
        with pytest.raises(MalformedRecord) as err:
            load_scene_graphs(path)
        assert err.value.line_number == 1
        assert err.value.reason.startswith("bad graph record: ")


# Values a single field may take instead: edge cases first, then any JSON.
_FIELD_VALUES = st.sampled_from([
    10**400, -(10**400), float("inf"), float("-inf"), float("nan"),
    [], [1], [1, 2, 3], {}, "", None, True,
]) | st.recursive(
    st.none() | st.booleans() | st.text(max_size=6) | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda children: st.lists(children, max_size=5) | st.dictionaries(
        st.text(max_size=3), children, max_size=4),
    max_leaves=8,
)
_DELETED = object()


@pytest.fixture(scope="module")
def mutation_file(tmp_path_factory):
    return tmp_path_factory.mktemp("mutations") / "records.ndjson"


@pytest.mark.parametrize("what, key", [
    (what, key) for what, (_, record) in sorted(_VALID_LINES.items()) for key in sorted(record)
])
@given(value=st.just(_DELETED) | _FIELD_VALUES)
@settings(max_examples=60, deadline=None)
def test_single_field_mutation_loads_or_is_malformed(mutation_file, what, key, value):
    load, record = _VALID_LINES[what]
    mutated = {k: v for k, v in record.items() if k != key}
    if value is not _DELETED:
        mutated[key] = value
    mutation_file.write_text("\n" + json.dumps(mutated) + "\n")
    try:
        load(mutation_file)
    except MalformedRecord as e:
        assert e.line_number == 2


# ---------------------------------------------------------------------------
# The reader against per-line json.loads


def _per_line_loads(raw: bytes, what: str):
    """What ``read_records(path, what, lambda r: r)`` must give for a file of
    ``raw`` bytes ("\\n"-ended lines, no "\\r", under one 8 KiB read-ahead
    chunk): ``(line number, json.loads(line))`` for each non-blank stripped
    line in order, then the first failing line's number and reason, if any.
    A byte that is not UTF-8 is met before any line is read."""
    lines = raw.split(b"\n")[:-1]
    for line_no, line in enumerate(lines, start=1):
        try:
            (line + b"\n").decode("utf-8")
        except UnicodeDecodeError as e:
            return [], (line_no, f"not UTF-8: {e.reason}")
    records = []
    for line_no, line in enumerate(lines, start=1):
        text = line.decode("utf-8").strip()
        if not text:
            continue
        try:
            record = json.loads(text)
            if not isinstance(record, dict):
                raise TypeError(f"expected a JSON object, got {type(record).__name__}")
        except json.JSONDecodeError as e:
            return records, (line_no, f"invalid JSON: {e.msg}")
        except (TypeError, ValueError, RecursionError) as e:
            return records, (line_no, f"bad {what} record: {e}")
        records.append((line_no, record))
    return records, None


_AWKWARD_LINES = st.sampled_from([
    b'{"a":1},{"b":[0', b'0]}',  # an array split over two lines
    b"", b"   ", b" \t\x0b\x0c\xc2\xa0\xe2\x80\xa8 ",  # blank, and blank to str.strip only
    b'\xef\xbb\xbf{"a":1}', b"\xef\xbb\xbf", b' \xef\xbb\xbf{"a":1}',  # UTF-8 BOM
    b'{"x":NaN}', b'{"x":Infinity,"y":-Infinity}', b'{"x":1e400}', b"NaN", b"-Infinity",
    b'{"x":' + _HUGE.encode() + b"}", _HUGE.encode(),
    b'{"s":"\\ud800"}', b'{"\\udc00":"\\ud800\\udc00"}',
    b'{"a":1} x', b'{"a":1}}', b"{", b'{"a":}', b"[1,2]", b"5", b'"s"', b"null", b"1 2",
    b'\t{"a" : [1, {"b": null}]}\x0c',
    b"\xff", b'{"a":"\xe9"}', b"\xed\xa0\x80", b'{"a":"\xe2\x82"}',  # not UTF-8
])
# Text without line breaks ("\r" is one in text mode).
_JUNK = st.text(st.characters(blacklist_characters="\r\n"), max_size=12)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _JUNK,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(_JUNK, children, max_size=3),
    max_leaves=6,
)


@st.composite
def _record_files(draw):
    """The bytes of a short NDJSON file of awkward, random and valid lines."""
    line = (
        _AWKWARD_LINES
        # A lone surrogate has no UTF-8 form; "surrogatepass" writes it as the
        # bytes a reader must reject as not UTF-8.
        | _JUNK.map(lambda s: s.encode("utf-8", "surrogatepass"))
        | st.dictionaries(_JUNK, _JSON_VALUES, max_size=3).map(
            lambda d: json.dumps(d).encode("utf-8"))
        | st.just(b"[" * (sys.getrecursionlimit() + 1))  # deeper than the limit
    )
    return b"".join(chunk + b"\n" for chunk in draw(st.lists(line, max_size=6)))


@given(raw=_record_files())
@settings(max_examples=300, deadline=None)
def test_reader_gives_what_per_line_json_loads_gives(mutation_file, raw):
    assume(len(raw) < 8192)
    mutation_file.write_bytes(raw)
    records, error = _per_line_loads(raw, "test")
    got = []
    try:
        for line_no, record in read_records(mutation_file, "test", lambda r: r):
            got.append((line_no, record))
        got_error = None
    except MalformedRecord as e:
        assert e.path == str(mutation_file)
        got_error = (e.line_number, e.reason)
    # repr tells NaN, -0.0 and 0 from 0.0 apart, as == does not.
    assert repr(got) == repr(records)
    assert got_error == error


# ---------------------------------------------------------------------------
# The frame loader against SceneGraph.from_triplets

_GRAPH_BOXES = [[0.0, 0.0, 10.0, 10.0], [-0.0, 0.0, 10.0, 10.0], [0, -0.0, 10, 10],
                [1.5, 2.0, 30.0, 40.0], [1.5, 2, 30, 40]]
_GRAPH_LINES = st.fixed_dictionaries({
    "video_id": st.sampled_from(["v0", "v1", "v1", "v2", "v2"]),
    "frame_index": st.integers(1, 3),
    "subject_class": st.just("person"),
    "predicate_class": st.sampled_from(["holding", "looking at"]),
    "object_class": st.sampled_from(["cup/glass/bottle", "book"]),
    "subject_box": st.sampled_from(_GRAPH_BOXES),
    "object_box": st.sampled_from(_GRAPH_BOXES),
    "score": st.sampled_from([math.nan, math.nan, None, 0.0, -0.0, 0.5, 0.25]),
    "provenance": st.sampled_from(["prediction", "ground_truth"]),
})


def _reference_frames(lines):
    """The file's frames as ``SceneGraph.from_triplets`` made them before the
    frame loader: each video's triplets, in file order, sorted by
    ``triplet_sort_key`` as one list, then split by frame."""
    by_video = {}
    for line in lines:
        record = json.loads(line)
        by_video.setdefault(record["video_id"], []).append(Triplet.from_dict(record))
    frames = {}
    for video_id in sorted(by_video):
        for t in sorted(by_video[video_id], key=lambda t: triplet_sort_key(video_id, t)):
            frames.setdefault((video_id, t.frame_index), []).append(t)
    return frames


# Up to 160 lines, most of them with one of two videos: with NaN scores,
# sorting each frame on its own changes some frame's order in most videos of
# 100 triplets, and in under 1% of videos of 13.
@given(records=st.integers(0, 160).flatmap(
    lambda n: st.lists(_GRAPH_LINES, min_size=n, max_size=n)), seed=st.integers(0, 2**16))
@settings(max_examples=100, deadline=None)
def test_frame_loader_equals_per_video_scene_graphs(mutation_file, records, seed):
    lines = [json.dumps(r) for r in records]
    lines += lines[: len(lines) // 4]  # some lines twice: tied keys
    random.Random(seed).shuffle(lines)
    mutation_file.write_text("".join(line + "\n" for line in lines))
    want = _reference_frames(lines)
    frames = load_frame_triplets(mutation_file)
    # Keys in (video id, frame) order; repr tells NaN, None, -0.0 and 0.0
    # apart, so the order inside each frame is pinned too.
    assert list(frames) == sorted(frames) == list(want)
    assert repr(frames) == repr(want)
    graphs = {}
    for (video_id, frame), triplets in want.items():
        graphs.setdefault(video_id, {})[frame] = tuple(triplets)
    assert repr(load_scene_graphs(mutation_file)) == repr(
        [SceneGraph(video_id, per_frame) for video_id, per_frame in graphs.items()])


# ---------------------------------------------------------------------------
# The graph row function against per-line json.loads plus Triplet(...)

class _NullBox(Exception):
    pass


def _reference_row(record):
    """One graph record as its video id and triplet, decoded field by field
    with fresh code: ``str`` for the ids and names, ``BoundingBox.from_list``
    for a set box, a positive integer frame, a number or null score,
    ``Provenance(...)``, then ``Triplet(...)``; ``_NullBox`` if a box is not
    set."""
    video_id = str(record["video_id"])
    names = [str(record[field])
             for field in ("subject_class", "predicate_class", "object_class")]
    boxes = [BoundingBox.from_list(record.get(field)) if record.get(field) else None
             for field in ("subject_box", "object_box")]
    frame = record.get("frame_index")
    if isinstance(frame, bool) or not isinstance(frame, int) or frame < 1:
        raise ValueError(f"frame_index {frame!r} is not a positive integer")
    score = record.get("score")
    if score is not None:
        if isinstance(score, bool) or not isinstance(score, (int, float)):
            raise ValueError(f"score {score!r} is not a number")
        score = float(score)
    triplet = Triplet(*names, *boxes, frame, score,
                      Provenance(record.get("provenance", "caption")))
    if not triplet.is_localized:
        raise _NullBox
    return video_id, triplet


def _reference_rows(lines):
    """(rows, error) for a graph file of ``lines``: each line's
    ``_reference_row`` up to the first line that fails, and that line's number
    and reason (None if every line decodes)."""
    rows = []
    for line_no, line in enumerate(lines, start=1):
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise TypeError(f"expected a JSON object, got {type(record).__name__}")
            rows.append(_reference_row(record))
        except _NullBox:
            return rows, (line_no, "graph triplet is not localized (null box)")
        except (LookupError, TypeError, ValueError, OverflowError) as e:
            return rows, (line_no, f"bad graph record: {e}")
    return rows, None


# Values that break a graph field, or that a lax loader would convert.
_SPOILED = {
    "video_id": [_DELETED, 7],
    "subject_class": [_DELETED, 5, ["person"]],
    "predicate_class": [_DELETED, None],
    "object_class": [_DELETED, True],
    "subject_box": [None, [], [1, 2, 3], [[1], 2, 3, 4], "abcd", 5, [1, 2, 3, 10**400]],
    "object_box": [None, 0, {"a": 1, "b": 2, "c": 3, "d": 4}, ["1", "2", "30", "40"]],
    "frame_index": [_DELETED, None, 0, -1, 1.5, 2.0, True, "2", [1]],
    "score": [True, "0.5", [0.5], 7, 10**400, math.inf],
    "provenance": ["bogus", ["prediction"], None],
}
_SPOILED_LINES = st.tuples(
    _GRAPH_LINES, st.sampled_from(sorted(_SPOILED)), st.integers(0, 8),
).map(lambda drawn: _spoil(*drawn))


def _spoil(record, field, pick):
    record = dict(record)
    value = _SPOILED[field][pick % len(_SPOILED[field])]
    if value is _DELETED:
        del record[field]
    else:
        record[field] = value
    return record


@given(records=st.lists(_GRAPH_LINES | _SPOILED_LINES, max_size=12))
@settings(max_examples=300, deadline=None)
def test_graph_rows_equal_per_line_json_loads_plus_triplet(mutation_file, records):
    lines = [json.dumps(r) for r in records]
    mutation_file.write_text("".join(line + "\n" for line in lines))
    want_rows, want_error = _reference_rows(lines)

    def outcome(load):
        got = []
        try:
            got.extend(load(mutation_file))
        except MalformedRecord as e:
            assert e.path == str(mutation_file)
            return got, (e.line_number, e.reason)
        return got, None

    rows, error = outcome(graph_triplets)
    # repr tells NaN, None, -0.0 and 0.0 apart, as == does not.
    assert repr(rows) == repr(want_rows)
    assert error == want_error
    frames, frames_error = outcome(lambda path: load_frame_triplets(path).items())
    assert frames_error == want_error
    if want_error is None:
        by_video = {}
        for video_id, t in want_rows:
            by_video.setdefault(video_id, []).append(t)
        want_frames = {}
        for video_id in sorted(by_video):
            for t in sorted(by_video[video_id], key=lambda t: triplet_sort_key(video_id, t)):
                want_frames.setdefault((video_id, t.frame_index), []).append(t)
        assert repr(dict(frames)) == repr(want_frames)
    # Equal class names within the file are one object.
    for triplets in ([t for _, t in rows], [t for _, ts in frames for t in ts]):
        first = {}
        for t in triplets:
            for name in t.classes():
                assert first.setdefault(name, name) is name


class TestIntegerRule:
    """A frame index, order index or score that is not the number it names is
    rejected with its line, never converted."""

    @pytest.mark.parametrize("field, value, reason", [
        ("frame_index", 1.5, "frame_index 1.5 is not a positive integer"),
        ("frame_index", 2.0, "frame_index 2.0 is not a positive integer"),
        ("frame_index", True, "frame_index True is not a positive integer"),
        ("frame_index", "2", "frame_index '2' is not a positive integer"),
        ("frame_index", 0, "frame_index 0 is not a positive integer"),
        ("frame_index", None, "frame_index None is not a positive integer"),
        ("score", True, "score True is not a number"),
        ("score", "0.5", "score '0.5' is not a number"),
    ], ids=["frame-1.5", "frame-2.0", "frame-true", "frame-string", "frame-0", "frame-null",
            "score-true", "score-string"])
    def test_graph_line(self, tmp_path, field, value, reason):
        good = _graph_record(1, "holding", [0, 0, 2, 2], [3, 3, 5, 5], 0.9)
        path = tmp_path / "g.ndjson"
        path.write_text(json.dumps(good) + "\n" + json.dumps(dict(good, **{field: value})) + "\n")
        for load in (load_frame_triplets, lambda p: list(graph_triplets(p))):
            with pytest.raises(MalformedRecord) as err:
                load(path)
            assert (err.value.line_number, err.value.reason) == (2, f"bad graph record: {reason}")

    def test_graph_line_with_an_integer_score_loads_it_as_a_float(self, tmp_path):
        path = tmp_path / "g.ndjson"
        path.write_text(json.dumps(_graph_record(1, "holding", [0, 0, 2, 2], [3, 3, 5, 5], 1))
                        + "\n")
        ((_, triplet),) = graph_triplets(path)
        assert repr(triplet.score) == "1.0"

    @pytest.mark.parametrize("what", ["sentence", "parsed-triplet"])
    @pytest.mark.parametrize("value, shown", [
        (1.5, "1.5"), (True, "True"), ("2", "'2'"), (0, "0"), (None, "None"),
    ], ids=["1.5", "true", "string", "0", "null"])
    def test_order_index(self, tmp_path, what, value, shown):
        load, record = _VALID_LINES[what]
        path = tmp_path / "records.ndjson"
        path.write_text(json.dumps(record) + "\n"
                        + json.dumps(dict(record, order_index=value)) + "\n")
        with pytest.raises(MalformedRecord) as err:
            load(path)
        assert (err.value.line_number, err.value.reason) == (
            2, f"bad {what} record: order_index {shown} is not a positive integer")


class TestNumberRule:
    """A detection's or manifest's numbers are read by the rules every other
    record's are: a value that is not the number it names is rejected with
    its line, never converted."""

    DETECTION = {"frame_index": 1, "entity_class": "person", "box": [0, 0, 2, 2],
                 "confidence": 0.9}

    def _detection_error(self, tmp_path, floor=0.2, **fields):
        path = tmp_path / "d.ndjson"
        path.write_text(json.dumps(self.DETECTION) + "\n"
                        + json.dumps(dict(self.DETECTION, **fields)) + "\n")
        with pytest.raises(MalformedRecord) as err:
            load_detections(path, floor, 4)
        assert err.value.line_number == 2
        return err.value.reason

    @pytest.mark.parametrize("field, value, reason", [
        ("frame_index", 1.5, "frame_index 1.5 is not an integer"),
        ("frame_index", 2.0, "frame_index 2.0 is not an integer"),
        ("frame_index", "2", "frame_index '2' is not an integer"),
        ("frame_index", True, "frame_index True is not an integer"),
        ("frame_index", 0, "frame_index 0 is outside 1..4"),
        ("frame_index", -1, "frame_index -1 is outside 1..4"),
        ("confidence", True, "confidence True is not a number"),
        ("confidence", "0.9", "confidence '0.9' is not a number"),
        ("box", ["1", "2", "30", "40"], "box coordinate '1' is not a number"),
        ("box", [0, 0, True, 2], "box coordinate True is not a number"),
    ], ids=["frame-1.5", "frame-2.0", "frame-string", "frame-true", "frame-0", "frame-negative",
            "confidence-true", "confidence-string", "box-strings", "box-true"])
    def test_detection(self, tmp_path, field, value, reason):
        got = self._detection_error(tmp_path, **{field: value})
        assert got == f"bad detection record: {reason}"

    @pytest.mark.parametrize("field, value, reason", [
        ("frame_index", "x", "frame_index 'x' is not an integer"),
        ("box", ["1", "2", "30", "40"], "box coordinate '1' is not a number"),
        ("confidence", "0.1", "confidence '0.1' is not a number"),
    ], ids=["frame-string", "box-strings", "confidence-string"])
    def test_a_type_error_stops_a_detection_below_the_floor(self, tmp_path, field, value,
                                                            reason):
        got = self._detection_error(tmp_path, 0.5, **dict({"confidence": 0.1}, **{field: value}))
        assert got == f"bad detection record: {reason}"

    def test_a_detection_below_the_floor_is_checked_for_its_frame(self, tmp_path):
        got = self._detection_error(tmp_path, 0.5, frame_index=-3, confidence=0.1)
        assert got == "bad detection record: frame_index -3 is outside 1..4"

    def test_integer_numbers_load_as_floats(self, tmp_path):
        path = tmp_path / "d.ndjson"
        path.write_text(json.dumps(dict(self.DETECTION, confidence=1)) + "\n")
        (det,) = load_detections(path, 0.2, 4)
        assert repr(det.box) == "BoundingBox(x1=0.0, y1=0.0, x2=2.0, y2=2.0)"
        assert repr(det.confidence) == "1.0"

    @pytest.mark.parametrize("field, value, reason", [
        ("frame_ids", "abc", "frame_ids 'abc' is not a list"),
        ("frame_ids", {"f1": 1}, "frame_ids {'f1': 1} is not a list"),
        ("fps", True, "fps True is not a number"),
        ("fps", "24", "fps '24' is not a number"),
        ("fps", [24], "fps [24] is not a number"),
    ], ids=["frame-ids-string", "frame-ids-object", "fps-true", "fps-string", "fps-list"])
    def test_manifest(self, tmp_path, field, value, reason):
        record = {"video_id": "v", "frame_ids": ["f1"], "fps": 24, "caption": "A person sits."}
        path = tmp_path / "manifest.ndjson"
        path.write_text(json.dumps(dict(record, video_id="u")) + "\n"
                        + json.dumps(dict(record, **{field: value})) + "\n")
        with pytest.raises(MalformedRecord) as err:
            load_manifests(path)
        assert (err.value.line_number, err.value.reason) == (2, f"bad manifest record: {reason}")


# ---------------------------------------------------------------------------
# Manifest and detection lines against a decode of the README's rules

# What a number field may hold instead: integers, floats, booleans, numeric
# strings and lists.
_ANY_NUMBER = st.one_of(
    st.integers(-2, 5), st.just(10**400),
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, 2.5, math.nan, math.inf, -math.inf]),
    st.booleans(), st.sampled_from(["1", "2", "0.5", "nan"]),
    st.lists(st.integers(0, 3), max_size=2),
)


def _number(value) -> float:
    """A number field by the README's rule: an integer or a float, never a
    boolean, a string or a list."""
    if type(value) not in (int, float):
        raise ValueError(f"{value!r} is not a number")
    return float(value)  # OverflowError for an integer too large for a float


@st.composite
def _manifest_lines(draw):
    """A manifest record, maybe with one of its frame ids, its ``frame_ids``
    or its ``fps`` drawn from the values a lax loader would convert."""
    record = {
        "video_id": draw(st.sampled_from(["a", "b", "c", "d", "e"])),
        "frame_ids": draw(st.lists(st.sampled_from(["f1", "f2", "1"]), min_size=1, max_size=3)),
        "fps": draw(st.sampled_from([24, 2.5, 29.97])),
        "caption": draw(st.sampled_from(["A person sits.", "A person waves.", " "])),
    }
    spoil = draw(st.sampled_from([None, None, None, "frame_ids", "frame id", "fps"]))
    if spoil == "frame_ids":
        record["frame_ids"] = draw(
            st.text("f1", max_size=3)
            | st.dictionaries(st.sampled_from(["f1", "f2"]), st.integers(0, 2), max_size=2)
            | st.lists(_ANY_NUMBER, max_size=3))
    elif spoil == "frame id":
        record["frame_ids"].append(draw(_ANY_NUMBER))
    elif spoil == "fps":
        record["fps"] = draw(_ANY_NUMBER)
    return record


def _reference_manifest(record) -> VideoManifest:
    """One manifest record by the README's rules: ``frame_ids`` a list of at
    least one id (each read with ``str``), none repeated, a caption that is
    not blank, and ``fps`` a positive, finite number."""
    frame_ids = record["frame_ids"]
    if type(frame_ids) is not list:
        raise ValueError("frame_ids is not a list")
    frame_ids = tuple(str(f) for f in frame_ids)
    fps = _number(record["fps"])
    if not frame_ids or len(set(frame_ids)) != len(frame_ids):
        raise ValueError("no frame ids, or a repeated one")
    if not str(record["caption"]).strip() or not 0.0 < fps < math.inf:
        raise ValueError("blank caption, or fps not positive and finite")
    return VideoManifest(str(record["video_id"]), frame_ids, fps, str(record["caption"]))


@st.composite
def _detection_lines(draw):
    """A detection record on frames 1..3, maybe with its frame index, its
    box, one box coordinate or its confidence drawn from ``_ANY_NUMBER``."""
    x1, y1 = draw(st.sampled_from([0, -0.0, 1, 2.5])), draw(st.sampled_from([0, 0.0, 3]))
    w, h = draw(st.sampled_from([1, 4.5])), draw(st.sampled_from([2, 0.5]))
    record = {
        "frame_index": draw(st.integers(1, 3)),
        "entity_class": draw(st.sampled_from(["person", "cup"])),
        "box": [x1, y1, x1 + w, y1 + h],
        "confidence": draw(st.sampled_from([0.1, 0.3, 0.9, 1, math.nan])),
    }
    spoil = draw(st.sampled_from(
        [None, None, None, None, "frame_index", "box", "coordinate", "confidence"]))
    if spoil == "coordinate":
        record["box"][draw(st.integers(0, 3))] = draw(_ANY_NUMBER)
    elif spoil == "box":
        record["box"] = draw(_ANY_NUMBER | st.lists(_ANY_NUMBER, min_size=3, max_size=5))
    elif spoil:
        record[spoil] = draw(_ANY_NUMBER)
    return record


def _reference_detection(record, floor: float, num_frames: int) -> Optional[Detection]:
    """One detection record by the README's rules, None if it is dropped: on
    every line an integer frame index in 1..``num_frames``, a box of four
    numbers with finite, non-negative corners, ``x1 < x2`` and ``y1 < y2``,
    and a number confidence in [0, 1]; then a line under the floor is
    dropped."""
    frame = record["frame_index"]
    if type(frame) is not int:
        raise ValueError(f"frame_index {frame!r} is not an integer")
    box = record["box"]
    if type(box) is not list or len(box) != 4:
        raise ValueError(f"box {box!r} is not four numbers")
    x1, y1, x2, y2 = (_number(c) for c in box)
    confidence = _number(record["confidence"])
    if not (1 <= frame <= num_frames and 0.0 <= x1 < x2 < math.inf
            and 0.0 <= y1 < y2 < math.inf and 0.0 <= confidence <= 1.0):
        raise ValueError("out of range")
    if confidence < floor:
        return None
    return Detection(frame, str(record["entity_class"]), BoundingBox(x1, y1, x2, y2), confidence)


def _reference_load(records, decode):
    """(decoded values, None) for a file of ``records``, or (None, the
    number of the first line ``decode`` rejects)."""
    values = []
    for line_no, record in enumerate(records, start=1):
        try:
            values.append(decode(record))
        except (ValueError, OverflowError):
            return None, line_no
    return values, None


def _loaded(load, path):
    try:
        return load(path), None
    except MalformedRecord as e:
        assert e.path == str(path)
        return None, e.line_number


@given(records=st.lists(_manifest_lines(), max_size=6))
@settings(max_examples=300, deadline=None)
def test_manifest_lines_load_as_the_readme_rules_decode_them(mutation_file, records):
    mutation_file.write_text("".join(json.dumps(r) + "\n" for r in records))
    seen = set()

    def decode(record):
        manifest = _reference_manifest(record)
        if manifest.video_id in seen:
            raise ValueError("repeated video id")
        seen.add(manifest.video_id)
        return manifest

    manifests, line = _reference_load(records, decode)
    want = (sorted(manifests, key=lambda m: m.video_id) if manifests is not None else None, line)
    # repr tells an int fps from a float one, as == does not.
    assert repr(_loaded(load_manifests, mutation_file)) == repr(want)


@given(records=st.lists(_detection_lines(), max_size=6),
       floor=st.sampled_from([0.0, 0.2, 0.5]))
@settings(max_examples=300, deadline=None)
def test_detection_lines_load_as_the_readme_rules_decode_them(mutation_file, records, floor):
    mutation_file.write_text("".join(json.dumps(r) + "\n" for r in records))
    detections, line = _reference_load(records, lambda r: _reference_detection(r, floor, 3))
    want = ([d for d in detections if d is not None] if detections is not None else None, line)
    # repr tells -0.0 from 0.0 and an int from a float, as == does not.
    assert repr(_loaded(lambda p: load_detections(p, floor, 3), mutation_file)) == repr(want)


def _verdict(load, path):
    """(None, None) if ``load`` accepts the file at ``path``, else the line
    and reason of its ``MalformedRecord``."""
    try:
        load(path)
    except MalformedRecord as e:
        return e.line_number, e.reason
    return None, None


@given(records=st.lists(_detection_lines(), max_size=6),
       floors=st.lists(st.sampled_from([0.0, 0.05, 0.2, 0.5, 1.0]), min_size=2, max_size=2))
@settings(max_examples=300, deadline=None)
def test_a_detection_file_has_one_verdict_at_every_floor(mutation_file, records, floors):
    mutation_file.write_text("".join(json.dumps(r) + "\n" for r in records))
    # Two frames, so that the drawn frame 3 is out of range.
    first, second = (_verdict(lambda p: load_detections(p, floor, 2), mutation_file)
                     for floor in floors)
    assert first == second
