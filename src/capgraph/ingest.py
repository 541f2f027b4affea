"""Bit-exact file formats and loaders.

Dataset layout under a root directory:

    manifest.ndjson                      one video manifest per line
    embeddings/<video_id>.frames.nlve    frame embeddings (binary, see below)
    embeddings/<video_id>.sentences.nlve sentence embeddings, produced after
                                         caption segmentation and re-ingested
    detections/<video_id>.ndjson         one detection per line

NLVE binary layout: magic bytes ``NLVE``, little-endian u32 dim, u32 row
count, then each row id as u32 byte length + UTF-8 bytes, then all rows as
little-endian float32, row-major. Every value must be finite. The functions
that read and write it import numpy where they run, so that ``eval`` and
``stats``, which read only NDJSON, never load it.

Scene graph NDJSON: one triplet per line with its video id and frame index,
sorted by ``triplet_sort_key`` (video id, frame index, classes, boxes, score,
provenance) so equal inputs always produce byte-identical files. A graph file
is read once, line by line (``graph_triplets``): ``plm`` keeps only each
video's object classes, and ``load_frame_triplets`` groups the lines into
frames, which ``eval`` scores and ``load_scene_graphs`` groups into one graph
per video.

Every NDJSON file is read by ``read_records``, which decodes each line to the
value ``json.loads`` gives it and rejects a line with ``json.loads``' reason.
"""

from __future__ import annotations

import gc
import io
import json
import math
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, TypeVar

from .core import (
    BoundingBox,
    Detection,
    EmbeddingMatrix,
    FrameTriplets,
    GroundingTable,
    SceneGraph,
    SegmentedSentence,
    Triplet,
    VideoManifest,
    sorted_frames,
    triplet_sort_key,
)
from .errors import DimensionMismatch, IoFailure, MalformedRecord, read_failure

_NLVE_MAGIC = b"NLVE"
T = TypeVar("T")


@dataclass
class IngestConfig:
    """Loader knobs; the confidence floor matches the detector's 0.2 default."""

    confidence_floor: float = 0.2

    def __post_init__(self):
        if not 0.0 <= self.confidence_floor <= 1.0:
            raise ValueError("confidence_floor must lie in [0, 1]")


@dataclass
class DatasetBundle:
    """What ``load_video`` read for one chunk of a dataset root's videos
    (``pipeline.video_chunks``), or for all of them (``load_bundle``)."""

    manifests: List[VideoManifest] = field(default_factory=list)
    embeddings: Dict[str, EmbeddingMatrix] = field(default_factory=dict)
    sentence_embeddings: Dict[str, EmbeddingMatrix] = field(default_factory=dict)
    detections: Dict[str, GroundingTable] = field(default_factory=dict)

    def add(
        self,
        manifest: VideoManifest,
        frames: EmbeddingMatrix,
        sentences: Optional[EmbeddingMatrix],
        table: GroundingTable,
    ) -> None:
        """Add one video's manifest and what ``load_video`` read for it."""
        video_id = manifest.video_id
        self.manifests.append(manifest)
        self.embeddings[video_id] = frames
        if sentences is not None:
            self.sentence_embeddings[video_id] = sentences
        self.detections[video_id] = table

    def manifest_for(self, video_id: str) -> VideoManifest:
        for m in self.manifests:
            if m.video_id == video_id:
                return m
        raise KeyError(video_id)


# ---------------------------------------------------------------------------
# NLVE embedding files


def write_embeddings(matrix: EmbeddingMatrix, path) -> None:
    import numpy as np

    path = Path(path)
    buf = io.BytesIO()
    buf.write(_NLVE_MAGIC)
    buf.write(struct.pack("<II", matrix.dim, len(matrix)))
    for row_id in matrix.row_ids:
        raw = row_id.encode("utf-8")
        buf.write(struct.pack("<I", len(raw)))
        buf.write(raw)
    buf.write(np.ascontiguousarray(matrix.rows, dtype="<f4").tobytes())
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(buf.getvalue())
    except OSError as e:
        raise IoFailure(f"cannot write {path}: {e}") from e


def read_embeddings(path) -> EmbeddingMatrix:
    import numpy as np

    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as e:
        raise read_failure(path, e) from e
    view = memoryview(data)
    if data[:4] != _NLVE_MAGIC:
        raise MalformedRecord(path, 0, "bad magic bytes, not an NLVE file")
    try:
        dim, count = struct.unpack_from("<II", view, 4)
        offset = 12
        row_ids = []
        for index in range(count):
            (n,) = struct.unpack_from("<I", view, offset)
            offset += 4
            try:
                row_ids.append(bytes(view[offset : offset + n]).decode("utf-8"))
            except UnicodeDecodeError as e:
                raise MalformedRecord(path, 0, f"row {index} id is not UTF-8: {e.reason}") from e
            offset += n
        expected = count * dim * 4
        if len(data) - offset != expected:
            raise DimensionMismatch(
                f"{path}: declared {count} rows of dim {dim} "
                f"({expected} bytes) but found {len(data) - offset} bytes"
            )
        rows = np.frombuffer(data, dtype="<f4", count=count * dim, offset=offset)
    except struct.error as e:
        raise MalformedRecord(path, 0, f"truncated NLVE file: {e}") from e
    rows = rows.reshape(count, dim)
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        row_id = row_ids[int(np.argmin(finite))]
        raise MalformedRecord(path, 0, f"row {row_id!r} holds a non-finite value")
    return EmbeddingMatrix(row_ids, rows)


# ---------------------------------------------------------------------------
# NDJSON helpers


def _dump_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def json_object(value) -> dict:
    """``value`` if it is a JSON object, else ``TypeError``."""
    if not isinstance(value, dict):
        raise TypeError(f"expected a JSON object, got {type(value).__name__}")
    return value


_raw_decode = json.JSONDecoder().raw_decode


def read_records(path, what: str, decode: Callable[[dict], T]) -> Iterator[Tuple[int, T]]:
    """Yield ``(line number, decode(record))`` for each non-blank NDJSON line.

    Lines are decoded as they are read, each to the value ``json.loads`` gives
    it. A line that is not UTF-8, not JSON, not a JSON object, or that
    ``decode`` rejects raises ``MalformedRecord`` naming the file and line,
    with ``json.loads``' reason for a line that is not JSON; a file that cannot
    be opened or read raises ``read_failure``'s error naming it.
    """
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    # A stripped line starts with its value, so decoding it
                    # whole is json.loads without the whitespace scans.
                    record, end = _raw_decode(line)
                    if end != len(line):
                        raise json.JSONDecodeError("Extra data", line, end)
                    value = decode(json_object(record))
                except (LookupError, TypeError, ValueError, OverflowError, RecursionError) as e:
                    raise MalformedRecord(path, line_no, _reason(e, line, what)) from e
                yield line_no, value
    except UnicodeDecodeError as e:
        # Raised while reading ahead, so the line is found on a second pass.
        line_no = _first_undecodable_line(path)
        raise MalformedRecord(path, line_no, f"not UTF-8: {e.reason}") from e
    except OSError as e:
        raise read_failure(path, e) from e


def _reason(error: Exception, line: str, what: str) -> str:
    if not isinstance(error, json.JSONDecodeError):
        return f"bad {what} record: {error}"
    if line[0] == "\ufeff":  # json.loads checks for a BOM before it decodes
        return "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"
    return f"invalid JSON: {error.msg}"


def _first_undecodable_line(path: Path) -> int:
    """Number of the first line of ``path`` (counted as ``read_records``
    counts them) that is not UTF-8, or 0 if every line is."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                return line_no
    return 0


class NdjsonWriter:
    """An NDJSON file opened for writing and filled one batch of lines at a
    time, so that a run can stream its outputs; closed at the end of its
    ``with`` block. An ``OSError`` raises ``IoFailure`` naming the file."""

    def __init__(self, path):
        self.path = Path(path)
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "w", encoding="utf-8", newline="\n")
        except OSError as e:
            raise self._failure(e) from e

    def _failure(self, error: OSError) -> IoFailure:
        return IoFailure(f"cannot write {self.path}: {error}")

    def write(self, lines: Iterable[str]) -> None:
        """Append ``lines``, each followed by a newline."""
        try:
            for line in lines:
                self._fh.write(line)
                self._fh.write("\n")
        except OSError as e:
            raise self._failure(e) from e

    def __enter__(self) -> "NdjsonWriter":
        return self

    def __exit__(self, *exc) -> None:
        try:
            self._fh.close()
        except OSError as e:
            raise self._failure(e) from e


def _write_ndjson(lines: Iterable[str], path) -> None:
    with NdjsonWriter(path) as out:
        out.write(lines)


def record_lines(records: Iterable[dict]) -> Iterator[str]:
    """Dict records as canonical NDJSON lines, in the given order."""
    return (_dump_line(r) for r in records)


def write_record_lines(records: Iterable[dict], path) -> None:
    """Write dict records as canonical NDJSON in the given order."""
    _write_ndjson(record_lines(records), path)


# ---------------------------------------------------------------------------
# Manifests


def write_manifests(manifests: Sequence[VideoManifest], path) -> None:
    ordered = sorted(manifests, key=lambda m: m.video_id)
    _write_ndjson((_dump_line(m.to_dict()) for m in ordered), path)


def _checked_manifest(record: dict) -> VideoManifest:
    """The manifest a record holds, if every stage can run on it: at least one
    frame, no repeated frame id, a caption that is not blank and a positive,
    finite fps. Otherwise raises ``ValueError`` naming the first that fails."""
    manifest = VideoManifest.from_dict(record)
    if not manifest.frame_ids:
        raise ValueError("frame_ids is empty")
    if len(set(manifest.frame_ids)) != manifest.num_frames:
        raise ValueError("duplicate frame ids")
    if not manifest.caption.strip():
        raise ValueError("caption is empty")
    if not 0.0 < manifest.fps < math.inf:
        raise ValueError(f"fps {manifest.fps} is not a positive finite number")
    return manifest


def load_manifests(path) -> List[VideoManifest]:
    """Manifests sorted by video id; a record ``_checked_manifest`` rejects, or
    a repeated video id, raises ``MalformedRecord`` naming its line."""
    manifests = []
    seen = set()
    for line_no, manifest in read_records(path, "manifest", _checked_manifest):
        if manifest.video_id in seen:
            raise MalformedRecord(path, line_no, f"duplicate video id {manifest.video_id!r}")
        seen.add(manifest.video_id)
        manifests.append(manifest)
    manifests.sort(key=lambda m: m.video_id)
    return manifests


# ---------------------------------------------------------------------------
# Detections


def load_detections(path, confidence_floor: float, num_frames: int) -> List[Detection]:
    """One video's detections at or above ``confidence_floor``, in file order.

    A kept detection must lie on a frame in 1..``num_frames`` and have a valid
    box and a confidence in [0, 1]; one that does not raises
    ``MalformedRecord`` naming its line. Detections under the floor (a NaN
    confidence is under any floor) are dropped unchecked.
    """

    def kept(record: dict) -> Optional[Detection]:
        det = Detection.from_dict(record)
        if not det.confidence >= confidence_floor:
            return None
        if not 1 <= det.frame_index <= num_frames:
            raise ValueError(f"frame_index {det.frame_index} is outside 1..{num_frames}")
        if not det.box.is_valid():
            raise ValueError(
                f"box {det.box.to_list()} of {det.entity_class!r} is not finite, "
                "non-negative and of positive width and height"
            )
        if not 0.0 <= det.confidence <= 1.0:
            raise ValueError(f"confidence {det.confidence} is outside [0, 1]")
        return det

    return [det for _, det in read_records(path, "detection", kept) if det is not None]


def _detection_order(d: Detection) -> tuple:
    return (d.frame_index, d.entity_class, d.box, -d.confidence)


def grounding_table(detections: Iterable[Detection]) -> GroundingTable:
    """One video's detections as the table ``parse.ground_pair`` reads: for
    each frame and entity class, the boxes of the class's best two detections
    on the frame (or its one), best first. Higher confidence ranks first, then
    larger area, then the lower box, with a ``-0.0`` corner below ``0.0``
    (which compare equal); no role takes a third. The table never depends on
    the order of ``detections``.
    """
    groups: Dict[Tuple[int, str], List[Detection]] = {}
    for det in detections:
        groups.setdefault((det.frame_index, det.entity_class), []).append(det)
    table: GroundingTable = {}
    for (frame, entity_class), group in groups.items():
        if len(group) == 1:  # the common case, kept off the sort
            boxes = (group[0].box,)
        else:
            group.sort(key=lambda d: (
                -d.confidence, -d.box.area, d.box,
                # Boxes tied on the above differ at most in the sign of a zero.
                [math.copysign(1.0, c) for c in d.box] if 0.0 in d.box else [],
            ))
            boxes = (group[0].box, group[1].box)
        table.setdefault(frame, {})[entity_class] = boxes
    return table


def write_detections(detections: Sequence[Detection], path) -> None:
    ordered = sorted(detections, key=_detection_order)
    _write_ndjson((_dump_line(d.to_dict()) for d in ordered), path)


# ---------------------------------------------------------------------------
# Scene graphs (also used for pseudo-label and prediction files)


def scene_graph_lines(graphs: Sequence[SceneGraph]) -> Iterator[str]:
    """The graphs' triplets as NDJSON lines, one triplet a line, in a stable
    total order: ``triplet_sort_key``, which orders by video id first, so the
    lines of graphs of distinct videos, taken in video-id order, are the
    lines of all of them. Each line is made as it is read."""
    rows = [(graph.video_id, t) for graph in graphs for t in graph.all_triplets()]
    rows.sort(key=lambda row: triplet_sort_key(*row))
    for video_id, t in rows:
        record = t.to_dict()
        record["video_id"] = video_id
        yield _dump_line(record)


def write_scene_graphs(graphs: Sequence[SceneGraph], path) -> None:
    """Write graphs as ``scene_graph_lines``: equal input graphs produce
    byte-identical files."""
    _write_ndjson(scene_graph_lines(graphs), path)


def _shared_boxes() -> Callable[[Sequence[float]], BoundingBox]:
    """A box factory that returns one object for equal coordinate lists.

    Sharing is bit-exact: equal ints and floats convert to the same float,
    and a NaN read from one line never equals one read from another. Boxes
    with a zero coordinate are never shared, since ``-0.0 == 0.0`` would let
    one stand in for the other.
    """
    boxes: Dict[tuple, BoundingBox] = {}

    def box(values: Sequence[float]) -> BoundingBox:
        try:
            key = tuple(values)
            found = boxes.get(key)
        except TypeError:  # not a flat list of numbers: let from_list say why
            return BoundingBox.from_list(values)
        if found is None:
            found = BoundingBox.from_list(values)
            if 0 not in key:
                boxes[key] = found
        return found

    return box


@contextmanager
def _cyclic_gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector, if it runs, for the block.

    A loader that keeps every record makes the collector scan the growing
    heap over and over, though the triplets it keeps hold no reference
    cycles: on eval's 76,000 graph lines those scans took 8-9% of the run.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def graph_triplets(path) -> Iterator[Tuple[str, Triplet]]:
    """Each line of a graph file as its video id and triplet, in file order.
    Every triplet must be localized (both boxes set). Equal boxes within the
    file are one shared (immutable) object."""
    box = _shared_boxes()
    rows = read_records(path, "graph", lambda r: (str(r["video_id"]), Triplet.from_dict(r, box)))
    for line_no, (video_id, triplet) in rows:
        if not triplet.is_localized:
            raise MalformedRecord(path, line_no, "graph triplet is not localized (null box)")
        yield video_id, triplet


def load_frame_triplets(path) -> FrameTriplets:
    """Read a graph file (``graph_triplets``) straight into its frames:
    (video id, frame index) -> the frame's triplets, in (video id, frame
    index) order. Each frame is in ``triplet_sort_key`` order
    (``sorted_frames``).
    """
    by_video: Dict[str, List[Triplet]] = {}
    with _cyclic_gc_paused():
        for video_id, triplet in graph_triplets(path):
            by_video.setdefault(video_id, []).append(triplet)
    frames: FrameTriplets = {}
    for video_id in sorted(by_video):
        for frame, triplets in sorted_frames(video_id, by_video[video_id]).items():
            frames[video_id, frame] = triplets
    return frames


def load_scene_graphs(path) -> List[SceneGraph]:
    """``load_frame_triplets`` as one ``SceneGraph`` per video, sorted by
    video id. No command calls it; the benchmark (``bench/``) and tests do."""
    per_video: Dict[str, Dict[int, Tuple[Triplet, ...]]] = {}
    for (video_id, frame), triplets in load_frame_triplets(path).items():
        per_video.setdefault(video_id, {})[frame] = tuple(triplets)
    return [SceneGraph(video_id, per_frame) for video_id, per_frame in per_video.items()]


# ---------------------------------------------------------------------------
# Segmented sentences (intermediate artifact between stages)


def sentence_lines(video_id: str, sentences: Sequence[SegmentedSentence]) -> Iterator[str]:
    """One video's sentences as NDJSON lines, in order."""
    for s in sorted(sentences, key=lambda s: s.order_index):
        record = s.to_dict()
        record["video_id"] = video_id
        yield _dump_line(record)


def write_sentences(sentences_by_video: Dict[str, List[SegmentedSentence]], path) -> None:
    _write_ndjson(
        (line for video_id in sorted(sentences_by_video)
         for line in sentence_lines(video_id, sentences_by_video[video_id])),
        path,
    )


def _checked_sentence(record: dict) -> Tuple[str, SegmentedSentence]:
    """The video id and sentence a record holds, if its text is not blank and
    its frames, if aligned, are ``1 <= lo <= hi``; else ``ValueError``."""
    sentence = SegmentedSentence.from_dict(record)
    if not sentence.text.strip():
        raise ValueError("text is empty")
    interval = sentence.aligned_frames
    if interval and not 1 <= interval[0] <= interval[1]:
        raise ValueError(f"aligned_frames {list(interval)} is not 1 <= lo <= hi")
    return str(record["video_id"]), sentence


def load_sentences(path) -> Dict[str, List[SegmentedSentence]]:
    """Sentences by video id, in order; a record ``_checked_sentence``
    rejects raises ``MalformedRecord`` naming its line."""
    out: Dict[str, List[SegmentedSentence]] = {}
    for _, (video_id, sentence) in read_records(path, "sentence", _checked_sentence):
        out.setdefault(video_id, []).append(sentence)
    for sentences in out.values():
        sentences.sort(key=lambda s: s.order_index)
    return out


# ---------------------------------------------------------------------------
# Parsed (unlocalized) triplets keyed by sentence


def write_parsed_triplets(
    rows: Sequence[Tuple[str, int, Triplet]], path
) -> None:
    """Write (video_id, order_index, triplet) rows in a stable order."""
    keyed = []
    for video_id, order_index, triplet in rows:
        record = triplet.to_dict()
        record["video_id"] = video_id
        record["order_index"] = order_index
        keyed.append(((video_id, order_index) + triplet.classes(), _dump_line(record)))
    keyed.sort(key=lambda pair: pair[0])
    _write_ndjson((line for _, line in keyed), path)


def load_parsed_triplets(path) -> List[Tuple[str, int, Triplet]]:
    rows = [
        row
        for _, row in read_records(
            path,
            "parsed-triplet",
            lambda r: (str(r["video_id"]), int(r["order_index"]), Triplet.from_dict(r)),
        )
    ]
    rows.sort(key=lambda r: (r[0], r[1], r[2].classes()))
    return rows


# ---------------------------------------------------------------------------
# Bundle loading


def _check_unit_rows(path, matrix: EmbeddingMatrix) -> None:
    """Raise ``MalformedRecord`` naming ``path`` and the row of the normalized
    ``matrix`` farthest from unit length, unless every row is a unit vector."""
    if not matrix.is_normalized():
        import numpy as np

        norms = np.linalg.norm(matrix.rows, axis=1)
        row_id = matrix.row_ids[int(np.argmax(np.abs(norms - 1.0)))]
        raise MalformedRecord(
            path, 0, f"row {row_id!r} cannot be L2-normalized: its float32 length is zero, "
            "or too small or too large to compute"
        )


def _check_frame_rows(path, matrix: EmbeddingMatrix, manifest: VideoManifest) -> None:
    """Raise ``MalformedRecord`` naming ``path`` unless the normalized frame
    embeddings hold one unit row per frame, with the manifest's frame ids in
    order."""
    if len(matrix) != manifest.num_frames:
        raise MalformedRecord(
            path, 0, f"{len(matrix)} rows for the {manifest.num_frames} frames of "
            f"video {manifest.video_id!r}"
        )
    if matrix.row_ids != manifest.frame_ids:
        index = next(i for i, (a, b) in enumerate(zip(matrix.row_ids, manifest.frame_ids))
                     if a != b)
        raise MalformedRecord(
            path, 0, f"row id {matrix.row_ids[index]!r} is not the id of frame "
            f"{index + 1}, {manifest.frame_ids[index]!r}"
        )
    _check_unit_rows(path, matrix)


def load_video(
    root, manifest: VideoManifest, config: IngestConfig
) -> Tuple[EmbeddingMatrix, Optional[EmbeddingMatrix], GroundingTable]:
    """One video's frame embeddings, its sentence embeddings (None if it has
    no file) and its grounding table, read from the dataset ``root``, or the
    first error that names the file (and line) that breaks an invariant.

    Beyond each record's own checks (``read_embeddings``,
    ``load_detections``), the frame embeddings must hold one unit row per
    frame with the manifest's frame ids in order, and the sentence
    embeddings unit rows of the frames' dimension. Detections below the
    confidence floor are dropped, and the kept ones are held as the video's
    ``grounding_table``, which ranks them by one key of their own, so line
    order inside the input files never affects the result.
    """
    root = Path(root)
    video_id = manifest.video_id
    frames_path = root / "embeddings" / f"{video_id}.frames.nlve"
    frames = read_embeddings(frames_path).normalized()
    if frames.dim <= 0:
        raise DimensionMismatch(f"{frames_path}: dimension must be positive")
    _check_frame_rows(frames_path, frames, manifest)

    sentences = None
    sentences_path = root / "embeddings" / f"{video_id}.sentences.nlve"
    if sentences_path.exists():
        sentences = read_embeddings(sentences_path).normalized()
        if sentences.dim != frames.dim:
            raise DimensionMismatch(
                f"{sentences_path}: sentence dim {sentences.dim} != frame dim {frames.dim}"
            )
        _check_unit_rows(sentences_path, sentences)

    table = grounding_table(load_detections(
        root / "detections" / f"{video_id}.ndjson", config.confidence_floor,
        manifest.num_frames,
    ))
    return frames, sentences, table


def load_bundle(root, config: Optional[IngestConfig] = None) -> DatasetBundle:
    """Load a dataset root into memory: its manifests (``load_manifests``)
    and each video's files (``load_video``), or raise the first error that
    names the file (and line) that breaks an invariant.

    No command calls it: every command that reads a dataset root streams it
    one chunk or one video at a time (``pipeline.video_chunks``). It is kept
    for the benchmark's traced pass (``bench/traced.py``), the package
    export and tests, until the benchmark runs the streamed pipeline."""
    config = config or IngestConfig()
    bundle = DatasetBundle()
    for manifest in load_manifests(Path(root) / "manifest.ndjson"):
        bundle.add(manifest, *load_video(root, manifest, config))
    return bundle
