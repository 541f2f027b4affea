"""Core datatypes shared by every pipeline stage.

Frame indices are 1-based everywhere. Boxes are axis-aligned corner boxes
(x1, y1, x2, y2) in pixels. Embedding rows are L2-normalized at ingestion so
cosine similarity reduces to a dot product. All types here are immutable
after construction and safe to share across threads.

``BoundingBox``, ``Detection`` and ``Triplet`` are tuples (``NamedTuple``),
the others frozen dataclasses: the loaders build one of each per record, and a
tuple costs a fraction of a frozen dataclass to construct. They compare and
hash field by field as the dataclasses did, and, being tuples, also equal a
plain tuple of the same values (``BoundingBox(0, 0, 1, 1) == (0, 0, 1, 1)``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from importlib import resources
from typing import (
    TYPE_CHECKING, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

if TYPE_CHECKING:
    import numpy as np


# ---------------------------------------------------------------------------
# Field rules: how a value read back from a file is checked. JSON's only
# integers are ints and its only other numbers floats; a boolean, a string or
# a float standing in for a number is rejected, never converted. Every number,
# interval and box a record holds is read by one of these rules.

_INTEGER_KINDS = {None: "an", 0: "a non-negative", 1: "a positive"}


def checked_int(field: str, value, least: Optional[int] = 0) -> int:
    """``value`` if it is an integer of at least ``least`` (0, 1, or None for
    any) and not a boolean, else ``ValueError`` naming ``field``: the rule
    for every count, frame index and order index a record holds."""
    if type(value) is not int or least is not None and value < least:
        raise ValueError(f"{field} {value!r} is not {_INTEGER_KINDS[least]} integer")
    return value


def checked_number(field: str, value) -> float:
    """``value`` as a float if it is a number (an integer or a float, not a
    boolean), else ``ValueError`` naming ``field``. An integer too large for
    a float raises ``OverflowError``."""
    if type(value) is float:
        return value
    if type(value) is not int:
        raise ValueError(f"{field} {value!r} is not a number")
    return float(value)


def checked_interval(field: str, interval) -> Optional[Tuple[int, int]]:
    """``interval`` as a (first, last) frame pair if it is null or a list of
    exactly two integers with ``1 <= first <= last``, else ``ValueError``
    naming ``field``."""
    if interval is None:
        return None
    if not (isinstance(interval, list) and len(interval) == 2
            and all(type(frame) is int for frame in interval)):
        raise ValueError(f"{field} {json.dumps(interval)} is not null or two integers")
    if not 1 <= interval[0] <= interval[1]:
        raise ValueError(f"{field} {interval} is not 1 <= lo <= hi")
    return tuple(interval)


class Provenance(str, Enum):
    """Where a triplet came from."""

    CAPTION = "caption"
    NEGATIVE_PSEUDO = "negative_pseudo"
    GROUND_TRUTH = "ground_truth"
    PREDICTION = "prediction"


class BoundingBox(NamedTuple):
    """Axis-aligned box in xyxy pixel coordinates.

    Construction is permissive: degenerate or out-of-range boxes must remain
    representable so that the loader can report them instead of crashing.
    ``is_valid()`` checks the invariants.
    """

    x1: float
    y1: float
    x2: float
    y2: float

    def is_valid(self) -> bool:
        """Finite, non-negative corners with positive width and height."""
        x1, y1, x2, y2 = self
        return 0.0 <= x1 < x2 < math.inf and 0.0 <= y1 < y2 < math.inf

    @property
    def area(self) -> float:
        x1, y1, x2, y2 = self
        w, h = x2 - x1, y2 - y1
        # max(0.0, w) * max(0.0, h), without the cost of two builtin calls.
        return (w if w > 0.0 else 0.0) * (h if h > 0.0 else 0.0)

    def to_list(self) -> List[float]:
        return [self.x1, self.y1, self.x2, self.y2]

    @classmethod
    def from_list(cls, values: Sequence[float]) -> "BoundingBox":
        """The box of four numbers (``checked_number``), as floats."""
        x1, y1, x2, y2 = values
        field = "box coordinate"
        return tuple.__new__(cls, (checked_number(field, x1), checked_number(field, y1),
                                   checked_number(field, x2), checked_number(field, y2)))


def box_overlap(a: BoundingBox, b: BoundingBox) -> Tuple[float, float]:
    """The intersection and union areas of two boxes; the union is
    ``a.area + b.area - intersection``."""
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    # min(u, v) is v only if v < u, and max(u, v) is v only if v > u: the
    # conditionals give the builtins' results without their call cost, which
    # was most of eval's matching time.
    w = (bx2 if bx2 < ax2 else ax2) - (bx1 if bx1 > ax1 else ax1)
    h = (by2 if by2 < ay2 else ay2) - (by1 if by1 > ay1 else ay1)
    inter = 0.0 if w <= 0 or h <= 0 else w * h
    return inter, a.area + b.area - inter


def box_iou(a: BoundingBox, b: BoundingBox) -> float:
    """Plain intersection-over-union of two valid boxes."""
    inter, union = box_overlap(a, b)
    if union <= 0:
        return 0.0
    return inter / union


class Detection(NamedTuple):
    """One detector output box for a single frame (1-based frame index)."""

    frame_index: int
    entity_class: str
    box: BoundingBox
    confidence: float

    def to_dict(self) -> dict:
        return {
            "frame_index": self.frame_index,
            "entity_class": self.entity_class,
            "box": self.box.to_list(),
            "confidence": self.confidence,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Detection":
        """The detection a record holds: its ``frame_index`` an integer
        (``checked_int``; ``load_detections`` checks the range), its box and
        ``confidence`` numbers (``checked_number``), else ``ValueError``."""
        return tuple.__new__(cls, (
            checked_int("frame_index", d["frame_index"], least=None),
            str(d["entity_class"]),
            BoundingBox.from_list(d["box"]),
            checked_number("confidence", d["confidence"]),
        ))


# One video's detections as ``ingest.grounding_table`` ranks them: frame index
# -> entity class -> the boxes of the class's best one or two, best first.
GroundingTable = Dict[int, Dict[str, Tuple[BoundingBox, ...]]]


@dataclass(frozen=True)
class VideoManifest:
    """A video: its id, ordered frame ids (length T), fps and caption."""

    video_id: str
    frame_ids: Tuple[str, ...]
    fps: float
    caption: str

    @property
    def num_frames(self) -> int:
        return len(self.frame_ids)

    def to_dict(self) -> dict:
        return {
            "video_id": self.video_id,
            "frame_ids": list(self.frame_ids),
            "fps": self.fps,
            "caption": self.caption,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "VideoManifest":
        """The manifest a record holds: its ``frame_ids`` a list and its
        ``fps`` a number (``checked_number``), else ``ValueError``."""
        video_id, frame_ids = str(d["video_id"]), d["frame_ids"]
        if type(frame_ids) is not list:
            raise ValueError(f"frame_ids {frame_ids!r} is not a list")
        return cls(video_id, tuple(str(f) for f in frame_ids), checked_number("fps", d["fps"]),
                   str(d["caption"]))


_PARTITION_BUCKETS = ("attention", "spatial", "contacting")


@dataclass(frozen=True)
class Vocabulary:
    """Closed entity/action class sets with the action-type partition.

    ``action_partition`` must cover every action class exactly once and
    ``negative_classes`` must be a subset of the action classes.
    """

    entity_classes: frozenset
    action_classes: frozenset
    action_partition: Mapping[str, str]
    negative_classes: frozenset = frozenset()

    def __post_init__(self):
        if set(self.action_partition) != set(self.action_classes):
            raise ValueError("action_partition must cover every action class exactly once")
        bad = {b for b in self.action_partition.values() if b not in _PARTITION_BUCKETS}
        if bad:
            raise ValueError(f"unknown partition buckets: {sorted(bad)}")
        if not self.negative_classes <= self.action_classes:
            raise ValueError("negative_classes must be a subset of action_classes")

    @classmethod
    def from_dict(cls, d: dict) -> "Vocabulary":
        partition = dict(d["action_partition"])
        return cls(
            entity_classes=frozenset(d["entity_classes"]),
            action_classes=frozenset(partition),
            action_partition=partition,
            negative_classes=frozenset(d.get("negative_classes", [])),
        )

    @classmethod
    def action_genome(cls) -> "Vocabulary":
        """The bundled Action Genome vocabulary (36 entities, 25 actions)."""
        text = resources.files("capgraph.assets").joinpath("ag_vocabulary.json").read_text()
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class SegmentedSentence:
    """One temporally ordered sentence with an optional aligned frame interval."""

    order_index: int
    text: str
    aligned_frames: Optional[Tuple[int, int]] = None

    def with_alignment(self, interval: Optional[Tuple[int, int]]) -> "SegmentedSentence":
        return SegmentedSentence(self.order_index, self.text, interval)

    def to_dict(self) -> dict:
        return {
            "order_index": self.order_index,
            "text": self.text,
            "aligned_frames": list(self.aligned_frames) if self.aligned_frames else None,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SegmentedSentence":
        """The sentence a record holds; its ``order_index`` must be a positive
        integer (``checked_int``) and its ``aligned_frames``, if present, null
        or two integers (``checked_interval``), else ``ValueError``."""
        return cls(
            order_index=checked_int("order_index", d["order_index"], 1),
            text=str(d["text"]),
            aligned_frames=checked_interval("aligned_frames", d.get("aligned_frames")),
        )


class _TripletFields(NamedTuple):
    subject_class: str
    predicate_class: str
    object_class: str
    subject_box: Optional[BoundingBox]
    object_box: Optional[BoundingBox]
    frame_index: Optional[int]
    score: Optional[float]
    provenance: Provenance


_PROVENANCE = {p.value: p for p in Provenance}


def provenance_of(value) -> Provenance:
    """``Provenance(value)``, with a known value found without the enum's
    call machinery."""
    try:
        return _PROVENANCE[value]
    except (KeyError, TypeError):  # not a known value: let Provenance say why
        return Provenance(value)


class Triplet(_TripletFields):
    """A subject/predicate/object with optional boxes, frame and score.

    A triplet is localized when both boxes are present, in which case
    ``frame_index`` is required.
    """

    __slots__ = ()

    def __new__(
        cls,
        subject_class: str,
        predicate_class: str,
        object_class: str,
        subject_box: Optional[BoundingBox] = None,
        object_box: Optional[BoundingBox] = None,
        frame_index: Optional[int] = None,
        score: Optional[float] = None,
        provenance: Provenance = Provenance.CAPTION,
    ) -> "Triplet":
        if subject_box is not None and object_box is not None and frame_index is None:
            raise ValueError("localized triplets require frame_index")
        return tuple.__new__(
            cls,
            (subject_class, predicate_class, object_class, subject_box, object_box,
             frame_index, score, provenance),
        )

    @property
    def is_localized(self) -> bool:
        return self.subject_box is not None and self.object_box is not None

    def classes(self) -> Tuple[str, str, str]:
        return (self.subject_class, self.predicate_class, self.object_class)

    def to_dict(self) -> dict:
        return {
            "subject_class": self.subject_class,
            "predicate_class": self.predicate_class,
            "object_class": self.object_class,
            "subject_box": self.subject_box.to_list() if self.subject_box else None,
            "object_box": self.object_box.to_list() if self.object_box else None,
            "frame_index": self.frame_index,
            "score": self.score,
            "provenance": self.provenance.value,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Triplet":
        """Build a triplet from its record. Fields convert in order, so the
        result, or the error, is ``Triplet(...)``'s. A ``frame_index`` must
        be null or a positive integer (``checked_int``), a ``score`` null or
        a number (``checked_number``), else ``ValueError``."""
        get = d.get
        subject_box, object_box = get("subject_box"), get("object_box")
        frame_index, score = get("frame_index"), get("score")
        return cls(
            str(d["subject_class"]),
            str(d["predicate_class"]),
            str(d["object_class"]),
            BoundingBox.from_list(subject_box) if subject_box else None,
            BoundingBox.from_list(object_box) if object_box else None,
            checked_int("frame_index", frame_index, 1) if frame_index is not None else None,
            checked_number("score", score) if score is not None else None,
            provenance_of(get("provenance", "caption")),
        )


def triplet_sort_key(video_id: str, t: Triplet):
    """Stable total order used for deterministic serialization."""
    subject, predicate, obj, subject_box, object_box, frame, score, provenance = t
    return (
        video_id,
        frame if frame is not None else 0,
        subject,
        predicate,
        obj,
        subject_box or (),
        object_box or (),
        score if score is not None else 0.0,
        provenance,
    )


# A graph file's triplets by frame: (video id, frame index) -> the frame's
# triplets, as ``ingest.load_frame_triplets`` reads them.
FrameTriplets = Dict[Tuple[str, int], List[Triplet]]


@dataclass(frozen=True)
class SceneGraph:
    """Per-frame localized triplets for one video.

    The video-level graph is the union of the per-frame graphs; every
    triplet's ``frame_index`` must match its map key.
    """

    video_id: str
    per_frame: Mapping[int, Tuple[Triplet, ...]] = field(default_factory=dict)

    def __post_init__(self):
        for frame, triplets in self.per_frame.items():
            for t in triplets:
                if t.frame_index != frame:
                    raise ValueError(
                        f"triplet frame_index {t.frame_index} does not match map key {frame}"
                    )

    def all_triplets(self) -> List[Triplet]:
        out: List[Triplet] = []
        for frame in sorted(self.per_frame):
            out.extend(self.per_frame[frame])
        return out

    def object_classes(self) -> frozenset:
        return frozenset(t.object_class for t in self.all_triplets())

    @classmethod
    def from_triplets(cls, video_id: str, triplets: Sequence[Triplet]) -> "SceneGraph":
        per_frame = sorted_frames(video_id, triplets)
        return cls(video_id=video_id, per_frame={f: tuple(ts) for f, ts in per_frame.items()})


def sorted_frames(video_id: str, triplets: Sequence[Triplet]) -> Dict[int, List[Triplet]]:
    """One video's triplets by frame index, in frame order, each frame in
    ``triplet_sort_key`` order.

    The video's triplets are sorted as one list, then split by frame: with
    NaN scores the key is only a partial order, so sorting each frame on its
    own could order a frame differently.
    """
    per_frame: Dict[int, List[Triplet]] = {}
    for t in sorted(triplets, key=partial(triplet_sort_key, video_id)):
        per_frame.setdefault(t.frame_index, []).append(t)
    return per_frame


class EmbeddingMatrix:
    """A dense block of row vectors keyed by string row ids.

    Rows share one dimensionality. After ingestion rows are expected to be
    L2-normalized (within 1e-6); ``normalized()`` enforces that. numpy is
    imported where it runs, so that loading this module does not load it.
    """

    def __init__(self, row_ids: Sequence[str], rows: np.ndarray):
        import numpy as np

        rows = np.asarray(rows, dtype=np.float32)
        if rows.ndim != 2:
            raise ValueError("rows must be a 2-D array")
        if len(row_ids) != rows.shape[0]:
            raise ValueError("row_ids and rows disagree on row count")
        self.row_ids: Tuple[str, ...] = tuple(str(r) for r in row_ids)
        self.rows = rows

    @property
    def dim(self) -> int:
        return int(self.rows.shape[1])

    def __len__(self) -> int:
        return int(self.rows.shape[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, EmbeddingMatrix):
            return NotImplemented
        import numpy as np

        return self.row_ids == other.row_ids and np.array_equal(self.rows, other.rows)

    def normalized(self) -> "EmbeddingMatrix":
        import numpy as np

        # A float32 length that overflows is an infinite norm, so the row is
        # not normalized and the loader names it; numpy need not warn first.
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(self.rows, axis=1, keepdims=True)
        safe = np.where(norms > 0, norms, 1.0)
        return EmbeddingMatrix(self.row_ids, self.rows / safe)

    def is_normalized(self, tol: float = 1e-6) -> bool:
        import numpy as np

        with np.errstate(over="ignore"):
            norms = np.linalg.norm(self.rows, axis=1)
        return bool(np.all(np.abs(norms - 1.0) <= tol))
