"""One definition of a valid dataset: ``validate`` and ``run-all`` agree.

``capgraph validate`` runs the per-video loader, ``load_video``, over every
video of the manifest, one at a time, plus exit 2; ``run-all`` loads each
video through the same loader, one chunk of videos at a time
(``pipeline.video_chunks``). The property below mutates the test fixture
and checks both commands against an oracle: the per-video check that
``validate`` ran before the loader made these checks itself, kept verbatim
(apart from ``tuple(d.box)`` for the removed ``as_tuple()``) over a loader
that makes none of them.
"""

import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from capgraph import ingest, pipeline
from capgraph.cli import main
from capgraph.core import Detection, EmbeddingMatrix, VideoManifest
from capgraph.errors import CapgraphError

# ---------------------------------------------------------------------------
# The oracle


@dataclass(frozen=True)
class ValidationReport:
    """Every violated invariant found in one video bundle; never raises."""

    problems: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.problems


def validate_manifest(
    manifest: VideoManifest,
    frame_embeds: Optional[EmbeddingMatrix],
    detections: Sequence[Detection],
) -> ValidationReport:
    """Check one video's manifest, embeddings and detections for consistency.

    Returns a report listing every violated invariant; the report is empty
    iff the bundle is consistent. Validation never aborts.
    """
    problems: List[str] = []
    t = manifest.num_frames

    if t == 0:
        problems.append(f"video {manifest.video_id}: frame_ids is empty")
    if len(set(manifest.frame_ids)) != t:
        problems.append(f"video {manifest.video_id}: duplicate frame ids")
    if not manifest.caption.strip():
        problems.append(f"video {manifest.video_id}: caption is empty")
    if not (math.isfinite(manifest.fps) and manifest.fps > 0):
        problems.append(f"video {manifest.video_id}: fps must be positive")

    if frame_embeds is None:
        problems.append(f"video {manifest.video_id}: no embedding matrix")
    else:
        for i in range(len(frame_embeds), t):
            problems.append(f"video {manifest.video_id}: missing embedding for frame {i + 1}")
        if len(frame_embeds) > t:
            problems.append(
                f"video {manifest.video_id}: {len(frame_embeds) - t} extra embedding rows"
            )
        if not frame_embeds.is_normalized():
            problems.append(f"video {manifest.video_id}: embedding rows not L2-normalized")
        n = min(len(frame_embeds), t)
        for i in range(n):
            if frame_embeds.row_ids[i] != manifest.frame_ids[i]:
                problems.append(
                    f"video {manifest.video_id}: embedding row id mismatch at frame {i + 1}"
                )

    for d in detections:
        where = f"video {manifest.video_id} frame {d.frame_index}"
        if not 1 <= d.frame_index <= t:
            problems.append(f"{where}: detection frame index out of range 1..{t}")
        if not d.box.is_valid():
            problems.append(f"{where}: degenerate box {tuple(d.box)} for {d.entity_class}")
        if not (0.0 <= d.confidence <= 1.0):
            problems.append(f"{where}: confidence {d.confidence} outside [0, 1]")

    return ValidationReport(tuple(problems))


def _oracle_accepts(root: Path, confidence_floor: float = 0.2) -> bool:
    """Whether ``validate`` accepted ``root`` when the loader checked only
    each record's own syntax and ``validate_manifest`` checked the rest."""
    try:
        for _, manifest in ingest.read_records(
            root / "manifest.ndjson", "manifest", VideoManifest.from_dict
        ):
            video_id = manifest.video_id
            frames = ingest.read_embeddings(root / "embeddings" / f"{video_id}.frames.nlve")
            detections = [
                d
                for _, d in ingest.read_records(
                    root / "detections" / f"{video_id}.ndjson", "detection", Detection.from_dict
                )
                if d.confidence >= confidence_floor
            ]
            if not validate_manifest(manifest, frames.normalized(), detections).ok:
                return False
    except CapgraphError:
        return False
    return True


# ---------------------------------------------------------------------------
# Fixture mutations. Caption text stays as it is, blank aside: the recorded
# chat replies are keyed by it.


class _Dataset:
    """The fixture's manifests, frame embeddings and detections as editable
    values, written back over a copy of the fixture."""

    def __init__(self, data_root: Path):
        self.source = data_root
        lines = (data_root / "manifest.ndjson").read_text().splitlines()
        self.manifests = {r["video_id"]: r for r in map(json.loads, lines)}
        self.row_ids, self.rows, self.detections = {}, {}, {}
        for video_id in self.manifests:
            matrix = ingest.read_embeddings(data_root / "embeddings" / f"{video_id}.frames.nlve")
            self.row_ids[video_id] = list(matrix.row_ids)
            self.rows[video_id] = [row.copy() for row in matrix.rows]
            path = data_root / "detections" / f"{video_id}.ndjson"
            self.detections[video_id] = [json.loads(line) for line in path.read_text().splitlines()]
        self.dim = matrix.dim

    def apply(self, mutation) -> None:
        kind, video_id, *args = mutation
        manifest = self.manifests[video_id]
        frame_ids, row_ids = manifest["frame_ids"], self.row_ids[video_id]
        rows, detections = self.rows[video_id], self.detections[video_id]
        if kind == "detection field":
            index, field, value = args
            detections[index % len(detections)][field] = value
        elif kind == "detection corner":
            index, corner, value = args
            detections[index % len(detections)]["box"][corner] = value
        elif kind == "row scale" and rows:
            index, factor = args
            with np.errstate(over="ignore"):  # the loader rejects the infinities
                rows[index % len(rows)] = rows[index % len(rows)] * np.float32(factor)
        elif kind == "row id" and rows:
            index, new_id = args
            row_ids[index % len(rows)] = new_id
        elif kind == "rows":
            (change,) = args
            if change == "drop last" and rows:
                del rows[-1], row_ids[-1]
            elif change == "repeat last" and rows:
                rows.append(rows[-1].copy())
                row_ids.append("extra")
            elif change == "none":
                rows.clear()
                row_ids.clear()
        elif kind == "fps":
            (manifest["fps"],) = args
        elif kind == "frame id" and frame_ids:
            index, change, in_rows_too = args
            index %= len(frame_ids)
            new_id = frame_ids[index - 1] if change == "repeat previous" else "renamed"
            frame_ids[index] = new_id
            if in_rows_too and index < len(row_ids):
                row_ids[index] = new_id
        elif kind == "frames":
            change, in_rows_too = args
            keep = len(frame_ids) - 1 if change == "drop last" else 0
            del frame_ids[keep:]
            if in_rows_too:
                del rows[keep:], row_ids[keep:]
        elif kind == "blank caption":
            (manifest["caption"],) = args

    def write(self, root: Path) -> Path:
        shutil.copytree(self.source, root)
        (root / "manifest.ndjson").write_text(
            "".join(json.dumps(r) + "\n" for r in self.manifests.values())
        )
        for video_id in self.manifests:
            rows = self.rows[video_id]
            matrix = np.stack(rows) if rows else np.zeros((0, self.dim), dtype=np.float32)
            ingest.write_embeddings(
                EmbeddingMatrix(self.row_ids[video_id], matrix),
                root / "embeddings" / f"{video_id}.frames.nlve",
            )
            (root / "detections" / f"{video_id}.ndjson").write_text(
                "".join(json.dumps(d) + "\n" for d in self.detections[video_id])
            )
        return root


_NAN, _INF = float("nan"), float("inf")
_VIDEOS = st.sampled_from(["kitchen01", "kitchen02"])
_INDEX = st.integers(0, 40)  # taken modulo the length of the list it picks from
_MUTATIONS = st.one_of(
    st.tuples(st.just("detection field"), _VIDEOS, _INDEX, st.just("frame_index"),
              st.sampled_from([-1, 0, 1, 2, 8, 9, 12, 13])),
    st.tuples(st.just("detection field"), _VIDEOS, _INDEX, st.just("confidence"),
              st.sampled_from([0.0, 0.1, 0.2, 0.5, 1.0, 1.0000001, 1.5, -0.5, _NAN, _INF])),
    st.tuples(st.just("detection corner"), _VIDEOS, _INDEX, st.integers(0, 3),
              st.sampled_from([0.0, -0.0, 1.0, -1.0, 5.0, 100.0, 250.0, 1e308, _INF, -_INF,
                               _NAN])),
    st.tuples(st.just("row scale"), _VIDEOS, _INDEX,
              st.sampled_from([0.0, -1.0, 2.0, 1e-30, 1e30, _NAN])),
    st.tuples(st.just("row id"), _VIDEOS, _INDEX, st.sampled_from(["renamed", ""])),
    st.tuples(st.just("rows"), _VIDEOS, st.sampled_from(["drop last", "repeat last", "none"])),
    st.tuples(st.just("fps"), _VIDEOS, st.sampled_from([30.0, 0.0, -3.0, 1e-300, _NAN, _INF])),
    st.tuples(st.just("frame id"), _VIDEOS, _INDEX,
              st.sampled_from(["renamed", "repeat previous"]), st.booleans()),
    st.tuples(st.just("frames"), _VIDEOS, st.sampled_from(["drop last", "none"]), st.booleans()),
    st.tuples(st.just("blank caption"), _VIDEOS, st.sampled_from(["", " ", "\t\n"])),
)


@given(mutations=st.lists(_MUTATIONS, max_size=3))
@settings(max_examples=100, deadline=None)
def test_run_all_writes_outputs_exactly_when_validate_accepts(data_root, cassette_dir,
                                                              mutations):
    dataset = _Dataset(data_root)
    for mutation in mutations:
        dataset.apply(mutation)
    with tempfile.TemporaryDirectory() as tmp:
        root = dataset.write(Path(tmp) / "data")
        out = Path(tmp) / "out"
        accepted = _oracle_accepts(root)
        validate = CliRunner().invoke(main, ["validate", "--data-root", str(root)])
        run = CliRunner().invoke(main, ["run-all", "--data-root", str(root), "--out-dir",
                                        str(out), "--cache-dir", str(cassette_dir), "--offline"])
        for result in (validate, run):
            assert result.exception is None or isinstance(result.exception, SystemExit), (
                result.output, result.exception)
        assert validate.exit_code == (0 if accepted else 2), validate.output
        assert run.exit_code == (0 if accepted else 1), run.output
        written = sorted(os.listdir(out)) if out.exists() else []
        assert written == (sorted(pipeline._RUN_OUTPUTS) if accepted else [])


# ---------------------------------------------------------------------------
# Datasets the loader accepted before it made validate's checks


def _invert_first_box(root: Path) -> Path:
    path = root / "detections" / "kitchen01.ndjson"
    lines = path.read_text().splitlines()
    record = json.loads(lines[0])
    x1, y1, x2, y2 = record["box"]
    lines[0] = json.dumps(dict(record, box=[x2, y1, x1, y2]))
    path.write_text("\n".join(lines) + "\n")
    return path


def _zero_first_frame_row(root: Path) -> Path:
    path = root / "embeddings" / "kitchen01.frames.nlve"
    matrix = ingest.read_embeddings(path)
    rows = matrix.rows.copy()
    rows[0] = 0.0
    ingest.write_embeddings(EmbeddingMatrix(matrix.row_ids, rows), path)
    return path


def _zero_second_sentence_row(root: Path) -> Path:
    path = root / "embeddings" / "kitchen01.sentences.nlve"
    matrix = ingest.read_embeddings(path)
    rows = matrix.rows.copy()
    rows[1] = 0.0
    ingest.write_embeddings(EmbeddingMatrix(matrix.row_ids, rows), path)
    return path


def _no_frame_rows(root: Path) -> Path:
    path = root / "embeddings" / "kitchen01.frames.nlve"
    dim = ingest.read_embeddings(path).dim
    ingest.write_embeddings(EmbeddingMatrix([], np.zeros((0, dim), dtype=np.float32)), path)
    return path


def _undecodable_row_id(root: Path) -> Path:
    path = root / "embeddings" / "kitchen01.frames.nlve"
    data = bytearray(path.read_bytes())
    data[16] = 0xFF  # first byte of the first row id, after magic, dim, count, length
    path.write_bytes(bytes(data))
    return path


@pytest.mark.parametrize("mutate", [
    _invert_first_box, _zero_first_frame_row, _zero_second_sentence_row, _no_frame_rows,
    _undecodable_row_id,
], ids=["inverted-box", "all-zero-row", "all-zero-sentence-row", "no-rows", "row-id-not-utf8"])
def test_validate_exits_2_and_run_all_exits_1_naming_the_file(data_root, cassette_dir,
                                                              tmp_path, mutate):
    root = tmp_path / "data"
    shutil.copytree(data_root, root)
    path = mutate(root)
    validate = CliRunner().invoke(main, ["validate", "--data-root", str(root)])
    run = CliRunner().invoke(main, ["run-all", "--data-root", str(root), "--out-dir",
                                    str(tmp_path / "out"), "--cache-dir", str(cassette_dir),
                                    "--offline"])
    for result, code in ((validate, 2), (run, 1)):
        assert result.exit_code == code, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert f"{path}:" in result.output
    assert not (tmp_path / "out").exists()
