import dataclasses
import gc
import hashlib
import json
import math
import os
import random
import re
import resource
import shutil
import stat
import struct
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import pytest
import requests
from click.testing import CliRunner

import capgraph
from capgraph import align as align_mod
from capgraph import cli, ingest, llm, pipeline
from capgraph import motion as motion_mod
from capgraph import parse as parse_mod
from capgraph import segment as segment_mod
from capgraph.cli import aggregate_stats, main
from capgraph.core import (
    BoundingBox,
    Detection,
    EmbeddingMatrix,
    SceneGraph,
    SegmentedSentence,
    Triplet,
    VideoManifest,
)
from capgraph.errors import CapgraphError, IoFailure, LlmTransport, MissingFile, StageError
from capgraph.evaluate import EvalConfig
from capgraph.ingest import (
    load_manifests,
    load_scene_graphs,
    write_detections,
    write_embeddings,
    write_manifests,
    write_parsed_triplets,
    write_sentences,
)
from capgraph.pipeline import PipelineConfig, run_all
from fixture_builder import (
    MODEL, SEGMENT_TOKENS, V1_CAPTION, V1_SEGMENT_REPLY, V2_CAPTION, V2_SEGMENT_REPLY,
)


def _config(data_root, cassette_dir, out_dir, seed=7):
    return PipelineConfig(
        data_root=str(data_root),
        out_dir=str(out_dir),
        cache_dir=str(cassette_dir),
        seed=seed,
        offline=True,
    )


class TestRunAll:
    def test_fixture_counts(self, data_root, cassette_dir, tmp_path):
        report = run_all(_config(data_root, cassette_dir, tmp_path / "out"))
        assert report.videos == 2
        assert report.sentences == 4
        assert report.triplets_extracted == 6
        assert report.triplets_mapped == 5
        assert report.triplets_discarded == 1
        assert report.grounded_triplets == 22
        assert report.motion_candidates == 1
        assert report.negatives == 3
        assert report.usage.input_tokens == 2 * (680 + 150 + 150)

    def test_rerun_same_counts(self, data_root, cassette_dir, tmp_path):
        a = run_all(_config(data_root, cassette_dir, tmp_path / "a"))
        b = run_all(_config(data_root, cassette_dir, tmp_path / "b"))
        assert a.to_dict() == b.to_dict()

    def test_outputs_byte_identical(self, data_root, cassette_dir, tmp_path):
        run_all(_config(data_root, cassette_dir, tmp_path / "a"))
        run_all(_config(data_root, cassette_dir, tmp_path / "b"))
        for name in (
            "sentences.ndjson", "scene_graphs.ndjson", "negatives.ndjson",
            "trace.ndjson", "report.json",
        ):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_blank_numbered_item_is_not_a_sentence(self, data_root, cassette_dir, tmp_path):
        # A blank item in kitchen01's segmentation reply adds no sentence, so
        # the two embedding rows still match and the outputs do not move.
        cassettes = tmp_path / "cassettes"
        shutil.copytree(cassette_dir, cassettes)
        llm.write_cassette(cassettes, MODEL, segment_mod.build_prompt(V1_CAPTION),
                           V1_SEGMENT_REPLY + "\n3. \t", *SEGMENT_TOKENS)
        run_all(_config(data_root, cassette_dir, tmp_path / "a"))
        run_all(_config(data_root, cassettes, tmp_path / "b"))
        for name in pipeline._RUN_OUTPUTS:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_skip_negatives(self, data_root, cassette_dir, tmp_path):
        config = _config(data_root, cassette_dir, tmp_path / "out")
        config.skip_negatives = True
        report = run_all(config)
        assert report.negatives == 0
        assert (tmp_path / "out" / "negatives.ndjson").read_bytes() == b""

    def test_negatives_only_on_unaligned_frames(self, data_root, cassette_dir, tmp_path):
        from capgraph.ingest import load_sentences

        out = tmp_path / "out"
        run_all(_config(data_root, cassette_dir, out))
        sentences = load_sentences(out / "sentences.ndjson")
        covered = {}
        for video_id, items in sentences.items():
            covered[video_id] = set()
            for s in items:
                if s.aligned_frames:
                    covered[video_id].update(range(s.aligned_frames[0], s.aligned_frames[1] + 1))
        for graph in load_scene_graphs(out / "negatives.ndjson"):
            for t in graph.all_triplets():
                assert t.frame_index not in covered[graph.video_id]

    def test_worker_pool_output_identical(self, data_root, cassette_dir, tmp_path):
        serial = _config(data_root, cassette_dir, tmp_path / "serial")
        run_all(serial)
        parallel = _config(data_root, cassette_dir, tmp_path / "parallel")
        parallel.workers = 4
        run_all(parallel)
        for name in ("sentences.ndjson", "scene_graphs.ndjson", "negatives.ndjson",
                     "trace.ndjson", "report.json"):
            assert (tmp_path / "serial" / name).read_bytes() == (
                tmp_path / "parallel" / name
            ).read_bytes()

    @pytest.mark.parametrize("workers", [1, 4])
    def test_all_videos_cluster_in_one_call(
        self, data_root, cassette_dir, tmp_path, monkeypatch, workers
    ):
        calls = []
        cluster_videos = align_mod.cluster_videos
        monkeypatch.setattr(
            align_mod, "cluster_videos",
            lambda matrices, *a: calls.append(len(matrices)) or cluster_videos(matrices, *a),
        )
        monkeypatch.setattr(align_mod, "cluster_frames", None)
        config = _config(data_root, cassette_dir, tmp_path / "out")
        config.workers = workers
        assert run_all(config).videos == 2
        assert calls == [2]

    def test_open_vocabulary_run_keeps_unmapped_predicates(
        self, data_root, cassette_dir, tmp_path
    ):
        config = _config(data_root, cassette_dir, tmp_path / "out")
        config.parsing.mapping = "none"
        report = run_all(config)
        # Nothing discarded in mapping; the walking-to triplet grounds on the
        # window detections that the closed vocabulary run drops.
        assert report.triplets_discarded == 0
        assert report.triplets_mapped == 6
        predicates = set()
        for graph in load_scene_graphs(tmp_path / "out" / "scene_graphs.ndjson"):
            predicates.update(t.predicate_class for t in graph.all_triplets())
        assert "walking to" in predicates

    def test_open_vocabulary_top_n_restriction(self, data_root, cassette_dir, tmp_path):
        config = _config(data_root, cassette_dir, tmp_path / "out")
        config.parsing.mapping = "none"
        config.parsing.top_n_open_classes = 2
        run_all(config)
        predicates = set()
        for graph in load_scene_graphs(tmp_path / "out" / "scene_graphs.ndjson"):
            predicates.update(t.predicate_class for t in graph.all_triplets())
        assert len(predicates) <= 2

    def test_assets_read_once_per_process(self, data_root, cassette_dir, tmp_path, monkeypatch):
        loads = []
        from_dict = parse_mod.SynonymLexicon.from_dict
        monkeypatch.setattr(parse_mod.SynonymLexicon, "from_dict",
                            staticmethod(lambda d: loads.append(d) or from_dict(d)))
        parse_mod._lexicon.cache_clear()
        segment_mod._few_shot_examples.cache_clear()
        report = run_all(_config(data_root, cassette_dir, tmp_path / "out"))
        parse_mod._lexicon.cache_clear()
        assert report.triplets_extracted == 6
        assert len(loads) == 1
        assert segment_mod._few_shot_examples.cache_info().misses == 1

    def test_seed_set_after_construction_is_used(self, data_root, cassette_dir, tmp_path):
        from test_acceptance import GOLDEN_CHECKSUMS

        config = _config(data_root, cassette_dir, tmp_path / "out", seed=0)
        config.seed = 7
        run_all(config)
        digests = {
            name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
            for name in GOLDEN_CHECKSUMS
        }
        assert digests == GOLDEN_CHECKSUMS

    def test_offline_set_after_construction_is_used(self, data_root, tmp_path, monkeypatch):
        posts = []

        def post(*args, **kwargs):
            posts.append(args)
            raise RuntimeError("network used")

        monkeypatch.setattr(requests, "post", post)
        config = PipelineConfig(data_root=str(data_root), out_dir=str(tmp_path / "out"),
                                cache_dir=str(tmp_path / "empty-cassettes"))
        config.offline = True
        with pytest.raises(StageError) as err:
            run_all(config)
        assert isinstance(err.value.cause, LlmTransport)
        assert "offline mode" in str(err.value.cause)
        assert posts == []

    @pytest.mark.parametrize("section, name, value, shown", [
        (None, "seed", -1, "seed must be >= 0"),
        (None, "workers", 0, "workers must be >= 1"),
        (None, "cache_dir", 5, "PipelineConfig.cache_dir must be str, got 5"),
        ("ingest", "confidence_floor", math.nan, "confidence_floor must lie in [0, 1]"),
        ("segmentation", "input_price_per_million", -1.0,
         "input_price_per_million must be finite and >= 0"),
    ], ids=["seed", "workers", "cache_dir", "confidence_floor", "price"])
    def test_setting_changed_after_construction_is_rejected_before_loading(
        self, data_root, cassette_dir, tmp_path, monkeypatch, section, name, value, shown
    ):
        config = _config(data_root, cassette_dir, tmp_path / "out")
        setattr(getattr(config, section) if section else config, name, value)
        loads = []
        monkeypatch.setattr(ingest, "load_manifests", lambda *args: loads.append(args))
        with pytest.raises(StageError) as err:
            run_all(config)
        assert str(err.value) == f"stage 'load' failed: {shown}"
        assert loads == []

    def test_worker_threads_are_bounded_by_the_video_count(
        self, data_root, cassette_dir, tmp_path, monkeypatch
    ):
        # A pool starts a thread per task, at most: two here, whatever it records.
        pools = []
        pool = pipeline.ThreadPoolExecutor
        monkeypatch.setattr(pipeline, "ThreadPoolExecutor",
                            lambda max_workers: pools.append(max_workers) or pool(max_workers))
        for workers in (1, 2, 64):
            config = _config(data_root, cassette_dir, tmp_path / f"out{workers}")
            config.workers = workers
            run_all(config)
        assert pools == [2, 2]

    def test_fatal_stage_error_removes_outputs(self, data_root, tmp_path):
        # No cassettes recorded: offline segmentation must fail and leave
        # nothing behind.
        config = _config(data_root, tmp_path / "empty-cassettes", tmp_path / "out")
        with pytest.raises(StageError) as err:
            run_all(config)
        assert err.value.stage == "process"
        assert not (tmp_path / "out").exists() or not list((tmp_path / "out").iterdir())

    def test_failed_write_leaves_the_previous_outputs(self, data_root, cassette_dir, tmp_path,
                                                      monkeypatch):
        out = tmp_path / "out"
        run_all(_config(data_root, cassette_dir, out))
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        assert sorted(before) == sorted(pipeline._RUN_OUTPUTS)

        # The first line the run writes fails.
        def fail(writer, lines):
            raise IoFailure(f"cannot write {writer.path}: no space left on device")

        monkeypatch.setattr(ingest.OutputFile, "write", fail)
        with pytest.raises(StageError) as err:
            run_all(_config(data_root, cassette_dir, out, seed=3))
        assert err.value.stage == "write"
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_a_cassette_and_a_staged_output_get_one_mode(self, data_root, cassette_dir,
                                                        tmp_path):
        # One writer makes every file, a cassette included, with the mode a
        # plain open() gives under the umask.
        umask = os.umask(0o027)
        try:
            cassette = llm.write_cassette(tmp_path / "cache", MODEL, "a prompt", "a reply")
            run_all(_config(data_root, cassette_dir, tmp_path / "out"))
        finally:
            os.umask(umask)
        paths = [cassette, *(tmp_path / "out").iterdir()]
        assert len(paths) == 1 + len(pipeline._RUN_OUTPUTS)
        assert {stat.S_IMODE(path.stat().st_mode) for path in paths} == {0o640}

    def test_cassette_token_count_too_large_to_price_exits_1_naming_it(
        self, data_root, cassette_dir, tmp_path
    ):
        cassettes = tmp_path / "cassettes"
        shutil.copytree(cassette_dir, cassettes)
        path = llm.write_cassette(cassettes, MODEL, segment_mod.build_prompt(V1_CAPTION),
                                  V1_SEGMENT_REPLY, 10**400, SEGMENT_TOKENS[1])
        result = CliRunner().invoke(main, [
            "run-all", "--data-root", str(data_root), "--out-dir", str(tmp_path / "out"),
            "--cache-dir", str(cassettes), "--offline",
        ])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert (f"{path}: corrupt cache file: its token counts are too large to price"
                in result.output)
        assert not (tmp_path / "out").exists()

    def test_cost_sum_too_large_for_a_float_exits_1_naming_the_video(
        self, data_root, cassette_dir, tmp_path
    ):
        # Each video's segmentation reply prices at 1.5e308, below the float
        # range; the run's sum of the two is not.
        cassettes = tmp_path / "cassettes"
        shutil.copytree(cassette_dir, cassettes)
        for caption, reply in ((V1_CAPTION, V1_SEGMENT_REPLY), (V2_CAPTION, V2_SEGMENT_REPLY)):
            llm.write_cassette(cassettes, MODEL, segment_mod.build_prompt(caption), reply,
                               SEGMENT_TOKENS[0], 10**314)
        result = CliRunner().invoke(main, [
            "run-all", "--data-root", str(data_root), "--out-dir", str(tmp_path / "out"),
            "--cache-dir", str(cassettes), "--offline",
        ])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert ("stage 'write' failed: video 'kitchen02': the estimated cost summed up to "
                "this video is too large for a float") in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_stop_iteration_in_a_video_fails_the_run_at_stage_process(
        self, data_root, cassette_dir, tmp_path, monkeypatch, workers
    ):
        # The builtin map would take it for the end of the chunk's videos and
        # drop kitchen02 from a run that exits 0.
        align_video = pipeline.align_video

        def align(video_id, *args):
            if video_id == "kitchen02":
                raise StopIteration
            return align_video(video_id, *args)

        monkeypatch.setattr(pipeline, "align_video", align)
        config = _config(data_root, cassette_dir, tmp_path / "out")
        config.workers = workers
        with pytest.raises(StageError) as err:
            run_all(config)
        assert err.value.stage == "process"
        assert not (tmp_path / "out").exists()

    def test_the_cyclic_gc_is_paused_for_the_run_and_restored(
        self, data_root, cassette_dir, tmp_path, monkeypatch
    ):
        enabled = []
        load_video = ingest.load_video
        monkeypatch.setattr(ingest, "load_video",
                            lambda *args: enabled.append(gc.isenabled()) or load_video(*args))
        assert gc.isenabled()
        run_all(_config(data_root, cassette_dir, tmp_path / "out"))
        assert enabled == [False, False]
        assert gc.isenabled()
        with pytest.raises(StageError):
            run_all(_config(data_root, tmp_path / "empty-cassettes", tmp_path / "failed"))
        assert gc.isenabled()

    @pytest.mark.parametrize("step, stage", [
        ((motion_mod, "collect_unaligned_runs"), "negatives"),
        ((motion_mod, "video_candidates"), "negatives"),
        ((align_mod, "video_elements"), "process"),
    ], ids=["unaligned-runs", "video-candidates", "video-elements"])
    def test_an_error_of_a_streamed_step_names_its_stage(
        self, data_root, cassette_dir, tmp_path, monkeypatch, step, stage
    ):
        def fail(*args):
            raise ValueError("boom")

        monkeypatch.setattr(*step, fail)
        with pytest.raises(StageError) as err:
            run_all(_config(data_root, cassette_dir, tmp_path / "out"))
        assert (err.value.stage, str(err.value.cause)) == (stage, "boom")
        assert not (tmp_path / "out").exists()

    def test_failed_move_leaves_no_report_and_names_the_destination(
        self, data_root, cassette_dir, tmp_path
    ):
        # report.json marks a complete run, so a move that fails part-way must
        # not leave the previous run's report beside the new outputs.
        out = tmp_path / "out"
        run_all(_config(data_root, cassette_dir, out))
        (out / "trace.ndjson").unlink()
        (out / "trace.ndjson").mkdir()
        with pytest.raises(StageError) as err:
            run_all(_config(data_root, cassette_dir, out, seed=3))
        assert err.value.stage == "write"
        assert isinstance(err.value.cause, IoFailure)
        assert str(err.value.cause).startswith(f"cannot write {out / 'trace.ndjson'}: ")
        assert not (out / "report.json").exists()
        assert not [p for p in out.iterdir() if p.name.endswith(".tmp")]

    def test_outputs_are_renamed_in_order_after_the_previous_report_goes(
        self, data_root, cassette_dir, tmp_path, monkeypatch
    ):
        out = tmp_path / "out"
        run_all(_config(data_root, cassette_dir, out))
        renames = []
        replace = os.replace

        def record(source, dest):
            renames.append((Path(dest).name, (out / "report.json").exists()))
            replace(source, dest)

        monkeypatch.setattr(ingest.os, "replace", record)
        run_all(_config(data_root, cassette_dir, out, seed=3))
        assert renames == [(name, False) for name in pipeline._RUN_OUTPUTS]

    def test_a_full_disk_keeps_the_previous_outputs_and_leaves_no_temporary_file(
        self, data_root, cassette_dir, tmp_path
    ):
        # Writes past the first 32 bytes of any file fail, as on a full disk;
        # the outputs are flushed before the previous report.json goes.
        out = tmp_path / "out"
        run_all(_config(data_root, cassette_dir, out))
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
        resource.setrlimit(resource.RLIMIT_FSIZE, (32, hard))
        try:
            result = CliRunner().invoke(main, [
                "run-all", "--data-root", str(data_root), "--out-dir", str(out),
                "--cache-dir", str(cassette_dir), "--offline", "--seed", "3",
            ])
        finally:
            resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.output == (f"error: stage 'write' failed: cannot write "
                                 f"{out / 'sentences.ndjson'}: File too large\n")
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before


class TestOneVideoChunks:
    """With ``KMEANS_BATCH_ELEMENTS`` at 1 every video is a chunk of its own,
    so the run crosses a chunk boundary between the fixture's two videos."""

    @pytest.fixture(autouse=True)
    def one_video_chunks(self, monkeypatch):
        monkeypatch.setattr(align_mod, "KMEANS_BATCH_ELEMENTS", 1)

    def test_each_video_clusters_alone_and_the_goldens_hold(
        self, data_root, cassette_dir, tmp_path, monkeypatch
    ):
        from test_acceptance import GOLDEN_CHECKSUMS

        calls = []
        cluster_videos = align_mod.cluster_videos
        monkeypatch.setattr(
            align_mod, "cluster_videos",
            lambda matrices, *a: calls.append(len(matrices)) or cluster_videos(matrices, *a),
        )
        run_all(_config(data_root, cassette_dir, tmp_path / "out"))
        assert calls == [1, 1]
        digests = {
            name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
            for name in GOLDEN_CHECKSUMS
        }
        assert digests == GOLDEN_CHECKSUMS

    def test_worker_pool_output_identical(self, data_root, cassette_dir, tmp_path):
        run_all(_config(data_root, cassette_dir, tmp_path / "serial"))
        parallel = _config(data_root, cassette_dir, tmp_path / "parallel")
        parallel.workers = 4
        run_all(parallel)
        for name in pipeline._RUN_OUTPUTS:
            assert (tmp_path / "serial" / name).read_bytes() == (
                tmp_path / "parallel" / name
            ).read_bytes()

    @staticmethod
    def _with_copies(data_root, tmp_path, copies):
        """The fixture's two videos and ``copies`` copies of each under new ids."""
        root = tmp_path / "data"
        shutil.copytree(data_root, root)
        manifests = load_manifests(root / "manifest.ndjson")
        copied = []
        for n in range(1, copies + 1):
            for m in manifests:
                copy = dataclasses.replace(m, video_id=f"{m.video_id}-copy{n}")
                for kind in ("embeddings/{}.frames.nlve", "embeddings/{}.sentences.nlve",
                             "detections/{}.ndjson"):
                    shutil.copy(root / kind.format(m.video_id), root / kind.format(copy.video_id))
                copied.append(copy)
        write_manifests(manifests + copied, root / "manifest.ndjson")
        return root, [m.video_id for m in manifests + copied]

    @pytest.fixture
    def four_videos(self, data_root, tmp_path):
        """The fixture's two videos and a copy of each under a new id."""
        return self._with_copies(data_root, tmp_path, 1)

    @pytest.fixture
    def eight_videos(self, data_root, tmp_path):
        """The fixture's two videos and three copies of each under new ids."""
        return self._with_copies(data_root, tmp_path, 3)

    def _serial_then_parallel(self, root, cassette_dir, tmp_path, patch, workers):
        """Run at --workers 1, apply ``patch``, run at ``workers``, and check
        that both runs write equal bytes."""
        run_all(_config(root, cassette_dir, tmp_path / "serial"))
        patch()
        parallel = _config(root, cassette_dir, tmp_path / "parallel")
        parallel.workers = workers
        run_all(parallel)
        for name in pipeline._RUN_OUTPUTS:
            assert (tmp_path / "serial" / name).read_bytes() == (
                tmp_path / "parallel" / name
            ).read_bytes()

    def test_the_next_chunk_clusters_before_a_chunks_videos_run(
        self, four_videos, cassette_dir, tmp_path, monkeypatch
    ):
        # At --workers 1 as at any other, a chunk's videos run only once the
        # next chunk has loaded and clustered.
        root, video_ids = four_videos
        events = []
        cluster_videos = align_mod.cluster_videos
        monkeypatch.setattr(
            align_mod, "cluster_videos",
            lambda matrices, *a: events.append("cluster") or cluster_videos(matrices, *a),
        )
        process_video = pipeline._process_video

        def process(manifest, *args):
            events.append(manifest.video_id)
            return process_video(manifest, *args)

        monkeypatch.setattr(pipeline, "_process_video", process)
        run_all(_config(root, cassette_dir, tmp_path / "out"))
        first, second, third, fourth = sorted(video_ids)
        assert events == [
            "cluster", "cluster", first, "cluster", second, "cluster", third, fourth
        ]

    def test_workers_write_serial_bytes_across_chunk_boundaries(
        self, eight_videos, cassette_dir, tmp_path
    ):
        # --workers 1 runs eight one-video chunks; --workers 3 runs chunks of
        # three, three and two videos.
        root, _ = eight_videos
        self._serial_then_parallel(root, cassette_dir, tmp_path, patch=lambda: None, workers=3)

    def test_workers_process_the_videos_of_a_chunk_at_once(
        self, four_videos, cassette_dir, tmp_path, monkeypatch
    ):
        # Each k-means chunk holds one video, but a loaded chunk holds one
        # video a worker: at --workers 3 the first three videos must be in
        # _process_video together.
        root, video_ids = four_videos
        first_three = threading.Barrier(3, timeout=10)
        process_video = pipeline._process_video

        def process(manifest, *args):
            if manifest.video_id in video_ids[:3]:
                first_three.wait()
            return process_video(manifest, *args)

        self._serial_then_parallel(
            root, cassette_dir, tmp_path, workers=3,
            patch=lambda: monkeypatch.setattr(pipeline, "_process_video", process),
        )

    def test_workers_start_the_next_chunk_before_a_chunk_is_collected(
        self, four_videos, cassette_dir, tmp_path, monkeypatch
    ):
        # At --workers 2 the four videos make two chunks of two. The first
        # video finishes only once the last one has loaded, which happens
        # only if the second chunk loads while the first one's videos run.
        root, video_ids = four_videos
        last_loaded = threading.Event()
        load_video = ingest.load_video

        def load(root, manifest, config):
            if manifest.video_id == video_ids[-1]:
                last_loaded.set()
            return load_video(root, manifest, config)

        process_video = pipeline._process_video

        def process(manifest, *args):
            if manifest.video_id == video_ids[0]:
                assert last_loaded.wait(timeout=10)
            return process_video(manifest, *args)

        def patch():
            monkeypatch.setattr(ingest, "load_video", load)
            monkeypatch.setattr(pipeline, "_process_video", process)

        self._serial_then_parallel(root, cassette_dir, tmp_path, patch=patch, workers=2)

    def test_workers_at_a_short_switch_interval_write_serial_bytes(
        self, four_videos, cassette_dir, tmp_path
    ):
        # At --workers 3 the chunks are the first three videos and the last
        # one, which can run beside them; all share the run's reply memo.
        root, _ = four_videos
        interval = sys.getswitchinterval()
        try:
            self._serial_then_parallel(
                root, cassette_dir, tmp_path, patch=lambda: sys.setswitchinterval(1e-6),
                workers=3,
            )
        finally:
            sys.setswitchinterval(interval)

    def test_a_chunk_leaves_no_cycle_behind_for_the_next(
        self, data_root, cassette_dir, tmp_path, monkeypatch
    ):
        class Node:
            pass

        cycles, seen = [], []
        process_video = pipeline._process_video

        def process(*args):
            seen.append([ref() is None for ref in cycles])
            node = Node()
            node.self = node
            cycles.append(weakref.ref(node))
            return process_video(*args)

        monkeypatch.setattr(pipeline, "_process_video", process)
        run_all(_config(data_root, cassette_dir, tmp_path / "out"))
        assert seen == [[], [True]]

    @pytest.mark.parametrize("top_n", [1, 2, 500])
    def test_open_vocabulary_cut_writes_what_one_chunk_writes(
        self, data_root, cassette_dir, tmp_path, monkeypatch, top_n
    ):
        def run(out):
            config = _config(data_root, cassette_dir, out)
            config.parsing.mapping = "none"
            config.parsing.top_n_open_classes = top_n
            return run_all(config)

        chunked = run(tmp_path / "chunked")
        monkeypatch.setattr(align_mod, "KMEANS_BATCH_ELEMENTS", 2**15)
        assert run(tmp_path / "whole") == chunked
        for name in pipeline._RUN_OUTPUTS:
            assert (tmp_path / "chunked" / name).read_bytes() == (
                tmp_path / "whole" / name
            ).read_bytes()

    @pytest.mark.parametrize("previous", [False, True], ids=["no-out-dir", "previous-run"])
    def test_bad_detections_in_the_last_video_exits_1_naming_the_file(
        self, data_root, cassette_dir, tmp_path, previous
    ):
        root = tmp_path / "data"
        shutil.copytree(data_root, root)
        out = tmp_path / "out"
        before = {}
        if previous:
            run_all(_config(root, cassette_dir, out))
            before = {path.name: path.read_bytes() for path in out.iterdir()}
        path = root / "detections" / "kitchen02.ndjson"
        path.write_text(path.read_text() + "{not json\n")
        result = CliRunner().invoke(main, [
            "run-all", "--data-root", str(root), "--out-dir", str(out),
            "--cache-dir", str(cassette_dir), "--offline",
        ])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert f"stage 'load' failed: {path}:" in result.output
        written = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
        assert written == before


class TestOutputUnderAFile:
    """An output path whose parent is a file is an ``IoFailure`` naming it."""

    def test_stage_command_exits_1_naming_the_output(self, tmp_path):
        sentences = tmp_path / "sentences.ndjson"
        write_sentences({"v": [SegmentedSentence(1, "A person holds a cup.", (1, 2))]},
                        sentences)
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "t.ndjson"
        result = CliRunner().invoke(main, ["parse", "--sentences", str(sentences),
                                           "--out", str(out), "--parser", "rule"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit), result.exception
        assert f"error: cannot write {out}: " in result.output

    @pytest.mark.parametrize("command", ["segment", "eval"])
    def test_an_output_that_is_a_directory_names_it_and_the_reason(
        self, data_root, tmp_path, command
    ):
        # One rule words every failed write: the path, then the reason, where
        # segment said "[Errno 21] Is a directory: '<path>'" after the path.
        out = tmp_path / "adir"
        out.mkdir()
        gt = tmp_path / "gt.ndjson"
        gt.write_text(json.dumps(EVAL_RECORD) + "\n")
        args = {
            "segment": ["segment", "--data-root", str(data_root), "--out", str(out),
                        "--tcs-mode", "rule_fallback"],
            "eval": ["eval", "--gt", str(gt), "--pred", str(gt), "--json-out", str(out)],
        }[command]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.output.endswith(f"error: cannot write {out}: Is a directory\n")

    def test_run_all_out_dir_that_is_a_file_names_it(self, data_root, cassette_dir, tmp_path):
        out = tmp_path / "file"
        out.write_text("")
        with pytest.raises(StageError) as err:
            run_all(_config(data_root, cassette_dir, out))
        assert err.value.stage == "write"
        # Its first output names it, as every other command names its output.
        assert str(err.value.cause) == f"cannot write {out / 'report.json'}: File exists"


class TestCassetteThatCannotBeWritten:
    """A 200 reply whose cassette cannot be written stops the command with an
    error naming the cassette, not a traceback, and leaves no temporary
    file and no directory it made."""

    @pytest.fixture
    def cassette(self, tmp_path, monkeypatch):
        """The path the fixture's first segmentation reply would be recorded
        at, with every request answered by a 200 reply and every cassette's
        temporary file refused when the writer creates it."""
        class Reply:
            status_code, headers, text = 200, {}, ""

            def json(self):
                return {"choices": [{"message": {"content": V1_SEGMENT_REPLY}}],
                        "usage": {"prompt_tokens": 10, "completion_tokens": 5}}

        cache = tmp_path / "cache"

        def deny_in_cache(path, *args, **kwargs):
            if Path(path).parent == cache:
                raise PermissionError(13, "Permission denied")
            return open(path, *args, **kwargs)

        monkeypatch.setattr(requests, "post", lambda *args, **kwargs: Reply())
        monkeypatch.setattr(ingest, "open", deny_in_cache, raising=False)
        key = llm.cache_key(MODEL, segment_mod.build_prompt(V1_CAPTION))
        return cache / f"{key}.json"

    @pytest.mark.parametrize("command", ["segment", "run-all"])
    def test_exits_1_naming_the_cassette(self, data_root, tmp_path, cassette, command):
        args = {
            "segment": ["--out", str(tmp_path / "raw.ndjson"), "--tcs-mode", "llm"],
            "run-all": ["--out-dir", str(tmp_path / "out")],
        }[command]
        result = CliRunner().invoke(main, [
            command, "--data-root", str(data_root), "--cache-dir", str(cassette.parent), *args,
        ])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert "Traceback" not in result.output
        reason = f"cannot write {cassette}: Permission denied"
        shown = {"segment": reason, "run-all": f"stage 'process' failed: {reason}"}[command]
        assert result.output.endswith(f"error: {shown}\n")
        # The cache directory the failed write made is removed with it.
        assert list(tmp_path.iterdir()) == []


class TestReplyMemo:
    """``run_all`` reads each cassette file at most once per call."""

    @pytest.fixture
    def shared(self, data_root, cassette_dir, tmp_path):
        """The fixture with both videos captioned alike, so the second video
        repeats the first one's three prompts, and a cassette copy to edit."""
        root = tmp_path / "data"
        shutil.copytree(data_root, root)
        manifests = load_manifests(root / "manifest.ndjson")
        write_manifests([dataclasses.replace(m, caption=manifests[0].caption)
                         for m in manifests], root / "manifest.ndjson")
        cassettes = tmp_path / "cassettes"
        shutil.copytree(cassette_dir, cassettes)
        return root, cassettes

    @pytest.fixture
    def reads(self, monkeypatch):
        reads = []
        cache_read = llm.ChatClient._cache_read
        monkeypatch.setattr(llm.ChatClient, "_cache_read",
                            lambda self, key: reads.append(key) or cache_read(self, key))
        return reads

    def _segment_cassette(self, root, cassettes):
        """The segmentation prompt both videos send, and its cassette."""
        prompt = segment_mod.build_prompt(load_manifests(root / "manifest.ndjson")[0].caption)
        return prompt, cassettes / f"{llm.cache_key('gpt-3.5-turbo', prompt)}.json"

    def _usage(self, out_dir):
        lines = (out_dir / "trace.ndjson").read_text().splitlines()
        return {r["video_id"]: r["usage"]["input_tokens"] for r in map(json.loads, lines)}

    def test_each_file_read_once_and_usage_counted_per_call(self, shared, reads, tmp_path):
        root, cassettes = shared
        report = run_all(_config(root, cassettes, tmp_path / "out"))
        assert len(reads) == len(set(reads)) == 3
        assert report.usage.input_tokens == 2 * (680 + 150 + 150)
        assert self._usage(tmp_path / "out") == {"kitchen01": 980, "kitchen02": 980}

    def test_worker_pool_reads_each_file_at_most_once_per_video(self, shared, reads,
                                                                 tmp_path):
        root, cassettes = shared
        config = _config(root, cassettes, tmp_path / "pool")
        config.workers = 2
        run_all(config)
        run_all(_config(root, cassettes, tmp_path / "one"))
        for name in ("sentences.ndjson", "trace.ndjson", "report.json"):
            assert (tmp_path / "pool" / name).read_bytes() == \
                (tmp_path / "one" / name).read_bytes(), name
        assert len(set(reads)) == 3 and len(reads) <= 3 + 6

    def test_next_run_reads_an_edited_file(self, shared, reads, tmp_path):
        root, cassettes = shared
        run_all(_config(root, cassettes, tmp_path / "a"))
        prompt, path = self._segment_cassette(root, cassettes)
        reply = json.loads(path.read_text())["response"]
        llm.write_cassette(cassettes, "gpt-3.5-turbo", prompt, reply, 700, 45)
        report = run_all(_config(root, cassettes, tmp_path / "b"))
        assert len(reads) == 6 and len(set(reads)) == 3
        assert report.usage.input_tokens == 2 * (700 + 150 + 150)

    def test_corrupt_file_still_names_it(self, shared, tmp_path):
        root, cassettes = shared
        _, bad = self._segment_cassette(root, cassettes)
        bad.write_text("{")
        with pytest.raises(StageError) as err:
            run_all(_config(root, cassettes, tmp_path / "out"))
        assert isinstance(err.value.cause, LlmTransport)
        assert str(bad) in str(err.value.cause)


class TestPipelineConfig:
    def test_defaults_match_published_hyperparameters(self):
        dumped = PipelineConfig().to_dict()
        assert dumped["alignment"]["beta"] == 4
        assert dumped["motion"]["alpha_percent"] == 15.0
        assert dumped["ingest"]["confidence_floor"] == 0.2
        assert EvalConfig().k_values == (20, 50)
        assert EvalConfig().iou_threshold == 0.5

    def test_settings_are_pinned(self):
        def leaves(d, prefix=""):
            for key, value in d.items():
                if isinstance(value, dict):
                    yield from leaves(value, f"{prefix}{key}.")
                else:
                    yield prefix + key

        assert sorted(leaves(PipelineConfig().to_dict())) == [
            "alignment.beta", "alignment.gap_tau", "alignment.selection",
            "cache_dir", "data_root", "ingest.confidence_floor",
            "motion.alpha_percent", "motion.strategy_not_contacting",
            "motion.strategy_not_looking", "offline", "out_dir",
            "parsing.lexicon_path", "parsing.mapping", "parsing.parser",
            "parsing.top_n_open_classes", "seed", "segmentation.endpoint",
            "segmentation.include_coreference", "segmentation.input_price_per_million",
            "segmentation.max_retries", "segmentation.mode", "segmentation.model_name",
            "segmentation.output_price_per_million", "segmentation.temperature",
            "skip_negatives", "workers",
        ]

    def test_round_trip(self):
        config = PipelineConfig(seed=9, workers=3)
        config.alignment.beta = 6
        config.parsing.top_n_open_classes = None
        clone = PipelineConfig.from_dict(config.to_dict())
        assert clone.to_dict() == config.to_dict()
        assert clone == config


class TestRunAllCli:
    def test_dump_config(self):
        runner = CliRunner()
        result = runner.invoke(main, ["run-all", "--dump-config"])
        assert result.exit_code == 0
        dumped = json.loads(result.output)
        assert dumped["alignment"]["beta"] == 4
        assert dumped["motion"]["alpha_percent"] == 15.0

    def test_cli_run(self, data_root, cassette_dir, tmp_path):
        runner = CliRunner()
        result = runner.invoke(
            main,
            [
                "run-all",
                "--data-root", str(data_root),
                "--out-dir", str(tmp_path / "out"),
                "--cache-dir", str(cassette_dir),
                "--seed", "7",
                "--offline",
            ],
        )
        assert result.exit_code == 0, result.output
        assert (tmp_path / "out" / "scene_graphs.ndjson").exists()
        assert re.fullmatch(r"wall time: \d+\.\d\ds\n", result.stderr)

    def test_cli_failure_exit_code(self, data_root, tmp_path):
        runner = CliRunner()
        result = runner.invoke(
            main,
            [
                "run-all",
                "--data-root", str(data_root),
                "--out-dir", str(tmp_path / "out"),
                "--cache-dir", str(tmp_path / "no-cassettes"),
                "--offline",
            ],
        )
        assert result.exit_code == 1


def _staged_steps(data_root, cassette_dir, out, parse_flags=(), inputs=None):
    """segment -> align -> parse -> ground -> plm on ``data_root``, each step
    reading its predecessor's output from ``inputs`` (default ``out``) and
    writing into ``out``, under ``run_all``'s output names where it has one
    (``sentences``, ``trace``, ``scene_graphs``, ``negatives``)."""
    d, i = str(data_root), Path(inputs or out)
    return [
        ["segment", "--data-root", d, "--out", str(out / "raw.ndjson"),
         "--cache-dir", str(cassette_dir), "--offline"],
        ["align", "--data-root", d, "--sentences", str(i / "raw.ndjson"),
         "--out", str(out / "sentences.ndjson"), "--seed", "7",
         "--trace-out", str(out / "trace.ndjson")],
        ["parse", "--sentences", str(i / "sentences.ndjson"),
         "--out", str(out / "triplets.ndjson"), "--cache-dir", str(cassette_dir),
         "--offline", *parse_flags],
        ["ground", "--data-root", d, "--sentences", str(i / "sentences.ndjson"),
         "--triplets", str(i / "triplets.ndjson"), "--out", str(out / "scene_graphs.ndjson")],
        ["plm", "--data-root", d, "--sentences", str(i / "sentences.ndjson"),
         "--graphs", str(i / "scene_graphs.ndjson"), "--out", str(out / "negatives.ndjson")],
    ]


_PARSINGS = pytest.mark.parametrize(
    "parse_flags, parsing",
    [
        ([], {}),
        (["--mapping", "none", "--top-n", "2"],
         {"mapping": "none", "top_n_open_classes": 2}),
    ],
    ids=["lexicon", "open-vocabulary-top-2"],
)


class TestStageCommands:
    def _assert_staged_match_run_all(self, data_root, cassette_dir, tmp_path, parse_flags,
                                     parsing):
        runner = CliRunner()
        out = tmp_path / "staged"
        out.mkdir()
        for step in _staged_steps(data_root, cassette_dir, out, parse_flags):
            result = runner.invoke(main, step)
            assert result.exit_code == 0, (step[0], result.output)

        reference = tmp_path / "reference"
        config = _config(data_root, cassette_dir, reference)
        for name, value in parsing.items():
            setattr(config.parsing, name, value)
        run_all(config)
        for name in ("sentences.ndjson", "scene_graphs.ndjson", "negatives.ndjson"):
            assert (out / name).read_bytes() == (reference / name).read_bytes(), name

    @_PARSINGS
    def test_staged_pipeline_matches_run_all(
        self, data_root, cassette_dir, tmp_path, parse_flags, parsing
    ):
        self._assert_staged_match_run_all(data_root, cassette_dir, tmp_path, parse_flags, parsing)

    @_PARSINGS
    def test_staged_pipeline_matches_run_all_in_one_video_chunks(
        self, data_root, cassette_dir, tmp_path, monkeypatch, parse_flags, parsing
    ):
        # align, ground and plm load the dataset as run-all does, one chunk
        # at a time (one video a chunk here), and never whole.
        def whole_dataset(*args, **kwargs):
            raise AssertionError("the whole dataset was loaded")

        monkeypatch.setattr(ingest, "load_bundle", whole_dataset)
        monkeypatch.setattr(align_mod, "KMEANS_BATCH_ELEMENTS", 1)
        sizes = []
        cluster_videos = align_mod.cluster_videos
        monkeypatch.setattr(align_mod, "cluster_videos", lambda matrices, *args: (
            sizes.append(len(matrices)) or cluster_videos(matrices, *args)
        ))
        self._assert_staged_match_run_all(data_root, cassette_dir, tmp_path, parse_flags, parsing)
        assert sizes and max(sizes) == 1

    def test_no_command_builds_a_scene_graph_and_every_output_holds(
        self, data_root, cassette_dir, tmp_path, monkeypatch
    ):
        # Every command writes its graph files from rows: with no SceneGraph
        # buildable, run-all still writes its goldens, and ground and plm
        # still write what run-all writes.
        from test_acceptance import GOLDEN_CHECKSUMS

        def built(graph):
            raise AssertionError(f"a SceneGraph of {graph.video_id!r} was built")

        monkeypatch.setattr(SceneGraph, "__post_init__", built)
        self._assert_staged_match_run_all(data_root, cassette_dir, tmp_path, [], {})
        digests = {
            name: hashlib.sha256((tmp_path / "reference" / name).read_bytes()).hexdigest()
            for name in GOLDEN_CHECKSUMS
        }
        assert digests == GOLDEN_CHECKSUMS

    @pytest.fixture
    def staged(self, data_root, cassette_dir, tmp_path):
        """The staged inputs made on the fixture, segment to ground."""
        staged = tmp_path / "staged"
        staged.mkdir()
        for step in _staged_steps(data_root, cassette_dir, staged)[:4]:
            assert CliRunner().invoke(main, step).exit_code == 0, step[0]
        return staged

    @pytest.mark.parametrize("command", ["segment", "align", "parse", "ground", "plm", "eval"])
    def test_a_write_that_fails_partway_keeps_the_previous_file(
        self, staged, data_root, cassette_dir, tmp_path, command
    ):
        # Writes past the first 32 bytes of any file fail, as on a full disk.
        out = tmp_path / "out"
        out.mkdir()
        graphs = str(staged / "scene_graphs.ndjson")
        steps = _staged_steps(data_root, cassette_dir, out, inputs=staged) + [
            ["eval", "--gt", graphs, "--pred", graphs, "--json-out", str(out / "eval.json")],
        ]
        step = next(s for s in steps if s[0] == command)
        if command == "align":  # its trace file has a test of its own
            step = step[:step.index("--trace-out")]
        path = Path(step[step.index("--json-out" if command == "eval" else "--out") + 1])
        path.write_bytes(b"the previous output\n")
        soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
        resource.setrlimit(resource.RLIMIT_FSIZE, (32, hard))
        try:
            result = CliRunner().invoke(main, step)
        finally:
            resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.output == f"error: cannot write {path}: File too large\n"
        assert path.read_bytes() == b"the previous output\n"
        assert [p.name for p in out.iterdir()] == [path.name]

    def test_a_failed_write_removes_the_directories_it_made(self, data_root, tmp_path):
        out = tmp_path / "new" / "sub" / "raw.ndjson"
        soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
        resource.setrlimit(resource.RLIMIT_FSIZE, (32, hard))
        try:
            result = CliRunner().invoke(main, ["segment", "--data-root", str(data_root),
                                               "--out", str(out), "--tcs-mode", "rule_fallback"])
        finally:
            resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.output == f"error: cannot write {out}: File too large\n"
        assert list(tmp_path.iterdir()) == []

    def test_align_with_a_trace_out_directory_writes_neither_output(
        self, staged, data_root, tmp_path
    ):
        # The trace file is renamed into place first, so --out is never written.
        out, traces = tmp_path / "a.ndjson", tmp_path / "traces"
        traces.mkdir()
        before = sorted(p.name for p in tmp_path.iterdir())
        result = CliRunner().invoke(main, [
            "align", "--data-root", str(data_root), "--sentences", str(staged / "raw.ndjson"),
            "--out", str(out), "--trace-out", str(traces),
        ])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.output == f"error: cannot write {traces}: Is a directory\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        assert list(traces.iterdir()) == []

    def _run(self, command, data_root, cassette_dir, tmp_path, inputs):
        """``command``'s staged step on ``data_root`` reading ``inputs``, into
        an empty output directory: the result, and the directory's files."""
        out = tmp_path / "out"
        out.mkdir()
        steps = _staged_steps(data_root, cassette_dir, out, inputs=inputs)
        result = CliRunner().invoke(main, next(s for s in steps if s[0] == command))
        return result, list(out.iterdir())

    @pytest.mark.parametrize("last", [9, 99])
    @pytest.mark.parametrize("command, name", [
        ("align", "raw.ndjson"), ("ground", "sentences.ndjson"), ("plm", "sentences.ndjson"),
    ])
    def test_an_interval_past_its_video_exits_1_naming_file_video_and_order_index(
        self, staged, data_root, cassette_dir, tmp_path, command, name, last
    ):
        # The file's first line is kitchen01's first sentence, and kitchen01
        # has 8 frames: ground and plm took frames 9.. as frames without a
        # detection, and exited 0.
        path = staged / name
        lines = path.read_text().splitlines(keepends=True)
        first = json.loads(lines[0])
        assert (first["video_id"], first["order_index"]) == ("kitchen01", 1)
        lines[0] = json.dumps({**first, "aligned_frames": [1, last]}) + "\n"
        path.write_text("".join(lines))
        result, written = self._run(command, data_root, cassette_dir, tmp_path, staged)
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.output == (
            f"error: {path}: aligned_frames [1, {last}] of order_index 1 of video "
            "'kitchen01' run past its 8 frames\n"
        )
        assert written == []

    def test_a_triplet_whose_sentence_is_absent_exits_1_naming_the_triplets_file(
        self, staged, data_root, cassette_dir, tmp_path
    ):
        # kitchen01 has two sentences: ground dropped the triplet of a third
        # without a word, and exited 0.
        path = staged / "triplets.ndjson"
        lines = path.read_text().splitlines(keepends=True)
        first = json.loads(lines[0])
        assert first["video_id"] == "kitchen01"
        lines[0] = json.dumps({**first, "order_index": 9}) + "\n"
        path.write_text("".join(lines))
        result, written = self._run("ground", data_root, cassette_dir, tmp_path, staged)
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.output == (
            f"error: {path}: video 'kitchen01' has no sentence of order_index 9 in "
            f"{staged / 'sentences.ndjson'}\n"
        )
        assert written == []

    def test_a_graphed_video_without_sentences_exits_1_naming_the_graphs_file(
        self, staged, data_root, cassette_dir, tmp_path
    ):
        # plm read every frame of such a video as unaligned, and exited 0.
        graphs, sentences = staged / "scene_graphs.ndjson", staged / "sentences.ndjson"
        video_id = json.loads(graphs.read_text().splitlines()[0])["video_id"]
        lines = sentences.read_text().splitlines(keepends=True)
        kept = [line for line in lines if json.loads(line)["video_id"] != video_id]
        assert len(lines) > len(kept) > 0
        sentences.write_text("".join(kept))
        result, written = self._run("plm", data_root, cassette_dir, tmp_path, staged)
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.output == (
            f"error: {graphs}: video {video_id!r} has no sentence in {sentences}\n"
        )
        assert written == []

    @pytest.fixture
    def bad_last_video(self, staged, data_root, tmp_path):
        """The staged inputs made on the fixture (segment to ground), a copy
        of the fixture whose last video by id has a detections file with a
        line that is not JSON, and the loader's error for that file."""
        root = tmp_path / "bad"
        shutil.copytree(data_root, root)
        last = load_manifests(root / "manifest.ndjson")[-1]
        with open(root / "detections" / f"{last.video_id}.ndjson", "a") as fh:
            fh.write("{not json\n")
        with pytest.raises(CapgraphError) as err:
            ingest.load_video(root, last, ingest.IngestConfig())
        return staged, root, str(err.value)

    @pytest.mark.parametrize("command", ["align", "ground", "plm"])
    def test_a_bad_file_of_the_last_video_names_it_and_writes_nothing(
        self, bad_last_video, cassette_dir, tmp_path, command
    ):
        staged, root, error = bad_last_video
        assert error.startswith(str(root / "detections")) and ": invalid JSON: " in error
        out = tmp_path / "out"
        out.mkdir()
        steps = _staged_steps(root, cassette_dir, out, inputs=staged)
        result = CliRunner().invoke(main, next(s for s in steps if s[0] == command))
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.output == f"error: {error}\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command, name", [
        ("align", "raw.ndjson"), ("ground", "triplets.ndjson"),
    ])
    def test_a_video_outside_the_manifest_is_named_before_a_bad_file(
        self, bad_last_video, cassette_dir, tmp_path, command, name
    ):
        # The manifest check needs no video's files, so it runs before any
        # is loaded: the unknown video is named, not the bad file.
        staged, root, _ = bad_last_video
        inputs = tmp_path / "inputs"
        shutil.copytree(staged, inputs)
        if command == "align":
            write_sentences({"ghost": [SegmentedSentence(1, "A person waits.")]}, inputs / name)
        else:
            write_parsed_triplets([("ghost", 1, Triplet("person", "holding", "cup"))],
                                  inputs / name)
        steps = _staged_steps(root, cassette_dir, tmp_path, inputs=inputs)
        result = CliRunner().invoke(main, next(s for s in steps if s[0] == command))
        assert result.exit_code == 1, result.output
        assert result.output == f"error: {inputs / name}: video 'ghost' is not in the manifest\n"

    @pytest.mark.parametrize("command, name", [
        ("align", "raw.ndjson"), ("ground", "sentences.ndjson"), ("ground", "triplets.ndjson"),
        ("plm", "sentences.ndjson"), ("plm", "scene_graphs.ndjson"),
    ])
    def test_every_input_file_that_names_videos_is_checked_against_the_manifest(
        self, bad_last_video, cassette_dir, tmp_path, command, name
    ):
        # The file's first line copied under the unknown id "ghost": without
        # the check its lines would be read and dropped without a word.
        staged, root, _ = bad_last_video
        inputs = tmp_path / "inputs"
        shutil.copytree(staged, inputs)
        path = inputs / name
        lines = path.read_text().splitlines(keepends=True)
        ghost = json.dumps({**json.loads(lines[0]), "video_id": "ghost"}) + "\n"
        path.write_text(ghost + "".join(lines))
        out = tmp_path / "out"
        out.mkdir()
        steps = _staged_steps(root, cassette_dir, out, inputs=inputs)
        result = CliRunner().invoke(main, next(s for s in steps if s[0] == command))
        assert result.exit_code == 1, result.output
        assert result.output == f"error: {path}: video 'ghost' is not in the manifest\n"
        assert list(out.iterdir()) == []

    def test_align_video_missing_from_manifest(self, data_root, tmp_path):
        sentences = tmp_path / "raw.ndjson"
        write_sentences({"absent": [SegmentedSentence(1, "A person waits.")]}, sentences)
        result = CliRunner().invoke(main, [
            "align", "--data-root", str(data_root), "--sentences", str(sentences),
            "--out", str(tmp_path / "aligned.ndjson"),
        ])
        assert result.exit_code == 1
        assert f"{sentences}: video 'absent' is not in the manifest" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)

    def test_align_rejects_a_video_outside_the_manifest_before_clustering(
        self, data_root, tmp_path, monkeypatch
    ):
        # kitchen01's sentences copied under the unknown id "ghost": kitchen01
        # could align, but the unknown video stops the command before clustering.
        sentences = tmp_path / "raw.ndjson"
        items = [SegmentedSentence(1, "A person sits."),
                 SegmentedSentence(2, "The person stands.")]
        write_sentences({"kitchen01": items, "ghost": items}, sentences)
        calls = []
        monkeypatch.setattr(align_mod, "cluster_videos", lambda *a: calls.append(a) or [])
        result = CliRunner().invoke(main, [
            "align", "--data-root", str(data_root), "--sentences", str(sentences),
            "--out", str(tmp_path / "aligned.ndjson"),
        ])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit), result.exception
        assert f"{sentences}: video 'ghost' is not in the manifest" in result.output
        assert calls == []

    def test_ground_video_missing_from_manifest(self, data_root, tmp_path):
        sentences = tmp_path / "sentences.ndjson"
        triplets = tmp_path / "triplets.ndjson"
        write_sentences({"ghost": [SegmentedSentence(1, "A person holds a cup.", (1, 2))]},
                        sentences)
        write_parsed_triplets([("ghost", 1, Triplet("person", "holding", "cup"))], triplets)
        result = CliRunner().invoke(
            main,
            ["ground", "--data-root", str(data_root), "--sentences", str(sentences),
             "--triplets", str(triplets), "--out", str(tmp_path / "graphs.ndjson")],
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit), result.exception
        assert "ghost" in result.output and str(triplets) in result.output


class TestConfigFile:
    def test_run_all_reads_config_file_and_flags_override(
        self, data_root, cassette_dir, tmp_path
    ):
        config = PipelineConfig(
            data_root=str(data_root), out_dir=str(tmp_path / "from-file"),
            cache_dir=str(cassette_dir), seed=3, offline=True,
        )
        config_path = tmp_path / "pipeline.json"
        config_path.write_text(json.dumps(config.to_dict()))
        runner = CliRunner()
        result = runner.invoke(
            main,
            ["run-all", "--config", str(config_path), "--seed", "7",
             "--out-dir", str(tmp_path / "out")],
        )
        assert result.exit_code == 0, result.output
        assert (tmp_path / "out" / "report.json").exists()
        assert not (tmp_path / "from-file").exists()
        # Flag-overridden seed 7 reproduces the golden fixture alignment.
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["grounded_triplets"] == 22

    @pytest.mark.parametrize(
        "text, shown",
        [('{"seed": 3', ":1: invalid JSON: "),
         ('{"alignment": {"betaa": 3}}', "unknown key 'alignment.betaa'"),
         ('{"seeed": 3}', "unknown key 'seeed'"),
         ('{"offline": "false"}', "PipelineConfig.offline must be bool"),
         ('{"seed": true}', "PipelineConfig.seed must be int"),
         ('{"motion": {"alpha_percent": true}}', "MotionLabelConfig.alpha_percent must be float"),
         ('{"parsing": {"top_n_open_classes": -1}}', "top_n_open_classes must be >= 0"),
         ('{"seed": -1}', ":0: bad pipeline config: seed must be >= 0"),
         ('{"seed": ' + "[" * 100_000 + "]" * 100_000 + "}", "maximum recursion depth"),
         ('{"ingest": {"confidence_floor": NaN}}', "confidence_floor must lie in [0, 1]"),
         ('{"ingest": {"confidence_floor": 5}}', "confidence_floor must lie in [0, 1]"),
         ('{"workers": 0}', "workers must be >= 1"),
         ('{"workers": -3}', "workers must be >= 1"),
         ('{"segmentation": {"input_price_per_million": -1.0}}',
          "input_price_per_million must be finite and >= 0"),
         ('{"segmentation": {"output_price_per_million": 1' + "0" * 400 + '}}',
          "output_price_per_million must be finite and >= 0"),
         ('{"segmentation": {"temperature": NaN}}', "temperature must be finite and >= 0"),
         ('{"alignment": {"gap_tau": NaN}}', "gap_tau must lie in (0, 1)"),
         ('{"alignment": {"gap_tau": 7}}', "gap_tau must lie in (0, 1)"),
         ('{"cache_dir": 5}', "PipelineConfig.cache_dir must be str, got 5"),
         ('{"parsing": {"lexicon_path": 5}}', "ParseConfig.lexicon_path must be str, got 5")],
        ids=["malformed-json", "unknown-section-key", "unknown-top-level-key", "wrong-type",
             "boolean-for-int", "boolean-for-float", "negative-top-n", "negative-seed",
             "deeper-than-recursion", "nan-confidence-floor", "confidence-floor-above-1",
             "zero-workers", "negative-workers", "negative-price", "price-past-float-range",
             "nan-temperature", "nan-gap-tau", "gap-tau-above-1", "cache-dir-not-a-string",
             "lexicon-path-not-a-string"],
    )
    def test_bad_config_file_exits_1_naming_it(self, tmp_path, text, shown):
        config_path = tmp_path / "pipeline.json"
        config_path.write_text(text)
        result = CliRunner().invoke(
            main, ["run-all", "--config", str(config_path), "--dump-config"]
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit), result.exception
        assert f"error: {config_path}:" in result.output
        assert shown in result.output

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"alignment": {"seed": 7}}', "alignment.seed"),
            ('{"segmentation": {"offline": true}}', "segmentation.offline"),
            ('{"segmentation": {"cache_dir": "c"}}', "segmentation.cache_dir"),
            ('{"evaluation": {"iou_threshold": 0.5}}', "evaluation"),
            ('{"alignment": {"kmeans_max_iters": 50}}', "alignment.kmeans_max_iters"),
            ('{"alignment": {"kmeans_restarts": 1}}', "alignment.kmeans_restarts"),
            ('{"motion": {"negative_class_names": ["a", "b"]}}', "motion.negative_class_names"),
            ('{"motion": {"subject_class": "adult"}}', "motion.subject_class"),
        ],
        ids=["alignment.seed", "segmentation.offline", "segmentation.cache_dir", "evaluation",
             "alignment.kmeans_max_iters", "alignment.kmeans_restarts",
             "motion.negative_class_names", "motion.subject_class"],
    )
    def test_removed_key_exits_1_naming_file_and_key(self, tmp_path, text, key):
        config_path = tmp_path / "pipeline.json"
        config_path.write_text(text)
        result = CliRunner().invoke(
            main, ["run-all", "--config", str(config_path), "--dump-config"]
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit), result.exception
        assert str(config_path) in result.output
        assert f"'{key}'" in result.output

    def test_a_config_file_that_cannot_be_read_exits_1_naming_it(self, tmp_path, monkeypatch):
        config_path = tmp_path / "pipeline.json"
        config_path.write_text("{}")
        read_text = Path.read_text

        def refuse(path, *args, **kwargs):
            if path == config_path:
                raise PermissionError(13, "Permission denied")
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", refuse)
        result = CliRunner().invoke(
            main, ["run-all", "--config", str(config_path), "--dump-config"]
        )
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert "Traceback" not in result.output
        assert result.output == f"error: cannot read {config_path}: Permission denied\n"


class TestSelectionFlag:
    def test_gap_selection(self, data_root, cassette_dir, tmp_path):
        runner = CliRunner()
        raw = tmp_path / "raw.ndjson"
        aligned = tmp_path / "aligned.ndjson"
        assert runner.invoke(
            main,
            ["segment", "--data-root", str(data_root), "--out", str(raw),
             "--cache-dir", str(cassette_dir), "--offline"],
        ).exit_code == 0
        result = runner.invoke(
            main,
            ["align", "--data-root", str(data_root), "--sentences", str(raw),
             "--out", str(aligned), "--selection", "gap:0.3", "--seed", "7"],
        )
        assert result.exit_code == 0, result.output
        from capgraph.ingest import load_sentences

        out = load_sentences(aligned)
        # Fixture clusters are near-orthogonal, so every inter-cluster drop
        # exceeds 0.3 and the gap variant matches the steepest-decline result.
        assert out["kitchen01"][0].aligned_frames == (1, 2)
        assert out["kitchen01"][1].aligned_frames == (3, 8)

    def test_bad_selection_value(self, data_root, tmp_path):
        runner = CliRunner()
        result = runner.invoke(
            main,
            ["align", "--data-root", str(data_root),
             "--sentences", str(tmp_path / "x.ndjson"),
             "--out", str(tmp_path / "y.ndjson"), "--selection", "median"],
        )
        assert result.exit_code != 0


class TestRejectedFlagValues:
    @pytest.mark.parametrize("args, flag, shown", [
        (["eval", "--k", "a"], "--k", "'a'"),
        (["eval", "--k", "0"], "--k", "'0'"),
        (["eval", "--iou", "1.5"], "--iou", "1.5"),
        (["align", "--beta", "0"], "--beta", "got 0)"),
        (["align", "--selection", "gap:abc"], "--selection", "'gap:abc'"),
        (["plm", "--alpha", "0"], "--alpha", "got 0.0)"),
        (["parse", "--top-n", "-1"], "--top-n", "got -1)"),
        (["eval", "--k", "20,20"], "--k", "'20,20'"),
        (["align", "--seed", "-1"], "--seed", "got -1)"),
        (["run-all", "--seed", "-1"], "--seed", "got -1)"),
        (["run-all", "--workers", "0"], "--workers", "workers must be >= 1 (got 0)"),
    ])
    def test_usage_error_names_the_value(self, tmp_path, args, flag, shown):
        paths = {
            "eval": ["--gt", "--pred"],
            "align": ["--data-root", "--sentences", "--out"],
            "plm": ["--data-root", "--sentences", "--graphs", "--out"],
            "parse": ["--sentences", "--out"],
            "run-all": ["--data-root", "--out-dir"],
        }[args[0]]
        required = [item for name in paths for item in (name, str(tmp_path / name[2:]))]
        result = CliRunner().invoke(main, args + required)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert f"Invalid value for '{flag}'" in result.output
        assert shown in result.output
        assert "Traceback" not in result.output


def _cli(*args, python_flags=()):
    """Run ``python -m capgraph.cli`` with this package on the path."""
    src = str(Path(capgraph.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "capgraph.cli", *map(str, args)],
        env=env, capture_output=True, text=True, timeout=60,
    )


class TestParseCommand:
    def test_lexicon_that_is_not_json_exits_naming_it(self, tmp_path):
        sentences = tmp_path / "sentences.ndjson"
        write_sentences({"v": [SegmentedSentence(1, "A person holds a cup.", (1, 2))]},
                        sentences)
        lexicon = tmp_path / "bad.json"
        lexicon.write_text("{bad")
        result = _cli("parse", "--sentences", sentences, "--out", tmp_path / "t.ndjson",
                      "--parser", "rule", "--lexicon-path", lexicon)
        assert result.returncode in (1, 2), result.stderr
        assert f"{lexicon}:1: invalid JSON" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("content, reason", [
        (None, ""),
        ("[1, 2]", ":0: bad lexicon: a lexicon must be a JSON object"),
        ('{"entity_synonyms": [1]}', ":0: bad lexicon: entity_synonyms must be an object"),
        ('{"action_synonyms": "x"}', ":0: bad lexicon: action_synonyms must be an object"),
        ('{"entity_synonyms": {"cup": 3}}', ":0: bad lexicon: entity_synonyms must be an object"),
    ], ids=["missing", "list", "entity-list", "action-string", "class-not-a-string"])
    def test_lexicon_that_is_missing_or_not_a_lexicon_exits_naming_it(self, tmp_path, content,
                                                                       reason):
        sentences = tmp_path / "sentences.ndjson"
        write_sentences({"v": [SegmentedSentence(1, "A person holds a cup.", (1, 2))]},
                        sentences)
        lexicon = tmp_path / "lexicon.json"
        if content is not None:
            lexicon.write_text(content)
        result = _cli("parse", "--sentences", sentences, "--out", tmp_path / "t.ndjson",
                      "--parser", "rule", "--lexicon-path", lexicon)
        assert result.returncode == 1, result.stderr
        assert f"error: {lexicon}{reason}" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("change, reason", [
        ({"text": "   "}, "text is empty"),
        ({"aligned_frames": [3, 1]}, "aligned_frames [3, 1] is not 1 <= lo <= hi"),
        ({"aligned_frames": [0, 2]}, "aligned_frames [0, 2] is not 1 <= lo <= hi"),
        ({"aligned_frames": [1, 2, 3]}, "aligned_frames [1, 2, 3] is not null or two integers"),
        ({"aligned_frames": [2.7, 3.9]},
         "aligned_frames [2.7, 3.9] is not null or two integers"),
        ({"aligned_frames": [True, 2]}, "aligned_frames [true, 2] is not null or two integers"),
        ({"aligned_frames": {"a": 1}}, 'aligned_frames {"a": 1} is not null or two integers'),
        ({"aligned_frames": []}, "aligned_frames [] is not null or two integers"),
    ], ids=["blank-text", "reversed-interval", "frame-0", "three-frames", "float-frames",
            "boolean-frame", "object", "empty-list"])
    def test_sentence_no_stage_can_use_exits_1_naming_its_line(self, tmp_path, change, reason):
        sentences = tmp_path / "sentences.ndjson"
        write_sentences({"v": [SegmentedSentence(1, "A person holds a cup.", (1, 2)),
                               SegmentedSentence(2, "The person drinks.", (3, 4))]},
                        sentences)
        lines = sentences.read_text().splitlines()
        lines[1] = json.dumps(dict(json.loads(lines[1]), **change))
        sentences.write_text("\n".join(lines) + "\n")
        result = CliRunner().invoke(main, [
            "parse", "--sentences", str(sentences), "--out", str(tmp_path / "t.ndjson"),
            "--parser", "rule", "--offline",
        ])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert f"error: {sentences}:2: bad sentence record: {reason}" in result.output

    def test_lexicon_that_is_a_directory_exits_1_naming_it(self, tmp_path):
        sentences = tmp_path / "sentences.ndjson"
        write_sentences({"v": [SegmentedSentence(1, "A person holds a cup.", (1, 2))]},
                        sentences)
        lexicon = tmp_path / "lexicon.json"
        lexicon.mkdir()
        result = CliRunner().invoke(main, [
            "parse", "--sentences", str(sentences), "--out", str(tmp_path / "t.ndjson"),
            "--parser", "rule", "--lexicon-path", str(lexicon),
        ])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit), result.exception
        assert f"error: cannot read {lexicon}: " in result.output


class TestSegmentCommand:
    def test_rule_fallback_mode_is_offline(self, data_root, tmp_path):
        runner = CliRunner()
        out = tmp_path / "sentences.ndjson"
        result = runner.invoke(
            main,
            ["segment", "--data-root", str(data_root), "--out", str(out),
             "--tcs-mode", "rule_fallback"],
        )
        assert result.exit_code == 0, result.output
        from capgraph.ingest import load_sentences

        sentences = load_sentences(out)
        # The first fixture caption splits at its "before" marker.
        assert len(sentences["kitchen01"]) == 2

    def test_reads_only_the_manifest(self, data_root, tmp_path):
        root = tmp_path / "manifest-only"
        root.mkdir()
        shutil.copy(data_root / "manifest.ndjson", root / "manifest.ndjson")
        for name, source in (("full", data_root), ("manifest-only", root)):
            result = CliRunner().invoke(
                main,
                ["segment", "--data-root", str(source),
                 "--out", str(tmp_path / f"{name}.ndjson"), "--tcs-mode", "rule_fallback"],
            )
            assert result.exit_code == 0, (name, result.output)
        assert (tmp_path / "manifest-only.ndjson").read_bytes() == (
            tmp_path / "full.ndjson"
        ).read_bytes()


    def test_blank_caption_exits_1_naming_the_manifest_line(self, data_root, tmp_path):
        root = tmp_path / "data"
        root.mkdir()
        manifest = root / "manifest.ndjson"
        lines = (data_root / "manifest.ndjson").read_text().splitlines()
        lines[0] = json.dumps(dict(json.loads(lines[0]), caption="  "))
        manifest.write_text("\n".join(lines) + "\n")
        result = CliRunner().invoke(main, ["segment", "--data-root", str(root),
                                           "--out", str(tmp_path / "s.ndjson"),
                                           "--tcs-mode", "rule_fallback"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit), result.exception
        assert f"{manifest}:1: bad manifest record: caption is empty" in result.output


class TestStats:
    def test_cost_formula_per_video(self, data_root, cassette_dir, tmp_path):
        out = tmp_path / "out"
        run_all(_config(data_root, cassette_dir, out))
        report = aggregate_stats([str(out / "trace.ndjson")])
        video = report["per_video"]["kitchen01"]
        assert video["input_tokens"] == 980
        assert video["output_tokens"] == 85
        expected = (980 / 1_000_000) * 0.5 + (85 / 1_000_000) * 1.5
        assert video["cost"] == pytest.approx(expected, abs=1e-12)

    def test_cost_is_what_each_run_recorded_at_its_prices(self, data_root, cassette_dir,
                                                           tmp_path):
        out = tmp_path / "out"
        config = _config(data_root, cassette_dir, out)
        config.segmentation.input_price_per_million = 3.0
        config.segmentation.output_price_per_million = 15.0
        run_all(config)
        trace = out / "trace.ndjson"
        recorded = json.loads((out / "report.json").read_text())["token_usage"]
        assert recorded["estimated_cost"] > 0
        report = aggregate_stats([str(trace)])
        assert report["token_usage"] == recorded
        for line in trace.read_text().splitlines():
            record = json.loads(line)
            assert report["per_video"][record["video_id"]]["cost"] == (
                record["usage"]["estimated_cost"]
            )
        result = CliRunner().invoke(main, ["stats", str(trace)])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["token_usage"] == recorded

    def test_zero_traces_empty_report(self):
        runner = CliRunner()
        result = runner.invoke(main, ["stats"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["videos"] == 0

    def test_additivity_across_shards(self, data_root, cassette_dir, tmp_path):
        out = tmp_path / "out"
        run_all(_config(data_root, cassette_dir, out))
        trace = out / "trace.ndjson"
        single = aggregate_stats([str(trace)])
        lines = trace.read_text().splitlines()
        shard_a, shard_b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        shard_a.write_text(lines[0] + "\n")
        shard_b.write_text(lines[1] + "\n")
        combined = aggregate_stats([str(shard_a), str(shard_b)])
        assert combined["token_usage"] == single["token_usage"]
        assert combined["videos"] == single["videos"]

    def test_per_video_sums_to_the_total_when_a_video_repeats(self, data_root, cassette_dir,
                                                              tmp_path):
        out = tmp_path / "out"
        run_all(_config(data_root, cassette_dir, out))
        trace = str(out / "trace.ndjson")
        report = aggregate_stats([trace, trace])
        assert report["videos"] == 2 * len(report["per_video"])
        total, per_video = report["token_usage"], report["per_video"].values()
        for name in ("input_tokens", "output_tokens"):
            assert sum(video[name] for video in per_video) == total[name]
        assert sum(video["cost"] for video in per_video) == pytest.approx(
            total["estimated_cost"], abs=1e-9
        )

    def test_missing_trace(self, tmp_path):
        with pytest.raises(MissingFile, match="absent.ndjson"):
            aggregate_stats([str(tmp_path / "absent.ndjson")])

    @pytest.mark.parametrize("bad", [
        '{"video_id": "v", "usage": {"input_tokens": "x"}}',
        '{"video_id": "v", "usage": {"estimated_cost": NaN}}',
        '{"video_id": "v", "usage": {"estimated_cost": Infinity}}',
        "[1,2]",
        '{"video_id": "v", "sentences": [{"post_pruning_interval": [3]}]}',
    ], ids=["token-count", "cost-nan", "cost-infinite", "not-an-object", "short-interval"])
    def test_bad_trace_record_exits_1_naming_file_and_line(self, tmp_path, bad):
        trace = tmp_path / "trace.ndjson"
        trace.write_text('{"video_id": "ok", "sentences": []}\n' + bad + "\n")
        result = CliRunner().invoke(main, ["stats", str(trace)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit), result.exception
        assert f"{trace}:2: " in result.output

    @pytest.mark.parametrize("bad, shown", [
        ('{"usage": {"input_tokens": 1.5}}', "input_tokens 1.5"),
        ('{"usage": {"output_tokens": true}}', "output_tokens True"),
        ('{"usage": {"input_tokens": false}}', "input_tokens False"),
        ('{"usage": {"output_tokens": -2}}', "output_tokens -2"),
        ('{"usage": {"input_tokens": "3"}}', "input_tokens '3'"),
        ('{"discards": {"unparseable": 2.7}}', "discards.unparseable 2.7"),
        ('{"discards": {"unparseable": true}}', "discards.unparseable True"),
        ('{"discards": {"unparseable": "2"}}', "discards.unparseable '2'"),
    ], ids=["input-1.5", "output-true", "input-false", "output-negative", "input-string",
            "discard-2.7", "discard-true", "discard-string"])
    def test_a_count_that_is_not_a_non_negative_integer_exits_1_naming_it(
        self, tmp_path, bad, shown
    ):
        # Rejected, not truncated: int() would read 1.5, true and "3" as counts.
        trace = tmp_path / "trace.ndjson"
        trace.write_text('{"video_id": "ok", "sentences": []}\n' + bad + "\n")
        result = CliRunner().invoke(main, ["stats", str(trace)])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.output == (
            f"error: {trace}:2: bad trace record: {shown} is not a non-negative integer\n"
        )

    @pytest.mark.parametrize("bad, reason", [
        ('{"usage": {"estimated_cost": "0.5"}}', "estimated_cost '0.5' is not a number"),
        ('{"usage": {"estimated_cost": true}}', "estimated_cost True is not a number"),
        ('{"sentences": [{"steepest_gap": true}]}', "steepest_gap True is not a number"),
        ('{"sentences": [{"steepest_gap": "0.3"}]}', "steepest_gap '0.3' is not a number"),
        ('{"sentences": [{"post_pruning_interval": [1.5, 3]}]}',
         "post_pruning_interval [1.5, 3] is not null or two integers"),
        ('{"sentences": [{"post_pruning_interval": [true, 3]}]}',
         "post_pruning_interval [true, 3] is not null or two integers"),
        ('{"sentences": [{"post_pruning_interval": [3, 1]}]}',
         "post_pruning_interval [3, 1] is not 1 <= lo <= hi"),
        ('{"sentences": [{"post_pruning_interval": [0, 2]}]}',
         "post_pruning_interval [0, 2] is not 1 <= lo <= hi"),
    ], ids=["cost-string", "cost-true", "gap-true", "gap-string", "interval-1.5",
            "interval-true", "interval-reversed", "interval-frame-0"])
    def test_a_value_that_is_not_the_number_it_names_exits_1_naming_it(
        self, tmp_path, bad, reason
    ):
        # Rejected, not counted: float() read "0.5" and true as costs, and the
        # intervals [1.5, 3] and [3, 1] were counted with lengths 2.5 and -1.
        trace = tmp_path / "trace.ndjson"
        trace.write_text('{"video_id": "ok", "sentences": []}\n' + bad + "\n")
        result = CliRunner().invoke(main, ["stats", str(trace)])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.output == f"error: {trace}:2: bad trace record: {reason}\n"

    def test_an_integer_cost_and_gap_are_counted(self, tmp_path):
        trace = tmp_path / "trace.ndjson"
        trace.write_text('{"video_id": "v", "usage": {"estimated_cost": 2}, "sentences": '
                         '[{"steepest_gap": 1, "post_pruning_interval": [2, 4]}, {}]}\n')
        report = aggregate_stats([str(trace)])
        assert report["token_usage"]["estimated_cost"] == 2.0
        assert report["histograms"]["steepest_decline_gaps"] == {"1.0": 1}
        assert report["histograms"]["aligned_interval_lengths"] == {"3": 1}

    def test_cost_sum_too_large_for_a_float_exits_1_naming_its_line(self, tmp_path):
        trace = tmp_path / "trace.ndjson"
        record = '{"video_id": "v", "usage": {"estimated_cost": 1.5e308}}'
        trace.write_text(record + "\n" + record + "\n")
        result = CliRunner().invoke(main, ["stats", str(trace)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit), result.exception
        assert (f"{trace}:2: the estimated cost summed up to this record is too large "
                "for a float") in result.output

    def test_histograms(self, data_root, cassette_dir, tmp_path):
        out = tmp_path / "out"
        run_all(_config(data_root, cassette_dir, out))
        report = aggregate_stats([str(out / "trace.ndjson")])
        assert report["histograms"]["sentences_per_caption"] == {"2": 2}
        lengths = report["histograms"]["aligned_interval_lengths"]
        assert sum(lengths.values()) == 4
        assert report["discards"]["unmapped_predicate"] == 1


class TestValidateCommand:
    def test_ok(self, data_root):
        runner = CliRunner()
        result = runner.invoke(main, ["validate", "--data-root", str(data_root)])
        assert result.exit_code == 0
        assert "ok: 2 videos" in result.output

    def test_holds_one_video_at_a_time(self, data_root, monkeypatch):
        frames, alive = [], []
        load_video = ingest.load_video

        def load(*args):
            alive.append([ref() is not None for ref in frames])
            loaded = load_video(*args)
            frames.append(weakref.ref(loaded[0]))
            return loaded

        monkeypatch.setattr(ingest, "load_video", load)
        result = CliRunner().invoke(main, ["validate", "--data-root", str(data_root)])
        assert result.exit_code == 0, result.output
        assert alive == [[], [False]]

    def test_validation_failure_exit_two(self, tmp_path):
        import numpy as np

        from capgraph.core import EmbeddingMatrix

        root = tmp_path / "broken"
        manifest = VideoManifest("v", ("f1", "f2"), 3.0, "A person sits.")
        write_manifests([manifest], root / "manifest.ndjson")
        rows = np.ones((2, 4), dtype=np.float32)
        write_embeddings(
            EmbeddingMatrix(["f1", "f2"], rows / 2.0), root / "embeddings" / "v.frames.nlve"
        )
        write_detections(
            [Detection(1, "person", BoundingBox(5, 0, 5, 5), 0.9)],
            root / "detections" / "v.ndjson",
        )
        runner = CliRunner()
        result = runner.invoke(main, ["validate", "--data-root", str(root)])
        assert result.exit_code == 2

    def test_manifest_that_is_a_directory_exits_2_naming_it(self, tmp_path):
        manifest = tmp_path / "manifest.ndjson"
        manifest.mkdir()
        result = CliRunner().invoke(main, ["validate", "--data-root", str(tmp_path)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit), result.exception
        assert f"validation failure: cannot read {manifest}: " in result.output


def _with_non_finite_value(data_root, root, name):
    """Copy of the fixture whose ``embeddings/<name>`` ends in a NaN."""
    shutil.copytree(data_root, root)
    path = root / "embeddings" / name
    data = path.read_bytes()
    path.write_bytes(data[:-4] + struct.pack("<f", float("nan")))
    return path


class TestNonFiniteEmbeddings:
    @pytest.mark.parametrize("name", ["kitchen01.frames.nlve", "kitchen01.sentences.nlve"])
    def test_validate_exits_2_naming_file(self, data_root, tmp_path, name):
        path = _with_non_finite_value(data_root, tmp_path / "data", name)
        result = CliRunner().invoke(main, ["validate", "--data-root", str(tmp_path / "data")])
        assert result.exit_code == 2
        assert str(path) in result.output and "non-finite" in result.output

    def test_run_all_exits_1_naming_file(self, data_root, cassette_dir, tmp_path):
        path = _with_non_finite_value(data_root, tmp_path / "data", "kitchen01.sentences.nlve")
        result = CliRunner().invoke(
            main,
            ["run-all", "--data-root", str(tmp_path / "data"), "--out-dir", str(tmp_path / "out"),
             "--cache-dir", str(cassette_dir), "--offline"],
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit), result.exception
        assert str(path) in result.output and "non-finite" in result.output
        assert not (tmp_path / "out" / "trace.ndjson").exists()


def _with_sentence_rows(data_root, root, row_ids):
    """Copy of the fixture whose ``kitchen01.sentences.nlve`` holds the given
    row ids over its rows in reverse order, repeated as needed."""
    shutil.copytree(data_root, root)
    path = root / "embeddings" / "kitchen01.sentences.nlve"
    rows = ingest.read_embeddings(path).rows[::-1]
    write_embeddings(
        EmbeddingMatrix(row_ids, [rows[i % len(rows)] for i in range(len(row_ids))]), path
    )


class TestSentenceEmbeddingRows:
    """The rows of ``<video>.sentences.nlve`` must be the segmented sentences,
    in order: a named error in ``run-all`` and ``align``, not a quiet
    misalignment. ``validate`` does not segment, so it passes them."""

    CASES = [
        (["b", "a"], "row id 'b' is not the order index of sentence 1, '1'"),
        (["2", "1"], "row id '2' is not the order index of sentence 1, '1'"),
        (["1"], "1 rows for the 2 sentences of video 'kitchen01'"),
        (["1", "2", "3"], "3 rows for the 2 sentences of video 'kitchen01'"),
    ]
    IDS = ["letters", "reversed", "one-row", "three-rows"]

    @pytest.mark.parametrize("row_ids, reason", CASES, ids=IDS)
    def test_run_all_exits_1_naming_the_file(self, data_root, cassette_dir, tmp_path,
                                             row_ids, reason):
        _with_sentence_rows(data_root, tmp_path / "data", row_ids)
        result = CliRunner().invoke(
            main,
            ["run-all", "--data-root", str(tmp_path / "data"), "--out-dir", str(tmp_path / "out"),
             "--cache-dir", str(cassette_dir), "--offline"],
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit), result.exception
        assert f"embeddings/kitchen01.sentences.nlve:0: {reason}" in result.output
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("row_ids, reason", CASES, ids=IDS)
    def test_align_exits_1_naming_the_file(self, data_root, tmp_path, row_ids, reason):
        _with_sentence_rows(data_root, tmp_path / "data", row_ids)
        sentences = tmp_path / "raw.ndjson"
        write_sentences({"kitchen01": [SegmentedSentence(1, "A person sits."),
                                       SegmentedSentence(2, "The person stands.")]}, sentences)
        result = CliRunner().invoke(main, [
            "align", "--data-root", str(tmp_path / "data"), "--sentences", str(sentences),
            "--out", str(tmp_path / "aligned.ndjson"),
        ])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit), result.exception
        assert f"embeddings/kitchen01.sentences.nlve:0: {reason}" in result.output

    def test_validate_passes_them(self, data_root, tmp_path):
        _with_sentence_rows(data_root, tmp_path / "data", ["b", "a"])
        result = CliRunner().invoke(main, ["validate", "--data-root", str(tmp_path / "data")])
        assert result.exit_code == 0, result.output


class TestSentenceEmbeddingDimension:
    """A sentence matrix whose dimension is not the frames' is the loader's
    error, named by its file: ``validate`` exits 2 and ``run-all`` 1."""

    @pytest.fixture
    def path(self, data_root, tmp_path):
        shutil.copytree(data_root, tmp_path / "data")
        path = tmp_path / "data" / "embeddings" / "kitchen01.sentences.nlve"
        write_embeddings(EmbeddingMatrix(["1", "2"], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), path)
        return path

    def test_validate_exits_2_naming_the_file(self, path, tmp_path):
        result = CliRunner().invoke(main, ["validate", "--data-root", str(tmp_path / "data")])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert f"validation failure: {path}: sentence dim 3 != frame dim 8\n" in result.output

    def test_run_all_exits_1_naming_the_file(self, path, cassette_dir, tmp_path):
        result = CliRunner().invoke(main, [
            "run-all", "--data-root", str(tmp_path / "data"), "--out-dir", str(tmp_path / "out"),
            "--cache-dir", str(cassette_dir), "--offline",
        ])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert (f"error: stage 'load' failed: {path}: sentence dim 3 != frame dim 8\n"
                in result.output)
        assert not (tmp_path / "out").exists()


class TestSentenceFileIsNamedUnderTheDataRoot:
    """``run-all`` and ``align`` name a video's sentence embeddings as the
    loader names its frame embeddings: under ``--data-root``, not relative to
    the working directory."""

    def _invoke(self, command, data_root, cassette_dir, tmp_path, monkeypatch):
        sentences = tmp_path / "raw.ndjson"
        write_sentences({"kitchen01": [SegmentedSentence(1, "A person sits."),
                                       SegmentedSentence(2, "The person stands.")],
                         "kitchen02": [SegmentedSentence(1, "A person waves.")]}, sentences)
        args = {
            "run-all": ["--out-dir", str(tmp_path / "out"), "--cache-dir", str(cassette_dir),
                        "--offline"],
            "align": ["--sentences", str(sentences), "--out", str(tmp_path / "aligned.ndjson")],
        }[command]
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        result = CliRunner().invoke(main, [command, "--data-root", str(data_root), *args])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        return result.output

    @pytest.mark.parametrize("command", ["run-all", "align"])
    def test_a_row_mismatch(self, data_root, cassette_dir, tmp_path, monkeypatch, command):
        root = tmp_path / "data"
        _with_sentence_rows(data_root, root, ["1"])
        output = self._invoke(command, root, cassette_dir, tmp_path, monkeypatch)
        path = root / "embeddings" / "kitchen01.sentences.nlve"
        assert f"{path}:0: 1 rows for the 2 sentences of video 'kitchen01'" in output

    @pytest.mark.parametrize("command", ["run-all", "align"])
    def test_a_missing_file(self, data_root, cassette_dir, tmp_path, monkeypatch, command):
        root = tmp_path / "data"
        shutil.copytree(data_root, root)
        path = root / "embeddings" / "kitchen01.sentences.nlve"
        path.unlink()
        output = self._invoke(command, root, cassette_dir, tmp_path, monkeypatch)
        assert f"{path} (produce sentence embeddings" in output


# One localized graph line; as a prediction it takes a score.
EVAL_RECORD = {"video_id": "v", "subject_class": "person", "predicate_class": "holding",
               "object_class": "cup/glass/bottle", "subject_box": [0, 0, 10, 10],
               "object_box": [0, 0, 10, 10], "frame_index": 1}


class TestEvalCommand:
    def test_table_and_json(self, tmp_path):
        from capgraph.core import Provenance, SceneGraph, Triplet
        from capgraph.ingest import write_scene_graphs

        box_a = BoundingBox(0, 0, 10, 10)
        box_b = BoundingBox(20, 0, 30, 10)
        gt = SceneGraph.from_triplets(
            "v",
            [
                Triplet("person", "sitting on", "sofa/couch", box_a, box_b, 1,
                        provenance=Provenance.GROUND_TRUTH),
                Triplet("person", "looking at", "television", box_a, box_b, 1,
                        provenance=Provenance.GROUND_TRUTH),
            ],
        )
        pred = SceneGraph.from_triplets(
            "v",
            [
                Triplet("person", "sitting on", "sofa/couch", box_a, box_b, 1,
                        score=0.9, provenance=Provenance.PREDICTION),
            ],
        )
        write_scene_graphs([gt], tmp_path / "gt.ndjson")
        write_scene_graphs([pred], tmp_path / "pred.ndjson")
        runner = CliRunner()
        result = runner.invoke(
            main,
            [
                "eval",
                "--gt", str(tmp_path / "gt.ndjson"),
                "--pred", str(tmp_path / "pred.ndjson"),
                "--k", "20,50",
                "--regime", "both",
                "--json-out", str(tmp_path / "report.json"),
            ],
        )
        assert result.exit_code == 0, result.output
        assert "With Constraint R@20" in result.output
        assert "No Constraint R@50" in result.output
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["with_constraint/R@20"] == 0.5
        assert report["no_constraint/R@50"] == 0.5

    def test_nan_scores_and_signed_zero_boxes_pin_eval_json(self, tmp_path):
        # NaN scores leave the score order partial, and a -0.0 box equals its
        # 0.0 twin, so both the with_constraint groups and the ranking inside
        # them are pinned here: "constrain, then rank" per regime writes
        # these bytes, and ranking once for both regimes does not.
        rng = random.Random(11)
        boxes = [[-0.0, 0.0, 10.0, 10.0], [0.0, -0.0, 10.0, 10.0], [0.0, 0.0, 10.0, 10.0],
                 [20.0, 0.0, 30.0, 10.0], [-0.0, 20.0, 10.0, 30.0], [1.0, 1.0, 11.0, 11.0]]
        predicates = ["holding", "looking at", "touching"]
        objects = ["cup/glass/bottle", "book"]

        def line(frame, predicate, obj, subject_box, object_box, **extra):
            return json.dumps({"video_id": f"v{frame % 3}", "subject_class": "person",
                               "predicate_class": predicate, "object_class": obj,
                               "subject_box": subject_box, "object_box": object_box,
                               "frame_index": frame, **extra}) + "\n"

        gt_lines, pred_lines = [], []
        for frame in range(1, 61):
            truths = [(rng.choice(predicates), rng.choice(objects), rng.choice(boxes),
                       rng.choice(boxes)) for _ in range(rng.randint(1, 4))]
            gt_lines += [line(frame, *truth, provenance="ground_truth") for truth in truths]
            for _ in range(rng.randint(2, 10)):
                predicate, obj, subject_box, object_box = rng.choice(truths)
                if rng.random() < 0.5:
                    predicate = rng.choice(predicates)
                if rng.random() < 0.5:
                    subject_box = rng.choice(boxes)
                score = rng.choice([math.nan, math.nan, 0.5, -0.0, 0.0, round(rng.random(), 2)])
                pred_lines.append(line(frame, predicate, obj, subject_box, object_box,
                                       score=score, provenance="prediction"))
        gt, pred, out = tmp_path / "gt.ndjson", tmp_path / "pred.ndjson", tmp_path / "eval.json"
        gt.write_text("".join(gt_lines))
        pred.write_text("".join(pred_lines))
        assert "NaN" in pred.read_text() and "[-0.0," in pred.read_text()
        result = CliRunner().invoke(main, ["eval", "--gt", str(gt), "--pred", str(pred),
                                           "--k", "1,2,3", "--json-out", str(out)])
        assert result.exit_code == 0, result.output
        assert out.read_bytes() == (
            b'{\n "no_constraint/R@1": 0.2222222222222222,\n'
            b' "no_constraint/R@2": 0.37083333333333335,\n'
            b' "no_constraint/R@3": 0.46527777777777773,\n'
            b' "with_constraint/R@1": 0.21666666666666667,\n'
            b' "with_constraint/R@2": 0.3777777777777777,\n'
            b' "with_constraint/R@3": 0.4805555555555555\n}\n'
        )

    def test_gt_that_is_a_directory_exits_1_naming_it(self, tmp_path):
        gt = tmp_path / "gt"
        gt.mkdir()
        pred = tmp_path / "pred.ndjson"
        pred.write_text("")
        result = CliRunner().invoke(main, ["eval", "--gt", str(gt), "--pred", str(pred)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit), result.exception
        assert f"error: cannot read {gt}: " in result.output

    @staticmethod
    def _pair(tmp_path):
        """A ground-truth file and a prediction file of one matching line each."""
        gt, pred = tmp_path / "gt.ndjson", tmp_path / "pred.ndjson"
        gt.write_text(json.dumps(EVAL_RECORD) + "\n")
        pred.write_text(json.dumps(dict(EVAL_RECORD, score=0.9)) + "\n")
        return gt, pred

    # A missing parent is created (test_json_out_creates_its_missing_parents).
    @pytest.mark.parametrize("where", ["directory"])
    def test_json_out_that_cannot_be_written_exits_1_naming_it(self, tmp_path, where):
        gt, pred = self._pair(tmp_path)
        out = tmp_path / "eval.json"
        out.mkdir()
        result = CliRunner().invoke(main, ["eval", "--gt", str(gt), "--pred", str(pred),
                                           "--json-out", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit), result.exception
        assert f"error: cannot write {out}: " in result.output

    def test_json_out_creates_its_missing_parents(self, tmp_path):
        gt, pred = self._pair(tmp_path)
        out = tmp_path / "absent" / "deeper" / "eval.json"
        result = CliRunner().invoke(main, ["eval", "--gt", str(gt), "--pred", str(pred),
                                           "--json-out", str(out)])
        assert result.exit_code == 0, result.output
        assert json.loads(out.read_text()) == {
            f"{regime}/R@{k}": 1.0
            for regime in ("no_constraint", "with_constraint") for k in (20, 50)
        }

    @pytest.mark.parametrize("enabled", [True, False])
    def test_eval_pauses_the_cyclic_gc_and_leaves_it_as_it_found_it(
        self, tmp_path, monkeypatch, enabled
    ):
        gt, pred = self._pair(tmp_path)
        bad = tmp_path / "bad.ndjson"
        bad.write_text(pred.read_text() + "not json\n")
        during = []
        load = ingest.load_frame_triplets
        monkeypatch.setattr(ingest, "load_frame_triplets",
                            lambda path: during.append(gc.isenabled()) or load(path))
        was_enabled = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            result = CliRunner().invoke(main, ["eval", "--gt", str(gt), "--pred", str(pred)])
            assert result.exit_code == 0, result.output
            assert gc.isenabled() is enabled
            result = CliRunner().invoke(main, ["eval", "--gt", str(gt), "--pred", str(bad)])
            assert result.exit_code == 1
            assert f"{bad}:2:" in result.output
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was_enabled else gc.disable()
        assert during == [False] * 4

    def test_unlocalized_graph_triplet_exits_1_naming_file_and_line(self, tmp_path):
        gt = tmp_path / "gt.ndjson"
        gt.write_text(json.dumps(EVAL_RECORD) + "\n"
                      + json.dumps(dict(EVAL_RECORD, subject_box=None, object_box=None)) + "\n")
        pred = tmp_path / "pred.ndjson"
        pred.write_text(json.dumps(dict(EVAL_RECORD, score=0.9)) + "\n")
        result = CliRunner().invoke(main, ["eval", "--gt", str(gt), "--pred", str(pred)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit), result.exception
        assert f"{gt}:2:" in result.output

    def test_unlocalized_graph_triplet_names_null_box(self, tmp_path):
        gt, pred = tmp_path / "gt.ndjson", tmp_path / "pred.ndjson"
        gt.write_text(json.dumps(dict(EVAL_RECORD, object_box=None)) + "\n")
        pred.write_text(json.dumps(dict(EVAL_RECORD, score=0.9)) + "\n")
        result = CliRunner().invoke(main, ["eval", "--gt", str(gt), "--pred", str(pred)])
        assert result.exit_code == 1
        assert result.output == f"error: {gt}:1: graph triplet is not localized (null box)\n"

    @pytest.mark.parametrize("gt_frame, pred_frame, reason", [
        (1.5, 1.9, "frame_index 1.5 is not a positive integer"),
        (True, 1, "frame_index True is not a positive integer"),
        ("2", 2, "frame_index '2' is not a positive integer"),
    ], ids=["fractional", "boolean", "string"])
    def test_a_frame_index_that_is_not_an_integer_exits_1_naming_its_line(
        self, tmp_path, gt_frame, pred_frame, reason
    ):
        # int() read GT frame 1.5 and a prediction at 1.9 as one frame 1.
        gt, pred = tmp_path / "gt.ndjson", tmp_path / "pred.ndjson"
        gt.write_text(json.dumps(dict(EVAL_RECORD, frame_index=gt_frame)) + "\n")
        pred.write_text(json.dumps(dict(EVAL_RECORD, frame_index=pred_frame, score=0.9)) + "\n")
        result = _cli("eval", "--gt", gt, "--pred", pred)
        assert result.returncode == 1, result.stderr
        assert result.stderr == f"error: {gt}:1: bad graph record: {reason}\n"

    @pytest.mark.parametrize("score, shown", [(True, "True"), ("0.9", "'0.9'")],
                             ids=["boolean", "string"])
    def test_a_score_that_is_not_a_number_exits_1_naming_its_line(self, tmp_path, score,
                                                                   shown):
        gt, pred = tmp_path / "gt.ndjson", tmp_path / "pred.ndjson"
        gt.write_text(json.dumps(EVAL_RECORD) + "\n")
        pred.write_text(json.dumps(dict(EVAL_RECORD, score=0.9)) + "\n"
                        + json.dumps(dict(EVAL_RECORD, score=score)) + "\n")
        result = CliRunner().invoke(main, ["eval", "--gt", str(gt), "--pred", str(pred)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.output == (
            f"error: {pred}:2: bad graph record: score {shown} is not a number\n")

    @pytest.mark.parametrize("line, reason", [
        (b"\xff", "not UTF-8"),
        (("\ufeff" + json.dumps(EVAL_RECORD)).encode(), "invalid JSON: Unexpected UTF-8 BOM"),
    ], ids=["not-utf8", "bom"])
    def test_undecodable_prediction_line_exits_1_naming_file_and_line(self, tmp_path, line,
                                                                      reason):
        gt, pred = tmp_path / "gt.ndjson", tmp_path / "pred.ndjson"
        gt.write_text(json.dumps(EVAL_RECORD) + "\n")
        pred.write_bytes(line + b"\n")
        result = _cli("eval", "--gt", gt, "--pred", pred)
        assert result.returncode == 1, result.stderr
        assert f"error: {pred}:1: {reason}" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_stays_paused_through_scoring(self, tmp_path, monkeypatch, enabled):
        gt, pred = tmp_path / "gt.ndjson", tmp_path / "pred.ndjson"
        gt.write_text(json.dumps(EVAL_RECORD) + "\n")
        pred.write_text(json.dumps(dict(EVAL_RECORD, score=0.9)) + "\n")
        scoring = []
        recall_at_k = cli.eval_mod.recall_at_k
        monkeypatch.setattr(cli.eval_mod, "recall_at_k",
                            lambda *a: scoring.append(gc.isenabled()) or recall_at_k(*a))
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            result = CliRunner().invoke(main, ["eval", "--gt", str(gt), "--pred", str(pred)])
            assert (result.exit_code, scoring, gc.isenabled()) == (0, [False], enabled)
        finally:
            (gc.enable if was_enabled else gc.disable)()


def test_module_entry_point_runs_without_runtime_warning():
    # ``python -m capgraph.cli`` warns when importing the package has
    # already imported ``capgraph.cli``.
    result = _cli("--help", python_flags=("-W", "error::RuntimeWarning"))
    assert result.returncode == 0, result.stderr
    assert "run-all" in result.stdout


def test_package_serves_cli_names():
    from capgraph import cli

    assert capgraph.run_all is cli.run_all
    assert capgraph.PipelineConfig is cli.PipelineConfig
    assert capgraph.RunReport is cli.RunReport
    with pytest.raises(AttributeError, match="no_such_name"):
        capgraph.no_such_name


def test_eval_number_too_large_exits_1_naming_file_and_line(tmp_path):
    gt = tmp_path / "gt.ndjson"
    gt.write_text(json.dumps(EVAL_RECORD) + "\n")
    pred = tmp_path / "pred.ndjson"
    pred.write_text(json.dumps(dict(EVAL_RECORD, score="@HUGE@"))
                    .replace('"@HUGE@"', "1" + "0" * 400) + "\n")
    result = CliRunner().invoke(main, ["eval", "--gt", str(gt), "--pred", str(pred)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert f"{pred}:1: bad graph record: " in result.output
