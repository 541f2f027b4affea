"""Every recorded reply either runs or stops with an error that names its video.

A cassette is input as much as a dataset is. The property below answers the
fixture's segment, parse and map prompts with drawn reply texts, records each
as a cassette and replays it under ``--offline``. ``run-all`` must exit 0, or
exit 1 with a ``CapgraphError`` that names a video, and never end in any other
exception; ``--workers 1`` and ``--workers 4`` must agree, byte for byte when
both exit 0.
"""

import hashlib
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from capgraph import llm, pipeline
from capgraph.cli import main
from capgraph.parse import MAPPING_PROMPT_TEMPLATE, PARSE_PROMPT_TEMPLATE
from fixture_builder import (
    V1, V1_CAPTION, V1_PARSE_REPLIES, V1_SEGMENT_REPLY, V1_SENTENCES, V2, V2_PARSE_REPLIES,
    V2_SEGMENT_REPLY, V2_SENTENCES,
)

_PARSE_PREFIX = PARSE_PROMPT_TEMPLATE.split("{", 1)[0]
_MAP_PREFIX = MAPPING_PROMPT_TEMPLATE.split("{", 1)[0]

# Fragments the fixture's replies are made of, blanks and near misses among
# them, plus any text at all.
_TEXT = st.sampled_from(
    V1_SENTENCES + V2_SENTENCES + ["", " ", "\t", "none", "None.", "He sits down.", "1.", "2)"]
) | st.text(max_size=16)
_NAME = st.sampled_from([
    "person", "cup/glass/bottle", "cup", "sofa/couch", "table", "window", "he", "someone",
    "holding", "sitting on", "eating", "walking to", "not looking at", "none",
]) | st.text(max_size=8)

_NUMBERED = st.builds("{}{} {}".format, st.integers(0, 3), st.sampled_from([".", ")", ":"]),
                      _TEXT)
_SEGMENT_REPLY = st.one_of(
    st.sampled_from([V1_SEGMENT_REPLY, V2_SEGMENT_REPLY]),
    st.builds("1. {}\n2. {}".format, _TEXT, _TEXT),
    st.lists(_NUMBERED | _TEXT, max_size=4).map("\n".join),
)
_TRIPLET = st.builds("<{}, {}, {}>".format, _NAME, _NAME, _NAME)
_PARSE_REPLY = st.sampled_from([*V1_PARSE_REPLIES.values(), *V2_PARSE_REPLIES.values()]) | \
    st.lists(_TRIPLET | _TEXT, max_size=3).map("\n".join)
_MAP_REPLY = _NAME | _TEXT


class _Replies:
    """One drawn reply per prompt, the same for every worker: each video's
    segmentation reply by its caption, and a parse or map reply picked from
    the drawn lists by a hash of the prompt."""

    def __init__(self, segment, parse, mapping):
        self.segment, self.parse, self.mapping = segment, parse, mapping

    def __call__(self, prompt: str) -> str:
        pick = int(hashlib.sha256(prompt.encode("utf-8")).hexdigest(), 16)
        if prompt.startswith(_PARSE_PREFIX):
            return self.parse[pick % len(self.parse)]
        if prompt.startswith(_MAP_PREFIX):
            return self.mapping[pick % len(self.mapping)]
        return self.segment[V1 if V1_CAPTION in prompt else V2]


def _recording(replies: _Replies):
    """``ChatClient.complete`` that records the drawn reply as the prompt's
    cassette, then replays it through the real ``complete``."""
    complete = llm.ChatClient.complete

    def record_then_replay(client, prompt):
        llm.write_cassette(client.cache_dir, client.model_name, prompt, replies(prompt), 9, 3)
        return complete(client, prompt)

    return record_then_replay


@given(
    segment=st.fixed_dictionaries({V1: _SEGMENT_REPLY, V2: _SEGMENT_REPLY}),
    parse=st.lists(_PARSE_REPLY, min_size=1, max_size=4),
    mapping=st.lists(_MAP_REPLY, min_size=1, max_size=4),
    mapping_mode=st.sampled_from(["llm", "lexicon"]),
)
@settings(max_examples=100, deadline=None)
# The two degradations a bad reply causes; they are expected here.
@pytest.mark.filterwarnings("ignore:unparseable triplet reply:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:segmentation reply was not a numbered list:RuntimeWarning")
def test_run_all_exits_0_or_names_the_video(data_root, segment, parse, mapping,
                                            mapping_mode):
    replies = _Replies(segment, parse, mapping)
    exit_codes = {}
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(llm.ChatClient, "complete", _recording(replies)):
        for workers in (1, 4):
            result = CliRunner().invoke(main, [
                "run-all", "--data-root", str(data_root), "--out-dir", f"{tmp}/out{workers}",
                "--cache-dir", f"{tmp}/cassettes", "--offline", "--mapping", mapping_mode,
                "--workers", str(workers),
            ])
            assert isinstance(result.exception, (type(None), SystemExit)), (
                result.output, repr(result.exception))
            assert result.exit_code in (0, 1), result.output
            if result.exit_code:
                assert f"'{V1}'" in result.output or f"'{V2}'" in result.output, result.output
            exit_codes[workers] = result.exit_code
        assert exit_codes[1] == exit_codes[4]
        if exit_codes[1] == 0:
            for name in pipeline._RUN_OUTPUTS:
                assert Path(tmp, "out1", name).read_bytes() == Path(tmp, "out4", name).read_bytes()
