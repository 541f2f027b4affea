import warnings

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

import capgraph.llm as llm
from capgraph.errors import LlmTransport
from capgraph.llm import ChatClient, TokenUsage, estimate_cost, write_cassette
from capgraph.segment import (
    COREFERENCE_INSTRUCTION,
    MARKER_SEMANTICS,
    SegmentConfig,
    TASK_INSTRUCTION,
    build_prompt,
    parse_numbered_list,
    rule_fallback_segment,
    segment_caption,
)

MODEL = "gpt-3.5-turbo"


def _offline_client(cache_dir):
    return ChatClient(model_name=MODEL, cache_dir=cache_dir, offline=True)


class TestBuildPrompt:
    def test_contains_chronological_clause(self):
        prompt = build_prompt("A person eats.")
        assert "arrange them in chronological order" in prompt

    def test_contains_coreference_clause(self):
        prompt = build_prompt("A person eats.")
        assert "specify the objects for the pronouns" in prompt

    def test_caption_is_final_content(self):
        prompt = build_prompt("A person eats.")
        assert prompt.endswith("A person eats.")
        assert "Caption: A person eats." in prompt

    def test_deterministic(self):
        assert build_prompt("x y z") == build_prompt("x y z")

    def test_coreference_clause_removable(self):
        prompt = build_prompt("A person eats.", include_coreference=False)
        assert TASK_INSTRUCTION in prompt
        assert COREFERENCE_INSTRUCTION not in prompt


class TestNumberedListParsing:
    def test_plain(self):
        reply = "1. First thing.\n2. Second thing."
        assert parse_numbered_list(reply) == ["First thing.", "Second thing."]

    def test_mixed_separators(self):
        reply = "1) alpha\n 2: beta\n3 - gamma"
        assert parse_numbered_list(reply) == ["alpha", "beta", "gamma"]

    def test_not_a_list(self):
        assert parse_numbered_list("The caption cannot be split.") == []

    def test_blank_item_is_not_an_item(self):
        reply = "1. The person holds a cup.\n2. \t"
        assert parse_numbered_list(reply) == ["The person holds a cup."]


class TestSegmentCaption:
    def test_two_sentence_example(self, tmp_path):
        caption = (
            "The person takes a cup of water to drink before sitting on the "
            "sofa to watch television."
        )
        write_cassette(
            tmp_path,
            MODEL,
            build_prompt(caption),
            "1. The person takes a cup of water to drink.\n"
            "2. The person sits on the sofa to watch television.",
            680,
            45,
        )
        config = SegmentConfig()
        out = segment_caption(caption, config, client=_offline_client(tmp_path))
        assert [s.order_index for s in out] == [1, 2]
        assert "drink" in out[0].text
        assert "sofa" in out[1].text
        assert all(s.aligned_frames is None for s in out)

    def test_single_clause_rule_fallback(self):
        config = SegmentConfig(mode="rule_fallback")
        out = segment_caption("A person waves.", config)
        assert len(out) == 1
        assert out[0].text == "A person waves"

    def test_cache_hit_issues_no_network(self, tmp_path):
        caption = "A person opens a door."
        write_cassette(tmp_path, MODEL, build_prompt(caption), "1. A person opens a door.", 10, 5)
        client = _offline_client(tmp_path)
        config = SegmentConfig()
        segment_caption(caption, config, client=client)
        segment_caption(caption, config, client=client)
        assert client.network_calls == 0
        assert client.usage.input_tokens == 20  # replayed usage accumulates

    def test_unparseable_reply_passes_through_with_warning(self, tmp_path):
        caption = "A person sneezes."
        write_cassette(tmp_path, MODEL, build_prompt(caption), "cannot split this", 5, 2)
        config = SegmentConfig()
        with pytest.warns(RuntimeWarning):
            out = segment_caption(caption, config, client=_offline_client(tmp_path))
        assert [s.text for s in out] == ["A person sneezes."]

    def test_offline_without_cassette_raises(self, tmp_path):
        config = SegmentConfig()
        with pytest.raises(LlmTransport):
            segment_caption("Unrecorded caption.", config, client=_offline_client(tmp_path))

    def test_llm_mode_without_client_raises(self, monkeypatch):
        posts = []

        def post(*args, **kwargs):
            posts.append(args)
            raise requests.ConnectionError("network used")

        monkeypatch.setattr(requests, "post", post)
        monkeypatch.setattr(llm.time, "sleep", lambda s: None)
        with pytest.raises(ValueError, match="client"):
            segment_caption("A person waves.", SegmentConfig(mode="llm"))
        assert posts == []

    def test_empty_caption_rejected(self):
        with pytest.raises(ValueError):
            segment_caption("  ", SegmentConfig(mode="rule_fallback"))

    def test_sentence_cap_merges_excess(self, tmp_path):
        caption = "A walks. B walks. C walks. D walks."
        config = SegmentConfig(mode="rule_fallback")
        out = segment_caption(caption, config, max_sentences=2)
        assert len(out) == 2
        assert out[1].text == "B walks C walks D walks"


class TestRuleFallback:
    def test_then_split(self):
        out = rule_fallback_segment("He drinks, then he sits.")
        assert [s.text for s in out] == ["He drinks", "he sits"]

    def test_after_inverts(self):
        # Hand-derived from the marker table: the clause after "after" is earlier.
        out = rule_fallback_segment("He sits after he drinks.")
        assert [s.text for s in out] == ["he drinks", "He sits"]

    def test_no_marker(self):
        out = rule_fallback_segment("He waves.")
        assert [s.text for s in out] == ["He waves"]

    def test_before_keeps_order(self):
        out = rule_fallback_segment("He drinks before he sits.")
        assert [s.text for s in out] == ["He drinks", "he sits"]

    def test_marker_initial_after(self):
        out = rule_fallback_segment("After opening the door, the person leaves.")
        assert [s.text for s in out] == ["opening the door", "the person leaves"]

    def test_exhaustive_marker_table(self):
        # Oracle: enumerate the 6-marker lexicon; "earlier" markers invert the
        # two clauses, everything else keeps textual order.
        for marker, semantics in MARKER_SEMANTICS.items():
            out = [s.text for s in rule_fallback_segment(f"A1 walks {marker} B2 sits.")]
            expected = (
                ["B2 sits", "A1 walks"] if semantics == "earlier" else ["A1 walks", "B2 sits"]
            )
            assert out == expected, marker

    def test_order_indices_contiguous(self):
        out = rule_fallback_segment("A walks. B sits, then C drinks after D eats.")
        assert [s.order_index for s in out] == list(range(1, len(out) + 1))


@given(
    st.lists(
        st.text(alphabet="abcdefg ", min_size=1, max_size=10).filter(str.strip),
        min_size=1,
        max_size=5,
    ),
    st.sampled_from(sorted(MARKER_SEMANTICS)),
)
@settings(max_examples=60, deadline=None)
def test_property_order_totality(clauses, marker):
    caption = f" {marker} ".join(c.strip() for c in clauses) + "."
    out = rule_fallback_segment(caption)
    assert [s.order_index for s in out] == list(range(1, len(out) + 1))
    assert all(s.text.strip() for s in out)


class TestTokenUsage:
    def test_addition(self):
        total = TokenUsage(1, 2, 0.5) + TokenUsage(3, 4, 0.25)
        assert (total.input_tokens, total.output_tokens, total.estimated_cost) == (4, 6, 0.75)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            TokenUsage(-1, 0, 0)

    def test_cost_formula(self):
        # (680/1M)*0.5 + (45/1M)*1.5
        assert estimate_cost(680, 45, 0.5, 1.5) == pytest.approx(0.0004075, abs=1e-12)

    def test_cost_zero(self):
        assert estimate_cost(0, 0) == 0.0


class _Replies:
    """A client that answers every prompt with one reply."""

    def __init__(self, reply):
        self.reply = reply

    def complete(self, prompt):
        return self.reply


_NUMBERED_REPLIES = st.lists(
    st.tuples(
        st.integers(0, 20),
        st.sampled_from(".):-"),
        st.text(alphabet=" \t\u00a0\u2003\x0b\x0cab.", max_size=6),
    ),
    max_size=5,
).map(lambda items: "\n".join(f"{n}{sep}{body}" for n, sep, body in items))


@given(st.one_of(st.text(), _NUMBERED_REPLIES), st.one_of(st.none(), st.integers(1, 3)))
@settings(max_examples=200, deadline=None)
def test_property_no_reply_yields_a_blank_sentence(reply, max_sentences):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        out = segment_caption("A person waves.", SegmentConfig(), client=_Replies(reply),
                              max_sentences=max_sentences)
    assert out
    assert all(s.text.strip() for s in out)
