"""Caption segmentation: split a video caption into chronologically ordered,
pronoun-resolved sentences.

The primary path prompts a chat model; a deterministic rule-based fallback
splits on sentence terminators and a fixed temporal-marker lexicon so test
suites and offline runs need no network.

``segment_video`` is the segment stage, shared by ``pipeline.run_all`` and
``capgraph segment``. The stage reads text only, so this module loads no
numpy, and neither does ``capgraph segment``.
"""

from __future__ import annotations

import json
import re
import sys
import warnings
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import List, Optional

from .core import SegmentedSentence, VideoManifest
from .llm import (
    DEFAULT_INPUT_PRICE_PER_MILLION,
    DEFAULT_OUTPUT_PRICE_PER_MILLION,
    ChatClient,
)

TASK_INSTRUCTION = (
    "Your job is to split the given video caption into multiple compositional "
    "sentences and arrange them in chronological order."
)
COREFERENCE_INSTRUCTION = (
    "Note that you should specify the objects for the pronouns used in each of "
    "these sentences."
)

# Marker -> temporal position of the clause FOLLOWING the marker relative to
# the clause before it. "X before Y": Y is later. "X after Y": Y is earlier.
MARKER_SEMANTICS = {
    "before": "later",
    "then": "later",
    "after": "earlier",
    "while": "simultaneous",
    "as": "simultaneous",
    "when": "simultaneous",
}

_MARKER_RE = re.compile(r"\b(" + "|".join(MARKER_SEMANTICS) + r")\b", re.IGNORECASE)
_TERMINATOR_RE = re.compile(r"[.!?]+")
# A numbered item starts with a character that is not whitespace, so a blank
# item ("2. \t") is not an item, as a line without a number is not one.
_NUMBERED_LINE_RE = re.compile(r"^\s*\d+\s*[.):\-]\s*(\S.*?)\s*$")

SEGMENT_MODES = ("llm", "rule_fallback")


@dataclass
class SegmentConfig:
    """Segmentation settings; model choice is configuration, not code."""

    model_name: str = "gpt-3.5-turbo"
    temperature: float = 0.0
    endpoint: str = "https://api.openai.com/v1/chat/completions"
    max_retries: int = 2
    mode: str = "llm"  # one of SEGMENT_MODES
    include_coreference: bool = True
    input_price_per_million: float = DEFAULT_INPUT_PRICE_PER_MILLION
    output_price_per_million: float = DEFAULT_OUTPUT_PRICE_PER_MILLION

    def __post_init__(self):
        for name in ("temperature", "input_price_per_million", "output_price_per_million"):
            if not 0 <= getattr(self, name) <= sys.float_info.max:
                raise ValueError(f"{name} must be finite and >= 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.mode not in SEGMENT_MODES:
            raise ValueError(f"unknown segmentation mode {self.mode!r}")


def make_client(
    config: SegmentConfig,
    cache_dir: Optional[str] = None,
    offline: bool = False,
    replies: Optional[dict] = None,
) -> ChatClient:
    """A client with ``config``'s settings; see ``ChatClient`` for ``replies``."""
    return ChatClient(
        model_name=config.model_name,
        endpoint=config.endpoint,
        temperature=config.temperature,
        max_retries=config.max_retries,
        cache_dir=cache_dir,
        offline=offline,
        input_price_per_million=config.input_price_per_million,
        output_price_per_million=config.output_price_per_million,
        replies=replies,
    )


@lru_cache(maxsize=None)
def _few_shot_examples() -> tuple:
    """The bundled in-context examples, read once per process."""
    text = resources.files("capgraph.assets").joinpath("caption_split_examples.json").read_text()
    return tuple(json.loads(text)["examples"])


def build_prompt(caption: str, include_coreference: bool = True) -> str:
    """Build the full segmentation prompt for one caption.

    Task instruction, then the in-context examples, then the target caption
    as the final content. Equal captions yield byte-equal prompts.
    """
    parts = [TASK_INSTRUCTION]
    if include_coreference:
        parts.append(COREFERENCE_INSTRUCTION)
    header = " ".join(parts)

    blocks = [header, "", "Here are some examples:"]
    for example in _few_shot_examples():
        blocks.append("")
        blocks.append(f"Caption: {example['caption']}")
        blocks.append("Sentences:")
        for i, sentence in enumerate(example["sentences"], start=1):
            blocks.append(f"{i}. {sentence}")
    blocks.append("")
    blocks.append("Now split the following video caption. Reply with a numbered list only.")
    blocks.append("")
    blocks.append(f"Caption: {caption}")
    return "\n".join(blocks)


def parse_numbered_list(reply: str) -> List[str]:
    items = []
    for line in reply.splitlines():
        match = _NUMBERED_LINE_RE.match(line)
        if match:
            items.append(match.group(1))
    return items


def _strip_clause(text: str) -> str:
    return text.strip().strip(",;").strip()


def _split_on_markers(clause: str) -> List[str]:
    """Recursively split one clause at its first temporal marker."""
    match = _MARKER_RE.search(clause)
    if match is None:
        clause = _strip_clause(clause)
        return [clause] if clause else []
    first = _strip_clause(clause[: match.start()])
    second = clause[match.end() :]
    if not first:
        # Marker-initial clause ("After opening the door, ..."): the marker
        # binds the clause up to the next comma, and that clause keeps the
        # marker's temporal role ("after X" means X is earlier).
        comma = second.find(",")
        if comma >= 0:
            bound = _split_on_markers(second[:comma])
            remainder = _split_on_markers(second[comma + 1 :])
            if MARKER_SEMANTICS[match.group(1).lower()] == "later":
                return remainder + bound
            return bound + remainder
        return _split_on_markers(second)
    rest = _split_on_markers(second)
    head = [first]
    if MARKER_SEMANTICS[match.group(1).lower()] == "earlier":
        return rest + head
    return head + rest


def rule_fallback_segment(caption: str) -> List[SegmentedSentence]:
    """Deterministic offline split on sentence terminators and the fixed
    temporal-marker lexicon. No pronoun resolution."""
    clauses: List[str] = []
    for sentence in _TERMINATOR_RE.split(caption):
        clauses.extend(_split_on_markers(sentence))
    if not clauses:
        clauses = [caption.strip()]
    return [SegmentedSentence(i, text) for i, text in enumerate(clauses, start=1)]


def _cap_sentences(sentences: List[SegmentedSentence], max_sentences: Optional[int]) -> List[SegmentedSentence]:
    if max_sentences is None or max_sentences < 1 or len(sentences) <= max_sentences:
        return sentences
    kept = [s.text for s in sentences[: max_sentences - 1]]
    merged = " ".join(s.text for s in sentences[max_sentences - 1 :])
    kept.append(merged)
    return [SegmentedSentence(i, text) for i, text in enumerate(kept, start=1)]


def segment_caption(
    caption: str,
    config: SegmentConfig,
    client: Optional[ChatClient] = None,
    max_sentences: Optional[int] = None,
) -> List[SegmentedSentence]:
    """Segment one caption into ordered sentences with empty alignments.

    ``llm`` mode needs ``client`` (see ``make_client``).
    ``max_sentences`` caps the count (must stay below the frame count);
    excess sentences merge into the last one. A reply that is not a numbered
    list degrades to a single-sentence passthrough with a warning so one bad
    caption never aborts a batch run.
    """
    if not caption.strip():
        raise ValueError("caption must be non-empty")
    if config.mode == "rule_fallback":
        return _cap_sentences(rule_fallback_segment(caption), max_sentences)

    if client is None:
        raise ValueError("llm segmentation requires a client")
    prompt = build_prompt(caption, include_coreference=config.include_coreference)
    reply = client.complete(prompt)
    items = parse_numbered_list(reply)
    if not items:
        warnings.warn(
            f"segmentation reply was not a numbered list; passing caption through: {caption[:60]!r}",
            RuntimeWarning,
        )
        items = [caption.strip()]
    sentences = [SegmentedSentence(i, text) for i, text in enumerate(items, start=1)]
    return _cap_sentences(sentences, max_sentences)


def segment_video(
    manifest: VideoManifest, config: SegmentConfig, client: Optional[ChatClient]
) -> List[SegmentedSentence]:
    """Segment one video's caption, capping the sentence count below its
    frame count: the segment stage of ``run_all`` and of ``capgraph segment``."""
    return segment_caption(
        manifest.caption, config, client=client, max_sentences=max(1, manifest.num_frames - 1)
    )
