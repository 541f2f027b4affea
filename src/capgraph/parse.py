"""Triplet extraction from sentences, class mapping, and box grounding.

Triplets come from either a chat-model parser (cached like segmentation) or a
dependency-free rule parser that pattern-matches subject-verb-object per
clause. Classes are then mapped into the target vocabulary through a shipped
synonym lexicon, through the chat model, or left untouched for open-vocabulary
runs. Grounding looks each role up, per aligned frame, in the video's
grounding table, which holds the best detections of each entity class.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import lru_cache, partial
from importlib import resources
from pathlib import Path
from typing import Callable, Collection, Dict, List, Optional, Sequence, Tuple

from .core import BoundingBox, GroundingTable, Provenance, SegmentedSentence, Triplet, Vocabulary
from .errors import MalformedRecord, read_failure
from .llm import ChatClient

PARSER_MODES = ("llm", "rule")
MAPPING_MODES = ("llm", "lexicon", "none")


@dataclass
class ParseConfig:
    parser: str = "llm"
    mapping: str = "lexicon"
    lexicon_path: Optional[str] = None
    top_n_open_classes: Optional[int] = 500

    def __post_init__(self):
        if self.parser not in PARSER_MODES:
            raise ValueError(f"unknown parser {self.parser!r}")
        if self.mapping not in MAPPING_MODES:
            raise ValueError(f"unknown mapping mode {self.mapping!r}")
        if self.top_n_open_classes is not None and self.top_n_open_classes < 0:
            raise ValueError("top_n_open_classes must be >= 0 (0 or null: no cut)")


@dataclass
class DiscardCounters:
    """Why mapped triplets were dropped; surfaced by the stats command."""

    unparseable: int = 0
    unmapped_subject: int = 0
    unmapped_predicate: int = 0
    unmapped_object: int = 0

    def total(self) -> int:
        return sum(self.to_dict().values())

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# Chat-model parser

PARSE_PROMPT_TEMPLATE = (
    "Extract the subject-predicate-object triplets that describe actions or "
    "relations in the sentence below. Reply with one triplet per line in the "
    "form <subject, predicate, object>. Reply with the word none if there is "
    "no triplet.\n"
    "\n"
    "Sentence: {sentence}"
)

_TRIPLET_LINE_RE = re.compile(r"<\s*([^,<>]+?)\s*,\s*([^,<>]+?)\s*,\s*([^,<>]+?)\s*>")


def build_parse_prompt(sentence_text: str) -> str:
    return PARSE_PROMPT_TEMPLATE.format(sentence=sentence_text)


def _llm_parse(text: str, client: ChatClient) -> List[Triplet]:
    reply = client.complete(build_parse_prompt(text))
    matches = _TRIPLET_LINE_RE.findall(reply)
    if not matches and "none" not in reply.lower():
        raise ValueError("reply contained no triplets")
    return [
        Triplet(s.strip().lower(), p.strip().lower(), o.strip().lower())
        for s, p, o in matches
    ]


# ---------------------------------------------------------------------------
# Rule parser (dependency-free subject-verb-object per clause)

_DETERMINERS = {
    "a", "an", "the", "his", "her", "their", "its", "my", "your", "our",
    "this", "that", "these", "those", "some", "any", "one", "two", "three",
}
_AUXILIARIES = {
    "is", "are", "was", "were", "be", "been", "being",
    "has", "have", "had", "does", "do", "did", "will", "would",
}
_VERB_BASES = {
    "take", "sit", "hold", "drink", "eat", "watch", "walk", "look", "stand",
    "lie", "lay", "carry", "put", "open", "close", "throw", "read", "touch",
    "wear", "run", "play", "wash", "grab", "lean", "smile", "sneeze", "pour",
    "write", "wipe", "twist", "cover", "turn", "pick", "place", "move",
    "clean", "sweep", "fold", "tidy", "vacuum", "fix", "work", "talk",
    "laugh", "snuggle", "drop", "make", "enter", "leave", "go", "come",
    "get", "give", "wave", "point", "push", "pull", "reach", "dress",
    "cook", "sleep", "wake", "jump", "dance", "knock", "step", "use",
}
_PARTICLES = {"away", "back", "down", "up", "off", "out", "over"}
_PREPOSITIONS = {
    "on", "at", "in", "from", "with", "over", "under", "behind", "above",
    "beneath", "beside", "into", "onto", "near", "around", "against",
    "across", "inside", "to",
}
_OBJECT_STOPS = {"to", "that", "which", "and", "before", "after", "then", "while", "when"}
_DOUBLED = {
    "grab", "stop", "swim", "shut", "chop", "drop", "hug", "jog", "nod",
    "pat", "plan", "rub", "skip", "slip", "step", "stir", "tap", "wrap",
}
_VOWELS = set("aeiou")


def _verb_base(token: str) -> Optional[str]:
    t = token.lower()
    candidates = [t]
    if t.endswith("ies"):
        candidates.append(t[:-3] + "y")
    if t.endswith("es"):
        candidates.append(t[:-2])
    if t.endswith("s") and not t.endswith("ss"):
        candidates.append(t[:-1])
    if t.endswith("ing"):
        stem = t[:-3]
        candidates.extend([stem, stem + "e"])
        if len(stem) >= 2 and stem[-1] == stem[-2]:
            candidates.append(stem[:-1])
        if stem.endswith("y"):
            candidates.append(stem[:-1] + "ie")
    for c in candidates:
        if c in _VERB_BASES:
            return c
    return None


def _gerund(base: str) -> str:
    if base.endswith("ie"):
        return base[:-2] + "ying"
    if base.endswith("e") and not base.endswith("ee") and base != "be":
        return base[:-1] + "ing"
    if base in _DOUBLED or (
        len(base) == 3
        and base[-1] not in _VOWELS | set("wxy")
        and base[-2] in _VOWELS
        and base[-3] not in _VOWELS
    ):
        return base + base[-1] + "ing"
    return base + "ing"


def _head_noun(tokens: List[str]) -> Optional[str]:
    words = []
    for tok in tokens:
        low = tok.lower()
        if low in _OBJECT_STOPS or low in {",", "."}:
            break
        if low == "of" and words:
            break
        if low in _DETERMINERS or low in _AUXILIARIES:
            continue
        words.append(low)
    return words[-1] if words else None


def _rule_parse_clause(tokens: List[str], inherited_subject: Optional[str]) -> Optional[Triplet]:
    verb_at = None
    base = None
    for i, tok in enumerate(tokens):
        low = tok.lower()
        if low in _AUXILIARIES:
            continue
        found = _verb_base(tok)
        if found is not None:
            verb_at, base = i, found
            break
    if verb_at is None:
        return None

    subject = _head_noun(tokens[:verb_at]) or inherited_subject
    if subject is None:
        return None

    predicate_words = [_gerund(base)]
    j = verb_at + 1
    while j < len(tokens) and tokens[j].lower() in _PARTICLES:
        predicate_words.append(tokens[j].lower())
        j += 1
    if j < len(tokens) and tokens[j].lower() in _PREPOSITIONS and tokens[j].lower() != "to":
        predicate_words.append(tokens[j].lower())
        j += 1

    obj = _head_noun(tokens[j:])
    if obj is None:
        return None
    return Triplet(subject, " ".join(predicate_words), obj)


def _rule_parse(text: str) -> List[Triplet]:
    triplets: List[Triplet] = []
    previous_subject: Optional[str] = None
    for clause in re.split(r",|;|\band\b", text):
        tokens = re.findall(r"[A-Za-z']+", clause)
        if not tokens:
            continue
        triplet = _rule_parse_clause(tokens, previous_subject)
        if triplet is not None:
            triplets.append(triplet)
            previous_subject = triplet.subject_class
    return triplets


def parse_triplets(
    sentence: SegmentedSentence,
    config: ParseConfig,
    client: Optional[ChatClient] = None,
    counters: Optional[DiscardCounters] = None,
) -> List[Triplet]:
    """Extract zero or more unlocalized triplets from one sentence.

    An unparseable chat reply degrades to an empty list, counted in
    ``counters.unparseable``.
    """
    if not sentence.text.strip():
        raise ValueError("sentence text must be non-empty")
    if config.parser == "rule":
        return _rule_parse(sentence.text)
    if client is None:
        raise ValueError("llm parser requires a client")
    try:
        return _llm_parse(sentence.text, client)
    except ValueError:
        if counters is not None:
            counters.unparseable += 1
        return []


# ---------------------------------------------------------------------------
# Class mapping

_WS_RE = re.compile(r"\s+")


def _normalize(name: str) -> str:
    return _WS_RE.sub(" ", name.strip().lower())


@dataclass
class SynonymLexicon:
    entity_synonyms: Dict[str, str] = field(default_factory=dict)
    action_synonyms: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def bundled(cls) -> "SynonymLexicon":
        text = resources.files("capgraph.assets").joinpath("synonym_lexicon.json").read_text()
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path) -> "SynonymLexicon":
        """The lexicon in the JSON file at ``path``. A file that cannot be
        read or is not a lexicon raises an error naming it."""
        try:
            return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
        except OSError as e:
            raise read_failure(path, e) from e
        except json.JSONDecodeError as e:
            raise MalformedRecord(path, e.lineno, f"invalid JSON: {e.msg}") from e
        except (TypeError, ValueError, RecursionError) as e:
            raise MalformedRecord(path, 0, f"bad lexicon: {e}") from e

    @classmethod
    def from_dict(cls, d: dict) -> "SynonymLexicon":
        if not isinstance(d, dict):
            raise TypeError(f"a lexicon must be a JSON object, got {type(d).__name__}")
        tables = {}
        for name in ("entity_synonyms", "action_synonyms"):
            table = d.get(name, {})
            if not isinstance(table, dict) or not all(isinstance(v, str) for v in table.values()):
                raise TypeError(f"{name} must be an object mapping names to class names")
            tables[name] = {_normalize(k): v for k, v in table.items()}
        return cls(**tables)


@lru_cache(maxsize=None)
def _lexicon(path: Optional[str]) -> SynonymLexicon:
    """The lexicon at ``path`` (the bundled one for None), read once per process."""
    return SynonymLexicon.load(path) if path else SynonymLexicon.bundled()


MAPPING_PROMPT_TEMPLATE = (
    "Which of the following classes is semantically closest to \"{name}\"? "
    "Reply with exactly one class name from the list, or the word none if no "
    "class fits.\n"
    "\n"
    "Classes: {classes}"
)


def _map_name(
    name: str, classes: Collection[str], fallback: Callable[[str], Optional[str]]
) -> Optional[str]:
    """The normalized name if it is one of ``classes``, else ``fallback`` of it."""
    n = _normalize(name)
    return n if n in classes else fallback(n)


def _llm_map(name: str, classes: Collection[str], client: ChatClient) -> Optional[str]:
    prompt = MAPPING_PROMPT_TEMPLATE.format(name=_normalize(name), classes=", ".join(sorted(classes)))
    reply = _normalize(client.complete(prompt))
    if reply in classes:
        return reply
    return None


def map_classes(
    triplet: Triplet,
    vocab: Vocabulary,
    config: ParseConfig,
    client: Optional[ChatClient] = None,
    counters: Optional[DiscardCounters] = None,
) -> Optional[Triplet]:
    """Map a triplet's classes into the vocabulary.

    Returns the mapped triplet, the unchanged triplet in open-vocabulary
    mode, or None when any class has no mapping (a discard, not an error).
    """
    if config.mapping == "none":
        return triplet

    if config.mapping == "lexicon":
        lexicon = _lexicon(config.lexicon_path)
        entity, action = lexicon.entity_synonyms.get, lexicon.action_synonyms.get
    else:
        if client is None:
            raise ValueError("llm mapping requires a client")
        entity = partial(_llm_map, classes=vocab.entity_classes, client=client)
        action = partial(_llm_map, classes=vocab.action_classes, client=client)
    subject = _map_name(triplet.subject_class, vocab.entity_classes, entity)
    predicate = _map_name(triplet.predicate_class, vocab.action_classes, action)
    obj = _map_name(triplet.object_class, vocab.entity_classes, entity)

    if subject is None or predicate is None or obj is None:
        if counters is not None:
            if subject is None:
                counters.unmapped_subject += 1
            if predicate is None:
                counters.unmapped_predicate += 1
            if obj is None:
                counters.unmapped_object += 1
        return None
    return Triplet(subject, predicate, obj, provenance=triplet.provenance)


def restrict_open_vocabulary(triplets: Sequence[Triplet], top_n: int) -> List[Triplet]:
    """Keep only the ``top_n`` most frequent predicate classes (ties by name)."""
    counts = Counter(t.predicate_class for t in triplets)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    kept = {name for name, _ in ranked[:top_n]}
    return [t for t in triplets if t.predicate_class in kept]


# ---------------------------------------------------------------------------
# Grounding


def ground_pair(
    frame: Dict[str, Tuple[BoundingBox, ...]], subject_class: str, object_class: str
) -> Optional[Tuple[BoundingBox, BoundingBox]]:
    """The subject and object boxes of one frame of a grounding table, or None
    if either role is missing.

    Each role takes the first box of its class (``ingest.grounding_table``
    ranks them); when the classes coincide the object takes the second.
    """
    subjects = frame.get(subject_class, ())
    objects = subjects[1:] if object_class == subject_class else frame.get(object_class, ())
    if not subjects or not objects:
        return None
    return subjects[0], objects[0]


def ground_triplets(
    triplets: Sequence[Triplet],
    aligned_frames: Optional[Tuple[int, int]],
    table: GroundingTable,
) -> List[Triplet]:
    """Localize triplets on every frame of the aligned interval.

    Each triplet's roles are grounded per frame of the video's grounding
    table with ``ground_pair``; frames missing either role produce nothing.
    """
    if aligned_frames is None:
        return []
    lo, hi = aligned_frames
    grounded: List[Triplet] = []
    for frame in range(lo, hi + 1):
        boxes = table.get(frame, {})
        for t in triplets:
            pair = ground_pair(boxes, t.subject_class, t.object_class)
            if pair is None:
                continue
            subject_box, object_box = pair
            grounded.append(
                Triplet(
                    subject_class=t.subject_class,
                    predicate_class=t.predicate_class,
                    object_class=t.object_class,
                    subject_box=subject_box,
                    object_box=object_box,
                    frame_index=frame,
                    provenance=Provenance.CAPTION,
                )
            )
    return grounded
