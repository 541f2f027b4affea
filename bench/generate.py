"""Deterministic synthetic datasets for the benchmark workloads.

``generate(workload, seed, root)`` writes one dataset under ``root`` and
returns the facts about it that the runner reports (sizes, planned chat calls).
The same (workload, seed, sizes) always gives byte-identical files: every
random draw comes from one ``numpy`` generator seeded with the seed and the
workload's index, and every file is written by the package's own writers.

Pipeline datasets (``manifest.ndjson``, ``embeddings/``, ``detections/``, plus
``cassettes/`` for the chat workload) are built so that:

* each caption is a chain of simple clauses the rule segmenter splits one per
  sentence, and the chat cassette replies with the same clauses as a numbered
  list, so the sentence count is known here and the sentence-embedding row
  count equals the segmenter's capped output;
* about 20% of clauses use a verb or an object outside the vocabulary, so the
  parser and mapping discard paths run;
* detection confidences straddle the 0.2 loader floor and every box satisfies
  ``BoundingBox.is_valid``.

The eval dataset is a ground-truth graph file and a prediction file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from capgraph.core import (
    BoundingBox,
    Detection,
    EmbeddingMatrix,
    Provenance,
    SceneGraph,
    Triplet,
    VideoManifest,
    Vocabulary,
)
from capgraph.ingest import (
    write_detections,
    write_embeddings,
    write_manifests,
    write_scene_graphs,
)
from capgraph.llm import write_cassette
from capgraph.parse import MAPPING_PROMPT_TEMPLATE, SynonymLexicon, build_parse_prompt
from capgraph.segment import build_prompt

MODEL = "gpt-3.5-turbo"


@dataclass(frozen=True)
class Workload:
    """Per-video shape of one workload; ``videos`` is the size of one pass."""

    name: str
    kind: str  # "pipeline" or "eval"
    videos: int = 0
    frames: int = 0
    dim: int = 0
    detections_per_frame: int = 0
    clauses: int = 0
    chat: bool = False
    gt_frames: int = 0
    gt_per_frame: int = 0
    box_pairs: int = 0
    predicates_per_pair: int = 0


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("align-long", "pipeline", videos=4, frames=192, dim=512,
                 detections_per_frame=4, clauses=8),
        Workload("detect-dense", "pipeline", videos=80, frames=32, dim=64,
                 detections_per_frame=48, clauses=4),
        Workload("chat-replay", "pipeline", videos=500, frames=12, dim=32,
                 detections_per_frame=4, clauses=10, chat=True),
        Workload("eval-recall", "eval", gt_frames=1000, gt_per_frame=12,
                 box_pairs=16, predicates_per_pair=4),
    )
}

# Clause verbs: (third person form, chat-reply predicate). All are in the rule
# parser's verb list and map to a vocabulary action through the lexicon.
IN_VOCAB_VERBS = [
    ("holds", "holding"), ("takes", "taking"), ("carries", "carrying"),
    ("sits on", "sitting on"), ("watches", "watching"), ("touches", "touching"),
    ("wipes", "wiping"), ("leans on", "leaning on"), ("lies on", "lying on"),
    ("eats", "eating"), ("drinks from", "drinking from"), ("reads", "reading"),
    ("wears", "wearing"), ("stands on", "standing on"), ("looks at", "looking at"),
    ("twists", "twisting"),
]
# Parsed by the rule parser, but their gerunds map to no vocabulary action.
UNMAPPED_VERBS = [("opens", "opening"), ("throws", "throwing"), ("pours", "pouring"),
                  ("cleans", "cleaning"), ("pushes", "pushing")]
# Unknown to the rule parser altogether: the clause yields no triplet.
UNKNOWN_VERBS = [("juggles", "juggling"), ("polishes", "polishing"), ("sniffs", "sniffing")]
# Object word -> vocabulary entity class (directly or through the lexicon).
IN_VOCAB_OBJECTS = {
    "cup": "cup/glass/bottle", "mug": "cup/glass/bottle", "bottle": "cup/glass/bottle",
    "sofa": "sofa/couch", "couch": "sofa/couch", "tv": "television",
    "television": "television", "book": "book", "phone": "phone/camera",
    "laptop": "laptop", "table": "table", "plate": "dish", "pillow": "pillow",
    "blanket": "blanket", "towel": "towel", "shoe": "shoe", "jacket": "clothes",
    "bed": "bed", "chair": "chair", "door": "door", "floor": "floor",
    "sandwich": "sandwich", "window": "window", "photo": "picture",
    "notebook": "paper/notebook", "fridge": "refrigerator", "shelf": "shelf",
}
OOV_OBJECTS = ["guitar", "spoon", "ball", "remote", "basket", "lemon"]

OOV_SHARE = 0.2
UNPARSEABLE_SHARE = 0.03
CAPPED_SHARE = 0.1  # chat workload only: captions longer than the frame cap


@dataclass
class Clause:
    subject: str
    verb: Tuple[str, str]
    obj: str

    def text(self) -> str:
        return f"the {self.subject} {self.verb[0]} the {self.obj}"

    def sentence(self) -> str:
        text = self.text()
        return text[0].upper() + text[1:] + "."

    def reply_triplet(self) -> str:
        return f"<{self.subject}, {self.verb[1]}, {self.obj}>"

    def object_class(self) -> Optional[str]:
        return IN_VOCAB_OBJECTS.get(self.obj)


def _pick(rng: np.random.Generator, items):
    return items[int(rng.integers(0, len(items)))]


def _clause(rng: np.random.Generator) -> Clause:
    subject = "person" if rng.random() < 0.8 else _pick(rng, ["man", "woman"])
    objects = sorted(IN_VOCAB_OBJECTS)
    if rng.random() >= OOV_SHARE:
        return Clause(subject, _pick(rng, IN_VOCAB_VERBS), _pick(rng, objects))
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return Clause(subject, _pick(rng, UNMAPPED_VERBS), _pick(rng, objects))
    if kind == 1:
        return Clause(subject, _pick(rng, UNKNOWN_VERBS), _pick(rng, objects))
    return Clause(subject, _pick(rng, IN_VOCAB_VERBS), _pick(rng, OOV_OBJECTS))


def _caption(clauses: List[Clause]) -> str:
    return " ".join([clauses[0].sentence()] + [f"Then {c.text()}." for c in clauses[1:]])


def _sentence_groups(clauses: List[Clause], cap: int) -> List[List[Clause]]:
    """Clauses grouped per segmented sentence after the frame-count cap."""
    groups = [[c] for c in clauses]
    if len(groups) > cap:
        groups = groups[: cap - 1] + [[c for g in groups[cap - 1 :] for c in g]]
    return groups


def _unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _box(x: float, y: float, w: float, h: float) -> BoundingBox:
    x1 = round(max(0.0, x), 1)
    y1 = round(max(0.0, y), 1)
    return BoundingBox(x1, y1, round(x1 + max(8.0, w), 1), round(y1 + max(8.0, h), 1))


def _layout(rng: np.random.Generator, frames: int, blocks: int) -> List[int]:
    """Block id per frame (0..blocks-1), or -1 for idle frames between blocks."""
    weights = rng.uniform(0.5, 1.5, size=2 * blocks + 1)
    weights[0::2] *= 0.35  # idle gaps are shorter than the blocks
    cuts = np.floor(np.cumsum(weights) / weights.sum() * frames).astype(int)
    labels = []
    start = 0
    for part, end in enumerate(cuts):
        end = int(end) if part < len(cuts) - 1 else frames
        labels.extend([part // 2 if part % 2 else -1] * max(0, end - start))
        start = max(start, end)
    return labels[:frames]


def _video(rng, spec: Workload, vocab: Vocabulary, video_id: str, clause_count: int):
    clauses = [_clause(rng) for _ in range(clause_count)]
    cap = max(1, spec.frames - 1)
    groups = _sentence_groups(clauses, cap)
    frame_ids = tuple(f"{video_id}-f{j:04d}" for j in range(1, spec.frames + 1))
    manifest = VideoManifest(video_id, frame_ids, 24.0, _caption(clauses))

    directions = [_unit(rng, spec.dim) for _ in groups]
    labels = _layout(rng, spec.frames, len(groups))
    rows = []
    for label in labels:
        base = directions[label] if label >= 0 else _unit(rng, spec.dim)
        rows.append(base + 0.6 * rng.standard_normal(spec.dim) / np.sqrt(spec.dim))
    frames = EmbeddingMatrix(frame_ids, np.asarray(rows, dtype=np.float32))
    sentences = EmbeddingMatrix(
        [str(i) for i in range(1, len(groups) + 1)],
        np.asarray(
            [d + 0.3 * rng.standard_normal(spec.dim) / np.sqrt(spec.dim) for d in directions],
            dtype=np.float32,
        ),
    )

    object_classes = sorted({c.object_class() for c in clauses if c.object_class()})
    entity_classes = sorted(vocab.entity_classes - {"person"})
    detections = []
    anchors = {cls: (rng.uniform(0, 480), rng.uniform(0, 320)) for cls in object_classes}
    walk = rng.uniform(-6.0, 6.0)
    for f in range(1, spec.frames + 1):
        person = _box(40 + walk * f + rng.normal(0, 4), 30 + rng.normal(0, 4),
                      rng.uniform(60, 120), rng.uniform(150, 220))
        frame_dets = [Detection(f, "person", person, round(float(rng.uniform(0.6, 0.99)), 3))]
        # The clause of the frame's own block comes first, so short
        # detection lists still ground the sentence aligned there.
        label = labels[f - 1]
        own = groups[label][0].object_class() if label >= 0 else None
        others = [object_classes[j] for j in rng.permutation(len(object_classes))]
        for cls in ([own] if own else []) + [c for c in others if c != own]:
            if len(frame_dets) < spec.detections_per_frame and rng.random() < 0.85:
                x, y = anchors[cls]
                frame_dets.append(Detection(
                    f, cls,
                    _box(x + rng.normal(0, 3), y + rng.normal(0, 3),
                         rng.uniform(30, 90), rng.uniform(30, 90)),
                    round(float(rng.uniform(0.15, 0.99)), 3),
                ))
        # Distractors: random classes, low confidences around the floor.
        n = spec.detections_per_frame - len(frame_dets)
        classes = rng.integers(0, len(entity_classes), size=n)
        x1 = np.round(rng.uniform(0, 560, size=n), 1)
        y1 = np.round(rng.uniform(0, 400, size=n), 1)
        x2 = np.round(x1 + rng.uniform(8, 160, size=n), 1)
        y2 = np.round(y1 + rng.uniform(8, 160, size=n), 1)
        confidence = np.round(rng.uniform(0.02, 0.7, size=n), 3)
        for j in range(n):
            frame_dets.append(Detection(
                f, entity_classes[classes[j]],
                BoundingBox(float(x1[j]), float(y1[j]), float(x2[j]), float(y2[j])),
                float(confidence[j]),
            ))
        detections.extend(frame_dets)
    return manifest, clauses, groups, frames, sentences, detections


def _mapping_calls(triplet_names: Tuple[str, str, str], vocab: Vocabulary) -> List[Tuple[str, bool]]:
    """(name, is_entity) for each class the chat mapping must ask about."""
    subject, predicate, obj = triplet_names
    calls = []
    if subject not in vocab.entity_classes:
        calls.append((subject, True))
    if predicate not in vocab.action_classes:
        calls.append((predicate, False))
    if obj not in vocab.entity_classes:
        calls.append((obj, True))
    return calls


def _record_chat(cache_dir: Path, vocab: Vocabulary, manifest: VideoManifest,
                 groups: List[List[Clause]], rng, parseable: Dict[str, bool]) -> int:
    """Write the cassettes one video's chat calls replay; returns the call count.

    ``parseable`` remembers the reply kind of each sentence already recorded,
    because equal sentences in two videos share one cassette.
    """
    sentence_texts = [" ".join(c.sentence() for c in g) for g in groups]
    # The reply lists one numbered item per clause; the segmenter caps them.
    items = [c.sentence() for g in groups for c in g]
    reply = "\n".join(f"{i}. {text}" for i, text in enumerate(items, start=1))
    write_cassette(cache_dir, MODEL, build_prompt(manifest.caption), reply, 650, 15 * len(items))
    calls = 1
    lexicon = SynonymLexicon.bundled()
    entity_list = ", ".join(sorted(vocab.entity_classes))
    action_list = ", ".join(sorted(vocab.action_classes))
    for text, group in zip(sentence_texts, groups):
        calls += 1
        if text not in parseable:
            parseable[text] = rng.random() >= UNPARSEABLE_SHARE
        if not parseable[text]:
            write_cassette(cache_dir, MODEL, build_parse_prompt(text), "I am not sure.", 90, 5)
            continue
        write_cassette(cache_dir, MODEL, build_parse_prompt(text),
                       "\n".join(c.reply_triplet() for c in group), 90, 8 * len(group))
        for c in group:
            for name, is_entity in _mapping_calls((c.subject, c.verb[1], c.obj), vocab):
                calls += 1
                synonyms = lexicon.entity_synonyms if is_entity else lexicon.action_synonyms
                prompt = MAPPING_PROMPT_TEMPLATE.format(
                    name=name, classes=entity_list if is_entity else action_list
                )
                write_cassette(cache_dir, MODEL, prompt, synonyms.get(name, "none"), 120, 3)
    return calls


def _generate_pipeline(spec: Workload, rng, root: Path) -> dict:
    vocab = Vocabulary.action_genome()
    manifests = []
    parseable: Dict[str, bool] = {}
    facts = {"videos": spec.videos, "frames": 0, "dim": spec.dim, "detection_lines": 0,
             "chat_calls": 0, "sentences": 0, "clauses": 0, "captions_capped": 0}
    for i in range(spec.videos):
        video_id = f"v{i:05d}"
        clause_count = spec.clauses
        if spec.chat and rng.random() < CAPPED_SHARE:
            clause_count = spec.frames + 1
        manifest, clauses, groups, frames, sentences, detections = _video(
            rng, spec, vocab, video_id, clause_count
        )
        manifests.append(manifest)
        write_embeddings(frames, root / "embeddings" / f"{video_id}.frames.nlve")
        write_embeddings(sentences, root / "embeddings" / f"{video_id}.sentences.nlve")
        write_detections(detections, root / "detections" / f"{video_id}.ndjson")
        if spec.chat:
            facts["chat_calls"] += _record_chat(root / "cassettes", vocab, manifest, groups, rng,
                                               parseable)
        facts["frames"] += spec.frames
        facts["detection_lines"] += len(detections)
        facts["sentences"] += len(groups)
        facts["clauses"] += len(clauses)
        facts["captions_capped"] += int(len(groups) < len(clauses))
    write_manifests(manifests, root / "manifest.ndjson")
    return facts


def _generate_eval(spec: Workload, rng, root: Path) -> dict:
    vocab = Vocabulary.action_genome()
    entities = sorted(vocab.entity_classes - {"person"})
    actions = sorted(vocab.action_classes - vocab.negative_classes)
    frames_per_video = 20
    gt_graphs, pred_graphs = [], []
    for v in range(max(1, spec.gt_frames // frames_per_video)):
        video_id = f"e{v:05d}"
        gt, pred = [], []
        for f in range(1, frames_per_video + 1):
            person = _box(rng.uniform(0, 400), rng.uniform(0, 200),
                          rng.uniform(60, 140), rng.uniform(150, 260))
            pairs = []
            for _ in range(spec.gt_per_frame):
                obj_class = _pick(rng, entities)
                obj = _box(rng.uniform(0, 560), rng.uniform(0, 400),
                           rng.uniform(20, 120), rng.uniform(20, 120))
                predicate = _pick(rng, actions)
                gt.append(Triplet("person", predicate, obj_class, person, obj, f,
                                  provenance=Provenance.GROUND_TRUTH))
                pairs.append((obj_class, obj, predicate))
            for p in range(spec.box_pairs):
                if p < len(pairs) and rng.random() < 0.85:
                    obj_class, obj, true_predicate = pairs[p]
                    jitter = 10.0 if rng.random() < 0.8 else 40.0
                    sub_box = _box(person.x1 + rng.normal(0, jitter / 4), person.y1,
                                   person.x2 - person.x1, person.y2 - person.y1)
                    obj_box = _box(obj.x1 + rng.normal(0, jitter / 4),
                                   obj.y1 + rng.normal(0, jitter / 4),
                                   obj.x2 - obj.x1, obj.y2 - obj.y1)
                else:
                    obj_class, true_predicate = _pick(rng, entities), None
                    sub_box = person
                    obj_box = _box(rng.uniform(0, 560), rng.uniform(0, 400),
                                   rng.uniform(20, 120), rng.uniform(20, 120))
                predicates = list(rng.choice(actions, size=spec.predicates_per_pair, replace=False))
                if true_predicate and true_predicate not in predicates and rng.random() < 0.75:
                    predicates[int(rng.integers(0, len(predicates)))] = true_predicate
                for predicate in predicates:
                    pred.append(Triplet("person", str(predicate), obj_class, sub_box, obj_box, f,
                                        score=round(float(rng.random()), 4),
                                        provenance=Provenance.PREDICTION))
        gt_graphs.append(SceneGraph.from_triplets(video_id, gt))
        pred_graphs.append(SceneGraph.from_triplets(video_id, pred))
    write_scene_graphs(gt_graphs, root / "gt.ndjson")
    write_scene_graphs(pred_graphs, root / "pred.ndjson")
    return {
        "gt_frames": sum(len(g.per_frame) for g in gt_graphs),
        "gt_triplets": sum(len(g.all_triplets()) for g in gt_graphs),
        "predictions": sum(len(g.all_triplets()) for g in pred_graphs),
    }


def generate(workload: str, seed: int, root, **sizes) -> dict:
    """Write the dataset for ``workload`` and ``seed`` under ``root``.

    ``sizes`` overrides fields of the workload's shape (tests use tiny ones).
    Returns the generated sizes, which are also written to ``facts.json``.
    """
    spec = replace(WORKLOADS[workload], **sizes)
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    if spec.kind == "eval":
        facts = _generate_eval(spec, rng, root)
    else:
        facts = _generate_pipeline(spec, rng, root)
    facts = {"workload": workload, "seed": seed, **facts}
    (root / "facts.json").write_text(json.dumps(facts, sort_keys=True, indent=1) + "\n")
    return facts
