"""Object-hallucination metrics over captions and yes/no probes.

A caption is scored against a ground-truth object set: mentions are
extracted with a synonym table (longest surface match wins, so "hot dog"
never counts as "dog"), and a mention outside the ground truth is a
hallucination. Ratios are reported per caption batch; the yes/no probe
scorer is a plain confusion-matrix F1 with "yes" as the positive class.
"""

import json
import re
from dataclasses import dataclass

_TOKEN = re.compile(r"[a-z0-9]+")


def _tokenize(text: str):
    return tuple(_TOKEN.findall(text.lower()))


class SynonymTable:
    """Maps surface forms to canonical object classes.

    Every canonical class maps to itself; a surface form that tokenizes
    identically to another must agree on the canonical class.
    """

    def __init__(self, mapping):
        self._by_tokens = {}
        self._max_len = 0
        canon = {}
        for surface, target in mapping.items():
            key = _tokenize(surface)
            if not key:
                raise ValueError(f"surface form {surface!r} has no tokens")
            if key in self._by_tokens and self._by_tokens[key] != target:
                raise ValueError(
                    f"surface form {surface!r} maps to both "
                    f"{self._by_tokens[key]!r} and {target!r}"
                )
            self._by_tokens[key] = target
            canon[target] = True
            self._max_len = max(self._max_len, len(key))
        for target in canon:
            key = _tokenize(target)
            if not key:
                raise ValueError(f"canonical class {target!r} has no tokens")
            existing = self._by_tokens.get(key)
            if existing is None:
                self._by_tokens[key] = target
                self._max_len = max(self._max_len, len(key))
            elif existing != target:
                raise ValueError(
                    f"canonical class {target!r} is mapped away to {existing!r}"
                )
        self._canonical = frozenset(canon)

    @classmethod
    def from_json(cls, path):
        with open(path, encoding="utf-8") as fh:
            mapping = json.load(fh)
        if not isinstance(mapping, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in mapping.items()
        ):
            raise ValueError(f"{path}: synonym file must map strings to strings")
        return cls(mapping)

    @property
    def canonical_classes(self) -> frozenset:
        return self._canonical

    def canonicalize(self, name: str):
        """Canonical class for one surface form, or None if unknown."""
        return self._by_tokens.get(_tokenize(name))


def extract_objects(caption: str, table: SynonymTable) -> set:
    """Canonical classes mentioned in a caption, longest surface match first."""
    tokens = _tokenize(caption)
    found = set()
    i = 0
    while i < len(tokens):
        for n in range(min(table._max_len, len(tokens) - i), 0, -1):
            target = table._by_tokens.get(tokens[i : i + n])
            if target is not None:
                found.add(target)
                i += n
                break
        else:
            i += 1
    return found


@dataclass(frozen=True)
class CaptionRecord:
    id: str
    mentioned: frozenset
    ground_truth: frozenset

    def __post_init__(self):
        object.__setattr__(self, "mentioned", frozenset(self.mentioned))
        object.__setattr__(self, "ground_truth", frozenset(self.ground_truth))


@dataclass(frozen=True)
class PopeRecord:
    id: str
    predicted: str
    gold: str

    def __post_init__(self):
        for field in ("predicted", "gold"):
            value = getattr(self, field)
            if value not in ("yes", "no"):
                raise ValueError(f"{field} must be 'yes' or 'no', got {value!r}")


@dataclass(frozen=True)
class ChairReport:
    chair_s: float
    chair_i: float
    precision: float
    recall: float
    f1: float
    total_captions: int
    hallucinated_captions: int
    total_mentions: int
    hallucinated_mentions: int


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def chair(records) -> ChairReport:
    """Hallucination ratios and micro-averaged object precision/recall/F1."""
    records = list(records)
    if not records:
        raise ValueError("no caption records to score")
    total_mentions = 0
    bad_mentions = 0
    bad_captions = 0
    true_mentions = 0
    total_gt = 0
    for rec in records:
        hallucinated = rec.mentioned - rec.ground_truth
        total_mentions += len(rec.mentioned)
        bad_mentions += len(hallucinated)
        if hallucinated:
            bad_captions += 1
        true_mentions += len(rec.mentioned & rec.ground_truth)
        total_gt += len(rec.ground_truth)
    precision = _ratio(true_mentions, total_mentions)
    recall = _ratio(true_mentions, total_gt)
    f1 = _ratio(2 * precision * recall, precision + recall)
    return ChairReport(
        chair_s=_ratio(bad_captions, len(records)),
        chair_i=_ratio(bad_mentions, total_mentions),
        precision=precision,
        recall=recall,
        f1=f1,
        total_captions=len(records),
        hallucinated_captions=bad_captions,
        total_mentions=total_mentions,
        hallucinated_mentions=bad_mentions,
    )


def pope_f1(records):
    """(precision, recall, f1, accuracy) with "yes" as the positive class."""
    records = list(records)
    if not records:
        raise ValueError("no probe records to score")
    tp = sum(1 for r in records if r.predicted == "yes" and r.gold == "yes")
    fp = sum(1 for r in records if r.predicted == "yes" and r.gold == "no")
    fn = sum(1 for r in records if r.predicted == "no" and r.gold == "yes")
    tn = sum(1 for r in records if r.predicted == "no" and r.gold == "no")
    precision = _ratio(tp, tp + fp)
    recall = _ratio(tp, tp + fn)
    f1 = _ratio(2 * precision * recall, precision + recall)
    accuracy = _ratio(tp + tn, len(records))
    return precision, recall, f1, accuracy
