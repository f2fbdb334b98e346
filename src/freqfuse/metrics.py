"""Object-hallucination metrics over captions and yes/no probes.

A caption is scored against a ground-truth object set. Its tokens, like
those of every surface form, are the runs of ASCII a-z and 0-9 after
str.lower(); every other character separates tokens, non-ASCII ones
included (U+212A KELVIN SIGN lowercases to "k"). Mentions are
extracted with a synonym table (longest surface match wins, so "hot dog"
never counts as "dog"), and a mention outside the ground truth is a
hallucination. The table indexes its forms once, by exact name and by
first token, so a caption token that starts no form costs one dict miss
however large the table is. Ratios are reported per caption batch; the
yes/no probe scorer is a plain confusion-matrix F1 with "yes" as the
positive class.
"""

from dataclasses import dataclass

from .spectral import shown

# a-z and 0-9 stay, every other byte becomes a space. The UTF-8 bytes of a
# non-ASCII character (and, under surrogatepass, of a lone surrogate) are
# all >= 0x80, so each separates tokens, as in re.findall(r"[a-z0-9]+", ...)
_TOKEN_BYTES = b"abcdefghijklmnopqrstuvwxyz0123456789"
_SEPARATORS = bytes(b if b in _TOKEN_BYTES else 0x20 for b in range(256))


def _tokenize(text: str):
    """Runs of ASCII a-z and 0-9 in text.lower(), as a tuple."""
    raw = text.lower().encode("utf-8", "surrogatepass")
    return tuple(raw.translate(_SEPARATORS).decode("ascii").split())


class SynonymTable:
    """Maps surface forms to canonical object classes.

    Every canonical class maps to itself; a surface form that tokenizes
    identically to another must agree on the canonical class.

    Three dicts, each bounded by the size of the table, are built once:
    token tuple -> class; exact surface or canonical string -> class, which
    `canonicalize` tries before tokenizing (the checks above make the two
    agree); and first token -> the token lengths of the forms that start
    with it, longest first, which `extract_objects` probes at each token.
    """

    def __init__(self, mapping):
        if not isinstance(mapping, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in mapping.items()
        ):
            raise ValueError("a synonym table must map strings to strings")
        self._by_tokens = {}
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
        for target in canon:
            key = _tokenize(target)
            if not key:
                raise ValueError(f"canonical class {target!r} has no tokens")
            existing = self._by_tokens.get(key)
            if existing is None:
                self._by_tokens[key] = target
            elif existing != target:
                raise ValueError(
                    f"canonical class {target!r} is mapped away to {existing!r}"
                )
        self._canonical = frozenset(canon)
        self._by_name = {
            name: self._by_tokens[_tokenize(name)] for name in (*mapping, *canon)
        }
        lengths = {}
        for key in self._by_tokens:
            lengths.setdefault(key[0], set()).add(len(key))
        self._lengths = {
            first: tuple(sorted(ns, reverse=True)) for first, ns in lengths.items()
        }

    @classmethod
    def from_json(cls, path):
        """The table in a JSON file; a file fault is a DataFormatError, a
        ValueError, naming the path."""
        # imported here: formats imports this module
        from .harness.formats import DataFormatError, read_json

        mapping = read_json(path)
        try:
            return cls(mapping)
        except ValueError as exc:
            raise DataFormatError(f"{path}: {exc}") from None

    @property
    def canonical_classes(self) -> frozenset:
        return self._canonical

    def canonicalize(self, name: str):
        """Canonical class for one surface form, or None if unknown."""
        target = self._by_name.get(name)
        if target is None:
            target = self._by_tokens.get(_tokenize(name))
        return target


def extract_objects(caption: str, table: SynonymTable) -> set:
    """Canonical classes mentioned in a caption, longest surface match first.

    Matching is greedy, left to right, over the tokens of the caption: at
    each token the longest form that starts there wins and its tokens are
    consumed. A token that starts no form costs one dict miss.
    """
    tokens = _tokenize(caption)
    by_tokens = table._by_tokens
    lengths = table._lengths
    found = set()
    i = 0
    end = len(tokens)
    while i < end:
        for n in lengths.get(tokens[i], ()):
            # a slice cut short by the end of the caption can only equal a
            # form of the length that remains, the longest that fits
            target = by_tokens.get(tokens[i : i + n])
            if target is not None:
                found.add(target)
                i += n
                break
        else:
            i += 1
    return found


@dataclass(frozen=True, slots=True)
class CaptionRecord:
    """A caption's mentioned classes and its ground truth, as frozensets.

    A frozenset is kept as the same object, so records may share one; any
    other iterable is made one, but a str or bytes is a TypeError naming
    the field, since it would become the set of its characters.
    """

    id: str
    mentioned: frozenset
    ground_truth: frozenset

    def __post_init__(self):
        if type(self.mentioned) is frozenset and type(self.ground_truth) is frozenset:
            return  # as the loader gives them
        for field in ("mentioned", "ground_truth"):
            value = getattr(self, field)
            if type(value) is not frozenset:
                if isinstance(value, (str, bytes)):
                    raise TypeError(
                        f"{field} must be a set of class names, "
                        f"not {type(value).__name__}"
                    )
                object.__setattr__(self, field, frozenset(value))


@dataclass(frozen=True)
class PopeRecord:
    id: str
    predicted: str
    gold: str

    def __post_init__(self):
        for field in ("predicted", "gold"):
            value = getattr(self, field)
            if value not in ("yes", "no"):
                raise ValueError(f"{field} must be 'yes' or 'no', got {shown(value)}")


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
