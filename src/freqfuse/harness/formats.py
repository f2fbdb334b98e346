"""Line-delimited JSON record files for captions, probes, and ground truth."""

import functools
import importlib.resources
import json

from ..metrics import CaptionRecord, PopeRecord, extract_objects
from .oracle import MAX_REPLY_LINE


class DataFormatError(Exception):
    """A record file that cannot be parsed into valid records."""


def bundled_synonyms_path() -> str:
    """Path of the synonym table shipped with the package."""
    return str(importlib.resources.files("freqfuse") / "data" / "synonyms.json")


def _iter_jsonl(path):
    """(line number, JSON object) for each non-blank line of a JSONL file.

    A line is read up to the oracle's cap on a reply line, MAX_REPLY_LINE
    bytes with the newline excluded, so an over-long line is refused before
    it is held whole; lines must be UTF-8 and end at "\n" ("\r\n" is fine).
    """
    with open(path, "rb") as fh:
        read_line = functools.partial(fh.readline, MAX_REPLY_LINE + 1)
        for line_no, raw in enumerate(iter(read_line, b""), start=1):
            if len(raw) > MAX_REPLY_LINE and not raw.endswith(b"\n"):
                raise DataFormatError(
                    f"{path}:{line_no}: line longer than {MAX_REPLY_LINE} bytes"
                )
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError:
                raise DataFormatError(f"{path}:{line_no}: not valid UTF-8") from None
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataFormatError(
                    f"{path}:{line_no}: invalid JSON ({exc.msg})"
                ) from None
            if not isinstance(record, dict):
                raise DataFormatError(f"{path}:{line_no}: expected a JSON object")
            yield line_no, record


def _require(record, key, kind, path, line_no):
    value = record.get(key)
    if not isinstance(value, kind):
        raise DataFormatError(
            f"{path}:{line_no}: field {key!r} must be {kind.__name__}"
        )
    return value


def _ground_truth_names(record, path, line_no):
    names = _require(record, "ground_truth", list, path, line_no)
    if not all(isinstance(n, str) for n in names):
        raise DataFormatError(
            f"{path}:{line_no}: ground-truth entries must be strings"
        )
    return names


def canonical_set(names, table, where):
    """Canonical classes of ground-truth names, as a frozenset.

    An unknown name is an error whose message starts with `where()`; it is
    called only then, so formatting the location costs nothing per record.
    """
    out = frozenset(map(table.canonicalize, names))
    if None in out:
        name = next(n for n in names if table.canonicalize(n) is None)
        raise DataFormatError(
            f"{where()}: unknown object class {name!r} (not in the synonym table)"
        )
    return out


def load_caption_records(path, table):
    """Captions JSONL {"id","caption","ground_truth":[...]} -> CaptionRecords.

    Captions go through synonym extraction; each ground-truth name must be a
    surface form in the table and is stored as its canonical class.
    """
    records = []
    for line_no, record in _iter_jsonl(path):
        rid = _require(record, "id", str, path, line_no)
        caption = _require(record, "caption", str, path, line_no)
        gt_names = _ground_truth_names(record, path, line_no)
        records.append(
            CaptionRecord(
                id=rid,
                mentioned=extract_objects(caption, table),
                ground_truth=canonical_set(
                    gt_names, table, lambda: f"{path}:{line_no}"
                ),
            )
        )
    if not records:
        raise DataFormatError(f"{path}: no caption records")
    return records


def load_pope_records(path):
    """Probe JSONL {"id","predicted":"yes|no","gold":"yes|no"} -> PopeRecords."""
    records = []
    for line_no, record in _iter_jsonl(path):
        rid = _require(record, "id", str, path, line_no)
        predicted = _require(record, "predicted", str, path, line_no)
        gold = _require(record, "gold", str, path, line_no)
        try:
            records.append(PopeRecord(id=rid, predicted=predicted, gold=gold))
        except ValueError as exc:
            raise DataFormatError(f"{path}:{line_no}: {exc}") from None
    if not records:
        raise DataFormatError(f"{path}: no probe records")
    return records


def load_ground_truth(path):
    """Ground-truth JSONL {"id","ground_truth":[...]} -> {id: [names]}."""
    table = {}
    for line_no, record in _iter_jsonl(path):
        rid = _require(record, "id", str, path, line_no)
        names = _ground_truth_names(record, path, line_no)
        if rid in table:
            raise DataFormatError(f"{path}:{line_no}: duplicate id {rid!r}")
        table[rid] = list(names)
    return table
