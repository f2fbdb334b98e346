"""Line-delimited JSON record files for captions, probes, and ground truth."""

import importlib.resources
import json

from ..metrics import CaptionRecord, PopeRecord, extract_objects


class DataFormatError(Exception):
    """A record file that cannot be parsed into valid records."""


def bundled_synonyms_path() -> str:
    """Path of the synonym table shipped with the package."""
    return str(importlib.resources.files("freqfuse") / "data" / "synonyms.json")


def _iter_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
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


def canonical_set(names, table, where):
    """Canonical classes of ground-truth names; errors start with `where`."""
    out = set()
    for name in names:
        if not isinstance(name, str):
            raise DataFormatError(f"{where}: ground-truth entries must be strings")
        canonical = table.canonicalize(name)
        if canonical is None:
            raise DataFormatError(
                f"{where}: unknown object class {name!r} (not in the synonym table)"
            )
        out.add(canonical)
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
        gt_names = _require(record, "ground_truth", list, path, line_no)
        records.append(
            CaptionRecord(
                id=rid,
                mentioned=extract_objects(caption, table),
                ground_truth=canonical_set(gt_names, table, f"{path}:{line_no}"),
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
        names = _require(record, "ground_truth", list, path, line_no)
        if not all(isinstance(n, str) for n in names):
            raise DataFormatError(
                f"{path}:{line_no}: ground-truth entries must be strings"
            )
        if rid in table:
            raise DataFormatError(f"{path}:{line_no}: duplicate id {rid!r}")
        table[rid] = list(names)
    return table
