"""Cutoff-frequency sweep: caption filtered images, score hallucinations.

Each image is loaded and transformed once; the sweep keeps its spectrum, not
its pixels. For each cutoff only the branch the mode names is inverted from
that spectrum, exported (clamped to 8-bit), captioned by the oracle process,
and scored against ground truth. One oracle process serves the whole sweep,
so each image id is sent once per cutoff. One CSV row per cutoff; results
are all-or-nothing, a failure anywhere emits no partial rows.
"""

import dataclasses
import json
import math
import numbers
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

from ..metrics import CaptionRecord, SynonymTable, chair, extract_objects
from ..spectral import BRANCHES, filter_branch, image_spectrum
from .formats import (
    DataFormatError,
    bundled_synonyms_path,
    canonical_set,
    load_ground_truth,
)
from .imageio import load_image, save_image
from .oracle import DEFAULT_PROMPT, DEFAULT_TIMEOUT, CaptionOracle


def _number(x):
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _path(x):
    return isinstance(x, (str, os.PathLike))


def _list_of(ok):
    return lambda x: isinstance(x, (list, tuple)) and all(map(ok, x))


# (field, test, what the test asks for) for every field but mode
_FIELD_TYPES = (
    ("cutoffs", _list_of(_number), "a list of numbers"),
    ("images", _list_of(_path), "a list of paths"),
    ("oracle", lambda x: isinstance(x, str) or _list_of(_path)(x),
     "a command string or a list of arguments"),
    ("ground_truth", _path, "a path"),
    ("synonyms", lambda x: x is None or _path(x), "a path"),
    ("timeout", lambda x: _number(x) and 0 < x < math.inf,
     "a positive, finite number of seconds"),
    ("prompt", lambda x: isinstance(x, str), "a string"),
)


@dataclass(frozen=True)
class SweepConfig:
    mode: str
    cutoffs: tuple
    images: tuple
    oracle: str
    ground_truth: str
    synonyms: str = None
    timeout: float = DEFAULT_TIMEOUT
    prompt: str = DEFAULT_PROMPT

    def __post_init__(self):
        # every field is checked here, before any file is read or the oracle starts
        if self.mode not in BRANCHES:
            raise ValueError(f"mode must be 'low' or 'high', got {self.mode!r}")
        for key, ok, expected in _FIELD_TYPES:
            value = getattr(self, key)
            if not ok(value):
                raise ValueError(f"{key} must be {expected}, got {value!r}")
        cutoffs = tuple(float(c) for c in self.cutoffs)
        if not cutoffs:
            raise ValueError("cutoffs must be non-empty")
        if not all(c > 0 for c in cutoffs):  # NaN too
            raise ValueError(f"cutoffs must be positive, got {list(cutoffs)}")
        if any(b <= a for a, b in zip(cutoffs, cutoffs[1:])):
            raise ValueError(f"cutoffs must be strictly increasing, got {list(cutoffs)}")
        images = tuple(str(p) for p in self.images)
        if not images:
            raise ValueError("image list must be non-empty")
        object.__setattr__(self, "cutoffs", cutoffs)
        object.__setattr__(self, "images", images)

    @classmethod
    def from_json(cls, path):
        """Load a config file; relative paths resolve against its directory."""
        path = Path(path)
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: invalid JSON ({exc.msg})") from None
        if not isinstance(raw, dict):
            raise DataFormatError(f"{path}: config must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise DataFormatError(f"{path}: unknown config keys {sorted(unknown)}")
        missing = {"mode", "cutoffs", "images", "oracle", "ground_truth"} - set(raw)
        if missing:
            raise DataFormatError(f"{path}: missing config keys {sorted(missing)}")
        try:
            config = cls(**raw)
        except ValueError as exc:
            raise DataFormatError(f"{path}: {exc}") from None
        base = path.parent
        return dataclasses.replace(
            config,
            images=tuple(str(base / p) for p in config.images),
            ground_truth=str(base / config.ground_truth),
            synonyms=None if config.synonyms is None else str(base / config.synonyms),
        )


@dataclass(frozen=True)
class SweepRow:
    cutoff: float
    chair_i: float
    chair_s: float
    n: int


@dataclass(frozen=True)
class SweepResult:
    mode: str
    rows: tuple

    def to_csv(self) -> str:
        lines = ["cutoff,chair_i,chair_s,n"]
        for row in self.rows:
            lines.append(
                f"{row.cutoff:g},{row.chair_i:.6f},{row.chair_s:.6f},{row.n}"
            )
        return "\n".join(lines) + "\n"


def _image_ids(paths):
    ids = [Path(p).stem for p in paths]
    seen = set()
    for image_id in ids:
        if image_id in seen:
            raise DataFormatError(
                f"duplicate image id {image_id!r}; image basenames must be unique"
            )
        seen.add(image_id)
    return ids


def run_sweep(config: SweepConfig) -> SweepResult:
    table = SynonymTable.from_json(config.synonyms or bundled_synonyms_path())
    gt_raw = load_ground_truth(config.ground_truth)
    ids = _image_ids(config.images)

    ground_truth = {}
    for image_id in ids:
        if image_id not in gt_raw:
            raise DataFormatError(
                f"{config.ground_truth}: no ground truth for image {image_id!r}"
            )
        ground_truth[image_id] = canonical_set(
            gt_raw[image_id], table, f"{config.ground_truth}: image {image_id!r}"
        )

    spectra = [image_spectrum(load_image(p)) for p in config.images]

    rows = []
    # the oracle starts up while the first cutoff is filtered and exported
    with (
        tempfile.TemporaryDirectory(prefix="freqfuse-sweep-") as tmp,
        CaptionOracle(
            config.oracle, timeout=config.timeout, prompt=config.prompt
        ) as oracle,
    ):
        for cutoff in config.cutoffs:
            batch = []
            for image_id, spectrum in zip(ids, spectra):
                filtered = filter_branch(spectrum, cutoff, config.mode)
                out_path = Path(tmp) / f"{image_id}-{cutoff:g}.ppm"
                save_image(filtered, out_path)
                batch.append((image_id, out_path))
            captions = oracle.caption_batch(batch)
            records = [
                CaptionRecord(
                    id=image_id,
                    mentioned=extract_objects(captions[image_id], table),
                    ground_truth=ground_truth[image_id],
                )
                for image_id in ids
            ]
            report = chair(records)
            rows.append(
                SweepRow(
                    cutoff=cutoff,
                    chair_i=report.chair_i,
                    chair_s=report.chair_s,
                    n=len(records),
                )
            )
    return SweepResult(mode=config.mode, rows=tuple(rows))
