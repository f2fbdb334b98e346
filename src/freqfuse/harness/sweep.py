"""Cutoff-frequency sweep: caption filtered images, score hallucinations.

The sweep goes image by image: it reads an image, takes its spectrum once,
inverts the branch the mode names at every cutoff into that cutoff's
folder, and drops the spectrum before the next image is loaded, so one
spectrum is alive at a time; each filter_branch call builds its own mask.
The spectrum and its branches are single precision, as an 8-bit export
needs no more: a byte can differ by 1 from decompose's float64 branch
exported. Each export is clamped to 8-bit, captioned by the oracle
process, and scored against ground truth. One oracle process serves the
whole sweep in one batch, started before any image is loaded: each
export's request goes out as soon as it is written, under the id
"<cutoff label>/<image id>", so the oracle answers while later exports are
made. A sweep that lists a PNG has its images decoded round-robin in
forked processes, one per usable CPU and each into a pipe of its own, as
far ahead of the one being exported as its pipe holds, since PNG decoding
is pure Python and would leave the other cores idle; a PPM-only sweep
reads each image in the parent. One CSV row per cutoff; results are
all-or-nothing, a failure anywhere emits no partial rows.
"""

import contextlib
import dataclasses
import itertools
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..metrics import CaptionRecord, SynonymTable, chair, extract_objects
from ..spectral import (
    BRANCHES, check_real, filter_branch, image_spectrum, shown, usable_cpus
)
from .formats import (
    DataFormatError,
    bundled_synonyms_path,
    canonical_set,
    load_ground_truth,
    read_json,
)
from .imageio import float_pixels, read_image, save_image
from .oracle import (
    DEFAULT_PROMPT, DEFAULT_TIMEOUT, CaptionOracle, check_timeout, parse_command
)


def _label(cutoff):
    return f"{cutoff:g}"


def _path(x):
    return isinstance(x, (str, os.PathLike))


# (field, test, what the test asks for); oracle and timeout take CaptionOracle's rules
_FIELD_TYPES = (
    ("mode", lambda x: x in BRANCHES, "'low' or 'high'"),
    ("cutoffs", lambda x: isinstance(x, (list, tuple)), "a list of numbers"),
    ("images", lambda x: isinstance(x, (list, tuple)) and all(map(_path, x)),
     "a list of paths"),
    ("ground_truth", _path, "a path"),
    ("synonyms", lambda x: x is None or _path(x), "a path"),
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
        for key, ok, expected in _FIELD_TYPES:
            value = getattr(self, key)
            if not ok(value):
                raise ValueError(f"{key} must be {expected}, got {shown(value)}")
        if not parse_command(self.oracle):
            raise ValueError(f"oracle must be a non-empty command, got {shown(self.oracle)}")
        check_timeout(self.timeout)
        cutoffs = tuple(check_real("cutoffs", c) for c in self.cutoffs)
        if not cutoffs:
            raise ValueError("cutoffs must be non-empty")
        if not all(c > 0 for c in cutoffs):  # NaN too
            raise ValueError(f"cutoffs must be positive, got {list(cutoffs)}")
        if any(b <= a for a, b in zip(cutoffs, cutoffs[1:])):
            raise ValueError(f"cutoffs must be strictly increasing, got {list(cutoffs)}")
        # the CSV rows and the export folders carry the label, not the cutoff
        for a, b in zip(cutoffs, cutoffs[1:]):
            if _label(a) == _label(b):
                raise ValueError(
                    "cutoffs must be distinct in 6 significant digits: "
                    f"{a!r} and {b!r} print the same ({_label(a)})"
                )
        images = tuple(str(p) for p in self.images)
        if not images:
            raise ValueError("image list must be non-empty")
        object.__setattr__(self, "cutoffs", cutoffs)
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "timeout", float(self.timeout))

    @classmethod
    def from_json(cls, path):
        """Load a config file; relative paths resolve against its directory."""
        path = Path(path)
        raw = read_json(path)
        if not isinstance(raw, dict):
            raise DataFormatError(f"{path}: config must be a JSON object")
        fields = dataclasses.fields(cls)
        unknown = set(raw) - {f.name for f in fields}
        if unknown:
            raise DataFormatError(f"{path}: unknown config keys {sorted(unknown)}")
        missing = {f.name for f in fields if f.default is dataclasses.MISSING} - set(raw)
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
    rows: tuple

    def to_csv(self) -> str:
        lines = ["cutoff,chair_i,chair_s,n"]
        for row in self.rows:
            lines.append(
                f"{_label(row.cutoff)},{row.chair_i:.6f},{row.chair_s:.6f},{row.n}"
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


def _exports(config, ids, images, directory):
    """Filter and write each image at every cutoff, image by image.

    images yields each id's read_image pixels in turn. Yields each export's
    path as soon as it is written: <directory>/<cutoff label>/<image id>.ppm.
    """
    # one folder per cutoff: ids and labels are each unique, so no
    # export overwrites another before the oracle has read it
    folders = [Path(directory) / _label(cutoff) for cutoff in config.cutoffs]
    for folder in folders:
        folder.mkdir()
    for image_id in ids:
        # the one cast of both routes' pixels: 8-bit exports need no more
        spectrum = image_spectrum(float_pixels(next(images), np.float32), np.float32)
        for cutoff, folder in zip(config.cutoffs, folders):
            path = folder / f"{image_id}.ppm"
            save_image(filter_branch(spectrum, cutoff, config.mode), path)
            yield path
        del spectrum  # before the next image's spectrum is taken


# the default pipe size limit on Linux: a 375x500 image is 0.54 MiB
DECODER_PIPE_BYTES = 1 << 20


@contextlib.contextmanager
def _decoded(paths):
    """An iterator over each path's pixels, as read_image returns them.

    The extension decides only where read_image runs. With no .png path,
    each image is read here when it is taken; otherwise n forked processes,
    one per usable CPU up to one per image, decode them while the caller
    exports the image taken: decoder j decodes paths[j::n] in order into a
    pipe of its own, as far ahead as that pipe holds, and image i is taken
    from pipe i % n. PNG decoding is pure Python, and the forks pay for
    themselves only there. Every decoder is killed and reaped on the way out.
    """
    if not any(p.lower().endswith(".png") for p in paths):
        yield map(read_image, paths)
        return
    # imported here: the captioner child imports this module, and loads no PNG
    from .forks import forked

    n = min(usable_cpus(), len(paths))
    # the paths reach the decoders through the fork: nothing is sent
    jobs = [(_decode, (paths[j::n],)) for j in range(n)]
    with forked(jobs, DECODER_PIPE_BYTES) as (decoders, pipes):
        yield _received(paths, decoders, pipes)


def _decode(paths, results):
    """A decoder process: each path's pixels as read_image returns them,
    one message each, or at the first error the error and nothing more. It
    runs read_image alone, no transform and no BLAS, as a forked child must."""
    for path in paths:
        try:
            pixels = read_image(path)
        except Exception as exc:  # the parent raises it, in the image's turn
            results.send(exc)
            return
        results.send(pixels)


def _received(paths, decoders, pipes):
    """Each image's pixels in turn, as received in one message from the
    decoder that has it, or its error, raised."""
    for path, (decoder, from_decoder) in zip(
        paths, itertools.cycle(zip(decoders, pipes))
    ):
        try:
            pixels = from_decoder.recv()
        except EOFError:
            decoder.join(1.0)
            raise DataFormatError(
                f"{path}: the image decoder process died "
                f"(exit code {decoder.exitcode}) before decoding it"
            ) from None
        if isinstance(pixels, BaseException):
            raise pixels
        yield pixels


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

    labels = [_label(cutoff) for cutoff in config.cutoffs]
    # one request per export, in _exports' image-major order
    request_ids = [f"{label}/{image_id}" for image_id in ids for label in labels]
    # the oracle starts before any image is loaded, so it starts up while
    # the first images decode; a decoder process starts before it, so it
    # holds no end of the oracle's pipes
    with (
        tempfile.TemporaryDirectory(prefix="freqfuse-sweep-") as tmp,
        _decoded(config.images) as images,
        CaptionOracle(
            config.oracle, timeout=config.timeout, prompt=config.prompt
        ) as oracle,
    ):
        captions = oracle.caption_batch(request_ids, _exports(config, ids, images, tmp))
    rows = []
    for cutoff, label in zip(config.cutoffs, labels):
        records = [
            CaptionRecord(
                id=image_id,
                mentioned=extract_objects(captions[f"{label}/{image_id}"], table),
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
    return SweepResult(rows=tuple(rows))
