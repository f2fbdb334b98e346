"""Cutoff-frequency sweep: caption filtered images, score hallucinations.

The sweep goes image by image: it loads an image, takes its spectrum once,
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
loads each image in the parent. One CSV row per cutoff; results are
all-or-nothing, a failure anywhere emits no partial rows.
"""

import contextlib
import dataclasses
import fcntl
import itertools
import json
import math
import numbers
import os
import shlex
import signal
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..metrics import CaptionRecord, SynonymTable, chair, extract_objects
from ..spectral import BRANCHES, filter_branch, image_spectrum
from .formats import (
    DataFormatError,
    bundled_synonyms_path,
    canonical_set,
    load_ground_truth,
)
from .imageio import ImageError, float_pixels, load_image, read_image, save_image
from .oracle import DEFAULT_PROMPT, DEFAULT_TIMEOUT, CaptionOracle


def _label(cutoff):
    return f"{cutoff:g}"


def _number(x):
    # a real number that a float can hold
    if not isinstance(x, numbers.Real) or isinstance(x, bool):
        return False
    try:
        float(x)
    except OverflowError:
        return False
    return True


def _path(x):
    return isinstance(x, (str, os.PathLike))


def _list_of(ok):
    return lambda x: isinstance(x, (list, tuple)) and all(map(ok, x))


def _command(x):
    if isinstance(x, str):
        try:
            x = shlex.split(x)
        except ValueError:  # an unclosed quote or a trailing backslash
            return False
    return _list_of(_path)(x) and len(x) > 0


# (field, test, what the test asks for) for every field but mode
_FIELD_TYPES = (
    ("cutoffs", _list_of(_number), "a list of numbers a float can hold"),
    ("images", _list_of(_path), "a list of paths"),
    ("oracle", _command,
     "a non-empty command string with closed quotes or a non-empty list of arguments"),
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
        try:
            raw = json.loads(path.read_bytes().decode("utf-8"))
        except UnicodeDecodeError:
            raise DataFormatError(f"{path}: not valid UTF-8") from None
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: invalid JSON ({exc.msg})") from None
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

    images yields the float image of each id in turn. Yields each export's
    path as soon as it is written: <directory>/<cutoff label>/<image id>.ppm.
    """
    # one folder per cutoff: ids and labels are each unique, so no
    # export overwrites another before the oracle has read it
    folders = [Path(directory) / _label(cutoff) for cutoff in config.cutoffs]
    for folder in folders:
        folder.mkdir()
    for image_id in ids:
        # single precision: each export is quantized to 8 bits
        spectrum = image_spectrum(next(images), np.float32)
        for cutoff, folder in zip(config.cutoffs, folders):
            path = folder / f"{image_id}.ppm"
            save_image(filter_branch(spectrum, cutoff, config.mode), path)
            yield path
        del spectrum  # before the next image's spectrum is taken


# the default pipe size limit on Linux: a 375x500 image is 0.54 MiB
DECODER_PIPE_BYTES = 1 << 20


def _usable_cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


@contextlib.contextmanager
def _decoded(paths):
    """An iterator over the float image of each path.

    With no .png path, each image is loaded when it is taken, as load_image
    gives it. Otherwise n forked processes, one per usable CPU up to one per
    image, decode them while the caller filters and exports the image taken:
    decoder j decodes paths[j::n] in order into a pipe of its own, as far
    ahead as that pipe holds, and image i is taken from pipe i % n, in
    float32: load_image's values cast to the sweep's precision. PNG decoding
    is pure Python, and the forks pay for themselves only there. Every
    decoder is killed and reaped on the way out.
    """
    if not any(p.lower().endswith(".png") for p in paths):
        yield map(load_image, paths)
        return
    # imported here: the captioner child imports this module, and loads no PNG
    import multiprocessing

    # fork, not the platform default, which becomes forkserver on Python 3.14
    context = multiprocessing.get_context("fork")
    n = min(_usable_cpus(), len(paths))
    pipes, decoders = [], []
    # SIGINT stays blocked across the forks, so that one arriving before a
    # decoder ignores it stays pending there until _decode discards it; the
    # parent's mask is back before the captioner starts, or a fork fails
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        for j in range(n):
            from_decoder, results = context.Pipe(duplex=False)
            pipes.append(from_decoder)
            # only decoder j holds this end once the parent's is closed, so
            # its exit is EOF here; decoders forked later never see it
            with results:
                # room for decoded images, so that the decoder goes on without
                # waiting for each to be taken; Linux only, and up to the
                # system's pipe size limit: elsewhere, or past it, it waits sooner
                with contextlib.suppress(AttributeError, OSError):
                    fcntl.fcntl(results.fileno(), fcntl.F_SETPIPE_SZ, DECODER_PIPE_BYTES)
                # the paths reach the decoder through the fork: nothing is sent
                decoder = context.Process(
                    target=_decode, args=(paths[j::n], results, tuple(pipes))
                )
                decoder.start()
                decoders.append(decoder)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        yield _received(paths, decoders, pipes)
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for decoder in decoders:
            decoder.kill()
        for decoder in decoders:
            decoder.join()
            decoder.close()
        for from_decoder in pipes:
            from_decoder.close()


def _decode(paths, results, parent_ends):
    """A decoder process: each path's pixels as read_image returns them,
    one message each, or at the first error the error and nothing more. It
    runs read_image alone, no transform and no BLAS: a fork copies only the
    calling thread, and a lock that another thread of the parent held then
    stays held here."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent ends it
    # blocked since the fork: a SIGINT pending from then is discarded
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
    # the parent's ends of this pipe and of every pipe forked before it: with
    # them closed here, the parent's exit breaks every decoder's pipe
    for end in parent_ends:
        end.close()
    try:
        for path in paths:
            try:
                pixels = read_image(path)
            except Exception as exc:  # the parent raises it, in the image's turn
                results.send(exc)
                return
            results.send(pixels)
    except BrokenPipeError:
        return  # the parent is gone, and nobody is left to tell


def _received(paths, decoders, pipes):
    """Each image in turn, from one message of the decoder that has it:
    its pixels or its error."""
    for path, (decoder, from_decoder) in zip(
        paths, itertools.cycle(zip(decoders, pipes))
    ):
        try:
            pixels = from_decoder.recv()
        except EOFError:
            decoder.join(1.0)
            raise ImageError(
                f"{path}: the image decoder process died "
                f"(exit code {decoder.exitcode}) before decoding it"
            ) from None
        if isinstance(pixels, BaseException):
            raise pixels
        # float32, as _exports takes the spectrum: no float64 copy is made
        yield float_pixels(pixels, np.float32)


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
            gt_raw[image_id],
            table,
            lambda: f"{config.ground_truth}: image {image_id!r}",
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
