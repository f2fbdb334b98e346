"""Every JSON input the program reads, decoded, parsed and checked here.

Whole files (the sweep config, the synonym table), JSONL record files
(captions, probes, ground truth), a captioner's reply lines and the mock
captioner's request lines are all strict UTF-8 JSON; a line, read from a
file or a pipe, is capped at MAX_LINE bytes. A fault raises the caller's
error class, DataFormatError unless it passes another (the oracle's
OracleError), with a message that starts with where it is:
"<path>", "<path>:<line>", "oracle line <n>" or "stdin:<line>".
DataFormatError, a ValueError, is also the one error of bad input data
elsewhere (an image imageio cannot read or write, a sweep config, a
decoder or caption reader process that dies): every failure the CLI exits
2 for. A large captions file is read in chunks that this process and
forked reader processes claim in turn (see load_caption_records).
"""

import functools
import importlib.resources
import itertools
import json
import os
import stat
import struct

from ..metrics import CaptionRecord, PopeRecord, extract_objects
from ..spectral import usable_cpus

MAX_LINE = 1 << 20  # bytes in one line of JSON, newline excluded
# a regular captions file of at least this many bytes is read by more than
# one process, one per usable CPU but none per under half of it. Measured on
# 2 CPUs: a split read costs about 5 ms more than one process on a tiny
# file, and the crossover fell anywhere from 130 KB to 390 KB between runs;
# every run read the split faster from 389 KB (3,300 captions) up
SPLIT_BYTES = 384 << 10
# the processes of a split read claim chunks of this many bytes in turn, so
# that the one that also builds the records claims fewer and all finish
# together. On 2 CPUs, 32, 64 and 128 KiB chunks read and scored the
# benchmark's 2.3 MB file in 118-128, 122-127 and 127 ms (medians of two
# runs of 30 alternating calls): no size won past the noise. 64 KiB leaves
# one process at most one chunk, about 6 ms, to finish alone, with half the
# messages and claims of 32 KiB
CHUNK_BYTES = 64 << 10
# room in each reader's pipe for the messages of many chunks, so that a
# reader seldom waits for this process to take them
READER_PIPE_BYTES = 1 << 20
# how long a claim waits on the shared counter's lock
CLAIM_SECONDS = 10.0

_raw_decode = json.JSONDecoder().raw_decode


class DataFormatError(ValueError):
    """Input data that cannot be read as valid records or images."""


def bundled_synonyms_path() -> str:
    """Path of the synonym table shipped with the package."""
    return str(importlib.resources.files("freqfuse") / "data" / "synonyms.json")


def decode_utf8(data, where, error=DataFormatError):
    """Bytes as text, or error "<where>: not valid UTF-8"."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:
        raise error(f"{where}: not valid UTF-8") from None


def parse_json(text, where, error=DataFormatError):
    """The JSON value of text, as json.loads gives it, or error
    "<where>: invalid JSON (<why>)" with json.loads's reason.

    Text that is one JSON value and nothing else is parsed once, by the
    decoder json.loads wraps; anything else goes to json.loads itself.
    """
    try:
        try:
            value, end = _raw_decode(text)
        except json.JSONDecodeError:
            pass
        else:
            if end == len(text):
                return value
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{where}: invalid JSON ({exc.msg})") from None
    except RecursionError:
        raise error(f"{where}: invalid JSON (nested too deeply)") from None
    except ValueError:  # the only other ValueError is int()'s digit limit
        raise error(f"{where}: invalid JSON (number too long)") from None


def read_json(path):
    """The JSON value of a whole UTF-8 file."""
    with open(path, "rb") as fh:
        return parse_json(decode_utf8(fh.read(), path), path)


def json_lines(stream, where, error=DataFormatError, first=1, size=None):
    """("<where>:<line number>", JSON value) for each non-blank line of a
    binary stream, numbering its first line `first`; with size, only the
    lines that start in the next size bytes.

    A line is read up to MAX_LINE + 1 bytes, so an over-long line is refused
    before it is held whole; lines end at "\n" ("\r\n" is fine) and are
    stripped before they are parsed.
    """
    read_line = functools.partial(stream.readline, MAX_LINE + 1)
    lines = iter(read_line, b"") if size is None else _lines_within(read_line, size)
    for line_no, raw in enumerate(lines, start=first):
        at = f"{where}:{line_no}"
        if len(raw) > MAX_LINE and not raw.endswith(b"\n"):
            raise error(f"{at}: line longer than {MAX_LINE} bytes")
        line = decode_utf8(raw, at, error).strip()
        if line:
            yield at, parse_json(line, at, error)


def _lines_within(read_line, size):
    """The lines read_line gives that start in the next size bytes."""
    while size > 0:
        raw = read_line()
        if not raw:
            return
        size -= len(raw)
        yield raw


def json_field(record, key, kind, where, error=DataFormatError):
    """record[key] if record is a JSON object and the value a `kind`, else
    error naming where."""
    if not isinstance(record, dict):
        raise error(f"{where}: expected a JSON object")
    value = record.get(key)
    if not isinstance(value, kind):
        raise error(f"{where}: field {key!r} must be {kind.__name__}")
    return value


def _jsonl(path):
    with open(path, "rb") as fh:
        # a str formats faster than a Path, once per line
        yield from json_lines(fh, str(path))


def _ground_truth_names(record, where):
    names = json_field(record, "ground_truth", list, where)
    if not all(isinstance(n, str) for n in names):
        raise DataFormatError(f"{where}: ground-truth entries must be strings")
    return names


def canonical_set(names, table, where):
    """Canonical classes of ground-truth names, as a frozenset; an unknown
    name is an error whose message starts with where."""
    out = frozenset(map(table.canonicalize, names))
    if None in out:
        name = next(n for n in names if table.canonicalize(n) is None)
        raise DataFormatError(
            f"{where}: unknown object class {name!r} (not in the synonym table)"
        )
    return out


def load_caption_records(path, table):
    """Captions JSONL {"id","caption","ground_truth":[...]} -> CaptionRecords.

    Captions go through synonym extraction; each ground-truth name must be a
    surface form in the table and is stored as its canonical class. Records
    share one frozenset per distinct class set, mentioned or ground truth:
    a file holds far fewer distinct sets than captions.

    A regular file of SPLIT_BYTES or more is read in chunks of CHUNK_BYTES,
    split at line starts, by this process and by forked reader processes,
    one per other usable CPU but none per under SPLIT_BYTES / 2 bytes of
    file. Each process claims the next chunk in file order from one shared
    counter and reads it through the same per-line reader; a reader sends
    each chunk's records, or its first error, in one message, which this
    process turns into records between its own chunks. The records, their
    order and sharing, and the error raised (the first bad line in the file,
    numbered as in the whole file) are those of a read in one process. A
    reader that dies holding a chunk is a DataFormatError naming the path.
    """
    path = str(path)  # a str formats faster than a Path, once per line
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        # a FIFO reports size 0; a file under SPLIT_BYTES gives no reader
        processes = min(usable_cpus(), info.st_size // (SPLIT_BYTES // 2))
        if stat.S_ISREG(info.st_mode) and processes > 1:
            chunks = -(-info.st_size // CHUNK_BYTES)
            records = _read_in_chunks(fh, path, table, chunks, processes - 1)
        else:
            shared = {}  # class set -> the first frozenset seen with it
            records = [
                CaptionRecord(rid, shared.setdefault(m, m), shared.setdefault(g, g))
                for rid, m, g in _captions(fh, path, table, 1, None)
            ]
    if not records:
        raise DataFormatError(f"{path}: no caption records")
    return records


def _read_in_chunks(fh, path, table, chunks, readers):
    """The records of the open regular file fh, read in `chunks` chunks by
    this process and `readers` forked ones (see load_caption_records)."""
    # imported here: the captioner child imports this module, and reads no captions
    from .forks import forked, shared_counter

    claim = functools.partial(_claim, shared_counter(), chunks)  # before the forks
    pieces = [None] * chunks  # each chunk's records, or its error
    shared = {}  # class set -> the first frozenset seen with it
    jobs = [(_read_chunks, (path, table, claim))] * readers
    with forked(jobs, READER_PIPE_BYTES) as (children, pipes):
        sets = [[] for _ in pipes]  # the class sets each reader has sent, by key
        sending = dict(enumerate(pipes))  # the pipes not at their end

        def take(to_the_end):
            """Turn the messages that have arrived into pieces, or with
            to_the_end, every message up to each pipe's end."""
            for j, pipe in list(sending.items()):
                try:
                    while to_the_end or pipe.poll():
                        k, *message = pipe.recv()
                        if len(message) == 1:  # the reader's error
                            pieces[k] = message[0]
                            continue
                        ids, keys, new_sets = message
                        sets[j] += [shared.setdefault(s, s) for s in new_sets]
                        keys = memoryview(keys).cast("I")
                        pieces[k] = list(map(
                            CaptionRecord,
                            ids,
                            map(sets[j].__getitem__, keys[::2]),
                            map(sets[j].__getitem__, keys[1::2]),
                        ))
                except EOFError:  # the reader has exited
                    del sending[j]

        for k in iter(claim, None):
            try:
                pieces[k] = [
                    CaptionRecord(rid, shared.setdefault(m, m), shared.setdefault(g, g))
                    for rid, m, g in _chunk(fh, path, table, k)
                ]
            except DataFormatError as exc:
                pieces[k] = exc
                claim(stop=True)  # no chunk after this one counts
            take(to_the_end=False)
        take(to_the_end=True)
        records = []
        for piece in pieces:  # up to the first error, every chunk was claimed
            if piece is None:  # by a reader that died before it sent it
                for reader in children:
                    reader.join(1.0)
                code = next((c.exitcode for c in children if c.exitcode), None)
                raise DataFormatError(
                    f"{path}: a caption reader process died (exit code {code})"
                )
            if isinstance(piece, BaseException):
                raise piece
            records += piece
    return records


def _claim(counter, chunks, stop=False):
    """The next chunk index from the shared counter, or None once all
    `chunks` are claimed; with stop, None, and no chunk is claimed after.
    None too if the counter stays locked for CLAIM_SECONDS: only a process
    killed while it held the lock holds it that long."""
    lock = counter.get_lock()
    if not lock.acquire(timeout=CLAIM_SECONDS):
        return None
    k = counter.value
    counter.value = chunks if stop else k + 1
    lock.release()
    return None if stop or k >= chunks else k


def _chunk(fh, where, table, k):
    """(id, mentioned classes, ground-truth classes) of each caption in
    chunk k of the regular file fh: the lines that start in its bytes
    k * CHUNK_BYTES up to (k + 1) * CHUNK_BYTES. A refused line is numbered
    as in the whole file."""
    start = k * CHUNK_BYTES
    if start:
        fh.seek(start - 1)
        # the rest of the line that holds byte start - 1, up to the chunk's end
        rest = fh.readline(CHUNK_BYTES)
        if not rest.endswith(b"\n"):
            return  # no line starts in this chunk
        start += len(rest) - 1
    size = (k + 1) * CHUNK_BYTES - start
    try:
        yield from _captions(fh, where, table, 1, size)
    except DataFormatError:
        # numbered from the chunk's first line: read again, numbered from
        # the lines before it, counted by newlines as json_lines reads them,
        # the same line is refused with its number in the file
        fh.seek(0)
        before = sum(
            fh.read(min(MAX_LINE, start - offset)).count(b"\n")
            for offset in range(0, start, MAX_LINE)
        )
        for _ in _captions(fh, where, table, before + 1, size):
            pass
        raise


def _captions(fh, where, table, first, size):
    """(id, mentioned classes, ground-truth classes), the classes as
    frozensets, of each caption in the lines that start in the next size
    bytes of fh (to its end if size is None), numbered from line `first`."""
    for at, record in json_lines(fh, where, first=first, size=size):
        rid = json_field(record, "id", str, at)
        caption = json_field(record, "caption", str, at)
        gt_names = _ground_truth_names(record, at)
        mentioned = frozenset(extract_objects(caption, table))
        yield rid, mentioned, canonical_set(gt_names, table, at)


def _read_chunks(path, table, claim, results):
    """A caption reader process: one message per chunk it claims, until
    none is left or one is refused. The message is (k, ids, keys, sets):
    the chunk's index, its caption ids, two keys per caption, the indices
    of its mentioned and its ground-truth classes in the list of class sets
    this reader has sent, and the chunk's sets that no earlier message
    held; or (k, error), its last."""
    index = {}  # class set -> key
    try:
        fh = open(path, "rb")
    except OSError:
        return  # gone since this process's parent opened it, which reads on
    with fh:
        for k in iter(claim, None):
            sent = len(index)
            try:
                ids, keys = [], []
                for rid, mentioned, ground_truth in _chunk(fh, path, table, k):
                    ids.append(rid)
                    keys.append(index.setdefault(mentioned, len(index)))
                    keys.append(index.setdefault(ground_truth, len(index)))
            except Exception as exc:  # the parent raises it, in the chunk's turn
                claim(stop=True)
                results.send((k, exc))
                return
            # the keys as unsigned ints of 4 bytes, not one object each
            keys = struct.pack(f"{len(keys)}I", *keys)
            results.send((k, ids, keys, list(itertools.islice(index, sent, None))))


def load_pope_records(path):
    """Probe JSONL {"id","predicted":"yes|no","gold":"yes|no"} -> PopeRecords."""
    records = []
    for at, record in _jsonl(path):
        rid = json_field(record, "id", str, at)
        try:  # PopeRecord's own check refuses a missing or non-string answer
            records.append(PopeRecord(rid, record.get("predicted"), record.get("gold")))
        except ValueError as exc:
            raise DataFormatError(f"{at}: {exc}") from None
    if not records:
        raise DataFormatError(f"{path}: no probe records")
    return records


def load_ground_truth(path):
    """Ground-truth JSONL {"id","ground_truth":[...]} -> {id: [names]}."""
    table = {}
    for at, record in _jsonl(path):
        rid = json_field(record, "id", str, at)
        names = _ground_truth_names(record, at)
        if rid in table:
            raise DataFormatError(f"{at}: duplicate id {rid!r}")
        table[rid] = list(names)
    return table
