"""Captioner-oracle subprocess protocol and the bundled mock captioner.

An oracle is any child process speaking line-delimited JSON on stdio:
request {"id": ..., "image": absolute path, "prompt": ...} in, response
{"id": ..., "caption": ...} out, answered in any order. One process may
serve any number of batches, so a reply must depend only on its request.
The sweep starts one per run and sends it one batch, whose ids
"<cutoff label>/<image id>" are unique within it; the mocks look ground
truth up by the image file's stem, not by the id.
Both ends read lines as formats.py does: strict UTF-8 JSON objects, each
line at most MAX_LINE bytes, and a line that breaks these is an
OracleError naming its line. OracleError is the one failure of either end:
a captioner that cannot start, times out or breaks the protocol, and a
request line the mock refuses.
The harness does its I/O on the calling thread with a selector: POSIX only.
Mock modes give the sweep deterministic stand-ins for a captioning model.
"""

import contextlib
import json
import os
import selectors
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from ..spectral import check_real, shown
from .formats import MAX_LINE, decode_utf8, json_field, json_lines, parse_json
from .imageio import load_image

DEFAULT_PROMPT = "Please describe this image in detail."
DEFAULT_TIMEOUT = 60.0
# a selector refuses far longer waits; every caller rechecks its deadline
MAX_POLL_WAIT = 86400.0

MOCK_MODES = ("echo", "energy", "gt", "fixed")
DEFAULT_MOCK_OBJECTS = ("unicorn", "dragon")


class OracleError(Exception):
    """A captioner oracle that cannot be started, times out or breaks the
    line-delimited JSON contract; the mock's bad request lines too."""


def check_timeout(timeout):
    """ValueError unless timeout passes check_real and is positive and finite."""
    with contextlib.suppress(ValueError):  # check_real's refusal, reworded below
        if 0 < check_real("timeout", timeout) <= sys.float_info.max:  # NaN fails
            return
    raise ValueError("timeout must be a positive, finite number of seconds, "
                     f"got {shown(timeout)}")


def parse_command(command):
    """The argv, maybe empty, of a command string split as a shell would, or of
    a list or tuple of strings and paths; else ValueError."""
    argv = list(command) if isinstance(command, (list, tuple)) else None
    if isinstance(command, str):
        with contextlib.suppress(ValueError):  # an unclosed quote or a trailing backslash
            argv = shlex.split(command)
    if argv is None:
        raise ValueError("oracle must be a command string with closed quotes or a list "
                         f"of arguments, got {shown(command)}")
    if not all(isinstance(arg, (str, os.PathLike)) for arg in argv):
        raise ValueError("oracle command arguments must be strings or paths, "
                         f"got {shown(argv)}")
    return argv


class CaptionOracle:
    """One spawned oracle process handling any number of batches.

    All I/O happens on the calling thread, with one byte buffer per pipe.
    Each send and each wait for a reply writes what the child will take of
    the requests and reads what it has written, so a child that stops
    reading its stdin still hits the reply deadline.
    """

    def __init__(self, command, timeout=DEFAULT_TIMEOUT, prompt=DEFAULT_PROMPT):
        check_timeout(timeout)
        argv = parse_command(command)
        if not argv:
            raise OracleError("oracle command is empty")
        try:
            self._proc = subprocess.Popen(
                argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
            )
        except OSError as exc:
            raise OracleError(f"cannot start oracle {argv[0]!r}: {exc}") from None
        os.set_blocking(self._proc.stdin.fileno(), False)
        self._timeout = timeout
        self._prompt = prompt
        self._unsent = bytearray()  # request bytes the child has not taken yet
        self._received = bytearray()  # reply bytes read and not taken yet
        self._eof = False
        self._line_no = 0

    def _poll(self, timeout):
        """Wait up to timeout seconds for either pipe, then write what the
        child will take and read what it has written."""
        with selectors.DefaultSelector() as selector:
            if not self._eof:
                selector.register(self._proc.stdout, selectors.EVENT_READ)
            if self._unsent:
                selector.register(self._proc.stdin, selectors.EVENT_WRITE)
            ready = selector.select(min(timeout, MAX_POLL_WAIT))
        for key, _ in ready:
            if key.fileobj is self._proc.stdin:
                try:
                    del self._unsent[: os.write(key.fd, self._unsent)]
                except BrokenPipeError:
                    # the child closed stdin: its requests end in EOF or timeout
                    self._unsent.clear()
            else:
                chunk = os.read(key.fd, 1 << 16)
                if not chunk:  # a newline ends a last line the child's exit cut short
                    self._eof, chunk = True, b"\n"
                # the line earlier reads left unfinished, up to this read's
                # first newline; any later line of this read is shorter
                head = chunk.find(b"\n")
                unfinished = len(self._received) - self._received.rfind(b"\n") - 1
                if unfinished + (len(chunk) if head < 0 else head) > MAX_LINE:
                    self._eof = True  # read no more: close() ends the child
                    line_no = self._line_no + self._received.count(b"\n") + 1
                    raise OracleError(
                        f"oracle line {line_no}: reply longer than {MAX_LINE} bytes"
                    )
                self._received += chunk

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def close(self):
        """Write what is left of the requests, close stdin and read stdout to
        EOF, dropping all it reads, an unfinished line too; the child gets the
        reply timeout, at most 5 s, in all for this and to exit, and is killed
        past it. Both pipes end up closed."""
        deadline = time.monotonic() + min(self._timeout, 5.0)
        try:
            while not self._eof and (remaining := deadline - time.monotonic()) > 0:
                if not self._unsent:
                    self._proc.stdin.close()
                self._received.clear()  # nothing takes a reply after this
                self._poll(remaining)
        finally:
            self._proc.stdin.close()
            self._proc.stdout.close()
            try:
                self._proc.wait(timeout=max(deadline - time.monotonic(), 0.0))
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()

    def _send(self, request_id, image_path):
        payload = {
            "id": request_id,
            "image": str(Path(image_path).resolve()),
            "prompt": self._prompt,
        }
        self._unsent += json.dumps(payload).encode() + b"\n"

    def _take_line(self):
        # the caller has seen a line waiting
        end = self._received.index(b"\n") + 1
        self._line_no += 1
        line = decode_utf8(self._received[:end], self._where(), OracleError)
        del self._received[:end]
        return line.strip()

    def _where(self):
        return f"oracle line {self._line_no}"

    def _reject_stray_replies(self):
        self._poll(0)
        while b"\n" in self._received:
            line = self._take_line()
            if line:
                raise OracleError(
                    f"{self._where()}: reply with no request outstanding: {line[:120]!r}"
                )

    def _next_response(self, outstanding, answered, deadline):
        """Next valid reply to an outstanding id; blank lines keep the deadline."""
        while True:
            while b"\n" not in self._received:
                if self._eof:
                    raise OracleError(
                        f"oracle exited with {len(outstanding)} request(s) unanswered"
                    )
                remaining = deadline - time.monotonic()
                if remaining < 0:
                    waiting = ", ".join(sorted(outstanding))
                    raise OracleError(
                        f"no oracle response within {self._timeout:g}s; "
                        f"waiting for: {waiting}"
                    )
                self._poll(remaining)
            line = self._take_line()
            if not line:
                continue
            where = self._where()
            reply = parse_json(line, where, OracleError)
            rid = json_field(reply, "id", str, where, OracleError)
            caption = json_field(reply, "caption", str, where, OracleError)
            if rid in answered:
                raise OracleError(f"{where}: duplicate response id {rid!r}")
            if rid not in outstanding:
                raise OracleError(f"{where}: unknown response id {rid!r}")
            return rid, caption

    def caption_batch(self, ids, paths) -> dict:
        """Caption one batch of images; returns {id: caption}.

        Ids must be unique within the batch, and may recur in later batches;
        they are checked before paths is touched. paths yields one image
        path per id, in the same order, and may be lazy: each request goes
        out as soon as its path is yielded, so the file can be written just
        before, and replies are read as they arrive. The reply deadline
        counts from the last send or accepted reply.
        """
        ids = list(ids)
        if len(set(ids)) != len(ids):
            raise ValueError("request ids must be unique within a batch")
        self._reject_stray_replies()
        for rid, path in zip(ids, paths, strict=True):
            self._send(rid, path)
            self._poll(0)
        outstanding = set(ids)
        results = {}
        deadline = time.monotonic() + self._timeout
        while outstanding:
            rid, caption = self._next_response(outstanding, results, deadline)
            outstanding.discard(rid)
            results[rid] = caption
            deadline = time.monotonic() + self._timeout
        return results


def object_sentence(objects) -> str:
    """Deterministic caption naming the given object classes, or empty."""
    names = [str(o).replace("_", " ") for o in sorted(objects)]
    if not names:
        return ""
    return "The image shows a " + " and a ".join(names) + "."


def mean_energy(path) -> float:
    """Mean squared intensity over all pixels and channels of an image file.

    The image is loaded fresh, so its planes are squared in place; the sum
    runs over one channel plane after another, the layout load_image gives.
    """
    planes = np.ascontiguousarray(load_image(path).transpose(2, 0, 1))
    np.square(planes, out=planes)
    return float(planes.mean())


def mock_oracle_loop(
    mode,
    stdin,
    stdout,
    threshold=0.01,
    objects=DEFAULT_MOCK_OBJECTS,
    ground_truth=None,
):
    """Serve the oracle protocol with a deterministic captioning rule,
    reading request lines from stdin, a binary stream, and writing replies
    to stdout, a text stream.

    Modes: "echo" answers a fixed template naming the image path; "gt"
    answers exactly the ground-truth objects of the image, looked up by
    the image file's stem, not by the request id (empty caption when there
    are none); "fixed" always answers the configured object list; "energy"
    answers like "gt" while the mean squared intensity stays above the
    threshold and like "fixed" once the image has been damped below it.
    """
    if mode not in MOCK_MODES:
        raise ValueError(f"unknown mock mode {shown(mode)}")
    ground_truth = dict(ground_truth or {})
    for where, request in json_lines(stdin, "stdin", OracleError):
        rid = json_field(request, "id", str, where, OracleError)
        image_path = json_field(request, "image", str, where, OracleError)
        if mode == "echo":
            caption = f"A picture stored at {image_path}."
        elif mode == "gt" or (
            mode == "energy" and mean_energy(image_path) > threshold
        ):
            caption = object_sentence(ground_truth.get(Path(image_path).stem, ()))
        else:
            caption = object_sentence(objects)
        stdout.write(json.dumps({"id": rid, "caption": caption}) + "\n")
        stdout.flush()
