"""Captioner-oracle subprocess protocol and the bundled mock captioner.

An oracle is any child process speaking line-delimited JSON on stdio:
request {"id": ..., "image": absolute path, "prompt": ...} in, response
{"id": ..., "caption": ...} out, one JSON object per line, answered in any
order. One process may serve any number of batches, so a reply must
depend only on its request: the sweep starts one per run and resends the
same ids at every cutoff. The bundled mock modes give the sweep
deterministic stand-ins for a real captioning model.
"""

import collections
import json
import queue
import shlex
import subprocess
import threading
import time
from pathlib import Path

from .imageio import load_image

DEFAULT_PROMPT = "Please describe this image in detail."
DEFAULT_TIMEOUT = 60.0

MOCK_MODES = ("echo", "energy", "gt", "fixed")
DEFAULT_MOCK_OBJECTS = ("unicorn", "dragon")


class OracleError(Exception):
    """Base class for captioner-oracle failures."""


class OracleSpawnError(OracleError):
    """The oracle command could not be started."""


class OracleTimeoutError(OracleError):
    """No response arrived within the timeout of the batch send or last reply."""


class OracleProtocolError(OracleError):
    """The oracle broke the line-delimited JSON contract."""


class CaptionOracle:
    """One spawned oracle process handling any number of batches."""

    def __init__(
        self,
        command,
        timeout=DEFAULT_TIMEOUT,
        prompt=DEFAULT_PROMPT,
        shutdown_grace=5.0,
    ):
        argv = shlex.split(command) if isinstance(command, str) else list(command)
        if not argv:
            raise OracleSpawnError("oracle command is empty")
        try:
            self._proc = subprocess.Popen(
                argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
            )
        except OSError as exc:
            raise OracleSpawnError(f"cannot start oracle {argv[0]!r}: {exc}") from None
        self._timeout = timeout
        self._prompt = prompt
        self._grace = shutdown_grace
        # lines the child has written and nobody has consumed yet
        self._lines = collections.deque()
        self._eof = False
        self._arrived = threading.Condition()
        self._line_no = 0
        # request lines for the writer; None asks it to close stdin
        self._outbox = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        self._writer = threading.Thread(target=self._drain, daemon=True)
        self._writer.start()

    def _pump(self):
        # all lines of one read land together, so a reply the child wrote
        # along with an earlier one is visible as soon as that one is
        tail = b""
        while chunk := self._proc.stdout.read1():
            *lines, tail = (tail + chunk).split(b"\n")
            with self._arrived:
                self._lines.extend(lines)
                self._arrived.notify()
        with self._arrived:
            if tail:
                self._lines.append(tail)
            self._eof = True
            self._arrived.notify()
        self._proc.stdout.close()  # not left open for the garbage collector

    def _drain(self):
        # a child that stops reading stdin stalls this thread, not the
        # batch, whose reply deadline still fires
        stdin = self._proc.stdin
        try:
            while (line := self._outbox.get()) is not None:
                stdin.write(line)
                if self._outbox.empty():
                    stdin.flush()
        except OSError:
            pass  # the child closed stdin; its unanswered requests show as EOF or timeout
        try:
            stdin.close()
        except OSError:
            pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def close(self):
        """Close stdin once every queued request is written, and give the
        child the grace period, in all, to take them and exit; then kill it.
        The reader closes stdout at its end, awaited up to the same deadline."""
        deadline = time.monotonic() + self._grace
        self._outbox.put(None)
        self._writer.join(self._grace)
        try:
            self._proc.wait(timeout=max(deadline - time.monotonic(), 0.0))
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._reader.join(max(deadline - time.monotonic(), 0.0))

    def _send(self, request_id, image_path):
        payload = {
            "id": request_id,
            "image": str(Path(image_path).resolve()),
            "prompt": self._prompt,
        }
        self._outbox.put(json.dumps(payload).encode() + b"\n")

    def _take_line(self):
        # the caller holds self._arrived and has seen a line waiting
        self._line_no += 1
        return self._lines.popleft().decode("utf-8", "replace").strip()

    def _reject_stray_replies(self):
        with self._arrived:
            while self._lines:
                line = self._take_line()
                if line:
                    raise OracleProtocolError(
                        f"oracle line {self._line_no}: reply with no request "
                        f"outstanding: {line[:120]!r}"
                    )

    def _next_response(self, outstanding, answered, deadline):
        """Next valid reply to an outstanding id; blank lines keep the deadline."""
        while True:
            with self._arrived:
                remaining = max(deadline - time.monotonic(), 0.0)
                if not self._arrived.wait_for(
                    lambda: self._lines or self._eof, timeout=remaining
                ):
                    waiting = ", ".join(sorted(outstanding))
                    raise OracleTimeoutError(
                        f"no oracle response within {self._timeout:g}s; "
                        f"waiting for: {waiting}"
                    )
                if not self._lines:
                    raise OracleProtocolError(
                        f"oracle exited with {len(outstanding)} request(s) unanswered"
                    )
                line = self._take_line()
            if not line:
                continue
            try:
                reply = json.loads(line)
            except json.JSONDecodeError as exc:
                raise OracleProtocolError(
                    f"oracle line {self._line_no}: invalid JSON ({exc.msg}): "
                    f"{line[:120]!r}"
                ) from None
            if (
                not isinstance(reply, dict)
                or not isinstance(reply.get("id"), str)
                or not isinstance(reply.get("caption"), str)
            ):
                raise OracleProtocolError(
                    f"oracle line {self._line_no}: response must carry "
                    f"string 'id' and 'caption': {line[:120]!r}"
                )
            rid = reply["id"]
            if rid in answered:
                raise OracleProtocolError(
                    f"oracle line {self._line_no}: duplicate response id {rid!r}"
                )
            if rid not in outstanding:
                raise OracleProtocolError(
                    f"oracle line {self._line_no}: unknown response id {rid!r}"
                )
            return rid, reply["caption"]

    def caption_batch(self, requests) -> dict:
        """Pipeline (id, image path) pairs; returns {id: caption}.

        Ids must be unique within the batch, and may recur in later batches.
        """
        requests = list(requests)
        ids = [rid for rid, _ in requests]
        if len(set(ids)) != len(ids):
            raise ValueError("request ids must be unique within a batch")
        self._reject_stray_replies()
        for rid, path in requests:
            self._send(rid, path)
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


def mean_energy(image) -> float:
    """Mean squared intensity over all pixels and channels."""
    return float((image**2).mean())


def mock_oracle_loop(
    mode,
    stdin,
    stdout,
    threshold=0.01,
    objects=DEFAULT_MOCK_OBJECTS,
    ground_truth=None,
):
    """Serve the oracle protocol with a deterministic captioning rule.

    Modes: "echo" answers a fixed template naming the image path; "gt"
    answers exactly the ground-truth objects for the request id (empty
    caption when there are none); "fixed" always answers the configured
    object list; "energy" answers like "gt" while the mean squared
    intensity stays above the threshold and like "fixed" once the image
    has been damped below it.
    """
    if mode not in MOCK_MODES:
        raise ValueError(f"unknown mock mode {mode!r}")
    ground_truth = dict(ground_truth or {})
    for line in stdin:
        line = line.strip()
        if not line:
            continue
        request = json.loads(line)
        rid = request["id"]
        image_path = request["image"]
        if mode == "echo":
            caption = f"A picture stored at {image_path}."
        elif mode == "gt":
            caption = object_sentence(ground_truth.get(rid, ()))
        elif mode == "fixed":
            caption = object_sentence(objects)
        else:
            energy = mean_energy(load_image(image_path))
            if energy > threshold:
                caption = object_sentence(ground_truth.get(rid, ()))
            else:
                caption = object_sentence(objects)
        stdout.write(json.dumps({"id": rid, "caption": caption}) + "\n")
        stdout.flush()
