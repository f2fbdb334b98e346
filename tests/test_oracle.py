"""Captioner-oracle protocol tests against scripted child processes."""

import io
import json
import re
import select
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqfuse.harness.formats import MAX_LINE
from freqfuse.harness.imageio import load_image, save_image
from freqfuse.harness.oracle import (
    DEFAULT_PROMPT,
    CaptionOracle,
    OracleError,
    mean_energy,
    mock_oracle_loop,
    object_sentence,
)
from oracles import naive_batch
from util import UNPRINTABLE, exactly, random_image, traced_peak, unprintable, write_jsonl


def child(script):
    return [sys.executable, "-c", script]


def caption_one(command, image_path, **kwargs):
    """Start an oracle, caption one image through caption_batch, and close it."""
    with CaptionOracle(command, **kwargs) as oracle:
        return oracle.caption_batch(["req-1"], [image_path])["req-1"]


ECHO_IMAGE = """
import sys, json
for line in sys.stdin:
    r = json.loads(line)
    print(json.dumps({"id": r["id"], "caption": "saw " + r["image"]}), flush=True)
"""

OUT_OF_ORDER = """
import sys, json
reqs = [json.loads(sys.stdin.readline()) for _ in range(2)]
for r in reversed(reqs):
    print(json.dumps({"id": r["id"], "caption": "c-" + r["id"]}), flush=True)
"""

DUPLICATE_ID = """
import sys, json
reqs = [json.loads(sys.stdin.readline()) for _ in range(2)]
line = json.dumps({"id": reqs[0]["id"], "caption": "again"})
print(line, flush=True)
print(line, flush=True)
"""

UNKNOWN_ID = """
import sys, json
sys.stdin.readline()
print(json.dumps({"id": "who-is-this", "caption": "x"}), flush=True)
"""

BAD_JSON = """
import sys
sys.stdin.readline()
print("this is not json", flush=True)
"""

BAD_SHAPE = """
import sys, json
r = json.loads(sys.stdin.readline())
print(json.dumps({"id": r["id"], "caption": 7}), flush=True)
"""

SLEEPER = """
import sys, time
sys.stdin.readline()
time.sleep(30)
"""

PROMPT_ECHO = """
import sys, json
r = json.loads(sys.stdin.readline())
print(json.dumps({"id": r["id"], "caption": r["prompt"]}), flush=True)
"""

BLANK_LINES_FOREVER = """
import sys, time
sys.stdin.readline()
while True:
    print(flush=True)
    time.sleep(0.1)
"""

DUPLICATE_IN_SECOND_BATCH = """
import sys, json
r = json.loads(sys.stdin.readline())
print(json.dumps({"id": r["id"], "caption": "first"}), flush=True)
reqs = [json.loads(sys.stdin.readline()) for _ in range(2)]
line = json.dumps({"id": reqs[0]["id"], "caption": "again"})
print(line, flush=True)
print(line, flush=True)
"""

# both copies of the reply go out in one write, so they arrive together
REPLY_TWICE = """
import sys, json
for request in sys.stdin:
    line = json.dumps({"id": json.loads(request)["id"], "caption": "c"}) + "\\n"
    sys.stdout.write(line + line)
    sys.stdout.flush()
"""

NEVER_READS = """
import time
time.sleep(30)
"""

BLANK_LINES = """
import sys, json
r = json.loads(sys.stdin.readline())
print(flush=True)
print(json.dumps({"id": r["id"], "caption": "after blank"}), flush=True)
"""

WRITES_AFTER_STDIN_CLOSES = """
import sys
sys.stdin.read()
sys.stdout.write("x" * 200_000 + "\\n")
"""

FLOOD_AFTER_STDIN_CLOSES = """
import sys
sys.stdin.read()
sys.stdout.write("\\n" * (8 << 20))
"""

# answers its one request, then writes 2 MiB with no newline
UNFINISHED_AFTER_REPLY = """
import sys, json
print(json.dumps({"id": json.loads(sys.stdin.readline())["id"], "caption": "x"}), flush=True)
sys.stdout.write("x" * (2 << 20))
"""

# answers the first request with one reply line of argv[1] bytes, newline excluded
SIZED_REPLY = """
import sys, json
head = json.dumps({"id": json.loads(sys.stdin.readline())["id"], "caption": ""})
sys.stdout.write(head[:-2] + "x" * (int(sys.argv[1]) - len(head)) + '"}\\n')
"""

# writes the bytes given as hex in argv[1], reading nothing, and exits
SCRIPTED = "import sys; sys.stdout.buffer.write(bytes.fromhex(sys.argv[1]))"


def test_batch_round_trip(tmp_path):
    with CaptionOracle(child(ECHO_IMAGE)) as oracle:
        result = oracle.caption_batch(["a", "b"], [tmp_path / "x.ppm", tmp_path / "y.ppm"])
    assert result["a"].startswith("saw ") and result["a"].endswith("x.ppm")
    assert result["b"].endswith("y.ppm")


def test_image_path_is_made_absolute():
    caption = caption_one(child(ECHO_IMAGE), "relative.ppm")
    assert caption.startswith("saw /")


def test_prompt_is_sent():
    assert caption_one(child(PROMPT_ECHO), "x.ppm") == DEFAULT_PROMPT
    assert caption_one(child(PROMPT_ECHO), "x.ppm", prompt="count the cats") == (
        "count the cats"
    )


def test_out_of_order_responses_are_matched():
    with CaptionOracle(child(OUT_OF_ORDER)) as oracle:
        result = oracle.caption_batch(["first", "second"], ["a.ppm", "b.ppm"])
    assert result == {"first": "c-first", "second": "c-second"}


def test_duplicate_response_id_rejected():
    with CaptionOracle(child(DUPLICATE_ID)) as oracle:
        with pytest.raises(
            OracleError, match=exactly("oracle line 2: duplicate response id 'a'")
        ):
            oracle.caption_batch(["a", "b"], ["x.ppm", "y.ppm"])


def test_unknown_response_id_rejected():
    with pytest.raises(
        OracleError, match=exactly("oracle line 1: unknown response id 'who-is-this'")
    ):
        caption_one(child(UNKNOWN_ID), "x.ppm")


def test_invalid_json_names_line_number():
    with pytest.raises(
        OracleError, match=exactly("oracle line 1: invalid JSON (Expecting value)")
    ):
        caption_one(child(BAD_JSON), "x.ppm")


def test_non_string_caption_rejected():
    with pytest.raises(
        OracleError, match=exactly("oracle line 1: field 'caption' must be str")
    ):
        caption_one(child(BAD_SHAPE), "x.ppm")


def test_reply_that_is_not_utf8_names_its_line():
    # it was once decoded with replacement characters, as "a \ufffd dog"
    output = b'\n{"id": "req-1", "caption": "a \xff dog"}\n'
    with pytest.raises(OracleError, match=r"^oracle line 2: not valid UTF-8$"):
        caption_one(child(SCRIPTED) + [output.hex()], "x.ppm")


# 10**400 was taken, and each batch raised a bare OverflowError
@pytest.mark.parametrize(
    "timeout",
    [0, -1.0, float("nan"), float("inf"), True, "5",
     pytest.param(10**400, id="int-past-float")],
)
def test_timeout_that_is_not_positive_and_finite_is_refused_before_spawning(timeout):
    # no_child_left fails the test if the sleeping child was started
    with pytest.raises(ValueError, match="timeout must be a positive, finite number"):
        CaptionOracle(child("import time; time.sleep(3)"), timeout=timeout)


@pytest.mark.parametrize("argument", [1, None, b"-c"])
def test_an_argument_that_is_not_a_string_or_path_is_refused_before_spawning(argument):
    # Popen raised a bare TypeError for an int; no_child_left fails the test
    # if the sleeping child was started
    command = [sys.executable, argument, "import time; time.sleep(3)"]
    message = f"oracle command arguments must be strings or paths, got {command!r}"
    with pytest.raises(ValueError, match=exactly(message)):
        CaptionOracle(command)


@pytest.mark.parametrize("command", [5, None, "python 'x", "python x\\"])
def test_a_command_that_is_not_a_string_or_list_or_is_not_closed_is_refused(command):
    # 5 raised a bare TypeError and "python 'x" shlex's "No closing quotation"
    message = (
        "oracle must be a command string with closed quotes or a list of arguments, "
        f"got {command!r}"
    )
    with pytest.raises(ValueError, match=exactly(message)):
        CaptionOracle(command)


# each raised Python's own "Exceeds the limit (4300 digits)" ValueError,
# which names no argument, in place of its own refusal; no_child_left
# fails the test if the child was started
@pytest.mark.parametrize(
    "field, call",
    [
        pytest.param("timeout", lambda v: CaptionOracle(child("pass"), timeout=v), id="timeout"),
        pytest.param("timeout", lambda v: CaptionOracle(child("pass"), timeout=-v),
                     id="timeout-negative"),
        pytest.param("timeout", lambda v: CaptionOracle(child("pass"), timeout=[v]),
                     id="timeout-list"),
        pytest.param("oracle", lambda v: CaptionOracle(v), id="command"),
        pytest.param("arguments", lambda v: CaptionOracle([v]), id="command-list"),
        pytest.param("arguments", lambda v: CaptionOracle([sys.executable, [v]]),
                     id="argument-list"),
        pytest.param("mode", lambda v: mock_oracle_loop(v, io.BytesIO(), io.StringIO()),
                     id="mock-mode"),
        pytest.param("mode", lambda v: mock_oracle_loop([v], io.BytesIO(), io.StringIO()),
                     id="mock-mode-list"),
    ],
)
def test_a_refused_value_too_long_to_print_is_named_by_its_type(field, call):
    with pytest.raises(ValueError, match=unprintable(field)):
        call(UNPRINTABLE)


def test_timeout(tmp_path):
    # the shutdown grace is the reply timeout, capped at 5 s: a short
    # timeout must not leave close() waiting on a stuck child for long
    start = time.monotonic()
    with pytest.raises(
        OracleError, match=exactly("no oracle response within 0.3s; waiting for: req-1")
    ):
        caption_one(child(SLEEPER), tmp_path / "x.ppm", timeout=0.3)
    assert time.monotonic() - start < 2.0


def test_huge_timeout_answers_a_batch(tmp_path):
    # a selector refuses a wait this long; each wait is capped instead
    with CaptionOracle(child(ECHO_IMAGE), timeout=1e9) as oracle:
        result = oracle.caption_batch(["a"], [tmp_path / "x.ppm"])
    assert result["a"].endswith("x.ppm")


def test_early_exit_reported():
    with pytest.raises(
        OracleError, match=exactly("oracle exited with 1 request(s) unanswered")
    ):
        caption_one(child("pass"), "x.ppm")


def test_spawn_failure():
    # the rest is the operating system's reason
    with pytest.raises(
        OracleError, match="^" + re.escape("cannot start oracle '/no-such-binary': ")
    ):
        CaptionOracle("/no-such-binary --flag")
    with pytest.raises(OracleError, match=exactly("oracle command is empty")):
        CaptionOracle("")


def test_blank_lines_tolerated():
    assert caption_one(child(BLANK_LINES), "x.ppm") == "after blank"


def test_blank_lines_do_not_extend_the_timeout():
    start = time.monotonic()
    with pytest.raises(
        OracleError, match=exactly("no oracle response within 0.5s; waiting for: req-1")
    ):
        caption_one(child(BLANK_LINES_FOREVER), "x.ppm", timeout=0.5)
    assert time.monotonic() - start < 3.0


def test_child_that_never_reads_stdin_times_out():
    # 2000 requests fill the stdin pipe long before they are all written
    ids = [f"r{i}" for i in range(2000)]
    paths = [f"image-{i:04d}.ppm" for i in range(2000)]
    start = time.monotonic()
    with CaptionOracle(child(NEVER_READS), timeout=1) as oracle:
        waiting = ", ".join(sorted(ids))
        with pytest.raises(
            OracleError, match=exactly(f"no oracle response within 1s; waiting for: {waiting}")
        ):
            oracle.caption_batch(ids, paths)
    assert time.monotonic() - start < 4.0


def test_child_that_exits_without_reading_a_large_batch_is_unanswered():
    # the requests it never read meet a broken pipe, which must not escape
    ids = [f"r{i}" for i in range(2000)]
    paths = [f"image-{i:04d}.ppm" for i in range(2000)]
    start = time.monotonic()
    with CaptionOracle(child("pass"), timeout=5) as oracle:
        with pytest.raises(
            OracleError, match=exactly("oracle exited with 2000 request(s) unanswered")
        ):
            oracle.caption_batch(ids, paths)
    assert time.monotonic() - start < 5.0


def test_child_writing_after_stdin_closes_exits_on_its_own():
    # 200 KB overflow the stdout pipe: the child ends only if close() reads on
    with CaptionOracle(child(WRITES_AFTER_STDIN_CLOSES)) as oracle:
        pass
    assert oracle._proc.returncode == 0


def test_reply_line_of_the_cap_comes_back_whole():
    # with its newline it is one byte more than 16 reads of 64 KiB can hold
    caption = caption_one(child(SIZED_REPLY) + [str(MAX_LINE)], "x.ppm")
    empty = json.dumps({"id": "req-1", "caption": ""})
    assert caption == "x" * (MAX_LINE - len(empty))


def test_reply_line_one_byte_over_the_cap_is_refused():
    # the read that brings its newline ends the line, so the cap must be checked
    # there and not only against the line a read leaves unfinished
    command = child(SIZED_REPLY) + [str(MAX_LINE + 1)]
    with pytest.raises(
        OracleError, match=r"^oracle line 1: reply longer than 1048576 bytes$"
    ):
        caption_one(command, "x.ppm")


@pytest.mark.parametrize(
    "script, batch",
    [(FLOOD_AFTER_STDIN_CLOSES, {}), (UNFINISHED_AFTER_REPLY, {"a": "x"})],
    ids=["blank_lines", "unfinished_line"],
)
def test_close_drops_what_the_child_writes_after_the_last_batch(script, batch):
    # 8 MiB of blank lines, or a 2 MiB line with no newline after the one
    # reply: close() keeps none of it, and an overlong line raises nothing
    oracles = []

    def open_and_close():
        with CaptionOracle(child(script)) as oracle:
            oracles.append(oracle)
            assert oracle.caption_batch(batch, ["x.ppm"] * len(batch)) == batch

    assert traced_peak(open_and_close) < 1 << 20
    assert [oracle._proc.returncode for oracle in oracles] == [0, 0]


IDS = ("a", "b", "c")
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=6),
    st.lists(st.integers(), max_size=2),
)
NOISE_TEXT = st.one_of(
    # a well-formed reply, to an id already answered or never asked for ("zz")
    st.fixed_dictionaries(
        {"id": st.sampled_from(IDS + ("zz",)), "caption": st.text(max_size=6)}
    ).map(json.dumps),
    # fields of any JSON type, and JSON that is no object
    st.fixed_dictionaries({"id": JSON_VALUES, "caption": JSON_VALUES}).map(json.dumps),
    JSON_VALUES.map(json.dumps),
    st.sampled_from(["", "  ", "\t"]),
)
# raw bytes are mostly not UTF-8
NOISE = NOISE_TEXT.map(str.encode) | st.binary(max_size=12).map(
    lambda b: b.replace(b"\n", b"")
)


@st.composite
def scripted_output(draw):
    """One valid reply per id in any order, with up to three noise lines
    (duplicate, unknown or mistyped replies, blank lines, non-UTF-8 bytes)
    put in anywhere, and maybe no newline after the last line."""
    lines = [
        json.dumps({"id": rid, "caption": draw(st.text(max_size=12))}).encode()
        for rid in draw(st.permutations(IDS))
    ]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(NOISE))
    return b"\n".join(lines) + draw(st.sampled_from([b"\n", b""]))


@settings(max_examples=30, deadline=None)
@given(output=scripted_output())
def test_scripted_replies_end_in_captions_or_an_oracle_error(output):
    timeout = 1
    start = time.monotonic()
    try:
        with CaptionOracle(child(SCRIPTED) + [output.hex()], timeout=timeout) as oracle:
            got = oracle.caption_batch(IDS, [f"{rid}.ppm" for rid in IDS])
    except OracleError:
        got = None
    assert time.monotonic() - start < timeout + 2
    assert got == naive_batch(output, IDS)


def test_close_closes_both_pipes():
    with CaptionOracle(child(ECHO_IMAGE)) as oracle:
        oracle.caption_batch(["a"], ["x.ppm"])
    assert oracle._proc.stdin.closed and oracle._proc.stdout.closed


def test_one_oracle_answers_repeated_batches(tmp_path):
    ids, paths = ["a", "b"], [tmp_path / "x.ppm", tmp_path / "y.ppm"]
    with CaptionOracle(child(ECHO_IMAGE)) as oracle:
        first = oracle.caption_batch(ids, paths)
        second = oracle.caption_batch(ids, paths)
    assert first == second
    assert first["a"].endswith("x.ppm") and first["b"].endswith("y.ppm")


def test_duplicate_response_id_rejected_in_a_later_batch():
    with CaptionOracle(child(DUPLICATE_IN_SECOND_BATCH)) as oracle:
        assert oracle.caption_batch(["a"], ["x.ppm"]) == {"a": "first"}
        with pytest.raises(
            OracleError, match=exactly("oracle line 3: duplicate response id 'a'")
        ):
            oracle.caption_batch(["a", "b"], ["x.ppm", "y.ppm"])


def test_stray_reply_rejected_when_the_next_batch_starts():
    with CaptionOracle(child(REPLY_TWICE)) as oracle:
        assert oracle.caption_batch(["a"], ["x.ppm"]) == {"a": "c"}
        stray = json.dumps({"id": "a", "caption": "c"})
        message = f"oracle line 2: reply with no request outstanding: {stray!r}"
        with pytest.raises(OracleError, match=exactly(message)):
            oracle.caption_batch(["a"], ["x.ppm"])


def test_duplicate_request_ids_rejected_locally():
    # before a path is pulled or a byte is written
    touched = []

    def paths():
        touched.append("paths")
        yield from ("x.ppm", "y.ppm")

    with CaptionOracle(child(ECHO_IMAGE)) as oracle:
        with pytest.raises(ValueError, match="unique"):
            oracle.caption_batch(["a", "a"], paths())
        assert touched == []
        # nothing reached the child: the next batch meets no stray reply
        assert oracle.caption_batch(["b"], ["z.ppm"])["b"].endswith("z.ppm")


def test_requests_are_sent_as_the_paths_are_yielded():
    # the child answers the first request before the second path exists
    def paths():
        yield "x.ppm"
        select.select([oracle._proc.stdout], [], [], 5.0)
        yield "y.ppm"

    with CaptionOracle(child(ECHO_IMAGE), timeout=5) as oracle:
        start = time.monotonic()
        result = oracle.caption_batch(["a", "b"], paths())
    assert time.monotonic() - start < 4.0
    assert result["a"].endswith("x.ppm") and result["b"].endswith("y.ppm")


# bundled mock, exercised through the real CLI subprocess


def mock_command(*extra):
    return [sys.executable, "-m", "freqfuse", "mock-oracle", *extra]


def test_echo_mode_subprocess(tmp_path):
    path = tmp_path / "scene.ppm"
    save_image(random_image(1, 4, 4), path)
    caption = caption_one(mock_command("--mode", "echo"), path)
    assert str(path) in caption


def test_energy_mode_zero_image_hallucinates(tmp_path):
    path = tmp_path / "black.ppm"
    save_image(np.zeros((8, 8, 3)), path)
    caption = caption_one(mock_command("--mode", "energy", "--threshold", "0.01"), path)
    assert "unicorn" in caption and "dragon" in caption


def test_energy_mode_bright_image_stays_clean(tmp_path):
    path = tmp_path / "bright.ppm"
    save_image(np.full((8, 8, 3), 0.9), path)
    gt = write_jsonl(
        tmp_path / "gt.jsonl",
        [{"id": "bright", "ground_truth": []}, {"id": "req-1", "ground_truth": ["dog"]}],
    )
    caption = caption_one(
        mock_command("--mode", "energy", "--threshold", "0.01", "--ground-truth", gt),
        path,
    )
    # above the threshold: bright.ppm's own ground truth, which is empty,
    # not that of the request id "req-1"
    assert caption == ""


@pytest.mark.parametrize("mode", ["gt", "energy"])
def test_mock_looks_ground_truth_up_by_the_image_stem(tmp_path, mode):
    path = tmp_path / "a.ppm"
    save_image(np.full((8, 8, 3), 0.9), path)
    gt = write_jsonl(
        tmp_path / "gt.jsonl",
        [{"id": "a", "ground_truth": ["dog"]}, {"id": "q1", "ground_truth": ["cat"]}],
    )
    with CaptionOracle(mock_command("--mode", mode, "--ground-truth", gt)) as oracle:
        result = oracle.caption_batch(["q1"], [path])
    assert result == {"q1": "The image shows a dog."}


def test_gt_mode_batch(tmp_path):
    img = tmp_path / "pic.ppm"
    save_image(random_image(2, 4, 4), img)
    gt = write_jsonl(tmp_path / "gt.jsonl", [{"id": "pic", "ground_truth": ["dog", "cat"]}])
    with CaptionOracle(mock_command("--mode", "gt", "--ground-truth", gt)) as oracle:
        result = oracle.caption_batch(["pic"], [img])
    assert result["pic"] == "The image shows a cat and a dog."


def test_fixed_mode(tmp_path):
    img = tmp_path / "pic.ppm"
    save_image(random_image(3, 4, 4), img)
    caption = caption_one(mock_command("--mode", "fixed", "--objects", "ghost"), img)
    assert caption == "The image shows a ghost."


def test_mock_subprocess_answers_every_request_then_exits_zero():
    # the command skips interpreter teardown once stdin closes, so every
    # reply must be written by then
    ids = [f"r{i}" for i in range(500)]
    requests = "".join(
        json.dumps({"id": rid, "image": f"/images/{rid}.ppm", "prompt": "p"}) + "\n"
        for rid in ids
    )
    proc = subprocess.run(
        mock_command("--mode", "echo"),
        input=requests,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    replies = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [reply["id"] for reply in replies] == ids
    assert replies[-1]["caption"] == "A picture stored at /images/r499.ppm."


# mock loop unit tests (in process)


def run_loop(requests, **kwargs):
    stdin = io.BytesIO(b"".join(json.dumps(r).encode() + b"\n" for r in requests))
    stdout = io.StringIO()
    mock_oracle_loop(kwargs.pop("mode"), stdin, stdout, **kwargs)
    return [json.loads(line) for line in stdout.getvalue().splitlines()]


def test_loop_gt_mode_empty_for_unknown_id():
    replies = run_loop(
        [{"id": "z", "image": "x.ppm", "prompt": "p"}],
        mode="gt",
        ground_truth={"other": ["dog"]},
    )
    assert replies == [{"id": "z", "caption": ""}]


def test_mean_energy_is_the_planar_mean_of_the_loaded_image(tmp_path):
    rng = np.random.default_rng(61)
    for _ in range(200):
        h, w = (int(n) for n in rng.integers(1, 41, size=2))
        img = rng.uniform(size=(h, w, 3))
        for ext in ("ppm", "png"):
            path = tmp_path / f"energy.{ext}"
            save_image(img, path)
            planes = np.ascontiguousarray(load_image(path).transpose(2, 0, 1))
            assert mean_energy(path) == float((planes**2).mean())


@pytest.mark.parametrize("ext", ["ppm", "png"])
def test_mean_energy_allocates_one_float_and_two_byte_images(tmp_path, ext):
    h, w = 64, 80
    path = tmp_path / f"budget.{ext}"
    save_image(random_image(9, h, w), path)
    peak = traced_peak(lambda: mean_energy(path))
    assert peak <= 1.1 * (h * w * 3 * 8 + 2 * h * w * 3)


class CountingReader:
    """A binary stream that counts the bytes its readline hands out."""

    def __init__(self, data):
        self._stream = io.BytesIO(data)
        self.bytes_read = 0

    def readline(self, size=-1):
        line = self._stream.readline(size)
        self.bytes_read += len(line)
        return line


def test_loop_refuses_an_overlong_request_line_after_the_cap():
    stdin = CountingReader(b'{"id": "a", "image": "' + b"x" * (8 << 20) + b'"}\n')
    stdout = io.StringIO()
    with pytest.raises(OracleError, match=r"^stdin:1: line longer than 1048576 bytes$"):
        mock_oracle_loop("echo", stdin, stdout)
    assert stdin.bytes_read <= MAX_LINE + 1
    assert stdout.getvalue() == ""


@pytest.mark.parametrize(
    "line, message",
    [
        (b'{"id": "a", "image": "\xff.ppm"}', "stdin:2: not valid UTF-8"),
        (b"not json", "stdin:2: invalid JSON (Expecting value)"),
        (b"[1]", "stdin:2: expected a JSON object"),
        (b'{"id": "a", "image": 0}', "stdin:2: field 'image' must be str"),
    ],
)
def test_loop_names_the_line_of_a_bad_request(line, message):
    stdin = io.BytesIO(b'{"id": "ok", "image": "x.ppm"}\n' + line + b"\n")
    stdout = io.StringIO()
    with pytest.raises(OracleError, match=exactly(message)):
        mock_oracle_loop("echo", stdin, stdout)
    assert [json.loads(r)["id"] for r in stdout.getvalue().splitlines()] == ["ok"]


def test_loop_rejects_unknown_mode():
    with pytest.raises(ValueError, match="mode"):
        mock_oracle_loop("wild", io.BytesIO(), io.StringIO())


def test_object_sentence():
    assert object_sentence([]) == ""
    assert object_sentence(["hot_dog"]) == "The image shows a hot dog."
    assert object_sentence(["dragon", "unicorn"]) == (
        "The image shows a dragon and a unicorn."
    )
