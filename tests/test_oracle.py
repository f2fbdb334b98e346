"""Captioner-oracle protocol tests against scripted child processes."""

import io
import json
import sys
import time

import numpy as np
import pytest

from freqfuse.harness.imageio import save_image
from freqfuse.harness.oracle import (
    DEFAULT_PROMPT,
    CaptionOracle,
    OracleProtocolError,
    OracleSpawnError,
    OracleTimeoutError,
    mock_oracle_loop,
    object_sentence,
)
from util import random_image, write_jsonl


def child(script):
    return [sys.executable, "-c", script]


def caption_one(command, image_path, **kwargs):
    """Start an oracle, caption one image through caption_batch, and close it."""
    with CaptionOracle(command, **kwargs) as oracle:
        return oracle.caption_batch([("req-1", image_path)])["req-1"]


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


def test_batch_round_trip(tmp_path):
    with CaptionOracle(child(ECHO_IMAGE)) as oracle:
        result = oracle.caption_batch([("a", tmp_path / "x.ppm"), ("b", tmp_path / "y.ppm")])
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
        result = oracle.caption_batch([("first", "a.ppm"), ("second", "b.ppm")])
    assert result == {"first": "c-first", "second": "c-second"}


def test_duplicate_response_id_rejected():
    with CaptionOracle(child(DUPLICATE_ID)) as oracle:
        with pytest.raises(OracleProtocolError, match="duplicate"):
            oracle.caption_batch([("a", "x.ppm"), ("b", "y.ppm")])


def test_unknown_response_id_rejected():
    with pytest.raises(OracleProtocolError, match="unknown response id"):
        caption_one(child(UNKNOWN_ID), "x.ppm")


def test_invalid_json_names_line_number():
    with pytest.raises(OracleProtocolError, match="line 1"):
        caption_one(child(BAD_JSON), "x.ppm")


def test_non_string_caption_rejected():
    with pytest.raises(OracleProtocolError, match="caption"):
        caption_one(child(BAD_SHAPE), "x.ppm")


def test_timeout(tmp_path):
    with pytest.raises(OracleTimeoutError, match="0.3"):
        caption_one(child(SLEEPER), tmp_path / "x.ppm", timeout=0.3, shutdown_grace=0.2)


def test_early_exit_reported():
    with pytest.raises(OracleProtocolError, match="unanswered"):
        caption_one(child("pass"), "x.ppm")


def test_spawn_failure():
    with pytest.raises(OracleSpawnError, match="no-such-binary"):
        CaptionOracle("/no-such-binary --flag")
    with pytest.raises(OracleSpawnError, match="empty"):
        CaptionOracle("")


def test_blank_lines_tolerated():
    assert caption_one(child(BLANK_LINES), "x.ppm") == "after blank"


def test_blank_lines_do_not_extend_the_timeout():
    start = time.monotonic()
    with pytest.raises(OracleTimeoutError, match="0.5"):
        caption_one(child(BLANK_LINES_FOREVER), "x.ppm", timeout=0.5, shutdown_grace=0.2)
    assert time.monotonic() - start < 3.0


def test_child_that_never_reads_stdin_times_out():
    # 2000 requests fill the stdin pipe long before they are all written
    batch = [(f"r{i}", f"image-{i:04d}.ppm") for i in range(2000)]
    start = time.monotonic()
    with CaptionOracle(child(NEVER_READS), timeout=1, shutdown_grace=0.2) as oracle:
        with pytest.raises(OracleTimeoutError, match="within 1s"):
            oracle.caption_batch(batch)
    assert time.monotonic() - start < 4.0


def test_close_closes_both_pipes():
    with CaptionOracle(child(ECHO_IMAGE)) as oracle:
        oracle.caption_batch([("a", "x.ppm")])
    assert oracle._proc.stdin.closed and oracle._proc.stdout.closed


def test_one_oracle_answers_repeated_batches(tmp_path):
    batch = [("a", tmp_path / "x.ppm"), ("b", tmp_path / "y.ppm")]
    with CaptionOracle(child(ECHO_IMAGE)) as oracle:
        first = oracle.caption_batch(batch)
        second = oracle.caption_batch(batch)
    assert first == second
    assert first["a"].endswith("x.ppm") and first["b"].endswith("y.ppm")


def test_duplicate_response_id_rejected_in_a_later_batch():
    with CaptionOracle(child(DUPLICATE_IN_SECOND_BATCH)) as oracle:
        assert oracle.caption_batch([("a", "x.ppm")]) == {"a": "first"}
        with pytest.raises(OracleProtocolError, match="duplicate response id 'a'"):
            oracle.caption_batch([("a", "x.ppm"), ("b", "y.ppm")])


def test_stray_reply_rejected_when_the_next_batch_starts():
    with CaptionOracle(child(REPLY_TWICE)) as oracle:
        assert oracle.caption_batch([("a", "x.ppm")]) == {"a": "c"}
        with pytest.raises(OracleProtocolError, match="line 2: reply with no request"):
            oracle.caption_batch([("a", "x.ppm")])


def test_duplicate_request_ids_rejected_locally():
    with CaptionOracle(child(ECHO_IMAGE)) as oracle:
        with pytest.raises(ValueError, match="unique"):
            oracle.caption_batch([("a", "x.ppm"), ("a", "y.ppm")])


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
    gt = write_jsonl(tmp_path / "gt.jsonl", [{"id": "bright", "ground_truth": ["dog"]}])
    caption = caption_one(
        mock_command("--mode", "energy", "--threshold", "0.01", "--ground-truth", gt),
        path,
    )
    # the request id is "req-1", not "bright": expect empty
    assert caption == ""


def test_gt_mode_batch(tmp_path):
    img = tmp_path / "pic.ppm"
    save_image(random_image(2, 4, 4), img)
    gt = write_jsonl(tmp_path / "gt.jsonl", [{"id": "pic", "ground_truth": ["dog", "cat"]}])
    with CaptionOracle(mock_command("--mode", "gt", "--ground-truth", gt)) as oracle:
        result = oracle.caption_batch([("pic", img)])
    assert result["pic"] == "The image shows a cat and a dog."


def test_fixed_mode(tmp_path):
    img = tmp_path / "pic.ppm"
    save_image(random_image(3, 4, 4), img)
    caption = caption_one(mock_command("--mode", "fixed", "--objects", "ghost"), img)
    assert caption == "The image shows a ghost."


# mock loop unit tests (in process)


def run_loop(requests, **kwargs):
    stdin = io.StringIO("".join(json.dumps(r) + "\n" for r in requests))
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


def test_loop_rejects_unknown_mode():
    with pytest.raises(ValueError, match="mode"):
        mock_oracle_loop("wild", io.StringIO(), io.StringIO())


def test_object_sentence():
    assert object_sentence([]) == ""
    assert object_sentence(["hot_dog"]) == "The image shows a hot dog."
    assert object_sentence(["dragon", "unicorn"]) == (
        "The image shows a dragon and a unicorn."
    )
