"""End-to-end CLI tests through main(argv)."""

import json
import os
import shlex
import subprocess
import sys
import time

import numpy as np
import pytest

from freqfuse.harness import cli
from freqfuse.harness.cli import main
from freqfuse.harness.imageio import load_image, save_image
from freqfuse.spectral import MAX_SIZE
from oracles import naive_read_tokens
from util import cosine_image, random_image, write_jsonl


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# decompose


def test_decompose_reconstructs_through_files(tmp_path, capsys):
    # a smooth image under a generous cutoff keeps both exported branches
    # inside [0,1], so only the two quantization steps bite
    img = cosine_image(1, size=16, mean=0.5, amplitude=0.2)
    src = tmp_path / "src.ppm"
    save_image(img, src)
    out_low = tmp_path / "low.ppm"
    out_high = tmp_path / "high.ppm"
    code, out, _ = run(
        capsys,
        "decompose", "--input", str(src), "--cutoff", "100",
        "--out-low", str(out_low), "--out-high", str(out_high),
    )
    assert code == 0
    assert str(out_low) in out and str(out_high) in out
    total = load_image(out_low) + load_image(out_high)
    assert np.abs(total - load_image(src)).max() <= 2.0 / 255 + 1e-9


def test_decompose_tiny_cutoff_exports(tmp_path, capsys):
    # 2 * cutoff**2 underflows to 0 at this cutoff: the low branch is the mean
    src = tmp_path / "src.ppm"
    save_image(random_image(2, 5, 6), src)
    out_low = tmp_path / "low.ppm"
    code, _, err = run(
        capsys,
        "decompose", "--input", str(src), "--cutoff", "1e-200",
        "--out-low", str(out_low), "--out-high", str(tmp_path / "high.ppm"),
    )
    assert (code, err) == (0, "")
    low = load_image(out_low)
    assert np.ptp(low, axis=(0, 1)).max() == 0.0


def test_decompose_negative_cutoff_is_usage_error(tmp_path, capsys):
    code, _, err = run(
        capsys,
        "decompose", "--input", "x.ppm", "--cutoff", "-5",
        "--out-low", "l.ppm", "--out-high", "h.ppm",
    )
    assert code == 1
    assert "--cutoff" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("decompose", "--input", "x.ppm", "--cutoff", "nan",
         "--out-low", "l.ppm", "--out-high", "h.ppm"),
        ("fuse-demo", "--input", "x.ppm", "--cutoff", "nan", "--out", "t.bin"),
        ("gradcheck", "--tol", "nan"),
        ("mock-oracle", "--mode", "echo", "--threshold", "nan"),
    ],
)
def test_nan_is_a_usage_error(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert "nan" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("decompose", "--input", "ghost.ppm", "--gamma", "0.5", "--seed", "-1",
         "--out-low", "l.ppm", "--out-high", "h.ppm"),
        ("gradcheck", "--seed", "-1"),
        ("fuse-demo", "--input", "ghost.ppm", "--seed", "-1", "--out", "t.bin"),
    ],
)
def test_negative_seed_is_a_usage_error(capsys, argv):
    # the input does not exist: the seed is checked before any file is read
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert "--seed" in err


def test_const_gamma_without_gamma_is_a_usage_error(capsys):
    # the input does not exist: the flags are checked before any file is read
    code, _, err = run(
        capsys,
        "decompose", "--input", "ghost.ppm", "--const-gamma",
        "--out-low", "l.ppm", "--out-high", "h.ppm",
    )
    assert code == 1
    assert "--const-gamma needs --gamma" in err


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--seed", "3"), "--seed needs --gamma"),
        (("--gamma", "0.5", "--const-gamma", "--seed", "3"), "--seed has no use"),
    ],
)
def test_unused_seed_is_a_usage_error(capsys, flags, message):
    # the input does not exist: the flags are checked before any file is read
    code, _, err = run(
        capsys,
        "decompose", "--input", "ghost.ppm", *flags,
        "--out-low", "l.ppm", "--out-high", "h.ppm",
    )
    assert code == 1
    assert message in err


def test_decompose_missing_input_is_data_error(tmp_path, capsys):
    code, _, err = run(
        capsys,
        "decompose", "--input", str(tmp_path / "ghost.ppm"),
        "--out-low", str(tmp_path / "l.ppm"), "--out-high", str(tmp_path / "h.ppm"),
    )
    assert code == 2
    assert err


@pytest.mark.parametrize("outs", [("low.ppm", "high.jpg"), ("low.jpg", "high.ppm")])
def test_decompose_bad_output_extension_writes_nothing(tmp_path, capsys, outs):
    src = tmp_path / "src.ppm"
    save_image(random_image(2, 8, 8), src)
    out_low, out_high = (tmp_path / name for name in outs)
    code, out, err = run(
        capsys,
        "decompose", "--input", str(src), "--cutoff", "3",
        "--out-low", str(out_low), "--out-high", str(out_high),
    )
    assert code == 2
    assert out == ""
    assert "unknown extension" in err
    assert sorted(tmp_path.iterdir()) == [src]


def test_decompose_one_file_for_both_outputs_is_usage_error(tmp_path, capsys, monkeypatch):
    src = tmp_path / "src.ppm"
    save_image(random_image(2, 8, 8), src)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(
        capsys,
        "decompose", "--input", str(src), "--cutoff", "3",
        "--out-low", "x.ppm", "--out-high", "./x.ppm",
    )
    assert code == 1
    assert out == ""
    assert "--out-low and --out-high name the same file" in err
    assert sorted(tmp_path.iterdir()) == [src]


def test_decompose_two_hard_links_to_one_file_is_usage_error(tmp_path, capsys):
    src = tmp_path / "src.ppm"
    save_image(random_image(2, 8, 8), src)
    low, high = tmp_path / "a.ppm", tmp_path / "b.ppm"
    low.write_bytes(b"old")
    os.link(low, high)
    code, out, err = run(
        capsys,
        "decompose", "--input", str(src), "--cutoff", "3",
        "--out-low", str(low), "--out-high", str(high),
    )
    assert code == 1
    assert out == ""
    assert "--out-low and --out-high name the same file" in err
    assert low.read_bytes() == b"old"


def test_decompose_zero_gamma_blacks_out(tmp_path, capsys):
    src = tmp_path / "src.ppm"
    save_image(random_image(2, 8, 8), src)
    out_low = tmp_path / "low.ppm"
    out_high = tmp_path / "high.ppm"
    code, _, _ = run(
        capsys,
        "decompose", "--input", str(src), "--gamma", "0",
        "--out-low", str(out_low), "--out-high", str(out_high),
    )
    assert code == 0
    assert np.all(load_image(out_low) == 0.0)
    assert np.all(load_image(out_high) == 0.0)


def test_decompose_gamma_out_of_range_is_usage_error(capsys):
    code, _, err = run(
        capsys,
        "decompose", "--input", "x.ppm", "--gamma", "1.5",
        "--out-low", "l.ppm", "--out-high", "h.ppm",
    )
    assert code == 1
    assert "--gamma" in err


def test_decompose_constant_gamma_one_matches_plain(tmp_path, capsys):
    src = tmp_path / "src.ppm"
    save_image(random_image(3, 8, 8, lo=0.3, hi=0.7), src)
    plain = [tmp_path / "pl.ppm", tmp_path / "ph.ppm"]
    damped = [tmp_path / "dl.ppm", tmp_path / "dh.ppm"]
    assert run(
        capsys,
        "decompose", "--input", str(src),
        "--out-low", str(plain[0]), "--out-high", str(plain[1]),
    )[0] == 0
    assert run(
        capsys,
        "decompose", "--input", str(src), "--gamma", "1", "--const-gamma",
        "--out-low", str(damped[0]), "--out-high", str(damped[1]),
    )[0] == 0
    assert np.array_equal(load_image(plain[0]), load_image(damped[0]))
    assert np.array_equal(load_image(plain[1]), load_image(damped[1]))


# gradcheck


def test_gradcheck_passes(capsys):
    code, out, _ = run(
        capsys, "gradcheck", "--dim", "4", "--positions", "2",
        "--seed", "13", "--tol", "1e-4",
    )
    assert code == 0
    assert "worst relative error" in out


def test_gradcheck_unreachable_tolerance_fails(capsys):
    code, _, err = run(
        capsys, "gradcheck", "--dim", "4", "--positions", "2",
        "--seed", "13", "--tol", "1e-15",
    )
    assert code == 4
    assert "FAILED" in err


def test_gradcheck_refuses_an_infinite_tol(capsys):
    # it once passed every gradient and exited 0
    code, out, err = run(capsys, "gradcheck", "--tol", "inf")
    assert code == 1
    assert "--tol" in err and out == ""


def test_gradcheck_rejects_bad_dim(capsys):
    code, _, err = run(capsys, "gradcheck", "--dim", "0")
    assert code == 1
    assert "--dim" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("gradcheck", "--dim", "9" * 4000), "--dim"),
        (("gradcheck", "--positions", str(MAX_SIZE + 1)), "--positions"),
        (("fuse-demo", "--input", "ghost.ppm", "--patch", str(MAX_SIZE + 1),
          "--out", "t.bin"), "--patch"),
        (("fuse-demo", "--input", "ghost.ppm", "--dim", "9" * 4000, "--out", "t.bin"),
         "--dim"),
    ],
    ids=["gradcheck-dim", "gradcheck-positions", "fuse-demo-patch", "fuse-demo-dim"],
)
def test_a_size_over_the_cap_is_a_usage_error(capsys, argv, flag):
    # --dim of 4000 nines once exited 1 with a TypeError's traceback; the
    # input does not exist: sizes are checked before any file is read
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    usage, error = err.rstrip("\n").rsplit("\n", 1)
    assert usage.startswith(f"usage: freqfuse {argv[0]} [-h]")
    value = argv[argv.index(flag) + 1]
    assert error == f"freqfuse {argv[0]}: error: {flag} must be at most {MAX_SIZE}, got {value}"


def test_an_array_too_large_for_memory_is_a_data_error():
    # --dim 40000 once exited 1 with numpy's traceback. The address space is
    # capped in a child process only, at 2 GiB: the weights need 11.9 GiB
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from freqfuse.harness.cli import main\n"
        "sys.exit(main(['gradcheck', '--dim', '40000']))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr == (
        b"error: out of memory: Unable to allocate 11.9 GiB for an array with"
        b" shape (40000, 40000) and data type float64\n"
    )


def test_a_memory_error_without_a_message_is_a_data_error(capsys, monkeypatch):
    def runs_out(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "gradient_check", runs_out)
    assert run(capsys, "gradcheck") == (2, "", "error: out of memory\n")


# fuse-demo


def test_fuse_demo_writes_tokens(tmp_path, capsys):
    src = tmp_path / "src.ppm"
    save_image(random_image(4, 16, 16), src)
    out = tmp_path / "fused.tok"
    code, text, _ = run(
        capsys,
        "fuse-demo", "--input", str(src), "--patch", "4",
        "--dim", "6", "--seed", "3", "--out", str(out),
    )
    assert code == 0
    tokens = naive_read_tokens(out)
    assert tokens.shape == (16, 6)
    assert "fused stats:" in text
    assert "16x6" in text


def test_fuse_demo_bad_patch_is_data_error(tmp_path, capsys):
    src = tmp_path / "src.ppm"
    save_image(random_image(5, 10, 10), src)
    code, _, err = run(
        capsys,
        "fuse-demo", "--input", str(src), "--patch", "3",
        "--dim", "4", "--out", str(tmp_path / "t.tok"),
    )
    assert code == 2
    assert "patch_size" in err


# eval chair / eval pope


def chair_fixture(tmp_path):
    return write_jsonl(
        tmp_path / "caps.jsonl",
        [
            {
                "id": "a",
                "caption": "A dog, a cat and a car.",
                "ground_truth": ["dog", "car"],
            }
        ],
    )


def test_eval_chair_fixture(tmp_path, capsys):
    code, out, _ = run(capsys, "eval", "chair", "--captions", chair_fixture(tmp_path))
    assert code == 0
    assert "chair_i=0.3333" in out
    assert "chair_s=1.0000" in out
    assert "precision=0.6667" in out


def test_eval_chair_custom_synonyms(tmp_path, capsys):
    synonyms = tmp_path / "syn.json"
    synonyms.write_text(json.dumps({"doggo": "dog", "dog": "dog"}))
    captions = write_jsonl(
        tmp_path / "caps.jsonl",
        [{"id": "a", "caption": "a doggo", "ground_truth": ["dog"]}],
    )
    code, out, _ = run(
        capsys, "eval", "chair", "--captions", captions, "--synonyms", str(synonyms)
    )
    assert code == 0
    assert "chair_i=0.0000" in out


@pytest.mark.parametrize(
    "content, message",
    [(b'{"dog": "\xff"}', "not valid UTF-8"), (b'{"dog": ', "invalid JSON (Expecting value)")],
)
def test_eval_chair_bad_synonym_file_names_it(tmp_path, capsys, content, message):
    synonyms = tmp_path / "syn.json"
    synonyms.write_bytes(content)
    captions = write_jsonl(
        tmp_path / "caps.jsonl",
        [{"id": "a", "caption": "a dog", "ground_truth": ["dog"]}],
    )
    code, _, err = run(
        capsys, "eval", "chair", "--captions", captions, "--synonyms", str(synonyms)
    )
    assert code == 2
    assert err.strip() == f"error: {synonyms}: {message}"


def test_eval_chair_unknown_gt_class_is_data_error(tmp_path, capsys):
    captions = write_jsonl(
        tmp_path / "caps.jsonl",
        [{"id": "a", "caption": "x", "ground_truth": ["wyvern"]}],
    )
    code, _, err = run(capsys, "eval", "chair", "--captions", captions)
    assert code == 2
    assert "wyvern" in err


def test_eval_chair_non_string_gt_is_data_error(tmp_path, capsys):
    captions = write_jsonl(
        tmp_path / "caps.jsonl",
        [{"id": "a", "caption": "x", "ground_truth": ["cat", 5]}],
    )
    code, _, err = run(capsys, "eval", "chair", "--captions", captions)
    assert code == 2
    assert "caps.jsonl:1: ground-truth entries must be strings" in err


def test_eval_chair_undecodable_byte_is_data_error(tmp_path, capsys):
    captions = tmp_path / "bad.jsonl"
    captions.write_bytes(b'{"id": "a", "caption": "\xff", "ground_truth": []}\n')
    code, _, err = run(capsys, "eval", "chair", "--captions", str(captions))
    assert code == 2
    assert f"{captions}:1: not valid UTF-8" in err


def test_eval_chair_overlong_line_is_data_error(tmp_path, capsys):
    captions = tmp_path / "long.jsonl"
    captions.write_text('{"id": "a", "caption": "' + "x" * (2 << 20) + '"}\n')
    code, _, err = run(capsys, "eval", "chair", "--captions", str(captions))
    assert code == 2
    assert f"{captions}:1: line longer than 1048576 bytes" in err


# a line nested past the recursion limit, and an integer past Python's
# 4300-digit limit, both well under the 1 MiB line cap
_DEEP_JSON = "[" * 100_000
_LONG_NUMBER = "1" * 5000
_UNPARSABLE = pytest.mark.parametrize(
    "line, why",
    [(_DEEP_JSON, "nested too deeply"), (_LONG_NUMBER, "number too long")],
    ids=["deep", "long-number"],
)


@_UNPARSABLE
def test_eval_chair_unparsable_line_is_data_error(tmp_path, capsys, line, why):
    captions = tmp_path / "caps.jsonl"
    captions.write_text(line + "\n")
    code, _, err = run(capsys, "eval", "chair", "--captions", str(captions))
    assert code == 2
    assert err.strip() == f"error: {captions}:1: invalid JSON ({why})"


def pope_fixture(tmp_path, name="pope.jsonl"):
    return write_jsonl(
        tmp_path / name,
        [
            {"id": "1", "predicted": "yes", "gold": "yes"},
            {"id": "2", "predicted": "yes", "gold": "yes"},
            {"id": "3", "predicted": "yes", "gold": "no"},
            {"id": "4", "predicted": "no", "gold": "yes"},
            {"id": "5", "predicted": "no", "gold": "no"},
            {"id": "6", "predicted": "no", "gold": "no"},
        ],
    )


def test_eval_pope_single_file(tmp_path, capsys):
    code, out, _ = run(capsys, "eval", "pope", "--answers", pope_fixture(tmp_path))
    assert code == 0
    assert "f1=0.6667" in out
    assert "average_f1=0.6667" in out


def test_eval_pope_averages_over_files(tmp_path, capsys):
    first = pope_fixture(tmp_path)
    perfect = write_jsonl(
        tmp_path / "perfect.jsonl",
        [{"id": "1", "predicted": "yes", "gold": "yes"}],
    )
    code, out, _ = run(
        capsys, "eval", "pope", "--answers", first, "--answers", perfect
    )
    assert code == 0
    # mean of 2/3 and 1.0
    assert "average_f1=0.8333" in out


# sweep through the CLI


def test_sweep_cli_outputs_csv(tmp_path, capsys):
    img = tmp_path / "a.ppm"
    save_image(random_image(6, 8, 8), img)
    gt = write_jsonl(tmp_path / "gt.jsonl", [{"id": "a", "ground_truth": ["dog"]}])
    config = tmp_path / "sweep.json"
    config.write_text(
        json.dumps(
            {
                "mode": "high",
                "cutoffs": [5, 30],
                "images": ["a.ppm"],
                "oracle": " ".join(
                    [
                        sys.executable, "-m", "freqfuse", "mock-oracle",
                        "--mode", "gt", "--ground-truth", gt,
                    ]
                ),
                "ground_truth": "gt.jsonl",
            }
        )
    )
    code, out, _ = run(capsys, "sweep", "--config", str(config))
    assert code == 0
    assert out.splitlines() == [
        "cutoff,chair_i,chair_s,n",
        "5,0.000000,0.000000,1",
        "30,0.000000,0.000000,1",
    ]


def test_sweep_missing_config_is_data_error(tmp_path, capsys):
    code, _, err = run(capsys, "sweep", "--config", str(tmp_path / "none.json"))
    assert code == 2
    assert err


def test_sweep_config_not_utf8_names_it(tmp_path, capsys):
    config = tmp_path / "sweep.json"
    config.write_bytes(b'\xff{"mode": "low"}')
    code, _, err = run(capsys, "sweep", "--config", str(config))
    assert code == 2
    assert err.strip() == f"error: {config}: not valid UTF-8"


def sweep_one_image(tmp_path, capsys, oracle, **extra):
    save_image(random_image(7, 4, 4), tmp_path / "a.ppm")
    write_jsonl(tmp_path / "gt.jsonl", [{"id": "a", "ground_truth": []}])
    config = tmp_path / "sweep.json"
    config.write_text(
        json.dumps(
            {
                "mode": "low",
                "cutoffs": [5],
                "images": ["a.ppm"],
                "oracle": oracle,
                "ground_truth": "gt.jsonl",
                **extra,
            }
        )
    )
    return run(capsys, "sweep", "--config", str(config))


def test_sweep_with_a_huge_timeout_runs(tmp_path, capsys):
    # a selector refuses a wait this long; the oracle caps each wait instead
    oracle = shlex.join([sys.executable, "-m", "freqfuse", "mock-oracle", "--mode", "gt"])
    code, out, err = sweep_one_image(tmp_path, capsys, oracle, timeout=1e9)
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == "5,0.000000,0.000000,1"


def test_sweep_bad_oracle_is_oracle_error(tmp_path, capsys):
    code, _, err = sweep_one_image(tmp_path, capsys, "/no/such/captioner")
    assert code == 3
    assert "oracle" in err


def test_sweep_overlong_reply_line_is_oracle_error(tmp_path, capsys):
    # a 2 MiB reply line is refused at the 1 MiB cap, and the child, blocked
    # on writing the rest of it, is ended rather than waited for
    script = 'import sys; sys.stdin.readline(); print("x" * (2 << 20))'
    start = time.monotonic()
    code, _, err = sweep_one_image(
        tmp_path, capsys, shlex.join([sys.executable, "-c", script])
    )
    assert time.monotonic() - start < 1.0
    assert code == 3
    assert "oracle line 1: reply longer than 1048576 bytes" in err


@_UNPARSABLE
def test_sweep_unparsable_reply_is_oracle_error(tmp_path, capsys, line, why):
    script = f"import sys; sys.stdin.readline(); print({line!r})"
    code, _, err = sweep_one_image(
        tmp_path, capsys, shlex.join([sys.executable, "-c", script])
    )
    assert code == 3
    assert err.strip() == f"oracle error: oracle line 1: invalid JSON ({why})"


def test_sweep_non_string_gt_is_data_error(tmp_path, capsys):
    # the ground truth is checked before the (unstartable) oracle is spawned
    img = tmp_path / "a.ppm"
    save_image(random_image(7, 4, 4), img)
    gt = write_jsonl(tmp_path / "gt.jsonl", [{"id": "a", "ground_truth": ["cat", 5]}])
    config = tmp_path / "sweep.json"
    config.write_text(
        json.dumps(
            {
                "mode": "low",
                "cutoffs": [5],
                "images": ["a.ppm"],
                "oracle": "/no/such/captioner",
                "ground_truth": "gt.jsonl",
            }
        )
    )
    code, _, err = run(capsys, "sweep", "--config", str(config))
    assert code == 2
    assert "gt.jsonl:1: ground-truth entries must be strings" in err


# usage plumbing


def test_no_arguments_is_usage_error(capsys):
    assert run(capsys)[0] == 1


def test_unknown_command_is_usage_error(capsys):
    assert run(capsys, "transmogrify")[0] == 1


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


def test_mock_oracle_bad_mode_is_usage_error(capsys):
    assert run(capsys, "mock-oracle", "--mode", "psychic")[0] == 1


@pytest.mark.parametrize(
    "mode, flag, value",
    [
        ("echo", "--threshold", "5"),
        ("gt", "--threshold", "5"),
        ("fixed", "--threshold", "5"),
        ("echo", "--objects", "cat"),
        ("gt", "--objects", "cat"),
        ("echo", "--ground-truth", "gt.jsonl"),
        ("fixed", "--ground-truth", "gt.jsonl"),
    ],
)
def test_mock_oracle_flag_its_mode_ignores_is_usage_error(
    capsys, monkeypatch, mode, flag, value
):
    # refused before the ground truth is loaded or stdin is read
    monkeypatch.setattr(sys, "stdin", None)
    code, out, err = run(capsys, "mock-oracle", "--mode", mode, flag, value)
    assert code == 1
    assert out == ""
    assert f"{flag} has no use with --mode {mode}" in err


@pytest.mark.parametrize("mode", ["gt", "energy"])
@pytest.mark.parametrize(
    "line",
    [b"[1]", b'"x"', b'{"id": "a", "image": 0}', b"not json", b'{"id": "a"}',
     pytest.param(b'{"id": "a", "image": "\xff.ppm"}', id="not-utf8"),
     pytest.param(b'{"id": "a", "image": "' + b"x" * (2 << 20) + b'"}', id="over-the-cap"),
     pytest.param(_DEEP_JSON.encode(), id="deep"),
     pytest.param(_LONG_NUMBER.encode(), id="long-number")],
)
def test_mock_oracle_malformed_request_is_oracle_error(mode, line):
    # an image that is not a string must not reach load_image, which would
    # read a number as a file descriptor
    proc = subprocess.run(
        [sys.executable, "-m", "freqfuse", "mock-oracle", "--mode", mode],
        input=line + b"\n", capture_output=True, timeout=60,
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith(b"oracle error: stdin:1: ")
    assert b"Traceback" not in proc.stderr
    assert proc.stdout == b""


def test_mock_oracle_whose_reader_is_gone_exits_quietly():
    # as when the sweep's process dies with replies owed: the reply meets a
    # broken pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "freqfuse", "mock-oracle", "--mode", "echo"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    _, err = proc.communicate(b'{"id": "a", "image": "a.ppm"}\n', timeout=60)
    assert proc.returncode == 0
    assert err == b""


@pytest.mark.parametrize(
    "argv",
    [
        ("decompose", "--input", "x.ppm", "--cutoff", "-1",
         "--out-low", "l.ppm", "--out-high", "h.ppm"),
        ("gradcheck", "--dim", "0"),
        ("fuse-demo", "--input", "x.ppm", "--patch", "0", "--out", "t.bin"),
        ("mock-oracle", "--mode", "echo", "--threshold", "5"),
    ],
    ids=lambda argv: argv[0],
)
def test_post_parse_error_prints_the_subcommand_usage(capsys, monkeypatch, argv):
    monkeypatch.setattr(sys, "stdin", None)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"usage: freqfuse {argv[0]} [-h]")
    assert f"\nfreqfuse {argv[0]}: error: " in err
