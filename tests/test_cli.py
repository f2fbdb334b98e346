"""End-to-end CLI tests through main(argv)."""

import json
import sys

import numpy as np
import pytest

from freqfuse.harness.cli import main
from freqfuse.harness.imageio import load_image, save_image
from freqfuse.harness.tokenfile import read_tokens
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


def test_decompose_missing_input_is_data_error(tmp_path, capsys):
    code, _, err = run(
        capsys,
        "decompose", "--input", str(tmp_path / "ghost.ppm"),
        "--out-low", str(tmp_path / "l.ppm"), "--out-high", str(tmp_path / "h.ppm"),
    )
    assert code == 2
    assert err


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


def test_gradcheck_rejects_bad_dim(capsys):
    code, _, err = run(capsys, "gradcheck", "--dim", "0")
    assert code == 1
    assert "--dim" in err


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
    tokens = read_tokens(out)
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


def test_eval_chair_unknown_gt_class_is_data_error(tmp_path, capsys):
    captions = write_jsonl(
        tmp_path / "caps.jsonl",
        [{"id": "a", "caption": "x", "ground_truth": ["wyvern"]}],
    )
    code, _, err = run(capsys, "eval", "chair", "--captions", captions)
    assert code == 2
    assert "wyvern" in err


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


def test_sweep_bad_oracle_is_oracle_error(tmp_path, capsys):
    img = tmp_path / "a.ppm"
    save_image(random_image(7, 4, 4), img)
    gt = write_jsonl(tmp_path / "gt.jsonl", [{"id": "a", "ground_truth": []}])
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
    assert code == 3
    assert "oracle" in err


# usage plumbing


def test_no_arguments_is_usage_error(capsys):
    assert run(capsys)[0] == 1


def test_unknown_command_is_usage_error(capsys):
    assert run(capsys, "transmogrify")[0] == 1


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


def test_mock_oracle_bad_mode_is_usage_error(capsys):
    assert run(capsys, "mock-oracle", "--mode", "psychic")[0] == 1
