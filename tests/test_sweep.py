"""Sweep experiment tests against the bundled deterministic mocks."""

import json
import sys

import numpy as np
import pytest

from freqfuse.harness.cli import main
from freqfuse.harness.formats import DataFormatError
from freqfuse.harness.imageio import save_image
from freqfuse.harness.sweep import SweepConfig, SweepResult, SweepRow, run_sweep
from util import cosine_image, random_image, write_jsonl


def mock_command(*extra):
    return " ".join([sys.executable, "-m", "freqfuse", "mock-oracle", *extra])


def small_images(tmp_path, ids):
    paths = []
    for i, image_id in enumerate(ids):
        path = tmp_path / f"{image_id}.ppm"
        save_image(random_image(i, 16, 16), path)
        paths.append(str(path))
    return paths


def energy_fixture(tmp_path):
    """Three cosine cards whose high-frequency energy dies at known cutoffs."""
    paths = []
    for freq in (10, 50, 110):
        path = tmp_path / f"cos{freq}.ppm"
        save_image(cosine_image(freq), path)
        paths.append(str(path))
    gt = write_jsonl(
        tmp_path / "gt.jsonl",
        [{"id": f"cos{f}", "ground_truth": ["dog"]} for f in (10, 50, 110)],
    )
    return paths, gt


# config validation


def test_config_rejects_bad_mode(tmp_path):
    with pytest.raises(ValueError, match="mode"):
        SweepConfig(mode="both", cutoffs=(1,), images=("a",), oracle="x", ground_truth="g")


def test_config_rejects_bad_cutoffs():
    base = dict(mode="low", images=("a",), oracle="x", ground_truth="g")
    with pytest.raises(ValueError, match="non-empty"):
        SweepConfig(cutoffs=(), **base)
    with pytest.raises(ValueError, match="positive"):
        SweepConfig(cutoffs=(-1, 5), **base)
    with pytest.raises(ValueError, match="strictly increasing"):
        SweepConfig(cutoffs=(5, 5), **base)
    with pytest.raises(ValueError, match="strictly increasing"):
        SweepConfig(cutoffs=(30, 5), **base)
    with pytest.raises(ValueError, match="positive"):
        SweepConfig(cutoffs=(5, float("nan")), **base)


def test_config_rejects_empty_images():
    with pytest.raises(ValueError, match="image list"):
        SweepConfig(mode="low", cutoffs=(1,), images=(), oracle="x", ground_truth="g")


def test_config_from_json(tmp_path):
    config_path = tmp_path / "sweep.json"
    config_path.write_text(
        json.dumps(
            {
                "mode": "high",
                "cutoffs": [1, 30],
                "images": ["imgs/a.ppm"],
                "oracle": "cat",
                "ground_truth": "gt.jsonl",
            }
        )
    )
    config = SweepConfig.from_json(config_path)
    assert config.mode == "high"
    assert config.cutoffs == (1.0, 30.0)
    # relative paths resolve against the config directory
    assert config.images == (str(tmp_path / "imgs/a.ppm"),)
    assert config.ground_truth == str(tmp_path / "gt.jsonl")


def test_config_from_json_rejects_unknown_and_missing_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"mode": "low", "bogus": 1}))
    with pytest.raises(DataFormatError, match="unknown config keys"):
        SweepConfig.from_json(path)
    path.write_text(json.dumps({"mode": "low", "seed": 0}))
    with pytest.raises(DataFormatError, match=r"unknown config keys \['seed'\]"):
        SweepConfig.from_json(path)
    path.write_text(json.dumps({"mode": "low"}))
    with pytest.raises(DataFormatError, match="missing config keys"):
        SweepConfig.from_json(path)
    path.write_text("{nope")
    with pytest.raises(DataFormatError, match="invalid JSON"):
        SweepConfig.from_json(path)


@pytest.mark.parametrize(
    "key, value",
    [
        ("timeout", "60"),
        ("timeout", -1),
        ("timeout", 0),
        ("cutoffs", 5),
        ("cutoffs", ["5"]),
        ("cutoffs", [float("nan")]),
        ("images", "a.ppm"),
        ("oracle", 5),
        ("synonyms", 5),
        ("ground_truth", 5),
        ("prompt", 5),
    ],
)
def test_config_from_json_rejects_bad_field_types(tmp_path, key, value):
    raw = {
        "mode": "low",
        "cutoffs": [5],
        "images": ["a.ppm"],
        "oracle": "definitely-not-spawned",
        "ground_truth": "gt.jsonl",
        key: value,
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(DataFormatError, match=f"{path}: {key} must be"):
        SweepConfig.from_json(path)
    # the CLI reports it as a data error before any oracle starts
    assert main(["sweep", "--config", str(path)]) == 2


# sweep runs


def test_always_correct_oracle_scores_zero_everywhere(tmp_path):
    paths = small_images(tmp_path, ["a", "b"])
    gt = write_jsonl(
        tmp_path / "gt.jsonl",
        [
            {"id": "a", "ground_truth": ["dog"]},
            {"id": "b", "ground_truth": ["cat", "person"]},
        ],
    )
    for mode in ("low", "high"):
        config = SweepConfig(
            mode=mode,
            cutoffs=(5, 30),
            images=paths,
            oracle=mock_command("--mode", "gt", "--ground-truth", gt),
            ground_truth=gt,
        )
        result = run_sweep(config)
        assert [row.chair_i for row in result.rows] == [0.0, 0.0]
        assert [row.chair_s for row in result.rows] == [0.0, 0.0]
        assert all(row.n == 2 for row in result.rows)


def test_always_wrong_oracle_scores_one_everywhere(tmp_path):
    paths = small_images(tmp_path, ["a", "b"])
    gt = write_jsonl(
        tmp_path / "gt.jsonl",
        [{"id": "a", "ground_truth": ["dog"]}, {"id": "b", "ground_truth": ["cat"]}],
    )
    config = SweepConfig(
        mode="high",
        cutoffs=(5, 30),
        images=paths,
        oracle=mock_command("--mode", "fixed", "--objects", "unicorn,dragon"),
        ground_truth=gt,
    )
    result = run_sweep(config)
    assert [row.chair_i for row in result.rows] == [1.0, 1.0]
    assert [row.chair_s for row in result.rows] == [1.0, 1.0]


def test_ground_truth_may_name_a_synonym(tmp_path):
    # "man" is a surface form of the canonical class "person"
    paths = small_images(tmp_path, ["a"])
    gt = write_jsonl(tmp_path / "gt.jsonl", [{"id": "a", "ground_truth": ["man"]}])
    config = SweepConfig(
        mode="low",
        cutoffs=(5,),
        images=paths,
        oracle=mock_command("--mode", "fixed", "--objects", "person"),
        ground_truth=gt,
    )
    result = run_sweep(config)
    assert [row.chair_i for row in result.rows] == [0.0]


def test_energy_sweep_rate_rises_with_cutoff(tmp_path):
    paths, gt = energy_fixture(tmp_path)
    config = SweepConfig(
        mode="high",
        cutoffs=(1, 30, 60, 120),
        images=paths,
        oracle=mock_command(
            "--mode", "energy", "--threshold", "0.01", "--ground-truth", gt
        ),
        ground_truth=gt,
    )
    result = run_sweep(config)
    chair_i = [row.chair_i for row in result.rows]
    chair_s = [row.chair_s for row in result.rows]
    assert chair_i == pytest.approx([0.0, 0.5, 0.8, 1.0])
    assert chair_s == pytest.approx([0.0, 1 / 3, 2 / 3, 1.0])
    assert all(b >= a for a, b in zip(chair_i, chair_i[1:]))


def test_one_oracle_process_serves_the_whole_sweep(tmp_path):
    paths = small_images(tmp_path, ["a", "b"])
    gt = write_jsonl(
        tmp_path / "gt.jsonl",
        [{"id": "a", "ground_truth": ["dog"]}, {"id": "b", "ground_truth": []}],
    )
    starts = tmp_path / "starts.log"
    # the captioner logs its start-up, then serves the gt mock
    script = (
        "import sys\n"
        f"open({str(starts)!r}, 'a').write('start\\n')\n"
        "from freqfuse.harness.cli import main\n"
        f"sys.exit(main(['mock-oracle', '--mode', 'gt', '--ground-truth', {gt!r}]))\n"
    )
    config = SweepConfig(
        mode="high",
        cutoffs=(1, 5, 30),
        images=paths,
        oracle=[sys.executable, "-c", script],
        ground_truth=gt,
    )
    csv = run_sweep(config).to_csv()
    assert starts.read_text() == "start\n"
    assert csv == (
        "cutoff,chair_i,chair_s,n\n"
        "1,0.000000,0.000000,2\n"
        "5,0.000000,0.000000,2\n"
        "30,0.000000,0.000000,2\n"
    )


def test_one_forward_transform_per_image(tmp_path, monkeypatch):
    paths = small_images(tmp_path, ["a", "b"])
    gt = write_jsonl(
        tmp_path / "gt.jsonl",
        [{"id": "a", "ground_truth": ["dog"]}, {"id": "b", "ground_truth": []}],
    )
    calls = {"rfft2": 0, "irfft2": 0}

    def counted(name):
        original = getattr(np.fft, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(np.fft, name, counted(name))
    config = SweepConfig(
        mode="high",
        cutoffs=(1, 5, 30),
        images=paths,
        oracle=mock_command("--mode", "gt", "--ground-truth", gt),
        ground_truth=gt,
    )
    csv = run_sweep(config).to_csv()
    # 2 images: one forward transform each, one inverse per image per cutoff
    assert calls == {"rfft2": 2, "irfft2": 6}
    assert csv == (
        "cutoff,chair_i,chair_s,n\n"
        "1,0.000000,0.000000,2\n"
        "5,0.000000,0.000000,2\n"
        "30,0.000000,0.000000,2\n"
    )


def test_missing_ground_truth_id_fails_before_captioning(tmp_path):
    paths = small_images(tmp_path, ["a"])
    gt = write_jsonl(tmp_path / "gt.jsonl", [{"id": "other", "ground_truth": []}])
    config = SweepConfig(
        mode="low",
        cutoffs=(5,),
        images=paths,
        oracle="definitely-not-spawned",
        ground_truth=gt,
    )
    with pytest.raises(DataFormatError, match="no ground truth"):
        run_sweep(config)


def test_unknown_gt_class_is_a_data_error(tmp_path):
    paths = small_images(tmp_path, ["a"])
    gt = write_jsonl(tmp_path / "gt.jsonl", [{"id": "a", "ground_truth": ["wyvern"]}])
    config = SweepConfig(
        mode="low", cutoffs=(5,), images=paths, oracle="x", ground_truth=gt
    )
    with pytest.raises(DataFormatError, match="wyvern"):
        run_sweep(config)


def test_duplicate_image_stems_rejected(tmp_path):
    (tmp_path / "sub").mkdir()
    a = tmp_path / "a.ppm"
    b = tmp_path / "sub" / "a.ppm"
    save_image(random_image(0, 4, 4), a)
    save_image(random_image(1, 4, 4), b)
    gt = write_jsonl(tmp_path / "gt.jsonl", [{"id": "a", "ground_truth": []}])
    config = SweepConfig(
        mode="low", cutoffs=(5,), images=(str(a), str(b)), oracle="x", ground_truth=gt
    )
    with pytest.raises(DataFormatError, match="duplicate image id"):
        run_sweep(config)


def test_csv_format_and_determinism(tmp_path):
    paths = small_images(tmp_path, ["a"])
    gt = write_jsonl(tmp_path / "gt.jsonl", [{"id": "a", "ground_truth": ["dog"]}])
    config = SweepConfig(
        mode="low",
        cutoffs=(0.5, 30),
        images=paths,
        oracle=mock_command("--mode", "gt", "--ground-truth", gt),
        ground_truth=gt,
    )
    first = run_sweep(config).to_csv()
    second = run_sweep(config).to_csv()
    assert first == second
    assert first.splitlines()[0] == "cutoff,chair_i,chair_s,n"
    assert first.splitlines()[1] == "0.5,0.000000,0.000000,1"
    assert first.splitlines()[2] == "30,0.000000,0.000000,1"


def test_result_csv_shape():
    result = SweepResult(
        mode="low",
        rows=(SweepRow(cutoff=1.0, chair_i=1 / 3, chair_s=0.5, n=6),),
    )
    assert result.to_csv() == "cutoff,chair_i,chair_s,n\n1,0.333333,0.500000,6\n"
