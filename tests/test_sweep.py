"""Sweep experiment tests against the bundled deterministic mocks."""

import dataclasses
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from freqfuse import spectral
from freqfuse.harness import forks, imageio, sweep
from freqfuse.harness.cli import main
from freqfuse.harness.formats import DataFormatError
from freqfuse.harness.imageio import load_image, read_image, save_image
from freqfuse.harness.oracle import CaptionOracle, OracleError
from freqfuse.harness.sweep import SweepConfig, SweepResult, SweepRow, run_sweep
from freqfuse.spectral import decompose, filter_branch
from oracles import build_png
from util import (
    UNPRINTABLE,
    cosine_image,
    exactly,
    natural_image,
    random_image,
    traced_peak,
    write_jsonl,
)


def mock_command(*extra):
    return " ".join([sys.executable, "-m", "freqfuse", "mock-oracle", *extra])


def small_images(tmp_path, ids, size=16):
    paths = []
    for i, image_id in enumerate(ids):
        path = tmp_path / f"{image_id}.ppm"
        save_image(random_image(i, size, size), path)
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


def test_config_rejects_cutoffs_that_print_the_same():
    base = dict(mode="low", images=("a",), oracle="x", ground_truth="g")
    with pytest.raises(ValueError, match=r"1.0000001 and 1.0000002 print the same \(1\)"):
        SweepConfig(cutoffs=(0.5, 1.0000001, 1.0000002), **base)
    with pytest.raises(ValueError, match=r"print the same \(30\)"):
        SweepConfig(cutoffs=(30, 30.000001), **base)
    # six significant digits tell these apart
    assert SweepConfig(cutoffs=(1.00001, 1.00002), **base).cutoffs == (1.00001, 1.00002)


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
        # both print as "1" in the CSV and name the same export folder
        ("cutoffs", [1.0000001, 1.0000002]),
        # too large for a float
        pytest.param("cutoffs", [10**400], id="cutoffs-1e400"),
        pytest.param("timeout", 10**400, id="timeout-1e400"),
        # empty, or no closing quote
        ("oracle", ""),
        ("oracle", "   "),
        ("oracle", []),
        ("oracle", "python 'x"),
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


# each raised Python's own "Exceeds the limit (4300 digits)" ValueError,
# which names no field, in place of its own refusal
@pytest.mark.parametrize(
    "key",
    ["mode", "cutoffs", "images", "oracle", "ground_truth", "synonyms", "timeout", "prompt"],
)
@pytest.mark.parametrize("value", [UNPRINTABLE, [UNPRINTABLE]], ids=["int", "list"])
def test_a_refused_value_too_long_to_print_names_its_field(key, value):
    fields = dict(mode="low", cutoffs=[5], images=["a.ppm"], oracle="x", ground_truth="g")
    with pytest.raises(ValueError, match=f"^{key} ") as refused:
        SweepConfig(**{**fields, key: value})
    assert re.search(r"<(int|list) too long to print>$|a float can hold$", str(refused.value))


TAKEN_COMMAND = [sys.executable, "-c", ""]


# one list of timeouts and commands for both, so that the rule they share
# cannot drift apart again: each is taken by both or refused by both
@pytest.mark.parametrize(
    "key, value, taken",
    [("timeout", t, False)
     for t in (0, -1, float("nan"), float("inf"), True, "5", 10**400)]
    + [("oracle", c, False) for c in ("", [], "python 'x", [sys.executable, 1], 5)]
    + [("timeout", 60, True), ("oracle", TAKEN_COMMAND, True)],
)
def test_sweep_config_and_caption_oracle_take_the_same_timeouts_and_commands(key, value, taken):
    given = {"timeout": 60, "oracle": TAKEN_COMMAND, key: value}
    try:
        SweepConfig(mode="low", cutoffs=[5], images=["a.ppm"], ground_truth="g", **given)
        config_takes = True
    except ValueError:
        config_takes = False
    try:
        with CaptionOracle(given["oracle"], timeout=given["timeout"]):
            oracle_takes = True
    except (ValueError, OracleError):
        oracle_takes = False
    assert config_takes == oracle_takes == taken


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
    calls = {"rfft": 0, "fft": 0, "ifft": 0, "irfft": 0, "rfft2": 0, "irfft2": 0}

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
    # 2 images: one forward transform each, one inverse per image per cutoff,
    # each transform the two 1-D steps of its 2-D numpy counterpart
    assert calls == {"rfft": 2, "fft": 2, "ifft": 6, "irfft": 6, "rfft2": 0, "irfft2": 0}
    assert csv == (
        "cutoff,chair_i,chair_s,n\n"
        "1,0.000000,0.000000,2\n"
        "5,0.000000,0.000000,2\n"
        "30,0.000000,0.000000,2\n"
    )


def test_sweep_filters_single_precision_spectra(tmp_path, monkeypatch):
    paths = small_images(tmp_path, ["a", "b"])
    gt = write_jsonl(
        tmp_path / "gt.jsonl",
        [{"id": "a", "ground_truth": ["dog"]}, {"id": "b", "ground_truth": []}],
    )
    dtypes = []

    def recording_filter(spectrum, cutoff, which):
        dtypes.append(spectrum.half.dtype)
        return filter_branch(spectrum, cutoff, which)

    monkeypatch.setattr(sweep, "filter_branch", recording_filter)
    config = SweepConfig(
        mode="low",
        cutoffs=(1, 5, 30),
        images=paths,
        oracle=mock_command("--mode", "gt", "--ground-truth", gt),
        ground_truth=gt,
    )
    run_sweep(config)
    assert dtypes == [np.complex64] * 6


@pytest.mark.parametrize("png", [False, True], ids=["ppm-only", "with-png"])
def test_both_image_routes_hand_on_pixels_made_float32_once(tmp_path, monkeypatch, png):
    paths = small_images(tmp_path, ["a", "b"])
    if png:
        paths[1] = filtered_png(tmp_path / "b.png", 1, 16, 16)
    gt = write_jsonl(
        tmp_path / "gt.jsonl",
        [{"id": "a", "ground_truth": ["dog"]}, {"id": "b", "ground_truth": []}],
    )
    taken, transformed = [], []
    exports, spectrum = sweep._exports, sweep.image_spectrum

    def recording_exports(config, ids, images, directory):
        def recorded():
            for pixels in images:
                taken.append((pixels.dtype, pixels.shape))
                yield pixels

        return exports(config, ids, recorded(), directory)

    def recording_spectrum(image, dtype):
        transformed.append((image.dtype, np.dtype(dtype)))
        return spectrum(image, dtype)

    def no_load(path):
        raise AssertionError(f"the sweep called load_image({path!r})")

    monkeypatch.setattr(sweep, "_exports", recording_exports)
    monkeypatch.setattr(sweep, "image_spectrum", recording_spectrum)
    monkeypatch.setattr(imageio, "load_image", no_load)
    config = SweepConfig(
        mode="low",
        cutoffs=(1, 5),
        images=paths,
        oracle=mock_command("--mode", "gt", "--ground-truth", gt),
        ground_truth=gt,
    )
    run_sweep(config)
    # either route yields read_image's 8-bit pixels, cast once, to float32
    assert taken == [(np.uint8, (16, 16, 3))] * 2
    assert transformed == [(np.float32, np.float32)] * 2


@pytest.mark.parametrize("mode", ["low", "high"])
def test_single_precision_exports_stay_within_one_level_of_decompose(tmp_path, mode):
    # each sweep export against decompose's float64 branch exported: a byte
    # may round the other way across a half level, and only rarely does
    shapes = {"a": (64, 64), "b": (48, 80), "c": (75, 100), "d": (33, 57)}
    paths = []
    for seed, (image_id, (h, w)) in enumerate(shapes.items()):
        paths.append(tmp_path / f"{image_id}.png")
        save_image(natural_image(seed, h, w), paths[-1])
    cutoffs = tuple(float(c) for c in np.geomspace(0.5, 60.0, 16))
    config = SweepConfig(
        mode=mode, cutoffs=cutoffs, images=paths, oracle="unused", ground_truth="unused"
    )
    exports = tmp_path / "exports"
    exports.mkdir()
    branch = spectral.BRANCHES.index(mode)
    differing = total = count = 0
    images = map(read_image, paths)
    for path in sweep._exports(config, list(shapes), images, exports):
        count += 1
        image = load_image(tmp_path / f"{path.stem}.png")
        save_image(decompose(image, float(path.parent.name))[branch], tmp_path / "want.ppm")
        got, want = (np.frombuffer(p.read_bytes(), np.uint8).astype(int)
                     for p in (path, tmp_path / "want.ppm"))
        assert np.abs(got - want).max() <= 1
        differing += np.count_nonzero(got != want)
        total += got.size
    assert count == len(shapes) * len(cutoffs)
    assert differing <= 1e-4 * total


# the decoder process of a sweep that lists a PNG


def filtered_png(path, seed, h, w):
    """A natural image as a PNG whose rows cycle through all five filters."""
    pixels = np.round(natural_image(seed, h, w) * 255).astype(np.uint8)
    path.write_bytes(build_png(pixels, [r % 5 for r in range(h)]))
    return str(path)


def recorded_exports(monkeypatch):
    """{<cutoff>/<file name>: bytes} of every export the sweep writes."""
    written = {}
    save = sweep.save_image

    def recording_save(image, path):
        save(image, path)
        written[f"{path.parent.name}/{path.name}"] = path.read_bytes()

    monkeypatch.setattr(sweep, "save_image", recording_save)
    return written


@pytest.mark.parametrize("png_at", [0, 1, 2])
def test_a_sweep_with_a_png_matches_decoding_each_image_with_load_image(
    tmp_path, monkeypatch, png_at
):
    shapes = [(24, 32), (19, 27), (30, 21)]
    ids = ["a", "b", "c"]
    paths = []
    for seed, (image_id, (h, w)) in enumerate(zip(ids, shapes)):
        if seed == png_at:
            paths.append(filtered_png(tmp_path / f"{image_id}.png", seed, h, w))
        else:
            paths.append(tmp_path / f"{image_id}.ppm")
            save_image(natural_image(seed, h, w), paths[-1])
    # the same pixels as PPM files: a sweep of these decodes each in the parent
    twins = tmp_path / "twins"
    twins.mkdir()
    for image_id, path in zip(ids, paths):
        save_image(load_image(path), twins / f"{image_id}.ppm")
    gt = write_jsonl(
        tmp_path / "gt.jsonl", [{"id": i, "ground_truth": ["dog"]} for i in ids]
    )
    config = SweepConfig(
        mode="high",
        cutoffs=(0.5, 2, 8),
        images=paths,
        oracle=mock_command(
            "--mode", "energy", "--threshold", "0.003", "--ground-truth", gt
        ),
        ground_truth=gt,
    )
    twin_config = dataclasses.replace(
        config, images=[str(twins / f"{i}.ppm") for i in ids]
    )
    written = recorded_exports(monkeypatch)
    csv = run_sweep(config).to_csv()
    exports = dict(written)
    written.clear()
    assert run_sweep(twin_config).to_csv() == csv
    assert written == exports
    # and each export is the one read_image's pixels give
    want = tmp_path / "want"
    want.mkdir()
    for path in sweep._exports(config, ids, map(read_image, paths), want):
        assert exports[f"{path.parent.name}/{path.name}"] == path.read_bytes()
    assert len(exports) == 9
    # the rates differ by cutoff, so a swapped image would show in the CSV
    assert len({line.split(",", 1)[1] for line in csv.splitlines()[1:]}) > 1


def fork_decoders(monkeypatch, n):
    """Have a sweep that lists a PNG see n usable CPUs, whatever the
    machine's count: it forks n decoders, or one per image if fewer."""
    monkeypatch.setattr(sweep, "usable_cpus", lambda: n)


def recorded_decoders(monkeypatch):
    """The list that the decoder processes of each sweep are put in, in
    order, as the sweep takes its first image."""
    decoders = []
    received = sweep._received

    def recording(paths, forked, pipes):
        decoders[:] = forked
        return received(paths, forked, pipes)

    monkeypatch.setattr(sweep, "_received", recording)
    return decoders


def counted_forks(monkeypatch):
    forks = []
    fork = os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def test_a_ppm_only_sweep_forks_nothing(tmp_path, monkeypatch):
    paths = small_images(tmp_path, ["a", "b"])
    gt = write_jsonl(
        tmp_path / "gt.jsonl",
        [{"id": "a", "ground_truth": ["dog"]}, {"id": "b", "ground_truth": []}],
    )
    config = SweepConfig(
        mode="low",
        cutoffs=(1, 5),
        images=paths,
        oracle=mock_command("--mode", "gt", "--ground-truth", gt),
        ground_truth=gt,
    )
    forks = counted_forks(monkeypatch)
    run_sweep(config)
    assert forks == []
    # the count sees the decoders' forks: one per usable CPU, up to one per
    # image, in a sweep that lists a PNG
    png = filtered_png(tmp_path / "b.png", 1, 16, 16)
    for cpus, n in [(1, 1), (2, 2), (3, 2)]:
        fork_decoders(monkeypatch, cpus)
        forks.clear()
        run_sweep(dataclasses.replace(config, images=[paths[0], png]))
        assert forks == [1] * n


def timed_closes(monkeypatch):
    """(oracle, seconds) for each CaptionOracle.close()."""
    closes = []
    close = CaptionOracle.close

    def timed_close(self):
        start = time.monotonic()
        try:
            close(self)
        finally:
            closes.append((self, time.monotonic() - start))

    monkeypatch.setattr(CaptionOracle, "close", timed_close)
    return closes


def test_a_png_sweeps_oracle_exits_by_itself(tmp_path, monkeypatch):
    # a decoder forked after the oracle would hold the oracle's stdin open:
    # the oracle would never see EOF, and close() would kill it at 5 s
    ids = ["a", "b", "c"]
    paths = [filtered_png(tmp_path / f"{i}.png", seed, 16, 20) for seed, i in enumerate(ids)]
    gt = write_jsonl(
        tmp_path / "gt.jsonl", [{"id": i, "ground_truth": ["dog"]} for i in ids]
    )
    closes = timed_closes(monkeypatch)
    fork_decoders(monkeypatch, 2)
    config = SweepConfig(
        mode="low",
        cutoffs=(1, 5),
        images=paths,
        oracle=mock_command("--mode", "gt", "--ground-truth", gt),
        ground_truth=gt,
    )
    assert run_sweep(config).to_csv() == (
        "cutoff,chair_i,chair_s,n\n"
        "1,0.000000,0.000000,3\n"
        "5,0.000000,0.000000,3\n"
    )
    [(oracle, seconds)] = closes
    assert oracle._proc.returncode == 0
    assert seconds < 2.0


def recorded_sends(monkeypatch):
    sent = []
    send = CaptionOracle._send

    def recording_send(self, request_id, image_path):
        sent.append(request_id)
        send(self, request_id, image_path)

    monkeypatch.setattr(CaptionOracle, "_send", recording_send)
    return sent


def corrupt_png(path):
    blob = bytearray(Path(filtered_png(path, 1, 16, 16)).read_bytes())
    blob[-1] ^= 0xFF  # corrupt the IEND CRC
    path.write_bytes(bytes(blob))


@pytest.mark.parametrize(
    "name, corrupt, error",
    [
        ("b.png", corrupt_png, "PNG chunk b'IEND' fails its checksum"),
        # a PPM in a sweep that lists a PNG is decoded in the decoder too
        ("b.ppm", lambda path: path.write_bytes(b"P6\n16 16\n255\n" + bytes(10)),
         "PPM pixel data truncated"),
    ],
    ids=["png", "ppm"],
)
def test_a_corrupt_png_after_a_good_one_fails_in_its_turn(
    tmp_path, monkeypatch, capsys, name, corrupt, error
):
    good = filtered_png(tmp_path / "a.png", 0, 16, 16)
    bad = tmp_path / name
    corrupt(bad)
    gt = write_jsonl(
        tmp_path / "gt.jsonl",
        [{"id": "a", "ground_truth": ["dog"]}, {"id": "b", "ground_truth": []}],
    )
    sent = recorded_sends(monkeypatch)
    config_path = tmp_path / "sweep.json"
    config_path.write_text(json.dumps({
        "mode": "low",
        "cutoffs": [1, 5],
        "images": [good, str(bad)],
        "oracle": mock_command("--mode", "gt", "--ground-truth", gt),
        "ground_truth": gt,
    }))
    # with two decoders, b is the second decoder's
    for n in (1, 2):
        fork_decoders(monkeypatch, n)
        sent.clear()
        assert main(["sweep", "--config", str(config_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {bad}: {error}" in captured.err
        # the error came in b's turn: a was exported and its requests sent
        assert sent == ["1/a", "5/a"]


def stalled_decoder(monkeypatch, after=None, seconds=0.0, log=None):
    """Patch read_image before the sweep forks its decoders, which inherit
    the patch: each decoder reads `after` images, then sleeps `seconds`
    before it reads the next. With `log`, each read first appends its path
    to that file."""
    read = sweep.read_image
    reads = []

    def stalling_read(path):
        if len(reads) == after:
            time.sleep(seconds)
        reads.append(path)
        if log is not None:
            with open(log, "a") as fh:
                fh.write(f"{path}\n")
        return read(path)

    monkeypatch.setattr(sweep, "read_image", stalling_read)


class Hung(Exception):
    pass


def test_a_killed_decoder_fails_the_sweep_within_a_second(tmp_path, monkeypatch, capsys):
    ids = [f"img{i}" for i in range(6)]
    paths = [filtered_png(tmp_path / f"{i}.png", seed, 16, 16) for seed, i in enumerate(ids)]
    gt = write_jsonl(
        tmp_path / "gt.jsonl", [{"id": i, "ground_truth": ["dog"]} for i in ids]
    )
    # each decoder sends its first image, then sleeps until it is killed
    stalled_decoder(monkeypatch, after=1, seconds=60.0)
    decoders = recorded_decoders(monkeypatch)
    killed = []
    save = sweep.save_image

    def killing_save(image, path):
        if not killed:
            os.kill(decoders[0].pid, signal.SIGKILL)
            killed.append(time.monotonic())
        save(image, path)

    monkeypatch.setattr(sweep, "save_image", killing_save)
    config_path = tmp_path / "sweep.json"
    config_path.write_text(json.dumps({
        "mode": "low",
        "cutoffs": [1, 5],
        "images": paths,
        "oracle": mock_command("--mode", "gt", "--ground-truth", gt),
        "ground_truth": gt,
    }))

    def hung(*_):
        raise Hung("the sweep did not fail within 10 s of the kill")

    for n in (1, 2):
        fork_decoders(monkeypatch, n)
        killed.clear()
        previous = signal.signal(signal.SIGALRM, hung)
        signal.setitimer(signal.ITIMER_REAL, 10.0)
        try:
            code = main(["sweep", "--config", str(config_path)])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - killed[0] < 1.0
        assert code == 2
        err = capsys.readouterr().err
        # the first image whose pixels the killed decoder had not sent: it
        # decodes img0, img1, ... alone, and img0, img2, ... of two
        assert re.search(
            rf"img{n}\.png: the image decoder process died \(exit code -9\)", err
        ), err


def test_the_decoder_ignores_sigint(tmp_path, monkeypatch):
    # ^C reaches the whole process group; the parent alone decides to stop
    ids = [f"img{i}" for i in range(4)]
    paths = [filtered_png(tmp_path / f"{i}.png", seed, 16, 16) for seed, i in enumerate(ids)]
    gt = write_jsonl(
        tmp_path / "gt.jsonl", [{"id": i, "ground_truth": ["dog"]} for i in ids]
    )
    # each decoder sends its first image and is still alive, asleep, at the
    # first export
    log = tmp_path / "reads.log"
    stalled_decoder(monkeypatch, after=1, seconds=2.0, log=log)
    fork_decoders(monkeypatch, 2)
    decoders = recorded_decoders(monkeypatch)
    save = sweep.save_image
    interrupted = []

    def interrupting_save(image, path):
        if not interrupted:
            # once each decoder has read an image, its SIGINT is ignored
            deadline = time.monotonic() + 10.0
            while len(log.read_text().splitlines()) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            for decoder in decoders:
                os.kill(decoder.pid, signal.SIGINT)
                interrupted.append(decoder.pid)
            time.sleep(0.2)
        save(image, path)

    monkeypatch.setattr(sweep, "save_image", interrupting_save)
    config = SweepConfig(
        mode="low",
        cutoffs=(1, 5),
        images=paths,
        oracle=mock_command("--mode", "gt", "--ground-truth", gt),
        ground_truth=gt,
    )
    assert run_sweep(config).to_csv().splitlines()[1:] == [
        "1,0.000000,0.000000,4", "5,0.000000,0.000000,4"
    ]
    assert len(interrupted) == 2


# argv: a config. Every process forked in the sweep's process sends itself
# SIGINT as soon as it exists, before any code of its own runs; the sweep
# sees two CPUs, so it forks two decoders. A decoder that takes the signal
# there raises KeyboardInterrupt in the hook, which reports it on stderr; a
# moment later, the same signal would kill the decoder.
FORK_INTERRUPTED_SWEEP = """
import os, signal, sys
from freqfuse.harness import sweep
from freqfuse.harness.cli import main
os.register_at_fork(after_in_child=lambda: os.kill(os.getpid(), signal.SIGINT))
sweep.usable_cpus = lambda: 2
sys.exit(main(["sweep", "--config", sys.argv[1]]))
"""


def test_a_sigint_right_after_a_decoders_fork_is_ignored(tmp_path):
    # at-fork hooks cannot be removed, so the sweep runs in a process of its own
    config, csv = png_sweep(tmp_path, 4, 16, 16)
    config_path = tmp_path / "sweep.json"
    config_path.write_text(json.dumps(dataclasses.asdict(config)))
    proc = subprocess.run(
        [sys.executable, "-c", FORK_INTERRUPTED_SWEEP, str(config_path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == csv


def png_sweep(tmp_path, n, h, w):
    """A low-pass sweep of n natural PNGs of h x w at cutoffs 1 and 5, the
    gt mock naming a dog in every one: each row reads 0, 0, n."""
    ids = [f"img{i}" for i in range(n)]
    paths = [filtered_png(tmp_path / f"{i}.png", seed, h, w) for seed, i in enumerate(ids)]
    gt = write_jsonl(
        tmp_path / "gt.jsonl", [{"id": i, "ground_truth": ["dog"]} for i in ids]
    )
    config = SweepConfig(
        mode="low",
        cutoffs=(1, 5),
        images=paths,
        oracle=mock_command("--mode", "gt", "--ground-truth", gt),
        ground_truth=gt,
    )
    csv = f"cutoff,chair_i,chair_s,n\n1,0.000000,0.000000,{n}\n5,0.000000,0.000000,{n}\n"
    return config, csv


def exit_before_the_first_image(monkeypatch):
    """The sweep takes its first image only once every decoder has exited.
    Returns the list that the decoders' exit codes are appended to."""
    exit_codes = []
    received = sweep._received

    def received_after_the_exit(paths, decoders, pipes):
        for decoder in decoders:
            decoder.join(10.0)
            exit_codes.append(decoder.exitcode)
        yield from received(paths, decoders, pipes)

    monkeypatch.setattr(sweep, "_received", received_after_the_exit)
    return exit_codes


def test_a_decoder_that_has_exited_leaves_every_image_in_the_pipe(tmp_path, monkeypatch):
    # EOF after the last image is no error
    config, csv = png_sweep(tmp_path, 3, 16, 16)
    exit_codes = exit_before_the_first_image(monkeypatch)
    for n in (1, 2):
        fork_decoders(monkeypatch, n)
        exit_codes.clear()
        assert run_sweep(config).to_csv() == csv
        assert exit_codes == [0] * n


def test_the_decoder_stops_at_its_first_error(tmp_path, monkeypatch):
    config, _ = png_sweep(tmp_path, 4, 16, 16)
    bad = config.images[1]
    Path(bad).write_bytes(b"GIF89a")
    log = tmp_path / "reads.log"
    stalled_decoder(monkeypatch, log=log)
    exit_codes = exit_before_the_first_image(monkeypatch)
    # one decoder reads img0 and img1, and stops; of two, the first reads
    # img0 and img2, and the second img1, and stops before img3
    for n, reads in [(1, [0, 1]), (2, [0, 1, 2])]:
        fork_decoders(monkeypatch, n)
        exit_codes.clear()
        log.write_text("")
        with pytest.raises(DataFormatError, match=exactly(f"{bad}: not a P6 PPM or PNG file")):
            run_sweep(config)
        assert exit_codes == [0] * n
        assert sorted(log.read_text().splitlines()) == [config.images[i] for i in reads]


def test_the_decoder_runs_ahead_only_as_far_as_the_pipe_holds(tmp_path, monkeypatch):
    h, w = 224, 224
    config, csv = png_sweep(tmp_path, 16, h, w)
    log = tmp_path / "reads.log"
    stalled_decoder(monkeypatch, log=log)
    counts = []
    save = sweep.save_image

    def stalled_save(image, path):
        if not counts:
            # before the first export, until the decoders have read nothing
            # for half a second
            reads = None
            for _ in range(40):
                time.sleep(0.5)
                now = len(log.read_text().splitlines())
                if now == reads:
                    break
                reads = now
            counts.append(reads)
        save(image, path)

    monkeypatch.setattr(sweep, "save_image", stalled_save)
    for n in (1, 2):
        fork_decoders(monkeypatch, n)
        counts.clear()
        log.write_text("")
        assert run_sweep(config).to_csv() == csv
        # the image taken, and per decoder the images its pipe holds and one
        # being written
        limit = 1 + n * (forks.PIPE_BYTES // (3 * h * w) + 1)
        assert counts[0] <= limit < len(config.images)
        assert len(log.read_text().splitlines()) == len(config.images)


def test_a_child_sends_one_message_per_item_or_its_first_error(tmp_path):
    from_child, sending = multiprocessing.Pipe(duplex=False)
    previous = signal.getsignal(signal.SIGINT)
    try:
        assert forks._child(lambda x: 10 // x, [5, 2, 0, 1], sending, []) is None
    finally:
        signal.signal(signal.SIGINT, previous)
        sending.close()
    assert [from_child.recv(), from_child.recv()] == [2, 5]
    assert isinstance(from_child.recv(), ZeroDivisionError)
    with pytest.raises(EOFError):
        from_child.recv()
    from_child.close()


def test_the_decoder_returns_quietly_when_the_parent_is_gone(tmp_path):
    path = filtered_png(tmp_path / "a.png", 0, 16, 16)
    from_decoder, results = multiprocessing.Pipe(duplex=False)
    from_decoder.close()
    previous = signal.getsignal(signal.SIGINT)
    try:
        assert forks._child(sweep.read_image, [path], results, [from_decoder]) is None
    finally:
        signal.signal(signal.SIGINT, previous)
        results.close()


# argv: a config, a log and a decoder count n. Each of the sweep's decoders
# appends each path it reads to the log, and reads its second image only
# once the sweep's own process is gone; that process dies at the first
# export of img<n - 1>, once it has taken each decoder's first image.
DYING_SWEEP = """
import os, signal, sys, time
from freqfuse.harness import sweep
from freqfuse.harness.cli import main
read, save = sweep.read_image, sweep.save_image
n = int(sys.argv[3])
sweep_pid = os.getpid()
reads = []

def slow_read(path):
    with open(sys.argv[2], "a") as log:
        log.write(path + "\\n")
    deadline = time.monotonic() + 10.0
    while reads and os.getppid() == sweep_pid and time.monotonic() < deadline:
        time.sleep(0.01)
    reads.append(path)
    return read(path)

def dying_save(image, path):
    if path.stem == f"img{n - 1}":
        os.kill(os.getpid(), signal.SIGKILL)
    save(image, path)

sweep.read_image, sweep.save_image = slow_read, dying_save
sweep.usable_cpus = lambda: n
main(["sweep", "--config", sys.argv[1]])
"""


def test_a_decoder_whose_parent_dies_stops_quietly(tmp_path):
    config, _ = png_sweep(tmp_path, 6, 16, 16)
    # an oracle that answers nothing: a reply written after the sweep's
    # process died would be the captioner's broken pipe, on stderr
    config = dataclasses.replace(
        config, oracle=[sys.executable, "-c", "import sys; sys.stdin.read()"]
    )
    config_path = tmp_path / "sweep.json"
    config_path.write_text(json.dumps(dataclasses.asdict(config)))
    log = tmp_path / "reads.log"
    for n in (1, 2):
        log.write_text("")
        # the decoders and the oracle hold stderr too: it ends when they exit
        proc = subprocess.run(
            [sys.executable, "-c", DYING_SWEEP, str(config_path), str(log), str(n)],
            capture_output=True,
            timeout=30,
        )
        assert proc.returncode == -signal.SIGKILL
        assert proc.stderr == b""
        # each decoder stopped at the first image it could not send, its
        # second: the pipe of each is broken once the sweep's process is gone
        assert sorted(log.read_text().splitlines()) == list(config.images[: 2 * n])


def slow_mock(delay, *extra):
    """The bundled mock, answering only after `delay` seconds of start-up."""
    script = (
        "import sys, time\n"
        f"time.sleep({delay})\n"
        "from freqfuse.harness.cli import main\n"
        f"sys.exit(main(['mock-oracle', *{list(extra)!r}]))\n"
    )
    return [sys.executable, "-c", script]


# logs each request line to argv[1], then names a dog at cutoff 5 only
LOGGING_ORACLE = """
import json, sys
with open(sys.argv[1], "a") as log:
    for line in sys.stdin:
        log.write(line)
        log.flush()
        rid = json.loads(line)["id"]
        caption = "The image shows a dog." if rid.startswith("5/") else ""
        print(json.dumps({"id": rid, "caption": caption}), flush=True)
"""


def test_later_cutoffs_are_exported_while_the_oracle_answers(tmp_path, monkeypatch):
    paths = small_images(tmp_path, ["a", "b"])
    gt = write_jsonl(
        tmp_path / "gt.jsonl",
        [{"id": "a", "ground_truth": ["dog"]}, {"id": "b", "ground_truth": []}],
    )
    log = tmp_path / "requests.jsonl"
    exports, batches, seen_before_last_export = [], [], []
    save, caption_batch = sweep.save_image, CaptionOracle.caption_batch

    def recording_save(image, path):
        if len(exports) == 5:
            # the last export: wait for the child to have read a request
            deadline = time.monotonic() + 10
            while not (log.exists() and log.read_text()) and time.monotonic() < deadline:
                time.sleep(0.01)
            seen_before_last_export.extend(log.read_text().splitlines())
        save(image, path)
        exports.append(f"{path.parent.name}/{path.name}")

    def recording_batch(self, *args, **kwargs):
        batches.append(1)
        return caption_batch(self, *args, **kwargs)

    monkeypatch.setattr(sweep, "save_image", recording_save)
    monkeypatch.setattr(CaptionOracle, "caption_batch", recording_batch)
    config = SweepConfig(
        mode="high",
        cutoffs=(1, 5, 30),
        images=paths,
        oracle=[sys.executable, "-c", LOGGING_ORACLE, str(log)],
        ground_truth=gt,
    )
    csv = run_sweep(config).to_csv()
    # image-major: each image at every cutoff before the next image
    assert exports == ["1/a.ppm", "5/a.ppm", "30/a.ppm", "1/b.ppm", "5/b.ppm", "30/b.ppm"]
    # one batch for the whole sweep, its requests in the same order, each
    # id the export's <folder>/<stem>
    assert batches == [1]
    requests = [json.loads(line) for line in log.read_text().splitlines()]
    assert [r["id"] for r in requests] == ["1/a", "5/a", "30/a", "1/b", "5/b", "30/b"]
    for r in requests:
        image = Path(r["image"])
        assert r["id"] == f"{image.parent.name}/{image.stem}"
    # the child read the first request before the last export was written
    assert seen_before_last_export[:1] == [log.read_text().splitlines()[0]]
    # rows are scored per cutoff: only cutoff 5's captions name the dog
    assert csv == (
        "cutoff,chair_i,chair_s,n\n"
        "1,0.000000,0.000000,2\n"
        "5,0.500000,0.500000,2\n"
        "30,0.000000,0.000000,2\n"
    )


def test_exports_of_later_cutoffs_never_replace_unread_ones(tmp_path):
    # named "<id>-<cutoff>.ppm", x at 1e-100 and x-1e at 100 would share
    # one file, and the dark later export would replace the bright earlier
    # one before the oracle read it
    paths = []
    for i, image_id in enumerate(["x", "x-1e"]):
        path = tmp_path / f"{image_id}.ppm"
        save_image(random_image(i, 16, 16), path)
        paths.append(str(path))
    gt = write_jsonl(
        tmp_path / "gt.jsonl",
        [{"id": "x", "ground_truth": ["dog"]}, {"id": "x-1e", "ground_truth": ["dog"]}],
    )
    config = SweepConfig(
        mode="high",
        cutoffs=(1e-100, 100),
        images=paths,
        oracle=slow_mock(
            0.3, "--mode", "energy", "--threshold", "0.01", "--ground-truth", gt
        ),
        ground_truth=gt,
    )
    # the high branch keeps all the energy at the lowest cutoff, none at 100
    assert run_sweep(config).to_csv() == (
        "cutoff,chair_i,chair_s,n\n"
        "1e-100,0.000000,0.000000,2\n"
        "100,1.000000,1.000000,2\n"
    )


def test_export_failure_while_running_ahead_is_a_data_error(tmp_path, monkeypatch, capsys):
    paths = small_images(tmp_path, ["a", "b"])
    gt = write_jsonl(
        tmp_path / "gt.jsonl",
        [{"id": "a", "ground_truth": ["dog"]}, {"id": "b", "ground_truth": []}],
    )
    saves, batches, oracles = [], [], []
    save, caption_batch, close = (
        sweep.save_image, CaptionOracle.caption_batch, CaptionOracle.close
    )

    def failing_save(image, path):
        saves.append(f"{path.parent.name}/{path.name}")
        if len(saves) == 5:
            raise OSError(28, "No space left on device", str(path))
        save(image, path)

    def recording_batch(self, *args, **kwargs):
        batches.append(1)
        return caption_batch(self, *args, **kwargs)

    def recording_close(self):
        oracles.append(self)
        close(self)

    monkeypatch.setattr(sweep, "save_image", failing_save)
    monkeypatch.setattr(CaptionOracle, "caption_batch", recording_batch)
    monkeypatch.setattr(CaptionOracle, "close", recording_close)
    config_path = tmp_path / "sweep.json"
    config_path.write_text(json.dumps({
        "mode": "high",
        "cutoffs": [1, 5, 30],
        "images": paths,
        "oracle": slow_mock(0.3, "--mode", "gt", "--ground-truth", gt),
        "ground_truth": gt,
    }))
    assert main(["sweep", "--config", str(config_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "No space left on device" in captured.err
    # the sweep's one batch had sent four requests, still unanswered
    # behind the mock's slow start, when b's cutoff-5 export failed
    assert saves == ["1/a.ppm", "5/a.ppm", "30/a.ppm", "1/b.ppm", "5/b.ppm"]
    assert batches == [1]
    # the child was waited for and both of its pipes are closed
    [oracle] = oracles
    assert oracle._proc.returncode is not None
    assert oracle._proc.stdin.closed and oracle._proc.stdout.closed


def test_unreadable_image_after_a_good_one_is_a_data_error(tmp_path, monkeypatch, capsys):
    # the oracle starts before the first image loads, so this fails with
    # the child running: it must still be waited for
    paths = small_images(tmp_path, ["a"])
    bad = tmp_path / "b.ppm"
    bad.write_bytes(b"P6\n16 16\n255\n" + bytes(10))
    paths.append(str(bad))
    gt = write_jsonl(
        tmp_path / "gt.jsonl",
        [{"id": "a", "ground_truth": ["dog"]}, {"id": "b", "ground_truth": []}],
    )
    oracles = []
    close = CaptionOracle.close

    def recording_close(self):
        oracles.append(self)
        close(self)

    monkeypatch.setattr(CaptionOracle, "close", recording_close)
    config_path = tmp_path / "sweep.json"
    config_path.write_text(json.dumps({
        "mode": "low",
        "cutoffs": [1, 5],
        "images": paths,
        "oracle": mock_command("--mode", "gt", "--ground-truth", gt),
        "ground_truth": gt,
    }))
    assert main(["sweep", "--config", str(config_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{bad}: PPM pixel data truncated" in captured.err
    [oracle] = oracles
    assert oracle._proc.returncode is not None
    assert oracle._proc.stdin.closed and oracle._proc.stdout.closed


def gt_sweep_peak(tmp_path, count):
    """traced_peak of one gt-mock sweep over count 128x128 images."""
    directory = tmp_path / str(count)
    directory.mkdir()
    ids = [f"img{i}" for i in range(count)]
    gt = write_jsonl(
        directory / "gt.jsonl", [{"id": i, "ground_truth": ["dog"]} for i in ids]
    )
    config = SweepConfig(
        mode="low",
        cutoffs=(1, 5, 30),
        images=small_images(directory, ids, size=128),
        oracle=mock_command("--mode", "gt", "--ground-truth", gt),
        ground_truth=gt,
    )
    return traced_peak(lambda: run_sweep(config))


def test_sweep_memory_does_not_grow_with_the_image_count(tmp_path):
    # one spectrum alive at a time: 8 images peak within one half spectrum
    # of 2 images
    spectrum_bytes = 128 * (128 // 2 + 1) * 3 * 16
    assert gt_sweep_peak(tmp_path, 8) - gt_sweep_peak(tmp_path, 2) < spectrum_bytes


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
        rows=(SweepRow(cutoff=1.0, chair_i=1 / 3, chair_s=0.5, n=6),),
    )
    assert result.to_csv() == "cutoff,chair_i,chair_s,n\n1,0.333333,0.500000,6\n"
