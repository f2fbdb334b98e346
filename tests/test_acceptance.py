"""Acceptance gate: every headline guarantee, one pass/fail line each.

Each test records its verdict in VERDICTS; the conftest hook prints them
after the run so fd capture cannot eat them. Tolerances and instance
counts here are the package's published contract; loosening them is not
an option.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from freqfuse.fusion import (
    FusionParams,
    fit_demo,
    fuse_backward,
    fuse_sequence,
    fuse_token,
    init_params,
)
from freqfuse.harness.sweep import SweepConfig, run_sweep
from freqfuse.harness.imageio import save_image
from freqfuse.metrics import CaptionRecord, PopeRecord, chair, pope_f1
from freqfuse.spectral import (
    AttenuationSpec,
    decompose,
    decompose_attenuated,
    gaussian_masks,
    image_spectrum,
)
from oracles import central_difference, naive_dft2d, recount_chair, recount_pope
from test_sweep import energy_fixture, mock_command, small_images
from util import write_jsonl


VERDICTS = []


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        VERDICTS.append(f"[FAIL] {name}")
        raise
    VERDICTS.append(f"[PASS] {name}")


def test_fft_oracle_equivalence():
    with criterion("fft oracle equivalence (200 planes, <1e-9, <10s)"):
        rng = np.random.default_rng(2024)
        start = time.perf_counter()
        for _ in range(200):
            h = int(rng.integers(1, 17))
            w = int(rng.integers(1, 17))
            planes = rng.uniform(size=(3, h, w))
            half = image_spectrum(np.stack(planes, axis=2)).half
            for c, plane in enumerate(planes):
                want = naive_dft2d(plane)[:, : w // 2 + 1]
                assert np.abs(half[:, :, c] - want).max() < 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_reconstruction_identity():
    with criterion("reconstruction identity (50 images x 4 cutoffs, <1e-9)"):
        rng = np.random.default_rng(77)
        required = [(17, 23), (32, 32), (64, 48)]
        sizes = list(required)
        while len(sizes) < 50:
            sizes.append((int(rng.integers(1, 33)), int(rng.integers(1, 33))))
        cutoffs = (1.0, 5.0, 30.0, 100.0)
        for h, w in sizes:
            image = rng.uniform(size=(h, w, 3))
            for d0 in cutoffs:
                low_mask, high_mask = gaussian_masks(h, w, d0)
                assert np.all(low_mask + high_mask == 1.0)
                low, high = decompose(image, d0)
                assert np.abs(low + high - image).max() < 1e-9


def test_attenuation_laws():
    with criterion("attenuation laws (gamma 0 / constant 1 / constant 0.5)"):
        rng = np.random.default_rng(78)
        for h, w in [(8, 8), (9, 5), (16, 12)]:
            image = rng.uniform(size=(h, w, 3))
            low, high = decompose_attenuated(image, 30.0, AttenuationSpec(gamma=0.0))
            assert np.all(low == 0.0) and np.all(high == 0.0)
            plain_low, plain_high = decompose(image, 30.0)
            one = AttenuationSpec(gamma=1.0, mode="constant")
            low, high = decompose_attenuated(image, 30.0, one)
            assert np.abs(low - plain_low).max() < 1e-12
            assert np.abs(high - plain_high).max() < 1e-12
            half = AttenuationSpec(gamma=0.5, mode="constant")
            low, high = decompose_attenuated(image, 30.0, half)
            assert np.abs(low - 0.5 * plain_low).max() < 1e-9
            assert np.abs(high - 0.5 * plain_high).max() < 1e-9


def _finite_difference_instance(rng):
    dim = int(rng.integers(1, 9))
    length = int(rng.integers(1, 5))
    params = init_params(dim, int(rng.integers(0, 2**31)))
    v_o, v_l, v_h, upstream = (rng.normal(size=(length, dim)) for _ in range(4))
    grads = fuse_backward(v_o, v_l, v_h, params, upstream)

    def objective_replacing(name):
        def fn(t):
            mats = {"w_q": params.w_q, "w_k": params.w_k, "w_v": params.w_v}
            seqs = {"v_o": v_o, "v_l": v_l, "v_h": v_h}
            (mats if name in mats else seqs)[name] = t
            out = fuse_sequence(seqs["v_o"], seqs["v_l"], seqs["v_h"],
                                FusionParams(**mats))
            return float((upstream * out).sum())

        return fn

    pairs = [
        ("w_q", params.w_q, grads.d_w_q),
        ("w_k", params.w_k, grads.d_w_k),
        ("w_v", params.w_v, grads.d_w_v),
        ("v_o", v_o, grads.d_v_o),
        ("v_l", v_l, grads.d_v_l),
        ("v_h", v_h, grads.d_v_h),
    ]
    for name, tensor, analytic in pairs:
        numeric = central_difference(objective_replacing(name), tensor.copy())
        err = np.abs(numeric - analytic)
        denom = np.maximum(np.abs(numeric), np.abs(analytic))
        bad = (err > 1e-7) & (err > 1e-4 * denom)
        assert not bad.any(), f"{name} max err {err.max():g} (dim={dim}, L={length})"


def test_gradient_suite():
    with criterion("gradient suite (100 instances, rel<1e-4, <30s)"):
        rng = np.random.default_rng(13)
        start = time.perf_counter()
        for _ in range(100):
            _finite_difference_instance(rng)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_zero_perturbation_identity():
    with criterion("zero-perturbation identity (1000 cases, exact)"):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            dim = int(rng.integers(1, 9))
            params = init_params(dim, int(rng.integers(0, 2**31)))
            v_o = rng.normal(size=dim)
            fused, trace = fuse_token(v_o, np.zeros(dim), np.zeros(dim), params)
            assert np.array_equal(fused, v_o)
            assert np.array_equal(trace.weights, [0.5, 0.5])


def test_metrics_fixtures():
    with criterion("metrics fixtures (chair_i=1/3, pope F1=2/3, recounts)"):
        fixture = [CaptionRecord("a", {"dog", "cat", "car"}, {"dog", "car"})]
        report = chair(fixture)
        assert report.chair_i == pytest.approx(1 / 3)
        assert report.chair_s == pytest.approx(1.0)
        pope_fixture = [
            PopeRecord("1", "yes", "yes"),
            PopeRecord("2", "yes", "yes"),
            PopeRecord("3", "yes", "no"),
            PopeRecord("4", "no", "yes"),
            PopeRecord("5", "no", "no"),
            PopeRecord("6", "no", "no"),
        ]
        assert pope_f1(pope_fixture)[2] == pytest.approx(2 / 3)

        import random

        classes = ["dog", "cat", "car", "person", "boat", "chair", "bird"]
        rng = random.Random(50)
        records = []
        for i in range(50):
            mentioned = frozenset(rng.sample(classes, rng.randint(0, 5)))
            gt = frozenset(rng.sample(classes, rng.randint(0, 5)))
            records.append(CaptionRecord(str(i), mentioned, gt))
        report = chair(records)
        chair_s, chair_i, precision, recall, f1 = recount_chair(
            [(r.mentioned, r.ground_truth) for r in records]
        )
        assert report.chair_s == pytest.approx(chair_s)
        assert report.chair_i == pytest.approx(chair_i)
        assert report.precision == pytest.approx(precision)
        assert report.recall == pytest.approx(recall)
        assert report.f1 == pytest.approx(f1)

        pairs = [
            (rng.choice(["yes", "no"]), rng.choice(["yes", "no"])) for _ in range(50)
        ]
        pope_records = [PopeRecord(str(i), p, g) for i, (p, g) in enumerate(pairs)]
        assert pope_f1(pope_records) == pytest.approx(recount_pope(pairs))


def test_sweep_mock_fixtures(tmp_path):
    with criterion("sweep mocks (all-zero, all-one, non-decreasing energy)"):
        paths = small_images(tmp_path, ["a", "b"])
        gt = write_jsonl(
            tmp_path / "gt.jsonl",
            [{"id": "a", "ground_truth": ["dog"]}, {"id": "b", "ground_truth": ["cat"]}],
        )
        correct = run_sweep(
            SweepConfig(
                mode="high",
                cutoffs=(5, 30),
                images=paths,
                oracle=mock_command("--mode", "gt", "--ground-truth", gt),
                ground_truth=gt,
            )
        )
        assert all(row.chair_i == 0.0 and row.chair_s == 0.0 for row in correct.rows)

        wrong = run_sweep(
            SweepConfig(
                mode="high",
                cutoffs=(5, 30),
                images=paths,
                oracle=mock_command("--mode", "fixed"),
                ground_truth=gt,
            )
        )
        assert all(row.chair_i == 1.0 and row.chair_s == 1.0 for row in wrong.rows)

        smooth_paths, smooth_gt = energy_fixture(tmp_path)
        energy = run_sweep(
            SweepConfig(
                mode="high",
                cutoffs=(1, 30, 60, 120),
                images=smooth_paths,
                oracle=mock_command(
                    "--mode", "energy", "--threshold", "0.01",
                    "--ground-truth", smooth_gt,
                ),
                ground_truth=smooth_gt,
            )
        )
        rates = [row.chair_i for row in energy.rows]
        assert all(b >= a for a, b in zip(rates, rates[1:])), rates
        assert rates[0] == 0.0 and rates[-1] == 1.0


def test_sweep_determinism(tmp_path):
    with criterion("sweep determinism (byte-identical CSV)"):
        paths = small_images(tmp_path, ["a"])
        gt = write_jsonl(tmp_path / "gt.jsonl", [{"id": "a", "ground_truth": ["dog"]}])
        config = SweepConfig(
            mode="low",
            cutoffs=(5, 30),
            images=paths,
            oracle=mock_command("--mode", "gt", "--ground-truth", gt),
            ground_truth=gt,
        )
        first = run_sweep(config).to_csv().encode()
        second = run_sweep(config).to_csv().encode()
        assert first == second


def test_fit_demo_reduces_loss():
    with criterion("fit_demo reduces MSE within 500 steps"):
        rng = np.random.default_rng(60)
        teacher = init_params(2, 600)
        v_o, v_l, v_h = (rng.normal(size=(3, 2)) for _ in range(3))
        target = fuse_sequence(v_o, v_l, v_h, teacher)
        student = init_params(2, 601)
        _, losses = fit_demo([(v_o, v_l, v_h, target)], student, steps=500, lr=0.05)
        assert losses[-1] < losses[0]
