"""The four benchmark workloads.

A workload's `make` builds its inputs in memory from the seed. `setup`
writes the files the program reads, builds the program's own objects and
warms the program up; the runner times it, several times per run. `expect`
computes, once per run and untimed, the answers the checks compare against,
and returns the one-off checks of the run. `round` lists the operations of
one round as (kind, call, check, units): `call` is the timed call into the
program, `check` raises CheckFailed on a wrong result, and `units` divides
the call's time into per-unit time (one caption of a sweep, one step of a
fit). `waits_on_oracle` marks workloads whose calls mostly wait on the
oracle child, so the runner samples machine speed during them.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import numpy as np

import checks
import inputs
from freqfuse import encoder, fusion, metrics, spectral
from freqfuse.harness import cli, formats, imageio


def _rng(seed, stream):
    return np.random.default_rng([seed, stream])


def _cli_sweep(config_path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["sweep", "--config", str(config_path)])
    return code, out.getvalue()


class Sweep:
    """`freqfuse sweep` through the CLI entry point, energy mock oracle."""

    waits_on_oracle = True

    def __init__(self, shapes, cutoffs, mode, fmt):
        self.shapes, self.cutoffs, self.mode, self.fmt = shapes, cutoffs, mode, fmt

    def make(self, seed):
        rng = _rng(seed, 1)
        self.pixels = inputs.image_set(rng, self.shapes)
        self.gts = [inputs.ground_truth(rng) for _ in self.pixels]
        self.blobs = [inputs.encode_png(px, rng) if self.fmt == "png" else inputs.encode_ppm(px)
                      for px in self.pixels]
        branch = 0 if self.mode == "low" else 1
        self.energies = checks.energy_table(self.pixels, self.cutoffs, branch)
        self.threshold = checks.pick_threshold(self.energies, margin=1e-3)

    def setup(self, workdir):
        self.paths = []
        for i, blob in enumerate(self.blobs):
            path = workdir / f"img{i:02d}.{self.fmt}"
            path.write_bytes(blob)
            self.paths.append(path)
        gt_path = workdir / "gt.jsonl"
        gt_path.write_text("".join(
            json.dumps({"id": p.stem, "ground_truth": names}) + "\n"
            for p, (names, _) in zip(self.paths, self.gts)))
        oracle = [sys.executable, "-m", "freqfuse", "mock-oracle", "--mode", "energy",
                  "--threshold", repr(self.threshold), "--ground-truth", str(gt_path)]
        self.config = workdir / "sweep.json"
        self._write_config(self.config, [p.name for p in self.paths], self.cutoffs, oracle)
        warm = workdir / "warm.json"
        self._write_config(warm, [self.paths[0].name], self.cutoffs[:1], oracle)
        code, _ = _cli_sweep(warm)
        if code != 0:
            raise RuntimeError(f"warm-up sweep exited {code}")

    def _write_config(self, path, images, cutoffs, oracle):
        path.write_text(json.dumps({
            "mode": self.mode, "cutoffs": list(cutoffs), "images": images,
            "oracle": oracle, "ground_truth": "gt.jsonl"}))

    def expect(self):
        self.csv = checks.expected_sweep_csv(self.cutoffs, self.energies, self.threshold,
                                             [canon for _, canon in self.gts])
        return [(f"decode {p.name}",
                 lambda p=p, px=px: checks.check_decode(p.name, imageio.load_image(p), px))
                for p, px in zip(self.paths, self.pixels)]

    def round(self, index):
        def check(result):
            code, text = result
            if code != 0:
                raise checks.CheckFailed(f"sweep exited {code}")
            checks.check_sweep_csv(text, self.csv)

        units = len(self.paths) * len(self.cutoffs)
        return [("sweep", lambda: _cli_sweep(self.config), check, units)]

    def detail(self, per_unit_s):
        return {"sweep.captions_per_s": 1.0 / per_unit_s["sweep"]}


class Decompose:
    """In-process decompose at three sizes plus the damped split at 512^2."""

    waits_on_oracle = False

    SIZES = {"224": (224, 224), "512": (512, 512), "375x500": (375, 500)}

    def make(self, seed):
        rng = _rng(seed, 2)
        self.images = {k: px / 255.0 for k, px in
                       zip(self.SIZES, inputs.image_set(rng, self.SIZES.values()))}
        self.small = inputs.natural_image(rng, 12, 10, 0.2, 0.5) / 255.0
        # (cutoff, damping bound, damping seed) per round, cycled; a case
        # that comes round again must reproduce its damped output exactly
        self.cases = [(float(rng.uniform(6.0, 48.0)), float(rng.uniform(0.1, 0.9)),
                       int(rng.integers(2**31))) for _ in range(4)]
        self.digests = {}

    def setup(self, workdir):
        for image in self.images.values():
            spectral.decompose(image, 30.0)
        spectral.decompose_attenuated(self.images["512"], 30.0,
                                      spectral.AttenuationSpec(0.5, seed=1))

    def expect(self):
        oracles = _load_test_oracles()
        cutoff, gamma, seed = self.cases[0]
        img512 = self.images["512"]

        def naive():
            got = spectral.decompose(self.small, 3.0)
            want = oracles.naive_decompose(self.small, 3.0)
            for g, w, tag in zip(got, want, ("low", "high")):
                checks.check_close(f"naive {tag}", g, w, 1e-9)

        def reference(key):
            image = self.images[key]
            got = spectral.decompose(image, cutoff)
            for g, w, tag in zip(got, checks.gaussian_split(image, cutoff), ("low", "high")):
                checks.check_close(f"{key} {tag}", g, w, 1e-12)

        def constant():
            spec = spectral.AttenuationSpec(gamma, seed=0, mode="constant")
            checks.check_scaled("constant gamma", spectral.decompose_attenuated(
                img512, cutoff, spec), spectral.decompose(img512, cutoff), gamma)

        def reproducible():
            spec = spectral.AttenuationSpec(gamma, seed=seed)
            checks.check_identical("damping seed",
                                   spectral.decompose_attenuated(img512, cutoff, spec),
                                   spectral.decompose_attenuated(img512, cutoff, spec))

        return ([("naive_decompose", naive)]
                + [(f"reference {k}", lambda k=k: reference(k)) for k in self.SIZES]
                + [("constant gamma", constant), ("damping seed", reproducible)])

    def round(self, index):
        case = self.cases[index % len(self.cases)]
        cutoff, gamma, seed = case
        ops = []
        for key, image in self.images.items():
            ops.append((f"decompose.{key}",
                        lambda image=image: spectral.decompose(image, cutoff),
                        lambda out, key=key, image=image:
                            checks.check_split_properties(key, image, *out), 1))
        img512 = self.images["512"]

        def damped_check(out):
            digest = hashlib.sha256(out[0].tobytes() + out[1].tobytes()).hexdigest()
            if self.digests.setdefault(case, digest) != digest:
                raise checks.CheckFailed("damping seed did not reproduce its output")
            checks.check_damped("damped 512", *out, img512, cutoff, gamma, seed)

        ops.append(("decompose_attenuated.512",
                    lambda: spectral.decompose_attenuated(
                        img512, cutoff, spectral.AttenuationSpec(gamma, seed=seed)),
                    damped_check, 1))
        return ops

    def detail(self, per_unit_s):
        return {f"{kind}_ms": 1e3 * s for kind, s in per_unit_s.items()}


class FuseEval:
    """Encoder, fusion fit and gradient check, CHAIR over a captions file."""

    waits_on_oracle = False

    PATCH, DIM, SAMPLES, STEPS, LR = 16, 64, 4, 10, 0.05
    CAPTIONS = 20_000
    # gradient_check(8, 4, seed) reports failure on this seed, and on about
    # one seed in 2000, though fuse_backward is right: the worst entry is a
    # gradient of -2.97e-7, just above the 1e-7 floor of the relative test,
    # where rounding in the eps=1e-5 central difference is 2e-4 of it. A
    # seeded gradient check would fail on some runs only, so every round
    # runs this instance, which fails every time.
    GRADCHECK_SEED = 944133698

    def make(self, seed):
        rng = _rng(seed, 3)
        self.seed = seed
        self.image = inputs.natural_image(rng, 224, 224, 0.2, 0.5) / 255.0
        self.cfg = encoder.EncoderConfig(self.PATCH, self.DIM, projection_seed=seed)
        length = (224 // self.PATCH) ** 2
        teacher = [rng.normal(scale=1.0 / np.sqrt(self.DIM), size=(self.DIM, self.DIM))
                   for _ in range(3)]
        self.dataset = []
        for _ in range(self.SAMPLES):
            v = [rng.normal(size=(length, self.DIM)) for _ in range(3)]
            self.dataset.append((*v, checks.fuse_forward_ref(*v, *teacher)))
        self.text, self.counts = inputs.caption_records(rng, self.CAPTIONS)

    def setup(self, workdir):
        self.captions = workdir / "captions.jsonl"
        self.captions.write_text(self.text)
        self.params = fusion.init_params(self.DIM, self.seed)
        self.table = metrics.SynonymTable.from_json(formats.bundled_synonyms_path())
        encoder.patch_tokens(self.image, self.cfg)
        fusion.fit_demo(self.dataset[:1], self.params, 1, self.LR)
        fusion.gradient_check(2, 1, 0)
        small = workdir / "captions-warm.jsonl"
        small.write_text("".join(self.text.splitlines(keepends=True)[:50]))
        metrics.chair(formats.load_caption_records(small, self.table))

    def expect(self):
        self.tokens = checks.patch_tokens_ref(self.image, self.PATCH, self.DIM, self.seed)
        p = self.params
        self.first_loss = checks.mse_ref(self.dataset, p.w_q, p.w_k, p.w_v)
        weights, (v_o, v_l, v_h, upstream) = checks.gradcheck_instance(8, 4, self.GRADCHECK_SEED)
        grads = fusion.fuse_backward(v_o, v_l, v_h, fusion.FusionParams(*weights), upstream)
        self.grads = [grads.d_w_q, grads.d_w_k, grads.d_w_v, grads.d_v_o, grads.d_v_l, grads.d_v_h]
        self.fd_grads = checks.fd_gradients(weights, (v_o, v_l, v_h, upstream))
        return []

    def round(self, index):
        fit = lambda: fusion.fit_demo(self.dataset, self.params, self.STEPS, self.LR)
        grad = lambda: fusion.gradient_check(8, 4, self.GRADCHECK_SEED)
        chair = lambda: metrics.chair(formats.load_caption_records(self.captions, self.table))
        tokens = (lambda: encoder.patch_tokens(self.image, self.cfg),
                  lambda out: checks.check_close("patch_tokens", out, self.tokens, 1e-12), 1)
        return ([("patch_tokens.224", *tokens)] * 5 + [
            ("fit.step", fit, lambda out: checks.check_fit(out[1], self.first_loss), self.STEPS),
            ("gradcheck", grad,
             lambda out: checks.check_gradcheck(out, self.grads, self.fd_grads), 1),
            ("chair.pass", chair, lambda out: checks.check_chair(out, self.counts), 1),
        ])

    def detail(self, per_unit_s):
        return {
            "patch_tokens.224_ms": 1e3 * per_unit_s["patch_tokens.224"],
            "fit.steps_per_s": 1.0 / per_unit_s["fit.step"],
            "gradcheck_s": per_unit_s["gradcheck"],
            "chair.captions_per_s": self.CAPTIONS / per_unit_s["chair.pass"],
        }


def _load_test_oracles():
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("freqfuse_test_oracles",
                                                  root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_CUTOFFS_24 = tuple(round(float(c), 2) for c in np.geomspace(2.0, 110.0, 24))

WORKLOADS = {
    "sweep-cutoffs": lambda: Sweep([(224, 224)] * 4, _CUTOFFS_24, "high", "ppm"),
    "sweep-images": lambda: Sweep([(224, 224), (375, 500)] * 16, (6.0, 24.0), "low", "png"),
    "decompose": Decompose,
    "fuse-eval": FuseEval,
}
