"""Output checks built apart from the package under test.

Each check takes the program's output and raises CheckFailed when it is
wrong. The reference computations here share no code with freqfuse: the
Gaussian split, the 8-bit export, the energy rule, the CHAIR recount and the
fusion forward pass are written again from their documented definitions.
`fire_all` feeds every check a deliberately wrong answer and fails if any
check lets it through.
"""

import csv
import io

import numpy as np


class CheckFailed(Exception):
    """The program's output disagrees with the independent computation."""


class OperationFailed(Exception):
    """The program reported that the operation failed; counted in `failed`
    without marking the run incorrect."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


# Spectral reference


def centered_low_mask(h, w, cutoff):
    """Gaussian low-pass weight at each unshifted DFT index.

    The package documents a mask centred on (h//2, w//2) of the shifted
    spectrum; index u of the unshifted spectrum sits at distance
    ((u + h//2) mod h) - h//2 from that centre.
    """
    du = (np.arange(h) + h // 2) % h - h // 2
    dv = (np.arange(w) + w // 2) % w - w // 2
    d2 = du[:, None] ** 2 + dv[None, :] ** 2
    return np.exp(-d2 / (2.0 * cutoff * cutoff))


def gaussian_split(image, cutoff, low_gain=1.0, high_gain=1.0):
    """(low, high) of an (h, w, 3) image; gains may be (h, w) arrays on the
    centred grid (damping draws) or scalars."""
    h, w, _ = image.shape
    low_c = np.fft.fftshift(centered_low_mask(h, w, cutoff))
    spec = np.fft.fft2(image, axes=(0, 1))
    low_w = np.fft.ifftshift(low_c * low_gain)
    high_w = np.fft.ifftshift((1.0 - low_c) * high_gain)
    low = np.fft.ifft2(spec * low_w[:, :, None], axes=(0, 1)).real
    high = np.fft.ifft2(spec * high_w[:, :, None], axes=(0, 1)).real
    return low, high


def damping_draws(h, w, gamma, seed):
    """The documented default damping: one PCG64 stream, low draw then high."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, gamma, size=(h, w)), rng.uniform(0.0, gamma, size=(h, w))


def export_u8(branch):
    """Clamp to [0, 1] and round half up to 0..255."""
    return np.floor(np.clip(branch, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)


def energy(pixels_u8):
    """Mean squared intensity of an exported image, as the energy mock reads it."""
    x = pixels_u8.astype(float) / 255.0
    return float(np.mean(x * x))


def check_close(name, got, want, tol):
    _require(np.shape(got) == np.shape(want), f"{name}: shape {np.shape(got)} != {np.shape(want)}")
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    _require(err <= tol, f"{name}: max error {err:.3e} > {tol:g}")


def check_decode(name, decoded, pixels_u8):
    """A decoded image equals the generated bytes exactly."""
    _require(decoded.shape == pixels_u8.shape, f"{name}: shape {decoded.shape}")
    _require(np.array_equal(decoded, pixels_u8 / 255.0),
             f"{name}: decoded pixels differ from the generated bytes")


def check_split_properties(name, image, low, high):
    """low + high rebuilds the image; high carries no mean per channel."""
    check_close(f"{name} reconstruction", low + high, image, 1e-12)
    means = np.abs(high.mean(axis=(0, 1)))
    _require(means.max() <= 1e-12, f"{name}: high-branch channel means {means}")


def check_damped(name, low, high, image, cutoff, gamma, seed):
    """Damped branches equal the reference split with the documented draws."""
    g_low, g_high = damping_draws(image.shape[0], image.shape[1], gamma, seed)
    want_low, want_high = gaussian_split(image, cutoff, g_low, g_high)
    check_close(f"{name} low", low, want_low, 1e-12)
    check_close(f"{name} high", high, want_high, 1e-12)


def check_scaled(name, damped, plain, gamma):
    """Constant-gamma damping equals gamma times the plain branches."""
    for d, p, tag in zip(damped, plain, ("low", "high")):
        check_close(f"{name} {tag}", d, gamma * p, 1e-12)


def check_identical(name, a, b):
    for x, y in zip(a, b):
        _require(np.array_equal(x, y), f"{name}: outputs differ between equal seeds")


# Sweep reference


def energy_table(images_u8, cutoffs, branch):
    """Energy of each exported branch (0 low, 1 high): rows are cutoffs,
    columns images."""
    table = np.empty((len(cutoffs), len(images_u8)))
    for j, pixels in enumerate(images_u8):
        h, w, _ = pixels.shape
        spec = np.fft.fft2(pixels / 255.0, axes=(0, 1))
        for i, cutoff in enumerate(cutoffs):
            weight = centered_low_mask(h, w, cutoff)
            if branch:
                weight = 1.0 - weight
            out = np.fft.ifft2(spec * weight[:, :, None], axes=(0, 1)).real
            table[i, j] = energy(export_u8(out))
    return table


def pick_threshold(table, margin):
    """A threshold that no energy lies within `margin` (relative) of.

    Among gaps wide enough, take the one that flips the most images across
    the cutoff list, then the one nearest the median energy.
    """
    values = np.unique(table)
    median = float(np.median(values))
    best = None
    for lo, hi in zip(values[:-1], values[1:]):
        mid = float(np.sqrt(lo * hi))
        if (mid - lo) / mid <= margin or (hi - mid) / mid <= margin:
            continue
        above = table > mid
        flips = int(np.sum(above.any(axis=0) & ~above.all(axis=0)))
        key = (flips, -abs(np.log(mid / median)))
        if best is None or key > best[0]:
            best = (key, mid)
    if best is None:
        raise ValueError("no energy gap wide enough for a threshold")
    return best[1]


def expected_sweep_csv(cutoffs, table, threshold, gt_sets):
    """The CSV the sweep must print, recounted by brute force.

    The energy mock names the ground truth when an export's energy is above
    the threshold and the two mock objects otherwise.
    """
    mock = frozenset(("unicorn", "dragon"))
    lines = ["cutoff,chair_i,chair_s,n"]
    for cutoff, row in zip(cutoffs, table):
        mentions = bad_mentions = bad_captions = 0
        for e, gt in zip(row, gt_sets):
            mentioned = gt if e > threshold else mock
            bad = [m for m in mentioned if m not in gt]
            mentions += len(mentioned)
            bad_mentions += len(bad)
            bad_captions += bool(bad)
        chair_i = bad_mentions / mentions if mentions else 0.0
        chair_s = bad_captions / len(gt_sets)
        lines.append(f"{cutoff:g},{chair_i:.6f},{chair_s:.6f},{len(gt_sets)}")
    return "\n".join(lines) + "\n"


def check_sweep_csv(got, want):
    got_rows = list(csv.reader(io.StringIO(got)))
    want_rows = list(csv.reader(io.StringIO(want)))
    _require(len(got_rows) == len(want_rows),
             f"sweep CSV has {len(got_rows)} lines, want {len(want_rows)}")
    for g, w in zip(got_rows, want_rows):
        _require(g == w, f"sweep CSV row {g} != recount {w}")


# Encoder and fusion reference


def patch_tokens_ref(image, patch, dim, seed):
    """Patches flattened row-major (channels interleaved) times the documented
    uniform +-1/sqrt(3p^2) projection drawn from PCG64(seed)."""
    h, w, _ = image.shape
    raw_len = 3 * patch * patch
    bound = 1.0 / np.sqrt(raw_len)
    proj = np.random.default_rng(seed).uniform(-bound, bound, size=(raw_len, dim))
    rows = [image[r:r + patch, c:c + patch, :].reshape(-1)
            for r in range(0, h, patch) for c in range(0, w, patch)]
    return np.einsum("lr,rd->ld", np.array(rows), proj)


def fuse_forward_ref(v_o, v_l, v_h, w_q, w_k, w_v):
    """Per-position two-way cross-attention plus residual, via einsum."""
    dim = w_q.shape[0]
    q = np.einsum("ld,de->le", v_o, w_q)
    k = np.einsum("sld,de->sle", np.stack([v_l, v_h]), w_k)
    v = np.einsum("sld,de->sle", np.stack([v_l, v_h]), w_v)
    scores = np.einsum("le,sle->ls", q, k) / np.sqrt(dim)
    scores -= scores.max(axis=1, keepdims=True)
    weights = np.exp(scores)
    weights /= weights.sum(axis=1, keepdims=True)
    return np.einsum("ls,sle->le", weights, v) + v_o


def mse_ref(dataset, w_q, w_k, w_v):
    total = 0.0
    entries = 0
    for v_o, v_l, v_h, target in dataset:
        diff = fuse_forward_ref(v_o, v_l, v_h, w_q, w_k, w_v) - target
        total += float(np.einsum("ld,ld->", diff, diff))
        entries += diff.size
    return total / entries


def check_fit(losses, want_first):
    _require(abs(losses[0] - want_first) <= 1e-12 * max(1.0, abs(want_first)),
             f"fit_demo losses[0]={losses[0]!r}, separate forward gives {want_first!r}")
    _require(losses[-1] < losses[0], f"fit_demo loss went {losses[0]:.6g} -> {losses[-1]:.6g}")


def gradcheck_instance(dim, positions, seed):
    """The instance gradient_check(dim, positions, seed) documents: weights
    uniform +-1/sqrt(dim) from PCG64(seed) (w_q, w_k, w_v), and v_o, v_l, v_h
    and the upstream gradient standard normal from a second PCG64(seed)."""
    bound = 1.0 / np.sqrt(dim)
    w_rng, v_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    weights = [w_rng.uniform(-bound, bound, size=(dim, dim)) for _ in range(3)]
    return weights, [v_rng.normal(size=(positions, dim)) for _ in range(4)]


def fd_gradients(weights, vectors, eps=1e-4):
    """Central differences of sum(upstream * fuse_forward_ref) with respect to
    w_q, w_k, w_v, v_o, v_l, v_h, in that order."""
    *values, upstream = vectors
    tensors = [np.array(t, dtype=float) for t in (*weights, *values)]

    def objective():
        return float(np.sum(upstream * fuse_forward_ref(*tensors[3:], *tensors[:3])))

    grads = []
    for tensor in tensors:
        flat, grad = tensor.reshape(-1), np.empty(tensor.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = objective()
            flat[i] = orig - eps
            f_minus = objective()
            flat[i] = orig
            grad[i] = (f_plus - f_minus) / (2.0 * eps)
        grads.append(grad.reshape(tensor.shape))
    return grads


def check_gradcheck(result, analytic, numeric, tol=1e-4):
    """gradient_check's verdict on an instance whose analytic gradients
    (fuse_backward) were compared with the benchmark's own central
    differences, normwise per tensor to 1e-6. A wrong gradient or verdict
    is a wrong output; a consistent reported failure on right gradients is
    the operation failing, counted in `failed` only."""
    for a, n, tag in zip(analytic, numeric, ("w_q", "w_k", "w_v", "v_o", "v_l", "v_h")):
        err = float(np.max(np.abs(a - n)) / max(float(np.max(np.abs(n))), 1e-12))
        _require(err <= 1e-6, f"fuse_backward d_{tag}: normwise error {err:.3e}")
    ok, worst = result
    _require(bool(ok) == (worst < tol), f"gradient_check says {bool(ok)} at worst {worst:.3e}")
    _require(worst < 10 * tol, f"gradient_check worst {worst:.3e} on right gradients")
    if not ok:
        raise OperationFailed(f"gradient_check reported failure, worst {worst:.3e} > {tol:g}")


def check_chair(report, counts):
    """CHAIR counts equal what the generator planted."""
    got = (report.total_captions, report.hallucinated_captions,
           report.total_mentions, report.hallucinated_mentions)
    want = (counts["captions"], counts["hallucinated_captions"],
            counts["mentions"], counts["hallucinated_mentions"])
    _require(got == want, f"chair counts {got} != planted {want}")
    _require(report.chair_i == counts["hallucinated_mentions"] / counts["mentions"],
             f"chair_i {report.chair_i!r}")
    _require(report.chair_s == counts["hallucinated_captions"] / counts["captions"],
             f"chair_s {report.chair_s!r}")
    recall = counts["true_mentions"] / counts["gt_objects"]
    _require(abs(report.recall - recall) <= 1e-15, f"recall {report.recall!r} != {recall!r}")


# Every check must reject a wrong answer.


def _fires(fn, *args):
    try:
        fn(*args)
    except CheckFailed:
        return True
    except OperationFailed:
        return False
    return False


def _reports_failure(fn, *args):
    try:
        fn(*args)
    except OperationFailed:
        return True
    except CheckFailed:
        return False
    return False


def fire_all():
    """Feed each check a wrong answer; return the names that did not fire."""
    rng = np.random.default_rng(1)
    img = rng.random((16, 12, 3))
    low, high = gaussian_split(img, 3.0)
    u8 = export_u8(img)
    gt = [frozenset({"dog"}), frozenset({"car", "cup"})]
    table = np.array([[0.5, 0.01], [0.5, 0.5]])
    csv_text = expected_sweep_csv([1.0, 2.0], table, 0.1, gt)
    v = [rng.normal(size=(4, 3)) for _ in range(4)]
    w = [rng.normal(size=(3, 3)) for _ in range(3)]
    first = mse_ref([tuple(v)], *w)

    class Report:
        total_captions, hallucinated_captions = 10, 3
        total_mentions, hallucinated_mentions = 20, 4
        chair_i, chair_s, recall = 0.2, 0.3, 0.5

    counts = dict(captions=10, hallucinated_captions=3, mentions=20,
                  hallucinated_mentions=4, true_mentions=16, gt_objects=32)
    bad_report = Report()
    bad_report.hallucinated_mentions = 5
    d_low, d_high = gaussian_split(img, 3.0, *damping_draws(16, 12, 0.5, 7))
    g_w, g_v = gradcheck_instance(3, 2, 5)
    grads = fd_gradients(g_w, g_v, 1e-5)
    want_grads = fd_gradients(g_w, g_v)
    bad_grads = [grads[0] * 1.001, *grads[1:]]
    cases = {
        "close": (check_close, "x", low + 1e-9, low, 1e-12),
        "decode": (check_decode, "x", export_u8(img) / 255.0 + 1.0 / 255.0, u8),
        "split": (check_split_properties, "x", img, low, high + 1e-9),
        "split-mean": (check_split_properties, "x", img, low - 1e-6, high + 1e-6),
        "damped": (check_damped, "x", d_low, d_high, img, 3.0, 0.5, 8),
        "scaled": (check_scaled, "x", (0.5 * low, 0.6 * high), (low, high), 0.5),
        "identical": (check_identical, "x", (low,), (low + 1e-16 + low * 1e-15,)),
        "sweep": (check_sweep_csv, csv_text.replace("0.500000", "0.500001"), csv_text),
        "sweep-rows": (check_sweep_csv, csv_text + "3,0,0,2\n", csv_text),
        "fit-first": (check_fit, [first * (1 + 1e-9), first / 2], first),
        "fit-down": (check_fit, [first, first * 1.01], first),
        "gradcheck": (check_gradcheck, (False, 2e-3), grads, want_grads),
        "gradcheck-flag": (check_gradcheck, (True, 2e-4), grads, want_grads),
        "gradcheck-backward": (check_gradcheck, (True, 5e-5), bad_grads, want_grads),
        "chair": (check_chair, bad_report, counts),
    }
    # the unmodified answers pass, so a firing check is not firing on everything
    passes = [
        (check_split_properties, "x", img, low, high),
        (check_damped, "x", d_low, d_high, img, 3.0, 0.5, 7),
        (check_sweep_csv, csv_text, csv_text),
        (check_chair, Report(), counts),
        (check_decode, "x", u8 / 255.0, u8),
        (check_gradcheck, (True, 5e-5), grads, want_grads),
    ]
    silent = [name for name, (fn, *args) in cases.items() if not _fires(fn, *args)]
    silent += [f"{fn.__name__} rejects a right answer" for fn, *args in passes if _fires(fn, *args)]
    if not _reports_failure(check_gradcheck, (False, 2e-4), grads, want_grads):
        silent.append("check_gradcheck does not count a reported failure as failed")
    return silent
