"""Fusion forward/backward tests against hand values and finite differences."""

import tracemalloc

import numpy as np
import pytest

from freqfuse import fusion
from freqfuse.fusion import (
    FusionParams,
    fit_demo,
    fuse_backward,
    fuse_sequence,
    fuse_token,
    gradient_check,
    init_params,
    stable_softmax,
)
from oracles import central_difference, naive_fit, naive_gradient_check
from util import UNPRINTABLE, unprintable


def random_instance(dim, length, seed):
    rng = np.random.default_rng(seed)
    params = init_params(dim, seed + 1)
    v_o = rng.normal(size=(length, dim))
    v_l = rng.normal(size=(length, dim))
    v_h = rng.normal(size=(length, dim))
    upstream = rng.normal(size=(length, dim))
    return params, v_o, v_l, v_h, upstream


# init_params


def test_init_entries_within_bound():
    params = init_params(4, 0)
    for m in (params.w_q, params.w_k, params.w_v):
        assert m.shape == (4, 4)
        assert m.min() >= -0.5 and m.max() <= 0.5


def test_init_determinism():
    a = init_params(5, 3)
    b = init_params(5, 3)
    assert np.array_equal(a.w_q, b.w_q)
    assert np.array_equal(a.w_k, b.w_k)
    assert np.array_equal(a.w_v, b.w_v)


def test_init_sample_mean_near_zero():
    params = init_params(64, 1)
    entries = np.concatenate([m.ravel() for m in (params.w_q, params.w_k, params.w_v)])
    assert abs(entries.mean()) < 0.01


def test_init_rejects_bad_dim():
    with pytest.raises(ValueError):
        init_params(0, 0)


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_init_and_gradient_check_name_a_bad_seed(seed):
    with pytest.raises(ValueError, match="seed must be a non-negative int"):
        init_params(4, seed)
    with pytest.raises(ValueError, match="seed must be a non-negative int"):
        gradient_check(2, 1, seed)


def test_init_takes_a_numpy_integer_seed():
    a, b = init_params(3, np.int64(3)), init_params(3, 3)
    assert all(np.array_equal(getattr(a, k), getattr(b, k)) for k in ("w_q", "w_k", "w_v"))
    assert gradient_check(2, 1, np.int64(3)) == gradient_check(2, 1, 3)


# fuse_token


def test_zero_frequency_tokens_pass_original_through():
    params = init_params(3, 2)
    v_o = np.array([0.4, -1.2, 2.0])
    fused, trace = fuse_token(v_o, np.zeros(3), np.zeros(3), params)
    assert np.array_equal(fused, v_o)
    assert np.array_equal(trace.weights, [0.5, 0.5])


def test_scalar_hand_example():
    params = FusionParams(w_q=[[1.0]], w_k=[[1.0]], w_v=[[1.0]])
    fused, trace = fuse_token([1.0], [2.0], [4.0], params)
    assert trace.scores == pytest.approx([2.0, 4.0], abs=1e-12)
    assert trace.weights == pytest.approx([0.119203, 0.880797], abs=1e-6)
    assert fused[0] == pytest.approx(4.761594, abs=1e-6)


def test_identical_frequency_tokens_get_equal_weights():
    params = init_params(4, 8)
    c = np.array([0.3, 0.7, -0.2, 1.1])
    _, trace = fuse_token(np.array([1.0, 0.0, 2.0, -1.0]), c, c, params)
    assert trace.weights == pytest.approx([0.5, 0.5], abs=1e-15)


def test_fuse_token_rejects_mismatched_lengths():
    params = init_params(3, 0)
    with pytest.raises(ValueError):
        fuse_token(np.zeros(3), np.zeros(2), np.zeros(3), params)


@pytest.mark.parametrize("shape", [(1, 3), ()])
def test_fuse_token_rejects_non_vectors(shape):
    params = init_params(3, 0)
    with pytest.raises(ValueError, match="shape"):
        fuse_token(np.zeros(shape), np.zeros(3), np.zeros(3), params)
    with pytest.raises(ValueError, match="shape"):
        fuse_token(np.zeros(3), np.zeros(3), np.zeros(shape), params)


def test_trace_weights_sum_to_one():
    rng = np.random.default_rng(19)
    params = init_params(4, 7)
    for _ in range(20):
        _, trace = fuse_token(
            rng.normal(size=4), rng.normal(size=4), rng.normal(size=4), params
        )
        assert trace.weights.min() >= 0.0
        assert abs(trace.weights.sum() - 1.0) < 1e-12


def test_softmax_shift_invariance():
    scores = np.array([1.3, -0.4])
    assert stable_softmax(scores) == pytest.approx(stable_softmax(scores + 1000.0))
    # huge scores must not overflow
    assert np.isfinite(stable_softmax(np.array([1e6, 1e6 + 1]))).all()


# fuse_sequence


def test_sequence_matches_per_token_calls():
    params, v_o, v_l, v_h, _ = random_instance(2, 3, 11)
    out = fuse_sequence(v_o, v_l, v_h, params)
    for i in range(3):
        fused, _ = fuse_token(v_o[i], v_l[i], v_h[i], params)
        assert np.abs(out[i] - fused).max() < 1e-12


def test_single_position_sequence():
    params, v_o, v_l, v_h, _ = random_instance(4, 1, 12)
    out = fuse_sequence(v_o, v_l, v_h, params)
    fused, _ = fuse_token(v_o[0], v_l[0], v_h[0], params)
    assert np.abs(out[0] - fused).max() < 1e-12


def test_permutation_equivariance():
    params, v_o, v_l, v_h, _ = random_instance(3, 5, 13)
    perm = np.array([4, 2, 0, 3, 1])
    direct = fuse_sequence(v_o, v_l, v_h, params)[perm]
    permuted = fuse_sequence(v_o[perm], v_l[perm], v_h[perm], params)
    assert np.array_equal(direct, permuted)


def test_position_locality():
    params, v_o, v_l, v_h, _ = random_instance(3, 4, 14)
    base = fuse_sequence(v_o, v_l, v_h, params)
    v_l2 = v_l.copy()
    v_l2[2] += 1.0
    changed = fuse_sequence(v_o, v_l2, v_h, params)
    assert not np.allclose(base[2], changed[2])
    mask = np.ones(4, dtype=bool)
    mask[2] = False
    assert np.array_equal(base[mask], changed[mask])


def test_sequence_rejects_mismatched_shapes():
    params = init_params(3, 0)
    with pytest.raises(ValueError):
        fuse_sequence(np.zeros((2, 3)), np.zeros((3, 3)), np.zeros((2, 3)), params)
    with pytest.raises(ValueError):
        fuse_sequence(np.zeros((2, 3)), np.zeros((2, 2)), np.zeros((2, 3)), params)


def test_sequence_determinism():
    params, v_o, v_l, v_h, _ = random_instance(5, 4, 15)
    assert np.array_equal(
        fuse_sequence(v_o, v_l, v_h, params), fuse_sequence(v_o, v_l, v_h, params)
    )


# fuse_backward


def test_zero_upstream_gives_zero_gradients():
    params, v_o, v_l, v_h, _ = random_instance(3, 2, 16)
    grads = fuse_backward(v_o, v_l, v_h, params, np.zeros((2, 3)))
    for g in (grads.d_w_q, grads.d_w_k, grads.d_w_v,
              grads.d_v_o, grads.d_v_l, grads.d_v_h):
        assert np.all(g == 0.0)


def test_zero_frequency_tokens_backward():
    params, v_o, _, _, upstream = random_instance(3, 2, 17)
    zeros = np.zeros((2, 3))
    grads = fuse_backward(v_o, zeros, zeros, params, upstream)
    assert np.all(grads.d_w_v == 0.0)
    assert np.array_equal(grads.d_v_o, upstream)


def check_against_finite_differences(dim, length, seed):
    params, v_o, v_l, v_h, upstream = random_instance(dim, length, seed)
    grads = fuse_backward(v_o, v_l, v_h, params, upstream)

    def objective_replacing(name):
        def fn(t):
            mats = {"w_q": params.w_q, "w_k": params.w_k, "w_v": params.w_v}
            seqs = {"v_o": v_o, "v_l": v_l, "v_h": v_h}
            if name in mats:
                mats[name] = t
            else:
                seqs[name] = t
            p = FusionParams(**mats)
            out = fuse_sequence(seqs["v_o"], seqs["v_l"], seqs["v_h"], p)
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
        assert not bad.any(), f"{name}: max err {err.max():g} (seed {seed})"


def test_gradients_match_finite_differences():
    check_against_finite_differences(4, 2, 13)


def test_gradients_match_finite_differences_more_shapes():
    check_against_finite_differences(1, 1, 21)
    check_against_finite_differences(2, 4, 22)
    check_against_finite_differences(8, 3, 23)


def test_backward_rejects_mismatched_upstream():
    params, v_o, v_l, v_h, _ = random_instance(3, 2, 18)
    with pytest.raises(ValueError):
        fuse_backward(v_o, v_l, v_h, params, np.zeros((3, 3)))


def test_gradient_check_helper():
    ok, worst = gradient_check(4, 2, 13, tol=1e-4)
    assert ok and worst < 1e-4


@pytest.mark.parametrize("tol", [0.0, -1e-4, float("nan"), float("inf")])
def test_gradient_check_rejects_a_tol_that_is_not_positive(tol):
    with pytest.raises(ValueError, match="tol must be > 0"):
        gradient_check(2, 1, 0, tol)


@pytest.mark.parametrize("tol", [True, "1e-4", None, 1j])
def test_gradient_check_names_a_tol_that_is_not_a_real_number(tol):
    # True once ran as tol 1.0, and "1e-4" raised a bare TypeError
    with pytest.raises(ValueError, match="^tol must be a real number, got"):
        gradient_check(8, 4, 944133698, tol)


@pytest.mark.parametrize("seed", [1058, 944133698])
def test_gradient_check_accepts_tiny_gradients(seed):
    # each instance's worst entry is a ~3e-7 gradient whose central
    # difference carries ~6e-11 of rounding: within 1e-7 absolute
    ok, worst = gradient_check(8, 4, seed)
    assert ok and worst < 1e-4


def gradient_check_instances():
    rng = np.random.default_rng(2026)
    drawn = [(int(rng.integers(1, 9)), int(rng.integers(1, 7)), seed) for seed in range(50)]
    return drawn + [(8, 4, 1058), (8, 4, 944133698)]


@pytest.mark.parametrize("dim, positions, seed", gradient_check_instances())
def test_gradient_check_is_the_naive_loop(dim, positions, seed):
    # the batched central differences run the loop's arithmetic, entry for
    # entry, so the verdict and the worst error are the same bits
    ok, worst = naive_gradient_check(dim, positions, seed)
    assert gradient_check(dim, positions, seed) == (bool(ok), float(worst))


def test_gradient_check_memory_stays_bounded():
    # all 18,432 perturbations of (32, 64) at once would take ~300 MB per
    # batched array; the chunks keep each one to a fixed element budget
    tracemalloc.start()
    try:
        ok, _ = gradient_check(32, 64, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok
    assert peak < 16 * 2**20


# fit_demo


def make_teacher_problem(dim, length, seed):
    rng = np.random.default_rng(seed)
    teacher = init_params(dim, seed + 100)
    v_o = rng.normal(size=(length, dim))
    v_l = rng.normal(size=(length, dim))
    v_h = rng.normal(size=(length, dim))
    target = fuse_sequence(v_o, v_l, v_h, teacher)
    return [(v_o, v_l, v_h, target)]


def test_fit_already_optimal():
    params = init_params(2, 30)
    rng = np.random.default_rng(31)
    v_o, v_l, v_h = (rng.normal(size=(3, 2)) for _ in range(3))
    target = fuse_sequence(v_o, v_l, v_h, params)
    final, losses = fit_demo([(v_o, v_l, v_h, target)], params, steps=5, lr=0.1)
    assert losses[0] == 0.0
    assert np.array_equal(final.w_q, params.w_q)
    assert np.array_equal(final.w_k, params.w_k)
    assert np.array_equal(final.w_v, params.w_v)


def test_fit_reduces_loss_on_teacher_problem():
    dataset = make_teacher_problem(2, 3, 40)
    params = init_params(2, 41)
    _, losses = fit_demo(dataset, params, steps=500, lr=0.05)
    assert len(losses) == 501
    assert losses[-1] < losses[0]


def test_fit_zero_lr_keeps_params():
    dataset = make_teacher_problem(2, 2, 42)
    params = init_params(2, 43)
    final, _ = fit_demo(dataset, params, steps=10, lr=0.0)
    assert np.array_equal(final.w_q, params.w_q)
    assert np.array_equal(final.w_k, params.w_k)
    assert np.array_equal(final.w_v, params.w_v)


def test_fit_runs_one_forward_per_sample_and_step(monkeypatch):
    # the loss of each step and the backward pass share one forward pass,
    # plus one scoring pass after the last update
    calls = []
    forward = fusion._forward

    def counting(*args):
        calls.append(1)
        return forward(*args)

    dataset = make_teacher_problem(2, 3, 46) + make_teacher_problem(2, 3, 47)
    monkeypatch.setattr(fusion, "_forward", counting)
    _, losses = fit_demo(dataset, init_params(2, 48), steps=3, lr=0.05)
    assert len(losses) == 4
    assert len(calls) == 2 * 3 + 2


@pytest.mark.parametrize("lengths", [(1,), (3,), (2, 5), (1, 4, 2)])
def test_fit_is_the_naive_fit(lengths):
    rng = np.random.default_rng(len(lengths) * 10 + lengths[-1])
    dim = 3
    dataset = [tuple(rng.normal(size=(n, dim)) for _ in range(4)) for n in lengths]
    params = init_params(dim, 49)
    final, losses = fit_demo(dataset, params, steps=4, lr=0.05)
    want, want_losses = naive_fit(dataset, params, steps=4, lr=0.05)
    assert losses == want_losses
    for name in ("w_q", "w_k", "w_v"):
        assert np.array_equal(getattr(final, name), getattr(want, name))


def test_fit_rejects_empty_dataset():
    with pytest.raises(ValueError):
        fit_demo([], init_params(2, 0), steps=1, lr=0.1)


@pytest.mark.parametrize("steps", [-1, 1.5, True])
def test_fit_names_steps_that_are_not_a_non_negative_int(steps):
    # True once ran one step, and 1.5 raised a bare TypeError
    dataset = make_teacher_problem(2, 3, 44)
    with pytest.raises(ValueError, match="^steps must be a non-negative int, got"):
        fit_demo(dataset, init_params(2, 45), steps=steps, lr=0.1)


# inf once trained one step and then blamed w_q; True trained at 1.0,
# "0.1" raised a bare TypeError and 10**400 a bare OverflowError
@pytest.mark.parametrize(
    "lr",
    [-0.1, float("nan"), float("inf"), True, "0.1", 1j,
     pytest.param(10**400, id="int-past-float")],
)
def test_fit_rejects_bad_lr(lr):
    dataset = make_teacher_problem(2, 3, 44)
    with pytest.raises(ValueError, match="lr"):
        fit_demo(dataset, init_params(2, 45), steps=2, lr=lr)


def fit(steps, lr):
    return fit_demo(make_teacher_problem(2, 3, 44), init_params(2, 45), steps, lr)


# each raised Python's own "Exceeds the limit (4300 digits)" ValueError,
# which names no argument, in place of its own refusal
@pytest.mark.parametrize(
    "field, call",
    [
        pytest.param("dim", lambda v: init_params(-v, 0), id="init_params-dim"),
        pytest.param("dim", lambda v: init_params([v], 0), id="init_params-dim-list"),
        pytest.param("seed", lambda v: init_params(4, -v), id="init_params-seed"),
        pytest.param("seed", lambda v: init_params(4, [v]), id="init_params-seed-list"),
        pytest.param("steps", lambda v: fit(-v, 0.1), id="fit_demo-steps"),
        pytest.param("steps", lambda v: fit([v], 0.1), id="fit_demo-steps-list"),
        pytest.param("lr", lambda v: fit(1, [v]), id="fit_demo-lr-list"),
        pytest.param("positions", lambda v: gradient_check(4, -v, 0),
                     id="gradient_check-positions"),
        pytest.param("positions", lambda v: gradient_check(4, [v], 0),
                     id="gradient_check-positions-list"),
        pytest.param("seed", lambda v: gradient_check(4, 2, -v), id="gradient_check-seed"),
        pytest.param("tol", lambda v: gradient_check(4, 2, 0, [v]), id="gradient_check-tol-list"),
    ],
)
def test_a_refused_value_too_long_to_print_is_named_by_its_type(field, call):
    with pytest.raises(ValueError, match=unprintable(field)):
        call(UNPRINTABLE)
