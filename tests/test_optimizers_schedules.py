"""Unit tests for optimizers and learning-rate schedules."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Adam, GradualWarmup, Parameter, ReduceLROnPlateau


def quadratic_step(opt, p):
    """One GD step on f(p) = ||p||^2 (gradient 2p)."""
    opt.apply_gradients(2.0 * p.data)


def test_adam_converges_on_quadratic():
    p = Parameter(np.array([5.0, -3.0, 1.0]))
    opt = Adam([p], lr=0.2)
    for _ in range(300):
        quadratic_step(opt, p)
    assert np.linalg.norm(p.data) < 1e-4


def test_adam_bias_correction_first_step():
    """First Adam step has magnitude ≈ lr regardless of gradient scale."""
    for scale in (1e-4, 1.0, 1e4):
        p = Parameter(np.array([1.0]))
        opt = Adam([p], lr=0.1)
        opt.apply_gradients(np.array([scale]))
        # Up to the eps term, the debiased first step is exactly lr.
        assert abs((1.0 - p.data[0]) - 0.1) < 1e-4


def test_apply_gradients_installs_and_steps():
    """One flat gradient updates every parameter it covers, in order."""
    a = Parameter(np.array([1.0]))
    b = Parameter(np.array([[1.0, 1.0]]))
    opt = Adam([a, b], lr=0.1)
    opt.apply_gradients(np.array([2.0, -3.0, 0.0]))
    np.testing.assert_allclose(a.data, [0.9], atol=1e-6)
    np.testing.assert_allclose(b.data, [[1.1, 1.0]], atol=1e-6)


def test_apply_gradients_length_mismatch():
    p = Parameter(np.array([1.0]))
    opt = Adam([p], lr=0.1)
    with pytest.raises(ValueError):
        opt.apply_gradients(np.ones(2))


@pytest.mark.parametrize("bad_lr", [0.0, -1.0])
def test_invalid_learning_rate(bad_lr):
    with pytest.raises(ValueError):
        Adam([Parameter(np.ones(1))], lr=bad_lr)


def test_invalid_betas():
    with pytest.raises(ValueError):
        Adam([Parameter(np.ones(1))], lr=0.1, beta1=1.0)


# --------------------------------------------------------------------- #
# Schedules
# --------------------------------------------------------------------- #
def test_warmup_ramps_linearly():
    opt = Adam([Parameter(np.ones(1))], lr=1.0)
    warmup = GradualWarmup(opt, target_lr=1.0, warmup_epochs=5)
    lrs = [warmup.on_epoch_begin(e) for e in range(7)]
    np.testing.assert_allclose(lrs[:5], [0.2, 0.4, 0.6, 0.8, 1.0])
    assert lrs[5] == lrs[6] == 1.0  # untouched after warmup


def test_warmup_zero_epochs_noop():
    opt = Adam([Parameter(np.ones(1))], lr=0.5)
    warmup = GradualWarmup(opt, target_lr=0.5, warmup_epochs=0)
    assert warmup.on_epoch_begin(0) == 0.5


def test_plateau_reduces_after_patience():
    opt = Adam([Parameter(np.ones(1))], lr=1.0)
    plateau = ReduceLROnPlateau(opt, patience=3, factor=0.5)
    plateau.on_epoch_end(0.9)  # new best
    assert not plateau.on_epoch_end(0.9)  # 1 stale
    assert not plateau.on_epoch_end(0.9)  # 2 stale
    assert plateau.on_epoch_end(0.9)  # 3rd stale epoch triggers
    assert opt.lr == 0.5


def test_plateau_resets_on_improvement():
    opt = Adam([Parameter(np.ones(1))], lr=1.0)
    plateau = ReduceLROnPlateau(opt, patience=2, factor=0.5)
    plateau.on_epoch_end(0.5)
    plateau.on_epoch_end(0.5)
    plateau.on_epoch_end(0.6)  # improvement resets the counter
    assert not plateau.on_epoch_end(0.6)
    assert opt.lr == 1.0


def test_plateau_respects_min_lr():
    opt = Adam([Parameter(np.ones(1))], lr=2e-6)
    plateau = ReduceLROnPlateau(opt, patience=1, factor=0.5, min_lr=1e-6)
    plateau.on_epoch_end(0.5)
    plateau.on_epoch_end(0.5)
    plateau.on_epoch_end(0.5)
    plateau.on_epoch_end(0.5)
    assert opt.lr >= 1e-6


def test_plateau_min_delta_guards_noise():
    opt = Adam([Parameter(np.ones(1))], lr=1.0)
    plateau = ReduceLROnPlateau(opt, patience=2, factor=0.5, min_delta=1e-3)
    plateau.on_epoch_end(0.5)
    plateau.on_epoch_end(0.5 + 1e-5)  # within noise: counts as stale
    assert plateau.on_epoch_end(0.5 + 2e-5)
    assert opt.lr == 0.5


def test_schedule_constructor_validation():
    opt = Adam([Parameter(np.ones(1))], lr=1.0)
    with pytest.raises(ValueError):
        ReduceLROnPlateau(opt, patience=0)
    with pytest.raises(ValueError):
        ReduceLROnPlateau(opt, factor=1.5)
    with pytest.raises(ValueError):
        GradualWarmup(opt, 1.0, warmup_epochs=-1)
