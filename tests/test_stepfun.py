import numpy as np
import pytest

from lbrc.stepfun import EvalGrid, StepFunction, sup_diff_vs_smooth, sup_norm_diff


@pytest.fixture
def simple_step():
    # 1.0 before the jump at 2.0, 0.5 after
    return StepFunction([2.0], [0.5], 1.0)


def test_eval_before_jump(simple_step):
    assert simple_step.at(1.0) == 1.0


def test_eval_right_continuous_at_jump(simple_step):
    assert simple_step.at(2.0) == 0.5


def test_eval_after_jump(simple_step):
    assert simple_step.at(3.0) == 0.5


def test_left_limit_excludes_jump(simple_step):
    assert simple_step.left_at(2.0) == 1.0
    assert simple_step.left_at(2.5) == 0.5
    assert simple_step.left_at(0.0) == 1.0


def test_strictly_increasing_enforced():
    with pytest.raises(ValueError):
        StepFunction([1.0, 1.0], [0.5, 0.2], 1.0)


def test_eval_left_limit_agree_off_jumps():
    rng = np.random.default_rng(7)
    times = np.sort(rng.uniform(0, 10, 8))
    f = StepFunction(times, rng.uniform(0, 1, 8), 0.3)
    probes = rng.uniform(0, 12, 200)
    probes = probes[~np.isin(probes, times)]
    assert np.allclose(f.at(probes), f.left_at(probes))


def test_sup_norm_diff_identical():
    f = StepFunction([1.0], [0.5], 1.0)
    grid = EvalGrid.of_points([0.5, 1.5])
    assert sup_norm_diff(f, f, grid) == 0.0


def test_sup_norm_diff_constants():
    f = StepFunction.constant(1.0)
    g = StepFunction.constant(0.25)
    grid = EvalGrid.of_points([0.1, 2.0])
    assert sup_norm_diff(f, g, grid) == 0.75


def test_sup_norm_diff_indicator_vs_zero():
    f = StepFunction([1.0], [1.0], 0.0)
    g = StepFunction.constant(0.0)
    grid = EvalGrid.of_points([0.5, 1.0, 1.5])
    assert sup_norm_diff(f, g, grid) == 1.0


def test_sup_norm_diff_sees_gap_between_grid_points():
    # jump at 0.7 lies strictly between the grid points; the left limit at
    # the jump must still be examined
    f = StepFunction([0.7], [0.0], 1.0)
    g = StepFunction.constant(0.0)
    grid = EvalGrid.of_points([0.5, 1.0])
    assert sup_norm_diff(f, g, grid) == 1.0


def test_sup_norm_diff_symmetry():
    rng = np.random.default_rng(3)
    f = StepFunction(np.sort(rng.uniform(0, 5, 4)), rng.uniform(0, 1, 4), 0.2)
    g = StepFunction(np.sort(rng.uniform(0, 5, 3)), rng.uniform(0, 1, 3), 0.8)
    grid = EvalGrid.of_points(np.linspace(0.1, 5.0, 7))
    assert sup_norm_diff(f, g, grid) == sup_norm_diff(g, f, grid)


def test_sup_norm_diff_empty_grid_rejected():
    with pytest.raises(ValueError):
        EvalGrid.of_points([])


def test_sup_diff_vs_smooth():
    f = StepFunction([1.0], [1.0], 0.0)
    gap = sup_diff_vs_smooth(f, lambda t: np.asarray(t) / 2.0, 0.0, 2.0)
    assert gap == pytest.approx(1.0 - 0.5)


def test_eval_grid_validation():
    with pytest.raises(ValueError):
        EvalGrid([0.2, 0.1], 1.0)
    with pytest.raises(ValueError):
        EvalGrid([-0.5, 0.1], 1.0)
    with pytest.raises(ValueError):
        EvalGrid([0.5, 2.0], 1.0)
    grid = EvalGrid([0.5, 1.0], 1.0)
    assert grid.lower == 0.5
