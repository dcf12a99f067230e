import numpy as np

from sensecomm.selfcheck import projection_check, run_gradient_checks


def test_full_suite_passes():
    for name, report in run_gradient_checks():
        assert report.passed, f"{name}: {report.max_rel_error}"


def test_suite_rows_are_pinned():
    assert [name for name, _ in run_gradient_checks()] == [
        "dense_4_to_3", "conv2d_6x6x2", "maxpool_2x2", "relu", "flatten",
        "dropout_frozen_mask", "softmax_cross_entropy", "power_normalize",
        "channel_awgn", "channel_rayleigh", "pipeline_joint_rayleigh",
        "pipeline_sensing_only_awgn",
    ]


def test_checker_catches_wrong_gradient():
    # the finite-difference oracle must stay independent: a deliberately
    # scaled analytic gradient has to be flagged
    x = np.array([1.0, 2.0, 3.0])
    wrong = 2.0 * x * 1.5
    report = projection_check(lambda x: x ** 2, lambda g: g * wrong, x,
                              np.ones(3), tol=1e-4)
    assert not report.passed


def test_checker_accepts_exact_gradient():
    x = np.array([1.0, 2.0, 3.0])
    report = projection_check(lambda x: x ** 2, lambda g: g * 2.0 * x, x,
                              np.ones(3), tol=1e-6)
    assert report.passed
    assert report.max_rel_error < 1e-8


def test_coordinate_sampling_is_deterministic():
    from sensecomm.rng import Rng
    from sensecomm.selfcheck import _coords

    a = _coords(1000, 32, Rng(5))
    b = _coords(1000, 32, Rng(5))
    assert np.array_equal(a, b)
    assert len(a) == 32
