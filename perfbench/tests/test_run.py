"""The guarded latency and the calibration it is measured against."""

import statistics

import common
import run


def test_calibration_work_is_fixed():
    # the guarded times are scaled by this work: changing it rescales every figure
    assert common.calibration_work() == common.calibration_work()
    assert common.calibration_work() == (
        "9ba66e55ebbfc9df6b4c0d6621a8e4e0c0bbca58ea3b96c3e6baad8895d6f2e6")


def test_at_reference_scales_by_the_calibrations_around():
    ref = common.REFERENCE_CALIBRATION_S
    assert common.at_reference(0.5, ref, ref) == 0.5
    # a host twice as slow takes twice as long for the same work
    assert abs(common.at_reference(1.0, 2 * ref, 2 * ref) - 0.5) < 1e-12
    assert abs(common.at_reference(1.0, ref, 3 * ref) - 0.5) < 1e-12


def test_op_ms_is_mean_over_operations_of_median_at_reference():
    # three passes over two operations: (seconds on the clock, seconds at the reference)
    passes = [[(0.10, 0.005), (0.02, 0.001)], [(0.30, 0.007), (0.04, 0.003)],
              [(0.20, 0.006), (0.03, 0.002)]]
    assert abs(run.op_ms(passes) - statistics.mean([6.0, 2.0])) < 1e-9
    assert abs(run.per_operation(passes, 0, min) - statistics.mean([100.0, 20.0])) < 1e-9
