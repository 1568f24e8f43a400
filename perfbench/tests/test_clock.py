"""The clock leaves the reference loops out of each unit and scales by them."""

import statistics
import time

import workload


def busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_reference_loops_run_only_while_sampling():
    clock = workload.Clock()
    clock.time("unit", lambda: busy(0.05))
    assert clock.references == [] and clock.spent == 0.0
    with clock.sampling():
        clock.time("unit", lambda: busy(0.2))
    count = len(clock.references)
    assert count >= 5
    busy(0.05)
    assert len(clock.references) == count


def test_unit_time_leaves_out_the_loops_and_is_scaled_by_them():
    clock = workload.Clock()
    with clock.sampling():
        clock.time("unit", lambda: busy(0.2))
    (start, end, spent), = clock.units["unit"]
    assert spent > 0
    assert clock.raw("unit") == [end - start - spent]
    speed = statistics.fmean(workload.REFERENCE_S / elapsed
                             for elapsed in clock.references)
    assert abs(clock.scaled("unit")[0] - clock.raw("unit")[0] * speed) < 1e-9
