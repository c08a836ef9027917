"""Speed correction of wall times."""

import time

import clock


def test_corrected_time_excludes_probes_and_scales_by_probe_speed():
    c = clock.SpeedClock()
    c.starts = [0.0, 0.1, 0.2, 0.3]
    c.durations = [4 * clock.PROBE_NOMINAL_S] * 4  # a machine 4x slower
    assert abs(c.corrected(0.05, 0.25)
               - (0.2 - 8 * clock.PROBE_NOMINAL_S) / 4) < 1e-12


def test_each_stretch_is_scaled_by_its_own_speed():
    c = clock.SpeedClock()
    c.starts = [float(i) for i in range(100)]
    slow = 2 * clock.PROBE_NOMINAL_S
    c.durations = [clock.PROBE_NOMINAL_S] * 50 + [slow] * 50
    # 20 s at nominal speed, then 20 s at half speed: about 30 nominal
    # seconds (one stretch at the switch takes the slow speed)
    assert 29.0 < c.corrected(30.0, 70.0) < 30.0


def test_probes_run_only_while_entered():
    with clock.SpeedClock() as c:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
        t1 = time.perf_counter()
    taken = len(c.durations)
    time.sleep(0.1)
    assert taken >= 5 and len(c.durations) == taken
    assert 0 < c.corrected(t0, t1)
