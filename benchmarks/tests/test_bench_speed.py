"""The reference-seconds clock."""

import signal
import time

import pytest

import speed


def test_clock_probes_during_the_block_and_restores_the_timer():
    def handler(signum, frame):
        pass

    previous = signal.signal(signal.SIGALRM, handler)
    try:
        with speed.Clock() as clock:
            end = time.perf_counter() + 5 * speed.INTERVAL_S
            while time.perf_counter() < end:
                pass
        assert signal.getsignal(signal.SIGALRM) is handler
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert len(clock.probes) >= 3
    inside = sum(clock.probes)
    assert clock.seconds == pytest.approx((clock.wall - inside) * clock.speed)
    assert clock.speed == pytest.approx(
        sum(speed.REFERENCE_PROBE_S / p for p in clock.probes) / len(clock.probes)
    )


def test_a_block_shorter_than_the_interval_is_probed_once_after_it():
    with speed.Clock() as clock:
        pass
    assert len(clock.probes) == 1
    assert clock.seconds == pytest.approx(clock.wall * clock.speed)
