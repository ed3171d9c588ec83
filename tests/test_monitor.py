"""Unit tests for the stability monitor (repro.core.monitor)."""

import pytest

from repro.core.monitor import StabilityCriteria, StabilityMonitor
from repro.errors import ConfigError

from conftest import make_report, make_sha

DAY = 1440
SHA = make_sha("monitored")


def _report(day: float, rank: int):
    return make_report(
        sha=SHA, scan_time=int(day * DAY),
        labels=[1] * rank + [0] * (10 - rank), n_engines=10,
        versions=[1] * 10,
    )


class TestCriteria:
    def test_validation(self):
        with pytest.raises(ConfigError):
            StabilityCriteria(fluctuation=-1)
        with pytest.raises(ConfigError):
            StabilityCriteria(min_reports=1)
        with pytest.raises(ConfigError):
            StabilityCriteria(alert_jump=0)
        with pytest.raises(ConfigError):
            StabilityCriteria(alert_within_days=0)


class TestStability:
    def test_becomes_stable_after_quiet_window(self):
        events = []
        monitor = StabilityMonitor(
            criteria=StabilityCriteria(fluctuation=0, min_reports=2,
                                       min_days=5),
            on_stable=lambda sha, t: events.append((sha, t)),
        )
        assert not monitor.observe(_report(0, 4))
        assert not monitor.observe(_report(2, 4))   # only 2 days spanned
        assert monitor.observe(_report(7, 4))       # 7 days, 3 reports
        assert events and events[0][0] == SHA
        assert monitor.stable_since == 0

    def test_fluctuation_tolerance(self):
        monitor = StabilityMonitor(
            criteria=StabilityCriteria(fluctuation=1, min_reports=2,
                                       min_days=1),
        )
        monitor.observe(_report(0, 4))
        assert monitor.observe(_report(3, 5))  # within fluctuation 1

    def test_excursion_breaks_stability(self):
        monitor = StabilityMonitor(
            criteria=StabilityCriteria(fluctuation=0, min_reports=2,
                                       min_days=1),
        )
        monitor.observe(_report(0, 4))
        assert monitor.observe(_report(2, 4))
        assert not monitor.observe(_report(3, 9))
        assert monitor.stable_since is None

    def test_on_stable_fires_once(self):
        events = []
        monitor = StabilityMonitor(
            criteria=StabilityCriteria(fluctuation=0, min_reports=2,
                                       min_days=1),
            on_stable=lambda sha, t: events.append(t),
        )
        for day in (0, 2, 4, 6):
            monitor.observe(_report(day, 3))
        assert len(events) == 1

    def test_wrong_sample_rejected(self):
        monitor = StabilityMonitor()
        monitor.observe(_report(0, 1))
        alien = make_report(sha=make_sha("other"), scan_time=DAY)
        with pytest.raises(ConfigError):
            monitor.observe(alien)

    def test_out_of_order_rejected(self):
        monitor = StabilityMonitor()
        monitor.observe(_report(5, 1))
        with pytest.raises(ConfigError):
            monitor.observe(_report(1, 1))


class TestVariationAlerts:
    def test_alert_on_big_fast_jump(self):
        alerts = []
        monitor = StabilityMonitor(
            criteria=StabilityCriteria(alert_jump=5, alert_within_days=3),
            on_variation=lambda sha, t, jump: alerts.append(jump),
        )
        monitor.observe(_report(0, 1))
        monitor.observe(_report(1, 8))  # +7 within a day
        assert alerts == [7]
        assert monitor.alerts == 1

    def test_no_alert_for_slow_drift(self):
        monitor = StabilityMonitor(
            criteria=StabilityCriteria(alert_jump=5, alert_within_days=3),
        )
        monitor.observe(_report(0, 1))
        monitor.observe(_report(30, 8))  # big jump but a month apart
        assert monitor.alerts == 0

    def test_no_alert_for_small_fast_jump(self):
        monitor = StabilityMonitor(
            criteria=StabilityCriteria(alert_jump=5, alert_within_days=3),
        )
        monitor.observe(_report(0, 1))
        monitor.observe(_report(1, 3))
        assert monitor.alerts == 0
