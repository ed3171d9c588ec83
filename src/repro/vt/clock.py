"""Simulation time for the VirusTotal simulator.

The paper's collection window runs for 14 calendar months, May 2021 through
June 2022.  All simulator timestamps are integer **minutes since the start
of the collection window** (2021-05-01 00:00 UTC); the premium feed the
authors polled returned one batch per minute, so a minute is the natural
resolution.

Helper functions convert a minute timestamp to days, to a month index
(0..13) and to the ``MM/YYYY`` labels used by the paper's Table 2.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field

from repro.errors import ConfigError

#: Start of the paper's collection window (inclusive).
COLLECTION_START = _dt.datetime(2021, 5, 1, tzinfo=_dt.timezone.utc)

#: End of the paper's collection window (exclusive).
COLLECTION_END = _dt.datetime(2022, 7, 1, tzinfo=_dt.timezone.utc)

#: Number of calendar months in the collection window.
COLLECTION_MONTHS = 14

MINUTES_PER_HOUR = 60
MINUTES_PER_DAY = 24 * MINUTES_PER_HOUR

#: How long the feed archive retains per-minute batches (the real
#: premium feed allows catch-up fetches for the last 7 days).  Defined
#: here rather than in :mod:`repro.vt.feed` so the CLI parser can read
#: it without importing the service.
DEFAULT_ARCHIVE_RETENTION_MINUTES = 7 * MINUTES_PER_DAY

#: Cumulative minute offset at the start of each month of the window.
#: _MONTH_STARTS[i] is the timestamp of the first minute of month i, and the
#: final entry is the (exclusive) end of the window.
_MONTH_STARTS: list[int] = []


def _build_month_starts() -> None:
    cursor = COLLECTION_START
    total = 0
    for _ in range(COLLECTION_MONTHS):
        _MONTH_STARTS.append(total)
        if cursor.month == 12:
            nxt = cursor.replace(year=cursor.year + 1, month=1)
        else:
            nxt = cursor.replace(month=cursor.month + 1)
        total += int((nxt - cursor).total_seconds()) // 60
        cursor = nxt
    _MONTH_STARTS.append(total)


_build_month_starts()

#: Public view of the per-month minute offsets (read-only by convention).
MONTH_STARTS: tuple[int, ...] = tuple(_MONTH_STARTS)

#: Total number of minutes in the 14-month collection window.
WINDOW_MINUTES = _MONTH_STARTS[-1]

#: Total number of days in the collection window (426 days).
WINDOW_DAYS = WINDOW_MINUTES // MINUTES_PER_DAY


def minutes(*, days: float = 0.0, hours: float = 0.0, mins: float = 0.0) -> int:
    """Build a duration in simulator minutes from days/hours/minutes."""
    return int(round(days * MINUTES_PER_DAY + hours * MINUTES_PER_HOUR + mins))


def day_of(timestamp: int) -> float:
    """Fractional days since the start of the window for ``timestamp``."""
    return timestamp / MINUTES_PER_DAY


def minute_of_day(timestamp: int) -> int:
    """Minute within its day (0..1439) for ``timestamp``."""
    return timestamp % MINUTES_PER_DAY


def month_index(timestamp: int) -> int:
    """Month of the collection window (0..13) containing ``timestamp``.

    Timestamps past the window clamp to the last month; negative timestamps
    (a sample first seen before the window) clamp to 0.
    """
    if timestamp < 0:
        return 0
    if timestamp >= WINDOW_MINUTES:
        return COLLECTION_MONTHS - 1
    # Linear scan is fine: 14 entries.
    for i in range(COLLECTION_MONTHS):
        if timestamp < _MONTH_STARTS[i + 1]:
            return i
    raise AssertionError("unreachable")


def month_label(index: int) -> str:
    """The paper's ``MM/YYYY`` label for collection-window month ``index``."""
    if not 0 <= index < COLLECTION_MONTHS:
        raise ConfigError(f"month index out of range: {index}")
    cursor = COLLECTION_START
    for _ in range(index):
        if cursor.month == 12:
            cursor = cursor.replace(year=cursor.year + 1, month=1)
        else:
            cursor = cursor.replace(month=cursor.month + 1)
    return f"{cursor.month:02d}/{cursor.year}"


def to_datetime(timestamp: int) -> _dt.datetime:
    """Convert a simulator minute timestamp to an aware UTC datetime."""
    return COLLECTION_START + _dt.timedelta(minutes=timestamp)


def from_datetime(when: _dt.datetime) -> int:
    """Convert an aware datetime to a simulator minute timestamp."""
    if when.tzinfo is None:
        raise ConfigError("datetime must be timezone-aware")
    return int((when - COLLECTION_START).total_seconds()) // 60


@dataclass
class SimulationClock:
    """A monotone minute-resolution clock for driving the simulator.

    The clock refuses to move backwards — the service uses it to timestamp
    reports, and the feed relies on report timestamps being non-decreasing.
    """

    now: int = 0
    _started: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        self._started = self.now

    def advance(self, delta: int) -> int:
        """Move the clock forward by ``delta`` minutes and return the time."""
        if delta < 0:
            raise ConfigError(f"clock cannot move backwards (delta={delta})")
        self.now += delta
        return self.now

    def advance_to(self, timestamp: int) -> int:
        """Move the clock forward to ``timestamp`` (no-op if in the past)."""
        if timestamp > self.now:
            self.now = timestamp
        return self.now

    @property
    def elapsed(self) -> int:
        """Minutes elapsed since the clock was created."""
        return self.now - self._started

    def in_window(self) -> bool:
        """Whether the clock is still inside the 14-month window."""
        return 0 <= self.now < WINDOW_MINUTES
