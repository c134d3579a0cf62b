"""Disk operating states and helpers.

States are plain strings (cheap, readable in traces) but the canonical set
lives here so policies, the drive model and the metrics layer agree.  A
multi-speed disk encodes its RPM level in the state name, e.g. ``idle@7200``.
The label builders and :func:`base_state` are memoised: the drive builds a
label per service and the metrics layer strips one per interval.
"""

from __future__ import annotations

from functools import cache

__all__ = [
    "ACTIVE_READ",
    "ACTIVE_WRITE",
    "SEEK",
    "IDLE",
    "STANDBY",
    "SPIN_UP",
    "SPIN_DOWN",
    "RPM_CHANGE",
    "idle_at",
    "active_at",
    "seek_at",
    "parse_rpm",
    "is_idle_family",
    "is_low_power",
    "is_serving",
]

ACTIVE_READ = "active_read"
ACTIVE_WRITE = "active_write"
SEEK = "seek"
IDLE = "idle"
STANDBY = "standby"
SPIN_UP = "spin_up"
SPIN_DOWN = "spin_down"
RPM_CHANGE = "rpm_change"


@cache
def idle_at(rpm: int) -> str:
    """Idle state label for a multi-speed disk spinning at ``rpm``."""
    return f"{IDLE}@{rpm}"


@cache
def active_at(rpm: int, write: bool = False) -> str:
    """Active R/W state label at ``rpm``."""
    base = ACTIVE_WRITE if write else ACTIVE_READ
    return f"{base}@{rpm}"


@cache
def seek_at(rpm: int) -> str:
    """Seek state label at ``rpm``."""
    return f"{SEEK}@{rpm}"


def parse_rpm(state: str, default: int) -> int:
    """Extract the RPM suffix from a state label, or ``default``."""
    if "@" in state:
        return int(state.rsplit("@", 1)[1])
    return default


@cache
def base_state(state: str) -> str:
    """Strip any ``@rpm`` suffix."""
    return state.split("@", 1)[0]


def is_idle_family(state: str) -> bool:
    """True for every state in which the disk is not serving a request.

    This is the paper's notion of an *idle period*: the stretch between the
    completion of one request and the arrival of the next, regardless of
    which low-power mode the disk traverses meanwhile.
    """
    return base_state(state) in {IDLE, STANDBY, SPIN_UP, SPIN_DOWN, RPM_CHANGE}


def is_low_power(state: str) -> bool:
    """True when the disk is in a reduced-power condition."""
    return base_state(state) in {STANDBY, SPIN_DOWN}


def is_serving(state: str) -> bool:
    """True when the disk is actively seeking or transferring."""
    return base_state(state) in {ACTIVE_READ, ACTIVE_WRITE, SEEK}
