"""Unit helpers and constants for the storage simulation.

All simulation time is in **seconds** (floats), all data sizes in **bytes**
(ints where possible), and all rates in **bytes per second**.  These helpers
exist so that configuration code reads like the paper: ``GiB(4)`` of cache,
``gbps(2)`` Fibre Channel links, ``ms(5)`` seek times.

Storage-industry convention is followed: link rates are decimal
(1 Gb/s = 1e9 bits/s) while memory/cache sizes are binary (1 GiB = 2**30).
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Data sizes — binary (memory, cache) and decimal (marketing disks)
# ---------------------------------------------------------------------------

KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB
TiB = 1024 * GiB
PiB = 1024 * TiB

KB = 1000
MB = 1000 * KB
GB = 1000 * MB
TB = 1000 * GB
PB = 1000 * TB


def kib(n: float) -> int:
    """``n`` kibibytes, in bytes."""
    return int(n * KiB)


def mib(n: float) -> int:
    """``n`` mebibytes, in bytes."""
    return int(n * MiB)


def gib(n: float) -> int:
    """``n`` gibibytes, in bytes."""
    return int(n * GiB)


def gb(n: float) -> int:
    """``n`` decimal gigabytes, in bytes."""
    return int(n * GB)


def tb(n: float) -> int:
    """``n`` decimal terabytes, in bytes."""
    return int(n * TB)


# ---------------------------------------------------------------------------
# Rates — network links are quoted in bits/second, decimal
# ---------------------------------------------------------------------------


def mbps(n: float) -> float:
    """``n`` megabits/second, as bytes/second."""
    return n * 1e6 / 8.0


def gbps(n: float) -> float:
    """``n`` gigabits/second, as bytes/second."""
    return n * 1e9 / 8.0


def mb_per_s(n: float) -> float:
    """``n`` decimal megabytes/second, as bytes/second."""
    return n * 1e6


def to_gbps(rate_bytes_per_s: float) -> float:
    """Convert a bytes/second rate back to gigabits/second for reporting."""
    return rate_bytes_per_s * 8.0 / 1e9


def to_mb_per_s(rate_bytes_per_s: float) -> float:
    """Convert a bytes/second rate to decimal megabytes/second."""
    return rate_bytes_per_s / 1e6


# ---------------------------------------------------------------------------
# Time
# ---------------------------------------------------------------------------


def us(n: float) -> float:
    """``n`` microseconds, in seconds."""
    return n * 1e-6


def ms(n: float) -> float:
    """``n`` milliseconds, in seconds."""
    return n * 1e-3


def minutes(n: float) -> float:
    """``n`` minutes, in seconds."""
    return n * 60.0


def hours(n: float) -> float:
    """``n`` hours, in seconds."""
    return n * 3600.0


def days(n: float) -> float:
    """``n`` days, in seconds."""
    return n * 86400.0


# ---------------------------------------------------------------------------
# Geography — WAN latency from fibre distance
# ---------------------------------------------------------------------------

#: Speed of light in fibre is roughly 2/3 of c; one-way latency per km.
FIBRE_SECONDS_PER_KM = 1.0 / 200_000.0


def wan_latency(distance_km: float, equipment_delay: float = 0.0002) -> float:
    """One-way propagation latency for a fibre run of ``distance_km``.

    ``equipment_delay`` models amplifier/switch hops and is added once.
    """
    if distance_km < 0:
        raise ValueError(f"distance_km must be >= 0, got {distance_km}")
    return distance_km * FIBRE_SECONDS_PER_KM + equipment_delay


def fmt_bytes(n: float) -> str:
    """Human-readable byte count (binary units)."""
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB", "PiB"):
        if abs(value) < 1024.0 or unit == "PiB":
            return f"{value:.2f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024.0
    raise AssertionError("unreachable")


def fmt_rate(rate_bytes_per_s: float) -> str:
    """Human-readable rate, in Gb/s or Mb/s as appropriate."""
    gbits = to_gbps(rate_bytes_per_s)
    if abs(gbits) >= 1.0:
        return f"{gbits:.2f} Gb/s"
    return f"{gbits * 1000.0:.2f} Mb/s"
