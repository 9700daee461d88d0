"""Integer-nanosecond time arithmetic for drifting node clocks.

Two timelines exist in a simulation: the gateway's reference time
("true" time, drift-free by definition) and each node's RTC ("local"
time), derived from a cheap crystal with a fixed frequency error in
parts per million.  Both are plain integer nanosecond counts; keeping
everything in integers makes multi-week runs bit-identical across
platforms and immune to floating-point accumulation.

The drift multiplication is carried out exactly: ``ppm_ratio`` expands
the ppm value to an integer ratio (floats are exact binary rationals)
and the scaled elapsed time is rounded once, half away from zero
(``round_half_away_div``).  The engine writes the same rounding as one
floor division in its clock map, ``engine.Engine._local_at`` and the
inverse its schedule inlines, and in its drift bound, and never takes
them in doubles.  The inverse as a function, ``true_at``, is a test
oracle (``tests/oracles.py``).
"""

from __future__ import annotations

NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_SEC = 1_000_000_000

#: Sanity bound on crystal tolerance; real low-cost crystals sit in the
#: tens of ppm, so anything beyond this is a configuration mistake.
MAX_ABS_DRIFT_PPM = 500.0


def round_half_away_div(num: int, den: int) -> int:
    """Divide ``num / den`` (``den > 0``) rounding half away from zero."""
    q, r = divmod(abs(num), den)
    if 2 * r >= den:
        q += 1
    return q if num >= 0 else -q


def ppm_ratio(ppm: float) -> tuple[int, int]:
    """``ppm * 1e-6`` as an exact integer ratio ``(num, den)``, ``den > 0``."""
    num, den = float(ppm).as_integer_ratio()
    return num, den * 1_000_000


def drift_error(drift_ppm: float, elapsed: int) -> int:
    """Worst-case clock error accrued over ``elapsed`` ns at ``drift_ppm``.

    Linear in ``elapsed``: 80 ppm accrue ~192 ms over 40 minutes.
    """
    if elapsed < 0:
        raise ValueError(f"elapsed must be non-negative, got {elapsed}")
    num, den = ppm_ratio(abs(drift_ppm))
    return round_half_away_div(elapsed * num, den)

