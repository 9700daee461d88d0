"""Integer-nanosecond time arithmetic for drifting node clocks.

Two timelines exist in a simulation: the gateway's reference time
("true" time, drift-free by definition) and each node's RTC ("local"
time), derived from a cheap crystal with a fixed frequency error in
parts per million.  Both are plain integer nanosecond counts; keeping
everything in integers makes multi-week runs bit-identical across
platforms and immune to floating-point accumulation.

The drift multiplication is carried out exactly: the ppm value is
expanded to an integer ratio (floats are exact binary rationals) and
the scaled elapsed time is rounded once, half away from zero.
"""

from __future__ import annotations

from dataclasses import dataclass

NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_SEC = 1_000_000_000

#: Sanity bound on crystal tolerance; real low-cost crystals sit in the
#: tens of ppm, so anything beyond this is a configuration mistake.
MAX_ABS_DRIFT_PPM = 500.0


class TimebaseError(ValueError):
    """Raised on precondition violations in clock arithmetic."""


def round_half_away_div(num: int, den: int) -> int:
    """Divide ``num / den`` (``den > 0``) rounding half away from zero."""
    q, r = divmod(abs(num), den)
    if 2 * r >= den:
        q += 1
    return q if num >= 0 else -q


@dataclass(frozen=True)
class ClockModel:
    """Per-node oscillator: fixed drift, fixed initial offset.

    ``local = initial_offset + corrections + (t - epoch) * (1 + ppm*1e-6)``

    Drift is constant for the whole run; temperature trajectories are
    out of scope.  The model is immutable, accumulated corrections are
    passed in by the caller (they belong to the node's sync state, not
    to the oscillator).
    """

    drift_ppm: float = 0.0
    initial_offset: int = 0
    epoch: int = 0

    def __post_init__(self) -> None:
        if abs(self.drift_ppm) > MAX_ABS_DRIFT_PPM:
            raise TimebaseError(
                f"drift_ppm {self.drift_ppm} exceeds sanity bound "
                f"±{MAX_ABS_DRIFT_PPM}"
            )
        # Exact integer ratio of the ppm value, scaled so that
        # drift term = elapsed * num / den with den > 0.
        num, den = float(self.drift_ppm).as_integer_ratio()
        object.__setattr__(self, "_drift_num", num)
        object.__setattr__(self, "_drift_den", den * 1_000_000)

    @property
    def drift_ratio(self) -> tuple[int, int]:
        """Drift as an exact integer ratio ``(num, den)`` of the slope excess."""
        return self._drift_num, self._drift_den  # type: ignore[attr-defined]


def local_now(clock: ClockModel, corrections: int, t: int) -> int:
    """Read the node RTC at true time ``t`` given accumulated corrections.

    ``t`` must not precede the clock's epoch.  Result is rounded to the
    nanosecond, half away from zero.
    """
    if t < clock.epoch:
        raise TimebaseError(f"t={t} precedes clock epoch {clock.epoch}")
    elapsed = t - clock.epoch
    num, den = clock.drift_ratio
    return clock.initial_offset + corrections + elapsed + round_half_away_div(
        elapsed * num, den
    )


def local_to_true(clock: ClockModel, corrections: int, local: int) -> int:
    """Invert :func:`local_now`: true time at which the RTC reads ``local``.

    Exact up to 1 ns of rounding; the result never precedes the epoch.
    """
    num, den = clock.drift_ratio
    scaled = local - clock.initial_offset - corrections
    elapsed = round_half_away_div(scaled * den, den + num)
    if elapsed < 0:
        raise TimebaseError(f"local={local} precedes clock epoch")
    return clock.epoch + elapsed


def drift_error(drift_ppm: float, elapsed: int) -> int:
    """Worst-case clock error accrued over ``elapsed`` ns at ``drift_ppm``.

    Linear in ``elapsed``: 80 ppm accrue ~192 ms over 40 minutes.
    """
    if elapsed < 0:
        raise TimebaseError(f"elapsed must be non-negative, got {elapsed}")
    num, den = float(abs(drift_ppm)).as_integer_ratio()
    return round_half_away_div(elapsed * num, den * 1_000_000)

