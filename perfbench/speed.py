"""Times at reference speed: wall time corrected for the machine's speed.

The host this benchmark is meant for shares its cores, and its speed per
cycle changes by up to 2x within seconds (see "Noise" in README.md).  Raw
wall times then measure the neighbours as much as wspkit.  A `RefClock`
therefore times a fixed pure-Python reference loop after every INTERVAL_S
seconds of measured work, and scales each stretch of work by the loop's
speed at its two ends:

    time at reference speed = raw wall time * REF_NOMINAL_S / reference time

where the reference time is the mean of the loop's durations just before
and just after the stretch.  The loop lives here, not in wspkit, so a change
to wspkit moves the work and never the reference.  Reference runs happen
between timed stretches and are excluded from every time.
"""

from __future__ import annotations

from time import perf_counter

# The reference loop's duration on the machine whose speed the reported
# times refer to.  A 2-core x86-64 VM running Python 3.11.7 took 1.4 ms in
# its fast spells and 2.1-2.6 ms in its slow ones.
REF_NOMINAL_S = 0.002

_ROUNDS = 256

# measured work between two reference runs: short against the spells of one
# speed, long enough that the reference costs about 5% of a run
INTERVAL_S = 0.04


def reference_loop() -> int:
    """Fixed work in the kernel's idiom: int bitmasks, list rows copied
    per depth, indexing and small dict lookups."""
    acc = 0
    rows = [[(i * 2654435761) & 0xFFFF for i in range(24)] for _ in range(4)]
    seen: dict[int, int] = {}
    for r in range(_ROUNDS):
        row = rows[r & 3][:]
        for j in range(24):
            mask = row[j] ^ (acc & 0xFFF)
            row[j] = mask & (mask - 1)
            acc += (mask & -mask).bit_length()
            seen[mask & 255] = j
        acc ^= seen.get(r & 255, 0) + len(row)
        rows[r & 3] = row
    return acc


def time_reference() -> float:
    t0 = perf_counter()
    reference_loop()
    return perf_counter() - t0


class Held:
    """A time that a clock fills in: `seconds` at reference speed and `raw`
    wall seconds, both summed over the stretches booked to it.  Any object
    with these two attributes can be booked to."""

    __slots__ = ("seconds", "raw")

    def __init__(self) -> None:
        self.seconds = 0.0
        self.raw = 0.0


class RefClock:
    """Books stretches of wall time to holders and converts them to
    reference speed once the reference after them has been timed.

        clock.start(); work(); clock.stop(holder_a, holder_b)

    `stop` may time the reference before it returns, so call `start` again
    after it.  Call `flush` before reading the holders."""

    def __init__(self) -> None:
        for _ in range(20):            # warm the loop up before trusting it
            time_reference()
        self._before = time_reference()
        self._pending: list[tuple[float, tuple]] = []
        self._since = 0.0
        self._t0 = 0.0
        self.references: list[float] = []

    def start(self) -> None:
        self._t0 = perf_counter()

    def stop(self, *holders) -> None:
        """Book the wall time since `start` to every holder."""
        raw = perf_counter() - self._t0
        self._pending.append((raw, holders))
        self._since += raw
        if self._since >= INTERVAL_S:
            self.flush()

    def lap(self, *holders) -> None:
        """`stop`, then `start` again after any reference run."""
        self.stop(*holders)
        self.start()

    def flush(self) -> None:
        after = time_reference()
        self.references.append(after)
        scale = REF_NOMINAL_S * 2.0 / (self._before + after)
        for raw, holders in self._pending:
            for h in holders:
                h.seconds += raw * scale
                h.raw += raw
        self._pending.clear()
        self._before = after
        self._since = 0.0


class RawClock:
    """RefClock's interface with plain wall time, for traced runs: their
    spans are plain wall time, and so is the untraced twin of each item."""

    def start(self) -> None:
        self._t0 = perf_counter()

    def stop(self, *holders) -> None:
        raw = perf_counter() - self._t0
        for h in holders:
            h.seconds += raw
            h.raw += raw

    def lap(self, *holders) -> None:
        self.stop(*holders)
        self.start()

    def flush(self) -> None:
        pass
