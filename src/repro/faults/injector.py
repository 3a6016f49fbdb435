"""Seedable fault injection at the simulated accelerator's seams.

The :class:`FaultInjector` is the chaos half of the resilience layer:
given a rate and an RNG seed it decides, deterministically, where to
corrupt the datapath — bit flips in packed 512-bit memory lines,
dropped or truncated lines and result records, stalled or reordered
arbiter streams, and transient per-batch accelerator failures.

Design rules:

* **At most one fault per attempt** (:meth:`FaultInjector.draw`), so
  every injection has exactly one observable consequence and the
  accounting invariant *injected == detected + tolerated* is checkable.
* **Determinism**: the same ``(rate, seed, sites)`` produces the same
  fault sequence; retries draw fresh faults in a reproducible order.
* **No observability dependency**: the injector counts into plain
  dicts and mirrors events into an optional duck-typed ``sink``
  (the dispatcher's :class:`~repro.faults.resilience.ResilienceStats`).
"""

from __future__ import annotations

import numpy as np

ALL_SITES = (
    "line.bitflip",
    "line.truncate",
    "line.drop",
    "stream.reorder",
    "stream.stall",
    "batch.transient",
    "record.bitflip",
    "record.truncate",
    "record.drop",
)
"""Every seam the injector knows how to corrupt, and the default mix:
the retry/host ladder absorbs a fault at any of them."""

LINE_SITES = frozenset(
    {"line.bitflip", "line.truncate", "line.drop", "stream.reorder"}
)
"""Sites that corrupt the packed input lines of one job."""

RECORD_SITES = frozenset(
    {"record.bitflip", "record.truncate", "record.drop"}
)
"""Sites that corrupt the write-back result record of one job."""


class FaultInjector:
    """Deterministic, seedable corruption source for the datapath.

    ``rate`` is the per-site, per-attempt injection probability; at
    most one site fires per :meth:`draw`.  ``stall_seconds`` is the
    simulated duration of an injected stream stall (the dispatcher
    compares it against its timeout).
    """

    def __init__(
        self,
        rate: float = 0.01,
        seed: int = 0,
        sites: tuple[str, ...] | None = None,
        stall_seconds: float = 1.0,
        sink=None,
    ) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError("fault rate must be in [0, 1]")
        unknown = set(sites or ()) - set(ALL_SITES)
        if unknown:
            raise ValueError(f"unknown fault sites: {sorted(unknown)}")
        self.rate = rate
        self.seed = seed
        self.sites = tuple(sites) if sites is not None else ALL_SITES
        self.stall_seconds = stall_seconds
        self.sink = sink
        self._rng = np.random.default_rng(seed)
        self.injected: dict[str, int] = {}
        self.tolerated: dict[str, int] = {}

    # -- bookkeeping ----------------------------------------------------

    def reset(self) -> None:
        """Restart the RNG stream and zero the counts."""
        self._rng = np.random.default_rng(self.seed)
        self.injected.clear()
        self.tolerated.clear()

    def _record_injected(self, site: str) -> None:
        self.injected[site] = self.injected.get(site, 0) + 1
        if self.sink is not None:
            self.sink.record_injected(site)

    def record_tolerated(self, site: str) -> None:
        """Mark one injected fault as absorbed without detection."""
        self.tolerated[site] = self.tolerated.get(site, 0) + 1
        if self.sink is not None:
            self.sink.record_tolerated(site)

    # -- fault selection ------------------------------------------------

    def draw(self) -> str | None:
        """Pick at most one fault site for this attempt.

        Each active site is rolled in declaration order at ``rate``;
        the first hit wins and is counted as injected.  Draws always
        consume the same number of RNG values, so fault sequences are
        reproducible regardless of outcomes.
        """
        if self.rate == 0.0 or not self.sites:
            return None
        rolls = self._rng.random(len(self.sites))
        for site, roll in zip(self.sites, rolls):
            if roll < self.rate:
                self._record_injected(site)
                return site
        return None

    # -- corruption operators -------------------------------------------

    def corrupt_lines(
        self, site: str, lines: list[bytes]
    ) -> list[bytes]:
        """Apply one line-site fault to a packed job's lines.

        A no-op corruption (reordering a single-line job) is counted
        as tolerated and the lines pass through unchanged.
        """
        if site not in LINE_SITES:
            raise ValueError(f"{site!r} is not a line fault site")
        lines = list(lines)
        if site == "line.bitflip":
            idx = int(self._rng.integers(len(lines)))
            lines[idx] = self._flip_bit(lines[idx])
            return lines
        if site == "line.truncate":
            idx = int(self._rng.integers(len(lines)))
            cut = int(self._rng.integers(len(lines[idx])))
            lines[idx] = lines[idx][:cut]
            return lines
        if site == "line.drop":
            idx = int(self._rng.integers(len(lines)))
            del lines[idx]
            return lines
        # stream.reorder: swap two lines of the stream
        if len(lines) < 2:
            self.record_tolerated(site)
            return lines
        i, j = self._rng.choice(len(lines), size=2, replace=False)
        if lines[int(i)] == lines[int(j)]:
            # Swapping identical lines (repetitive payload) is a
            # no-op no checksum can — or needs to — see.
            self.record_tolerated(site)
            return lines
        lines[int(i)], lines[int(j)] = lines[int(j)], lines[int(i)]
        return lines

    def corrupt_record(self, site: str, blob: bytes) -> bytes | None:
        """Apply one record-site fault; ``None`` means dropped."""
        if site not in RECORD_SITES:
            raise ValueError(f"{site!r} is not a record fault site")
        if site == "record.bitflip":
            return self._flip_bit(blob)
        if site == "record.truncate":
            return blob[: int(self._rng.integers(len(blob)))]
        return None  # record.drop

    def _flip_bit(self, blob: bytes) -> bytes:
        """Flip one uniformly-chosen bit of ``blob``."""
        if not blob:
            return blob
        bit = int(self._rng.integers(len(blob) * 8))
        data = bytearray(blob)
        data[bit // 8] ^= 1 << (bit % 8)
        return bytes(data)
