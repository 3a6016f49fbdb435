"""Write-ahead request log for the resident alignment server.

The checkpoint journal (:mod:`repro.durability.journal`) makes a
*batch run* resumable; this module makes a *server crash* accountable.
``repro serve --wal-dir`` appends one CRC-framed JSON line per event:

``admit``
    written (and flushed) *before* the request enters the admission
    queue — a request that might consume work is on disk first;
``done``
    written after the response for that request was handed to the
    socket layer (sent or the client was found disconnected — either
    way the server is finished with it).

After a crash, :meth:`RequestWAL.scan` replays the log: every
``admit`` without a matching ``done`` names a request that was
accepted but never answered — exactly the set a restarted server (or
an operator) must report as lost.  The reverse direction is
deliberately conservative: a crash between sending a response and
logging ``done`` lists an answered request as lost, which is the safe
over-report (at-least-once accounting).

Framing: ``<crc32-hex8> <json>\\n`` per line, CRC over the JSON bytes.
A torn final line (the crash was mid-write) fails its CRC and is
skipped — a torn tail must never poison the replay.  Durability
matches the rest of the repo's posture: lines are flushed to the OS on
every ``admit`` (surviving any process death, SIGKILL included) and
``fsync``'d opportunistically per wave (bounding loss on power cuts).
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.constants import ReproError

WAL_NAME = "requests.wal"
"""File name of the request WAL inside its directory."""

WAL_VERSION = 1
"""Record schema version stamped into every line."""


class WalError(ReproError, RuntimeError):
    """The WAL refused an operation (unwritable directory, bad path)."""


@dataclass
class WalReplay:
    """What :meth:`RequestWAL.scan` found in an existing log."""

    admitted: dict[str, dict] = field(default_factory=dict)
    completed: set[str] = field(default_factory=set)
    torn_lines: int = 0

    @property
    def lost(self) -> list[dict]:
        """Admit records with no matching ``done`` (admission order)."""
        return [
            record
            for rid, record in self.admitted.items()
            if rid not in self.completed
        ]


def _frame(payload: dict) -> bytes:
    blob = json.dumps(payload, sort_keys=True).encode()
    crc = zlib.crc32(blob) & 0xFFFFFFFF
    return f"{crc:08x} ".encode() + blob + b"\n"


def _unframe(line: bytes) -> dict | None:
    """Decode one framed line; ``None`` when torn or corrupt."""
    if len(line) < 10 or line[8:9] != b" ":
        return None
    try:
        crc = int(line[:8], 16)
    except ValueError:
        return None
    blob = line[9:].rstrip(b"\n")
    if (zlib.crc32(blob) & 0xFFFFFFFF) != crc:
        return None
    try:
        payload = json.loads(blob)
    except json.JSONDecodeError:
        return None
    return payload if isinstance(payload, dict) else None


class RequestWAL:
    """Append-only admitted/answered accounting for one server run.

    Single-writer by design: the server's reader threads call
    :meth:`admit` under the admission lock and the batcher thread
    calls :meth:`done`; an internal mutex keeps interleaved appends
    line-atomic regardless.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        try:
            self._handle = open(self.path, "ab")
        except OSError as exc:
            raise WalError(f"cannot open WAL {self.path}: {exc}") from exc
        self._lock = threading.Lock()
        self._seq = 0

    @classmethod
    def open_dir(cls, wal_dir: str | Path) -> "RequestWAL":
        """Open (creating) the canonical WAL inside ``wal_dir``.

        An existing log from a crashed run is rotated aside to
        ``requests.wal.prev`` first — :func:`scan` it (the server does,
        reporting lost requests at startup) before it is overwritten by
        the *next* restart.
        """
        wal_dir = Path(wal_dir)
        try:
            wal_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise WalError(f"cannot create {wal_dir}: {exc}") from exc
        path = wal_dir / WAL_NAME
        if path.exists():
            os.replace(path, path.with_suffix(".wal.prev"))
        return cls(path)

    # -- writing --------------------------------------------------------

    def admit(self, rid: str, client: str, name: str) -> int:
        """Log one admitted request *before* it is queued; flushed."""
        with self._lock:
            self._seq += 1
            seq = self._seq
            self._handle.write(
                _frame(
                    {
                        "v": WAL_VERSION,
                        "op": "admit",
                        "seq": seq,
                        "id": rid,
                        "client": client,
                        "name": name,
                    }
                )
            )
            self._handle.flush()
        return seq

    def done(self, rid: str) -> None:
        """Log one answered request (response already handed off)."""
        with self._lock:
            self._handle.write(
                _frame({"v": WAL_VERSION, "op": "done", "id": rid})
            )
            self._handle.flush()

    def sync(self) -> None:
        """``fsync`` the log (the server calls this once per wave)."""
        with self._lock:
            try:
                os.fsync(self._handle.fileno())
            except (OSError, ValueError):
                pass

    def close(self) -> None:
        """Flush and close the underlying file."""
        with self._lock:
            try:
                self._handle.flush()
                self._handle.close()
            except (OSError, ValueError):
                pass

    # -- replay ---------------------------------------------------------

    @staticmethod
    def scan(path: str | Path) -> WalReplay:
        """Replay a WAL file into admitted/completed/lost sets.

        Missing file scans as empty; torn or corrupt lines are counted
        and skipped (the final line of a crashed run is expected to be
        torn sometimes — that is what the CRC framing is for).
        """
        replay = WalReplay()
        path = Path(path)
        if not path.exists():
            return replay
        with open(path, "rb") as handle:
            for line in handle:
                payload = _unframe(line)
                if payload is None:
                    replay.torn_lines += 1
                    continue
                if payload.get("v") != WAL_VERSION:
                    replay.torn_lines += 1
                    continue
                rid = payload.get("id")
                if not isinstance(rid, str):
                    replay.torn_lines += 1
                    continue
                if payload.get("op") == "admit":
                    replay.admitted.setdefault(rid, payload)
                elif payload.get("op") == "done":
                    replay.completed.add(rid)
        return replay
