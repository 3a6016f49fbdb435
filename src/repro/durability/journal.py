"""The checkpoint journal: completed read windows, committed durably.

A journaled run owns a *run directory*:

```
run-dir/
  manifest.json            # fingerprint + window plan + segment CRCs
  segments/
    window-00000.sam       # SAM body lines of window 0 (no header)
    window-00001.sam
  quarantine.fastq         # poison reads (supervisor, when any)
  quarantine.tsv           # their reasons
  bad_records.tsv          # malformed input records (when quarantined)
```

Each completed window's SAM body is written with the classic durable
sequence — temp file, ``fsync``, atomic ``rename``, directory
``fsync`` — and only then recorded in the manifest (same sequence), so
a crash at any instant leaves either the old manifest or the new one,
never a torn state.  The manifest carries a CRC-32 per segment *and*
one over its own payload; resume re-verifies every segment against its
recorded CRC and silently recomputes any window whose segment is
missing, truncated, or corrupt.

The *fingerprint* pins everything that determines output bytes —
input file hashes, engine recipe, batch size, seeding, bad-record
policy — so ``--resume`` against a drifted configuration is refused
instead of stitching a Frankenstein SAM.  Worker count is deliberately
excluded: windows are the unit of work, so a run interrupted at 4
workers may resume at 1 (or vice versa) with identical output.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro import obs
from repro.constants import ReproError
from repro.genome.sam import SamRecord, write_header
from repro.obs import names

MANIFEST_NAME = "manifest.json"
SEGMENT_DIR = "segments"
MANIFEST_VERSION = 1


class JournalError(ReproError, RuntimeError):
    """The journal refused an operation (mismatch, reuse, torn state)."""


@dataclass(frozen=True)
class SegmentMeta:
    """Manifest entry for one committed window segment."""

    crc: int
    size: int
    records: int


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via tmp + fsync + rename + dir fsync.

    After this returns the bytes are on disk under their final name;
    a crash mid-call leaves either the previous file or nothing, never
    a torn file under ``path``.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_dir(path.parent)


def _fsync_dir(directory: Path) -> None:
    """Flush a directory entry table (best effort off POSIX)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _payload_crc(payload: dict) -> int:
    """CRC-32 over the canonical JSON encoding of ``payload``."""
    blob = json.dumps(payload, sort_keys=True).encode()
    return zlib.crc32(blob) & 0xFFFFFFFF


def payload_crc(payload: dict) -> int:
    """CRC-32 over the canonical (sorted-keys) JSON of ``payload``.

    The journal's own integrity checksum, exposed for other
    subsystems that need a stable fingerprint of a small JSON-able
    config — the index store fingerprints an artifact's reference
    identity and build parameters with it.
    """
    return _payload_crc(payload)


class RunJournal:
    """Checkpoint journal of one alignment run's completed windows."""

    def __init__(
        self,
        run_dir: str | Path,
        fingerprint: dict,
        total_windows: int,
        windows: dict[int, SegmentMeta] | None = None,
    ) -> None:
        self.run_dir = Path(run_dir)
        self.fingerprint = fingerprint
        self.total_windows = int(total_windows)
        self._windows: dict[int, SegmentMeta] = dict(windows or {})

    # -- construction ---------------------------------------------------

    @classmethod
    def create(
        cls, run_dir: str | Path, fingerprint: dict, total_windows: int
    ) -> "RunJournal":
        """Start a fresh journal; refuses a directory that has one.

        An existing manifest means an interrupted run lives here —
        overwriting it silently would destroy resumable work, so the
        caller must either pass ``--resume`` or pick a new directory.
        """
        run_dir = Path(run_dir)
        if (run_dir / MANIFEST_NAME).exists():
            raise JournalError(
                f"{run_dir} already holds a journal manifest; resume it "
                "or choose a fresh --run-dir"
            )
        (run_dir / SEGMENT_DIR).mkdir(parents=True, exist_ok=True)
        journal = cls(run_dir, fingerprint, total_windows)
        journal._write_manifest()
        return journal

    @classmethod
    def resume(
        cls, run_dir: str | Path, fingerprint: dict, total_windows: int
    ) -> tuple["RunJournal", list[int]]:
        """Reopen an interrupted run; returns ``(journal, dropped)``.

        Validates the manifest CRC and the configuration fingerprint,
        then re-verifies every recorded segment on disk; windows whose
        segment is missing or fails its CRC are *dropped* (returned,
        so the caller can report them) and will be recomputed.
        """
        run_dir = Path(run_dir)
        manifest_path = run_dir / MANIFEST_NAME
        if not manifest_path.exists():
            raise JournalError(f"{run_dir} has no journal manifest")
        try:
            wrapper = json.loads(manifest_path.read_text())
            payload = wrapper["payload"]
            crc = wrapper["crc"]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise JournalError(
                f"{manifest_path} is not a journal manifest: {exc}"
            ) from exc
        if _payload_crc(payload) != crc:
            raise JournalError(f"{manifest_path} failed its CRC check")
        if payload.get("version") != MANIFEST_VERSION:
            raise JournalError(
                f"{manifest_path} has unsupported version "
                f"{payload.get('version')!r}"
            )
        if payload.get("fingerprint") != fingerprint:
            raise JournalError(
                "run configuration changed since this journal was "
                "written; resume with the original reference/reads/"
                "engine flags or start a fresh --run-dir"
            )
        if payload.get("total_windows") != total_windows:
            raise JournalError(
                f"window plan changed: journal has "
                f"{payload.get('total_windows')} windows, run needs "
                f"{total_windows}"
            )
        journal = cls(run_dir, fingerprint, total_windows)
        dropped: list[int] = []
        for key, meta in payload.get("windows", {}).items():
            window = int(key)
            meta = SegmentMeta(
                crc=meta["crc"], size=meta["size"], records=meta["records"]
            )
            if journal._segment_intact(window, meta):
                journal._windows[window] = meta
            else:
                dropped.append(window)
                try:
                    journal.segment_path(window).unlink()
                except OSError:
                    pass
        if dropped:
            journal._write_manifest()
        return journal, sorted(dropped)

    # -- state ----------------------------------------------------------

    @property
    def completed(self) -> frozenset[int]:
        """Window indices whose segments are committed and verified."""
        return frozenset(self._windows)

    def is_complete(self) -> bool:
        """Whether every window of the plan has a committed segment."""
        return len(self._windows) == self.total_windows

    def segment_path(self, window: int) -> Path:
        """Path of one window's segment file."""
        return self.run_dir / SEGMENT_DIR / f"window-{window:05d}.sam"

    # -- recording ------------------------------------------------------

    def record(self, window: int, records: Iterable[SamRecord]) -> None:
        """Commit one completed window: segment first, then manifest.

        Idempotent — re-recording a committed window is a no-op, so a
        resumed run racing a late journal entry cannot tear state.
        """
        if not 0 <= window < self.total_windows:
            raise JournalError(
                f"window {window} outside plan of {self.total_windows}"
            )
        if window in self._windows:
            return
        body = "".join(rec.to_line() + "\n" for rec in records).encode()
        n_records = body.count(b"\n")
        atomic_write_bytes(self.segment_path(window), body)
        self._windows[window] = SegmentMeta(
            crc=zlib.crc32(body) & 0xFFFFFFFF,
            size=len(body),
            records=n_records,
        )
        self._write_manifest()
        if obs.enabled():
            reg = obs.get_registry()
            reg.counter(
                names.DURABILITY_WINDOWS_JOURNALED, "windows journaled"
            ).inc()
            reg.counter(
                names.DURABILITY_JOURNAL_BYTES, "segment bytes committed"
            ).inc(len(body))

    # -- stitching ------------------------------------------------------

    def stitch_to(
        self,
        out_path: str | Path,
        reference_name: str,
        reference_length: int,
        program_tags: tuple[str, ...] = (),
    ) -> None:
        """Write the final SAM: header + every segment, in window order.

        Byte-identical to an uninterrupted ``write_sam`` of the same
        records.  The output itself is written atomically, so ``--out``
        never holds a half-stitched file.
        """
        if not self.is_complete():
            missing = sorted(
                set(range(self.total_windows)) - set(self._windows)
            )
            raise JournalError(
                f"cannot stitch: {len(missing)} window(s) incomplete "
                f"(first missing: {missing[0]})"
            )
        import io

        head = io.StringIO()
        write_header(
            head, reference_name, reference_length,
            program_tags=program_tags,
        )
        parts = [head.getvalue().encode()]
        for window in range(self.total_windows):
            data = self.segment_path(window).read_bytes()
            meta = self._windows[window]
            if (zlib.crc32(data) & 0xFFFFFFFF) != meta.crc:
                raise JournalError(
                    f"segment for window {window} failed its CRC at "
                    "stitch time"
                )
            parts.append(data)
        atomic_write_bytes(Path(out_path), b"".join(parts))

    # -- internals ------------------------------------------------------

    def _segment_intact(self, window: int, meta: SegmentMeta) -> bool:
        path = self.segment_path(window)
        try:
            data = path.read_bytes()
        except OSError:
            return False
        return (
            len(data) == meta.size
            and (zlib.crc32(data) & 0xFFFFFFFF) == meta.crc
        )

    def _write_manifest(self) -> None:
        payload = {
            "version": MANIFEST_VERSION,
            "fingerprint": self.fingerprint,
            "total_windows": self.total_windows,
            "windows": {
                str(window): {
                    "crc": meta.crc,
                    "size": meta.size,
                    "records": meta.records,
                }
                for window, meta in sorted(self._windows.items())
            },
        }
        wrapper = {"payload": payload, "crc": _payload_crc(payload)}
        atomic_write_bytes(
            self.run_dir / MANIFEST_NAME,
            json.dumps(wrapper, sort_keys=True, indent=1).encode(),
        )
