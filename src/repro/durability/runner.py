"""The journaled run driver: windowing, resume, graceful shutdown.

This is the piece the CLI's durable path (``align --run-dir``) calls
into.  It owns the lifecycle of one run directory:

1. fingerprint the configuration (:func:`run_fingerprint`) so a resume
   against drifted inputs or engine flags is refused;
2. create or resume the :class:`~repro.durability.journal.RunJournal`
   for the window plan;
3. drive :func:`~repro.aligner.parallel.align_supervised` with the
   journal, a :class:`~repro.durability.supervisor.Quarantine` rooted
   in the run directory, and a stop predicate (typically a
   :class:`GracefulShutdown`);
4. stitch the final SAM from the journal when every window committed,
   or raise :class:`RunInterrupted` with a resume hint when the run
   drained early.

The stitched output is byte-identical to an uninterrupted run — the
acceptance bar the kill/resume suites and the CI ``durability`` job
hold it to.
"""

from __future__ import annotations

import dataclasses
import hashlib
import signal
from dataclasses import dataclass, field
from pathlib import Path

from repro.durability.journal import RunJournal

_FINGERPRINT_VERSION = 2


class RunInterrupted(RuntimeError):
    """A graceful shutdown drained the run before it finished.

    Carries the run directory and progress so the caller (the CLI)
    can print a resume hint instead of a stack trace; the journal in
    ``run_dir`` already holds every completed window.
    """

    def __init__(self, run_dir: Path, done: int, total: int) -> None:
        self.run_dir = Path(run_dir)
        self.done = done
        self.total = total
        super().__init__(
            f"interrupted after {done}/{total} windows; resume with "
            f"--resume --run-dir {self.run_dir}"
        )


class GracefulShutdown:
    """Context manager turning SIGINT/SIGTERM into a drain request.

    Inside the ``with`` block the first signal sets the flag (the
    supervisor polls it via ``should_stop`` and drains the in-flight
    wave); a second signal restores the previous handler's behaviour,
    so an impatient double Ctrl-C still kills the process.  The
    instance itself is the stop predicate: ``bool(shutdown())``.
    """

    def __init__(
        self, signals: tuple[int, ...] = (signal.SIGINT, signal.SIGTERM)
    ) -> None:
        self.signals = signals
        self.requested = False
        self.signal_number: int | None = None
        self._previous: dict[int, object] = {}

    def __call__(self) -> bool:
        """Whether a drain has been requested (the stop predicate)."""
        return self.requested

    def __enter__(self) -> "GracefulShutdown":
        """Install the drain handlers, remembering the old ones."""
        for signum in self.signals:
            self._previous[signum] = signal.signal(signum, self._handle)
        return self

    def __exit__(self, *exc_info) -> None:
        """Restore the previous signal handlers."""
        for signum, handler in self._previous.items():
            signal.signal(signum, handler)
        self._previous.clear()

    def _handle(self, signum, frame) -> None:
        if self.requested:
            # Second signal: stop shielding, defer to the old handler.
            previous = self._previous.get(signum)
            signal.signal(signum, previous)
            raise KeyboardInterrupt
        self.requested = True
        self.signal_number = signum


def _file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def run_fingerprint(
    reference_path: str | Path,
    reads_path: str | Path,
    spec,
    batch_size: int,
    seeding: str,
    on_bad_record: str = "fail",
    index_fingerprint: str | None = None,
) -> dict:
    """The configuration fingerprint pinned into a journal manifest.

    Hashes the input *contents* (not paths — a moved file still
    resumes) and records every engine/windowing flag that shapes the
    output bytes.  Worker count and supervision knobs are deliberately
    absent: windows are the unit of work, so a run may resume at a
    different parallelism with identical output.  ``spec`` is an
    :class:`~repro.aligner.engines.EngineSpec`.

    ``index_fingerprint`` is the content fingerprint of the persistent
    index artifact the run seeds from (``None`` when seeding
    structures are built in-process).  Pinning it means ``--resume``
    refuses a drifted or swapped index — while a deleted-and-rebuilt
    artifact with identical content still resumes, because the
    fingerprint is content-addressed, not path- or mtime-based.
    """
    return {
        "version": _FINGERPRINT_VERSION,
        "reference_sha256": _file_sha256(reference_path),
        "reads_sha256": _file_sha256(reads_path),
        "engine": dataclasses.asdict(spec),
        "batch_size": int(batch_size),
        "seeding": seeding,
        "on_bad_record": on_bad_record,
        "index": index_fingerprint,
    }


@dataclass
class RunReport:
    """What one :func:`run_journaled` call accomplished."""

    run_dir: Path
    total_windows: int
    skipped_windows: int = 0
    dropped_windows: list[int] = field(default_factory=list)
    restarts: int = 0
    quarantined: list[str] = field(default_factory=list)
    resumed: bool = False


def run_journaled(
    run_dir: str | Path,
    reference,
    reads,
    fingerprint: dict,
    out_path: str | Path,
    reference_name: str,
    spec=None,
    workers: int = 1,
    batch_size: int = 4096,
    resume: bool = False,
    policy=None,
    poison=None,
    should_stop=None,
    start_method: str | None = None,
    program_tags: tuple[str, ...] = (),
    recipe=None,
    **aligner_options,
) -> RunReport:
    """Drive one journaled, supervised alignment run to a stitched SAM.

    Creates (or, with ``resume=True``, reopens and validates) the
    journal in ``run_dir``, aligns the missing windows under the shard
    supervisor, and stitches ``out_path`` from the journal when the
    plan is complete.  Raises :class:`RunInterrupted` if ``should_stop``
    drained the run first — everything finished so far is journaled and
    a later call with ``resume=True`` picks up where this one stopped.

    ``reads`` are ``(name, codes)`` pairs (or ``SimulatedRead``-like
    objects); ``program_tags`` extends the stitched SAM's ``@PG`` line;
    all other knobs are forwarded to
    :func:`~repro.aligner.parallel.align_supervised`: a worker
    ``recipe``, or ``spec`` and the aligner options (``reference_name``
    defaulting to this run's).
    """
    from repro.aligner.parallel import align_supervised
    from repro.aligner.waves import normalize_reads
    from repro.durability.supervisor import Quarantine

    run_dir = Path(run_dir)
    normalized = normalize_reads(reads)
    if batch_size < 1:
        raise ValueError("batch size must be at least 1")
    total_windows = max(
        1, -(-len(normalized) // batch_size)
    ) if normalized else 0
    if resume:
        journal, dropped = RunJournal.resume(
            run_dir, fingerprint, total_windows
        )
    else:
        journal = RunJournal.create(run_dir, fingerprint, total_windows)
        dropped = []
    skipped = len(journal.completed)
    quarantine = Quarantine(run_dir)
    if recipe is None:
        aligner_options.setdefault("reference_name", reference_name)

    result = align_supervised(
        reference,
        normalized,
        spec=spec,
        workers=workers,
        batch_size=batch_size,
        policy=policy,
        poison=poison,
        quarantine=quarantine,
        journal=journal,
        should_stop=should_stop,
        start_method=start_method,
        recipe=recipe,
        **aligner_options,
    )
    if result.interrupted or not journal.is_complete():
        raise RunInterrupted(
            run_dir, done=len(journal.completed), total=total_windows
        )
    journal.stitch_to(
        out_path, reference_name, len(reference),
        program_tags=program_tags,
    )
    return RunReport(
        run_dir=run_dir,
        total_windows=total_windows,
        skipped_windows=skipped,
        dropped_windows=dropped,
        restarts=result.restarts,
        quarantined=list(result.quarantined),
        resumed=resume,
    )
