"""The typed error set of the persistent index store.

Every way an index artifact can fail to load has its own exception
class, so callers (the CLI load ladder, the resume check, shard
workers) can react precisely instead of pattern-matching strings —
and so the corruption chaos suite can assert that each injected fault
surfaces as exactly the right type.  All of them are picklable (they
cross process boundaries when a spawn worker refuses an artifact) and
carry structured location data where it exists.

The hierarchy:

* :class:`IndexArtifactError` — the common base; "this artifact is
  unusable", never "the answer is approximate".
* :class:`IndexVersionError` — wrong magic or an unsupported schema
  version: the file is from a different era (or is not an index
  artifact at all) and *might be valid for other code*, so it is
  never overwritten implicitly.
* :class:`IndexCorruptError` — the bytes are damaged: a CRC mismatch,
  truncation, or an impossible section table.  Carries ``section``
  and ``offset`` naming where the damage was detected.
* :class:`IndexDriftError` — the artifact is internally intact but
  does not describe *this* run: reference payload CRC or build
  parameters differ from what the caller is aligning against.
* :class:`IndexMissingError` — the artifact vanished (e.g. between
  shard dispatch and a worker's open); also an ``OSError`` so generic
  file-handling code keeps working.
"""

from __future__ import annotations

from repro.constants import ReproError


class IndexArtifactError(ReproError, RuntimeError):
    """Base: the index artifact cannot be used for this run."""


class IndexVersionError(IndexArtifactError):
    """Wrong magic bytes or an unsupported schema version."""

    def __init__(
        self, message: str, found: object = None, expected: object = None
    ) -> None:
        super().__init__(message)
        self.found = found
        self.expected = expected

    def __reduce__(self):
        """Pickle support (typed errors cross worker boundaries)."""
        return (type(self), (self.args[0], self.found, self.expected))


class IndexCorruptError(IndexArtifactError):
    """Damaged bytes: CRC mismatch, truncation, or a torn table.

    ``section`` names the artifact section where the damage was
    detected (``"header"`` for the envelope itself); ``offset`` is the
    file offset of that section's first byte, when known.
    """

    def __init__(
        self,
        message: str,
        section: str | None = None,
        offset: int | None = None,
    ) -> None:
        super().__init__(message)
        self.section = section
        self.offset = offset

    def __reduce__(self):
        """Pickle support (typed errors cross worker boundaries)."""
        return (type(self), (self.args[0], self.section, self.offset))


class IndexDriftError(IndexArtifactError):
    """Intact artifact, wrong world: reference or params mismatch.

    ``field`` names the first mismatching header field (e.g.
    ``"reference_crc"``, ``"k"``).
    """

    def __init__(
        self,
        message: str,
        field: str | None = None,
        found: object = None,
        expected: object = None,
    ) -> None:
        super().__init__(message)
        self.field = field
        self.found = found
        self.expected = expected

    def __reduce__(self):
        """Pickle support (typed errors cross worker boundaries)."""
        return (
            type(self),
            (self.args[0], self.field, self.found, self.expected),
        )


class IndexMissingError(IndexArtifactError, OSError):
    """The artifact file is gone (or was never built).

    Raised with the path it expected, so a shard worker that loses the
    artifact between dispatch and open fails with a typed, actionable
    message instead of a raw ``FileNotFoundError`` traceback from deep
    inside numpy.
    """

    def __init__(self, message: str, path: str | None = None) -> None:
        super().__init__(message)
        self.path = path

    def __reduce__(self):
        """Pickle support (typed errors cross worker boundaries)."""
        return (type(self), (self.args[0], self.path))
