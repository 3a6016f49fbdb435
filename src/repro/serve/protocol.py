"""The serve wire protocol: versioned newline-delimited JSON.

One request or response per line, UTF-8 JSON, ``\\n`` terminated.
Every message carries ``v`` (the protocol version) and requests carry
a ``verb``; unknown versions and verbs are rejected with a typed
error rather than a dropped connection, so old clients fail loudly.

Request verbs::

    {"v": 1, "verb": "ALIGN", "id": "r1", "client": "c1",
     "name": "read0001", "seq": "ACGT...", "deadline_ms": 500}
    {"v": 1, "verb": "STATUS", "id": "s1"}
    {"v": 1, "verb": "PING", "id": "p1"}

Responses mirror the request ``id``::

    {"v": 1, "id": "r1", "ok": true, "sam": "read0001\\t0\\t..."}
    {"v": 1, "id": "r1", "ok": false, "error": "overloaded",
     "message": "...", "retry_after_ms": 40}

``sam`` is the read's SAM body line exactly as batch-mode
``repro align`` would emit it — byte-identity with the batch path is
the server's correctness contract.  Error codes are the closed set
:data:`ERROR_CODES`; clients switch on the code, never the message.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

PROTOCOL_VERSION = 1
"""Wire protocol version; bumped only on incompatible changes."""

MAX_LINE_BYTES = 1 << 20
"""Hard per-line size cap — a runaway client cannot balloon memory."""

VERB_ALIGN = "ALIGN"
VERB_STATUS = "STATUS"
VERB_PING = "PING"

VERBS = (VERB_ALIGN, VERB_STATUS, VERB_PING)
"""Every verb the server understands."""

# -- typed error codes (the closed rejection vocabulary) ----------------

E_OVERLOADED = "overloaded"
"""Admission queue full; retry after the hint."""

E_QUOTA = "quota_exceeded"
"""The client's token bucket is empty; retry after the hint."""

E_DEADLINE = "deadline_exceeded"
"""The request expired in the queue before it was batched."""

E_BREAKER_OPEN = "breaker_open"
"""The engine circuit breaker is open; the kernel is degraded."""

E_DRAINING = "draining"
"""The server is shutting down gracefully and admits nothing new."""

E_BAD_REQUEST = "bad_request"
"""The request failed schema validation."""

E_ENGINE = "engine_error"
"""The wave that carried this request raised; nothing was returned."""

ERROR_CODES = (
    E_OVERLOADED,
    E_QUOTA,
    E_DEADLINE,
    E_BREAKER_OPEN,
    E_DRAINING,
    E_BAD_REQUEST,
    E_ENGINE,
)
"""The closed set of typed rejection codes."""

VALID_BASES = frozenset("ACGTNacgtn")
"""Characters an ALIGN request's ``seq`` may contain."""


class ProtocolError(ValueError):
    """A message violated the wire schema (carries the typed code)."""

    def __init__(self, message: str, code: str = E_BAD_REQUEST) -> None:
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class Request:
    """One parsed, validated request line."""

    verb: str
    id: str
    client: str = ""
    name: str = ""
    seq: str = ""
    deadline_ms: int | None = None
    raw: dict = field(default_factory=dict, repr=False, compare=False)


def parse_request(line: str | bytes) -> Request:
    """Parse and validate one request line; raises :class:`ProtocolError`.

    Validation is strict: version and verb must be known, ``id`` must
    be a non-empty string, and an ``ALIGN`` request needs a read name
    and a non-empty DNA sequence.  The error message never echoes the
    sequence back (responses must stay small under abuse).
    """
    if isinstance(line, bytes):
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError("request line exceeds the size cap")
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"request is not UTF-8: {exc}") from exc
    elif len(line) > MAX_LINE_BYTES:
        raise ProtocolError("request line exceeds the size cap")
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"request is not JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError("request must be a JSON object")
    version = payload.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version!r} (this server "
            f"speaks v{PROTOCOL_VERSION})"
        )
    verb = payload.get("verb")
    if verb not in VERBS:
        raise ProtocolError(f"unknown verb {verb!r}")
    rid = payload.get("id")
    if not isinstance(rid, str) or not rid:
        raise ProtocolError("request needs a non-empty string 'id'")
    client = payload.get("client", "")
    if not isinstance(client, str):
        raise ProtocolError("'client' must be a string")
    deadline_ms = payload.get("deadline_ms")
    if deadline_ms is not None:
        if not isinstance(deadline_ms, int) or deadline_ms < 1:
            raise ProtocolError("'deadline_ms' must be a positive int")
    name = payload.get("name", "")
    seq = payload.get("seq", "")
    if verb == VERB_ALIGN:
        if not isinstance(name, str) or not name:
            raise ProtocolError("ALIGN needs a non-empty 'name'")
        if not isinstance(seq, str) or not seq:
            raise ProtocolError("ALIGN needs a non-empty 'seq'")
        if not VALID_BASES.issuperset(seq):
            raise ProtocolError("'seq' contains non-ACGTN characters")
    return Request(
        verb=verb,
        id=rid,
        client=client,
        name=name,
        seq=seq,
        deadline_ms=deadline_ms,
        raw=payload,
    )


def encode(message: dict) -> bytes:
    """Render one response/request dict as a terminated wire line."""
    return (json.dumps(message, sort_keys=True) + "\n").encode("utf-8")


def align_request(
    rid: str,
    name: str,
    seq: str,
    client: str = "",
    deadline_ms: int | None = None,
) -> dict:
    """Build an ``ALIGN`` request dict (the client helper's shape)."""
    payload: dict = {
        "v": PROTOCOL_VERSION,
        "verb": VERB_ALIGN,
        "id": rid,
        "name": name,
        "seq": seq,
    }
    if client:
        payload["client"] = client
    if deadline_ms is not None:
        payload["deadline_ms"] = int(deadline_ms)
    return payload


def status_request(rid: str = "status") -> dict:
    """Build a ``STATUS`` request dict."""
    return {"v": PROTOCOL_VERSION, "verb": VERB_STATUS, "id": rid}


def ok_align(rid: str, sam_line: str) -> dict:
    """A successful ``ALIGN`` response carrying the SAM body line."""
    return {"v": PROTOCOL_VERSION, "id": rid, "ok": True, "sam": sam_line}


def ok_status(rid: str, status: dict) -> dict:
    """A ``STATUS`` response carrying the health snapshot."""
    return {"v": PROTOCOL_VERSION, "id": rid, "ok": True, "status": status}


def ok_pong(rid: str) -> dict:
    """A ``PING`` response."""
    return {"v": PROTOCOL_VERSION, "id": rid, "ok": True, "pong": True}


def error(
    rid: str | None,
    code: str,
    message: str,
    retry_after_ms: int | None = None,
) -> dict:
    """A typed rejection; ``retry_after_ms`` hints shed/quota retries."""
    if code not in ERROR_CODES:
        raise ValueError(f"unknown error code {code!r}")
    payload: dict = {
        "v": PROTOCOL_VERSION,
        "id": rid,
        "ok": False,
        "error": code,
        "message": message,
    }
    if retry_after_ms is not None:
        payload["retry_after_ms"] = max(0, int(retry_after_ms))
    return payload
