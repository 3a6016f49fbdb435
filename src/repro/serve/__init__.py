"""Alignment-as-a-service: the resident ``repro serve`` subsystem.

The batch CLI pays reference + index setup on every invocation; this
package keeps them resident.  ``repro serve`` preloads the reference
once, listens on a local socket, and micro-batches alignment requests
from many concurrent clients into the existing deferred-extension
wave scheduler (:mod:`repro.aligner.waves`) as one continuous stream.

The robustness envelope is the point, not an afterthought:

* :mod:`repro.serve.protocol` — versioned newline-delimited JSON
  request/response schema with typed error codes;
* :mod:`repro.serve.admission` — a bounded admission queue with
  explicit load shedding (503-style rejection plus a retry-after
  hint) and per-request deadlines enforced *before* a read is ever
  batched into a wave;
* :mod:`repro.serve.quotas` — per-client token-bucket rate limiting;
* :mod:`repro.serve.session` — one client connection's reader loop
  and serialized writer, tolerant of disconnects and stalls;
* :mod:`repro.serve.server` — the resident server: accept loop,
  single batcher thread feeding waves, circuit-breaker-fronted
  dispatch, write-ahead request log
  (:class:`~repro.durability.wal.RequestWAL`), SIGINT/SIGTERM
  graceful drain, and the ``STATUS`` health verb;
* :mod:`repro.serve.client` — the ``repro client`` helper used by
  tests and the CI smoke job as a load generator.

Responses for accepted requests are byte-identical to batch-mode
``repro align`` output for the same reads — the serve leg of the
byte-identity harness (``tests/test_byte_identity.py``) holds the
server to that bar, request by request.  See ``docs/serve.md``.
"""

from __future__ import annotations

from repro.serve.admission import AdmissionQueue, Decision, Ticket
from repro.serve.client import LoadReport, request_status, run_load
from repro.serve.protocol import (
    ERROR_CODES,
    PROTOCOL_VERSION,
    ProtocolError,
    Request,
    parse_request,
)
from repro.serve.quotas import QuotaTable, TokenBucket
from repro.serve.server import AlignmentServer, ServeConfig

__all__ = [
    "AdmissionQueue",
    "AlignmentServer",
    "Decision",
    "ERROR_CODES",
    "LoadReport",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "QuotaTable",
    "Request",
    "ServeConfig",
    "Ticket",
    "TokenBucket",
    "parse_request",
    "request_status",
    "run_load",
]
