"""The ``repro client`` helper: a pipelined load generator.

Tests and the CI smoke job need the same thing — open N connections
to a running ``repro serve``, fire a burst of ALIGN requests down
each, and account for every response by id.
:func:`run_load` is that harness; :func:`request_status` is the
one-shot ``STATUS`` probe the smoke job uses for health checks.

The generator is deliberately rude: each connection writes its whole
burst before reading anything (pipelining), which is exactly the
offered-load shape that exercises the server's admission queue and
load shedding.  Responses are matched by request id, never by order,
so shed rejections interleaved with served answers are fine.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from dataclasses import dataclass, field

from repro.serve.protocol import align_request, encode, status_request


@dataclass
class LoadReport:
    """Everything one :func:`run_load` burst produced."""

    sent: int = 0
    ok: dict[str, str] = field(default_factory=dict)
    """Request id -> SAM body line, for every served request."""
    errors: dict[str, dict] = field(default_factory=dict)
    """Request id -> full error payload, for every typed rejection."""
    unanswered: list[str] = field(default_factory=list)
    """Request ids the connection closed on before answering."""
    latencies_ms: list[float] = field(default_factory=list)
    elapsed_s: float = 0.0

    def shed(self, code: str) -> int:
        """How many rejections carried the given typed error code."""
        return sum(
            1 for e in self.errors.values() if e.get("error") == code
        )

    @property
    def shed_total(self) -> int:
        """Total typed rejections of any code."""
        return len(self.errors)

    def merge(self, other: "LoadReport") -> None:
        """Fold another connection's report into this one."""
        self.sent += other.sent
        self.ok.update(other.ok)
        self.errors.update(other.errors)
        self.unanswered.extend(other.unanswered)
        self.latencies_ms.extend(other.latencies_ms)
        self.elapsed_s = max(self.elapsed_s, other.elapsed_s)

    def percentile_ms(self, q: float) -> float:
        """Latency percentile ``q`` in [0, 1] over answered requests."""
        if not self.latencies_ms:
            return 0.0
        ordered = sorted(self.latencies_ms)
        index = min(
            len(ordered) - 1, max(0, round(q * (len(ordered) - 1)))
        )
        return ordered[index]


def _drive_connection(
    host: str,
    port: int,
    items: list[tuple[str, str, str]],
    client: str,
    deadline_ms: int | None,
    timeout_s: float,
    report: LoadReport,
) -> None:
    """Send one connection's burst, then collect one answer per id."""
    started = time.perf_counter()
    try:
        sock = socket.create_connection((host, port), timeout=timeout_s)
    except OSError:
        report.unanswered.extend(rid for rid, _, _ in items)
        return
    try:
        burst = b"".join(
            encode(
                align_request(
                    rid, name, seq, client=client, deadline_ms=deadline_ms
                )
            )
            for rid, name, seq in items
        )
        sent_at = time.perf_counter()
        sock.sendall(burst)
        report.sent = len(items)
        pending = {rid for rid, _, _ in items}
        stream = sock.makefile("rb")
        while pending:
            try:
                line = stream.readline()
            except OSError:
                break
            if not line:
                break
            try:
                message = json.loads(line)
            except json.JSONDecodeError:
                continue
            rid = message.get("id")
            if rid not in pending:
                continue
            pending.discard(rid)
            report.latencies_ms.append(
                1000.0 * (time.perf_counter() - sent_at)
            )
            if message.get("ok"):
                report.ok[rid] = message.get("sam", "")
            else:
                report.errors[rid] = message
        report.unanswered.extend(sorted(pending))
    except OSError:
        pass
    finally:
        try:
            sock.close()
        except OSError:
            pass
        report.elapsed_s = time.perf_counter() - started


def run_load(
    host: str,
    port: int,
    reads: list[tuple[str, str]],
    connections: int = 1,
    client: str = "",
    deadline_ms: int | None = None,
    timeout_s: float = 60.0,
) -> LoadReport:
    """Fire ``reads`` (``(name, seq)`` pairs) at a server; account all.

    Reads are dealt round-robin across ``connections`` sockets; each
    connection pipelines its whole share before reading responses.
    Request ids are ``{client}-{index}`` so every read of the burst is
    individually accountable in the report (and in the server's WAL).
    """
    if connections < 1:
        raise ValueError("connections must be at least 1")
    shares: list[list[tuple[str, str, str]]] = [
        [] for _ in range(connections)
    ]
    for index, (name, seq) in enumerate(reads):
        rid = f"{client or 'load'}-{index}"
        shares[index % connections].append((rid, name, seq))
    reports = [LoadReport() for _ in shares]
    threads = [
        threading.Thread(
            target=_drive_connection,
            args=(host, port, share, client, deadline_ms, timeout_s, rep),
            daemon=True,
        )
        for share, rep in zip(shares, reports)
    ]
    began = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    total = LoadReport()
    for rep in reports:
        total.merge(rep)
    total.elapsed_s = time.perf_counter() - began
    return total


def request_status(
    host: str, port: int, timeout_s: float = 10.0
) -> dict:
    """One-shot ``STATUS`` probe; returns the server's health payload."""
    with socket.create_connection((host, port), timeout=timeout_s) as sock:
        sock.sendall(encode(status_request()))
        stream = sock.makefile("rb")
        line = stream.readline()
    message = json.loads(line)
    if not message.get("ok"):
        raise RuntimeError(f"STATUS failed: {message!r}")
    return message["status"]
