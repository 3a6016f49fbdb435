"""The resident alignment server behind ``repro serve``.

One process owns the preloaded reference and index; many clients
stream ALIGN requests at it over a local TCP socket.  Threads:

* an **accept** thread hands each connection a
  :class:`~repro.serve.session.ClientSession` and a reader thread;
* **reader** threads parse frames and run the cheap fast path —
  quota draw, WAL admit, bounded-queue admission — answering every
  rejection inline in microseconds;
* a single **batcher** thread pops micro-batches
  (:class:`~repro.serve.admission.MicroBatchPolicy`), drops expired
  tickets before they cost a wave, and feeds survivors through the
  existing wave scheduler (:func:`repro.aligner.waves.align_window`),
  answering each request from the per-read completion callback.

Degradation is always explicit and typed: overload sheds with
``overloaded`` + a retry-after hint, an empty token bucket sheds with
``quota_exceeded``, a queue-expired deadline answers
``deadline_exceeded``, an open circuit breaker answers
``breaker_open`` instead of piling waves onto a failing kernel, and a
drain answers ``draining``.  Admitted requests are written ahead to
the request WAL (:class:`~repro.durability.wal.RequestWAL`) so a
crashed server names exactly what it lost.  Accepted responses carry
the same SAM body line batch-mode ``repro align`` would emit —
byte-identical, enforced by ``tests/serve``.
"""

from __future__ import annotations

import itertools
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro import obs
from repro.aligner.waves import align_window
from repro.durability.breaker import BreakerPolicy, CircuitBreaker
from repro.durability.runner import GracefulShutdown
from repro.durability.wal import WAL_NAME, RequestWAL
from repro.genome.sequence import encode as encode_seq
from repro.obs import names as mn
from repro.serve.admission import (
    DEFAULT_CAPACITY,
    AdmissionQueue,
    MicroBatchPolicy,
    Ticket,
)
from repro.serve.protocol import (
    E_BAD_REQUEST,
    E_BREAKER_OPEN,
    E_DEADLINE,
    E_ENGINE,
    E_OVERLOADED,
    E_QUOTA,
    PROTOCOL_VERSION,
    VERB_PING,
    VERB_STATUS,
    error,
    ok_align,
    ok_pong,
    ok_status,
)
from repro.serve.quotas import QuotaTable
from repro.serve.session import ClientSession


@dataclass
class ServeConfig:
    """Everything ``repro serve`` exposes as flags, in one place."""

    host: str = "127.0.0.1"
    port: int = 0
    """0 binds an ephemeral port; read it back from ``port_file``."""
    port_file: str | None = None
    queue_capacity: int = DEFAULT_CAPACITY
    high_water: int | None = None
    max_batch: int = 64
    linger_ms: float = 20.0
    default_deadline_ms: int | None = None
    """Deadline applied to requests that do not carry their own."""
    quota_rate: float | None = None
    """Per-client tokens per second; ``None`` disables quotas."""
    quota_burst: float | None = None
    wal_dir: str | None = None
    breaker_threshold: int = 5
    breaker_probe_interval: int = 32


class ServerStats:
    """The server's authoritative counters, behind one lock.

    The obs registry's counters are not thread-safe, so the server
    keeps its own books and mirrors every increment to the registry
    *inside* this lock — ``STATUS`` reads here, dashboards read there,
    and the two agree.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.requests: dict[str, int] = {}
        self.shed: dict[str, int] = {}
        self.admitted = 0
        self.served = 0
        self.timeouts = 0
        self.engine_errors = 0
        self.disconnects = 0
        self.waves = 0
        self.reads_batched = 0

    def _mirror(self, name: str, help_text: str, amount: int, **labels):
        if obs.enabled():
            obs.get_registry().counter(name, help_text, **labels).inc(amount)

    def count_request(self, verb: str) -> None:
        """One parsed request arrived."""
        with self._lock:
            self.requests[verb] = self.requests.get(verb, 0) + 1
            self._mirror(
                mn.SERVE_REQUESTS_TOTAL, "requests by verb", 1, verb=verb
            )

    def count_shed(self, reason: str) -> None:
        """One request rejected before batching (typed reason)."""
        with self._lock:
            self.shed[reason] = self.shed.get(reason, 0) + 1
            self._mirror(
                mn.SERVE_REQUESTS_SHED, "requests shed", 1, reason=reason
            )

    def count_admitted(self) -> None:
        """One ALIGN request entered the queue."""
        with self._lock:
            self.admitted += 1

    def count_served(self, latency_s: float, sent: bool) -> None:
        """One ALIGN request answered with a SAM line."""
        with self._lock:
            self.served += 1
            self._mirror(mn.SERVE_REQUESTS_SERVED, "requests served", 1)
            if not sent:
                self.disconnects += 1
                self._mirror(
                    mn.SERVE_CLIENT_DISCONNECTS, "client disconnects", 1
                )
            if obs.enabled():
                obs.get_registry().histogram(
                    mn.SERVE_REQUEST_SECONDS, "request latency"
                ).observe(latency_s)

    def count_timeout(self) -> None:
        """One admitted request expired before batching."""
        with self._lock:
            self.timeouts += 1
            self._mirror(mn.SERVE_REQUESTS_TIMEOUT, "deadline drops", 1)

    def count_engine_error(self, reads: int) -> None:
        """One wave raised; its requests were answered with a typed error."""
        with self._lock:
            self.engine_errors += reads

    def count_wave(self, reads: int, depth: int) -> None:
        """One micro-batch wave dispatched."""
        with self._lock:
            self.waves += 1
            self.reads_batched += reads
            if obs.enabled():
                reg = obs.get_registry()
                reg.histogram(
                    mn.SERVE_BATCH_READS, "reads per server wave"
                ).observe(reads)
                reg.gauge(
                    mn.SERVE_QUEUE_DEPTH, "admission queue depth"
                ).set(depth)

    def count_wal(self, op: str) -> None:
        """One WAL record appended."""
        with self._lock:
            self._mirror(mn.SERVE_WAL_RECORDS, "WAL records", 1, op=op)

    def snapshot(self) -> dict:
        """A consistent copy of every counter (the STATUS payload)."""
        with self._lock:
            return {
                "requests": dict(self.requests),
                "shed": dict(self.shed),
                "admitted": self.admitted,
                "served": self.served,
                "timeouts": self.timeouts,
                "engine_errors": self.engine_errors,
                "disconnects": self.disconnects,
                "waves": self.waves,
                "reads_batched": self.reads_batched,
            }


class AlignmentServer:
    """The resident server: accept, admit, batch, answer, drain."""

    def __init__(
        self,
        aligner,
        config: ServeConfig | None = None,
        clock=time.monotonic,
    ) -> None:
        self.aligner = aligner
        self.config = config or ServeConfig()
        self.clock = clock
        self.policy = MicroBatchPolicy(
            max_batch=self.config.max_batch,
            linger_ms=self.config.linger_ms,
        )
        self.queue = AdmissionQueue(
            capacity=self.config.queue_capacity,
            high_water=self.config.high_water,
        )
        self.quotas = QuotaTable(
            self.config.quota_rate, self.config.quota_burst
        )
        self.breaker = CircuitBreaker(
            BreakerPolicy(
                failure_threshold=self.config.breaker_threshold,
                probe_interval=self.config.breaker_probe_interval,
            ),
            registry=obs.get_registry() if obs.enabled() else None,
        )
        self.stats = ServerStats()
        self.fault_plan = None
        """Optional :class:`repro.faults.netfaults.NetFaultPlan` applied
        to every new session (the chaos seam)."""
        self.wal: RequestWAL | None = None
        self.lost_on_restart: list[dict] = []
        self.port: int | None = None
        self._listen: socket.socket | None = None
        self._sessions: dict[int, ClientSession] = {}
        self._sessions_lock = threading.Lock()
        self._session_ids = itertools.count(1)
        self._batcher: threading.Thread | None = None
        self._accepter: threading.Thread | None = None
        self._started_at: float = 0.0
        self._ema_read_s: float | None = None
        self._drained = threading.Event()

    # -- lifecycle ------------------------------------------------------

    def start(self) -> int:
        """Bind, recover the previous WAL, spin up threads; returns port."""
        cfg = self.config
        if cfg.wal_dir is not None:
            prior = Path(cfg.wal_dir) / WAL_NAME
            replay = RequestWAL.scan(prior)
            self.lost_on_restart = replay.lost
            self.wal = RequestWAL.open_dir(cfg.wal_dir)
        listen = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listen.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listen.bind((cfg.host, cfg.port))
        listen.listen(128)
        self._listen = listen
        self.port = listen.getsockname()[1]
        if cfg.port_file:
            Path(cfg.port_file).write_text(f"{self.port}\n")
        self._started_at = self.clock()
        self._batcher = threading.Thread(
            target=self._batcher_loop, name="serve-batcher", daemon=True
        )
        self._batcher.start()
        self._accepter = threading.Thread(
            target=self._accept_loop, name="serve-accept", daemon=True
        )
        self._accepter.start()
        return self.port

    def serve_forever(self, poll_s: float = 0.05) -> int:
        """Block until SIGINT/SIGTERM, then drain gracefully; exit 0.

        The first signal stops admission and lets the batcher flush
        every in-flight and queued request (stragglers get answers);
        a second signal falls through to the previous handler.
        """
        with GracefulShutdown() as shutdown:
            while not shutdown() and not self._drained.is_set():
                time.sleep(poll_s)
        self.shutdown()
        return 0

    def drain(self) -> None:
        """Stop admitting; new ALIGNs get typed ``draining`` answers."""
        self.queue.close()

    def shutdown(self, timeout_s: float = 30.0) -> None:
        """Drain, flush the batcher, answer stragglers, tear down."""
        self.drain()
        listen, self._listen = self._listen, None
        if listen is not None:
            try:
                listen.close()
            except OSError:
                pass
        if self._batcher is not None:
            self._batcher.join(timeout=timeout_s)
        with self._sessions_lock:
            sessions = list(self._sessions.values())
        for session in sessions:
            session.close()
        if self.wal is not None:
            self.wal.sync()
            self.wal.close()

    @property
    def draining(self) -> bool:
        """Whether admission has been closed."""
        return self.queue.closed

    # -- accept / reader side -------------------------------------------

    def _accept_loop(self) -> None:
        """Accept connections until the listen socket is torn down."""
        while True:
            listen = self._listen
            if listen is None:
                return
            try:
                conn, addr = listen.accept()
            except OSError:
                return
            session = ClientSession(
                conn, peer=f"{addr[0]}:{addr[1]}",
                session_id=next(self._session_ids),
            )
            session.fault_plan = self.fault_plan
            with self._sessions_lock:
                self._sessions[session.session_id] = session
                active = len(self._sessions)
            self._set_active_gauge(active)
            threading.Thread(
                target=self._client_loop,
                args=(session,),
                name=f"serve-client-{session.session_id}",
                daemon=True,
            ).start()

    def _client_loop(self, session: ClientSession) -> None:
        """Run one connection's reader; always unregisters on exit."""
        try:
            session.run_reader(self._on_request, self._on_protocol_error)
        finally:
            with self._sessions_lock:
                self._sessions.pop(session.session_id, None)
                active = len(self._sessions)
            self._set_active_gauge(active)
            session.close()

    def _set_active_gauge(self, active: int) -> None:
        if obs.enabled():
            obs.get_registry().gauge(
                mn.SERVE_CLIENTS_ACTIVE, "open client connections"
            ).set(active)

    def _on_protocol_error(self, session: ClientSession, exc) -> None:
        """Answer a malformed frame with a typed ``bad_request``."""
        self.stats.count_shed(E_BAD_REQUEST)
        session.send(error(None, E_BAD_REQUEST, str(exc)))

    def _on_request(self, session: ClientSession, request) -> None:
        """The reader-thread fast path: answer or admit, never block."""
        self.stats.count_request(request.verb)
        if request.verb == VERB_PING:
            session.send(ok_pong(request.id))
            return
        if request.verb == VERB_STATUS:
            session.send(ok_status(request.id, self.status()))
            return
        # ALIGN.
        now = self.clock()
        quota = self.quotas.take(request.client, now)
        if not quota.allowed:
            self.stats.count_shed(E_QUOTA)
            session.send(
                error(
                    request.id,
                    E_QUOTA,
                    f"client {request.client or '<anonymous>'!r} is "
                    "over its request quota",
                    retry_after_ms=quota.retry_after_ms,
                )
            )
            return
        wal_seq = None
        if self.wal is not None:
            wal_seq = self.wal.admit(
                request.id, request.client, request.name
            )
            self.stats.count_wal("admit")
        deadline_ms = request.deadline_ms
        if deadline_ms is None:
            deadline_ms = self.config.default_deadline_ms
        ticket = Ticket(
            request=request,
            session=session,
            admitted_at=now,
            deadline=(
                now + deadline_ms / 1000.0
                if deadline_ms is not None
                else None
            ),
            wal_seq=wal_seq,
        )
        decision = self.queue.try_admit(ticket)
        if decision.admitted:
            self.stats.count_admitted()
            return
        # Shed: the request never consumed queue space, so retire its
        # WAL record immediately — a shed request is answered, not lost.
        self._wal_done(request.id)
        self.stats.count_shed(decision.code)
        retry = None
        if decision.code == E_OVERLOADED:
            retry = self._retry_hint(decision.depth)
            message = (
                f"admission queue at high-water mark "
                f"({decision.depth}/{self.queue.high_water})"
            )
        else:
            message = "server is draining; no new requests admitted"
        session.send(
            error(request.id, decision.code, message, retry_after_ms=retry)
        )

    def _retry_hint(self, depth: int) -> int:
        """Expected queue drain time at ``depth``, in milliseconds."""
        per_read = self._ema_read_s if self._ema_read_s else 0.02
        return max(1, min(5000, int(1000.0 * per_read * max(1, depth))))

    # -- batcher side ---------------------------------------------------

    def _batcher_loop(self) -> None:
        """Pop waves until drained; the only thread touching the engine."""
        while True:
            wave = self.queue.pop_wave(
                self.policy.max_batch, self.policy.linger_s, self.clock
            )
            if wave.closed:
                break
            for ticket in wave.expired:
                self.stats.count_timeout()
                self._finish_error(
                    ticket,
                    E_DEADLINE,
                    "deadline expired before the request was batched",
                )
            if wave.batch:
                self._run_wave(wave.batch)
            if self.wal is not None:
                self.wal.sync()
        self._drained.set()

    def _run_wave(self, tickets: list[Ticket]) -> None:
        """Align one micro-batch behind the circuit breaker."""
        self.stats.count_wave(len(tickets), self.queue.depth())
        if not self.breaker.allow():
            for ticket in tickets:
                self.stats.count_shed(E_BREAKER_OPEN)
                self._finish_error(
                    ticket,
                    E_BREAKER_OPEN,
                    "alignment engine circuit breaker is open",
                    retry_after_ms=250,
                )
            return
        window = [
            (t.request.name, encode_seq(t.request.seq.upper()))
            for t in tickets
        ]
        began = self.clock()
        try:
            align_window(
                self.aligner,
                window,
                on_record=lambda i, record: self._finish_ok(
                    tickets[i], record
                ),
            )
        except Exception as exc:  # noqa: BLE001 — wave must not kill serve
            self.breaker.record_failure()
            self.stats.count_engine_error(len(tickets))
            for ticket in tickets:
                self._finish_error(
                    ticket,
                    E_ENGINE,
                    f"wave failed: {type(exc).__name__}: {exc}",
                )
            return
        self.breaker.record_success()
        per_read = (self.clock() - began) / max(1, len(tickets))
        if self._ema_read_s is None:
            self._ema_read_s = per_read
        else:
            self._ema_read_s = 0.8 * self._ema_read_s + 0.2 * per_read

    def _finish_ok(self, ticket: Ticket, record) -> None:
        """Answer one served request; retire its WAL record after."""
        sent = ticket.session.send(
            ok_align(ticket.request.id, record.to_line())
        )
        self._wal_done(ticket.request.id)
        self.stats.count_served(
            self.clock() - ticket.admitted_at, sent=sent
        )

    def _finish_error(
        self,
        ticket: Ticket,
        code: str,
        message: str,
        retry_after_ms: int | None = None,
    ) -> None:
        """Answer one admitted-then-rejected request; retire its WAL."""
        ticket.session.send(
            error(
                ticket.request.id,
                code,
                message,
                retry_after_ms=retry_after_ms,
            )
        )
        self._wal_done(ticket.request.id)

    def _wal_done(self, rid: str) -> None:
        if self.wal is not None:
            self.wal.done(rid)
            self.stats.count_wal("done")

    # -- health ---------------------------------------------------------

    def status(self) -> dict:
        """The ``STATUS`` payload: state, queue, breaker, counters.

        ``index`` names the persistent index artifact the aligner
        seeds from (fingerprint, schema, mode), or ``None`` when the
        seeding structures were built in-process — so operators can
        confirm *which* index a resident server is answering with.
        """
        return {
            "protocol": PROTOCOL_VERSION,
            "index": getattr(self.aligner, "index_meta", None),
            "state": "draining" if self.queue.closed else "serving",
            "uptime_s": round(self.clock() - self._started_at, 3),
            "queue_depth": self.queue.depth(),
            "queue_capacity": self.queue.capacity,
            "high_water": self.queue.high_water,
            "max_batch": self.policy.max_batch,
            "linger_ms": self.policy.linger_ms,
            "breaker": self.breaker.state,
            "quotas_enabled": self.quotas.enabled,
            "wal": self.wal is not None,
            "lost_on_restart": [
                rec.get("id") for rec in self.lost_on_restart
            ],
            "counters": self.stats.snapshot(),
        }
