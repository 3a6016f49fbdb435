"""Sharded multi-process alignment: partition reads across workers.

Reads are split into contiguous shards, one per worker process; each
worker holds the whole reference and its seeding index read-only (on
fork platforms the parent builds them once and children inherit the
pages copy-on-write) and drives its shard through the deferred-
extension wave scheduler (:mod:`repro.aligner.waves`).  Results come
back tagged with their shard index and are re-concatenated in input
order, so the merged SAM is byte-identical to a single-process run —
the differential suite pins scalar x batched x worker counts to one
output.

Two runners share the worker machinery:

* :func:`align_sharded` — the simple pool: one contiguous shard per
  worker, no supervision; a worker crash crashes the run;
* :func:`align_supervised` — the durable runner: reads are dispatched
  window by window to supervised workers with heartbeat tracking,
  bounded restarts after crashes or hangs, poison-shard bisection
  down to the offending read (quarantined, not fatal), and optional
  journaling of completed windows for ``--resume``.  See
  ``docs/durability.md``.

Worker start-up is start-method agnostic: state is keyed off a
module-level slot that fork platforms pre-populate for copy-on-write
sharing, and every worker entry point rebuilds the aligner from its
pickled arguments when the slot is empty — so ``spawn`` (macOS,
Windows, or ``start_method="spawn"``) behaves identically, just
without the page sharing.

Observability: each worker zeroes its (inherited) registry, collects
its own measurements, and ships a snapshot back with its records; the
parent folds every snapshot into the live registry via
:meth:`~repro.obs.metrics.MetricsRegistry.absorb_snapshot` and adds
``pipeline.shard.*`` accounting on top.  Span traces stay worker-local
(timelines are not mergeable across processes).

Engines cannot be pickled (they hold caches, RNGs, registries), so
workers receive an :class:`EngineSpec` — a frozen, picklable recipe —
and build their own engine from it.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as queue_mod
import signal
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection

import numpy as np

from repro import obs
from repro.aligner.cache import DEFAULT_MAX_ENTRIES
from repro.aligner.waves import DEFAULT_BATCH_SIZE
from repro.durability.supervisor import (
    QUARANTINE_TAG,
    HeartbeatBoard,
    PoisonPlan,
    Quarantine,
    SupervisorError,
    SupervisorPolicy,
)
from repro.genome.sam import SamRecord
from repro.genome.sequence import decode
from repro.index.store import IndexHandle
from repro.obs import names

_STATE = None
"""Worker-process aligner; pre-built by the parent on fork platforms."""


class StartMethodError(TypeError):
    """Spawn-start workers cannot rebuild the requested worker state.

    Raised *before* any worker starts when ``start_method="spawn"``
    (or a platform without ``fork``) is combined with state that only
    works through fork inheritance — an unpicklable reference, engine
    spec, or aligner option.  Under ``fork`` children inherit such
    objects copy-on-write; under ``spawn`` they arrive pickled, and
    without this check the failure surfaces as a bare pickle traceback
    from deep inside the pool machinery.
    """


def _validate_spawn_payload(reference, spec, options) -> None:
    """Fail fast when worker ``initargs`` cannot survive a spawn.

    Every value shipped to a spawn worker is round-tripped through
    pickle here, so an unpicklable engine spec or aligner option is a
    typed :class:`StartMethodError` at the call site instead of a
    ``PicklingError`` traceback out of a worker bootstrap.
    """
    import pickle

    payload = (
        ("reference", reference),
        ("engine spec", spec),
        ("aligner options", options),
    )
    for label, value in payload:
        try:
            pickle.dumps(value)
        except Exception as exc:
            raise StartMethodError(
                f"start method 'spawn' ships the {label} to workers by "
                f"pickling, but it is not picklable "
                f"({type(exc).__name__}: {exc}); spawn workers cannot "
                "inherit live objects the way fork children do — use "
                "start_method='fork', or pass picklable values (e.g. an "
                "EngineSpec recipe instead of an engine instance)"
            ) from exc


def _probe_index(options: dict) -> None:
    """Fail fast in the parent when the shipped index is unusable.

    Workers receive an :class:`~repro.index.store.IndexHandle` inside
    ``aligner_options`` and open the artifact themselves; probing it
    here (envelope + pinned-fingerprint check, no section reads)
    surfaces a vanished or swapped artifact as a typed error at the
    dispatch site — before any process is spawned — instead of the
    same error fanned out once per worker.
    """
    handle = options.get("index")
    if isinstance(handle, IndexHandle):
        handle.open(mmap=True, verify=False)


def _resolve_context(start_method: str | None):
    """The multiprocessing context to run workers under.

    ``None`` prefers ``fork`` (copy-on-write index sharing) and falls
    back to ``spawn``; an explicit method is validated against the
    platform.  Every worker entry point rebuilds its own state when
    the forked module global is absent, so any method works.
    """
    methods = mp.get_all_start_methods()
    if start_method is None:
        start_method = "fork" if "fork" in methods else "spawn"
    elif start_method not in methods:
        raise ValueError(
            f"start method {start_method!r} unavailable on this "
            f"platform (have: {', '.join(methods)})"
        )
    return mp.get_context(start_method), start_method


@dataclass(frozen=True)
class EngineSpec:
    """A picklable recipe for building an extension engine.

    ``kind`` is a user-facing engine name (``full``, ``banded``,
    ``batched``, ``seedex``), resolved to a ``(band, checks)`` policy
    by :func:`~repro.aligner.engines.make_engine`; ``band`` is
    required for ``banded``, optional for ``seedex`` and unused by the
    full-band kinds.  The chaos fields mirror the CLI's ``--chaos`` flags: with
    ``chaos=True`` the built engine is wrapped in the fault-injecting
    resilient dispatcher, each worker running its own injector (same
    seed, disjoint job streams).  ``breaker_threshold`` (``None`` =
    off) arms the accelerator circuit breaker inside that dispatcher
    — see :mod:`repro.durability.breaker`.  ``kernel`` names the DP
    backend (``scalar``/``numpy``/``striped``; ``None`` = environment
    default) — a name rather than an instance so the spec stays
    picklable.
    """

    kind: str = "full"
    band: int | None = None
    cache_entries: int = DEFAULT_MAX_ENTRIES
    kernel: str | None = None
    chaos: bool = False
    fault_rate: float = 0.01
    fault_seed: int = 0
    max_retries: int = 3
    timeout_s: float = 0.25
    breaker_threshold: int | None = None
    breaker_probe_interval: int = 32

    def build(self):
        """Construct the engine (plus chaos wrapper) this spec names."""
        from repro.aligner.engines import make_engine, make_resilient

        engine = make_engine(
            self.kind,
            self.band,
            cache_entries=self.cache_entries,
            kernel=self.kernel,
        )
        if not self.chaos and self.breaker_threshold is None:
            return engine
        return make_resilient(
            engine,
            fault_rate=self.fault_rate if self.chaos else 0.0,
            fault_seed=self.fault_seed,
            max_retries=self.max_retries,
            timeout_s=self.timeout_s,
            registry=obs.get_registry() if obs.enabled() else None,
            breaker_threshold=self.breaker_threshold,
            breaker_probe_interval=self.breaker_probe_interval,
        )


def _build_aligner(reference, spec: EngineSpec, options: dict):
    """One worker's aligner: engine from the spec, index from scratch."""
    from repro.aligner.pipeline import Aligner

    return Aligner(reference, spec.build(), **options)


def _init_worker(reference, spec, options, collect) -> None:
    """Pool initializer: adopt the forked state or build a fresh one.

    Spawn-safe by construction: everything needed to build the
    aligner arrives pickled in ``initargs``, and the forked module
    global is only an optimization — when it is absent (``spawn``
    start method, or a fork platform that skipped pre-building) the
    worker builds its own aligner here instead of crashing on the
    fork assumption.
    """
    global _STATE
    if collect and not obs.enabled():
        obs.enable()
    if _STATE is None:
        _STATE = _build_aligner(reference, spec, options)


def _run_shard(task):
    """Align one shard in a worker; returns records + a metrics snapshot.

    The inherited registry still holds the parent's pre-fork counts,
    so it is zeroed before the shard runs — the snapshot shipped back
    contains exactly this shard's measurements.
    """
    index, reads, batch_size, collect = task
    if collect:
        obs.reset()
    records = _STATE.align_batched(reads, batch_size=batch_size)
    snapshot = obs.get_registry().snapshot() if collect else None
    return index, records, snapshot


def _shard_plan(count: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous, near-equal ``(start, stop)`` slices, one per shard."""
    base, extra = divmod(count, workers)
    plan: list[tuple[int, int]] = []
    start = 0
    for shard in range(workers):
        stop = start + base + (1 if shard < extra else 0)
        plan.append((start, stop))
        start = stop
    return plan


def _normalize_reads(reads) -> list[tuple[str, np.ndarray]]:
    """Coerce reads to ``(name, uint8 codes)`` pairs."""
    return [
        (read.name, np.asarray(read.codes, dtype=np.uint8))
        if hasattr(read, "codes")
        else (read[0], np.asarray(read[1], dtype=np.uint8))
        for read in reads
    ]


def align_sharded(
    reference: np.ndarray,
    reads,
    spec: EngineSpec | None = None,
    workers: int = 2,
    batch_size: int = DEFAULT_BATCH_SIZE,
    start_method: str | None = None,
    **aligner_options,
) -> list[SamRecord]:
    """Align ``reads`` across ``workers`` processes, input order kept.

    ``reads`` may be ``(name, codes)`` pairs or ``SimulatedRead``-like
    objects; ``aligner_options`` are forwarded to
    :class:`~repro.aligner.pipeline.Aligner` (``seeding``,
    ``reference_name``, ...).  ``workers=1`` runs in-process with no
    multiprocessing at all.  ``start_method`` forces ``fork``/``spawn``
    (``None`` = platform default).  Output is byte-identical to
    ``Aligner.align`` with the same engine configuration.
    """
    global _STATE
    if workers < 1:
        raise ValueError("workers must be at least 1")
    spec = spec or EngineSpec()
    normalized = _normalize_reads(reads)
    workers = max(1, min(workers, len(normalized)))
    collect = obs.enabled()

    if workers == 1:
        aligner = _build_aligner(reference, spec, aligner_options)
        records = aligner.align_batched(normalized, batch_size=batch_size)
        _note_shards(collect, [len(normalized)], merged=0)
        return records

    plan = _shard_plan(len(normalized), workers)
    tasks = [
        (i, normalized[start:stop], batch_size, collect)
        for i, (start, stop) in enumerate(plan)
    ]

    ctx, method = _resolve_context(start_method)
    forked = method == "fork"
    _probe_index(aligner_options)
    if not forked:
        _validate_spawn_payload(reference, spec, aligner_options)
    if forked:
        # Build once in the parent; children inherit the reference and
        # seeding index copy-on-write instead of rebuilding per worker.
        _STATE = _build_aligner(reference, spec, aligner_options)
    try:
        with ctx.Pool(
            processes=workers,
            initializer=_init_worker,
            initargs=(reference, spec, aligner_options, collect),
        ) as pool:
            results = pool.map(_run_shard, tasks)
    finally:
        _STATE = None

    results.sort(key=lambda item: item[0])
    records = [rec for _, shard_records, _ in results for rec in shard_records]
    merged = 0
    if collect:
        registry = obs.get_registry()
        for _, _, snapshot in results:
            if snapshot is not None:
                registry.absorb_snapshot(snapshot)
                merged += 1
    _note_shards(collect, [stop - start for start, stop in plan], merged)
    return records


# -- the supervised runner ----------------------------------------------


@dataclass
class SupervisedResult:
    """What :func:`align_supervised` produced.

    ``records`` holds the windows *computed by this call* in window
    order — on a resumed, journaled run the skipped windows live in
    the journal, not here.  ``interrupted`` is True when a graceful
    shutdown drained the in-flight wave before the plan finished.
    """

    records: list[SamRecord] = field(default_factory=list)
    interrupted: bool = False
    restarts: int = 0
    quarantined: list[str] = field(default_factory=list)


@dataclass
class _Task:
    """One dispatchable slice of a window (absolute read offsets)."""

    tid: int
    window: int
    lo: int
    hi: int
    depth: int = 0
    crashes: int = 0


def _supervised_worker(
    slot: int,
    parent_pid: int,
    reference,
    spec: EngineSpec,
    options: dict,
    task_q,
    result_conn,
    board: HeartbeatBoard,
    hb_interval: float,
    poison: PoisonPlan | None,
    collect: bool,
) -> None:
    """Worker loop: heartbeat thread + one task at a time.

    Start-method agnostic: adopts the forked module state when
    present, rebuilds from the pickled arguments otherwise.  Signals
    are left to the supervisor — SIGINT/SIGTERM are ignored so a
    Ctrl-C against the process group cannot kill a worker mid-window
    (the parent drains and shuts workers down via their queues).
    Exceptions escaping a task are reported as ``fail`` messages; the
    process itself only dies if it is killed.

    Results go over a private pipe, not a shared queue, and
    ``Connection.send`` is synchronous — so a SIGKILL between tasks
    can never leave a half-written message, and a kill mid-send tears
    only this worker's pipe, never the others'.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    global _STATE
    if collect and not obs.enabled():
        obs.enable()
    if _STATE is None:
        _STATE = _build_aligner(reference, spec, options)
    hb_stop = board.start_thread(slot, hb_interval)

    def _orphaned() -> bool:
        return os.getppid() != parent_pid

    while True:
        try:
            task = task_q.get(timeout=1.0)
        except queue_mod.Empty:
            if _orphaned():
                # Parent was SIGKILLed: nobody will ever send the
                # sentinel, so exit instead of lingering forever.
                os._exit(1)
            continue
        if task is None:
            break
        tid, reads_slice = task
        if collect:
            obs.reset()
        try:
            if poison is not None:
                for name, _ in reads_slice:
                    poison.apply(name, heartbeat_stop=hb_stop)
            records = _STATE.align_batched(
                reads_slice, batch_size=max(1, len(reads_slice))
            )
        except Exception as exc:  # reported, not fatal: supervisor bisects
            result_conn.send(
                ("fail", slot, tid, f"{type(exc).__name__}: {exc}")
            )
            continue
        snapshot = obs.get_registry().snapshot() if collect else None
        result_conn.send(("done", slot, tid, records, snapshot))
    hb_stop.set()
    result_conn.close()


class _Supervisor:
    """Parent-side state machine of one supervised run."""

    def __init__(
        self,
        ctx,
        forked: bool,
        reference,
        normalized,
        spec: EngineSpec,
        options: dict,
        workers: int,
        policy: SupervisorPolicy,
        poison: PoisonPlan | None,
        quarantine: Quarantine | None,
        journal,
        should_stop,
        collect: bool,
    ) -> None:
        self.ctx = ctx
        self.forked = forked
        self.reference = reference
        self.normalized = normalized
        self.spec = spec
        self.options = options
        self.workers = workers
        self.policy = policy
        self.poison = poison
        self.quarantine = quarantine
        self.journal = journal
        self.should_stop = should_stop or (lambda: False)
        self.collect = collect
        self.parent_pid = os.getpid()

        self.board = HeartbeatBoard(ctx, workers)
        self.procs: list = [None] * workers
        self.task_qs: list = [None] * workers
        self.conns: list = [None] * workers  # parent end of result pipes
        self.assignments: dict[int, int] = {}
        self.tasks: dict[int, _Task] = {}
        self.pending: deque[int] = deque()
        self.next_tid = 0
        self.window_tasks: dict[int, set[int]] = {}
        self.window_parts: dict[int, list[tuple[int, list[SamRecord]]]] = {}
        self.done_windows: dict[int, list[SamRecord]] = {}
        self.restarts = 0
        self.quarantined: list[str] = []
        self.stopping = False

    # -- task plumbing --------------------------------------------------

    def add_window(self, window: int, lo: int, hi: int) -> None:
        """Register one window of reads as a single pending task."""
        task = self._new_task(window, lo, hi, depth=0)
        self.window_tasks[window] = {task.tid}
        self.window_parts[window] = []

    def _new_task(self, window: int, lo: int, hi: int, depth: int) -> _Task:
        task = _Task(tid=self.next_tid, window=window, lo=lo, hi=hi,
                     depth=depth)
        self.next_tid += 1
        self.tasks[task.tid] = task
        self.pending.append(task.tid)
        return task

    @property
    def windows_remaining(self) -> int:
        """Windows still missing at least one slice."""
        return len(self.window_tasks) - len(self.done_windows)

    # -- worker lifecycle -----------------------------------------------

    def _spawn(self, slot: int) -> None:
        """(Re)start the worker in ``slot``: fresh queue, fresh pipe."""
        old_conn = self.conns[slot]
        if old_conn is not None:
            old_conn.close()
        recv_conn, send_conn = self.ctx.Pipe(duplex=False)
        task_q = self.ctx.Queue()
        proc = self.ctx.Process(
            target=_supervised_worker,
            args=(
                slot,
                self.parent_pid,
                self.reference,
                self.spec,
                self.options,
                task_q,
                send_conn,
                self.board,
                self.policy.heartbeat_interval,
                self.poison,
                self.collect,
            ),
            daemon=True,
        )
        proc.start()
        # Parent drops its copy of the write end so a dead worker
        # reads as EOF instead of a forever-pending pipe.
        send_conn.close()
        self.board.touch(slot)
        self.procs[slot] = proc
        self.task_qs[slot] = task_q
        self.conns[slot] = recv_conn

    def _count_restart(self) -> None:
        self.restarts += 1
        if obs.enabled():
            obs.get_registry().counter(
                names.PIPELINE_SHARD_RESTARTS,
                "supervised worker respawns",
            ).inc()
        if self.restarts > self.policy.max_restarts:
            raise SupervisorError(
                f"restart budget exhausted ({self.policy.max_restarts}); "
                "the corpus crashes workers faster than bisection can "
                "quarantine it"
            )

    # -- main loop ------------------------------------------------------

    def run(self) -> SupervisedResult:
        """Drive the run to completion (or a graceful drain)."""
        if self.forked:
            global _STATE
            _STATE = _build_aligner(
                self.reference, self.spec, self.options
            )
        try:
            while True:
                if not self.stopping and self.should_stop():
                    self.stopping = True
                    self.pending.clear()
                self._dispatch()
                if not self.assignments:
                    if self.stopping or not self.pending:
                        break
                self._drain_results()
                self._check_health()
        finally:
            if self.forked:
                _STATE = None
            self._shutdown_workers()
        records = [
            rec
            for _, window_records in sorted(self.done_windows.items())
            for rec in window_records
        ]
        interrupted = self.stopping and self.windows_remaining > 0
        return SupervisedResult(
            records=records,
            interrupted=interrupted,
            restarts=self.restarts,
            quarantined=list(self.quarantined),
        )

    def _dispatch(self) -> None:
        if self.stopping:
            return
        busy = set(self.assignments)
        for slot in range(self.workers):
            if not self.pending:
                return
            if slot in busy:
                continue
            proc = self.procs[slot]
            if proc is None:
                self._spawn(slot)
            elif not proc.is_alive():
                # Died while idle (e.g. poison at the tail of its last
                # task); replace it before assigning new work.
                self._count_restart()
                self._spawn(slot)
            tid = self.pending.popleft()
            task = self.tasks[tid]
            self.task_qs[slot].put(
                (tid, self.normalized[task.lo : task.hi])
            )
            self.assignments[slot] = tid

    def _drain_results(self) -> None:
        live = [conn for conn in self.conns if conn is not None]
        if not live:
            time.sleep(self.policy.poll_interval)
            return
        ready = mp_connection.wait(
            live, timeout=self.policy.poll_interval
        )
        for conn in ready:
            slot = self.conns.index(conn)
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                # Worker died (EOF) or tore its pipe mid-send; stop
                # selecting this pipe — _check_health reassigns the
                # task and _spawn replaces pipe and worker together.
                conn.close()
                self.conns[slot] = None
                continue
            self._handle(msg)

    def _handle(self, msg) -> None:
        kind = msg[0]
        if kind == "done":
            _, slot, tid, records, snapshot = msg
            if self.assignments.get(slot) == tid:
                del self.assignments[slot]
            if snapshot is not None:
                obs.get_registry().absorb_snapshot(snapshot)
                if obs.enabled():
                    obs.get_registry().counter(
                        names.PIPELINE_SHARD_SNAPSHOTS_MERGED,
                        "worker metric snapshots folded into the "
                        "parent registry",
                    ).inc()
            if obs.enabled():
                obs.get_registry().counter(
                    names.PIPELINE_SHARD_READS,
                    "reads dispatched to shards",
                    shard=slot,
                ).inc(len(records))
            self._complete_task(tid, records)
        elif kind == "fail":
            _, slot, tid, reason = msg
            if self.assignments.get(slot) == tid:
                del self.assignments[slot]
            self._task_crashed(tid, reason)

    def _check_health(self) -> None:
        for slot, tid in list(self.assignments.items()):
            proc = self.procs[slot]
            if proc.is_alive():
                if self.board.age(slot) > self.policy.hung_timeout:
                    if obs.enabled():
                        obs.get_registry().counter(
                            names.PIPELINE_SHARD_HEARTBEATS_MISSED,
                            "workers killed for silent heartbeats",
                        ).inc()
                    proc.kill()
                    proc.join(timeout=self.policy.shutdown_grace_s)
                    self._worker_lost(
                        slot, tid, "worker hung (missed heartbeats)"
                    )
                continue
            # Dead: a result for this task may still sit in the queue.
            self._drain_results()
            if self.assignments.get(slot) != tid:
                continue  # the task actually finished before death
            self._worker_lost(
                slot, tid, f"worker died (exitcode {proc.exitcode})"
            )

    def _worker_lost(self, slot: int, tid: int, reason: str) -> None:
        del self.assignments[slot]
        self._task_crashed(tid, reason)
        self._count_restart()
        if not self.stopping:
            self._spawn(slot)

    def _task_crashed(self, tid: int, reason: str) -> None:
        if self.stopping:
            return  # draining: the window stays incomplete
        task = self.tasks[tid]
        task.crashes += 1
        threshold = (
            self.policy.crash_threshold if task.depth == 0 else 1
        )
        if task.crashes < threshold:
            self.pending.append(tid)
            return
        if task.hi - task.lo == 1:
            self._quarantine_task(task, reason)
            return
        # Poison bisection: split the slice, retire the parent task.
        mid = (task.lo + task.hi) // 2
        owners = self.window_tasks[task.window]
        owners.discard(tid)
        del self.tasks[tid]
        for lo, hi in ((task.lo, mid), (mid, task.hi)):
            child = self._new_task(
                task.window, lo, hi, depth=task.depth + 1
            )
            owners.add(child.tid)

    def _quarantine_task(self, task: _Task, reason: str) -> None:
        name, codes = self.normalized[task.lo]
        if self.quarantine is not None:
            self.quarantine.add(name, codes, reason)
        self.quarantined.append(name)
        if obs.enabled():
            obs.get_registry().counter(
                names.PIPELINE_READS_QUARANTINED,
                "poison reads isolated by bisection",
            ).inc()
        record = SamRecord.unmapped(
            name, decode(codes), tags=(QUARANTINE_TAG,)
        )
        self._complete_task(task.tid, [record])

    def _complete_task(self, tid: int, records: list[SamRecord]) -> None:
        task = self.tasks.pop(tid, None)
        if task is None:
            return  # duplicate completion (e.g. post-crash re-run)
        window = task.window
        owners = self.window_tasks[window]
        owners.discard(tid)
        self.window_parts[window].append((task.lo, records))
        if owners:
            return
        parts = sorted(self.window_parts[window], key=lambda p: p[0])
        window_records = [rec for _, recs in parts for rec in recs]
        self.done_windows[window] = window_records
        if self.journal is not None:
            self.journal.record(window, window_records)

    def _shutdown_workers(self) -> None:
        for slot in range(self.workers):
            proc, task_q = self.procs[slot], self.task_qs[slot]
            if proc is None:
                continue
            if proc.is_alive():
                try:
                    task_q.put(None)
                except (OSError, ValueError):
                    pass
        deadline = time.time() + self.policy.shutdown_grace_s
        for proc in self.procs:
            if proc is None:
                continue
            proc.join(timeout=max(0.0, deadline - time.time()))
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=self.policy.shutdown_grace_s)
        for slot, conn in enumerate(self.conns):
            if conn is not None:
                conn.close()
                self.conns[slot] = None


def align_supervised(
    reference: np.ndarray,
    reads,
    spec: EngineSpec | None = None,
    workers: int = 2,
    batch_size: int = DEFAULT_BATCH_SIZE,
    policy: SupervisorPolicy | None = None,
    poison: PoisonPlan | None = None,
    quarantine: Quarantine | None = None,
    journal=None,
    should_stop=None,
    start_method: str | None = None,
    **aligner_options,
) -> SupervisedResult:
    """Align ``reads`` under crash supervision, window by window.

    The durable counterpart of :func:`align_sharded`: reads are split
    into windows of ``batch_size`` and dispatched one window at a time
    to ``workers`` supervised processes.  A worker that dies (any
    exitcode, SIGKILL included) or goes silent past the heartbeat
    deadline is respawned — within ``policy.max_restarts`` — and its
    window re-dispatched; a window that keeps crashing is bisected
    down to the poison read, which is quarantined (``quarantine``,
    optional) and emitted unmapped with ``XF:Z:quarantined``.

    ``journal`` (a :class:`~repro.durability.journal.RunJournal`)
    persists each completed window and pre-completed windows are
    skipped; ``should_stop`` is polled between dispatches — when it
    turns true the in-flight wave drains, completed windows are
    journaled, and the result comes back ``interrupted=True``.

    For a healthy corpus the records are byte-identical to
    :func:`align_sharded` / ``Aligner.align`` with the same engine
    configuration.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    spec = spec or EngineSpec()
    policy = policy or SupervisorPolicy()
    normalized = _normalize_reads(reads)
    collect = obs.enabled()
    if collect:
        obs.get_registry().gauge(
            names.PIPELINE_SHARD_WORKERS,
            "workers in the last sharded run",
        ).set(workers)
    completed = (
        journal.completed if journal is not None else frozenset()
    )

    ctx, method = _resolve_context(start_method)
    _probe_index(aligner_options)
    if method != "fork":
        _validate_spawn_payload(reference, spec, aligner_options)
    supervisor = _Supervisor(
        ctx=ctx,
        forked=method == "fork",
        reference=reference,
        normalized=normalized,
        spec=spec,
        options=aligner_options,
        workers=max(1, min(workers, max(1, len(normalized)))),
        policy=policy,
        poison=poison,
        quarantine=quarantine,
        journal=journal,
        should_stop=should_stop,
        collect=collect,
    )
    if batch_size < 1:
        raise ValueError("batch size must be at least 1")
    n_skipped = 0
    for window, lo in enumerate(range(0, len(normalized), batch_size)):
        hi = min(lo + batch_size, len(normalized))
        if window in completed:
            n_skipped += 1
            continue
        supervisor.add_window(window, lo, hi)
    if collect and n_skipped:
        obs.get_registry().counter(
            names.DURABILITY_WINDOWS_SKIPPED,
            "windows skipped by resume",
        ).inc(n_skipped)
    return supervisor.run()


def _note_shards(collect: bool, shard_sizes: list[int], merged: int) -> None:
    """Parent-side ``pipeline.shard.*`` accounting after a run."""
    if not collect:
        return
    registry = obs.get_registry()
    registry.gauge(
        names.PIPELINE_SHARD_WORKERS, "workers in the last sharded run"
    ).set(len(shard_sizes))
    for shard, size in enumerate(shard_sizes):
        registry.counter(
            names.PIPELINE_SHARD_READS,
            "reads dispatched to shards",
            shard=shard,
        ).inc(size)
    if merged:
        registry.counter(
            names.PIPELINE_SHARD_SNAPSHOTS_MERGED,
            "worker metric snapshots folded into the parent registry",
        ).inc(merged)
