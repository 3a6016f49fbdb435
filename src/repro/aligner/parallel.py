"""Supervised multi-process alignment: the one ``--workers`` runner.

Seed -> extend has no cross-read dependency, so multi-process
alignment is a plain map over contiguous read slices.  There is one
way to run it: :func:`align_supervised`.  ``align --workers N`` (with
or without ``--run-dir``) and ``longread --workers N`` all go through
the same supervisor, worker loop and bootstrap; supervision is how
every multi-process run works, and a run directory adds only the
journal.  See ``docs/durability.md``.

* **Worker recipe.**  What a worker does with a slice is a small
  picklable *recipe*: ``recipe.probe()`` fails fast in the parent,
  ``recipe.build(reference)`` returns the ``slice -> list[SamRecord]``
  function a worker applies to every task.  :class:`AlignRecipe`
  drives :meth:`Aligner.align_batched
  <repro.aligner.pipeline.Aligner.align_batched>`;
  :class:`repro.aligner.longread.LongReadRecipe` drives the long-read
  aligner.  The supervisor never looks inside one.
* **Task plan.**  Reads are keyed into journal windows of
  ``batch_size``; a task is a contiguous slice of at most
  ``min(batch_size, ceil(n / workers))`` reads that never crosses a
  window (:func:`_task_plan`), so a corpus smaller than
  ``workers x batch_size`` still fills every worker while window
  numbering — and with it journal fingerprints and ``--resume`` at
  any parallelism — does not move.
* **Supervision.**  Workers beat a shared heartbeat board; one that
  dies (any exitcode, SIGKILL included) or goes silent is respawned
  within a bounded budget and its task re-dispatched; a task that
  keeps crashing is bisected down to the poison read, which is
  emitted unmapped with ``XF:Z:quarantined`` instead of taking the
  run down.  A run never hangs on a lost worker.

Results are reassembled window by window in input order, so the SAM is
byte-identical to a single-process run — the byte-identity harness
(``tests/test_byte_identity.py``) pins scalar x batched x worker
counts to one output.

Worker start-up is start-method agnostic: on fork platforms the parent
builds the recipe once and hands the built task function to every
worker, which inherits the reference and seeding index copy-on-write;
a ``spawn`` worker is handed nothing and builds its own from the
pickled recipe.

Observability: each worker zeroes its (inherited) registry per task
and ships a snapshot back with its records; the parent folds every
snapshot into the live registry via
:meth:`~repro.obs.metrics.MetricsRegistry.absorb_snapshot` and adds
``pipeline.shard.*`` accounting on top.  Span traces stay worker-local
(timelines are not mergeable across processes).

Engines cannot be pickled (they hold kernels, RNGs, registries), so
recipes carry an :class:`EngineSpec` — a frozen, picklable engine
description — and workers build their own engine from it.
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


class StartMethodError(TypeError):
    """Spawn-start workers cannot rebuild the requested worker state.

    Raised *before* any worker starts when ``start_method="spawn"``
    (or a platform without ``fork``) is combined with state that only
    works through fork inheritance — an unpicklable reference, engine
    spec, or aligner option.  Under ``fork`` children inherit such
    objects copy-on-write; under ``spawn`` they arrive pickled, and
    without this check the failure surfaces as a bare pickle traceback
    out of a worker bootstrap.
    """


def _validate_spawn_payload(reference, recipe) -> None:
    """Fail fast when the worker arguments cannot survive a spawn.

    Every value shipped to a spawn worker is round-tripped through
    pickle here, so an unpicklable engine spec or aligner option is a
    typed :class:`StartMethodError` at the call site instead of a
    ``PicklingError`` traceback out of a worker bootstrap.
    """
    import pickle

    for label, value in (
        ("reference", reference),
        ("worker recipe", recipe),
    ):
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


def _resolve_context(start_method: str | None):
    """The multiprocessing context to run workers under.

    ``None`` prefers ``fork`` (copy-on-write index sharing) and falls
    back to ``spawn``; an explicit method is validated against the
    platform.  A worker that is handed no pre-built state builds its
    own, so any method works.
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

        engine = make_engine(self.kind, self.band, kernel=self.kernel)
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


@dataclass(frozen=True)
class AlignRecipe:
    """Worker recipe for short reads: ``Aligner.align_batched``.

    ``options`` are forwarded to
    :class:`~repro.aligner.pipeline.Aligner` (``seeding``,
    ``reference_name``, ``index``, ...).
    """

    spec: EngineSpec = EngineSpec()
    options: dict = field(default_factory=dict)

    def probe(self) -> None:
        """Fail fast in the parent when the shipped index is unusable.

        Workers receive an :class:`~repro.index.store.IndexHandle` and
        open the artifact themselves; probing it here (envelope +
        pinned-fingerprint check, no section reads) surfaces a vanished
        or swapped artifact as a typed error at the dispatch site —
        before any process is spawned — instead of the same error
        fanned out once per worker.
        """
        handle = self.options.get("index")
        if isinstance(handle, IndexHandle):
            handle.open(mmap=True, verify=False)

    def build(self, reference):
        """One worker's aligner, as a ``slice -> records`` function."""
        from repro.aligner.pipeline import Aligner

        aligner = Aligner(reference, self.spec.build(), **self.options)
        return lambda reads: aligner.align_batched(
            reads, batch_size=max(1, len(reads))
        )


def _normalize_reads(reads) -> list[tuple[str, np.ndarray]]:
    """Coerce reads to ``(name, uint8 codes)`` pairs."""
    return [
        (read.name, np.asarray(read.codes, dtype=np.uint8))
        if hasattr(read, "codes")
        else (read[0], np.asarray(read[1], dtype=np.uint8))
        for read in reads
    ]


def _task_plan(
    count: int, workers: int, batch_size: int
) -> list[tuple[int, int, int]]:
    """``(window, lo, hi)`` task slices covering ``count`` reads in order.

    Windows are ``batch_size``-keyed (the journal's unit, independent
    of ``workers``); within a window a task holds at most
    ``min(batch_size, ceil(count / workers))`` reads, so a corpus
    smaller than ``workers x batch_size`` still gives every worker a
    task.
    """
    cap = max(1, min(batch_size, -(-count // workers)))
    plan: list[tuple[int, int, int]] = []
    for window, start in enumerate(range(0, count, batch_size)):
        stop = min(start + batch_size, count)
        plan.extend(
            (window, lo, min(lo + cap, stop))
            for lo in range(start, stop, cap)
        )
    return plan


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
    recipe,
    prebuilt,
    task_q,
    result_conn,
    board: HeartbeatBoard,
    hb_interval: float,
    poison: PoisonPlan | None,
    collect: bool,
) -> None:
    """Worker loop: heartbeat thread + one task at a time.

    Start-method agnostic: adopts ``prebuilt``, the task function the
    parent built before forking, when there is one, and builds its own
    from the pickled recipe otherwise (``spawn``).  Signals
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
    if collect and not obs.enabled():
        obs.enable()
    run_task = prebuilt or recipe.build(reference)
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
            records = run_task(reads_slice)
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
        reference,
        normalized,
        recipe,
        prebuilt,
        workers: int,
        policy: SupervisorPolicy,
        poison: PoisonPlan | None,
        quarantine: Quarantine | None,
        journal,
        should_stop,
        collect: bool,
    ) -> None:
        self.ctx = ctx
        self.reference = reference
        self.normalized = normalized
        self.recipe = recipe
        self.prebuilt = prebuilt
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

    def add_task(self, window: int, lo: int, hi: int) -> None:
        """Register one planned slice of ``window`` as a pending task."""
        task = self._new_task(window, lo, hi, depth=0)
        self.window_tasks.setdefault(window, set()).add(task.tid)
        self.window_parts.setdefault(window, [])

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
                self.recipe,
                self.prebuilt,
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
            if slot in self.assignments:
                # Abandoned mid-task (Ctrl-C, exhausted budget): nobody
                # wants the result, so do not wait a grace period for it.
                proc.kill()
            elif proc.is_alive():
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
    recipe=None,
    **aligner_options,
) -> SupervisedResult:
    """Align ``reads`` across ``workers`` supervised processes.

    The one multi-process entry point.  ``reads`` may be ``(name,
    codes)`` pairs or ``SimulatedRead``-like objects.  What a worker
    does with a slice is ``recipe`` (see the module docstring); by
    default an :class:`AlignRecipe` built from ``spec`` and
    ``aligner_options`` (forwarded to
    :class:`~repro.aligner.pipeline.Aligner`: ``seeding``,
    ``reference_name``, ...).  ``start_method`` forces
    ``fork``/``spawn`` (``None`` = platform default).

    Reads are planned into tasks by :func:`_task_plan` and dispatched
    to the workers one task at a time.  A worker that dies (any
    exitcode, SIGKILL included) or goes silent past the heartbeat
    deadline is respawned — within ``policy.max_restarts``, else
    :class:`~repro.durability.supervisor.SupervisorError` — and its
    task re-dispatched; a task that keeps crashing is bisected down to
    the poison read, which is quarantined (``quarantine``, optional)
    and emitted unmapped with ``XF:Z:quarantined``.

    ``journal`` (a :class:`~repro.durability.journal.RunJournal`)
    persists each completed window and pre-completed windows are
    skipped; ``should_stop`` is polled between dispatches — when it
    turns true the in-flight wave drains, completed windows are
    journaled, and the result comes back ``interrupted=True``.

    For a healthy corpus the records are byte-identical to a
    single-process run of the same recipe.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if batch_size < 1:
        raise ValueError("batch size must be at least 1")
    if recipe is None:
        recipe = AlignRecipe(spec or EngineSpec(), aligner_options)
    elif spec is not None or aligner_options:
        raise TypeError(
            "pass either a recipe or spec/aligner options, not both"
        )
    policy = policy or SupervisorPolicy()
    normalized = _normalize_reads(reads)
    ctx, method = _resolve_context(start_method)
    recipe.probe()
    if method != "fork":
        _validate_spawn_payload(reference, recipe)

    completed = (
        journal.completed if journal is not None else frozenset()
    )
    count = len(normalized)
    plan = [
        task
        for task in _task_plan(count, workers, batch_size)
        if task[0] not in completed
    ]
    workers = min(workers, len(plan))
    collect = obs.enabled()
    result = SupervisedResult()
    if plan:
        supervisor = _Supervisor(
            ctx=ctx,
            reference=reference,
            normalized=normalized,
            recipe=recipe,
            # Fork: build once here; children inherit the reference and
            # seeding index copy-on-write instead of rebuilding (fork
            # passes Process args by memory, not by pickle).
            prebuilt=recipe.build(reference) if method == "fork" else None,
            workers=workers,
            policy=policy,
            poison=poison,
            quarantine=quarantine,
            journal=journal,
            should_stop=should_stop,
            collect=collect,
        )
        for window, lo, hi in plan:
            supervisor.add_task(window, lo, hi)
        result = supervisor.run()
    if collect:
        # After the run: an absorbed worker snapshot carries the
        # worker's own (zeroed) copy of the gauge, last write wins.
        registry = obs.get_registry()
        registry.gauge(
            names.PIPELINE_SHARD_WORKERS,
            "workers started by the last multi-process run",
        ).set(workers)
        n_skipped = sum(
            window in completed
            for window in range(-(-count // batch_size))
        )
        if n_skipped:
            registry.counter(
                names.DURABILITY_WINDOWS_SKIPPED,
                "windows skipped by resume",
            ).inc(n_skipped)
    return result
