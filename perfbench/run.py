#!/usr/bin/env python3
"""perfbench: five pinned workloads through the real ``repro`` CLI.

One run of one workload (what ``BENCHMARK.json`` names)::

    python3 perfbench/run.py --workload short_batched --seed 1 \
        --seconds 10 --trace 0

generates the workload's inputs from the seed, runs the untimed
full-band oracle, measures ``python -m repro.cli ...`` child processes
for ``--seconds`` seconds, verifies every output, prints each metric
by name with its unit, and ends with one JSON line.  ``--trace 1``
instead runs the workload once in this process with the layer entry
points wrapped from outside (see ``trace.py``) and reports the
per-layer metrics and the stage table.

Without ``--workload`` it runs all five, three interleaved passes
each, prints median/min/max of every metric and writes
``perfbench/out/result.json``; ``--trace`` adds the traced runs and
``--selfcheck`` runs two complete sets and compares them.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import dataclasses
import functools
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# ``perfbench/trace.py`` must not shadow the standard library's
# ``trace``: import the benchmark as a package from the repo root.
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
sys.path.insert(0, str(ROOT))

from perfbench import layers, loadgen, measure, verify, workloads  # noqa: E402
from perfbench.trace import Tracer, write_chrome_trace  # noqa: E402

SETUP_REPEATS = 5
"""One-record invocations behind ``setup_s`` (their median)."""

SERVE_SETUP_REPEATS = 3
"""``index build`` + spawn-to-PING rounds behind ``serve_open``'s."""

MIN_INVOCATIONS = 3
PASSES = 3
GENERATOR_LATE_LIMIT_MS = 50.0
"""A window whose generator ran later than this is void (run_serve)."""

MAX_DISCARDED_WINDOWS = 2
SERVER_START_TIMEOUT_S = 60.0
SERVER_STOP_TIMEOUT_S = 60.0


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to: an output is wrong)."""


@dataclass
class Result:
    """One run of one workload."""

    workload: str
    seed: int
    trace: bool
    correct: bool
    """Every output the program produced passed verification."""
    attempted: int
    failed: int
    """Operations failed: wrong or missing outputs, and on
    ``serve_open`` also requests refused, unanswered or late."""
    first_failure: str | None
    metrics: dict[str, float]
    detail: dict = field(default_factory=dict)


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def child_env() -> dict:
    """Environment of every child: ``src`` importable, kernel unpinned."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.pop("REPRO_KERNEL", None)
    return env


def cli(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "repro.cli", *argv]


@contextlib.contextmanager
def workdir(name: str, seed: int):
    """A scratch directory under ``perfbench/out``, removed afterwards."""
    path = OUT / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def child_peak_rss(rss_mb: float) -> float:
    """``rss_mb`` of a child, refused if it is really this process's.

    A child's ``ru_maxrss`` starts from the spawning process's own
    peak, so a figure at or below that peak says nothing about the child.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if rss_mb <= own:
        raise BenchError(
            f"child peak RSS {rss_mb:.1f} MB is not above the benchmark "
            f"process's own {own:.1f} MB"
        )
    return rss_mb


def must(inv: measure.Invocation, what: str, log: Path) -> measure.Invocation:
    if inv.returncode != 0:
        tail = log.read_text(errors="replace")[-2000:]
        raise BenchError(f"{what} exited {inv.returncode}:\n{tail}")
    return inv


# -- batch workloads ----------------------------------------------------


@dataclass
class Prepared:
    """Inputs on disk plus what the checks compare against."""

    corpus: workloads.Corpus
    work: Path
    log: Path
    env: dict
    expected_prefix: list[str] | None = None


def prepare(name: str, seed: int, work: Path, requests: int = 0) -> Prepared:
    """Generate the inputs and run the untimed oracle on the prefix.

    Batch workloads run their full-band / scalar oracle (check c);
    ``serve_open`` runs the ``short_batched`` command on its prefix,
    which is what the served lines must equal (check e).
    """
    corpus = workloads.generate(name, seed, work, serve_requests=requests)
    prepared = Prepared(corpus, work, work / "cli.log", child_env())
    workload = corpus.workload
    if workload.oracle_records:
        out = work / "oracle.out"
        argv = workloads.argv_for(
            workload, corpus, corpus.oracle_path, out, workload.oracle_flags
        )
        must(
            measure.timed(cli(argv), prepared.env, prepared.log),
            "oracle run", prepared.log,
        )
        prepared.expected_prefix = verify.sam_body(out.read_text())
    return prepared


def check_output(
    prepared: Prepared, out: Path, returncode: int
) -> verify.Verdict:
    """Verify one finished invocation's output file."""
    corpus = prepared.corpus
    if returncode != 0 or not out.exists():
        verdict = verify.Verdict(attempted=len(corpus.reads))
        verdict.fail_all(corpus.reads, f"exit code {returncode}")
        return verdict
    text = out.read_text()
    if corpus.workload.name == "overlap":
        return verify.verify_overlaps(
            text, workloads.expected_overlaps(corpus.reads)
        )
    return verify.verify_lines(
        verify.sam_body(text),
        corpus.reads,
        workloads.decode(corpus.reference),
        prepared.expected_prefix,
    )


def run_batch(name: str, seed: int, seconds: float, work: Path) -> Result:
    """End-to-end metrics of one batch workload, tracing off."""
    prepared = prepare(name, seed, work)
    corpus, env, log = prepared.corpus, prepared.env, prepared.log
    workload = corpus.workload

    def invoke(reads: Path, out: Path) -> measure.Invocation:
        argv = workloads.argv_for(workload, corpus, reads, out)
        return measure.timed(cli(argv), env, log)

    one_out = work / "one.out"
    must(invoke(corpus.one_path, one_out), "warm-up run", log)
    setup = [
        must(invoke(corpus.one_path, one_out), "set-up run", log).wall_s
        for _ in range(SETUP_REPEATS)
    ]
    runs: list[measure.Invocation] = []
    began = time.perf_counter()
    while True:
        runs.append(invoke(corpus.reads_path, work / f"run{len(runs)}.out"))
        typical = statistics.median(r.wall_s for r in runs)
        elapsed = time.perf_counter() - began
        # Start another only if at least half of it fits in the window.
        if len(runs) >= MIN_INVOCATIONS and elapsed + typical / 2 > seconds:
            break
    verdicts: dict[str, verify.Verdict] = {}
    attempted = failed = 0
    first_failure = None
    recalls = []
    for k, run in enumerate(runs):
        out = work / f"run{k}.out"
        digest = workloads.sha256_of(out) if out.exists() else f"missing{k}"
        if digest not in verdicts:
            verdicts[digest] = check_output(prepared, out, run.returncode)
        verdict = verdicts[digest]
        attempted += verdict.attempted
        failed += verdict.failed
        first_failure = first_failure or verdict.first_failure
        recalls.append(verdict.truth_recall)
    wall = statistics.median(r.wall_s for r in runs)
    metrics = {
        "reads_per_s": workload.records / wall,
        "cpu_s": statistics.median(r.cpu_s for r in runs),
        "peak_rss_mb": child_peak_rss(
            statistics.median(r.rss_mb for r in runs)
        ),
        "setup_s": statistics.median(setup),
        "truth_recall": min(recalls),
        # With a handful of invocations no percentile has ten samples
        # beyond it, so both latency metrics are the median wall.
        "serve_p50_ms": 1000.0 * wall,
        "serve_p99_ms": 1000.0 * wall,
    }
    return Result(
        name, seed, False, failed == 0, attempted, failed, first_failure,
        metrics,
        detail={
            "invocations": len(runs),
            "walls_s": [r.wall_s for r in runs],
            "setup_walls_s": setup,
            "records": workload.records,
            "digests": corpus.digests,
        },
    )


def trace_batch(name: str, seed: int, seconds: float, work: Path) -> Result:
    """Per-layer metrics of one batch workload: one traced run in-process."""
    prepared = prepare(name, seed, work)
    corpus, log = prepared.corpus, prepared.log
    workload = corpus.workload
    main = import_cli_main()

    def argv(reads: Path, out: Path) -> list[str]:
        return workloads.argv_for(workload, corpus, reads, out)

    with open(log, "a") as sink, contextlib.redirect_stdout(sink):
        main(argv(corpus.one_path, work / "one.out"))  # imports, caches
        began = time.perf_counter()
        main(argv(corpus.reads_path, work / "untraced.out"))
        untraced = time.perf_counter() - began
        out, snapshot_path = work / "traced.out", work / "metrics.json"
        tracer = Tracer()
        unresolved = tracer.install(layers.ENTRIES)
        try:
            code = tracer.call(
                layers.ROOT, main,
                argv(corpus.reads_path, out)
                + ["--metrics-out", str(snapshot_path)],
            )
        finally:
            tracer.restore()
    spans = tracer.spans()
    values = layers.layer_metrics(
        spans, json.loads(snapshot_path.read_text()), workload.records
    )
    values["trace.overhead_frac"] = values["trace.wall_s"] / untraced - 1.0
    values["trace.unresolved"] = len(unresolved)
    detail = {"unresolved": unresolved, "untraced_wall_s": untraced}
    if name == "short_batched":
        walls = {}
        for workers in (1, 2):
            flags = workload.flags + ("--workers", str(workers))
            sharded = workloads.argv_for(
                workload, corpus, corpus.reads_path,
                work / f"workers{workers}.out", flags,
            )
            walls[workers] = must(
                measure.timed(cli(sharded), prepared.env, log),
                f"--workers {workers} run", log,
            ).wall_s
        values["aligner.shard_speedup_w2"] = walls[1] / walls[2]
        detail["shard_walls_s"] = walls
    OUT.mkdir(parents=True, exist_ok=True)
    write_chrome_trace(spans, OUT / f"trace-{name}.json")
    verdict = check_output(prepared, out, code)
    return Result(
        name, seed, True, verdict.failed == 0, verdict.attempted,
        verdict.failed, verdict.first_failure, values, detail,
    )


def import_cli_main():
    """``repro.cli.main``, importable in this process."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.cli import main

    return main


# -- serve_open ---------------------------------------------------------


def wait_for_port(port_file: Path, alive=lambda: True) -> int:
    """Poll ``port_file`` until the server has written its port."""
    deadline = time.perf_counter() + SERVER_START_TIMEOUT_S
    while time.perf_counter() < deadline:
        try:
            text = port_file.read_text().strip()
        except FileNotFoundError:
            text = ""
        if text:
            return int(text)
        if not alive():
            raise BenchError("server exited before it was listening")
        time.sleep(0.005)
    raise BenchError("server did not listen in time")


def ping(port: int) -> None:
    reply = loadgen.request(port, {"verb": "PING", "id": "ready"})
    if not reply.get("pong"):
        raise BenchError(f"PING answered {reply!r}")


def status(port: int) -> dict:
    reply = loadgen.request(port, {"verb": "STATUS", "id": "status"})
    return reply["status"]["counters"]


def serve_argv(prepared: Prepared, index: Path, port_file: Path) -> list[str]:
    return [
        "serve", "--reference", str(prepared.corpus.reference_path),
        *prepared.corpus.workload.flags,
        "--index", str(index), "--port-file", str(port_file),
    ]


def build_index(prepared: Prepared, index: Path) -> measure.Invocation:
    argv = [
        "index", "build", "--reference",
        str(prepared.corpus.reference_path), "--out", str(index),
    ]
    return must(
        measure.timed(cli(argv), prepared.env, prepared.log),
        "index build", prepared.log,
    )


def drive(prepared: Prepared, seed: int, port: int) -> dict:
    """STATUS, the open-loop window from a generator process, STATUS."""
    work = prepared.work
    workloads.write_fastq(work / "warmup.fastq", prepared.corpus.warmup)
    report_path = work / "report.json"
    before = status(port)
    cpu_before = time.process_time()
    generator = subprocess.run(
        [
            sys.executable, str(HERE / "loadgen.py"),
            "--port", str(port),
            "--reads", str(prepared.corpus.reads_path),
            "--warmup", str(work / "warmup.fastq"),
            "--rate", str(workloads.SERVE_RATE),
            "--seed", str(seed),
            "--out", str(report_path),
        ],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    cpu = time.process_time() - cpu_before
    if generator.returncode != 0:
        raise BenchError(f"load generator failed:\n{generator.stdout}")
    return {
        "before": before,
        "after": status(port),
        "report": json.loads(report_path.read_text()),
        "process_cpu_s": cpu,
    }


def judge_serve(
    prepared: Prepared, window: dict
) -> tuple[verify.Verdict, bool, dict]:
    """Checks (a), (b), (e) and the latency limit on one window.

    Returns the verdict, whether every line the server *did* serve is
    correct, and the window's facts.  A request that was refused, never
    answered or late is a failed operation but not a wrong output.
    """
    corpus = prepared.corpus
    requests = window["report"]["requests"]
    latencies = measure.due_latencies_ms(requests)
    served = [r["sam"] if r["ok"] and r["sam"] else None for r in requests]
    verdict = verify.verify_lines(
        [line or "" for line in served],
        corpus.reads,
        workloads.decode(corpus.reference),
        [
            want if line else ""
            for want, line in zip(prepared.expected_prefix, served)
        ],
        prefix_name="short_batched record",
    )
    wrong = {
        read.name for read, line in zip(corpus.reads, served) if line
    } & verdict.failed_reads
    late = 0
    for read, request, latency in zip(corpus.reads, requests, latencies):
        if not request["ok"]:
            verdict.fail(
                read.name, f"answered {request['error'] or 'nothing'}"
            )
        elif latency > workloads.SERVE_LIMIT_MS:
            late += 1
            verdict.fail(read.name, f"late: {latency:.1f} ms from due")
    send_window = (
        requests[-1]["sent"] - requests[0]["sent"]
        + 1.0 / workloads.SERVE_RATE
    )
    before, after = window["before"], window["after"]
    facts = {
        "latencies_ms": latencies,
        "goodput": (len(requests) - verdict.failed) / send_window,
        "p50_ms": statistics.median(latencies),
        "p99_ms": measure.percentile(latencies, 0.99),
        "max_ms": max(latencies),
        "lateness_ms": measure.lateness_ms(requests),
        "late": late,
        "served": sum(1 for line in served if line),
        "shed": sum(after["shed"].values()) - sum(before["shed"].values()),
    }
    return verdict, not wrong, facts


@dataclass
class Server:
    """A running ``repro serve`` child."""

    process: subprocess.Popen
    started: float
    port: int
    ready_s: float
    """Spawn to first PING reply."""


def start_server(prepared: Prepared, index: Path) -> Server:
    port_file = prepared.work / "port"
    port_file.unlink(missing_ok=True)
    with open(prepared.log, "ab") as sink:
        started = time.perf_counter()
        process = subprocess.Popen(
            cli(serve_argv(prepared, index, port_file)),
            env=prepared.env, stdout=sink, stderr=subprocess.STDOUT,
        )
    try:
        port = wait_for_port(port_file, lambda: process.poll() is None)
        ping(port)
    except BaseException:
        process.kill()
        process.wait()
        raise
    return Server(process, started, port, time.perf_counter() - started)


def stop_server(server: Server) -> measure.Invocation:
    """SIGTERM (graceful drain), then reap; SIGKILL if it hangs."""
    killer = threading.Timer(SERVER_STOP_TIMEOUT_S, server.process.kill)
    killer.start()
    try:
        server.process.send_signal(signal.SIGTERM)
        return measure.reap(server.process, server.started)
    finally:
        killer.cancel()


def run_serve(name: str, seed: int, seconds: float, work: Path) -> Result:
    """End-to-end metrics of ``serve_open``: a CLI server, one window.

    A window in which the *generator* ran late is void: the load it
    claims was not offered (the host stalled the benchmark, not the
    server).  It is discarded, reported, and run again on a fresh
    server, whose result cache has not seen the reads.
    """
    requests = max(1, int(workloads.SERVE_RATE * seconds))
    prepared = prepare(name, seed, work, requests)
    index = work / "reference.idx"
    setup: list[float] = []
    discarded: list[float] = []
    server = None
    try:
        for _ in range(SERVE_SETUP_REPEATS):
            if server is not None:
                # Never served: it may die of the signal before its
                # drain handler is installed, which is fine here.
                stop_server(server)
            build = build_index(prepared, index)
            server = start_server(prepared, index)
            setup.append(build.wall_s + server.ready_s)
        while True:
            window = drive(prepared, seed, server.port)
            exited = stop_server(server)
            server = None
            lateness = measure.lateness_ms(window["report"]["requests"])
            if (
                lateness <= GENERATOR_LATE_LIMIT_MS
                or len(discarded) >= MAX_DISCARDED_WINDOWS
            ):
                break
            discarded.append(lateness)
            server = start_server(prepared, index)
    finally:
        if server is not None:
            server.process.kill()
            server.process.wait()
    verdict, correct, facts = judge_serve(prepared, window)
    if exited.returncode != 0:
        correct = False
        verdict.fail_all(
            prepared.corpus.reads, f"server exited {exited.returncode}"
        )
    metrics = {
        "reads_per_s": facts["goodput"],
        "cpu_s": exited.cpu_s,
        "peak_rss_mb": child_peak_rss(exited.rss_mb),
        "setup_s": statistics.median(setup),
        "truth_recall": verdict.truth_recall,
        "serve_p50_ms": facts["p50_ms"],
        "serve_p99_ms": facts["p99_ms"],
    }
    return Result(
        name, seed, False, correct, verdict.attempted, verdict.failed,
        verdict.first_failure, metrics,
        detail={
            "requests": requests,
            "rate_per_s": workloads.SERVE_RATE,
            "limit_ms": workloads.SERVE_LIMIT_MS,
            "max_ms": facts["max_ms"],
            "generator_lateness_ms": facts["lateness_ms"],
            "discarded_windows_lateness_ms": discarded,
            "setup_walls_s": setup,
            "digests": prepared.corpus.digests,
        },
    )


class _Terminated(BaseException):
    """SIGTERM arrived while no server was there to drain on it."""


def serve_in_process(main, argv: list[str], port_file: Path, drive_fn) -> dict:
    """Run ``repro serve`` on the main thread, the window on another.

    ``repro serve`` drains on SIGTERM, which Python delivers to the
    main thread; the driving thread sends it once the window is done.
    """
    outcome: dict = {}

    def driver() -> None:
        try:
            port = wait_for_port(port_file)
            ping(port)
            outcome["window"] = drive_fn(port)
        except Exception as exc:  # noqa: BLE001 - reported by the caller
            outcome["error"] = exc
        finally:
            os.kill(os.getpid(), signal.SIGTERM)

    def terminated(signum, frame):
        raise _Terminated

    port_file.unlink(missing_ok=True)
    previous = signal.signal(signal.SIGTERM, terminated)
    thread = threading.Thread(target=driver, daemon=True)
    thread.start()
    try:
        outcome["code"] = main(argv)
        thread.join()
    except _Terminated:
        outcome.setdefault("error", BenchError("server was not draining"))
    finally:
        signal.signal(signal.SIGTERM, previous)
    if "error" in outcome:
        raise BenchError(f"in-process serve failed: {outcome['error']}")
    return outcome


def trace_serve(name: str, seed: int, seconds: float, work: Path) -> Result:
    """Per-layer metrics of ``serve_open``: the server in this process.

    Two windows on two fresh servers, the first untraced; the ratio of
    this process's CPU time over them is the tracing overhead (the
    window's wall is fixed by the send rate, so wall cannot show it).
    """
    requests = max(1, int(workloads.SERVE_RATE * seconds))
    prepared = prepare(name, seed, work, requests)
    index, port_file = work / "reference.idx", work / "port"
    build_index(prepared, index)
    main = import_cli_main()
    argv = serve_argv(prepared, index, port_file)
    snapshot_path = work / "metrics.json"

    window = functools.partial(drive, prepared, seed)
    with open(prepared.log, "a") as sink, contextlib.redirect_stdout(sink):
        untraced = serve_in_process(main, argv, port_file, window)
        tracer = Tracer()
        unresolved = tracer.install(layers.ENTRIES)
        try:
            traced = serve_in_process(
                main, argv + ["--metrics-out", str(snapshot_path)],
                port_file, window,
            )
        finally:
            tracer.restore()
    verdict, correct, facts = judge_serve(prepared, traced["window"])
    report = traced["window"]["report"]["requests"]
    first_due = report[0]["due"]
    answered = [r["received"] for r in report if r["received"] is not None]
    wall = (max(answered) if answered else report[-1]["sent"]) - first_due
    spans = tracer.spans()
    values = layers.layer_metrics(
        spans, json.loads(snapshot_path.read_text()), requests,
        since=first_due, wall=wall,
    )
    # A wave answers its requests as it finishes: the wave that carried
    # a request is the last one begun before the answer arrived.
    waves = sorted(
        (s.start, s.duration) for s in spans
        if s.name == "aligner.window" and s.start >= first_due
    )
    waits = []
    for request, latency in zip(report, facts["latencies_ms"]):
        if request["ok"]:
            carrier = bisect.bisect_right(
                waves, (request["received"], float("inf"))
            )
            if carrier:
                waits.append(latency - 1000.0 * waves[carrier - 1][1])
    values.update(
        {
            "serve.compute_s": sum(duration for _, duration in waves),
            "serve.waves": len(waves),
            "serve.reads_per_wave": (
                facts["served"] / len(waves) if waves else 0.0
            ),
            "serve.wait_p50_ms": statistics.median(waits) if waits else 0.0,
            "serve.shed": facts["shed"],
            "serve.late": facts["late"],
            "trace.overhead_frac": traced["window"]["process_cpu_s"]
            / untraced["window"]["process_cpu_s"] - 1.0,
            "trace.unresolved": len(unresolved),
        }
    )
    if traced["code"] != 0:
        correct = False
        verdict.fail_all(
            prepared.corpus.reads, f"server returned {traced['code']}"
        )
    OUT.mkdir(parents=True, exist_ok=True)
    write_chrome_trace(
        [s for s in spans if s.start >= first_due], OUT / f"trace-{name}.json"
    )
    return Result(
        name, seed, True, correct, verdict.attempted, verdict.failed,
        verdict.first_failure, values,
        detail={
            "unresolved": unresolved,
            "p50_ms": facts["p50_ms"],
            "p99_ms": facts["p99_ms"],
            "generator_lateness_ms": facts["lateness_ms"],
        },
    )


# -- one run, reporting -------------------------------------------------


def run_one(name: str, seed: int, seconds: float, trace: bool) -> Result:
    """One run of workload ``name``: end-to-end, or traced."""
    serve = name == "serve_open"
    runner = {
        (False, False): run_batch, (False, True): trace_batch,
        (True, False): run_serve, (True, True): trace_serve,
    }[serve, trace]
    with workdir(name, seed) as work:
        return runner(name, seed, seconds, work)


def run_file(name: str, seed: int, trace: bool) -> Path:
    """Where a run leaves its full result for ``run_set`` to read."""
    return OUT / f"run-{name}-{seed}-trace{int(trace)}.json"


def spawn_run(name: str, seed: int, seconds: float, trace: bool) -> Result:
    """One run in a process of its own, as ``BENCHMARK.json`` runs it.

    A child's ``ru_maxrss`` starts from the peak RSS of the process
    that spawned it, so the process that spawns measured children must
    never have aligned anything itself.
    """
    path = run_file(name, seed, trace)
    path.unlink(missing_ok=True)
    child = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace)),
        ]
    )
    if not path.exists():
        raise BenchError(f"run of {name} exited {child.returncode}")
    return Result(**json.loads(path.read_text()))


def metric_units(spec: dict, trace: bool) -> dict[str, str]:
    return {
        m["name"]: m["unit"]
        for m in spec["per_layer" if trace else "end_to_end"]
    }


def contract_line(result: Result, units: dict[str, str]) -> str:
    """The one JSON object the benchmark contract asks for."""
    return json.dumps(
        {
            "correct": result.correct,
            "attempted": result.attempted,
            "failed": result.failed,
            "metrics": {
                name: {"value": result.metrics[name], "unit": unit}
                for name, unit in units.items()
            },
        }
    )


def print_result(result: Result, units: dict[str, str]) -> None:
    kind = "traced" if result.trace else "end to end"
    print(f"== {result.workload} (seed {result.seed}, {kind}) ==")
    for name, unit in units.items():
        print(f"  {name} = {result.metrics[name]:.6g} {unit}")
    for key, value in result.detail.items():
        if key != "digests":
            print(f"  [{key}] {value}")
    print(
        f"  failed_frac = {result.failed / result.attempted:.6g} "
        f"({result.failed} of {result.attempted})"
    )
    if result.first_failure:
        print(f"  first failure: {result.first_failure}")
    if result.trace:
        print_stage_table(result)


def print_stage_table(result: Result) -> None:
    """Self time per layer; the ``sum`` row equals ``trace.wall_s``."""
    wall = result.metrics["trace.wall_s"]
    print(f"  {'layer':<28}{'self s':>10}{'share':>9}")
    total = 0.0
    for name in layers.TIME_METRICS:
        value = result.metrics[name]
        total += value
        print(f"  {name:<28}{value:>10.4f}{value / wall:>9.1%}")
    print(f"  {'sum':<28}{total:>10.4f}{total / wall:>9.1%}")
    print(f"  {'trace.wall_s':<28}{wall:>10.4f}")


# -- all workloads, selfcheck -------------------------------------------


def run_set(seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    """Three interleaved passes over all workloads (+ traced runs)."""
    names = [w["name"] for w in spec["workloads"]]
    runs: dict[str, list[Result]] = {name: [] for name in names}
    for number in range(PASSES):
        for name in names:
            print(f"-- pass {number + 1}/{PASSES}: {name}", flush=True)
            runs[name].append(spawn_run(name, seed, seconds, False))
    traced = {}
    if trace:
        for name in names:
            print(f"-- traced: {name}", flush=True)
            traced[name] = spawn_run(name, seed, seconds, True)
    summary: dict = {"seed": seed, "workloads": {}}
    e2e_units = metric_units(spec, False)
    for name in names:
        results = runs[name]
        entry = {
            "correct": all(r.correct for r in results),
            "attempted": sum(r.attempted for r in results),
            "failed": sum(r.failed for r in results),
            "first_failure": next(
                (r.first_failure for r in results if r.first_failure), None
            ),
            "digests": results[0].detail.get("digests"),
            "end_to_end": {},
        }
        for metric, unit in e2e_units.items():
            values = [r.metrics[metric] for r in results]
            entry["end_to_end"][metric] = {
                "unit": unit,
                "median": statistics.median(values),
                "min": min(values),
                "max": max(values),
                "n": len(values),
            }
        if name in traced:
            entry["per_layer"] = traced[name].metrics
            entry["unresolved"] = traced[name].detail["unresolved"]
            entry["correct"] &= traced[name].correct
            entry["attempted"] += traced[name].attempted
            entry["failed"] += traced[name].failed
        entry["failed_frac"] = entry["failed"] / entry["attempted"]
        summary["workloads"][name] = entry
    print_summary(summary)
    return summary


def print_summary(summary: dict) -> None:
    for name, entry in summary["workloads"].items():
        print(f"== {name} (seed {summary['seed']}) ==")
        for metric, s in entry["end_to_end"].items():
            print(
                f"  {metric} = {s['median']:.6g} {s['unit']} "
                f"(min {s['min']:.6g}, max {s['max']:.6g}, n {s['n']})"
            )
        print(
            f"  failed_frac = {entry['failed_frac']:.6g} "
            f"({entry['failed']} of {entry['attempted']})"
        )
        if entry["first_failure"]:
            print(f"  first failure: {entry['first_failure']}")


def selfcheck(a: dict, b: dict, spec: dict) -> list[str]:
    """Where two sets of runs of the same code disagree."""
    problems = []
    for name in a["workloads"]:
        wa, wb = a["workloads"][name], b["workloads"][name]
        if wa["digests"] != wb["digests"]:
            problems.append(f"{name}: input digests differ")
        for metric in spec["end_to_end"]:
            first = wa["end_to_end"][metric["name"]]["median"]
            second = wb["end_to_end"][metric["name"]]["median"]
            if abs(second - first) / first > metric["bound"]:
                problems.append(
                    f"{name}: {metric['name']} {first:.6g} vs {second:.6g} "
                    f"is outside its bound {metric['bound']}"
                )
        for exact in ("failed_frac", "truth_recall"):
            first, second = (
                w[exact] if exact in w else w["end_to_end"][exact]["median"]
                for w in (wa, wb)
            )
            if first != second:
                problems.append(f"{name}: {exact} {first} vs {second}")
        # How arrivals fall into waves is timing, so a served run's
        # counts do not repeat; a batch run's must.
        counts = () if name == "serve_open" else layers.COUNT_METRICS
        for metric in counts:
            if "per_layer" in wa and (
                wa["per_layer"][metric] != wb["per_layer"][metric]
            ):
                problems.append(
                    f"{name}: count {metric} {wa['per_layer'][metric]} "
                    f"vs {wb['per_layer'][metric]}"
                )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--workload", choices=sorted(workloads.WORKLOADS),
        help="run this workload once and end with the contract's JSON "
        "line (default: all five, three passes, result.json)",
    )
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measuring time of one run (default: BENCHMARK.json's)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
        help="1: traced in-process run(s), per-layer metrics",
    )
    parser.add_argument(
        "--selfcheck", action="store_true",
        help="run two complete sets and fail unless they agree",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="also fail on a layer-table row that matched no callable",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").exists():
        print(f"error: no program to measure at {SRC}", file=sys.stderr)
        return 2
    spec = benchmark_spec()
    seconds = args.seconds or spec["run_seconds"]
    os.environ.pop("REPRO_KERNEL", None)

    if args.workload:
        result = run_one(args.workload, args.seed, seconds, bool(args.trace))
        units = metric_units(spec, result.trace)
        print_result(result, units)
        OUT.mkdir(parents=True, exist_ok=True)
        with open(run_file(args.workload, args.seed, result.trace), "w") as f:
            json.dump(dataclasses.asdict(result), f)
        print(contract_line(result, units), flush=True)
        unresolved = result.detail.get("unresolved")
        if not result.correct or (args.strict and unresolved):
            return 1
        return 0

    summary = run_set(args.seed, seconds, bool(args.trace), spec)
    sets = [summary]
    problems: list[str] = []
    if args.selfcheck:
        sets.append(run_set(args.seed, seconds, bool(args.trace), spec))
        problems = selfcheck(sets[0], sets[1], spec)
        for problem in problems:
            print(f"selfcheck: {problem}")
        print(f"selfcheck: {'FAIL' if problems else 'ok'}")
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / "result.json", "w") as handle:
        json.dump({"sets": sets, "selfcheck": problems}, handle, indent=1)
    print(f"wrote {OUT / 'result.json'}")
    wrong = any(
        not entry["correct"] or (args.strict and entry.get("unresolved"))
        for s in sets
        for entry in s["workloads"].values()
    )
    return 1 if wrong or problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
