"""Open-loop NDJSON load generator for ``serve_open`` (stdlib only).

Run as its own process so the generator never shares an interpreter
lock with the server it measures::

    python perfbench/loadgen.py --port P --reads reads.fastq \
        --warmup warmup.fastq --rate 250 --seed 1 --out report.json

Request ``i`` is due at ``start + (i + u_i) / rate`` whatever the
server does (open loop), with ``u_i`` uniform in [0, 1) from the seed:
the rate is fixed, but arrivals do not sit on a grid that the server's
linger timer can lock onto.  (On a grid every wave answers after the
same delay, the latencies form a comb, and the median hops a whole
tooth, 8% to 14%, between equal runs.)  Requests are dealt round-robin
over the pipelined connections, and every latency is taken from the
instant the request was *due*, so a stall charges the requests queued
behind it.  ``time.perf_counter`` is the system-wide monotonic clock
on Linux, so the timestamps in the report compare with spans recorded
in the server's process.
"""

from __future__ import annotations

import argparse
import json
import random
import socket
import threading
import time

PROTOCOL_VERSION = 1
DRAIN_TIMEOUT_S = 5.0


def read_fastq(path: str) -> list[tuple[str, str]]:
    """``(name, sequence)`` of every four-line FASTQ record."""
    with open(path) as handle:
        lines = handle.read().splitlines()
    return [
        (lines[i][1:].split()[0], lines[i + 1])
        for i in range(0, len(lines) - 3, 4)
    ]


def request(port: int, message: dict, timeout_s: float = 10.0) -> dict:
    """Send one request on its own connection; return the response."""
    payload = dict(message, v=PROTOCOL_VERSION)
    with socket.create_connection(("127.0.0.1", port), timeout_s) as sock:
        sock.sendall((json.dumps(payload) + "\n").encode())
        line = sock.makefile("rb").readline()
    return json.loads(line)


def align_line(rid: str, name: str, sequence: str) -> bytes:
    return (
        json.dumps(
            {
                "v": PROTOCOL_VERSION, "verb": "ALIGN", "id": rid,
                "client": "perfbench", "name": name, "seq": sequence,
            }
        )
        + "\n"
    ).encode()


class _Connection:
    """One pipelined connection and the thread reading its answers."""

    def __init__(self, port: int, answers: dict, arrived: threading.Event):
        self.sock = socket.create_connection(("127.0.0.1", port), 10.0)
        self.sock.settimeout(None)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._answers = answers
        self._arrived = arrived
        self.thread = threading.Thread(target=self._read, daemon=True)
        self.thread.start()

    def _read(self) -> None:
        for line in self.sock.makefile("rb"):
            now = time.perf_counter()
            try:
                message = json.loads(line)
            except json.JSONDecodeError:
                continue
            self._answers[message.get("id")] = (now, message)
            self._arrived.set()

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()
        self.thread.join(timeout=5.0)


def _await(answers: dict, ids: list[str], arrived: threading.Event) -> None:
    """Wait until every id is answered, or the drain timeout passes."""
    deadline = time.perf_counter() + DRAIN_TIMEOUT_S
    while time.perf_counter() < deadline:
        if all(rid in answers for rid in ids):
            return
        arrived.clear()
        arrived.wait(0.05)


def run(
    port: int,
    reads: list[tuple[str, str]],
    warmup: list[tuple[str, str]],
    rate: float,
    seed: int,
    connections: int = 2,
) -> dict:
    """Warm up, then send ``reads`` open loop at ``rate`` per second."""
    jitter = random.Random(seed)
    answers: dict[str, tuple[float, dict]] = {}
    arrived = threading.Event()
    conns = [_Connection(port, answers, arrived) for _ in range(connections)]
    try:
        warm_ids = [f"warm-{i}" for i in range(len(warmup))]
        for i, (name, sequence) in enumerate(warmup):
            conns[i % connections].sock.sendall(
                align_line(warm_ids[i], name, sequence)
            )
        _await(answers, warm_ids, arrived)

        ids = [f"req-{i}" for i in range(len(reads))]
        lines = [
            align_line(rid, name, sequence)
            for rid, (name, sequence) in zip(ids, reads)
        ]
        due = [0.0] * len(reads)
        sent = [0.0] * len(reads)
        start = time.perf_counter() + 0.05
        for i, line in enumerate(lines):
            due[i] = start + (i + jitter.random()) / rate
            delay = due[i] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent[i] = time.perf_counter()
            conns[i % connections].sock.sendall(line)
        _await(answers, ids, arrived)
    finally:
        for conn in conns:
            conn.close()
    requests = []
    for i, rid in enumerate(ids):
        received, message = answers.get(rid, (None, {}))
        requests.append(
            {
                "name": reads[i][0],
                "due": due[i],
                "sent": sent[i],
                "received": received,
                "ok": bool(message.get("ok")),
                "sam": message.get("sam"),
                "error": message.get("error"),
            }
        )
    return {
        "rate": rate,
        "warmup_answered": sum(1 for rid in warm_ids if rid in answers),
        "requests": requests,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--reads", required=True)
    parser.add_argument("--warmup", required=True)
    parser.add_argument("--rate", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--connections", type=int, default=2)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    report = run(
        args.port,
        read_fastq(args.reads),
        read_fastq(args.warmup),
        args.rate,
        args.seed,
        args.connections,
    )
    with open(args.out, "w") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
