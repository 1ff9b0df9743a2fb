"""End-to-end HTTP benchmark of the repro serving path.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cq_read --seed 1 --seconds 10 --trace 0

Spawns the server under test (``perfbench/server.py``: ``create_app`` +
``make_server`` on a durable store) in its own process and drives it from
this one, closed-loop, over two keep-alive connections: a reader running
the workload's read mix and a writer swapping slice generations. Every
answer is checked against an oracle computed here, outside the timed
loop. ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
same workload and seed with the layer wrappers of ``tracing.py`` armed and
reports the per-layer metrics plus the tracing overhead. The last line of
standard output is the result as one JSON object; the exit code is 0 only
when every request succeeded and every answer was correct.

See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import importlib.util
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.parse
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import ROOT  # noqa: E402

#: Every run must end well inside the 180 s a run is allowed.
DEADLINE_S = 170
WORK = ROOT / ".perfbench"
#: Requests per op type in the traced run's counting phase.
COUNT_ROUNDS = 3
#: End-to-end metrics whose traced-minus-untraced difference is reported.
OVERHEAD_METRICS = (
    "setup_s", "page_p50_ms", "batch_p50_ms", "sample_p50_ms",
    "invert_p50_ms", "ingest_p50_ms", "answers_per_s", "restart_s",
)


class CheckFailed(Exception):
    """An answer disagreed with the oracle or the protocol."""


# ---------------------------------------------------------------------- #
# Processes                                                               #
# ---------------------------------------------------------------------- #


class ServerProcess:
    """``perfbench/server.py`` as a child speaking JSON lines."""

    def __init__(self, argv: List[str]):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py")] + argv,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=str(ROOT),
        )

    def read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server process exited (code {self.proc.wait()})")
        return json.loads(line)

    def command(self, verb: str, **fields) -> dict:
        self.proc.stdin.write(json.dumps({"command": verb, **fields}) + "\n")
        self.proc.stdin.flush()
        return self.read()

    def stop(self) -> None:
        """Stop gracefully (the trace file is written on this path)."""
        if self.proc.poll() is None:
            self.command("stop")
        self.close()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if not stream.closed:
                stream.close()


# ---------------------------------------------------------------------- #
# The HTTP client                                                         #
# ---------------------------------------------------------------------- #


class Connection:
    """One keep-alive connection; every request carries an ``X-Request-Id``."""

    def __init__(self, port: int, name: str):
        self.name = name
        self.http = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        self.sent = 0

    def call(self, method: str, path: str, body: Optional[bytes] = None):
        """``(status, payload, latency_s, body_bytes, request_id)``.

        The latency runs from the first byte sent to the last byte
        received; decoding the JSON is outside it.
        """
        self.sent += 1
        request_id = f"{self.name}-{self.sent}"
        headers = {"X-Request-Id": request_id}
        start = time.perf_counter()
        self.http.request(method, path, body=body, headers=headers)
        response = self.http.getresponse()
        data = response.read()
        latency = time.perf_counter() - start
        return response.status, json.loads(data), latency, len(data), request_id

    def close(self) -> None:
        self.http.close()


class Recorder:
    """Latencies, answers and failures of one stretch of one connection."""

    def __init__(self):
        self.latency: Dict[str, List[float]] = {}
        self.by_request: Dict[str, float] = {}
        self.answers = 0
        self.body_bytes = 0
        self.attempted = 0
        self.failed = 0
        self.lagged_reads = 0
        self.effective_ops = 0
        self.errors: List[str] = []

    def record(self, op: str, latency: float, request_id: str) -> None:
        self.latency.setdefault(op, []).append(latency)
        self.by_request[request_id] = latency

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def merge(self, *others: "Recorder") -> "Recorder":
        for other in others:
            for op, values in other.latency.items():
                self.latency.setdefault(op, []).extend(values)
            self.by_request.update(other.by_request)
            for field in ("answers", "body_bytes", "attempted", "failed",
                          "lagged_reads", "effective_ops"):
                setattr(self, field, getattr(self, field) + getattr(other, field))
            self.errors.extend(other.errors[: max(0, 5 - len(self.errors))])
        return self


# ---------------------------------------------------------------------- #
# One served app: requests and checks                                     #
# ---------------------------------------------------------------------- #


class Session:
    """The client side of one served app: a reader and a writer connection."""

    def __init__(self, bench: "Bench", port: int, store: str):
        self.bench = bench
        self.store = store
        self.reader = Connection(port, "r")
        self.writer = Connection(port, "w")
        self.cursor = None
        self.count = None
        #: ``(version, slice generation)`` of the last acknowledged ingest
        #: (one tuple: the reader thread reads it while the writer swaps it).
        self.acked = None
        self.last_read_version = None
        self.ingests = 0
        #: position → answer served (static workloads: positions are fixed).
        self.served: Dict[int, tuple] = {}

    def close(self) -> None:
        self.reader.close()
        self.writer.close()

    def request(self, rec: Recorder, conn: Connection, op: str, method: str,
                path: str, body: Optional[bytes] = None):
        rec.attempted += 1
        status, payload, latency, size, request_id = conn.call(method, path, body)
        if not 200 <= status < 300:
            raise CheckFailed(f"{op}: HTTP {status}: {payload}")
        rec.record(op, latency, request_id)
        return payload, size

    def open_cursor(self, rec: Recorder) -> None:
        body = json.dumps({"query": self.bench.workload.query,
                           "on_stale": "reresolve"}).encode()
        payload, __ = self.request(rec, self.reader, "open", "POST",
                                   "/cursors", body)
        self.cursor = payload["cursor"]
        self.count = payload["count"]
        if self.acked is None:
            self.acked = (payload["version"], 1)
        self.bench.check_count(self.count, self.acked[1])

    def read(self, rec: Recorder, op: str, params: dict,
             conn: Optional[Connection] = None) -> List[tuple]:
        """One checked read request (on the reader connection unless
        ``conn`` is given); returns its answers."""
        query = {k: v for k, v in params.items() if k != "expected"}
        if "positions" in query:
            query["positions"] = ",".join(map(str, query["positions"]))
        path = f"/cursors/{self.cursor}/{op}?" + urllib.parse.urlencode(query)
        payload, size = self.request(rec, conn or self.reader, op, "GET", path)
        self.last_read_version = payload["version"]
        if op == "position_of":
            self.bench.check_position(payload, params)
            return []
        answers = [tuple(a) for a in payload["answers"]]
        self.bench.check_read(self, rec, op, params, payload, answers)
        rec.answers += len(answers)
        rec.body_bytes += size
        return answers

    def ingest(self, rec: Recorder) -> None:
        bench = self.bench
        version, generation = self.acked
        body = workloads.swap_body(bench.workload, bench.scale, bench.seed,
                                   generation)
        payload, __ = self.request(rec, self.writer, "ingest", "POST",
                                   "/ingest", body)
        rows = bench.scale.slice_rows
        if (payload["inserted"] != rows or payload["deleted"] != rows
                or not payload["durable"]):
            raise CheckFailed(f"ingest acknowledged {payload}")
        if payload["version"] != version + 1:
            raise CheckFailed(f"ingest moved version {version} -> "
                              f"{payload['version']}")
        rec.effective_ops += payload["inserted"] + payload["deleted"]
        self.acked = (version + 1, generation + 1)
        self.ingests += 1

    def checkpoint(self, rec: Recorder) -> None:
        self.request(rec, self.writer, "checkpoint", "POST", "/admin/checkpoint")

    def stats(self, rec: Recorder) -> dict:
        payload, __ = self.request(rec, self.reader, "stats", "GET", "/stats")
        return payload["service"]

    def read_round(self, rec: Recorder, rng: random.Random,
                   ops: Tuple[str, ...], conn: Connection) -> None:
        """One round of ``ops`` on ``conn``: pages, a batch and a sample,
        then an inverted access on an answer the round was served."""
        round_served = []
        for op, params in workloads.read_round(self.bench.workload, ops, rng,
                                               self.count):
            answers = self.read(rec, op, params, conn)
            if op == "page":
                first = params["number"] * params["size"]
                round_served.extend(enumerate(answers, start=first))
            elif op == "batch":
                round_served.extend(zip(params["positions"], answers))
        if "position_of" in ops:
            position, answer = workloads.pick_served(rng, round_served)
            self.read(rec, "position_of", {"answer": json.dumps(list(answer)),
                                           "expected": position}, conn)


class Bench:
    """The workload, its seed and oracle, and the answer checks."""

    def __init__(self, workload, scale, seed: int):
        self.workload, self.scale, self.seed = workload, scale, seed
        self.oracle = None
        #: Every server process this run started (all stopped at its end).
        self.processes: List[ServerProcess] = []

    def spawn(self, argv: List[str]) -> ServerProcess:
        process = ServerProcess(argv)
        self.processes.append(process)
        return process

    def check_count(self, count: int, generation: int) -> None:
        expected = self.oracle.count(generation)
        if count != expected:
            raise CheckFailed(f"count {count}, oracle says {expected}")

    def check_read(self, session: Session, rec: Recorder, op: str,
                   params: dict, payload: dict, answers: List[tuple]) -> None:
        count = session.count
        if op == "sample":
            positions = None
            expected = min(params["k"], count)
            if len(set(answers)) != len(answers):
                raise CheckFailed("sample repeated an answer")
        elif "positions" in params:
            positions = params["positions"]
            expected = len(positions)
        else:  # a page, or a batch by start/stop: a range clamped to count
            if op == "page":
                start = params["number"] * params["size"]
                stop = start + params["size"]
            else:
                start, stop = params["start"], params["stop"]
            positions = range(start, max(start, min(stop, count)))
            expected = len(positions)
        if len(answers) != expected:
            raise CheckFailed(f"{op} returned {len(answers)} answers, "
                              f"expected {expected}")
        if payload.get("count", count) != count:
            raise CheckFailed(f"{op} reported count {payload['count']}, "
                              f"the oracle says {count}")
        generation = self.read_generation(session, rec, op, payload, answers)
        for answer in answers:
            if not self.oracle.contains(answer, generation):
                raise CheckFailed(f"{op} served {answer}, not an answer at "
                                  f"slice generation {generation}")
        # On the static workloads the writer never touches the query's
        # answers, so a position serves one answer for the whole run.
        if positions is not None and not self.workload.dynamic:
            for position, answer in zip(positions, answers):
                known = session.served.setdefault(position, answer)
                if known != answer:
                    raise CheckFailed(f"position {position} served {answer} "
                                      f"and earlier {known}")

    def read_generation(self, session: Session, rec: Recorder, op: str,
                        payload: dict, answers: List[tuple]) -> Optional[int]:
        """The slice generation a read served, checked against its version.

        A read holds one generation: that of the version it reports, or
        of the version before it. A ``reresolve`` read that lands while a
        writer is mid-apply is served the previous published snapshot
        under the new version (the freshness window documented in
        ``repro.service.cursor``); such reads are counted as lagged.
        """
        if not self.workload.dynamic:
            return None
        # Every ingest bumps the version by one and the generation by one.
        version, generation = session.acked
        current = generation + payload["version"] - version
        seen = {self.oracle.generation_of(a) for a in answers} - {None}
        if not seen or seen == {current}:
            return current
        if seen == {current - 1}:
            rec.lagged_reads += 1
            return current - 1
        raise CheckFailed(f"{op} at version {payload['version']} served "
                          f"slice generation(s) {sorted(seen)}, expected "
                          f"{current}")

    def check_position(self, payload: dict, params: dict) -> None:
        # A union index has no inverted access: the endpoint answers null.
        expected = None if self.workload.union else params["expected"]
        if payload["position"] != expected:
            raise CheckFailed(f"position_of {params['answer']} returned "
                              f"{payload['position']}, expected {expected}")


# ---------------------------------------------------------------------- #
# Phases                                                                  #
# ---------------------------------------------------------------------- #


def guarded(rec: Recorder, action) -> bool:
    """Run one checked action; a failure is counted, never raised."""
    try:
        action()
        return True
    except (CheckFailed, OSError, http.client.HTTPException, ValueError,
            KeyError, TypeError) as error:
        rec.fail(f"{type(error).__name__}: {error}")
        return False


def set_up(bench: Bench, server: ServerProcess, rec: Recorder):
    """One set-up, until the first correct answer of every op type.

    Returns ``(session, seconds)``: from just before ``create_app`` (the
    server's ``t0``) to the last checked answer.
    """
    reply = server.command("setup")
    session = Session(bench, reply["port"], reply["store"])
    workload = bench.workload
    rng = workloads.stream_rng(bench.seed, workload, "setup")

    def first_answers():
        session.open_cursor(rec)
        page = session.read(rec, "page", {"number": 0,
                                          "size": workload.page_size})
        session.read(rec, "batch", {"positions": [
            rng.randrange(session.count) for __ in range(workload.batch_size)]})
        session.read(rec, "sample", {"k": workload.sample_k, "seed": 1})
        session.read(rec, "position_of", {"answer": json.dumps(list(page[0])),
                                          "expected": 0})
        session.ingest(rec)

    ok = guarded(rec, first_answers)
    seconds = time.monotonic() - reply["t0"]
    if not ok:
        raise CheckFailed("set-up failed: " + "; ".join(rec.errors))
    return session, seconds


def timed_loop(session: Session, seconds: float, tag: str):
    """Reader and writer connections, closed loop, for ``seconds``.

    The reader runs rounds of the workload's ``reader_ops`` back to back;
    the writer ingests, runs one round of its ``writer_ops``, and ingests
    again. Returns ``(reader, writer, elapsed_seconds)``.
    """
    bench = session.bench
    workload = bench.workload
    reader_rec, writer_rec = Recorder(), Recorder()
    start = time.perf_counter()
    deadline = start + seconds

    def reader():
        rng = workloads.stream_rng(bench.seed, workload, f"{tag}:reader")
        while time.perf_counter() < deadline and guarded(
                reader_rec, lambda: session.read_round(
                    reader_rec, rng, workload.reader_ops, session.reader)):
            pass

    def writer():
        rng = workloads.stream_rng(bench.seed, workload, f"{tag}:writer")

        def cycle():
            session.ingest(writer_rec)
            every = workload.checkpoint_every
            if every is not None and session.ingests % every == 0:
                session.checkpoint(writer_rec)
            session.read_round(writer_rec, rng, workload.writer_ops,
                               session.writer)

        while time.perf_counter() < deadline and guarded(writer_rec, cycle):
            pass

    threads = [threading.Thread(target=reader), threading.Thread(target=writer)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return reader_rec, writer_rec, time.perf_counter() - start


def verify(session: Session, rec: Recorder) -> None:
    """After the loop: ``page(n)`` equals ``batch(start..stop)`` for a few
    seeded pages."""
    bench = session.bench
    rng = workloads.stream_rng(bench.seed, bench.workload, "verify")
    size = bench.workload.page_size
    pages = max(1, -(-session.count // size))
    for number in sorted({rng.randrange(pages) for __ in range(3)}):
        page = session.read(rec, "page", {"number": number, "size": size})
        start = number * size
        batch = session.read(rec, "batch", {"start": start,
                                            "stop": start + size})
        if batch != page:
            raise CheckFailed(f"page {number} differs from batch "
                              f"[{start}, {start + size})")


def restart(bench: Bench, previous: Session, argv: List[str], rec: Recorder,
            trace_file: Optional[Path] = None):
    """Spawn a fresh server on ``previous``'s durable store.

    Returns ``(server, session, seconds)``: the restarted server keeps
    serving, and the seconds run from the spawn to its first correct page,
    which must be at the last acknowledged version.
    """
    argv = argv + ["--recover", previous.store]
    if trace_file is not None:
        argv += ["--trace-file", str(trace_file)]
    start = time.monotonic()
    server = bench.spawn(argv)
    session = Session(bench, server.read()["port"], previous.store)
    session.acked, session.served = previous.acked, previous.served
    session.ingests = previous.ingests
    session.open_cursor(rec)
    session.read(rec, "page", {"number": 0, "size": bench.workload.page_size})
    seconds = time.monotonic() - start
    if session.last_read_version != previous.acked[0]:
        raise CheckFailed(f"restarted at version {session.last_read_version}, "
                          f"last acknowledged {previous.acked[0]}")
    return server, session, seconds


# ---------------------------------------------------------------------- #
# Metrics and the report                                                  #
# ---------------------------------------------------------------------- #


def quantile_ms(values: List[float], q: float) -> float:
    return tracing.percentile([v * 1e3 for v in values], q)


def end_to_end(rec: Recorder, loop_seconds: float, setups: List[float],
               restarts: List[float], rss_kb: int) -> Dict[str, float]:
    lat = rec.latency
    return {
        "setup_s": statistics.median(setups),
        "page_p50_ms": quantile_ms(lat.get("page", []), 0.5),
        "page_p90_ms": quantile_ms(lat.get("page", []), 0.9),
        "batch_p50_ms": quantile_ms(lat.get("batch", []), 0.5),
        "batch_p90_ms": quantile_ms(lat.get("batch", []), 0.9),
        "sample_p50_ms": quantile_ms(lat.get("sample", []), 0.5),
        "sample_p90_ms": quantile_ms(lat.get("sample", []), 0.9),
        "invert_p50_ms": quantile_ms(lat.get("position_of", []), 0.5),
        "invert_p90_ms": quantile_ms(lat.get("position_of", []), 0.9),
        "answers_per_s": rec.answers / loop_seconds,
        "ingest_p50_ms": quantile_ms(lat.get("ingest", []), 0.5),
        "ingest_p90_ms": quantile_ms(lat.get("ingest", []), 0.9),
        "restart_s": statistics.median(restarts),
        "rss_mb": rss_kb / 1024,
    }


def fingerprint(workload) -> dict:
    """What the numbers were measured on."""
    sha = None  # not a git checkout: the source digest identifies it
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "workload": workload.name,
        "store": workload.store,
        "dynamic": workload.dynamic,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "wal_flush": "fsync per acknowledged ingest (default policy)",
        "orjson_importable": importlib.util.find_spec("orjson") is not None,
        "uvicorn_importable": importlib.util.find_spec("uvicorn") is not None,
        "host": platform.platform(),
    }


def load_spec() -> Dict[str, dict]:
    """Metric name → ``{"unit", ...}`` from ``BENCHMARK.json``, when present."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return {}
    spec = json.loads(path.read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def report(metrics: Dict[str, float], units: Dict[str, str],
           samples: Dict[str, int]) -> Dict[str, dict]:
    out = {}
    for name, value in metrics.items():
        unit = units[name]
        out[name] = {"value": value, "unit": unit}
        count = samples.get(name)
        suffix = f"  (n={count})" if isinstance(count, int) else ""
        print(f"  {name:36s} {value:14.6f} {unit}{suffix}")
    return out


def sample_counts(rec: Recorder, setups, restarts) -> Dict[str, int]:
    lat = rec.latency
    counts = {"setup_s": len(setups), "restart_s": len(restarts)}
    for metric, op in (("page", "page"), ("batch", "batch"),
                       ("sample", "sample"), ("invert", "position_of"),
                       ("ingest", "ingest")):
        for suffix in ("p50_ms", "p90_ms"):
            counts[f"{metric}_{suffix}"] = len(lat.get(op, []))
    return counts


# ---------------------------------------------------------------------- #
# Runs                                                                    #
# ---------------------------------------------------------------------- #


def untraced_run(bench: Bench, server: ServerProcess, argv, seconds: float):
    """Set up ``setups`` times, then run the loop in ``restarts`` segments
    with a restart of the server on its store after each: restarts are
    spread over the run and follow real writes."""
    total = Recorder()
    setups = []
    session = None
    for __ in range(bench.scale.setups):
        if session is not None:
            session.close()
            server.command("teardown")
        session, seconds_taken = set_up(bench, server, total)
        setups.append(seconds_taken)
    loop = Recorder()
    loop_seconds = 0.0
    restarts = []
    peak_kb = 0
    for segment in range(bench.scale.restarts):
        reader, writer, elapsed = timed_loop(
            session, seconds / bench.scale.restarts, f"loop{segment}")
        loop.merge(reader, writer)
        loop_seconds += elapsed
        peak_kb = max(peak_kb, server.command("rss")["kb"])
        session.checkpoint(total)
        session.close()
        server.stop()
        server, session, seconds_taken = restart(bench, session, argv, total)
        restarts.append(seconds_taken)
    guarded(total, lambda: verify(session, total))
    peak_kb = max(peak_kb, server.command("rss")["kb"])
    session.close()
    server.stop()
    total.merge(loop)
    metrics = end_to_end(loop, loop_seconds, setups, restarts, peak_kb)
    samples = sample_counts(loop, setups, restarts)
    samples["latencies_ms"] = {op: [v * 1e3 for v in values]
                               for op, values in loop.latency.items()}
    samples["setups_s"], samples["restarts_s"] = setups, restarts
    return metrics, total, samples


def counting_phase(session: Session, server: ServerProcess, rec: Recorder):
    """A fixed, sequential request sequence: the exact counts.

    Nothing runs concurrently and the sequence depends only on the seed,
    so every count repeats exactly for a fixed seed.
    """
    bench = session.bench
    rng = workloads.stream_rng(bench.seed, bench.workload, "count")
    wal = Path(session.store) / "wal.jsonl"
    wal_before = wal.stat().st_size
    reads = Recorder()
    writes = Recorder()
    server.command("phase", name="count")
    for __ in range(COUNT_ROUNDS):
        session.read_round(reads, rng, workloads.ALL_READS, session.reader)
        session.ingest(writes)
    wal_bytes = wal.stat().st_size - wal_before
    session.checkpoint(writes)
    rec.merge(reads, writes)
    return {
        "answers": reads.answers,
        "body_bytes": reads.body_bytes,
        "effective_ops": writes.effective_ops,
        "wal_bytes": wal_bytes,
    }


def traced_run(bench: Bench, server: ServerProcess, argv, seconds: float,
               trace_dir: Path):
    total = Recorder()
    session, untraced_setup = set_up(bench, server, total)
    session.close()
    server.command("teardown")
    server.command("trace", on=True)
    server.command("phase", name="setup")
    session, traced_setup = set_up(bench, server, total)
    counted = counting_phase(session, server, total)

    server.command("trace", on=False)
    reader, writer, untraced_seconds = timed_loop(session, seconds / 2, "untraced")
    untraced = Recorder().merge(reader, writer)
    stats_before = session.stats(total)
    server.command("trace", on=True)
    server.command("phase", name="loop")
    reader, writer, traced_seconds = timed_loop(session, seconds / 2, "traced")
    traced = Recorder().merge(reader, writer)
    server.command("trace", on=False)
    stats_after = session.stats(total)
    guarded(total, lambda: verify(session, total))
    rss_kb = server.command("rss")["kb"]
    session.checkpoint(total)
    session.close()
    server.stop()
    total.merge(untraced, traced)

    server, session, restart_untraced = restart(bench, session, argv, total)
    session.close()
    server.stop()
    restart_trace = trace_dir / f"{bench.workload.name}-seed{bench.seed}-restart.jsonl"
    server, session, restart_traced = restart(bench, session, argv, total,
                                              restart_trace)
    session.close()
    server.stop()

    spans, counters = tracing.load(trace_dir / f"{bench.workload.name}-seed{bench.seed}.jsonl")
    restart_spans, __ = tracing.load(restart_trace)
    count_counters = counters.get("count", {})
    layer = tracing.layer_metrics(spans, traced.by_request)

    def delta(field):
        return stats_after[field] - stats_before[field]

    ops = counted["effective_ops"]
    layer.update({
        "server.bytes_per_answer": counted["body_bytes"] / counted["answers"],
        "service.rebuilds": delta("static_builds") + delta("dynamic_builds"),
        "service.locked_reads": delta("locked_reads"),
        "core.union.probes_per_answer": (
            count_counters.get("core.union.probes", 0) / counted["answers"]),
        "core.dynamic.weight_updates_per_op": (
            count_counters.get("core.dynamic.set_weight", 0) / ops),
        "storage.wal_bytes_per_op": counted["wal_bytes"] / ops,
        "storage.recover_s": tracing.recover_seconds(restart_spans),
        "storage.wal_retries": stats_after["wal_retries"],
    })
    plain = end_to_end(untraced, untraced_seconds, [untraced_setup],
                       [restart_untraced], rss_kb)
    armed = end_to_end(traced, traced_seconds, [traced_setup],
                       [restart_traced], rss_kb)
    for name in OVERHEAD_METRICS:
        layer[f"trace.overhead.{name}"] = armed[name] - plain[name]
    samples = {"trace.spans": len(spans), "trace.requests": len(traced.by_request)}
    return layer, total, samples, tracing.span_counts(spans)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="full",
                        choices=sorted(workloads.SCALES),
                        help="input size (smoke: the self-test size)")
    args = parser.parse_args(argv)

    workloads.require_source()
    spec = load_spec()
    workload = workloads.WORKLOADS[args.workload]
    scale = workloads.SCALES[args.scale]

    def on_deadline(signum, frame):
        raise TimeoutError(f"run exceeded {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, on_deadline)
    signal.alarm(DEADLINE_S)

    run_dir = WORK / "runs" / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    trace_dir = WORK / "traces"
    for path in (run_dir, trace_dir, WORK / "results"):
        path.mkdir(parents=True, exist_ok=True)
    trace_file = trace_dir / f"{workload.name}-seed{args.seed}.jsonl"
    server_args = ["--workload", workload.name, "--seed", str(args.seed),
                   "--scale", args.scale, "--workdir", str(run_dir)]
    bench = Bench(workload, scale, args.seed)
    try:
        server = bench.spawn(server_args + (
            ["--trace-file", str(trace_file)] if args.trace else []))
        # The oracle is computed while the server generates its inputs.
        database = workloads.generate_database(workload, scale, args.seed)
        bench.oracle = workloads.make_oracle(workload, scale, args.seed,
                                             database)
        del database
        server.read()  # the server's inputs are generated
        if args.trace:
            metrics, total, samples, shape = traced_run(
                bench, server, server_args, args.seconds, trace_dir)
        else:
            metrics, total, samples = untraced_run(
                bench, server, server_args, args.seconds)
            shape = None
    finally:
        for process in bench.processes:
            process.close()
        signal.alarm(0)
        shutil.rmtree(run_dir, ignore_errors=True)

    correct = total.failed == 0
    units = {name: spec.get(name, {}).get("unit", "") for name in metrics}
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds} store={workload.store}")
    print(f"  requests attempted {total.attempted}, failed {total.failed} "
          f"(failed_ratio {total.failed / max(1, total.attempted):.6f}), "
          f"lagged reads {total.lagged_reads}")
    for error in total.errors:
        print(f"  FAILED: {error}")
    emitted = report(metrics, units, samples)
    if shape is not None:
        print("  spans: " + json.dumps(shape))
    info = fingerprint(workload)
    print("fingerprint: " + json.dumps(info, sort_keys=True))
    result = {"correct": correct, "attempted": total.attempted,
              "failed": total.failed, "metrics": emitted}
    (WORK / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({**result, "fingerprint": info,
                              "samples": samples}, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
