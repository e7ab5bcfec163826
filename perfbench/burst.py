"""service_burst: one client posts a burst of jobs to an in-process
gateway (``GatewayRunner`` + ``ServiceDispatcher``, in the ``serve.py``
subprocess) and fetches every result.

Open loop: every job of a burst is due at t=0 (the first POST), like a
batch tenant, and latency runs from there to the job's verified result,
net of stolen CPU time (``common.net_seconds``), as does the window.
The client holds two connections (no more than ``nproc``): one
keep-alive connection for POSTs and results, and one ``/v1/events``
stream that announces finished jobs.  Service workers are ``nproc - 1``
so the client and the gateway keep a core.
"""

from __future__ import annotations

import hashlib
import json
import os
import queue
import socket
import subprocess
import sys
import threading
import time

import repro.sequences as sequences
from repro.align.scoring import PAPER_SCHEME

import verify
from common import (median, net_seconds, parallel_map, quantile, stamp,
                    steal_share)
from inputs import inputs_digest, make_burst, units

HERE = os.path.dirname(os.path.abspath(__file__))
WORKERS = max(1, (os.cpu_count() or 1) - 1)
TENANT = "perfbench"
BURST_TIMEOUT_S = 130.0
#: Small jobs per burst checked against the full-matrix reference.
REFERENCE_SAMPLE = 3


class Connection:
    """Minimal HTTP/1.1 keep-alive client that counts the bytes it reads
    (the server's socket writes, which ``disk_mb_written`` excludes)."""

    def __init__(self, port: int, timeout: float | None = 60.0):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=timeout)
        self.reader = self.sock.makefile("rb")
        self.received = 0

    def readline(self) -> bytes:
        line = self.reader.readline()
        self.received += len(line)
        return line

    def send(self, method: str, path: str, body: bytes = b"") -> None:
        head = (f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                f"X-Repro-Tenant: {TENANT}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n")
        self.sock.sendall(head.encode("latin-1") + body)

    def read_head(self) -> tuple[int, dict[str, str]]:
        status_line = self.readline().split()
        if len(status_line) < 2:
            raise ConnectionError("connection closed before a response")
        headers = {}
        while (line := self.readline()) not in (b"\r\n", b"\n", b""):
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        return int(status_line[1]), headers

    def request(self, method: str, path: str, payload=None
                ) -> tuple[int, dict[str, str], bytes]:
        self.send(method, path, b"" if payload is None
                  else json.dumps(payload).encode())
        status, headers = self.read_head()
        body = self.reader.read(int(headers.get("content-length", 0)))
        self.received += len(body)
        return status, headers, body

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.reader.close()
        self.sock.close()


class EventStream(threading.Thread):
    """The service-wide SSE stream; puts ``(job_id, event, arrival)`` on
    ``sink`` for every ``job_finished`` event."""

    def __init__(self, port: int, sink: queue.Queue):
        super().__init__(name="perfbench-events", daemon=True)
        self.conn = Connection(port, timeout=None)
        self.conn.send("GET", "/v1/events")
        status, _ = self.conn.read_head()
        if status != 200:
            raise ConnectionError(f"/v1/events answered {status}")
        self.sink = sink

    def run(self) -> None:
        event = data = None
        try:
            while raw := self.conn.readline():
                line = raw.decode("utf-8").rstrip("\r\n")
                if line.startswith("event:"):
                    event = line[6:].strip()
                elif line.startswith("data:"):
                    data = line[5:].strip()
                elif not line:
                    if event == "job_finished" and data:
                        body = json.loads(data)["data"]
                        self.sink.put((body["job_id"], body["event"],
                                       time.monotonic()))
                    event = data = None
        except (OSError, ValueError):
            return          # closed by close()

    def close(self) -> None:
        self.conn.close()
        self.join(10)


class Server:
    """``serve.py`` as a subprocess."""

    def __init__(self, root: str, trace_dir: str | None = None):
        cmd = [sys.executable, os.path.join(HERE, "serve.py"),
               "--root", root, "--workers", str(WORKERS)]
        if trace_dir is not None:
            cmd += ["--trace-dir", trace_dir]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait(30)
            raise RuntimeError("serve.py exited before listening")
        self.port = json.loads(line)["port"]
        self.received = 0

    def wait_healthy(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while True:
            conn = Connection(self.port)
            try:
                status, _, body = conn.request("GET", "/v1/healthz")
            finally:
                self.received += conn.received
                conn.close()
            if status == 200 and json.loads(body)["status"] == "ok":
                return
            if time.monotonic() > deadline:
                raise RuntimeError(f"gateway not healthy: {body!r}")
            time.sleep(0.05)

    def stop(self) -> dict:
        """Stop the server and wait for it; its counters, or ``{}``."""
        try:
            self.proc.stdin.write("stop\n")
            self.proc.stdin.flush()
        except (BrokenPipeError, OSError):
            pass
        try:
            out, _ = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            return {}
        lines = out.strip().splitlines()
        return json.loads(lines[-1]) if self.proc.returncode == 0 and \
            lines else {}


def setup(workload: str, seed: int, seconds: int, workdir: str) -> dict:
    """Generate every burst's job inputs and write them as FASTA."""
    bursts = [make_burst(seed, b, workdir)
              for b in range(units(workload, seconds))]
    return {"workload": workload, "seed": seed, "bursts": bursts,
            "workdir": workdir,
            "inputs_digest": inputs_digest(bursts)}


def warm_up(state: dict) -> None:
    """Nothing to warm: each burst goes to a fresh server, as a new
    tenant's service would start."""


def _post_payload(job: dict, workdir: str) -> dict:
    return {"job_id": job["job_id"],
            "seq0": os.path.join(workdir, job["seq0"]),
            "seq1": os.path.join(workdir, job["seq1"])}


def run_client(port: int, jobs: list[dict], workdir: str) -> dict:
    """Post the burst, fetch each result as its job finishes."""
    finished: queue.Queue = queue.Queue()
    stream = EventStream(port, finished)
    stream.start()
    conn = Connection(port)
    outcomes: dict[str, dict] = {}
    post_s, result_s, finished_at = [], [], {}
    refused = 0
    t0 = stamp()
    last = t0

    def settle(job_id: str, event: str, arrival: float) -> None:
        nonlocal last
        if job_id in outcomes:
            return
        finished_at[job_id] = arrival
        if event not in ("succeeded", "cached"):
            outcomes[job_id] = {"state": event}
            return
        tick = time.monotonic()
        status, headers, body = conn.request(
            "GET", f"/v1/jobs/{job_id}/result")
        last = stamp()
        result_s.append(last.t - tick)
        if status != 200:
            outcomes[job_id] = {"state": f"result answered {status}"}
            return
        payload = json.loads(body)
        digest = "sha256:" + hashlib.sha256(body).hexdigest()
        outcomes[job_id] = {"state": payload.get("state"),
                            "cache_hit": payload.get("cache_hit"),
                            "digest_ok": headers.get("x-repro-digest")
                            == digest,
                            "result": payload.get("result"),
                            "latency": net_seconds(t0, last)}

    def drain(timeout: float | None) -> None:
        while True:
            try:
                item = finished.get(timeout=timeout) if timeout else \
                    finished.get_nowait()
            except queue.Empty:
                return
            settle(*item)
            timeout = None

    try:
        for job in jobs:
            tick = time.monotonic()
            status, _, _ = conn.request("POST", "/v1/jobs",
                                        _post_payload(job, workdir))
            post_s.append(time.monotonic() - tick)
            if status != 201:
                refused += 1
                outcomes[job["job_id"]] = {"state": f"refused {status}"}
            drain(None)
        posted = time.monotonic() - t0.t
        deadline = t0.t + BURST_TIMEOUT_S
        while len(outcomes) < len(jobs) and time.monotonic() < deadline:
            drain(0.5)
    finally:
        conn.close()
        stream.close()
    for job in jobs:
        outcomes.setdefault(job["job_id"], {"state": "timed out"})
    return {"outcomes": outcomes, "post_s": post_s, "result_s": result_s,
            "finished_at": finished_at, "refused": refused,
            "window_s": net_seconds(t0, last),
            "steal_share": steal_share(t0, last), "posted_s": posted,
            "order": [job["job_id"] for job in jobs],
            "received": conn.received + stream.conn.received}


def measure(state: dict, tag: str, trace_dir: str | None = None) -> dict:
    bursts = []
    for index, jobs in enumerate(state["bursts"]):
        server = Server(os.path.join(state["workdir"], tag, f"svc{index}"),
                        trace_dir)
        try:
            server.wait_healthy()
            client = run_client(server.port, jobs, state["workdir"])
        finally:
            stats = server.stop()
        client["disk_bytes"] = stats.get("disk_bytes", 0) - \
            client["received"] - server.received
        client["peak_rss_mb"] = stats.get("peak_rss_mb", 0.0)
        bursts.append(client)
    return {"bursts": bursts}


def _read_pair(workdir: str, job: dict):
    return tuple(sequences.read_fasta(os.path.join(workdir, job[tag]))
                 for tag in ("seq0", "seq1"))


def _truth(task: tuple) -> tuple:
    """Untimed score-only sweep of one input pair."""
    s0, s1 = _read_pair(*task)
    return verify.score_sweep(s0, s1, PAPER_SCHEME)


def _reference(task: tuple) -> list[str]:
    workdir, job, best_score = task
    s0, s1 = _read_pair(workdir, job)
    return verify.check_reference(s0, s1, PAPER_SCHEME, best_score)


def check(state: dict, measurement: dict, reference: dict | None = None
          ) -> list[list[str]]:
    """Problems per posted job, bursts in order."""
    workdir = state["workdir"]
    distinct = {(job["seq0"], job["seq1"]): job
                for jobs in state["bursts"] for job in jobs}
    truths = dict(zip(distinct, parallel_map(
        _truth, [(workdir, job) for job in distinct.values()])))
    problems, sampled = [], []
    for index, (jobs, burst) in enumerate(zip(state["bursts"],
                                              measurement["bursts"])):
        outcomes = burst["outcomes"]
        expected = verify.expected_digest(state["workload"], state["seed"],
                                          index)
        digest = verify.results_digest(outcomes)
        in_burst = 0
        for job in jobs:
            outcome = outcomes[job["job_id"]]
            found = verify.check_job(outcome, truths[(job["seq0"],
                                                      job["seq1"])],
                                     job["m"], job["n"])
            if not found and job["kind"] == "small" and "twin" not in job \
                    and in_burst < REFERENCE_SAMPLE:
                in_burst += 1
                sampled.append((len(problems), (
                    workdir, job, outcome["result"]["best_score"])))
            if expected is not None and digest != expected:
                found.append(f"burst results digest {digest} != recorded "
                             f"{expected}")
            if reference is not None:
                other = reference["bursts"][index]["outcomes"][job["job_id"]]
                if verify.result_fields(other) != \
                        verify.result_fields(outcome):
                    found.append("traced and untraced results differ")
            problems.append(found)
    checked = parallel_map(_reference, [task for _, task in sampled])
    for (slot, _), found in zip(sampled, checked):
        problems[slot] += found
    return problems


def digests(measurement: dict) -> dict[str, str]:
    return {str(index): verify.results_digest(burst["outcomes"])
            for index, burst in enumerate(measurement["bursts"])}


def client_samples(measurement: dict) -> dict:
    """Client-side samples of every burst, pooled (layer metrics)."""
    bursts = measurement["bursts"]
    return {"post_s": [x for b in bursts for x in b["post_s"]],
            "result_s": [x for b in bursts for x in b["result_s"]],
            "finished_at": {k: v for b in bursts
                            for k, v in b["finished_at"].items()},
            "refused": sum(b["refused"] for b in bursts)}


def end_to_end(measurement: dict, problems: list[list[str]]) -> dict:
    """Metrics over the jobs that passed every check: each burst's rate
    and latency quantiles, then the median over the run's bursts, so one
    burst slowed by a noisy neighbour moves them least.  The client sees
    no per-job compute wall (a grouped job's Stage 1 runs in a fused
    presweep), so ``align_mcups`` is the service's delivered rate: cells
    of the verified jobs it computed (cache hits excluded) over the
    window."""
    rates, mcups, p50s, p90s, verified = [], [], [], [], 0
    found = iter(problems)
    for burst in measurement["bursts"]:
        latencies, cells = [], 0
        for job_id in burst["order"]:
            outcome = burst["outcomes"][job_id]
            if next(found):
                continue
            latencies.append(outcome["latency"])
            if not outcome.get("cache_hit"):
                cells += outcome["result"]["m"] * outcome["result"]["n"]
        verified += len(latencies)
        if latencies and burst["window_s"] > 0:
            rates.append(len(latencies) / burst["window_s"])
            mcups.append(cells / burst["window_s"] / 1e6)
            p50s.append(median(latencies))
            p90s.append(quantile(latencies, 0.9))
    bursts = measurement["bursts"]
    return {
        "align_mcups": (median(mcups), verified),
        "jobs_per_s": (median(rates), verified),
        "job_latency_p50_s": (median(p50s), verified),
        "job_latency_p90_s": (median(p90s), verified),
        "peak_rss_mb": (max(b["peak_rss_mb"] for b in bursts), len(bursts)),
        "disk_mb_written": (sum(b["disk_bytes"] for b in bursts) / 1e6,
                            len(bursts)),
    }
