"""End-to-end and per-layer benchmark of the CUDAlign 2.0 reproduction.

    python3 perfbench/run.py --workload pair_homologous --seed 0 \\
        --seconds 16 --trace 0

Workloads (see README.md for why each exists and what it should move):

* ``pair_homologous`` — ~16K x 16K near-identical pairs, aligned one after
  another in one process the way ``repro align --workdir`` runs them;
* ``pair_shorthit`` — the same cell count in the short-hit regime;
* ``service_burst`` — one client posts a burst of 104 jobs to the gateway.

The run generates its inputs from ``--seed``, measures, checks every
output outside the timed window, and prints a table, one ``{"report":
...}`` JSON line (host fingerprint, samples, digests, problems) and, last,
the result line ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics of a traced pass, plus the tracing overhead against an
untraced pass over the same inputs.
"""

from __future__ import annotations

import time

_STARTED = time.monotonic()

import argparse  # noqa: E402 - the clock starts before any import
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

from common import (WORK, Stamp, add_src_path, fingerprint,  # noqa: E402
                    median, net_seconds, stamp)

WORKLOADS = ("pair_homologous", "pair_shorthit", "service_burst")
#: Fresh-process set-ups timed per run; setup_s is their median.
SETUP_SAMPLES = 5
#: End-to-end metrics whose traced-minus-untraced difference is reported.
OVERHEAD_METRICS = ("align_mcups", "jobs_per_s", "job_latency_p50_s",
                    "job_latency_p90_s")


def _module(workload: str):
    if workload == "service_burst":
        import burst
        return burst
    import pairs
    return pairs


def _setup_sample(args) -> int:
    """Set the workload up in this fresh process, print when it is ready
    to time, then tear down."""
    workdir = os.path.join(WORK, f"setup-{os.getpid()}")
    os.makedirs(workdir)
    server = None
    try:
        module = _module(args.workload)
        module.warm_up(module.setup(args.workload, args.seed, args.seconds,
                                    workdir))
        if args.workload == "service_burst":
            import burst
            server = burst.Server(os.path.join(workdir, "svc"))
            server.wait_healthy()
        print(json.dumps({"ready": stamp()}), flush=True)
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def _setup_seconds(args) -> list[float]:
    """Process start to ready-to-time, in fresh interpreters, net of
    stolen CPU time."""
    samples = []
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-sample"]
    for _ in range(SETUP_SAMPLES):
        tick = stamp()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        if proc.returncode != 0:
            raise RuntimeError(f"set-up sample exited {proc.returncode}")
        ready = json.loads(out.strip().splitlines()[-1])["ready"]
        samples.append(net_seconds(tick, Stamp(*ready)))
    return samples


#: Units of the end-to-end metrics, in BENCHMARK.json order.
UNITS = {"align_mcups": "MCUPS", "jobs_per_s": "jobs/s",
         "job_latency_p50_s": "s", "job_latency_p90_s": "s",
         "peak_rss_mb": "MB", "disk_mb_written": "MB"}


def _end_to_end(e2e: dict, setup: list[float] | None) -> dict:
    """name -> (value, unit, samples)."""
    out = {name: (e2e[name][0], unit, e2e[name][1])
           for name, unit in UNITS.items()}
    if setup is not None:
        out["setup_s"] = (median(setup), "s", len(setup))
    return out


def run(args, workdir: str) -> tuple[dict, dict]:
    """Returns (metrics name -> (value, unit, samples), report)."""
    module = _module(args.workload)
    pair = args.workload != "service_burst"
    tracer = None
    if args.trace and pair:
        from layers import Tracer
        tracer = Tracer().install()
        tracer.patch()          # the set-up's FASTA reads are traced too
    state = module.setup(args.workload, args.seed, args.seconds, workdir)
    if tracer is not None:
        tracer.unpatch()
    module.warm_up(state)
    report: dict = {"inputs_digest": state["inputs_digest"]}
    if not args.trace:
        measurement = module.measure(state, "run")
        setup = _setup_seconds(args)
        problems = module.check(state, measurement)
        metrics = _end_to_end(module.end_to_end(measurement, problems),
                              setup)
    else:
        import layers
        untraced = module.measure(state, "untraced")
        if tracer is not None:
            tracer.patch()
            measurement = module.measure(state, "traced")
            tracer.unpatch()
            records = [tracer.snapshot()]
            client = None
        else:
            trace_dir = os.path.join(workdir, "trace")
            os.makedirs(trace_dir)
            measurement = module.measure(state, "traced", trace_dir)
            records = layers.load_records(trace_dir)
            client = module.client_samples(measurement)
        problems = module.check(state, measurement, reference=untraced)
        values, detail = layers.layer_metrics(layers.merge(records), client)
        report["layers"] = detail
        metrics = {name: (value, unit, detail.get("samples", {}).get(name))
                   for name, (value, unit) in values.items()}
        traced = _end_to_end(module.end_to_end(measurement, problems), None)
        plain = _end_to_end(module.end_to_end(untraced, problems), None)
        for name in OVERHEAD_METRICS:
            metrics[f"trace.overhead.{name}"] = (
                traced[name][0] - plain[name][0], traced[name][1], None)
        report["traced_end_to_end"] = traced
        report["untraced_end_to_end"] = plain
    report["steal_share"] = [unit["steal_share"] for unit in
                             measurement.get("bursts", [measurement])]
    report["digests"] = module.digests(measurement)
    report["problems"] = {str(i): found for i, found in enumerate(problems)
                          if found}
    report["attempted"] = len(problems)
    report["failed"] = sum(1 for found in problems if found)
    return metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="CUDAlign 2.0 reproduction benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-sample", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    add_src_path()
    # A terminated run still stops its server and removes its scratch.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.setup_sample:
        return _setup_sample(args)

    host = fingerprint()
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        metrics, report = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    host["loadavg_end"] = list(os.getloadavg())
    attempted, failed = report["attempted"], report["failed"]
    report.update(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, host=host,
                  failed_ratio=failed / attempted if attempted else 1.0,
                  wall_s=time.monotonic() - _STARTED,
                  metrics={name: {"value": v, "unit": u, "samples": n}
                           for name, (v, u, n) in metrics.items()})

    print(f"{args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    for name, (value, unit, samples) in metrics.items():
        count = f"  (n={samples})" if samples is not None else ""
        print(f"  {name:<42} {value:>14.6g} {unit}{count}")
    print(f"  {'failed_ratio':<42} {report['failed_ratio']:>14.6g} ratio"
          f"  ({failed}/{attempted})")
    print(json.dumps({"report": report}, sort_keys=True, default=str))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
