"""The service side of service_burst: gateway and service in one process.

Started by ``burst.py``; prints ``{"port": N}`` once the gateway listens,
serves until a line arrives on stdin, then stops the gateway (which
closes the service and reaps every worker) and prints its own counters
as one JSON line::

    python3 perfbench/serve.py --root DIR --workers N [--trace-dir DIR]

With ``--trace-dir`` the layer wrappers are installed before the service
starts, so the workers it forks inherit them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from common import add_src_path, peak_rss_mb, wchar


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args(argv)
    add_src_path()

    tracer = None
    if args.trace_dir:
        from layers import Tracer
        tracer = Tracer(args.trace_dir).install()
        tracer.patch()
    from repro.gateway import GatewayPolicy, GatewayRunner, ServiceDispatcher

    # Admission wide open: the whole burst is admitted and a refusal is a
    # failure of the run, not a policy outcome.
    policy = GatewayPolicy(max_active_per_tenant=10**6,
                           rate_per_tenant=10**6, burst_per_tenant=10**6,
                           max_queue_depth=10**6)
    dispatcher = ServiceDispatcher(args.root, workers=args.workers)
    runner = GatewayRunner(dispatcher, policy, port=0).start()
    print(json.dumps({"port": runner.port}), flush=True)
    io_start = wchar()
    # Wait on the raw descriptor: a forked worker closes sys.stdin, and
    # would deadlock on the buffer lock a blocked readline() holds.
    os.read(sys.stdin.fileno(), 1)
    runner.stop()
    stats = {"disk_bytes": wchar() - io_start, "peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        tracer.flush("server")
    print(json.dumps(stats), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
