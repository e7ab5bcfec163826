"""Shared helpers: repository paths, process counters, quantiles, host."""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

#: The checkout root: this file lives in ``<root>/perfbench/``.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space for one run's inputs, workdirs and span files; inside the
#: checkout and listed in ``.gitignore``.
WORK = os.path.join(ROOT, ".perfbench_work")


def add_src_path() -> None:
    """Make ``repro`` importable from the checkout's ``src/``; raise
    ``SystemExit(2)`` when the checkout carries no source tree."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def wchar() -> int:
    """Bytes this process passed to write(2) so far, reaped children
    included (Linux ``/proc/self/io``)."""
    with open("/proc/self/io", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("no wchar in /proc/self/io")


class Stamp(NamedTuple):
    """A monotonic time with the CPU clock ticks of every CPU so far."""
    t: float
    busy: int
    steal: int


def stamp() -> Stamp:
    """Now, with busy (user, nice, system, irq, softirq) and steal ticks
    summed over every CPU (Linux ``/proc/stat``).  Steal is time a CPU
    of this guest wanted to run while the hypervisor ran someone else."""
    with open("/proc/stat", encoding="ascii") as handle:
        fields = [int(x) for x in handle.readline().split()[1:9]]
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return Stamp(time.monotonic(), user + nice + system + irq + softirq,
                 steal)


def steal_share(start: Stamp, end: Stamp) -> float:
    """Share of the CPU time wanted between two stamps that was stolen."""
    busy, steal = end.busy - start.busy, end.steal - start.steal
    return steal / (busy + steal) if busy + steal > 0 else 0.0


def net_seconds(start: Stamp, end: Stamp) -> float:
    """Wall seconds between two stamps, less the stolen share.

    On a shared host, neighbours steal from a few percent to half of
    this guest's CPU time, which slows a run by as much without any
    change to the program; the time metrics take that share out so that
    runs at different minutes compare."""
    return (end.t - start.t) * (1.0 - steal_share(start, end))


def peak_rss_mb() -> float:
    """Max resident set of this process and of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def quantile(values, q: float) -> float:
    """The ``q``-quantile (0 < q < 1) by linear interpolation between
    order statistics; 0.0 for no values."""
    data = sorted(values)
    if not data:
        return 0.0
    if len(data) == 1:
        return float(data[0])
    pos = q * (len(data) - 1)
    low = int(pos)
    high = min(low + 1, len(data) - 1)
    return float(data[low] + (data[high] - data[low]) * (pos - low))


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _source_digest() -> str:
    """SHA-256 over every ``src/**/*.py`` path and content, sorted: names
    the code under test where no git metadata is present."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(hashlib.sha256(handle.read()).digest())
    return digest.hexdigest()


def _git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


#: Fingerprint keys that must match before two runs may be compared.
HOST_KEYS = ("nproc", "cpu_model", "python", "numpy")


def fingerprint() -> dict:
    """Host and code identity, recorded in every report."""
    import numpy
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "loadavg_start": list(os.getloadavg()),
    }


def parallel_map(fn, items: list) -> list:
    """``[fn(item) for item in items]`` over up to ``nproc`` forked
    processes, for the checks after the timed window.  ``fn`` must be a
    module-level function; every process has ended when this returns."""
    workers = min(len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(item) for item in items]
    pool = multiprocessing.get_context("fork").Pool(workers)
    try:
        out = pool.map(fn, items, chunksize=1)
        pool.close()
    except BaseException:
        pool.terminate()
        raise
    finally:
        pool.join()
    return out
