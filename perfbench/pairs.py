"""pair_homologous and pair_shorthit: whole alignments, one after another
in one process, configured the way ``repro align --workdir`` runs them
(``small_config(64, sra_rows=8, max_partition_size=32)``, disk SRA,
manifest, Stage 6 on, no checkpoints)."""

from __future__ import annotations

import hashlib
import os
import traceback

import repro.sequences as sequences
from repro.core import CUDAlign, small_config
from repro.sequences import get_entry

import verify
from common import (median, net_seconds, parallel_map, peak_rss_mb,
                    quantile, stamp, steal_share, wchar)
from inputs import PAIRS, inputs_digest, make_pairs

#: The warm-up pair is the workload's regime at a quarter of each side.
WARM_UP_SHRINK = 4


def setup(workload: str, seed: int, seconds: int, workdir: str) -> dict:
    """Generate the pairs, write them as FASTA and read them back."""
    items = make_pairs(workload, seed, seconds, workdir)
    pairs = [(sequences.read_fasta(os.path.join(workdir, item["seq0"])),
              sequences.read_fasta(os.path.join(workdir, item["seq1"])))
             for item in items]
    return {"workload": workload, "seed": seed, "items": items,
            "pairs": pairs, "workdir": workdir,
            "inputs_digest": inputs_digest(items)}


def _config(s1):
    return small_config(64, n=len(s1), sra_rows=8, max_partition_size=32)


def warm_up(state: dict) -> None:
    """Align one small pair of the workload's regime, untimed, so that
    lazy imports, caches and the CPU's clock have settled before the
    first timed alignment."""
    key, scale, _ = PAIRS[state["workload"]]
    s0, s1 = get_entry(key).build(scale=scale * WARM_UP_SHRINK, seed=0)
    CUDAlign(_config(s1), workdir=os.path.join(state["workdir"], "warm-up")
             ).run(s0, s1)


def measure(state: dict, tag: str) -> dict:
    """Align every pair; the timed window spans the first start to the
    last end, and disk bytes and peak RSS are read at its close.  Times
    are net of stolen CPU time (``common.net_seconds``)."""
    runs = []
    base = os.path.join(state["workdir"], tag)
    io_start = wchar()
    first = stamp()
    for index, (s0, s1) in enumerate(state["pairs"]):
        aligner = CUDAlign(_config(s1), workdir=os.path.join(base, f"{index}"))
        tick = stamp()
        try:
            result, error = aligner.run(s0, s1), None
        except Exception:  # noqa: BLE001 - counted as a failed operation
            result, error = None, traceback.format_exc()
        runs.append({"index": index, "wall": net_seconds(tick, stamp()),
                     "cells": len(s0) * len(s1), "result": result,
                     "error": error})
    last = stamp()
    return {"runs": runs, "window_s": net_seconds(first, last),
            "steal_share": steal_share(first, last),
            "disk_bytes": wchar() - io_start, "peak_rss_mb": peak_rss_mb()}


def binary_bytes(run: dict) -> bytes | None:
    result = run["result"]
    if result is None or result.binary is None:
        return None
    return result.binary.encode()


def _check_pair(task: tuple) -> list[str]:
    s0, s1, best_score, blob, expected = task
    return verify.check_pair(s0, s1, _config(s1).scheme, best_score, blob,
                             expected)


def check(state: dict, measurement: dict, reference: dict | None = None
          ) -> list[list[str]]:
    """Problems per alignment.  ``reference`` is a second measurement of
    the same pairs whose outputs must be byte-identical (the untraced
    pass of a traced run)."""
    problems, tasks = [], []
    for run in measurement["runs"]:
        index = run["index"]
        s0, s1 = state["pairs"][index]
        blob = binary_bytes(run)
        if run["error"] is not None:
            found = [run["error"]]
        elif blob is None:
            found = ["no alignment returned"]
        else:
            found = []
            tasks.append((len(problems), (
                s0, s1, run["result"].best_score, blob,
                verify.expected_digest(state["workload"], state["seed"],
                                       index))))
        if reference is not None and \
                binary_bytes(reference["runs"][index]) != blob:
            found.append("traced and untraced alignments differ")
        problems.append(found)
    checked = parallel_map(_check_pair, [task for _, task in tasks])
    for (slot, _), found in zip(tasks, checked):
        problems[slot] += found
    return problems


def digests(measurement: dict) -> dict[str, str | None]:
    """SHA-256 of each alignment's binary bytes, by pair index."""
    out = {}
    for run in measurement["runs"]:
        blob = binary_bytes(run)
        out[str(run["index"])] = (hashlib.sha256(blob).hexdigest()
                                  if blob is not None else None)
    return out


def end_to_end(measurement: dict, problems: list[list[str]]) -> dict:
    """Metrics over the alignments that passed every check: the median
    rate and the latency quantiles of their walls; the closed loop's
    throughput over the window."""
    ok = [run for run, found in zip(measurement["runs"], problems)
          if not found]
    walls = [run["wall"] for run in ok]
    return {
        "align_mcups": (median([run["cells"] / run["wall"] / 1e6
                                for run in ok]), len(ok)),
        "jobs_per_s": (len(ok) / measurement["window_s"], len(ok)),
        "job_latency_p50_s": (median(walls), len(ok)),
        "job_latency_p90_s": (quantile(walls, 0.9), len(ok)),
        "peak_rss_mb": (measurement["peak_rss_mb"], 1),
        "disk_mb_written": (measurement["disk_bytes"] / 1e6, 1),
    }
