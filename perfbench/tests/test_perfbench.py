"""Tests of the benchmark itself: input determinism, repeatable layer
counts, failure accounting, and refusal to run without sources.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import burst
import pairs
import verify
from common import ROOT, Stamp, net_seconds
from inputs import inputs_digest, make_burst, make_pairs
from repro.align.scoring import PAPER_SCHEME
from repro.core import CUDAlign, small_config
from repro.sequences import get_entry

RUN = os.path.join(ROOT, "perfbench", "run.py")
#: Counts that follow the clock, not the inputs: the pump's poll rounds,
#: and manifest sizes, whose JSON carries measured times and paths.
CLOCK_DRIVEN = {"service.step.calls", "telemetry.manifest.bytes"}


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            out[name] = handle.read()
    return out


@pytest.mark.parametrize("workload", ["pair_homologous", "pair_shorthit"])
def test_pair_inputs_repeat_for_a_seed_and_differ_across_seeds(
        tmp_path, workload):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    first = make_pairs(workload, 7, 1, str(dirs[0]))
    again = make_pairs(workload, 7, 1, str(dirs[1]))
    other = make_pairs(workload, 8, 1, str(dirs[2]))
    assert inputs_digest(first) == inputs_digest(again)
    assert _files(dirs[0]) == _files(dirs[1])
    assert inputs_digest(first) != inputs_digest(other)
    assert first[0]["sha0"] != other[0]["sha0"]


def test_burst_inputs_repeat_for_a_seed_and_differ_across_seeds(tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    first = make_burst(3, 0, str(dirs[0]))
    again = make_burst(3, 0, str(dirs[1]))
    other = make_burst(4, 0, str(dirs[2]))
    assert inputs_digest(first) == inputs_digest(again)
    assert _files(dirs[0]) == _files(dirs[1])
    assert [j["job_id"] for j in first] == [j["job_id"] for j in other]
    assert inputs_digest(first) != inputs_digest(other)
    kinds = [j["kind"] for j in first]
    assert len(first) >= 100
    assert kinds.count("medium") == 27 and kinds.count("small") == 77
    assert sum("twin" in j for j in first) == 4


def _traced_counts(workload: str) -> dict:
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    assert out.returncode == 0, out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in ("count", "cells", "B")
            and name not in CLOCK_DRIVEN}


@pytest.mark.parametrize("workload", ["pair_shorthit", "service_burst"])
def test_traced_runs_repeat_their_counts(workload):
    first = _traced_counts(workload)
    assert first == _traced_counts(workload)
    assert first["align.rowscan.calls"] > 0


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """One real 384 x 384 alignment through the pipeline."""
    s0, s1 = get_entry("162Kx172K").build(scale=8192, seed=1)
    config = small_config(64, n=len(s1), sra_rows=8, max_partition_size=32)
    workdir = tmp_path_factory.mktemp("align")
    result = CUDAlign(config, workdir=str(workdir)).run(s0, s1)
    return s0, s1, result


def test_pair_check_passes_the_real_alignment(small_run):
    s0, s1, result = small_run
    blob = result.binary.encode()
    assert verify.check_pair(s0, s1, PAPER_SCHEME, result.best_score, blob,
                             None) == []


def test_tampered_alignment_is_counted_failed(small_run):
    s0, s1, result = small_run
    blob = result.binary.encode()
    runs = []
    for tampered in (
            # the header's score
            dataclasses.replace(result.binary,
                                score=result.binary.score + 1).encode(),
            # the end cell, which no longer rescores
            dataclasses.replace(result.binary, i1=result.binary.i1 - 1,
                                j1=result.binary.j1 - 1).encode(),
            # one payload byte
            blob[:-1] + bytes([blob[-1] ^ 1]),
    ):
        runs.append({"index": 0, "error": None, "wall": 1.0, "cells": 1,
                     "result": dataclasses.replace(
                         result, binary=_Encoded(tampered))})
    state = {"workload": "pair_shorthit", "seed": 99,
             "pairs": [(s0, s1)]}
    problems = pairs.check(state, {"runs": runs})
    assert all(problems), problems
    e2e = pairs.end_to_end({"runs": runs, "window_s": 1.0,
                            "peak_rss_mb": 1.0, "disk_bytes": 1}, problems)
    assert e2e["align_mcups"] == (0.0, 0)
    assert e2e["jobs_per_s"] == (0.0, 0)
    assert verify.check_pair(s0, s1, PAPER_SCHEME, result.best_score, blob,
                             "0" * 64) != []


class _Encoded:
    """Stands in for a BinaryAlignment whose bytes were tampered with."""

    def __init__(self, blob: bytes):
        self.blob = blob

    def encode(self) -> bytes:
        return self.blob


def test_tampered_job_result_is_counted_failed(small_run):
    s0, s1, result = small_run
    truth = verify.score_sweep(s0, s1, PAPER_SCHEME)
    good = {"state": "succeeded", "digest_ok": True,
            "result": {"best_score": result.best_score,
                       "end": list(result.alignment.end),
                       "m": len(s0), "n": len(s1)}}
    assert verify.check_job(good, truth, len(s0), len(s1)) == []
    bad_score = {**good, "result": {**good["result"],
                                    "best_score": result.best_score + 1}}
    bad_digest = {**good, "digest_ok": False}
    failed = {"state": "failed"}
    refused = {"state": "refused 429"}
    for outcome in (bad_score, bad_digest, failed, refused):
        assert verify.check_job(outcome, truth, len(s0), len(s1)) != []
    assert verify.check_reference(s0, s1, PAPER_SCHEME,
                                  result.best_score + 1) != []
    assert verify.results_digest({"a": good}) != \
        verify.results_digest({"a": bad_score})


def test_burst_metrics_skip_failed_jobs():
    outcome = {"state": "succeeded", "latency": 2.0, "cache_hit": False,
               "result": {"m": 10, "n": 10, "wall_seconds": 1.0}}
    measurement = {"bursts": [{
        "order": ["a", "b"], "outcomes": {"a": outcome, "b": outcome},
        "window_s": 4.0, "peak_rss_mb": 1.0, "disk_bytes": 0}]}
    e2e = burst.end_to_end(measurement, [[], ["tampered"]])
    assert e2e["job_latency_p50_s"] == (2.0, 1)
    assert e2e["jobs_per_s"] == (0.25, 1)
    assert e2e["align_mcups"] == (100 / 4.0 / 1e6, 1)


def test_burst_metrics_are_medians_over_bursts():
    def one(latency, window):
        outcome = {"state": "succeeded", "latency": latency,
                   "cache_hit": False, "result": {"m": 10, "n": 10}}
        return {"order": ["a"], "outcomes": {"a": outcome},
                "window_s": window, "peak_rss_mb": 1.0, "disk_bytes": 0}
    measurement = {"bursts": [one(1.0, 1.0), one(9.0, 9.0),
                              one(2.0, 2.0)]}
    e2e = burst.end_to_end(measurement, [[], [], []])
    assert e2e["job_latency_p50_s"] == (2.0, 3)
    assert e2e["job_latency_p90_s"] == (2.0, 3)
    assert e2e["jobs_per_s"] == (0.5, 3)


def test_net_seconds_takes_out_the_stolen_share():
    start = Stamp(10.0, busy=100, steal=0)
    assert net_seconds(start, Stamp(12.0, busy=300, steal=0)) == 2.0
    # a quarter of the CPU time wanted was stolen
    assert net_seconds(start, Stamp(12.0, busy=250, steal=50)) == 1.5
    assert net_seconds(start, Stamp(12.0, busy=100, steal=0)) == 2.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pair_shorthit",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
