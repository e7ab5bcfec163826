"""Workload inputs, made from the seed alone.

The seed goes into the synthetic catalog generators here and nowhere
else: the aligner (``CUDAlign.run`` for the pair workloads, the service
behind the gateway for ``service_burst``) only ever receives the FASTA
files written below.

How much work a run does follows from ``--seconds`` by a fixed rule
(``units``), never from the clock, so one seed and one ``--seconds``
always give the same inputs and the same layer counts.
"""

from __future__ import annotations

import hashlib
import json
import os

from repro.sequences import get_entry, write_fasta

#: Pair workloads: catalog regime, scale (16K-ish sides), and the nominal
#: seconds one alignment costs a run, its checks included, on a calm
#: 2-core host; this sizes a run (see ``units``).
PAIRS = {
    # near-identical genomes: the alignment spans the whole matrix, so
    # Stages 2-5 take over half the wall.
    "pair_homologous": ("5227Kx5229K", 320, 4.0),
    # short local hit: Stage 1 is ~98% of the wall.
    "pair_shorthit": ("3147Kx3283K", 192, 2.5),
}

#: service_burst mix.  Small jobs are 384 x 384 short-hit pairs, under the
#: micro-batcher's 2^18-cell limit; medium jobs are ~2K x 2K near-identical
#: pairs, which run solo with the JobSpec default 64-row checkpoints.
SMALL = ("162Kx172K", 8192)
MEDIUM = ("5227Kx5229K", 2560)
BURST_JOBS = 100
#: Every fourth job is medium, job 0 included: the first dispatch is a
#: solo medium job, which keeps the single worker busy while the rest of
#: the burst is posted, so the micro-batcher sees the whole queue.
MEDIUM_EVERY = 4
#: Exact duplicates (same FASTA files, new job id) of these jobs close
#: the burst; their twins have finished by then, so they hit the cache.
DUPLICATES = (1, 2, 0, 4)
BURST_NOMINAL_S = 10.0


def units(workload: str, seconds: int) -> int:
    """Alignments (pair workloads) or bursts (service) in one run."""
    nominal = PAIRS[workload][2] if workload in PAIRS else BURST_NOMINAL_S
    return max(1, round(seconds / nominal))


def _digest(seq) -> str:
    return hashlib.sha256(seq.codes.tobytes()).hexdigest()


def _write(directory: str, stem: str, s0, s1) -> dict:
    files = {}
    for tag, seq in (("seq0", s0), ("seq1", s1)):
        name = f"{stem}-{tag}.fa"
        write_fasta(os.path.join(directory, name), seq)
        files[tag] = name
    return {**files, "sha0": _digest(s0), "sha1": _digest(s1),
            "m": len(s0), "n": len(s1)}


def make_pairs(workload: str, seed: int, seconds: int,
               directory: str) -> list[dict]:
    """Write the run's pairs as FASTA; one entry per alignment."""
    key, scale, _ = PAIRS[workload]
    entry = get_entry(key)
    items = []
    for index in range(units(workload, seconds)):
        s0, s1 = entry.build(scale=scale, seed=seed * 10_000 + index)
        items.append({"index": index,
                      **_write(directory, f"pair{index}", s0, s1)})
    return items


def make_burst(seed: int, burst: int, directory: str) -> list[dict]:
    """Write one burst's job inputs as FASTA; one entry per POST."""
    jobs = []
    for k in range(BURST_JOBS):
        kind = "medium" if k % MEDIUM_EVERY == 0 else "small"
        key, scale = MEDIUM if kind == "medium" else SMALL
        s0, s1 = get_entry(key).build(
            scale=scale, seed=seed * 10_000 + burst * 1000 + k)
        job_id = f"b{burst}-j{k:03d}"
        jobs.append({"job_id": job_id, "kind": kind,
                     **_write(directory, job_id, s0, s1)})
    for k in DUPLICATES:
        jobs.append({**jobs[k], "job_id": f"b{burst}-dup{k:03d}",
                     "twin": jobs[k]["job_id"]})
    return jobs


def inputs_digest(items: list[dict]) -> str:
    """One digest over the generated inputs (sequence digests, sizes,
    job ids, order)."""
    return hashlib.sha256(json.dumps(items, sort_keys=True).encode()
                          ).hexdigest()
