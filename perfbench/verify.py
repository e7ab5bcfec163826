"""Output checks, run after the timed window.

Every check returns a list of problems; an empty list is a pass.  A
problem makes its operation count as failed.
"""

from __future__ import annotations

import hashlib
import json
import os

from repro.align.reference import sw_score
from repro.align.rowscan import RowSweeper
from repro.errors import ReproError
from repro.storage.binary_alignment import BinaryAlignment

#: Recorded digests for the default seed (``expected.json``).
DEFAULT_SEED = 0
_EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "expected.json")


def expected_digest(workload: str, seed: int, index: int) -> str | None:
    """The recorded digest of unit ``index`` at the default seed."""
    if seed != DEFAULT_SEED:
        return None
    with open(_EXPECTED, encoding="utf-8") as handle:
        return json.load(handle).get(workload, {}).get(str(index))


def score_sweep(s0, s1, scheme) -> tuple[int, tuple[int, int]]:
    """Independent score-only sweep: best score and its cell."""
    sweep = RowSweeper(s0.codes, s1.codes, scheme, local=True,
                       track_best=True).run()
    return sweep.best, sweep.best_pos


def check_pair(s0, s1, scheme, best_score: int, binary: bytes,
               expected_sha: str | None) -> list[str]:
    """A pair alignment: independent sweep, rescoring of the decoded
    binary alignment, and the binary bytes' recorded SHA-256."""
    problems = []
    best, _ = score_sweep(s0, s1, scheme)
    if best != best_score:
        problems.append(f"best_score {best_score} != sweep {best}")
    try:
        decoded = BinaryAlignment.decode(binary)
        rescored = decoded.reconstruct().score(s0, s1, scheme)
    except (ReproError, ValueError, IndexError) as exc:
        problems.append(f"binary alignment unreadable: {exc}")
    else:
        if rescored != best_score or decoded.score != best_score:
            problems.append(f"alignment rescores to {rescored} (header "
                            f"{decoded.score}), not {best_score}")
    sha = hashlib.sha256(binary).hexdigest()
    if expected_sha is not None and sha != expected_sha:
        problems.append(f"binary alignment sha256 {sha} != recorded "
                        f"{expected_sha}")
    return problems


def check_job(outcome: dict, truth: tuple[int, tuple[int, int]],
              m: int, n: int) -> list[str]:
    """A service job: terminal state, end-to-end digest, and the result
    against an independent sweep of the same inputs."""
    problems = []
    if outcome.get("state") not in ("succeeded", "cached"):
        return [f"ended {outcome.get('state')}"]
    if not outcome.get("digest_ok"):
        problems.append("X-Repro-Digest does not match the body")
    result = outcome.get("result") or {}
    best, pos = truth
    if result.get("best_score") != best:
        problems.append(f"best_score {result.get('best_score')} != "
                        f"sweep {best}")
    if result.get("end") != list(pos):
        problems.append(f"end {result.get('end')} != sweep best cell "
                        f"{list(pos)}")
    if (result.get("m"), result.get("n")) != (m, n):
        problems.append(f"shape {result.get('m')}x{result.get('n')} != "
                        f"{m}x{n}")
    return problems


def check_reference(s0, s1, scheme, best_score: int) -> list[str]:
    """Full-matrix reference score (costly: small jobs only)."""
    ref = sw_score(s0, s1, scheme)
    return [] if ref == best_score else [
        f"best_score {best_score} != reference {ref}"]


def result_fields(outcome: dict) -> list:
    """The fields of a job's result that its inputs fix."""
    result = outcome.get("result") or {}
    return [result.get(key) for key in ("best_score", "start", "end",
                                        "alignment_length")]


def results_digest(outcomes: dict[str, dict]) -> str:
    """One digest over every job's :func:`result_fields`."""
    rows = sorted([job_id, *result_fields(outcome)]
                  for job_id, outcome in outcomes.items())
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()
