"""Host parallelism budget and the column-0 boundary every kernel keeps.

``core_budget`` splits the host's cores between concurrent jobs so a
job's ``workers`` thread pool never oversubscribes it.  The boundary
tests pin the column-0 regimes (local floor, global, incoming-gap and
forced starts) that any split of the matrix into strips or tiles has to
reproduce: every registered kernel backend must evolve column 0 exactly
as the recurrence says, row by row.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.align.kernels import backend_names, get_backend
from repro.align.scoring import PAPER_SCHEME
from repro.constants import NEG_INF, TYPE_GAP_S0, TYPE_GAP_S1, TYPE_MATCH
from repro.errors import ConfigError
from repro.service import AlignmentService, JobSpec
from repro.service.worker import core_budget

from tests.conftest import SCHEMES


def _column0(backend: str, m: int, scheme, **regime):
    """Column-0 ``(H, E, F)`` for rows ``1..m`` as ``backend`` sweeps it."""
    sweep = get_backend(backend).make(
        np.zeros(m, dtype=np.uint8), np.zeros(1, dtype=np.uint8), scheme,
        tap_columns=np.array([0]), save_rows=np.arange(1, m + 1),
        **regime).run()
    left_F = np.array([sweep.saved[i][1][0] for i in range(1, m + 1)])
    return sweep.tap_H[1:, 0], sweep.tap_E[1:, 0], left_F


class TestBoundaryColumn:
    """Each backend's column 0 vs the serial recurrence, all regimes."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("start_gap", [TYPE_MATCH, TYPE_GAP_S0,
                                           TYPE_GAP_S1])
    @pytest.mark.parametrize("forced", [False, True])
    def test_matches_recurrence(self, scheme, start_gap, forced):
        m = 40
        regime = dict(local=False, start_gap=start_gap, forced=forced)
        if forced and start_gap == TYPE_MATCH:
            # A forced start must name the gap run it is forced into.
            for backend in backend_names():
                with pytest.raises(ConfigError, match="gap-typed"):
                    _column0(backend, m, scheme, **regime)
            return
        h = int(NEG_INF) if forced else 0
        f = 0 if start_gap == TYPE_GAP_S1 else int(NEG_INF)
        want_H, want_X = [], []
        for _ in range(m):
            f = max(f - scheme.gap_ext, h - scheme.gap_first)
            h = max(f, int(NEG_INF))
            want_X.append(f)
            want_H.append(h)
        for backend in backend_names():
            left_H, left_E, left_X = _column0(backend, m, scheme, **regime)
            np.testing.assert_array_equal(left_H, want_H)
            np.testing.assert_array_equal(left_X, want_X)
            np.testing.assert_array_equal(left_E, np.full(m, NEG_INF))

    def test_local_is_flat_zero(self):
        for backend in backend_names():
            left_H, left_E, left_X = _column0(backend, 8, PAPER_SCHEME,
                                              local=True)
            np.testing.assert_array_equal(left_H, np.zeros(8))
            np.testing.assert_array_equal(left_X, np.full(8, NEG_INF))
            np.testing.assert_array_equal(left_E, np.full(8, NEG_INF))

    def test_forced_column_floors_instead_of_sinking(self):
        # Once H clamps at NEG_INF, reopening a gap beats extending the
        # sunk run: F must floor at NEG_INF - gap_first, not fall forever.
        for backend in backend_names():
            _, _, left_X = _column0(backend, 5000, PAPER_SCHEME, local=False,
                                    start_gap=TYPE_GAP_S0, forced=True)
            assert left_X.min() == int(NEG_INF) - PAPER_SCHEME.gap_first


class TestCoreBudget:
    def test_even_split(self):
        assert core_budget(8, 2) == 4
        assert core_budget(8, 1) == 8
        assert core_budget(4, 3) == 1

    def test_never_below_one(self):
        assert core_budget(1, 4) == 1
        assert core_budget(0, 1) == 1

    def test_service_clamps_and_counts(self, tmp_path, rng):
        from repro.sequences import homologous_pair, write_fasta
        s0, s1 = homologous_pair(400, rng, names=("a", "b"))
        p0, p1 = tmp_path / "a.fa", tmp_path / "b.fa"
        write_fasta(p0, s0)
        write_fasta(p1, s1)
        # 2 job slots on a (simulated) 2-core host: a job asking for 4
        # pipeline workers must be clamped to its 1-core share.
        service = AlignmentService(tmp_path / "root", workers=2, cpu_count=2)
        try:
            service.submit(JobSpec(seq0=str(p0), seq1=str(p1), workers=4,
                                   block_rows=32, sra_rows=4))
            summary = service.run()
        finally:
            service.close()
        assert summary["succeeded"] == 1
        snapshot = service.telemetry.metrics.snapshot()
        assert snapshot["service.cores_clamped"] == 1

    def test_inline_execute_job_is_uncapped(self, tmp_path, rng):
        from repro.sequences import homologous_pair, write_fasta
        from repro.service import execute_job
        s0, s1 = homologous_pair(300, rng, names=("a", "b"))
        p0, p1 = tmp_path / "a.fa", tmp_path / "b.fa"
        write_fasta(p0, s0)
        write_fasta(p1, s1)
        spec = JobSpec(seq0=str(p0), seq1=str(p1), workers=2,
                       block_rows=32, sra_rows=4)
        summary = execute_job(spec, str(tmp_path / "job"), 1)
        assert summary["best_score"] > 0
