"""Kernel-backend conformance: every registered backend, bit for bit.

The registry (:mod:`repro.align.kernels`) promises that every backend is
an *exact* drop-in for the serial ``rowscan`` reference — identical
H/E/F rows, best cell, watch hit, saved rows, taps, cell counts and
checkpoints — so this suite runs the whole registry through the same
assertion (:func:`tests.conftest.assert_sweeps_identical`) on inputs
chosen to break lookalikes: N-heavy sequences through the substitution
LUT, the ``gap_first == gap_ext`` scan boundary, one-row and one-column
matrices, every forced/start-gap regime, windowed ``advance`` cuts, and
cross-backend checkpoint resume.  It also pins the bench ledger's
refusal to report names the registry cannot back.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.constants import TYPE_GAP_S0, TYPE_GAP_S1, TYPE_MATCH
from repro.errors import ConfigError
from repro.align import RowSweeper
from repro.align.kernels import (KernelBackend, backend_names, get_backend,
                                 register_backend, _REGISTRY)
from repro.align.myers_miller import MMConfig, find_midpoint, mm_score
from repro.align.scoring import PAPER_SCHEME
from repro.core import CUDAlign, small_config
from repro.service import JobSpec
from repro.sequences.sequence import N_CODE, Sequence

from tests.conftest import SCHEMES, assert_sweeps_identical, make_pair

from benchmarks.bench_backends import build_ledger, validate_ledger

REGIMES = [
    ("local", dict(local=True, start_gap=TYPE_MATCH, forced=False)),
    ("global", dict(local=False, start_gap=TYPE_MATCH, forced=False)),
    ("gap-s0", dict(local=False, start_gap=TYPE_GAP_S0, forced=False)),
    ("gap-s1", dict(local=False, start_gap=TYPE_GAP_S1, forced=False)),
    ("forced-s0", dict(local=False, start_gap=TYPE_GAP_S0, forced=True)),
    ("forced-s1", dict(local=False, start_gap=TYPE_GAP_S1, forced=True)),
]

#: Every backend the registry knows; the suite derives its matrix from
#: the registry so a new backend is conformance-tested by registration.
ALL_BACKENDS = backend_names()
NON_REFERENCE = [b for b in ALL_BACKENDS if b != "rowscan"]


def _make(name, s0, s1, scheme, **kw):
    return get_backend(name).make(s0.codes, s1.codes, scheme, **kw)


def _n_heavy_pair(rng, m, n, frac=0.3):
    """Sequences where ~frac of the bases are N — the LUT row that a
    match/mismatch branch (instead of a table gather) would get wrong."""
    c0 = rng.integers(0, 4, size=m).astype(np.uint8)
    c1 = rng.integers(0, 4, size=n).astype(np.uint8)
    c0[rng.random(m) < frac] = N_CODE
    c1[rng.random(n) < frac] = N_CODE
    return Sequence(c0, name="n0"), Sequence(c1, name="n1")


class TestRegistry:
    def test_builtins_registered(self):
        assert set(ALL_BACKENDS) >= {"rowscan", "batched"}
        assert get_backend("batched").batch
        assert not get_backend("rowscan").batch

    def test_unknown_name_is_an_error(self):
        with pytest.raises(ConfigError, match="unknown kernel backend"):
            get_backend("cuda")

    def test_duplicate_registration_is_an_error(self):
        with pytest.raises(ConfigError, match="already registered"):
            register_backend(KernelBackend(name="rowscan",
                                           factory=RowSweeper))

    def test_registration_round_trip(self):
        backend = KernelBackend(name="__test_backend__", factory=RowSweeper,
                                description="test-only alias")
        register_backend(backend)
        try:
            assert get_backend("__test_backend__") is backend
            assert "__test_backend__" in backend_names()
        finally:
            _REGISTRY.pop("__test_backend__")


class TestConformance:
    """Every backend vs the rowscan reference, adversarial inputs."""

    @pytest.mark.parametrize("regime", [r[1] for r in REGIMES],
                             ids=[r[0] for r in REGIMES])
    @pytest.mark.parametrize("name", NON_REFERENCE)
    def test_every_regime(self, rng, name, regime):
        s0, s1 = make_pair(rng, 73, 61)
        scheme = SCHEMES[(len(name) + len(str(regime))) % len(SCHEMES)]
        kw = dict(track_best=True, save_rows=np.array([10, 32, 61]),
                  tap_columns=np.array([len(s1)]))
        ref = _make("rowscan", s0, s1, scheme, **regime, **kw).run()
        watch = ref.best if regime["local"] else None
        ref = _make("rowscan", s0, s1, scheme, watch_value=watch,
                    **regime, **kw).run()
        other = _make(name, s0, s1, scheme, watch_value=watch,
                      **regime, **kw).run()
        assert_sweeps_identical(ref, other)

    @pytest.mark.parametrize("name", NON_REFERENCE)
    def test_n_heavy_sequences(self, rng, name):
        # The substitution LUT has a dedicated N row; any backend that
        # shortcuts scoring to "match or mismatch" diverges here.
        s0, s1 = _n_heavy_pair(rng, 80, 66)
        for _, regime in (REGIMES[0], REGIMES[4]):
            ref = _make("rowscan", s0, s1, PAPER_SCHEME, track_best=True,
                        **regime).run()
            other = _make(name, s0, s1, PAPER_SCHEME, track_best=True,
                          **regime).run()
            assert_sweeps_identical(ref, other)

    @pytest.mark.parametrize("name", NON_REFERENCE)
    def test_flat_gap_scheme(self, rng, name):
        # gap_first == gap_ext collapses the open/extend distinction —
        # the boundary case of the prefix-max E scan's algebra.
        scheme = SCHEMES[2]
        assert scheme.gap_first == scheme.gap_ext
        s0, s1 = make_pair(rng, 57, 64)
        for _, regime in REGIMES:
            ref = _make("rowscan", s0, s1, scheme, **regime).run()
            other = _make(name, s0, s1, scheme, **regime).run()
            assert_sweeps_identical(ref, other)

    @pytest.mark.parametrize("m,n", [(1, 40), (37, 1), (1, 1), (2, 2)])
    @pytest.mark.parametrize("name", NON_REFERENCE)
    def test_degenerate_shapes(self, rng, name, m, n):
        s0, s1 = make_pair(rng, m, n, related=False)
        for _, regime in REGIMES:
            ref = _make("rowscan", s0, s1, PAPER_SCHEME, track_best=True,
                        **regime).run()
            other = _make(name, s0, s1, PAPER_SCHEME, track_best=True,
                          **regime).run()
            assert_sweeps_identical(ref, other)

    @pytest.mark.parametrize("name", NON_REFERENCE)
    def test_windowed_advance(self, rng, name):
        # Stage 1 drives sweeps in block windows; backends must agree at
        # every cut, not just at the end (window size 17 never divides
        # the row count evenly).
        s0, s1 = make_pair(rng, 96, 80)
        ref = _make("rowscan", s0, s1, PAPER_SCHEME, local=True,
                    track_best=True)
        other = _make(name, s0, s1, PAPER_SCHEME, local=True,
                      track_best=True)
        while not ref.done:
            assert ref.advance(17) == other.advance(17)
            np.testing.assert_array_equal(ref.H, other.H)
            np.testing.assert_array_equal(ref.E, other.E)
            np.testing.assert_array_equal(ref.F, other.F)
            assert ref.best == other.best
        assert other.done

    def test_interior_taps(self, rng):
        # Taps at interior columns, not just the final one (Stage 3's
        # special-column matching reads whichever column it targets).
        s0, s1 = make_pair(rng, 50, 44)
        assert "batched" in NON_REFERENCE
        taps = np.array([1, 17, len(s1)])
        for name in NON_REFERENCE:
            for _, regime in REGIMES:
                ref = _make("rowscan", s0, s1, PAPER_SCHEME,
                            tap_columns=taps, **regime).run()
                other = _make(name, s0, s1, PAPER_SCHEME,
                              tap_columns=taps, **regime).run()
                assert_sweeps_identical(ref, other)

    def test_checkpoint_resumes_across_backends(self, rng):
        # A state_dict written by the batched kernel mid-sweep resumes
        # the rowscan kernel (and vice versa) to the same final state —
        # the property that makes Stage-1 checkpoints backend-agnostic.
        s0, s1 = make_pair(rng, 90, 70)
        kw = dict(local=True, track_best=True)
        reference = _make("rowscan", s0, s1, PAPER_SCHEME, **kw).run()

        batched = _make("batched", s0, s1, PAPER_SCHEME, **kw)
        batched.advance(41)
        resumed = _make("rowscan", s0, s1, PAPER_SCHEME, **kw)
        resumed.load_state(batched.state_dict())
        assert_sweeps_identical(reference, resumed.run())
        assert_sweeps_identical(reference, batched.run())

        row = _make("rowscan", s0, s1, PAPER_SCHEME, **kw)
        row.advance(41)
        resumed = _make("batched", s0, s1, PAPER_SCHEME, **kw)
        resumed.load_state(row.state_dict())
        assert_sweeps_identical(reference, resumed.run())


class TestPipelineParity:
    def test_batched_pipeline_bit_identical(self, rng, tmp_path):
        s0, s1 = make_pair(rng, 300, 280)
        ref_cfg = small_config(block_rows=32, n=len(s1), sra_rows=5)
        batched_cfg = small_config(block_rows=32, n=len(s1), sra_rows=5,
                                   kernel="batched")
        ref = CUDAlign(ref_cfg, workdir=str(tmp_path / "row")).run(s0, s1)
        out = CUDAlign(batched_cfg,
                       workdir=str(tmp_path / "batched")).run(s0, s1)
        assert out.best_score == ref.best_score
        assert out.stage1.end_point == ref.stage1.end_point
        assert out.stage1.special_rows == ref.stage1.special_rows
        assert out.stage2.crosspoints == ref.stage2.crosspoints
        assert out.stage3.crosspoints == ref.stage3.crosspoints
        assert out.stage4.crosspoints == ref.stage4.crosspoints
        assert out.binary.encode() == ref.binary.encode()

    def test_config_rejects_bad_kernel(self):
        with pytest.raises(ConfigError):
            small_config(block_rows=32, n=256, kernel="wavefront")
        with pytest.raises(ConfigError):
            small_config(block_rows=32, n=256, kernel="nope")

    def test_myers_miller_parity(self, rng):
        s0, s1 = make_pair(rng, 120, 100)
        assert (mm_score(s0.codes, s1.codes, PAPER_SCHEME, kernel="batched")
                == mm_score(s0.codes, s1.codes, PAPER_SCHEME))
        ref = find_midpoint(s0.codes, s1.codes, PAPER_SCHEME,
                            config=MMConfig(kernel="rowscan"))
        batched = find_midpoint(s0.codes, s1.codes, PAPER_SCHEME,
                                config=MMConfig(kernel="batched"))
        assert batched == ref
        with pytest.raises(ConfigError):
            MMConfig(kernel="wavefront")

    def test_job_spec_round_trips_kernel(self):
        spec = JobSpec(seq0="a.fa", seq1="b.fa", kernel="batched")
        assert JobSpec.from_json(spec.to_json()).kernel == "batched"
        assert spec.pipeline_config(n=4096).kernel == "batched"
        with pytest.raises(ConfigError):
            JobSpec(seq0="a.fa", seq1="b.fa", kernel="warpspeed")


class TestBenchLedger:
    """The MCUPS ledger cannot report a backend the code cannot back."""

    TRAJECTORY = (Path(__file__).resolve().parent.parent
                  / "benchmarks" / "trajectory" / "BENCH_backends.json")

    def test_committed_trajectory_is_valid(self):
        ledger = json.loads(self.TRAJECTORY.read_text())
        validate_ledger(ledger)
        assert set(ledger["registry"]) == set(backend_names())

    def test_unknown_backend_name_rejected(self):
        ledger = json.loads(self.TRAJECTORY.read_text())
        spec = next(iter(ledger["workloads"]))
        entry = ledger["workloads"][spec]["backends"]
        entry["cuda"] = next(iter(entry.values()))
        with pytest.raises(ValueError, match="unregistered backend 'cuda'"):
            validate_ledger(ledger)

    def test_registry_drift_rejected(self):
        ledger = json.loads(self.TRAJECTORY.read_text())
        ledger["registry"].append("retired_kernel")
        with pytest.raises(ValueError, match="registry"):
            validate_ledger(ledger)

    def test_schema_drift_rejected(self):
        ledger = json.loads(self.TRAJECTORY.read_text())
        ledger["schema"] = 999
        with pytest.raises(ValueError, match="schema"):
            validate_ledger(ledger)

    def test_build_refuses_unknown_backends(self):
        with pytest.raises(ConfigError, match="refuses to report"):
            build_ledger(["8x8"], ["rowscan", "cuda"], repeats=1)

    def test_measured_entry_validates(self):
        ledger = build_ledger(["48x40"], ["rowscan", "batched"], repeats=1)
        validate_ledger(ledger)
        entry = ledger["workloads"]["48x40"]
        assert entry["cells"] == 48 * 40
        assert entry["backends"]["rowscan"]["speedup_vs_rowscan"] == 1.0
