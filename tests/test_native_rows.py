"""rowscan's compiled row loop vs its NumPy body vs the per-cell reference.

``RowSweeper._advance`` runs the C loop from ``_rowsweep.c`` when the
library loaded and the NumPy body otherwise; both must produce every
observable bit for bit (``assert_sweeps_identical``), and both must
agree with :mod:`repro.align.reference` wherever the reference is
defined.  The ``numpy_body`` fixture forces the NumPy body for one test.

The second half covers how the library is built and loaded: the cache,
concurrent first users, every fallback reason, and the
``kernel.fallback.<reason>`` counter a run records when it fell back.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.align import native, reference, rowscan
from repro.align.rowscan import RowSweeper
from repro.align.scoring import PAPER_SCHEME, ScoringScheme
from repro.constants import TYPE_GAP_S0, TYPE_GAP_S1, TYPE_MATCH
from repro.core import CUDAlign, small_config
from repro.errors import ConfigError
from repro.sequences.sequence import Sequence
from repro.sequences.synth import homologous_pair, random_dna

from tests.conftest import assert_sweeps_identical

REPO = Path(__file__).resolve().parents[1]

REGIMES = [
    dict(local=True),
    dict(local=False),
    dict(start_gap=TYPE_GAP_S0),
    dict(start_gap=TYPE_GAP_S1),
    dict(start_gap=TYPE_GAP_S0, forced=True),
    dict(start_gap=TYPE_GAP_S1, forced=True),
]

compiled = pytest.mark.skipif(
    rowscan._ROWSWEEP is None,
    reason=f"compiled row loop unavailable ({rowscan.NATIVE_FALLBACK})")


@pytest.fixture
def numpy_body(monkeypatch):
    """Sweeps built inside the test run rowscan's NumPy body."""
    monkeypatch.setattr(rowscan, "_ROWSWEEP", None)


def _sweep(codes0, codes1, scheme, cuts=(), *, body, **kwargs):
    """Run a sweep to the end through ``advance(cut)`` windows on the
    given body (a loaded ``rowsweep`` or ``None`` for NumPy)."""
    saved = rowscan._ROWSWEEP
    rowscan._ROWSWEEP = body
    try:
        sweep = RowSweeper(codes0, codes1, scheme, **kwargs)
        for cut in cuts:
            sweep.advance(cut)
        return sweep.run()
    finally:
        rowscan._ROWSWEEP = saved


def _both(codes0, codes1, scheme, cuts=(), **kwargs):
    """(compiled, numpy) sweeps over the same inputs, checked identical."""
    fast = _sweep(codes0, codes1, scheme, cuts, body=rowscan._ROWSWEEP,
                  **kwargs)
    slow = _sweep(codes0, codes1, scheme, cuts, body=None, **kwargs)
    assert_sweeps_identical(slow, fast)
    return fast


@st.composite
def sweep_cases(draw):
    shape = draw(st.sampled_from(["any", "1xn", "nx1"]))
    m = 1 if shape == "1xn" else draw(st.integers(1, 20))
    n = 1 if shape == "nx1" else draw(st.integers(1, 20))
    codes = st.integers(0, 4)        # 4 is N: the never-matching LUT row
    codes0 = np.array(draw(st.lists(codes, min_size=m, max_size=m)), np.uint8)
    codes1 = np.array(draw(st.lists(codes, min_size=n, max_size=n)), np.uint8)
    gap_ext = draw(st.integers(1, 6))
    scheme = ScoringScheme(
        match=draw(st.integers(1, 5)), mismatch=draw(st.integers(-5, 0)),
        gap_first=gap_ext + draw(st.sampled_from([0, 0, 1, 3, 7])),
        gap_ext=gap_ext)
    regime = dict(draw(st.sampled_from(REGIMES)))
    if regime.get("local"):
        regime["track_best"] = True
    # Save rows always include the first and last row and one run of
    # consecutive rows; taps always include column 0 and column n.
    first_run = draw(st.integers(1, m))
    save = {1, m, first_run, min(first_run + 1, m)}
    save |= draw(st.sets(st.integers(1, m), max_size=3))
    taps = [0, n] + draw(st.lists(st.integers(0, n), max_size=3))
    watch = draw(st.one_of(st.none(), st.integers(-12, 16)))
    cuts = draw(st.lists(st.integers(1, 4), max_size=6))
    kwargs = dict(regime, save_rows=sorted(save), tap_columns=taps,
                  watch_value=watch)
    return codes0, codes1, scheme, cuts, kwargs


def _check_against_reference(sweep, codes0, codes1, scheme, kwargs) -> None:
    """Every observable the per-cell reference defines (not forced)."""
    s0, s1 = Sequence(codes0), Sequence(codes1)
    if kwargs.get("local"):
        ref = reference.sw_matrices(s0, s1, scheme)
    else:
        ref = reference.global_matrices(
            s0, s1, scheme, start_gap=kwargs.get("start_gap", TYPE_MATCH))
    np.testing.assert_array_equal(sweep.H, ref.H[-1])
    np.testing.assert_array_equal(sweep.E, ref.E[-1])
    np.testing.assert_array_equal(sweep.F, ref.F[-1])
    for row, (h, f) in sweep.saved.items():
        np.testing.assert_array_equal(h, ref.H[row])
        np.testing.assert_array_equal(f, ref.F[row])
    taps = np.asarray(kwargs["tap_columns"])
    np.testing.assert_array_equal(sweep.tap_H, ref.H[:, taps])
    np.testing.assert_array_equal(sweep.tap_E, ref.E[:, taps])
    if kwargs.get("track_best"):
        assert (sweep.best, sweep.best_pos) == reference.best_cell(ref.H)
    watch = kwargs["watch_value"]
    if watch is not None:
        hits = np.argwhere(ref.H == watch)
        expected = tuple(int(v) for v in hits[0]) if hits.size else None
        assert sweep.watch_hit == expected


# -------------------------------------------------------------- bodies
@compiled
class TestCompiledMatchesNumpy:
    @settings(max_examples=300)
    @given(case=sweep_cases())
    @example(case=(np.zeros(3, np.uint8), np.zeros(4, np.uint8),
                   ScoringScheme(match=1, mismatch=-1, gap_first=2,
                                 gap_ext=2),
                   [1, 1, 1], dict(local=True, track_best=True,
                                   save_rows=[1, 2, 3], tap_columns=[0, 4],
                                   watch_value=0)))
    def test_differential(self, case):
        """Random schemes (``gap_first == gap_ext`` included), all six
        boundary regimes, 1xn and nx1 shapes, windowed ``advance`` cuts,
        save rows at the first/last/consecutive rows, taps at 0 and n."""
        codes0, codes1, scheme, cuts, kwargs = case
        sweep = _both(codes0, codes1, scheme, cuts, **kwargs)
        if not kwargs.get("forced"):
            _check_against_reference(sweep, codes0, codes1, scheme, kwargs)

    @pytest.mark.parametrize("regime, watch, hit", [
        (dict(local=True), 0, (0, 0)),
        (dict(local=False), -PAPER_SCHEME.gap_first, (0, 1)),
        (dict(start_gap=TYPE_GAP_S0), -PAPER_SCHEME.gap_ext, (0, 1)),
    ])
    def test_watch_hit_in_row_zero(self, rng, regime, watch, hit):
        codes0 = random_dna(9, rng, "a").codes
        codes1 = random_dna(11, rng, "b").codes
        sweep = _both(codes0, codes1, PAPER_SCHEME, (2, 3),
                      watch_value=watch, **regime)
        assert sweep.watch_hit == hit

    def test_long_sweep_with_many_segments(self, rng):
        """A Stage-1-shaped sweep: save rows every 8 rows, taps, best."""
        s0, s1 = homologous_pair(600, rng)
        saves = list(range(8, len(s0) + 1, 8))
        _both(s0.codes, s1.codes, PAPER_SCHEME, (1, 7, 64, 200),
              local=True, track_best=True, save_rows=saves,
              tap_columns=[0, 17, len(s1)], watch_value=25)

    @pytest.mark.parametrize("scheme", [
        ScoringScheme(match=1, mismatch=-1, gap_first=2**30, gap_ext=2**28),
        ScoringScheme(match=3, mismatch=-3, gap_first=2**31 - 1,
                      gap_ext=2**31 - 1),
    ])
    @pytest.mark.parametrize("regime", REGIMES)
    def test_int32_headroom_huge_gaps(self, rng, scheme, regime):
        """Gap ramps and NEG_INF arithmetic wrap int32; both bodies must
        wrap the same way (the C loop is built with -fwrapv)."""
        codes0 = random_dna(40, rng, "a").codes
        codes1 = random_dna(70, rng, "b").codes
        kwargs = dict(regime, track_best=bool(regime.get("local")),
                      save_rows=[1, 20, 40], tap_columns=[0, 35, 70])
        _both(codes0, codes1, scheme, (3, 10), **kwargs)

    @pytest.mark.parametrize("regime", REGIMES)
    def test_int32_headroom_long_identical_runs(self, regime):
        """Identical sequences with a match score that overflows int32
        along the diagonal."""
        codes = np.zeros(2500, dtype=np.uint8)
        scheme = ScoringScheme(match=2**20, mismatch=-1, gap_first=3,
                               gap_ext=1)
        kwargs = dict(regime, track_best=bool(regime.get("local")),
                      save_rows=[1000, 2047, 2048, 2500],
                      tap_columns=[0, 2048, 2500], watch_value=2**31 - 1)
        sweep = _both(codes, codes, scheme, (2047,), **kwargs)
        if regime.get("local"):
            # Within one match of the int32 ceiling: the diagonal wraps.
            assert sweep.best >= 2**31 - 2**20

    def test_codes_outside_the_table_are_refused(self):
        """The C loop indexes the LUT unchecked, so the sweeper checks
        the row codes before the first call."""
        sweep = RowSweeper(np.array([0, 7], np.uint8), np.zeros(3, np.uint8),
                           PAPER_SCHEME)
        with pytest.raises(ConfigError, match="substitution table"):
            sweep.advance()

    def test_checkpoint_resume_across_bodies(self, rng, monkeypatch):
        """A state_dict taken under the compiled body resumes under the
        NumPy body and lands on the same sweep."""
        s0, s1 = homologous_pair(300, rng)
        kwargs = dict(local=True, track_best=True, save_rows=[200, 250])
        whole = _sweep(s0.codes, s1.codes, PAPER_SCHEME,
                       body=rowscan._ROWSWEEP, **kwargs)
        first = RowSweeper(s0.codes, s1.codes, PAPER_SCHEME, **kwargs)
        first.advance(150)
        monkeypatch.setattr(rowscan, "_ROWSWEEP", None)
        resumed = RowSweeper(s0.codes, s1.codes, PAPER_SCHEME, **kwargs)
        resumed.load_state(first.state_dict())
        resumed.run()
        assert_sweeps_identical(whole, resumed)


class TestNumpyBody:
    def test_advance_allocates_no_row_temporaries(self, rng, numpy_body):
        """The tracemalloc allocation guard of tests/test_batched.py, on
        the NumPy body (that test now exercises the compiled one)."""
        n = 65536
        sweep = RowSweeper(random_dna(32, rng, "A").codes,
                           random_dna(n, rng, "B").codes, PAPER_SCHEME,
                           local=True, track_best=True)
        sweep.advance(4)                      # warm the lazy paths
        tracemalloc.start()
        base = tracemalloc.get_traced_memory()[0]
        sweep.advance(8)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak - base < 32 * 1024, (
            f"NumPy body allocated {peak - base} bytes for 8 rows "
            f"at n={n}; a per-row temporary would cost >= {4 * (n + 1)}")


# --------------------------------------------------- build and fallback
@pytest.fixture
def cache(tmp_path, monkeypatch):
    """An empty library cache for this test."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    return tmp_path / "xdg" / "repro"


needs_cc = pytest.mark.skipif(native.compiler() is None,
                              reason="no C compiler on this host")


class TestBuild:
    def test_source_ships_as_package_data(self):
        tomllib = pytest.importorskip("tomllib")
        src = resources.files("repro.align").joinpath("_rowsweep.c")
        assert src.is_file()
        assert b"void rowsweep(" in src.read_bytes()
        config = tomllib.loads((REPO / "pyproject.toml").read_text())
        package_data = config["tool"]["setuptools"]["package-data"]
        assert "_rowsweep.c" in package_data["repro.align"]

    @needs_cc
    def test_cold_then_warm_cache(self, cache, monkeypatch):
        fn, reason = native.load()
        assert fn is not None and reason is None
        built = sorted(cache.iterdir())
        assert [p.suffix for p in built] == [".so"]     # no temp files
        stamp = built[0].stat().st_mtime_ns

        def rebuild(*args):
            raise AssertionError("a warm cache must not rebuild")
        monkeypatch.setattr(native, "_build", rebuild)
        fn, reason = native.load()
        assert fn is not None and reason is None
        assert sorted(cache.iterdir()) == built
        assert built[0].stat().st_mtime_ns == stamp

    @needs_cc
    @pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                        reason="needs /proc/self/maps")
    def test_concurrent_first_users_load_one_file(self, cache):
        """Two processes on an empty cache both build, one file wins the
        atomic rename, and both map that one file."""
        script = (
            "from repro.align import rowscan\n"
            "assert rowscan.NATIVE_FALLBACK is None\n"
            "maps = open('/proc/self/maps').read().split()\n"
            "print(sorted({p for p in maps if p.endswith('.so') "
            "and 'rowsweep-' in p}))\n")
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        procs = [subprocess.Popen([sys.executable, "-c", script], env=env,
                                  stdout=subprocess.PIPE, text=True)
                 for _ in range(2)]
        outs = [proc.communicate(timeout=120)[0] for proc in procs]
        assert all(proc.returncode == 0 for proc in procs)
        files = sorted(cache.iterdir())
        assert len(files) == 1 and files[0].suffix == ".so"
        assert outs[0] == outs[1] == f"{[str(files[0])]}\n"

    def test_no_compiler(self, cache, monkeypatch):
        monkeypatch.setattr(native, "compiler", lambda: None)
        assert native.load() == (None, native.NO_COMPILER)

    def test_failed_build_leaves_no_file(self, cache, monkeypatch):
        false = shutil.which("false")
        if false is None:
            pytest.skip("no `false` binary")
        monkeypatch.setattr(native, "compiler", lambda: false)
        assert native.load() == (None, native.BUILD_FAILED)
        assert not cache.exists() or not any(cache.iterdir())

    def test_missing_source(self, cache, tmp_path, monkeypatch):
        monkeypatch.setattr(native, "source", lambda: tmp_path / "absent.c")
        assert native.load() == (None, native.NO_SOURCE)


class TestFallbackRun:
    @staticmethod
    def _run(s0, s1, workdir):
        return CUDAlign(small_config(64, sra_rows=8, max_partition_size=32),
                        workdir=workdir).run(s0, s1)

    @pytest.mark.parametrize("reason", [native.NO_COMPILER,
                                        native.BUILD_FAILED])
    def test_fallback_is_bit_identical_and_counted(self, rng, tmp_path,
                                                   monkeypatch, reason):
        s0, s1 = homologous_pair(700, rng)
        loaded = rowscan.NATIVE_FALLBACK is None
        fast = self._run(s0, s1, tmp_path / "fast")
        monkeypatch.setattr(rowscan, "_ROWSWEEP", None)
        monkeypatch.setattr(rowscan, "NATIVE_FALLBACK", reason)
        slow = self._run(s0, s1, tmp_path / "slow")
        assert slow.best_score == fast.best_score > 0
        assert slow.binary.encode() == fast.binary.encode()
        assert slow.metrics[f"kernel.fallback.{reason}"] == 1
        if loaded:
            assert not any(name.startswith("kernel.fallback.")
                           for name in fast.metrics)
        manifest = json.loads((tmp_path / "slow" / "manifest.json")
                              .read_text())
        assert manifest["metrics"][f"kernel.fallback.{reason}"] == 1
