"""rowscan's compiled row loop vs its NumPy body vs the per-cell reference.

``RowSweeper._advance`` runs the C loop from ``_rowsweep.c`` when the
library loaded and the NumPy body otherwise; both must produce every
observable bit for bit (``assert_sweeps_identical``), and both must
agree with :mod:`repro.align.reference` wherever the reference is
defined.  The ``numpy_body`` fixture forces the NumPy body for one test.
The same holds for the full matrices that :meth:`RowSweeper.matrices`
keeps for ``full_matrix`` and ``semiglobal``.

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
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.align import full_matrix, native, reference, rowscan, semiglobal
from repro.align.reference import DPMatrices
from repro.align.rowscan import RowSweeper
from repro.align.scoring import PAPER_SCHEME, ScoringScheme
from repro.constants import (NEG_INF, SCORE_DTYPE, TYPE_GAP_S0, TYPE_GAP_S1,
                             TYPE_MATCH)
from repro.core import CUDAlign, small_config
from repro.errors import AlignmentError, ConfigError
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


# ------------------------------------------------------- full matrices
@pytest.fixture(params=["compiled", "numpy"])
def body(request):
    """Run the test on the compiled row loop, then on the NumPy body."""
    if request.param == "numpy":
        request.getfixturevalue("numpy_body")
    elif rowscan._ROWSWEEP is None:
        pytest.skip(f"compiled row loop unavailable "
                    f"({rowscan.NATIVE_FALLBACK})")
    return request.param


def semiglobal_oracle(codes0, codes1, scheme) -> DPMatrices:
    """Equations 1-3 cell by cell with free starts: H is 0 on row 0 and
    column 0, E and F are -inf there, and interior cells have no floor."""
    m, n = codes0.size, codes1.size
    H = np.zeros((m + 1, n + 1), dtype=SCORE_DTYPE)
    E = np.full((m + 1, n + 1), NEG_INF, dtype=SCORE_DTYPE)
    F = np.full((m + 1, n + 1), NEG_INF, dtype=SCORE_DTYPE)
    sub = scheme.substitution_matrix(codes0, codes1)
    gfirst, gext = scheme.gap_first, scheme.gap_ext
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            E[i, j] = max(int(E[i, j - 1]) - gext, int(H[i, j - 1]) - gfirst)
            F[i, j] = max(int(F[i - 1, j]) - gext, int(H[i - 1, j]) - gfirst)
            H[i, j] = max(int(E[i, j]), int(F[i, j]),
                          int(H[i - 1, j - 1]) + int(sub[i - 1, j - 1]))
    return DPMatrices(H, E, F)


def assert_matrices_equal(got: DPMatrices, want: DPMatrices) -> None:
    for name in ("H", "E", "F"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name),
                                      err_msg=name)


#: Gaps this large wrap int32 within a few columns; 2**27 on at most 4x4
#: stays in range, so the per-cell oracles still apply.
HUGE_GAPS = [
    ScoringScheme(match=1, mismatch=-1, gap_first=2**30, gap_ext=2**28),
    ScoringScheme(match=3, mismatch=-3, gap_first=2**31 - 1,
                  gap_ext=2**31 - 1),
]
HUGE_NO_WRAP = ScoringScheme(match=1, mismatch=-1, gap_first=2**27,
                             gap_ext=2**27)


class TestFullMatrices:
    """``full_matrix.dp_matrices`` and the semi-global matrices, both
    kept rows of :meth:`RowSweeper.matrices`, on each row-loop body."""

    @settings(max_examples=150,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=sweep_cases())
    @example(case=(np.array([0, 4, 2, 1], np.uint8),
                   np.array([0, 2, 4, 1], np.uint8), HUGE_NO_WRAP,
                   [], {}))
    @example(case=(np.array([4, 3], np.uint8), np.array([1, 4, 3], np.uint8),
                   HUGE_NO_WRAP, [], {}))
    def test_differential(self, body, case):
        """Random schemes (``gap_first == gap_ext`` included), N codes,
        1xn and nx1 shapes: local and global x the three start gaps
        against the reference, semi-global against its oracle."""
        codes0, codes1, scheme = case[:3]
        s0, s1 = Sequence(codes0), Sequence(codes1)
        assert_matrices_equal(
            full_matrix.dp_matrices(codes0, codes1, scheme, local=True),
            reference.sw_matrices(s0, s1, scheme))
        for start_gap in (TYPE_MATCH, TYPE_GAP_S0, TYPE_GAP_S1):
            assert_matrices_equal(
                full_matrix.dp_matrices(codes0, codes1, scheme, local=False,
                                        start_gap=start_gap),
                reference.global_matrices(s0, s1, scheme,
                                          start_gap=start_gap))
        semi = RowSweeper(codes0, codes1, scheme,
                          local=True).matrices(floor=False)
        assert_matrices_equal(semi, semiglobal_oracle(codes0, codes1, scheme))
        free_end = max(semi.H[-1].max(), semi.H[:, -1].max())
        assert semiglobal.semiglobal_score(codes0, codes1, scheme) == free_end

    @compiled
    @pytest.mark.parametrize("scheme", HUGE_GAPS)
    @pytest.mark.parametrize("regime, floor", [
        (dict(local=True), True),
        (dict(local=True), False),
        (dict(local=False), True),
        (dict(start_gap=TYPE_GAP_S0), True),
        (dict(start_gap=TYPE_GAP_S1), True),
    ])
    def test_int32_headroom_huge_gaps(self, rng, scheme, regime, floor):
        """Where int32 wraps, no per-cell oracle applies, but both bodies
        must keep the same rows, and every kept row must be the row
        ``advance`` reaches (its saved H and F)."""
        codes0 = random_dna(40, rng, "a").codes
        codes1 = random_dna(70, rng, "b").codes
        kept = []
        for body in (rowscan._ROWSWEEP, None):
            saved = rowscan._ROWSWEEP
            rowscan._ROWSWEEP = body
            try:
                mats = RowSweeper(codes0, codes1, scheme,
                                  **regime).matrices(floor=floor)
                rows = RowSweeper(codes0, codes1, scheme, **regime,
                                  save_rows=np.arange(1, 41))
            finally:
                rowscan._ROWSWEEP = saved
            if floor:
                rows.run()
                for i, (h, f) in rows.saved.items():
                    np.testing.assert_array_equal(mats.H[i], h)
                    np.testing.assert_array_equal(mats.F[i], f)
                np.testing.assert_array_equal(mats.E[-1], rows.E)
            kept.append(mats)
        assert_matrices_equal(*kept)

    def test_matrices_refuses_an_advanced_sweeper(self, body):
        sweep = RowSweeper(np.zeros(3, np.uint8), np.zeros(4, np.uint8),
                           PAPER_SCHEME, local=True)
        sweep.advance(1)
        with pytest.raises(ConfigError, match="advanced"):
            sweep.matrices()

    @pytest.mark.parametrize("regime", REGIMES[1:])
    def test_floor_false_is_refused_on_global_sweeps(self, regime):
        sweep = RowSweeper(np.zeros(3, np.uint8), np.zeros(4, np.uint8),
                           PAPER_SCHEME, **regime)
        with pytest.raises(ConfigError, match="floor"):
            sweep.matrices(floor=False)

    @pytest.mark.parametrize("align", [
        lambda a, b: full_matrix.dp_matrices(a, b, PAPER_SCHEME, local=True),
        lambda a, b: full_matrix.dp_matrices(a, b, PAPER_SCHEME,
                                             local=False),
        lambda a, b: full_matrix.local_align(a, b, PAPER_SCHEME),
        lambda a, b: full_matrix.global_align(a, b, PAPER_SCHEME),
        lambda a, b: semiglobal.semiglobal_align(a, b, PAPER_SCHEME),
        lambda a, b: semiglobal.semiglobal_score(a, b, PAPER_SCHEME),
    ], ids=["dp_local", "dp_global", "local_align", "global_align",
            "semiglobal_align", "semiglobal_score"])
    def test_empty_input_is_an_alignment_error(self, align):
        """Not the sweeper's ConfigError: callers of the aligners catch
        AlignmentError."""
        empty, three = np.empty(0, np.uint8), np.zeros(3, np.uint8)
        for codes0, codes1 in ((empty, three), (three, empty)):
            with pytest.raises(AlignmentError):
                align(codes0, codes1)

    def test_base_cases_do_not_advance(self, rng, monkeypatch):
        """Full matrices are not counted as sweeps: ``advance`` (the
        per-layer benchmark's rowscan wrap point) is never called."""
        def refuse(self, nrows=None):
            raise AssertionError("a full-matrix alignment called advance")
        monkeypatch.setattr(RowSweeper, "advance", refuse)
        s0, s1 = homologous_pair(30, rng)
        full_matrix.global_align(s0, s1, PAPER_SCHEME, start_gap=TYPE_GAP_S0)
        full_matrix.local_align(s0, s1, PAPER_SCHEME)
        semiglobal.semiglobal_align(s0, s1, PAPER_SCHEME)


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
