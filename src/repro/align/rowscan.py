"""Linear-space vectorized row sweep (the hot kernel of every stage).

One object, :class:`RowSweeper`, implements the forward Gotoh recurrence
row by row in O(n) memory with **no Python loop over cells**: per row, the
F update and the diagonal contribution are element-wise, and the in-row E
recurrence — the only true serial dependency — is resolved with a running
``maximum.accumulate`` scan:

    E(i,j) = max_{k<j} ( X(i,k) - G_first - (j-1-k) * G_ext )
           = max_{k<j} ( X(i,k) + k*G_ext )  -  G_first - (j-1)*G_ext

where ``X`` collects every non-E source of H (diagonal, F, the local-zero
floor, and the column-0 boundary).  Replacing H by X inside the scan is
valid because opening a new gap *inside* an existing gap never wins when
``G_first >= G_ext`` (asserted by :class:`ScoringScheme`).

Every sweep the pipeline performs maps onto this kernel:

* Stage 1 is a local forward sweep (rows = S0).
* Reverse sweeps (Stages 2 and 4) are forward sweeps over reversed
  sequences.
* Column-major ("orthogonal", Sections IV-C/D) sweeps are forward sweeps
  of the transposed problem, where the roles of E and F swap.

The sweeper exposes exactly the artifacts the stages need: the running
H/E/F rows, best-score tracking (Stage 1), special-row snapshots of (H, F)
(the SRA format, Section IV-B), per-row column taps of (H, E) (goal-based
matching against an orthogonal special line), and a watch value (Stage 2's
start-point detection).  Callers drive it in strips via :meth:`advance`,
which is what makes goal-based early termination a *real* saving rather
than bookkeeping.  :meth:`matrices` instead sweeps a fresh sweeper to the
end and keeps every row: the full H/E/F matrices that Stage 5's base
cases (:mod:`repro.align.full_matrix`) and semi-global alignment
(:mod:`repro.align.semiglobal`) trace back through.

The rows themselves are swept by a compiled C loop (``_rowsweep.c``,
built at first use by :mod:`repro.align.native`) when the host has a C
compiler; otherwise by the NumPy body below.  Both are bit-identical.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from repro.constants import NEG_INF, SCORE_DTYPE, TYPE_GAP_S0, TYPE_GAP_S1, TYPE_MATCH
from repro.errors import ConfigError
from repro.align import native
from repro.align.profile import query_profile
from repro.align.reference import DPMatrices
from repro.align.scoring import ScoringScheme

#: The compiled row loop, loaded (and built, on a cold cache) at import:
#: forked workers inherit it and no build lands inside a timed sweep.
#: ``None`` when unavailable; :data:`NATIVE_FALLBACK` then says why
#: (``no_compiler``, ``build_failed`` or ``no_source``).
_ROWSWEEP, NATIVE_FALLBACK = native.load()

#: Row-step modes of ``_rowsweep.c``: the column-0 boundary and the floor.
#: SEMIGLOBAL is LOCAL without the interior zero floor.
GLOBAL, LOCAL, SEMIGLOBAL = 0, 1, 2


class RowSweeper:
    """Incremental linear-space forward DP sweep.

    Args:
        codes0: encoded bases laid along the rows (one row per base).
        codes1: encoded bases laid along the columns.
        scheme: affine scoring parameters.
        local: use the Smith-Waterman zero floor and zero boundaries;
            otherwise the global (Needleman-Wunsch) boundary is used.
        start_gap: boundary gap state for global sweeps — TYPE_GAP_S0
            waives the opening of a horizontal gap continuing through
            (0, 0), TYPE_GAP_S1 of a vertical one (Section IV-A's
            "gap opening must not be computed twice").
        forced: require the path to *begin* with the ``start_gap`` run
            (H(0,0) is seeded to -inf so only gap-continuing paths are
            finite).  Reverse sweeps of partitions whose end crosspoint is
            typed use this to exclude tails that would end in the wrong
            state; the resulting values are uniformly ``true + G_open``.
        track_best: maintain the running best score and position (Stage 1).
        watch_value: if set, :attr:`watch_hit` records the first cell whose
            H equals this value (Stage 2's start-point detection).
        tap_columns: column indices whose (H, E) values are recorded after
            every row (matching against an orthogonal special line).
        save_rows: absolute row indices whose (H, F) rows are snapshotted
            (the special rows flushed to the SRA).
        tracer: optional :class:`repro.telemetry.Tracer`; when set, every
            :meth:`advance` call is wrapped in a ``sweep.advance`` span
            (rows/cells attributes).  ``None`` (the default) keeps the
            hot path free of telemetry branches beyond one ``is None``.
    """

    def __init__(self, codes0: np.ndarray, codes1: np.ndarray,
                 scheme: ScoringScheme, *, local: bool = False,
                 start_gap: int = TYPE_MATCH, forced: bool = False,
                 track_best: bool = False,
                 watch_value: int | None = None,
                 tap_columns: np.ndarray | None = None,
                 save_rows: np.ndarray | None = None,
                 tracer=None) -> None:
        self.tracer = tracer
        self.codes0 = np.ascontiguousarray(codes0, dtype=np.uint8)
        self.codes1 = np.ascontiguousarray(codes1, dtype=np.uint8)
        if self.codes0.size == 0 or self.codes1.size == 0:
            raise ConfigError("cannot sweep empty sequences")
        self.scheme = scheme
        self.local = bool(local)
        self._mode = LOCAL if local else GLOBAL
        if start_gap not in (TYPE_MATCH, TYPE_GAP_S0, TYPE_GAP_S1):
            raise ConfigError(f"invalid start_gap {start_gap!r}")
        if local and start_gap != TYPE_MATCH:
            raise ConfigError("local sweeps cannot carry a boundary gap state")
        if forced and start_gap == TYPE_MATCH:
            raise ConfigError("forced sweeps need a gap-typed start_gap")
        self.start_gap = start_gap
        self.forced = bool(forced)
        self.m = int(self.codes0.size)
        self.n = int(self.codes1.size)
        self.i = 0  # rows completed (0 = only the boundary row exists)
        self.cells = 0

        gext = scheme.gap_ext
        gfirst = scheme.gap_first
        n = self.n
        self._idx = np.arange(n + 1, dtype=SCORE_DTYPE)
        self._ext_ramp = self._idx * SCORE_DTYPE(gext)

        # Row 0 boundary.
        self.H = np.empty(n + 1, dtype=SCORE_DTYPE)
        self.E = np.full(n + 1, NEG_INF, dtype=SCORE_DTYPE)
        self.F = np.full(n + 1, NEG_INF, dtype=SCORE_DTYPE)
        if self.local:
            self.H[:] = 0
        else:
            self.H[0] = NEG_INF if forced else 0
            if start_gap == TYPE_GAP_S0:
                # E(0,0) seeded: the boundary run extends at G_ext only.
                self.E[0] = 0
                self.E[1:] = -self._ext_ramp[1:]
            elif forced:
                # Only the seeded F(0,0) is finite; row 0 is unreachable.
                self.E[1:] = NEG_INF
            else:
                self.E[1:] = -(SCORE_DTYPE(gfirst) + self._ext_ramp[:-1])
            self.H[1:] = self.E[1:]
            if start_gap == TYPE_GAP_S1:
                self.F[0] = 0
        self._col0_F = self.F[0]
        self._col0_H = self.H[0]

        self.track_best = bool(track_best)
        self.best = int(self.H.max()) if track_best else 0
        self.best_pos: tuple[int, int] = (0, int(np.argmax(self.H))) if track_best else (0, 0)

        self.watch_value = watch_value
        self.watch_hit: tuple[int, int] | None = None
        if watch_value is not None:
            hits = np.flatnonzero(self.H == watch_value)
            if hits.size:
                self.watch_hit = (0, int(hits[0]))

        self._taps = (np.ascontiguousarray(tap_columns, dtype=np.int64)
                      if tap_columns is not None and len(tap_columns) else None)
        if self._taps is not None:
            if self._taps.min() < 0 or self._taps.max() > n:
                raise ConfigError("tap columns out of range")
            self.tap_H = np.empty((self.m + 1, self._taps.size), dtype=SCORE_DTYPE)
            self.tap_E = np.empty((self.m + 1, self._taps.size), dtype=SCORE_DTYPE)
            self.tap_H[0] = self.H[self._taps]
            self.tap_E[0] = self.E[self._taps]

        save = (np.unique(np.asarray(save_rows, dtype=np.int64))
                if save_rows is not None and len(save_rows) else np.empty(0, np.int64))
        if save.size and (save.min() < 1 or save.max() > self.m):
            raise ConfigError("save rows out of range [1, m]")
        self._save_list = save.tolist()
        self._save_rows = set(self._save_list)
        self.saved: dict[int, tuple[np.ndarray, np.ndarray]] = {}

        # Per-row scratch buffers, allocated once.  _advance reuses X and
        # T for the F update too, so the hot loop allocates nothing.
        self._X = np.empty(n + 1, dtype=SCORE_DTYPE)
        self._T = np.empty(n + 1, dtype=SCORE_DTYPE)
        self._egap = SCORE_DTYPE(gfirst) + self._ext_ramp[:-1]

        # Substitution scores as a per-base lookup: row i uses the vector
        # for codes0[i], so each row costs one fancy-index, not a compare.
        # Shared across sweepers over the same (scheme, columns) — see
        # repro.align.profile — and therefore read-only.
        self._sub_lut = query_profile(scheme, self.codes1)
        self._native_args: tuple | None = None   # bound at first use

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self.i >= self.m

    def advance(self, nrows: int | None = None) -> int:
        """Process up to ``nrows`` further rows; returns the count processed.

        One compiled ``rowsweep`` call per run of rows between save rows,
        or, without the library, 8 vectorized O(n) operations per row;
        see module docstring for the scan derivation.
        """
        if nrows is None:
            nrows = self.m - self.i
        nrows = min(nrows, self.m - self.i)
        if nrows <= 0:
            return 0
        if self.tracer is not None:
            with self.tracer.span("sweep.advance", rows=nrows,
                                  from_row=self.i, n=self.n) as span:
                done = self._advance(nrows)
                span.set(cells=done * self.n)
            return done
        return self._advance(nrows)

    def matrices(self, *, floor: bool = True) -> DPMatrices:
        """Sweep every row of a fresh sweeper and keep them all: the
        ``(m+1, n+1)`` H/E/F matrices.

        The rows are the ones :meth:`advance` would produce (same row
        loop, same best/watch/tap/save bookkeeping), each copied into the
        matrices as it is finished.  ``floor=False`` drops the zero floor
        from the interior cells of a local sweep and keeps its zero
        boundaries: the semi-global recurrence.  Unlike :meth:`advance`,
        this opens no tracer span.
        """
        if self.i:
            raise ConfigError("matrices() needs a sweeper that has not "
                              "advanced")
        if not floor:
            if not self.local:
                raise ConfigError("floor=False needs a local sweep; global "
                                  "sweeps have no zero floor")
            self._mode = SEMIGLOBAL
            self._native_args = None          # rebind with the new mode
        shape = (self.m + 1, self.n + 1)
        keep = DPMatrices(*(np.empty(shape, dtype=SCORE_DTYPE)
                            for _ in range(3)))
        keep.H[0], keep.E[0], keep.F[0] = self.H, self.E, self.F
        # rowscan's own row loop, also under a subclass that replaces
        # _advance with another kernel.
        RowSweeper._advance(self, self.m, keep)
        return keep

    def _advance(self, nrows: int, keep: DPMatrices | None = None) -> int:
        if _ROWSWEEP is None:
            return self._advance_numpy(nrows, keep)
        if self._native_args is None:
            self._native_args = self._bind_native()
        keep_ptrs = (None, None, None) if keep is None else (
            keep.H.ctypes.data, keep.E.ctypes.data, keep.F.ctypes.data)
        state = self._native_state
        state[:3] = (self.best, *self.best_pos)
        if self.watch_hit is not None:
            state[3:] = self.watch_hit
        # One C call per segment; segments end at save rows, where the
        # snapshot is copied out before the sweep moves on.
        stop = self.i + nrows
        while self.i < stop:
            k = bisect_right(self._save_list, self.i)
            end = min(self._save_list[k], stop) if k < len(self._save_list) \
                else stop
            _ROWSWEEP(self.i, end - self.i, *self._native_args, *keep_ptrs)
            self.i = end
            if end in self._save_rows:
                self.saved[end] = (self.H.copy(), self.F.copy())
        best, best_i, best_j, watch_i, watch_j = state.tolist()
        self.best, self.best_pos = best, (best_i, best_j)
        if watch_i >= 0:
            self.watch_hit = (watch_i, watch_j)
        self.cells += nrows * self.n
        return nrows

    def _bind_native(self) -> tuple:
        """The fixed arguments of every ``rowsweep`` call on this sweeper
        (raw pointers: the arrays are only ever updated in place)."""
        if self.codes0.max() >= self._sub_lut.shape[0]:
            # The C loop indexes the LUT by code without a bounds check.
            raise ConfigError("row sequence holds codes outside the "
                              "substitution table")
        self._native_state = np.full(5, -1, dtype=np.int64)
        taps = (None, 0, None, None) if self._taps is None else (
            self._taps.ctypes.data, self._taps.size,
            self.tap_H.ctypes.data, self.tap_E.ctypes.data)
        return (self.codes0.ctypes.data, self._sub_lut.ctypes.data, self.n,
                self.H.ctypes.data, self.E.ctypes.data, self.F.ctypes.data,
                self.scheme.gap_first, self.scheme.gap_ext, int(NEG_INF),
                self._mode, self.track_best, self.watch_value is not None,
                self.watch_value or 0, self._native_state.ctypes.data, *taps)

    def _advance_numpy(self, nrows: int, keep: DPMatrices | None) -> int:
        scheme = self.scheme
        gext = SCORE_DTYPE(scheme.gap_ext)
        gfirst = SCORE_DTYPE(scheme.gap_first)
        H, E, F = self.H, self.E, self.F
        ext_ramp = self._ext_ramp
        egap = self._egap
        X, T = self._X, self._T
        local = self.local
        floor = self._mode == LOCAL
        stop = self.i + nrows
        while self.i < stop:
            i = self.i + 1
            sub = self._sub_lut[self.codes0[i - 1]]
            # F (vertical) update — purely element-wise, includes column 0.
            # X/T are free at this point, so the update runs entirely in
            # the preallocated scratch (no per-row temporaries).
            np.subtract(F, gext, out=X)
            np.subtract(H, gfirst, out=T)
            np.maximum(X, T, out=F)
            # X: every non-E source of H.
            np.add(H[:-1], sub, out=X[1:])
            np.maximum(X[1:], F[1:], out=X[1:])
            if local:
                X[0] = 0
                F[0] = NEG_INF
                if floor:
                    np.maximum(X, 0, out=X)
            else:
                X[0] = F[0]
            # E via the prefix-max scan.
            np.add(X, ext_ramp, out=T)
            np.maximum.accumulate(T, out=T)
            np.subtract(T[:-1], egap, out=E[1:])
            E[0] = NEG_INF
            np.maximum(X, E, out=H)
            self.i = i
            if keep is not None:
                keep.H[i], keep.E[i], keep.F[i] = H, E, F

            if self.track_best or self.watch_value is not None:
                row_max = int(H.max())
                if self.track_best and row_max > self.best:
                    self.best = row_max
                    self.best_pos = (i, int(np.argmax(H)))
                if (self.watch_value is not None and self.watch_hit is None
                        and row_max >= self.watch_value):
                    hits = np.flatnonzero(H == self.watch_value)
                    if hits.size:
                        self.watch_hit = (i, int(hits[0]))
            if self._taps is not None:
                self.tap_H[i] = H[self._taps]
                self.tap_E[i] = E[self._taps]
            if i in self._save_rows:
                self.saved[i] = (H.copy(), F.copy())
        self.cells += nrows * self.n
        return nrows

    def run(self) -> "RowSweeper":
        """Process all remaining rows and return self (convenience)."""
        self.advance()
        return self

    # ------------------------------------------------------------------
    # checkpointing (Stage 1 runs for hours at paper scale; Section V's
    # 18.5-hour run motivates crash recovery)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Serializable snapshot of the sweep's linear-space state."""
        return {
            "i": self.i, "cells": self.cells,
            "H": self.H.copy(), "E": self.E.copy(), "F": self.F.copy(),
            "best": self.best, "best_i": self.best_pos[0],
            "best_j": self.best_pos[1],
        }

    def load_state(self, state: dict) -> None:
        """Resume from a snapshot taken by :meth:`state_dict`.

        Only valid on a freshly-constructed sweeper over the same
        sequences, scheme and options; saved-row snapshots taken before
        the checkpoint are the caller's responsibility (Stage 1 flushes
        them to the durable SRA as they appear).
        """
        i = int(state["i"])
        if not 0 <= i <= self.m:
            raise ConfigError(f"checkpoint row {i} outside [0, {self.m}]")
        for name in ("H", "E", "F"):
            arr = np.asarray(state[name], dtype=SCORE_DTYPE)
            if arr.shape != self.H.shape:
                raise ConfigError("checkpoint row width does not match")
            getattr(self, name)[:] = arr
        self.i = i
        self.cells = int(state["cells"])
        self.best = int(state["best"])
        self.best_pos = (int(state["best_i"]), int(state["best_j"]))
