"""Full-matrix aligner with traceback.

This is the *base case* engine: Stage 5 partitions and the Myers-Miller
recursion bottom out here once a sub-problem fits comfortably in memory
(partitions are bounded by ``max_partition_size``, Section IV-F, so this
stays O(1) memory per partition and O(m+n) overall).

The matrices come from the same row loop as every sweep of the pipeline:
:meth:`RowSweeper.matrices <repro.align.rowscan.RowSweeper.matrices>`
sweeps all rows and keeps them.  The path is then recovered with the
exact affine traceback shared with the reference implementation.
"""

from __future__ import annotations

import numpy as np

from repro.constants import TYPE_GAP_S0, TYPE_GAP_S1, TYPE_MATCH
from repro.errors import AlignmentError
from repro.align.alignment import Alignment
from repro.align.reference import DPMatrices, _traceback, best_cell
from repro.align.rowscan import RowSweeper
from repro.align.scoring import ScoringScheme
from repro.sequences.sequence import Sequence


def dp_matrices(codes0: np.ndarray, codes1: np.ndarray, scheme: ScoringScheme,
                *, local: bool, start_gap: int = TYPE_MATCH) -> DPMatrices:
    """Full H/E/F matrices, every row kept from RowSweeper's row loop."""
    if np.size(codes0) == 0 or np.size(codes1) == 0:
        raise AlignmentError("cannot align empty sequences")
    return RowSweeper(codes0, codes1, scheme, local=local,
                      start_gap=start_gap).matrices()


def local_align(s0: Sequence | np.ndarray, s1: Sequence | np.ndarray,
                scheme: ScoringScheme) -> tuple[Alignment, int]:
    """Optimal local alignment and its score (full matrix)."""
    codes0 = s0.codes if isinstance(s0, Sequence) else np.asarray(s0, np.uint8)
    codes1 = s1.codes if isinstance(s1, Sequence) else np.asarray(s1, np.uint8)
    mats = dp_matrices(codes0, codes1, scheme, local=True)
    score, (i, j) = best_cell(mats.H)
    sub = scheme.substitution_matrix(codes0, codes1)
    return _traceback(mats, sub, scheme, i, j, TYPE_MATCH, local=True), score


def global_align(s0: Sequence | np.ndarray, s1: Sequence | np.ndarray,
                 scheme: ScoringScheme, *, start_gap: int = TYPE_MATCH,
                 end_gap: int = TYPE_MATCH) -> tuple[Alignment, int]:
    """Optimal global alignment with boundary gap states; returns (path, score).

    The score is read from H, E, or F at (m, n) according to ``end_gap``
    (the gap continues into the next partition, which waives its opening).
    """
    codes0 = s0.codes if isinstance(s0, Sequence) else np.asarray(s0, np.uint8)
    codes1 = s1.codes if isinstance(s1, Sequence) else np.asarray(s1, np.uint8)
    mats = dp_matrices(codes0, codes1, scheme, local=False, start_gap=start_gap)
    m, n = codes0.size, codes1.size
    if end_gap == TYPE_MATCH:
        score = int(mats.H[m, n])
    elif end_gap == TYPE_GAP_S0:
        score = int(mats.E[m, n])
    elif end_gap == TYPE_GAP_S1:
        score = int(mats.F[m, n])
    else:
        raise AlignmentError(f"invalid end_gap {end_gap!r}")
    sub = scheme.substitution_matrix(codes0, codes1)
    path = _traceback(mats, sub, scheme, m, n, end_gap, local=False)
    return path, score
