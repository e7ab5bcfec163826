"""Semi-global (overlap) alignment — the third alignment class of
Section II ("composed of prefixes or suffixes ... where leading/trailing
gaps are ignored").

Leading gaps are free on both sequences (the path may start anywhere on
the top row or left column at score 0) and trailing gaps are free (the
score is the maximum over the bottom row and right column).  Used to
anchor one sequence inside another without local alignment's interior
zero-resets — e.g. placing a contig against a chromosome.

Built on the same row loop as everything else: the matrices are
:meth:`RowSweeper.matrices <repro.align.rowscan.RowSweeper.matrices>` of a
local sweep with ``floor=False`` — zero boundaries on row 0 and column 0
(free leading gaps), but no zero floor on interior cells — and the path
comes from the shared affine traceback.

Convention: the *empty overlap* — both sequences consumed entirely by
free leading/trailing gaps — is a valid semi-global alignment of score 0,
so the score never drops below zero (the standard overlap-alignment
convention).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import TYPE_MATCH
from repro.errors import AlignmentError
from repro.align.alignment import Alignment
from repro.align.reference import _traceback
from repro.align.rowscan import RowSweeper
from repro.align.scoring import ScoringScheme
from repro.sequences.sequence import Sequence


@dataclass(frozen=True)
class SemiGlobalResult:
    """An overlap alignment with its free-end coordinates."""

    alignment: Alignment
    score: int

    @property
    def start(self) -> tuple[int, int]:
        return self.alignment.start

    @property
    def end(self) -> tuple[int, int]:
        return self.alignment.end


def semiglobal_align(s0: Sequence | np.ndarray, s1: Sequence | np.ndarray,
                     scheme: ScoringScheme) -> SemiGlobalResult:
    """Optimal semi-global alignment (free leading and trailing gaps)."""
    codes0 = s0.codes if isinstance(s0, Sequence) else np.asarray(s0, np.uint8)
    codes1 = s1.codes if isinstance(s1, Sequence) else np.asarray(s1, np.uint8)
    m, n = codes0.size, codes1.size
    if m == 0 or n == 0:
        raise AlignmentError("cannot align empty sequences")
    mats = RowSweeper(codes0, codes1, scheme, local=True).matrices(floor=False)
    # Free end: best cell on the bottom row or right column.
    bottom_j = int(np.argmax(mats.H[m]))
    right_i = int(np.argmax(mats.H[:, n]))
    if mats.H[m, bottom_j] >= mats.H[right_i, n]:
        i, j = m, bottom_j
    else:
        i, j = right_i, n
    score = int(mats.H[i, j])
    sub = scheme.substitution_matrix(codes0, codes1)
    path = _traceback(mats, sub, scheme, i, j, TYPE_MATCH, local=False,
                      free_start=True)
    return SemiGlobalResult(alignment=path, score=score)


def semiglobal_score(s0: Sequence | np.ndarray, s1: Sequence | np.ndarray,
                     scheme: ScoringScheme) -> int:
    """Semi-global score only (no traceback)."""
    return semiglobal_align(s0, s1, scheme).score
