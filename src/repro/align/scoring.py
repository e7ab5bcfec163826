"""Scoring scheme for Smith-Waterman with Gotoh affine gaps.

The paper's recurrences (Section II-A) use a penalty for the *first* gap
(``G_first``) and one for each *extension* (``G_ext``); the gap *opening*
penalty is their difference (``G_open = G_first - G_ext``).  A gap run of
length L therefore costs ``G_first + (L-1) * G_ext``.

Penalties are stored as positive magnitudes and subtracted by the kernels,
matching the paper's notation.  The experimental defaults are the paper's:
match +1, mismatch -3, first gap -5, extension -2 (Section V).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import SCORE_DTYPE
from repro.errors import ScoringError
from repro.sequences.sequence import N_CODE


@dataclass(frozen=True)
class ScoringScheme:
    """Affine-gap scoring parameters.

    Attributes:
        match: score added for identical bases (> 0).
        mismatch: score added for differing bases (<= 0, stored signed).
        gap_first: penalty magnitude of the first gap in a run (> 0).
        gap_ext: penalty magnitude of each further gap (> 0).
    """

    match: int = 1
    mismatch: int = -3
    gap_first: int = 5
    gap_ext: int = 2

    def __post_init__(self) -> None:
        if self.match <= 0:
            raise ScoringError("match score must be positive")
        if self.mismatch > 0:
            raise ScoringError("mismatch score must be <= 0")
        if self.gap_ext <= 0:
            raise ScoringError("gap extension penalty must be positive")
        # The scan-based row kernel (align.rowscan) assumes opening a new
        # gap inside an existing one never wins, which requires
        # gap_first >= gap_ext; this also matches the affine model's intent.
        if self.gap_first < self.gap_ext:
            raise ScoringError("gap_first must be >= gap_ext (affine model)")

    @property
    def gap_open(self) -> int:
        """Opening component ``G_open = G_first - G_ext`` (Section II)."""
        return self.gap_first - self.gap_ext

    def gap_cost(self, length: int) -> int:
        """Total penalty magnitude of a gap run of ``length`` columns."""
        if length <= 0:
            raise ScoringError("gap run length must be positive")
        return self.gap_first + (length - 1) * self.gap_ext

    def substitution_row(self, code: int, other: np.ndarray) -> np.ndarray:
        """Vector of substitution scores of one base against a code array.

        ``N`` never matches anything (including ``N``), as CUDAlign treats
        masked bases.
        """
        if code == N_CODE:
            eq = np.zeros(other.shape, dtype=bool)
        else:
            eq = other == code
        return np.where(eq, SCORE_DTYPE(self.match), SCORE_DTYPE(self.mismatch))

    def substitution_matrix(self, codes0: np.ndarray, codes1: np.ndarray) -> np.ndarray:
        """Outer substitution-score matrix (m x n): the scores every
        traceback checks diagonal steps against."""
        eq = codes0[:, None] == codes1[None, :]
        eq &= (codes0 != N_CODE)[:, None]
        return np.where(eq, SCORE_DTYPE(self.match), SCORE_DTYPE(self.mismatch))


#: The exact parameters used in the paper's experiments (Section V).
PAPER_SCHEME = ScoringScheme(match=1, mismatch=-3, gap_first=5, gap_ext=2)
