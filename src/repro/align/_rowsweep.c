/* Compiled row loop of repro.align.rowscan.RowSweeper.
 *
 * Sweeps rows i0+1 .. i0+nrows of the affine-gap forward recurrence in
 * place over the linear-space rows H, E, F (n + 1 cells each), exactly as
 * RowSweeper's NumPy body does, cell for cell:
 *
 *   F(i,j) = max(F(i-1,j) - G_ext, H(i-1,j) - G_first)
 *   X(i,j) = max(H(i-1,j-1) + sub(i,j), F(i,j))     (floored at 0 if LOCAL)
 *   E(i,j) = max_{k<j} (X(i,k) + k*G_ext) - G_first - (j-1)*G_ext
 *   H(i,j) = max(X(i,j), E(i,j))
 *
 * mode picks the boundary and the floor:
 *   GLOBAL     column 0 takes its value from F, no floor;
 *   LOCAL      column 0 is 0 and every cell is floored at 0
 *              (Smith-Waterman);
 *   SEMIGLOBAL column 0 is 0, interior cells are not floored (free
 *              leading gaps on both sequences).
 *
 * The prefix-max E scan runs in the same pass as the rest of the row,
 * and hdiag carries H(i-1,j-1) across the in-place update.  Compile with
 * -fwrapv: int32 arithmetic then wraps exactly like NumPy's, so results
 * are bit-identical even where a score leaves the int32 range.
 *
 * Per row it also records, when asked:
 *   - the row maximum and its first argmax (the serial best-cell
 *     tie-break: a later row wins only with a strictly larger score);
 *   - the first cell whose H equals the watch value;
 *   - H and E at the tap columns, into row i of tap_H / tap_E;
 *   - the whole of H, E and F, into row i of the (m + 1) x (n + 1)
 *     matrices keep_H / keep_E / keep_F (NULL: rows are not kept).
 *
 * state holds {best, best_i, best_j, watch_i, watch_j}; watch_i < 0
 * means no watch hit yet.
 */

#include <stdint.h>
#include <string.h>

enum { GLOBAL = 0, LOCAL = 1, SEMIGLOBAL = 2 };

static inline int32_t max32(int32_t a, int32_t b) { return a > b ? a : b; }

static inline void sweep(int64_t i0, int64_t nrows,
                         const uint8_t *codes0, const int32_t *lut, int64_t n,
                         int32_t *H, int32_t *E, int32_t *F,
                         int32_t gfirst, int32_t gext, int32_t neg_inf,
                         const int mode, int track_best, int watch_on,
                         int64_t watch, int64_t *state,
                         const int64_t *taps, int64_t ntaps,
                         int32_t *tap_H, int32_t *tap_E,
                         int32_t *keep_H, int32_t *keep_E, int32_t *keep_F)
{
    for (int64_t i = i0 + 1; i <= i0 + nrows; i++) {
        const int32_t *sub = lut + (int64_t)codes0[i - 1] * n;

        /* Column 0: the boundary column takes its value from F. */
        int32_t hdiag = H[0];
        int32_t f = max32(F[0] - gext, hdiag - gfirst);
        int32_t x;
        if (mode != GLOBAL) {
            x = 0;
            F[0] = neg_inf;
        } else {
            x = f;
            F[0] = f;
        }
        int32_t tmax = x;           /* running max of X(i,k) + k*G_ext */
        int32_t ramp = 0;           /* (j-1) * G_ext, wrapping */
        int32_t h = max32(x, neg_inf);
        E[0] = neg_inf;
        H[0] = h;
        int32_t row_max = h;
        int64_t row_arg = 0;

        for (int64_t j = 1; j <= n; j++) {
            int32_t e = tmax - (gfirst + ramp);
            int32_t hup = H[j];
            f = max32(F[j] - gext, hup - gfirst);
            F[j] = f;
            x = max32(hdiag + sub[j - 1], f);
            if (mode == LOCAL)
                x = max32(x, 0);
            hdiag = hup;
            ramp += gext;
            tmax = max32(tmax, x + ramp);
            h = max32(x, e);
            E[j] = e;
            H[j] = h;
            if (h > row_max) {
                row_max = h;
                row_arg = j;
            }
        }

        if (track_best && row_max > state[0]) {
            state[0] = row_max;
            state[1] = i;
            state[2] = row_arg;
        }
        if (watch_on && state[3] < 0 && row_max >= watch) {
            for (int64_t j = 0; j <= n; j++) {
                if (H[j] == watch) {
                    state[3] = i;
                    state[4] = j;
                    break;
                }
            }
        }
        for (int64_t t = 0; t < ntaps; t++) {
            tap_H[i * ntaps + t] = H[taps[t]];
            tap_E[i * ntaps + t] = E[taps[t]];
        }
        if (keep_H) {
            size_t row = (size_t)(n + 1) * sizeof(int32_t);
            memcpy(keep_H + i * (n + 1), H, row);
            memcpy(keep_E + i * (n + 1), E, row);
            memcpy(keep_F + i * (n + 1), F, row);
        }
    }
}

void rowsweep(int64_t i0, int64_t nrows,
              const uint8_t *codes0, const int32_t *lut, int64_t n,
              int32_t *H, int32_t *E, int32_t *F,
              int32_t gfirst, int32_t gext, int32_t neg_inf, int32_t mode,
              int32_t track_best, int32_t watch_on, int64_t watch,
              int64_t *state, const int64_t *taps, int64_t ntaps,
              int32_t *tap_H, int32_t *tap_E,
              int32_t *keep_H, int32_t *keep_E, int32_t *keep_F)
{
    /* One call site per mode, each with a constant `mode`, lets the
     * compiler drop the floor from the inner loop of global and
     * semi-global sweeps. */
#define SWEEP(MODE) sweep(i0, nrows, codes0, lut, n, H, E, F, gfirst, gext, \
                          neg_inf, MODE, track_best, watch_on, watch, state, \
                          taps, ntaps, tap_H, tap_E, keep_H, keep_E, keep_F)
    if (mode == LOCAL)
        SWEEP(LOCAL);
    else if (mode == SEMIGLOBAL)
        SWEEP(SEMIGLOBAL);
    else
        SWEEP(GLOBAL);
#undef SWEEP
}
