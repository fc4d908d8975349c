/* Native PAREMSP chunk kernel: the two-row scan, FLATTEN and relabel.
 *
 * Plain C99, no OpenMP: the Python side runs one call per row chunk on
 * its own thread, and a ctypes foreign call releases the GIL, so the
 * chunks run in parallel the way the paper's OpenMP threads do.
 * Compiled on first use by repro.ccl._native; every function has a
 * NumPy twin that stays as the fallback and the test oracle.
 *
 * Labels are int32 (repro.types.LABEL_DTYPE), pixels uint8 in {0, 1},
 * every array C-contiguous. The caller validates shapes and sizes.
 */
#include <stdint.h>
#include <stdlib.h>

typedef int32_t label_t;

/* Rem's union with splicing (Algorithm 2): the smallest index of a set
 * is always its root, and p[i] <= i holds for every entry. */
static void merge(label_t *p, label_t x, label_t y)
{
    while (p[x] != p[y]) {
        if (p[x] > p[y]) {
            if (x == p[x]) {
                p[x] = p[y];
                return;
            }
            label_t z = p[x];
            p[x] = p[y];
            x = z;
        } else {
            if (y == p[y]) {
                p[y] = p[x];
                return;
            }
            label_t z = p[y];
            p[y] = p[x];
            y = z;
        }
    }
}

/* AREMSP's two-row scan over pair runs (the NumPy twin is
 * repro.ccl.run_based.scan_runs_chunk under 8-connectivity).
 *
 * Every maximal run of a row pair's column-wise OR is one 8-connected
 * piece and gets one id, label_start + j for the j-th pair run in
 * (pair, start column) order, painted over both rows of the pair where
 * the pixels are set. Pair runs meet only across pair seams (rows
 * 2k - 1 and 2k), which are unioned with Rem's splicing once each pair
 * is painted. A last forward pass resolves every entry to its root with
 * global values: p[i] = label_start + the smallest id of i's component.
 *
 * On noise most branches of a pixel-at-a-time scan are coin flips, so
 * the hot loops have none: run starts are counted arithmetically, ids
 * are masked in, and the seam's merge candidates are appended to a
 * buffer by advancing its cursor by the condition.
 *
 * labels holds rows * cols entries; p holds at least
 * ceil(rows / 2) * ceil(cols / 2), the most pair runs a chunk can have.
 * Returns the number of pair runs, or -1 if the seam buffer cannot be
 * allocated. */
int64_t pair_scan(const uint8_t *img, int64_t rows, int64_t cols,
                  int32_t label_start, label_t *labels, label_t *p)
{
    /* (x, y) merge candidates of one seam, at most one per column */
    label_t *pairs = malloc(sizeof(label_t) * 2 * (size_t)(cols + 1));
    if (!pairs)
        return -1;
    label_t n = 0;
    for (int64_t r = 0; r < rows; r += 2) {
        const uint8_t *top = img + r * cols;
        label_t *ltop = labels + r * cols;
        label_t first = n;
        label_t base = label_start - 1; /* the open run's id is base + n */
        uint32_t prev = 0;              /* was the last column's OR set? */
        if (r + 1 < rows) {
            const uint8_t *bot = top + cols;
            label_t *lbot = ltop + cols;
            for (int64_t c = 0; c < cols; c++) {
                uint32_t a = top[c], b = bot[c], on = a | b;
                n += on & ~prev;
                prev = on;
                label_t id = base + n;
                ltop[c] = -(label_t)a & id;
                lbot[c] = -(label_t)b & id;
            }
        } else { /* an odd tail row pairs with nothing */
            for (int64_t c = 0; c < cols; c++) {
                uint32_t on = top[c];
                n += on & ~prev;
                prev = on;
                ltop[c] = -(label_t)on & (base + n);
            }
        }
        for (label_t i = first; i < n; i++)
            p[i] = i;
        if (r == 0)
            continue;
        /* the seam between row r - 1 (the last pair's bottom row) and
         * row r. The four pixels of a 2x2 window are mutually
         * 8-adjacent and every cross-seam adjacency lies in the window
         * over columns c - 1 and c, so each window whose two rows both
         * hold a set pixel joins their ids. Adjacent set pixels of one
         * row share an id, so the id of a window row is its larger
         * entry, and a window repeating the last one adds nothing. */
        const label_t *up = ltop - cols;
        label_t left_x = 0, left_y = 0, last_x = 0, last_y = 0;
        int64_t m = 0;
        for (int64_t c = 0; c < cols; c++) {
            label_t tx = ltop[c], ty = up[c];
            label_t x = tx > left_x ? tx : left_x;
            label_t y = ty > left_y ? ty : left_y;
            left_x = tx;
            left_y = ty;
            pairs[2 * m] = x;
            pairs[2 * m + 1] = y;
            m += (x != 0) & (y != 0) & ((x != last_x) | (y != last_y));
            last_x = x;
            last_y = y;
        }
        for (int64_t k = 0; k < m; k++)
            merge(p, pairs[2 * k] - label_start,
                  pairs[2 * k + 1] - label_start);
    }
    free(pairs);
    /* p[i] <= i, so p[p[i]] is already final when i is reached */
    for (label_t i = 0; i < n; i++) {
        label_t q = p[i];
        p[i] = q == i ? label_start + i : p[q];
    }
    return n;
}

/* The paper's sequential FLATTEN (Algorithm 3) over ascending, disjoint
 * [starts[j], stops[j]) ranges of p (the NumPy twin is
 * repro.unionfind.flatten.flatten_ranges_array). Roots take 1..K in
 * index order; every other entry takes its root's final label. Returns
 * K. */
int64_t flatten_ranges(label_t *p, const int64_t *starts,
                       const int64_t *stops, int64_t n_ranges)
{
    label_t k = 1;
    for (int64_t j = 0; j < n_ranges; j++) {
        for (int64_t i = starts[j] > 1 ? starts[j] : 1; i < stops[j]; i++) {
            if (p[i] < i)
                p[i] = p[p[i]];
            else
                p[i] = k++;
        }
    }
    return k - 1;
}

/* dst[i] = lut[src[i]] for i < n; src and dst may be the same array.
 * A provisional label outside [0, n_lut) is written as 0 and counted;
 * returns that count (0 on a sound label plane). */
int64_t relabel(const label_t *src, label_t *dst, int64_t n,
                const label_t *lut, int64_t n_lut)
{
    int64_t bad = 0;
    for (int64_t i = 0; i < n; i++) {
        uint32_t v = (uint32_t)src[i];
        if (v < (uint64_t)n_lut) {
            dst[i] = lut[v];
        } else {
            dst[i] = 0;
            bad++;
        }
    }
    return bad;
}
