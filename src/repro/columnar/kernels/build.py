"""cffi build recipe for the native columnar kernels.

One translation unit implements the engine's hot inner loops over raw
int64 column buffers — the per-shape structural sweep join, the
stack-tree ancestor join, the prefix join, the vectorized range filter,
batch gather, the selection-vector reduction, the result emit (gather,
sort, dedup into packed ``(tid, id)`` pairs), the sorted disjoint
k-way pair merge, the packed-pairs-to-JSON encoder and the store build
(a stable lexicographic argsort over int64 key columns and the run-start
scan that turns sorted keys into directories).  The C code is a
line-for-line transcription of the pure-Python loops in
:mod:`repro.columnar.structural`, :mod:`repro.columnar.executor`,
:mod:`repro.columnar.result` and :mod:`repro.columnar.store`
(same traversal order, same comparison semantics, same emit order; the
argsort reaches its twin's total order by another algorithm, and the join
kernels reach the per-tree bounds the twin reads from ``name_tid_bounds``
or ``partition()`` by galloping from the previous tree's), so the two
backends stay byte-identical by construction and the dual-backend
differential suite can hold them to it.

Build paths (both produce ``repro.columnar.kernels._native``):

* ``python setup.py build_ext`` — via ``cffi_modules`` in ``setup.py``;
* first import — :mod:`repro.columnar.kernels.api` compiles into a
  temporary directory and atomically installs the artifact next to this
  file (falling back to the temporary copy on read-only checkouts).

Residual conditions cross the boundary as an array of ``repro_check_t``:
a tagged column pointer (int64 column or uint8 bitmap), a comparison
opcode, and a right-hand side that is either an inline constant or a
per-binding lookup (``rhs_arr[rhs_col[i]]`` — the store column the
binding slot indexes into).

The three join kernels enumerate candidates from a *candidate list*:
positions ``[lo, hi)`` of a ``rows`` array of row ids in ``(tid, left)``
order — a value seed's element rows — or, with ``rows`` NULL, of the
identity list, where a position is the row itself and ``[lo, hi)`` a name
block of the clustered order.

The three join kernels take a ``first_match`` flag: when set, a binding
stops at its first candidate that passes every residual check, so the
output holds at most one pair per input binding.  That is the shape the
last step of a predicate sub-pipeline needs (an exists/not-exists
semi-join only asks *whether* a binding matches).
"""

import hashlib

from cffi import FFI

ffibuilder = FFI()

#: Bumped whenever a kernel signature changes; :mod:`.api` rebuilds a
#: pre-built ``_native`` artifact whose ``REPRO_KERNEL_ABI`` differs, so a
#: stale shared object left in a checkout can never be called with the
#: wrong argument list.
KERNEL_ABI = 7

ffibuilder.cdef(
    """
#define REPRO_KERNEL_ABI ...
#define REPRO_KERNEL_DIGEST ...

typedef struct {
    const int64_t *i64;      /* candidate int64 column, or NULL        */
    const uint8_t *u8;       /* candidate uint8 bitmap when i64 NULL   */
    const int64_t *rhs_arr;  /* rhs store column for binding-resolved  */
    const int64_t *rhs_col;  /* batch column holding the binding rows  */
    int64_t rhs_const;       /* inline rhs when rhs_arr is NULL        */
    int32_t op;              /* 0 == 1 != 2 < 3 <= 4 > 5 >=            */
    int32_t pad;
} repro_check_t;

int64_t repro_sweep_join(
    const int64_t *tids, const int64_t *lefts,
    const int64_t *rows, int64_t name_lo, int64_t name_hi,
    const int64_t *tid_col, const int64_t *key_col, int64_t count,
    const int64_t *key_arr, int include_low,
    const int64_t *high_arr, const int64_t *high_col, int include_high,
    const repro_check_t *checks, int32_t n_checks, int first_match,
    int64_t max_rows, int32_t *out_truncated,
    int64_t **out_src, int64_t **out_cand);

int64_t repro_stack_join(
    const int64_t *tids, const int64_t *lefts, const int64_t *rights,
    const int64_t *rows, int64_t name_lo, int64_t name_hi,
    const int64_t *tid_col, const int64_t *key_col, int64_t count,
    const int64_t *key_arr, int include_high,
    const repro_check_t *checks, int32_t n_checks, int first_match,
    int64_t max_rows, int32_t *out_truncated,
    int64_t **out_src, int64_t **out_cand);

int64_t repro_prefix_join(
    const int64_t *tids, const int64_t *lefts,
    const int64_t *rows, int64_t name_lo, int64_t name_hi,
    const int64_t *tid_col, const int64_t *key_col, int64_t count,
    const int64_t *key_arr, int include_high,
    const repro_check_t *checks, int32_t n_checks, int first_match,
    int64_t max_rows, int32_t *out_truncated,
    int64_t **out_src, int64_t **out_cand);

int64_t repro_filter_range(
    int64_t start, int64_t end,
    const repro_check_t *checks, int32_t n_checks,
    int64_t *out);

void repro_gather(
    const int64_t *col, const int64_t *idx, int64_t n, int64_t *out);

int64_t repro_distinct(
    const int64_t *ords, int64_t k, int64_t n, int negate, int64_t *out);

int64_t repro_emit_pairs(
    const int64_t *tids, const int64_t *ids,
    const int64_t *rows, int64_t n, int64_t *out);

int64_t repro_merge_pairs(
    int64_t **blobs, const int64_t *counts, int32_t k, int64_t *out);

int64_t repro_encode_pairs(const int64_t *pairs, int64_t n, char *out);

int64_t repro_argsort(int64_t **keys, int32_t k, int64_t n, int64_t *out);

int64_t repro_run_starts(int64_t **keys, int32_t k, int64_t n, int64_t *out);

void repro_free(int64_t *p);
"""
)

CSOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define REPRO_KERNEL_ABI %d
#define REPRO_KERNEL_DIGEST %d

typedef struct {
    const int64_t *i64;
    const uint8_t *u8;
    const int64_t *rhs_arr;
    const int64_t *rhs_col;
    int64_t rhs_const;
    int32_t op;
    int32_t pad;
} repro_check_t;

/* Mirrors structural._NO_LIMIT: above any span position, far from
   int64 overflow even after the +1 inclusive-bound adjustment. */
#define REPRO_NO_LIMIT (((int64_t)1) << 62)

/* Op o (0 == 1 != 2 < 3 <= 4 > 5 >=) passes when bit (v > rhs) -
   (v < rhs) + 1 of its 3-bit mask, octal digit o of 0643152, is set:
   no branch, and no subtraction to overflow.  Other ops have no mask. */
static int repro_cmp_op(int64_t v, int32_t op, int64_t rhs)
{
    uint32_t mask = (uint32_t)op < 6 ? 0643152u >> (3 * op) : 0;
    return (int)(mask >> ((v > rhs) - (v < rhs) + 1)) & 1;
}

static int repro_checks_pass(const repro_check_t *checks, int32_t n_checks,
                             int64_t i, int64_t j)
{
    int32_t c;
    for (c = 0; c < n_checks; c++) {
        const repro_check_t *ch = &checks[c];
        int64_t rhs = ch->rhs_arr ? ch->rhs_arr[ch->rhs_col[i]]
                                  : ch->rhs_const;
        int64_t v = ch->i64 ? ch->i64[j] : (int64_t)ch->u8[j];
        if (!repro_cmp_op(v, ch->op, rhs))
            return 0;
    }
    return 1;
}

/* -- ordering nearly ordered records ------------------------------------ */

/* qsort(base, n, size, cmp) for what a clustered scan or a merge join
   hands over: tid-ascending and out of order only inside a tree (nested
   nodes sharing a left edge, the right edges of nested spans).  An
   insertion pass costs O(n) there -- n compares and nothing else when
   the records are already ordered; once it has shifted more than 8n
   records, qsort finishes from the permutation it leaves.  Records are
   at most three int64 wide; inline, so every caller's size and
   comparator are constants. */
static inline void repro_sort_records(
    void *base, int64_t n, size_t size,
    int (*cmp)(const void *, const void *))
{
    char *recs = (char *)base;
    int64_t held[3], k, budget = 8 * n;
    for (k = 1; k < n && budget >= 0; k++) {
        char *slot = recs + k * size;
        if (cmp(slot - size, slot) <= 0)
            continue;
        memcpy(held, slot, size);
        do {
            memcpy(slot, slot - size, size);
            slot -= size;
            budget--;
        } while (slot > recs && cmp(slot - size, held) > 0);
        memcpy(slot, held, size);
    }
    if (budget < 0)
        qsort(base, (size_t)n, size, cmp);
}

/* -- keyed binding order (the Python side's keyed.sort()) ----------------- */

typedef struct { int64_t tid; int64_t key; int64_t idx; } repro_keyed_t;

static int repro_keyed_cmp(const void *pa, const void *pb)
{
    const repro_keyed_t *a = (const repro_keyed_t *)pa;
    const repro_keyed_t *b = (const repro_keyed_t *)pb;
    if (a->tid != b->tid) return a->tid < b->tid ? -1 : 1;
    if (a->key != b->key) return a->key < b->key ? -1 : 1;
    if (a->idx != b->idx) return a->idx < b->idx ? -1 : 1;
    return 0;
}

/* The comparator totally orders entries (idx tiebreak), so no sort can
   reorder equal keys -- emit order matches the interpreter's stable
   tuple sort exactly. */
static repro_keyed_t *repro_build_keyed(
    const int64_t *tids, const int64_t *tid_col,
    const int64_t *key_arr, const int64_t *key_col, int64_t count)
{
    int64_t i;
    repro_keyed_t *keyed =
        (repro_keyed_t *)malloc((size_t)count * sizeof(repro_keyed_t));
    if (!keyed)
        return NULL;
    for (i = 0; i < count; i++) {
        keyed[i].tid = tids[tid_col[i]];
        keyed[i].key = key_arr[key_col[i]];
        keyed[i].idx = i;
    }
    repro_sort_records(keyed, count, sizeof(repro_keyed_t), repro_keyed_cmp);
    return keyed;
}

/* -- per-tree partition lookup -------------------------------------------- */

/* Position p of a candidate list names row rows[p]; the identity list
   (rows == NULL: a name block of the clustered order) names row p. */
#define REPRO_ROW(p) (rows ? rows[p] : (p))

/* A candidate list sorts tids ascending (as the clustered order does
   inside a name block) and the kernels visit trees in ascending tid
   order, so tree tid's partition starts at or after *base, the previous
   partition's end.  Returns that start, galloping from *base (probes 1,
   2, 4, ... positions on, then a bisection of the last gap: O(log gap),
   not O(log block)), and moves *base to the partition's end by walking
   the run of equal tids, which the scan of it reads again.  These are the
   bounds name_tid_bounds and a seed's partition() hold, by another route. */
static int64_t repro_partition(const int64_t *tids, const int64_t *rows,
                               int64_t tid, int64_t *base, int64_t end)
{
    int64_t lo = *base, top = lo, step = 1;
    while (top < end && tids[REPRO_ROW(top)] < tid) {
        lo = top + 1;
        top += step;
        step <<= 1;
    }
    if (top > end)
        top = end;
    while (lo < top) {
        int64_t mid = lo + ((top - lo) >> 1);
        if (tids[REPRO_ROW(mid)] < tid) lo = mid + 1; else top = mid;
    }
    for (top = lo; top < end && tids[REPRO_ROW(top)] <= tid; top++)
        continue;
    *base = top;
    return lo;
}

/* -- growable (src, cand) output ------------------------------------------ */

typedef struct { int64_t *src; int64_t *cand; int64_t n; int64_t cap; }
    repro_pairs_t;

static int repro_push(repro_pairs_t *p, int64_t src, int64_t cand)
{
    if (p->n == p->cap) {
        int64_t cap = p->cap ? p->cap * 2 : 256;
        int64_t *grown = (int64_t *)realloc(p->src,
                                            (size_t)cap * sizeof(int64_t));
        if (!grown) return -1;
        p->src = grown;
        grown = (int64_t *)realloc(p->cand, (size_t)cap * sizeof(int64_t));
        if (!grown) return -1;
        p->cand = grown;
        p->cap = cap;
    }
    p->src[p->n] = src;
    p->cand[p->n] = cand;
    p->n++;
    return 0;
}

/* -- the three structural join strategies --------------------------------- */

int64_t repro_sweep_join(
    const int64_t *tids, const int64_t *lefts,
    const int64_t *rows, int64_t name_lo, int64_t name_hi,
    const int64_t *tid_col, const int64_t *key_col, int64_t count,
    const int64_t *key_arr, int include_low,
    const int64_t *high_arr, const int64_t *high_col, int include_high,
    const repro_check_t *checks, int32_t n_checks, int first_match,
    int64_t max_rows, int32_t *out_truncated,
    int64_t **out_src, int64_t **out_cand)
{
    repro_pairs_t pairs = {NULL, NULL, 0, 0};
    int have_tid = 0;
    int64_t cur_tid = 0, lo = 0, hi = name_lo, ptr = 0, k;
    repro_keyed_t *keyed =
        repro_build_keyed(tids, tid_col, key_arr, key_col, count);
    *out_truncated = 0;
    if (!keyed)
        return -1;
    for (k = 0; k < count; k++) {
        int64_t i = keyed[k].idx;
        int64_t tid = keyed[k].tid;
        int64_t low_val = keyed[k].key;
        int64_t start, limit, j;
        if (!have_tid || tid != cur_tid) {
            /* Top-k cutoff: stop before starting a new tree once the
               budget is spent, so the output covers a complete prefix
               of the ascending tid groups. */
            if (max_rows >= 0 && have_tid && pairs.n >= max_rows) {
                *out_truncated = 1;
                break;
            }
            have_tid = 1;
            cur_tid = tid;
            lo = repro_partition(tids, rows, tid, &hi, name_hi);
            ptr = lo;
        }
        start = include_low ? low_val : low_val + 1;
        while (ptr < hi && lefts[REPRO_ROW(ptr)] < start)
            ptr++;
        if (!high_arr) {
            limit = REPRO_NO_LIMIT;
        } else {
            int64_t high_val = high_arr[high_col[i]];
            limit = include_high ? high_val + 1 : high_val;
        }
        for (j = ptr; j < hi; j++) {
            int64_t row = REPRO_ROW(j);
            if (lefts[row] >= limit)
                break;
            if (!repro_checks_pass(checks, n_checks, i, row))
                continue;
            if (repro_push(&pairs, i, row))
                goto oom;
            if (first_match)
                break;
        }
    }
    free(keyed);
    *out_src = pairs.src;
    *out_cand = pairs.cand;
    return pairs.n;
oom:
    free(keyed);
    free(pairs.src);
    free(pairs.cand);
    return -1;
}

int64_t repro_stack_join(
    const int64_t *tids, const int64_t *lefts, const int64_t *rights,
    const int64_t *rows, int64_t name_lo, int64_t name_hi,
    const int64_t *tid_col, const int64_t *key_col, int64_t count,
    const int64_t *key_arr, int include_high,
    const repro_check_t *checks, int32_t n_checks, int first_match,
    int64_t max_rows, int32_t *out_truncated,
    int64_t **out_src, int64_t **out_cand)
{
    repro_pairs_t pairs = {NULL, NULL, 0, 0};
    int have_tid = 0;
    int64_t cur_tid = 0, lo = 0, hi = name_lo, ptr = 0, k;
    int64_t block = name_hi - name_lo;
    int64_t *stack;
    int64_t stack_n = 0;
    repro_keyed_t *keyed =
        repro_build_keyed(tids, tid_col, key_arr, key_col, count);
    *out_truncated = 0;
    if (!keyed)
        return -1;
    /* A stack entry (a row, not a position) is only ever pushed once per
       partition, so the candidate count bounds the stack depth. */
    stack = (int64_t *)malloc((size_t)(block > 0 ? block : 1)
                              * sizeof(int64_t));
    if (!stack) {
        free(keyed);
        return -1;
    }
    for (k = 0; k < count; k++) {
        int64_t i = keyed[k].idx;
        int64_t tid = keyed[k].tid;
        int64_t edge = keyed[k].key;
        int64_t limit, s;
        if (!have_tid || tid != cur_tid) {
            if (max_rows >= 0 && have_tid && pairs.n >= max_rows) {
                *out_truncated = 1;
                break;
            }
            have_tid = 1;
            cur_tid = tid;
            lo = repro_partition(tids, rows, tid, &hi, name_hi);
            ptr = lo;
            stack_n = 0;
        }
        limit = include_high ? edge + 1 : edge;
        while (ptr < hi && lefts[REPRO_ROW(ptr)] < limit) {
            stack[stack_n++] = REPRO_ROW(ptr);
            ptr++;
        }
        while (stack_n && rights[stack[stack_n - 1]] <= edge)
            stack_n--;
        for (s = 0; s < stack_n; s++) {
            int64_t j = stack[s];
            if (!repro_checks_pass(checks, n_checks, i, j))
                continue;
            if (repro_push(&pairs, i, j))
                goto oom;
            if (first_match)
                break;
        }
    }
    free(stack);
    free(keyed);
    *out_src = pairs.src;
    *out_cand = pairs.cand;
    return pairs.n;
oom:
    free(stack);
    free(keyed);
    free(pairs.src);
    free(pairs.cand);
    return -1;
}

int64_t repro_prefix_join(
    const int64_t *tids, const int64_t *lefts,
    const int64_t *rows, int64_t name_lo, int64_t name_hi,
    const int64_t *tid_col, const int64_t *key_col, int64_t count,
    const int64_t *key_arr, int include_high,
    const repro_check_t *checks, int32_t n_checks, int first_match,
    int64_t max_rows, int32_t *out_truncated,
    int64_t **out_src, int64_t **out_cand)
{
    repro_pairs_t pairs = {NULL, NULL, 0, 0};
    int have_tid = 0;
    int64_t cur_tid = 0, lo = 0, hi = name_lo, end = 0, k;
    repro_keyed_t *keyed =
        repro_build_keyed(tids, tid_col, key_arr, key_col, count);
    *out_truncated = 0;
    if (!keyed)
        return -1;
    for (k = 0; k < count; k++) {
        int64_t i = keyed[k].idx;
        int64_t tid = keyed[k].tid;
        int64_t edge = keyed[k].key;
        int64_t limit, j;
        if (!have_tid || tid != cur_tid) {
            if (max_rows >= 0 && have_tid && pairs.n >= max_rows) {
                *out_truncated = 1;
                break;
            }
            have_tid = 1;
            cur_tid = tid;
            lo = repro_partition(tids, rows, tid, &hi, name_hi);
            end = lo;
        }
        limit = include_high ? edge + 1 : edge;
        while (end < hi && lefts[REPRO_ROW(end)] < limit)
            end++;
        for (j = lo; j < end; j++) {
            int64_t row = REPRO_ROW(j);
            if (!repro_checks_pass(checks, n_checks, i, row))
                continue;
            if (repro_push(&pairs, i, row))
                goto oom;
            if (first_match)
                break;
        }
    }
    free(keyed);
    *out_src = pairs.src;
    *out_cand = pairs.cand;
    return pairs.n;
oom:
    free(keyed);
    free(pairs.src);
    free(pairs.cand);
    return -1;
}

/* -- scan-side vector filter and batch gather ----------------------------- */

int64_t repro_filter_range(
    int64_t start, int64_t end,
    const repro_check_t *checks, int32_t n_checks,
    int64_t *out)
{
    int64_t j, n = 0;
    for (j = start; j < end; j++) {
        int32_t c;
        int ok = 1;
        for (c = 0; c < n_checks; c++) {
            const repro_check_t *ch = &checks[c];
            int64_t v = ch->i64 ? ch->i64[j] : (int64_t)ch->u8[j];
            if (!repro_cmp_op(v, ch->op, ch->rhs_const)) {
                ok = 0;
                break;
            }
        }
        if (ok)
            out[n++] = j;
    }
    return n;
}

void repro_gather(
    const int64_t *col, const int64_t *idx, int64_t n, int64_t *out)
{
    int64_t k;
    for (k = 0; k < n; k++)
        out[k] = col[idx[k]];
}

/* -- selection vectors ---------------------------------------------------- */

/* The distinct values of ords[0..k) (all in [0, n)), ascending — the
   bindings a semi-join kept — or, with negate, the values of [0, n) that
   are absent from it (the anti-semi-join).  out has room for n. */
int64_t repro_distinct(
    const int64_t *ords, int64_t k, int64_t n, int negate, int64_t *out)
{
    int64_t i, written = 0;
    uint8_t *seen = (uint8_t *)calloc((size_t)(n > 0 ? n : 1), 1);
    if (!seen)
        return -1;
    for (i = 0; i < k; i++)
        seen[ords[i]] = 1;
    for (i = 0; i < n; i++) {
        if (seen[i] != (uint8_t)(negate != 0))
            out[written++] = i;
    }
    free(seen);
    return written;
}

/* -- result emit: distinct sorted (tid, id) pairs -------------------------- */

typedef struct { int64_t tid; int64_t id; } repro_pair_t;

static int repro_pair_cmp(const void *pa, const void *pb)
{
    const repro_pair_t *a = (const repro_pair_t *)pa;
    const repro_pair_t *b = (const repro_pair_t *)pb;
    if (a->tid != b->tid) return a->tid < b->tid ? -1 : 1;
    return a->id < b->id ? -1 : a->id > b->id;
}

/* out[0..2n) <- (tids[r], ids[r]) for r in rows, sorted and deduplicated
   in place; returns the number of pairs kept. */
int64_t repro_emit_pairs(
    const int64_t *tids, const int64_t *ids,
    const int64_t *rows, int64_t n, int64_t *out)
{
    repro_pair_t *pairs = (repro_pair_t *)out;
    int64_t k, kept = 0;
    for (k = 0; k < n; k++) {
        pairs[k].tid = tids[rows[k]];
        pairs[k].id = ids[rows[k]];
    }
    repro_sort_records(pairs, n, sizeof(repro_pair_t), repro_pair_cmp);
    for (k = 0; k < n; k++)
        if (!kept || repro_pair_cmp(&pairs[kept - 1], &pairs[k]))
            pairs[kept++] = pairs[k];
    return kept;
}

/* -- sorted disjoint k-way merge of packed (tid, id) pairs ---------------- */

int64_t repro_merge_pairs(
    int64_t **blobs, const int64_t *counts, int32_t k, int64_t *out)
{
    int64_t written = 0;
    int64_t *pos = (int64_t *)calloc((size_t)(k > 0 ? k : 1),
                                     sizeof(int64_t));
    if (!pos)
        return -1;
    for (;;) {
        int32_t best = -1, s;
        int64_t best_tid = 0, best_id = 0;
        for (s = 0; s < k; s++) {
            const int64_t *head;
            if (pos[s] >= counts[s])
                continue;
            head = blobs[s] + 2 * pos[s];
            /* Strict < keeps the lowest input index on ties, matching
               heapq.merge's stability. */
            if (best < 0 || head[0] < best_tid
                || (head[0] == best_tid && head[1] < best_id)) {
                best = s;
                best_tid = head[0];
                best_id = head[1];
            }
        }
        if (best < 0)
            break;
        out[2 * written] = best_tid;
        out[2 * written + 1] = best_id;
        written++;
        pos[best]++;
    }
    free(pos);
    return written;
}

/* -- packed (tid, id) pairs to the bytes json.dumps gives their lists ---- */

static char *repro_put_i64(char *p, int64_t v)
{
    char digits[20];
    int k = 0;
    uint64_t u = v < 0 ? 0 - (uint64_t)v : (uint64_t)v;
    if (v < 0)
        *p++ = '-';
    do {
        digits[k++] = (char)('0' + u %% 10);
        u /= 10;
    } while (u);
    while (k)
        *p++ = digits[--k];
    return p;
}

/* out <- "[[t0, i0], [t1, i1]]" ("[]" for n == 0); out holds 2 + 46n
   bytes, two 20-character int64 to a pair.  Returns the bytes written. */
int64_t repro_encode_pairs(const int64_t *pairs, int64_t n, char *out)
{
    char *p = out;
    int64_t k;
    *p++ = '[';
    for (k = 0; k < n; k++) {
        if (k) { *p++ = ','; *p++ = ' '; }
        *p++ = '[';
        p = repro_put_i64(p, pairs[2 * k]);
        *p++ = ','; *p++ = ' ';
        p = repro_put_i64(p, pairs[2 * k + 1]);
        *p++ = ']';
    }
    *p++ = ']';
    return p - out;
}

/* -- store build: clustered order and run directories -------------------- */

/* Row a against row b of a row-major n x k key matrix, the row position
   breaking ties: a total order, so the sort below is the stable sort of
   the Python twin (sorted() over (key..., position) tuples). */
static int repro_row_cmp(const int64_t *mat, int32_t k, int64_t a, int64_t b)
{
    const int64_t *x = mat + a * k, *y = mat + b * k;
    int32_t j;
    for (j = 0; j < k; j++)
        if (x[j] != y[j])
            return x[j] < y[j] ? -1 : 1;
    return a < b ? -1 : a > b;
}

#define REPRO_SORT_RUN 32

/* out[0..n) <- the row positions ordered by (keys[0][r], ..., keys[k-1][r],
   r).  When the first key spans at most n values, a stable counting pass
   by it comes first; then insertion-sorted runs and bottom-up merges that
   copy a pair of runs already in order -- about O(n) when rows arrive
   ordered up to the first key, the build's usual case (trees in tid
   order, nodes in document order).  Any correct sort gives the same
   permutation, the order being total.  Returns 0, or -1 when an
   allocation fails. */
int64_t repro_argsort(int64_t **keys, int32_t k, int64_t n, int64_t *out)
{
    int64_t *mat, *tmp, *src, *dst, *swap, r, lo, width, least, most;
    int32_t j;
    if (n <= 0)
        return 0;
    mat = (int64_t *)malloc((size_t)n * (size_t)k * sizeof(int64_t));
    tmp = (int64_t *)malloc((size_t)n * sizeof(int64_t));
    if (!mat || !tmp)
        goto oom;
    least = most = keys[0][0];
    for (r = 0; r < n; r++) {
        for (j = 0; j < k; j++)
            mat[r * k + j] = keys[j][r];
        least = mat[r * k] < least ? mat[r * k] : least;
        most = mat[r * k] > most ? mat[r * k] : most;
        out[r] = r;
    }
    if ((uint64_t)most - (uint64_t)least < (uint64_t)n) {
        int64_t *starts = (int64_t *)calloc((size_t)(most - least + 2),
                                            sizeof(int64_t));
        if (!starts)
            goto oom;
        for (r = 0; r < n; r++)
            starts[mat[r * k] - least + 1]++;
        for (r = 1; r <= most - least; r++)
            starts[r] += starts[r - 1];
        for (r = 0; r < n; r++)
            out[starts[mat[r * k] - least]++] = r;
        free(starts);
    }
    for (lo = 0; lo < n; lo += REPRO_SORT_RUN) {
        int64_t hi = lo + REPRO_SORT_RUN < n ? lo + REPRO_SORT_RUN : n, i;
        for (i = lo + 1; i < hi; i++) {
            int64_t held = out[i], slot = i;
            while (slot > lo && repro_row_cmp(mat, k, out[slot - 1], held) > 0) {
                out[slot] = out[slot - 1];
                slot--;
            }
            out[slot] = held;
        }
    }
    src = out;
    dst = tmp;
    for (width = REPRO_SORT_RUN; width < n; width *= 2) {
        for (lo = 0; lo < n; lo += 2 * width) {
            int64_t mid = lo + width < n ? lo + width : n;
            int64_t hi = lo + 2 * width < n ? lo + 2 * width : n;
            int64_t a = lo, b = mid, o = lo;
            if (mid == hi || repro_row_cmp(mat, k, src[mid - 1], src[mid]) < 0) {
                memcpy(dst + lo, src + lo, (size_t)(hi - lo) * sizeof(int64_t));
                continue;
            }
            while (a < mid && b < hi)
                dst[o++] = repro_row_cmp(mat, k, src[b], src[a]) < 0
                    ? src[b++] : src[a++];
            while (a < mid)
                dst[o++] = src[a++];
            while (b < hi)
                dst[o++] = src[b++];
        }
        swap = src;
        src = dst;
        dst = swap;
    }
    if (src != out)
        memcpy(out, src, (size_t)n * sizeof(int64_t));
    free(mat);
    free(tmp);
    return 0;
oom:
    free(mat);
    free(tmp);
    return -1;
}

/* out <- every position p of [0, n) where a run of equal key rows
   starts (p == 0, or some keys[j][p] != keys[j][p - 1]); returns the
   count.  On sorted keys: one start per distinct key. */
int64_t repro_run_starts(int64_t **keys, int32_t k, int64_t n, int64_t *out)
{
    int64_t p, count = 0;
    int32_t j;
    for (p = 0; p < n; p++) {
        for (j = 0; p && j < k && keys[j][p] == keys[j][p - 1]; j++)
            continue;
        if (j < k)
            out[count++] = p;
    }
    return count;
}

void repro_free(int64_t *p)
{
    free(p);
}
"""

#: A digest of the C source, compiled in beside ``REPRO_KERNEL_ABI``:
#: :mod:`.api` also rebuilds an artifact built from other source, so a
#: kernel change that keeps every signature still replaces an old build.
KERNEL_DIGEST = int.from_bytes(
    hashlib.blake2b(CSOURCE.encode(), digest_size=7).digest(), "big"
)

ffibuilder.set_source(
    "repro.columnar.kernels._native",
    CSOURCE % (KERNEL_ABI, KERNEL_DIGEST),
    extra_compile_args=["-O2"],
)

if __name__ == "__main__":  # pragma: no cover - manual build entry point
    # Build straight into the source tree (the module name is dotted, so
    # cffi lays the artifact out under <tmpdir>/repro/columnar/kernels/).
    import os

    root = os.path.dirname(  # .../src
        os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    )
    ffibuilder.compile(tmpdir=root, verbose=True)
