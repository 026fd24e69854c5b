/* Compiled search backend.

A transliteration of `_pure.run_search`'s loop, statement for statement:
the same prefix classes, admissible-block masks, matching repairs, node
counts and budget checks, so both backends search the same tree and return
the same 5-tuple on every call, which the parity tests check.  Which
scopes hold a depth, where a count bound can bite and where a SUAL scope
ends are not derived here: both backends read `depth_tables`, which `pack`
writes depth by depth, and the loader only range-checks its rows.
`_pure.py`'s docstring describes the algorithm, and the names here follow
it.  Only the containers differ:

- A user mask is W 64-bit words, lowest users first, and the matching
  search is the same Kuhn step as `matching.augment`.
- `cover[d]` is a row of one word per scope: SoD scope f at index f, then
  the counts, then the SUALs.  A node copies its parent's row from index
  d+1 on, as the pure backend's shift drops the passed depths' fields.  A
  depth's row is built from its parent's and never written while a deeper
  depth can read it, as the pure backend's ints are.
- Depth d's alive classes live in one growable array per depth, each
  class with d block masks and a matching of d users.
- The classes' splits are kept as run ends: run_end[d][lo] is the end of
  the run of equal depth-d masks that starts at combo lo, or 0 while its
  class has not been split at depth d.

The module's one function, `search(ints, words, ...)`, takes the two flat
buffers that `wspkit._kernel.pack` lays a SearchProblem out in and reads
them through the buffer protocol; `wspkit._kernel` packs the problem and
calls it.  The combos come in SearchProblem's canonical order, sorted by
mask tuple, so a prefix class is a run of consecutive combos, and the plan
is the matching of the first class alive at full depth.  Every allocation
goes through PyMem, so tracemalloc sees it.
*/

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

typedef uint64_t u64;

/* the status codes of wspkit._kernel */
enum { UNSAT = 0, SAT = 1, BUDGET = 2 };

#define MAX_STEPS 64
#define TIME_CHECK_EVERY 2048
#define NEVER ((int64_t)1 << 62) /* a node count no search reaches */

/* The alive classes of one depth, and their matchings. */
typedef struct {
    Py_ssize_t count, cap;
    int *lo, *hi;  /* the class: combos [lo, hi) */
    u64 *rows;     /* per class: the user mask of each block, W words each */
    int *mrow;     /* per class: the user matched to each block */
} Level;

typedef struct {
    int k, W, m, ncounts;
    size_t nscopes;      /* k SoD scopes, then the counts, then the SUALs */
    const int *order;    /* visit depth -> step */
    const u64 *masks;    /* masks[(i * k + d) * W]: combo i, depth d */
    const u64 *xmasks;   /* xmasks[si * W]: SUAL si's super-users */
    /* depth d's `depth_tables` row in the ints buffer, each table its
       length then its entries: the scopes holding d, the count checks at
       d as (scope, r, at most?), and the SUALs ending at d as (SUAL, h) */
    const int *holders[MAX_STEPS], *checks[MAX_STEPS], *ends[MAX_STEPS];
    int *run_end;        /* run_end[d * m + lo], see the file comment */
    u64 *cover;          /* cover[d * nscopes + j] */
    int nbs[MAX_STEPS + 1], assign[MAX_STEPS];
    u64 left[MAX_STEPS + 1];
    Level levels[MAX_STEPS + 1];
    u64 *seen;           /* the users an augmenting-path search has visited */
    int *restricted;     /* the SUALs that restrict at the current node */
    u64 *restricted_cov; /* and the blocks that cover their scopes */
} Search;

static PyObject *time_module; /* for time.perf_counter */

static void *
alloc(size_t count, size_t size)
{
    void *p = PyMem_Calloc(count ? count : 1, size);
    if (p == NULL)
        PyErr_NoMemory();
    return p;
}

static void
free_search(Search *s)
{
    PyMem_Free(s->run_end);
    PyMem_Free(s->cover);
    PyMem_Free(s->seen);
    PyMem_Free(s->restricted);
    PyMem_Free(s->restricted_cov);
    for (int d = 0; d <= MAX_STEPS; d++) {
        Level *lv = &s->levels[d];
        PyMem_Free(lv->lo);
        PyMem_Free(lv->hi);
        PyMem_Free(lv->rows);
        PyMem_Free(lv->mrow);
    }
}

/* --- reading the packed problem ------------------------------------------ */

typedef struct {
    const int *at, *end;
} Cursor;

/* The next int, which must lie in [lo, hi]; -1 with ValueError if not. */
static int
take(Cursor *c, long long lo, long long hi, int *out)
{
    if (c->at == c->end || *c->at < lo || *c->at > hi) {
        PyErr_SetString(PyExc_ValueError, "malformed packed search problem");
        return -1;
    }
    *out = *c->at++;
    return 0;
}

/* A table: its length, at most `most`, then that many entries of `width`
   ints, int i of each in [bounds[i][0], bounds[i][1]].  The table, or NULL
   with ValueError. */
static const int *
take_table(Cursor *c, long long most, int width, const long long bounds[][2])
{
    const int *table = c->at;
    int n, x;
    if (take(c, 0, most, &n) < 0)
        return NULL;
    for (int j = 0; j < n; j++)
        for (int i = 0; i < width; i++)
            if (take(c, bounds[i][0], bounds[i][1], &x) < 0)
                return NULL;
    return table;
}

/* Fill `s` from the packed buffers: the part of `_pure.run_search` before
   its loop.  -1 with an exception set on failure. */
static int
load(Search *s, const int *ints, Py_ssize_t nints, const u64 *words,
     Py_ssize_t nwords)
{
    Cursor c = {ints, ints + nints};
    int k, W, m, nC, nS, x;
    if (take(&c, 0, MAX_STEPS, &k) < 0 || take(&c, 1, INT_MAX, &W) < 0
        || take(&c, 0, INT_MAX, &m) < 0 || take(&c, 0, INT_MAX, &nC) < 0
        || take(&c, 0, INT_MAX, &nS) < 0)
        return -1;
    s->k = k, s->W = W, s->m = m, s->ncounts = nC;
    long long ns = (long long)k + nC + nS;
    s->nscopes = ns;
    if (nwords % W || nwords / W != (Py_ssize_t)m * k + nS) {
        PyErr_SetString(PyExc_ValueError, "malformed packed search problem");
        return -1;
    }
    s->order = c.at;
    for (int i = 0; i < k; i++)
        if (take(&c, 0, k - 1, &x) < 0)
            return -1;
    s->masks = words;
    s->xmasks = words + (size_t)m * k * W;
    /* Each depth's tables, every index in its range: a holder of depth d
       is a scope past d, a check's scope a count's, and an end a SUAL. */
    for (int d = 0; d < k; d++) {
        const long long holder[][2] = {{d + 1, ns - 1}};
        const long long check[][2] = {
            {k, (long long)k + nC - 1}, {INT_MIN, INT_MAX}, {0, 1}};
        const long long end[][2] = {{0, nS - 1}, {INT_MIN, INT_MAX}};
        if (!(s->holders[d] = take_table(&c, ns, 1, holder))
            || !(s->checks[d] = take_table(&c, nC, 3, check))
            || !(s->ends[d] = take_table(&c, nS, 2, end)))
            return -1;
    }
    if (c.at != c.end) {
        PyErr_SetString(PyExc_ValueError, "malformed packed search problem");
        return -1;
    }
    if (!(s->run_end = alloc((size_t)k * m, sizeof(int)))
        || !(s->cover = alloc((size_t)(k + 1) * ns, sizeof(u64)))
        || !(s->seen = alloc(W, sizeof(u64)))
        || !(s->restricted = alloc(nS, sizeof(int)))
        || !(s->restricted_cov = alloc(nS, sizeof(u64))))
        return -1;
    return 0;
}

/* --- the search -------------------------------------------------------------- */

static inline const u64 *
column(const Search *s, int i, int d)
{
    return s->masks + ((size_t)i * s->k + d) * s->W;
}

static inline int
same_mask(const u64 *a, const u64 *b, int W)
{
    return memcmp(a, b, (size_t)W * sizeof(u64)) == 0;
}

/* Split the class [lo, hi) at depth d into the runs of equal masks in
   column d, which is sorted there because the members agree on depths
   0..d-1. */
static void
split(Search *s, int d, int lo, int hi)
{
    int *run_end = s->run_end + (size_t)d * s->m;
    int start = lo;
    while (start < hi) {
        const u64 *mask = column(s, start, d);
        int end = hi; /* when the rest of the range is one run */
        if (!same_mask(column(s, hi - 1, d), mask, s->W)) {
            /* the first member past start whose mask differs */
            int a = start + 1, b = hi - 1;
            while (a < b) {
                int mid = a + (b - a) / 2;
                if (same_mask(column(s, mid, d), mask, s->W))
                    a = mid + 1;
                else
                    b = mid;
            }
            end = a;
        }
        run_end[start] = end;
        start = end;
    }
}

/* Kuhn's augmenting path from block b over nb blocks; 1 when it matched b.
   Users are tried in ascending order, as `matching.augment` tries them. */
static int
augment(Search *s, u64 *rows, int *mrow, int nb, int b)
{
    int W = s->W;
    for (int w = 0; w < W; w++) {
        u64 avail = rows[(size_t)b * W + w] & ~s->seen[w];
        while (avail) {
            u64 lsb = avail & -avail;
            int u = w * 64 + __builtin_ctzll(avail);
            avail ^= lsb;
            s->seen[w] |= lsb;
            int owner = -1;
            for (int bb = 0; bb < nb; bb++)
                if (mrow[bb] == u) {
                    owner = bb;
                    break;
                }
            if (owner < 0 || augment(s, rows, mrow, nb, owner)) {
                mrow[b] = u;
                return 1;
            }
        }
    }
    return 0;
}

/* Clear `seen` and augment from block b. */
static int
rematch(Search *s, u64 *rows, int *mrow, int nb, int b)
{
    memset(s->seen, 0, (size_t)s->W * sizeof(u64));
    mrow[b] = -1;
    return augment(s, rows, mrow, nb, b);
}

/* Narrow block b's users to `mask`, rematching it over nb blocks when it
   loses its user; 0 when the block is left empty or unmatched. */
static int
narrow(Search *s, u64 *rows, int *mrow, int nb, int b, const u64 *mask)
{
    u64 *row = rows + (size_t)b * s->W, changed = 0, any = 0;
    for (int w = 0; w < s->W; w++) {
        u64 newm = row[w] & mask[w];
        changed |= newm ^ row[w];
        any |= newm;
        row[w] = newm;
    }
    if (!any)
        return 0;
    int u = mrow[b];
    return !changed || row[u >> 6] >> (u & 63) & 1
           || rematch(s, rows, mrow, nb, b);
}

/* Narrow the blocks covering each restricted SUAL scope to its
   super-users, repairing the matching; 0 when it cannot saturate. */
static int
restrict_suals(Search *s, u64 *rows, int *mrow, int nb, int nrestricted)
{
    for (int i = 0; i < nrestricted; i++) {
        const u64 *xmask = s->xmasks + (size_t)s->restricted[i] * s->W;
        for (u64 cov = s->restricted_cov[i]; cov; cov &= cov - 1)
            if (!narrow(s, rows, mrow, nb, __builtin_ctzll(cov), xmask))
                return 0;
    }
    return 1;
}

/* Room for one more class of `blocks` blocks in `lv`; -1 on no memory. */
static int
reserve(Level *lv, int blocks, int W)
{
    if (lv->count < lv->cap)
        return 0;
    Py_ssize_t cap = lv->cap ? 2 * lv->cap : 4;
    size_t width = (size_t)blocks ? (size_t)blocks : 1;
    int *lo = PyMem_Realloc(lv->lo, cap * sizeof(int));
    if (lo)
        lv->lo = lo;
    int *hi = PyMem_Realloc(lv->hi, cap * sizeof(int));
    if (hi)
        lv->hi = hi;
    u64 *rows = PyMem_Realloc(lv->rows, cap * width * W * sizeof(u64));
    if (rows)
        lv->rows = rows;
    int *mrow = PyMem_Realloc(lv->mrow, cap * width * sizeof(int));
    if (mrow)
        lv->mrow = mrow;
    if (!lo || !hi || !rows || !mrow) {
        PyErr_NoMemory();
        return -1;
    }
    lv->cap = cap;
    return 0;
}

/* 1 when time.perf_counter() is past the deadline, -1 on an error. */
static int
past(double deadline)
{
    PyObject *now = PyObject_CallMethod(time_module, "perf_counter", NULL);
    if (now == NULL)
        return -1;
    double t = PyFloat_AsDouble(now);
    Py_DECREF(now);
    if (t == -1.0 && PyErr_Occurred())
        return -1;
    return t > deadline;
}

/* The depth-first walk over an explicit stack: `_pure.run_search`'s loop.
   Returns the status, or -1 with an exception set. */
static int
search(Search *s, int64_t cap, int64_t max_patterns, int has_deadline,
       double deadline, int64_t *nodes_out, int64_t *patterns_out,
       int *plan)
{
    int k = s->k, W = s->W, nC = s->ncounts;
    size_t ns = s->nscopes;
    int64_t nodes = 0, patterns = 0;
    int status = UNSAT;

    Level *root = &s->levels[0];
    if (reserve(root, 0, W) < 0)
        return -1;
    root->lo[0] = 0;
    root->hi[0] = s->m;
    root->count = 1;
    /* At depth 0 every cover is empty, and a count check there rules out
       block 0. */
    s->left[0] = s->checks[0][0] ? 0 : 1;
    s->nbs[0] = 0;
    /* the node count at which a budget is next due */
    int64_t stop = has_deadline && cap > TIME_CHECK_EVERY ? TIME_CHECK_EVERY : cap;
    int d = 0;
    while (d >= 0) {
        u64 blocks = s->left[d];
        if (!blocks) {
            d--;
            continue;
        }
        u64 lsb = blocks & -blocks;
        s->left[d] = blocks ^ lsb;
        nodes++;
        if (nodes >= stop) {
            /* below the cap, only the deadline's tick is due */
            int late = nodes >= cap ? 1 : past(deadline);
            if (late < 0)
                return -1;
            if (late) {
                status = BUDGET;
                break;
            }
            stop = nodes + TIME_CHECK_EVERY < cap ? nodes + TIME_CHECK_EVERY : cap;
        }

        /* place depth d's step in block b: depth d+1's UI state */
        int b = __builtin_ctzll(lsb), nb = s->nbs[d];
        int nb2 = b == nb ? nb + 1 : nb, d1 = d + 1;
        u64 *cov = s->cover + d1 * ns;
        memcpy(cov + d1, s->cover + d * ns + d1, (ns - d1) * sizeof(u64));
        const int *holders = s->holders[d];
        for (int j = 1; j <= holders[0]; j++)
            cov[holders[j]] |= lsb;
        if (d1 < k) {
            u64 full = ((u64)2 << nb2) - 1; /* nb2 < 64 here */
            blocks = (cov[d1] & full) ^ full;
            const int *check = s->checks[d1] + 1;
            for (int j = 0; j < s->checks[d1][0]; j++, check += 3) {
                u64 c = cov[check[0]];
                int r = check[1], distinct = __builtin_popcountll(c);
                if (check[2]) {
                    /* never more than r: the first r scope depths cover at
                       most r blocks, and from position r on this check
                       keeps them at r */
                    if (distinct == r)
                        blocks &= c;
                }
                else if (distinct < r) {
                    if (distinct + 1 < r) {
                        blocks = 0;
                        break;
                    }
                    blocks &= ~c;
                }
            }
            if (!blocks)
                continue;
            s->left[d1] = blocks;
        }

        int nrestricted = 0;
        const int *end = s->ends[d] + 1;
        for (int j = 0; j < s->ends[d][0]; j++, end += 2) {
            u64 c = cov[k + nC + end[0]];
            if (__builtin_popcountll(c) <= end[1]) {
                s->restricted[nrestricted] = end[0];
                s->restricted_cov[nrestricted++] = c;
            }
        }

        /* the matching repair of each alive class */
        const Level *up = &s->levels[d];
        Level *kids = &s->levels[d1];
        int *run_end = s->run_end + (size_t)d * s->m;
        kids->count = 0;
        for (Py_ssize_t i = 0; i < up->count; i++) {
            int lo = up->lo[i], hi = up->hi[i];
            const u64 *rows_p = up->rows + (size_t)i * d * W;
            const int *mrow_p = up->mrow + (size_t)i * d;
            if (!run_end[lo])
                split(s, d, lo, hi);
            for (int clo = lo, chi; clo < hi; clo = chi) {
                chi = run_end[clo];
                const u64 *step_mask = column(s, clo, d);
                int w = 0;
                if (b == nb) {
                    while (w < W && !step_mask[w])
                        w++;
                    if (w == W)
                        continue;
                }
                if (reserve(kids, d1, W) < 0)
                    return -1;
                u64 *rows = kids->rows + (size_t)kids->count * d1 * W;
                int *mrow = kids->mrow + (size_t)kids->count * d1;
                memcpy(rows, rows_p, (size_t)nb * W * sizeof(u64));
                memcpy(mrow, mrow_p, (size_t)nb * sizeof(int));
                if (b == nb) {
                    memcpy(rows + (size_t)nb * W, step_mask, W * sizeof(u64));
                    /* augment's first step: the lowest user, when free */
                    int u = w * 64 + __builtin_ctzll(step_mask[w]), owned = 0;
                    for (int bb = 0; bb < nb; bb++)
                        owned |= mrow[bb] == u;
                    mrow[nb] = u;
                    if (owned && !rematch(s, rows, mrow, nb2, nb))
                        continue;
                }
                else if (!narrow(s, rows, mrow, nb, b, step_mask))
                    continue;
                if (nrestricted && !restrict_suals(s, rows, mrow, nb2, nrestricted))
                    continue;
                kids->lo[kids->count] = clo;
                kids->hi[kids->count++] = chi;
            }
        }
        if (!kids->count)
            continue;
        s->assign[d] = b;
        d = d1;
        if (d == k) {
            patterns++;
            if (patterns > max_patterns) {
                status = BUDGET;
            }
            else {
                /* the first class alive at full depth gives the plan */
                const int *mrow = kids->mrow;
                for (int e = 0; e < k; e++)
                    plan[s->order[e]] = mrow[s->assign[e]];
                status = SAT;
            }
            break;
        }
        s->nbs[d] = nb2;
    }
    *nodes_out = nodes;
    *patterns_out = patterns;
    return status;
}

/* --- the module -------------------------------------------------------------- */

/* An optional int argument as an int64: `none` for None, and the nearest
   of +-NEVER past that range. */
static int
optional_count(PyObject *arg, int64_t none, int64_t *out)
{
    if (arg == Py_None) {
        *out = none;
        return 0;
    }
    int overflow;
    long long v = PyLong_AsLongLongAndOverflow(arg, &overflow);
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (overflow || v > NEVER || v < -NEVER)
        v = overflow < 0 || v < 0 ? -NEVER : NEVER;
    *out = v;
    return 0;
}

static int
get_buffer(PyObject *obj, Py_buffer *view, Py_ssize_t itemsize)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0)
        return -1;
    if (view->itemsize != itemsize) {
        PyBuffer_Release(view);
        PyErr_SetString(PyExc_ValueError, "malformed packed search problem");
        return -1;
    }
    return 0;
}

PyDoc_STRVAR(py_search_doc,
"search(ints, words, max_nodes=None, max_patterns=None, deadline=None)\n"
"--\n\n"
"Run the depth-first pattern search on a problem that wspkit._kernel.pack\n"
"laid out in `ints` and `words`; the budgets mean what they mean to the\n"
"pure backend's run_search.  Returns (status, plan | None, patterns,\n"
"nodes, matchings).");

static PyObject *
py_search(PyObject *Py_UNUSED(module), PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"ints", "words", "max_nodes", "max_patterns",
                             "deadline", NULL};
    PyObject *ints_obj, *words_obj, *max_nodes = Py_None;
    PyObject *max_patterns = Py_None, *deadline = Py_None;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OO|OOO:search", kwlist,
                                     &ints_obj, &words_obj, &max_nodes,
                                     &max_patterns, &deadline))
        return NULL;
    int64_t cap, patterns_cap;
    double when = 0.0;
    if (optional_count(max_nodes, NEVER, &cap) < 0
        || optional_count(max_patterns, NEVER, &patterns_cap) < 0)
        return NULL;
    cap = cap < NEVER ? cap + 1 : NEVER; /* the node count that breaks it */
    if (deadline != Py_None) {
        when = PyFloat_AsDouble(deadline);
        if (when == -1.0 && PyErr_Occurred())
            return NULL;
    }

    Py_buffer ints, words;
    if (get_buffer(ints_obj, &ints, sizeof(int)) < 0)
        return NULL;
    if (get_buffer(words_obj, &words, sizeof(u64)) < 0) {
        PyBuffer_Release(&ints);
        return NULL;
    }

    PyObject *result = NULL;
    Search *s = alloc(1, sizeof(Search));
    int plan[MAX_STEPS];
    int64_t nodes = 0, patterns = 0;
    int status = -1;
    if (s != NULL
        && load(s, ints.buf, ints.len / (Py_ssize_t)sizeof(int), words.buf,
                words.len / (Py_ssize_t)sizeof(u64)) == 0) {
        if (s->k == 0 || s->m == 0)
            status = UNSAT;
        else
            status = search(s, cap, patterns_cap, deadline != Py_None, when,
                            &nodes, &patterns, plan);
    }
    if (status >= 0) {
        PyObject *plan_list = Py_None;
        Py_INCREF(plan_list);
        if (status == SAT) {
            Py_DECREF(plan_list);
            plan_list = PyList_New(s->k);
            for (int e = 0; plan_list && e < s->k; e++) {
                PyObject *user = PyLong_FromLong(plan[e]);
                if (user == NULL)
                    Py_CLEAR(plan_list);
                else
                    PyList_SET_ITEM(plan_list, e, user);
            }
        }
        if (plan_list != NULL)
            result = Py_BuildValue("(iNLLi)", status, plan_list,
                                   (long long)patterns, (long long)nodes,
                                   status == SAT);
    }
    if (s != NULL) {
        free_search(s);
        PyMem_Free(s);
    }
    PyBuffer_Release(&words);
    PyBuffer_Release(&ints);
    return result;
}

static PyMethodDef methods[] = {
    {"search", (PyCFunction)(void (*)(void))py_search,
     METH_VARARGS | METH_KEYWORDS, py_search_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_speed",
    .m_doc = "Compiled search backend: _pure.run_search in C.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__speed(void)
{
    if (time_module == NULL && !(time_module = PyImport_ImportModule("time")))
        return NULL;
    return PyModule_Create(&module);
}
