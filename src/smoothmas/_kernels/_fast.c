/*
 * Sampling kernel for scripted policies, and the stream primitives.
 *
 * One sampling entry, sample_outputs: m perturbed policy outputs from stream
 * index start_index on, mirroring smoothing.sample_policy. Smoothed decisions
 * (the probe, the variance budget and the trimmed mean) and certificates stay
 * in Python and draw their samples here. On request (sort=True) the kernel
 * also sorts its own output: one ascending column per component, which is
 * what certificates count regions on. Decisions take the rows in stream order.
 *
 * The twins mix64, fold, word_at and uniform_at mirror core's functions of
 * the same names. Under the fast backend, _kernels binds core's stream-key
 * derivation and uniform draws to fold and uniform_at. Like core, they are
 * total on Python ints: every argument is reduced modulo 2^64, so negative
 * and oversized words give core's values instead of raising.
 *
 * Sampling mirrors, operation for operation, the pure path: core.Stream
 * draws and policy.evaluate_policy / policy.hallucinate_wrap arithmetic.
 * Outputs are bit-identical to the Python implementation; the parity tests
 * enforce that. Any change here must be made in the Python reference as well.
 *
 * Bit-identity also depends on the compiler rounding every multiply and add
 * separately, as Python does: build with -ffp-contract=off and never with
 * -ffast-math (see setup.py).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <math.h>
#include <stdint.h>

typedef uint64_t u64;

static const double INV_2_53 = 1.0 / 9007199254740992.0;
static const double TWO_PI = 6.283185307179586;
static const u64 GAMMA = 0x9E3779B97F4A7C15ULL;

/* ---- counter-addressed stream primitives (core.mix64 and friends) ---- */

static inline u64 c_mix64(u64 z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

static inline u64 c_fold(u64 h, u64 w) { return c_mix64((h * GAMMA) ^ c_mix64(w)); }

static inline u64 c_word_at(u64 key, u64 i) { return c_mix64(key + (i + 1) * GAMMA); }

static inline double c_uniform_at(u64 key, u64 i)
{
    return (double)(c_word_at(key, i) >> 11) * INV_2_53;
}

typedef struct {
    u64 key;
    u64 cursor;
} CStream;

static inline double stream_uniform(CStream *s)
{
    double u = c_uniform_at(s->key, s->cursor);
    s->cursor += 1;
    return u;
}

/* Box-Muller, cosine branch only, so every draw stays slot-addressable. */
static inline double stream_gaussian(CStream *s)
{
    double u1 = c_uniform_at(s->key, s->cursor);
    double u2 = c_uniform_at(s->key, s->cursor + 1);
    s->cursor += 2;
    double r = sqrt(-2.0 * log(1.0 - u1));
    return r * cos(TWO_PI * u2);
}

static inline double clamp1(double x, double lo, double hi)
{
    if (x < lo)
        return lo;
    if (x > hi)
        return hi;
    return x;
}

/* ---- the policy query ---- */

typedef struct {
    const double *own, *nbrs, *target, *lo, *hi;
    int k, d, mimic, mode;
    double w, jitter_sd, p_h, magnitude, sigma;
} Query;

/* One perturbed, hallucination-wrapped policy query. scratch holds
 * (k + 2) * d doubles: perturbed own, perturbed neighbors, base output. */
static void eval_sample(const Query *q, CStream *stream, double *out, double *scratch)
{
    const int k = q->k, d = q->d;
    double *p_own = scratch;
    double *p_nbrs = scratch + d;
    double *base = scratch + (size_t)(k + 1) * d;
    int c, j, halluc = 0;

    for (c = 0; c < d; c++)
        p_own[c] = clamp1(q->own[c] + q->sigma * stream_gaussian(stream), q->lo[c], q->hi[c]);
    for (j = 0; j < k; j++)
        for (c = 0; c < d; c++)
            p_nbrs[j * d + c] = clamp1(q->nbrs[j * d + c] + q->sigma * stream_gaussian(stream),
                                       q->lo[c], q->hi[c]);

    if (q->p_h > 0.0 && stream_uniform(stream) < q->p_h)
        halluc = 1;

    if (halluc && q->mode == 1) { /* uniform-random over the domain */
        for (c = 0; c < d; c++)
            out[c] = q->lo[c] + (q->hi[c] - q->lo[c]) * stream_uniform(stream);
        return;
    }
    if (halluc && q->mode == 2) { /* fixed-target */
        for (c = 0; c < d; c++)
            out[c] = clamp1(q->target[c], q->lo[c], q->hi[c]);
        return;
    }

    /* base policy evaluation (needed both for the honest branch and large-jump) */
    if (k == 0) {
        for (c = 0; c < d; c++)
            base[c] = p_own[c];
    } else {
        for (c = 0; c < d; c++) {
            double acc = 0.0;
            for (j = 0; j < k; j++)
                acc += p_nbrs[j * d + c];
            base[c] = q->w * p_own[c] + (1.0 - q->w) * (acc / k);
        }
        if (q->mimic)
            for (c = 0; c < d; c++)
                base[c] = base[c] + q->jitter_sd * stream_gaussian(stream);
        for (c = 0; c < d; c++)
            base[c] = clamp1(base[c], q->lo[c], q->hi[c]);
    }

    if (!halluc) {
        for (c = 0; c < d; c++)
            out[c] = base[c];
        return;
    }

    /* large-jump: displace the base output by +-magnitude per component */
    for (c = 0; c < d; c++) {
        double sign = stream_uniform(stream) < 0.5 ? 1.0 : -1.0;
        out[c] = clamp1(base[c] + sign * q->magnitude, q->lo[c], q->hi[c]);
    }
}

/* Samples start .. start + count - 1 of the branch `prefix` into samples[0 .. count). */
static void sample_range(const Query *q, u64 prefix, u64 start, size_t count, double *samples,
                         double *scratch)
{
    CStream stream;
    for (size_t s = 0; s < count; s++) {
        stream.key = c_fold(prefix, start + (u64)s);
        stream.cursor = 0;
        eval_sample(q, &stream, samples + s * (size_t)q->d, scratch);
    }
}

/* ---- stable ascending sort of one column ---- */

#define SORT_RUN 8

/* Sort a[0 .. n) ascending with `<`, using buf[0 .. n) as scratch, and return
 * whichever of the two holds the result. The sort is stable: ties, including
 * -0.0 against 0.0, keep their input order. On NaN-free input it therefore
 * equals Python's sorted() element for element. Insertion-sorted runs of
 * SORT_RUN, then bottom-up merges that alternate between a and buf. */
static double *sort_column(double *a, double *buf, size_t n)
{
    for (size_t lo = 0; lo < n; lo += SORT_RUN) {
        size_t hi = n - lo < SORT_RUN ? n : lo + SORT_RUN;
        for (size_t i = lo + 1; i < hi; i++) {
            double x = a[i];
            size_t j = i;
            for (; j > lo && x < a[j - 1]; j--)
                a[j] = a[j - 1];
            a[j] = x;
        }
    }
    double *src = a, *dst = buf;
    for (size_t width = SORT_RUN; width < n; width *= 2) {
        for (size_t lo = 0; lo < n; lo += 2 * width) {
            size_t mid = n - lo < width ? n : lo + width;
            size_t hi = n - mid < width ? n : mid + width;
            size_t i = lo, j = mid, k = lo;
            while (i < mid && j < hi) {
                /* take from the right run only when strictly smaller */
                int right = src[j] < src[i];
                dst[k++] = right ? src[j] : src[i];
                j += right;
                i += !right;
            }
            while (i < mid)
                dst[k++] = src[i++];
            while (j < hi)
                dst[k++] = src[j++];
        }
        double *t = src;
        src = dst;
        dst = t;
    }
    return src;
}

/* ---- Python entry points ---- */

/* Copy exactly n floats out of a Python sequence. */
static int read_doubles(PyObject *obj, const char *name, Py_ssize_t n, double *dst)
{
    PyObject *seq = PySequence_Fast(obj, "kernel vector arguments must be sequences");
    if (seq == NULL)
        return -1;
    if (PySequence_Fast_GET_SIZE(seq) != n) {
        PyErr_Format(PyExc_ValueError, "%s must hold %zd values, got %zd", name, n,
                     PySequence_Fast_GET_SIZE(seq));
        Py_DECREF(seq);
        return -1;
    }
    PyObject **items = PySequence_Fast_ITEMS(seq);
    for (Py_ssize_t i = 0; i < n; i++) {
        dst[i] = PyFloat_AsDouble(items[i]);
        if (dst[i] == -1.0 && PyErr_Occurred()) {
            Py_DECREF(seq);
            return -1;
        }
    }
    Py_DECREF(seq);
    return 0;
}

/* Any Python int, reduced modulo 2^64 as core's `& MASK64` reduces it. */
static int read_u64(PyObject *obj, u64 *out)
{
    unsigned long long v = PyLong_AsUnsignedLongLongMask(obj);
    if (v == (unsigned long long)-1 && PyErr_Occurred())
        return -1;
    *out = (u64)v;
    return 0;
}

static PyObject *py_mix64(PyObject *self, PyObject *arg)
{
    u64 z;
    if (read_u64(arg, &z) < 0)
        return NULL;
    return PyLong_FromUnsignedLongLong(c_mix64(z));
}

static int read_u64_pair(PyObject *args, const char *fname, u64 *a, u64 *b)
{
    PyObject *x, *y;
    if (!PyArg_UnpackTuple(args, fname, 2, 2, &x, &y))
        return -1;
    return (read_u64(x, a) < 0 || read_u64(y, b) < 0) ? -1 : 0;
}

static PyObject *py_fold(PyObject *self, PyObject *args)
{
    u64 h, w;
    if (read_u64_pair(args, "fold", &h, &w) < 0)
        return NULL;
    return PyLong_FromUnsignedLongLong(c_fold(h, w));
}

static PyObject *py_word_at(PyObject *self, PyObject *args)
{
    u64 key, i;
    if (read_u64_pair(args, "word_at", &key, &i) < 0)
        return NULL;
    return PyLong_FromUnsignedLongLong(c_word_at(key, i));
}

static PyObject *py_uniform_at(PyObject *self, PyObject *args)
{
    u64 key, i;
    if (read_u64_pair(args, "uniform_at", &key, &i) < 0)
        return NULL;
    return PyFloat_FromDouble(c_uniform_at(key, i));
}

/* Parse a query tuple
 *   (own, nbrs_flat, k, d, w, mimic, jitter_sd, p_h, mode, magnitude, target, lo, hi, sigma)
 * into q. Its vectors are copied into one block, returned for PyMem_Free, so q
 * stays valid with the GIL released. NULL with an exception set on failure. */
static double *read_query(PyObject *tuple, Query *q)
{
    PyObject *own_obj, *nbrs_obj, *target_obj, *lo_obj, *hi_obj;

    if (!PyArg_ParseTuple(tuple, "OOiididdidOOOd:query", &own_obj, &nbrs_obj,
                          &q->k, &q->d, &q->w, &q->mimic, &q->jitter_sd, &q->p_h, &q->mode,
                          &q->magnitude, &target_obj, &lo_obj, &hi_obj, &q->sigma))
        return NULL;
    if (q->k < 0 || q->d < 1) {
        PyErr_SetString(PyExc_ValueError, "query needs k >= 0 and d >= 1");
        return NULL;
    }

    const size_t k = (size_t)q->k, d = (size_t)q->d;
    /* own, target, lo, hi: d each; neighbors: k*d */
    double *buf = PyMem_New(double, 4 * d + k * d);
    if (buf == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    double *own = buf, *target = own + d, *lo = target + d, *hi = lo + d, *nbrs = hi + d;
    if (read_doubles(own_obj, "own", q->d, own) < 0 ||
        read_doubles(nbrs_obj, "nbrs_flat", (Py_ssize_t)q->k * q->d, nbrs) < 0 ||
        read_doubles(target_obj, "target", q->d, target) < 0 ||
        read_doubles(lo_obj, "lo", q->d, lo) < 0 || read_doubles(hi_obj, "hi", q->d, hi) < 0) {
        PyMem_Free(buf);
        return NULL;
    }
    q->own = own;
    q->nbrs = nbrs;
    q->target = target;
    q->lo = lo;
    q->hi = hi;
    return buf;
}

/* A tuple of the n floats x[0 .. n). */
static PyObject *float_tuple(const double *x, Py_ssize_t n)
{
    PyObject *tup = PyTuple_New(n);
    if (tup == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *f = PyFloat_FromDouble(x[i]);
        if (f == NULL) {
            Py_DECREF(tup);
            return NULL;
        }
        PyTuple_SET_ITEM(tup, i, f);
    }
    return tup;
}

static PyObject *py_sample_outputs(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"query", "m", "start_index", "prefix", "sort", NULL};
    PyObject *query, *start_obj, *prefix_obj;
    Py_ssize_t m;
    int sort = 0;
    Query q;
    u64 start, prefix;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "O!nOO|p:sample_outputs", kwlist,
                                     &PyTuple_Type, &query, &m, &start_obj, &prefix_obj,
                                     &sort))
        return NULL;
    if (read_u64(start_obj, &start) < 0 || read_u64(prefix_obj, &prefix) < 0)
        return NULL;
    if (m < 0) {
        PyErr_SetString(PyExc_ValueError, "need m >= 0");
        return NULL;
    }
    double *qbuf = read_query(query, &q);
    if (qbuf == NULL)
        return NULL;

    double *buf = NULL;
    PyObject *result = NULL;
    const size_t k = (size_t)q.k, d = (size_t)q.d;
    /* samples: m*d; eval_sample's scratch: (k+2)*d; with sort, one column and
     * its merge buffer: 2*m. Bound m first, so that no size below wraps. */
    const size_t limit = (size_t)PY_SSIZE_T_MAX / sizeof(double);
    const size_t per_sample = d + (sort ? 2 : 0);
    if (k + 2 > limit / d || (size_t)m > (limit - (k + 2) * d) / per_sample) {
        PyErr_Format(PyExc_MemoryError, "%zd samples of dimension %d do not fit in memory", m,
                     q.d);
        goto done;
    }
    buf = PyMem_New(double, (size_t)m * per_sample + (k + 2) * d);
    if (buf == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    double *samples = buf, *scratch = samples + (size_t)m * d;
    double *column = scratch + (k + 2) * d, *merge = column + m;

    Py_BEGIN_ALLOW_THREADS
    sample_range(&q, prefix, start, (size_t)m, samples, scratch);
    Py_END_ALLOW_THREADS

    if (!sort) { /* m rows in stream order */
        result = PyTuple_New(m);
        for (Py_ssize_t s = 0; result != NULL && s < m; s++) {
            PyObject *row = float_tuple(samples + (size_t)s * d, q.d);
            if (row == NULL)
                Py_CLEAR(result);
            else
                PyTuple_SET_ITEM(result, s, row);
        }
    } else { /* d ascending columns */
        result = PyTuple_New(q.d);
        for (size_t c = 0; result != NULL && c < d; c++) {
            double *sorted;
            Py_BEGIN_ALLOW_THREADS
            for (size_t s = 0; s < (size_t)m; s++)
                column[s] = samples[s * d + c];
            sorted = sort_column(column, merge, (size_t)m);
            Py_END_ALLOW_THREADS
            PyObject *col = float_tuple(sorted, m);
            if (col == NULL)
                Py_CLEAR(result);
            else
                PyTuple_SET_ITEM(result, (Py_ssize_t)c, col);
        }
    }

done:
    PyMem_Free(buf);
    PyMem_Free(qbuf);
    return result;
}

static PyMethodDef fast_methods[] = {
    {"mix64", py_mix64, METH_O, "SplitMix64 finalizer; twin of core.mix64."},
    {"fold", py_fold, METH_VARARGS, "fold(h, w); twin of core.fold."},
    {"word_at", py_word_at, METH_VARARGS, "word_at(key, i); twin of core.word_at."},
    {"uniform_at", py_uniform_at, METH_VARARGS, "uniform_at(key, i); twin of core.uniform_at."},
    {"sample_outputs", (PyCFunction)(void (*)(void))py_sample_outputs,
     METH_VARARGS | METH_KEYWORDS,
     "sample_outputs(query, m, start_index, prefix, sort=False)\n\n"
     "Perturbed outputs of the scripted policy for stream indices\n"
     "start_index .. start_index + m - 1: a tuple of m d-tuples in stream\n"
     "order or, with sort true, d tuples (one per component) of m values in\n"
     "ascending order, stable, as sorted() orders them."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef fast_module = {
    PyModuleDef_HEAD_INIT, "_fast",
    "Sampling kernel for scripted policies, bit-identical to the pure-Python path.",
    -1, fast_methods,
};

PyMODINIT_FUNC PyInit__fast(void) { return PyModule_Create(&fast_module); }
